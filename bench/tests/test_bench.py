"""Tests of the benchmark itself: small runs of every workload, the
tracer's byte identity and clean-up, and the exit without a program.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

import qelliptic
import reference
import run
import workloads
from tracer import Tracer

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _tiny(name: str, seed: int = 3):
    """A workload of the given kind, shrunk to a few seconds."""
    if name == "suite-60":
        w = workloads.Suite(seed, digits=40, selector="lemma1")
    elif name == "recognize-120":
        w = workloads.Recognize(seed, pool=workloads.RECOGNITION_POOL[:2])
    else:
        w = workloads.EvalMix(seed, digits=(30,), strata=1)
    w.min_passes = 1
    return w


@pytest.fixture
def small_reference(monkeypatch):
    monkeypatch.setattr(
        reference, "reference_ms",
        functools.partial(reference.reference_ms, pool=workloads.RECOGNITION_POOL[:2]),
    )


def _names_and_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    attempted, failed, metrics = run.run_untraced(_tiny(name), 0.0, [])
    assert {k: u for k, (_, u) in metrics.items()} == _names_and_units("end_to_end")
    assert attempted > 0 and failed == 0
    assert metrics["ok_ratio"][0] == 1.0
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, small_reference):
    attempted, failed, metrics = run.run_traced(_tiny(name), 0.0, 3, [])
    assert {k: u for k, (_, u) in metrics.items()} == _names_and_units("per_layer")
    assert attempted > 0 and failed == 0
    assert metrics["trace.overhead_ratio"][0] > 0
    # self times of all spans add up to the traced pass, less the share
    # spent in the benchmark's own loop
    assert -0.01 < metrics["trace.untraced_share"][0] < 0.5


def test_every_workload_is_declared():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def _bindings() -> dict:
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod is not None and (mod_name == "qelliptic" or mod_name.startswith("qelliptic.")):
            for attr, val in vars(mod).items():
                if callable(val):
                    out[(mod_name, attr)] = val
    out["PrecisionSpec.context"] = qelliptic.PrecisionSpec.__dict__["context"]
    return out


def test_tracer_keeps_report_bytes_and_restores_bindings():
    before = _bindings()
    plain = qelliptic.run_suite("lemma1", 40, 42).to_json()
    tracer = Tracer()
    with tracer:
        assert qelliptic.verify.theta4 is not before[("qelliptic.verify", "theta4")]
        assert qelliptic.cfrac.qpow is qelliptic.qfunctions.qpow
        traced = qelliptic.run_suite("lemma1", 40, 42).to_json()
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    summary = tracer.summary()
    assert summary["layers"]["verify"]["calls"] >= 1
    assert summary["calls_by_name"]["PrecisionSpec.context"] > 0


def test_tracer_counts_engine_callables():
    prec = qelliptic.PrecisionSpec(30)
    prec_120 = qelliptic.PrecisionSpec(120)
    with Tracer() as tracer:
        qelliptic.euler_f(0.1, prec)
        qelliptic.r1_cf(0.1, prec)
        found = qelliptic.find_minpoly(prec_120.context().sqrt(2), 4, prec=prec_120)
    assert tracer.counts["numerics.product_factors"] > 0
    assert tracer.counts["cfrac.cf_depth"] > 0
    assert tracer.summary()["calls_by_name"]["qpow"] > 0
    # degrees 1 and 2 are searched before sqrt(2) is found
    assert found.degree == 2 and tracer.counts["algrec.degrees_tried"] == 2


def test_eval_mix_draws_no_repeats():
    w = workloads.EvalMix(5)
    keys = [(e, repr(a), d) for k in range(2) for e, a, d in w.draw(k)]
    assert len(keys) == len(set(keys)) == 2 * 200


def test_quantile_estimates():
    assert run.quantile([1, 2, 3, 4, 5], 50) == pytest.approx(3)
    assert run.quantile([7.0] * 9, 95) == pytest.approx(7.0)
    xs = [0.06] * 6 + [0.2] * 16 + [1.4] * 16
    assert run.quantile(xs, 50) < run.quantile(xs, 73) < run.quantile(xs, 95)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "eval-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_raising_suite_counts_failed_ops(monkeypatch):
    def raising(*args, **kwargs):
        raise qelliptic.NonConvergence("no exception boundary in run_suite")

    monkeypatch.setattr(qelliptic, "run_suite", raising)
    w = _tiny("suite-60")
    attempted, failed, metrics = run.run_untraced(w, 0.0, [])
    assert attempted == failed == len(w.checks)
    assert metrics["ok_ratio"][0] == 0.0
