"""Identity-check registry and suite runner: determinism, schema, statuses."""

import dataclasses
import inspect
import json
import sys

import mpmath
import pytest

import qelliptic.verify
from qelliptic import cfrac, hyperq, qfunctions, rquantity
from qelliptic.algrec import NOT_FOUND, MinPolyResult
from qelliptic.numerics import NonConvergence, PrecisionSpec, UnknownSelector, _report_memo
from qelliptic.verify import (
    DISCREPANCY_ALLOWED,
    NORMATIVE,
    _recognition_residual,
    _run_one,
    register_builtin_checks,
    run_suite,
)


def test_registry_shape():
    checks = register_builtin_checks()
    assert len(checks) >= 50
    ids = [c.id for c in checks]
    assert len(ids) == len(set(ids)), "check ids must be unique"
    assert ids == sorted(ids), "registry is sorted by id"
    for c in checks:
        assert c.severity in (NORMATIVE, DISCREPANCY_ALLOWED)
        assert c.description
        assert c.formula
        assert isinstance(c.covers, tuple) and c.covers
        assert c.min_digits >= 10
        assert inspect.isgeneratorfunction(c.run)


def test_every_check_function_is_registered_once():
    # a _chk_* body without its @check decorator would silently never run
    bodies = {
        f
        for name, f in vars(qelliptic.verify).items()
        if name.startswith("_chk_") and inspect.isfunction(f)
    }
    runs = [c.run for c in register_builtin_checks()]
    assert len(runs) == len(set(runs)) == 61
    assert set(runs) == bodies


def test_duplicate_check_id_is_rejected():
    register = qelliptic.verify.check("lemma1.k", covers=("eq8",), description="d", formula="f")
    with pytest.raises(ValueError, match="duplicate"):
        register(lambda prec, rng: [])
    assert len(register_builtin_checks()) == 61


def _raising(prec, rng):
    raise NonConvergence("forced")


def _yielding_then_raising(prec, rng):
    yield mpmath.mpf(0)
    raise NonConvergence("forced")


@pytest.fixture
def raising_lemma1_K(monkeypatch):
    """Replaces lemma1.K's body by the one it is given."""

    def patch(body):
        registry = qelliptic.verify._REGISTRY
        patched = dataclasses.replace(registry["lemma1.K"], run=body)
        monkeypatch.setitem(registry, "lemma1.K", patched)

    return patch


def test_a_raising_check_is_an_error_not_an_abort(raising_lemma1_K):
    # a residual yielded before the raise does not count as a sample
    for body in (_raising, _yielding_then_raising):
        raising_lemma1_K(body)
        rep = run_suite("lemma1", digits=40)
        by_id = {c.id: c for c in rep.checks}
        assert by_id["lemma1.K"].status == "error"
        assert by_id["lemma1.K"].max_abs_error == "NonConvergence"
        assert by_id["lemma1.K"].samples == 0
        assert by_id["lemma1.k"].status == "pass"
        assert rep.counts == {"pass": 1, "fail": 0, "discrepancy": 0, "skip": 0, "error": 1}
        assert not rep.ok
        assert rep.to_text().endswith("0 skip, 1 error -> FAIL")
        assert rep.to_text().splitlines()[2].split()[:4] == ["lemma1.K", "error", "NonConvergence", "-"]
        entry = json.loads(rep.to_json())["checks"][0]
        assert entry == {
            "id": "lemma1.K",
            "status": "error",
            "max_abs_error": "NonConvergence",
            "samples": 0,
            "seconds": 0.0,
        }


def _leaving(prec, rng):
    raise RuntimeError("not a NumericsError: it leaves run_suite")
    yield


def test_run_suite_drops_its_memo(raising_lemma1_K):
    assert _report_memo.get() is None
    run_suite("lemma1", digits=40)
    assert _report_memo.get() is None
    raising_lemma1_K(_raising)
    assert run_suite("lemma1", digits=40).counts["error"] == 1
    assert _report_memo.get() is None
    raising_lemma1_K(_leaving)
    with pytest.raises(RuntimeError):
        run_suite("lemma1", digits=40)
    assert _report_memo.get() is None


@pytest.mark.parametrize("digits", [40, 120])
def test_every_value_a_pass_stores_is_hashable(digits, monkeypatch):
    # memoized functions return mpf, mpc, tuples or frozen dataclasses,
    # never a list, dict or set that a later caller could change
    memos = []

    def run_one(*args):
        memos.append(_report_memo.get())
        return _run_one(*args)

    monkeypatch.setattr(qelliptic.verify, "_run_one", run_one)
    run_suite("all", digits)
    memo = memos[-1]
    assert len(memo) > 900 and all(m is memo for m in memos)
    for value in memo.values():
        hash(value)


def test_a_shared_memo_changes_no_outcome():
    # each check alone, with a memo of its own, against the whole report
    # (select by exact id: thm6.eq61 is a prefix of thm6.eq61-general)
    shared = run_suite("all", 40).checks
    for outcome in shared:
        alone = [c for c in run_suite(outcome.id, 40).checks if c.id == outcome.id]
        assert [(c.status, c.max_abs_error, c.samples) for c in alone] == [
            (outcome.status, outcome.max_abs_error, outcome.samples)
        ], outcome.id


def test_tolerance_exponent_is_one_rule_for_every_check():
    for check in register_builtin_checks():
        for digits in (10, 16, 20, 40, 60, 120, 200):
            assert check.tolerance_exponent(digits) == 15 - digits, check.id


@pytest.mark.parametrize("digits", [20, 60, 200])
def test_limit_checks_reach_the_residual_floor(digits):
    # the central difference of app3.eq43 and the eps-shifted quotient of
    # thm7.eq67 measure rounding alone, within a digit of 10^-(digits + guard)
    floor = mpmath.mpf(10) ** -(digits + PrecisionSpec(digits).guard)
    for cid in ("app3.eq43", "thm7.eq67"):
        (outcome,) = run_suite(cid, digits).checks
        assert outcome.status == "pass", cid
        assert mpmath.mpf(outcome.max_abs_error) <= 10 * floor, (cid, outcome.max_abs_error)


def test_a_primitive_off_in_its_20th_digit_fails_the_report(monkeypatch):
    # theta.eq19 compares theta4's series with its triple product; a series
    # off by 10^-20 relative must fail it at 40 digits
    theta4 = qelliptic.verify.theta4

    def off(z, q, prec):
        return theta4(z, q, prec) * (1 + prec.context().mpf(10) ** -20)

    monkeypatch.setattr(qelliptic.verify, "theta4", off)
    rep = run_suite("theta", 40)
    by_id = {c.id: c for c in rep.checks}
    assert by_id["theta.eq19"].status == "fail"
    assert not rep.ok
    assert rep.to_text().endswith("FAIL")


def test_recognition_residual_sentinels():
    found = MinPolyResult(coeffs=(-2, 0, 1), degree=2, residual=mpmath.mpf("1e-50"), confidence="verified")
    assert _recognition_residual(NOT_FOUND) == 1.0
    assert _recognition_residual(found, expected=(-3, 0, 1)) == 1.0
    assert _recognition_residual(dataclasses.replace(found, confidence="unverified")) == 0.5
    assert _recognition_residual(found, expected=(-2, 0, 1)) == found.residual


def test_unknown_selector():
    with pytest.raises(UnknownSelector):
        run_suite("nosuchprefix", digits=40)


def test_prefix_selection():
    rep = run_suite("lemma1", digits=40)
    assert all(c.id.startswith("lemma1") for c in rep.checks)
    assert len(rep.checks) >= 2
    # exact id also works
    rep = run_suite("lemma1.K", digits=40)
    assert [c.id for c in rep.checks] == ["lemma1.K"]


def test_json_schema_and_zeroed_seconds():
    rep = run_suite("rr", digits=40)
    obj = json.loads(rep.to_json())
    assert set(obj) == {"suite", "digits", "seed", "checks"}
    assert obj["suite"] == "rr"
    assert obj["digits"] == 40
    assert obj["seed"] == 42
    for entry in obj["checks"]:
        assert set(entry) == {"id", "status", "max_abs_error", "samples", "seconds"}
        assert entry["seconds"] == 0.0
        assert entry["status"] in ("pass", "fail", "discrepancy", "skip")
        assert entry["samples"] >= 0


def test_byte_identical_reruns_and_parallelism():
    a = run_suite("thm1", digits=40, seed=42).to_json()
    b = run_suite("thm1", digits=40, seed=42).to_json()
    assert a == b
    c = run_suite("thm1", digits=40, seed=42, parallelism=4).to_json()
    assert a == c


def test_seed_changes_samples_not_verdicts():
    a = run_suite("thm1", digits=40, seed=1)
    b = run_suite("thm1", digits=40, seed=2)
    assert [c.status for c in a.checks] == [c.status for c in b.checks]
    assert all(c.status == "pass" for c in a.checks)


def test_recognition_checks_skip_below_min_digits():
    rep = run_suite("obs1", digits=60)
    assert {c.status for c in rep.checks} == {"skip"}
    for c in rep.checks:
        assert c.samples == 0


@pytest.mark.parametrize(
    "check_id, status, max_abs_error",
    [
        ("obs1.algebraic", "pass", "1.91e-125"),
        ("obs1.deg8-printed", "discrepancy", "1.0"),
        ("deriv.eq54", "pass", "1.93e-134"),
        ("deriv.eq56", "pass", "1.0e-135"),
    ],
)
def test_recognition_checks_at_120_digits(check_id, status, max_abs_error):
    # the four checks that call find_minpoly skip below their min_digits,
    # so the 60-digit runs never reach them
    (outcome,) = run_suite(check_id, digits=120, seed=42).checks
    assert (outcome.id, outcome.status, outcome.max_abs_error) == (check_id, status, max_abs_error)


def test_text_report_format():
    rep = run_suite("lemma1", digits=40)
    text = rep.to_text()
    assert "suite: lemma1   digits: 40   seed: 42" in text
    assert "-> PASS" in text
    assert "max_abs_error" in text


def test_text_report_spare_digits_column():
    # spare = log10(10^tol_exp / max_abs_error), tolerance from the registry
    rep = run_suite("lemma1.k", digits=40)
    (outcome,) = rep.checks
    tol_exp = qelliptic.verify._REGISTRY["lemma1.k"].tolerance_exponent(40)
    spare = tol_exp - mpmath.log10(mpmath.mpf(outcome.max_abs_error))
    header, row = rep.to_text().splitlines()[1:3]
    assert header.split() == ["id", "status", "max_abs_error", "spare", "samples", "seconds"]
    assert row.split()[:4] == ["lemma1.k", "pass", outcome.max_abs_error, f"{float(spare):.2f}"]
    assert 20 < spare < 40
    # a skip measured nothing; the JSON format has no spare field
    skipped = run_suite("obs1.algebraic", digits=60)
    assert skipped.to_text().splitlines()[2].split()[3] == "-"
    assert "spare" not in rep.to_json()


def test_counts_and_ok():
    rep = run_suite("lemma1", digits=40)
    n = rep.counts
    assert sum(n.values()) == len(rep.checks)
    assert n["fail"] == 0
    assert rep.ok


def test_discrepancy_statuses_do_not_fail_suite():
    rep = run_suite("h", digits=40)
    by_id = {c.id: c for c in rep.checks}
    assert by_id["h.eq27-printed"].status == "discrepancy"
    assert rep.ok


def test_escalation_on_sample_suites():
    # a passing check's reported error must drop by >= 1e10 going 40 -> 60
    for prefix in ("lemma1", "rr"):
        lo = {c.id: c for c in run_suite(prefix, digits=40).checks}
        hi = {c.id: c for c in run_suite(prefix, digits=60).checks}
        for cid, c40 in lo.items():
            if c40.status != "pass":
                continue
            c60 = hi[cid]
            assert c60.status == "pass", cid
            e40 = mpmath.mpf(c40.max_abs_error)
            e60 = mpmath.mpf(c60.max_abs_error)
            assert e60 <= e40 * mpmath.mpf(10) ** (-10), cid


def test_verdicts_follow_registry_metadata_at_40_digits():
    # skip below min_digits, else pass for normative checks and discrepancy
    # for the documented alternative readings
    rep = run_suite("all", digits=40, seed=42)
    by_id = {c.id: c for c in register_builtin_checks()}
    assert len(rep.checks) == len(by_id) == 61
    for outcome in rep.checks:
        check = by_id[outcome.id]
        if 40 < check.min_digits:
            expected = "skip"
        elif check.severity == NORMATIVE:
            expected = "pass"
        else:
            expected = "discrepancy"
        assert outcome.status == expected, outcome.id


def test_no_pass_against_a_tolerance_of_one_or_more():
    # the default tolerance 10^(15 - digits) reaches 1 at 15 digits, so a
    # run there must not report a single pass
    assert run_suite("all", digits=12).counts["pass"] == 0
    checks = register_builtin_checks()
    for digits in range(10, 19):
        prec = PrecisionSpec(digits)
        for check in checks:
            if check.tolerance_exponent(digits) >= 0:
                outcome = _run_one(check, digits, 42, prec)
                assert outcome.status == "skip", (check.id, digits)
                assert outcome.samples == 0


def test_no_documented_wrong_reading_passes_at_16_to_24_digits():
    # some wrong readings miss by about 1e-10 at any precision, which the
    # default tolerance 10^(15 - digits) forgives up to 24 digits
    readings = [c for c in register_builtin_checks() if c.severity == DISCREPANCY_ALLOWED]
    for digits in range(16, 25):
        prec = PrecisionSpec(digits)
        for check in readings:
            outcome = _run_one(check, digits, 42, prec)
            assert outcome.status != "pass", (check.id, digits, outcome.max_abs_error)


# Real-input series and products that _settle still takes in ctx's numbers,
# keyed by a function on the call's stack, with the reason each stays there.
MPF_SETTLE_ALLOWED = {
    # in integers, thm1.app's residual at 60 digits went from 7.4e-68 to
    # 1.5e-64: its two routes shared their rounding in mpf numbers
    "m_series": "the M series of thm1.app",
    # verify's own reading of a printed formula, not a library kernel
    "_chk_deriv_eq53_printed": "the printed fraction of deriv.eq53-printed, by eval_cf",
}


def test_real_input_series_and_products_run_in_integers(monkeypatch):
    # a real mpf item reaching _settle without wp took the mpf path
    offenders = {}

    def recording(settle):
        def wrapped(ctx, eps, items, **kwargs):
            if kwargs.get("wp") is None:
                frame, stack = sys._getframe(1), []
                while frame is not None:
                    stack.append(frame.f_code.co_name)
                    frame = frame.f_back
                items = _noting_real_items(ctx, items, stack, offenders)
            return settle(ctx, eps, items, **kwargs)

        return wrapped

    for module in (cfrac, hyperq, qfunctions, rquantity, qelliptic.verify):
        monkeypatch.setattr(module, "_settle", recording(module._settle))
    report = run_suite("all", 40)
    assert all(c.status in ("pass", "discrepancy", "skip") for c in report.checks)
    # m_series and the printed fraction
    assert len(offenders) >= 2
    unexplained = {caller for caller, stack in offenders.items() if not MPF_SETTLE_ALLOWED.keys() & stack}
    assert unexplained == set()


def _noting_real_items(ctx, items, stack, offenders):
    for x in items:
        if isinstance(x, ctx.mpf):
            offenders.setdefault(stack[0], set()).update(stack)
        yield x


@pytest.mark.parametrize("digits", [30, 60, 200])
def test_cosh_sinh_sum_is_correctly_rounded(digits):
    # rr.eq2324's cosh/sinh series in fixed-point integers at the check's x,
    # against the same call at 2 digits + 30 on the same rounded x
    prec, hi = PrecisionSpec(digits), PrecisionSpec(2 * digits + 30)
    ctx = prec.context()
    for x in (ctx.mpf(1), ctx.mpf(2), ctx.pi):
        ref = qelliptic.verify._cosh_sinh_sum(hi.context(), x)
        assert abs(qelliptic.verify._cosh_sinh_sum(ctx, x) - ref) <= abs(ref) * 2 ** (1 - ctx.prec)
