"""qelliptic benchmark: one workload, one seed, one JSON line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload suite-60 --seed 1 --seconds 30 --trace 0

Workloads: suite-60, recognize-120, eval-mix (see bench/NOTES.md).  The
process is single-threaded and runs one closed-loop caller; it never uses
``--jobs``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give the details.  The program is imported from ``src`` of
the checkout this script sits in; without it the script exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 9
CLI_REPEATS = 3
# A traced run keeps this much of --seconds for the reference column and
# the cold CLI processes.
TRACE_RESERVE_S = 10.0


def _import_program():
    """Import qelliptic from this checkout's src, or return None."""
    if not os.path.isfile(os.path.join(SRC, "qelliptic", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import qelliptic

    if os.path.dirname(os.path.dirname(os.path.abspath(qelliptic.__file__))) != SRC:
        return None
    return qelliptic


def quantile(values, pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile of a non-empty list.

    A weighted average of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights taken at the midpoints (i + 1/2)/n.  Unlike a single order
    statistic it does not jump across the gaps between clusters of op
    latencies (the recognition pool has three), so it is steadier from run
    to run on a noisy machine.
    """
    xs = sorted(values)
    n = len(xs)
    p = pct / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_w = [
        (a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
        for i in range(n)
    ]
    top = max(log_w)
    weights = [math.exp(lw - top) for lw in log_w]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class Runner:
    """Runs passes of one workload and collects their ops and timings."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.ops: list = []
        self.pass_seconds: list = []  # execute() wall time of each pass
        self.pass_min_margin: list = []
        self.cycle_seconds: list = []  # prepare + execute + check
        self.passes = 0

    def one_pass(self, tracer=None) -> float:
        w = self.workload
        cycle_start = time.perf_counter()
        prepared = w.prepare(self.passes)
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            raw = w.execute(prepared)
            seconds = time.perf_counter() - start
        ops = w.check(prepared, raw)
        self.passes += 1
        self.ops += ops
        margins = [op.margin for op in ops if op.margin is not None]
        if margins:
            self.pass_min_margin.append(min(margins))
        self.pass_seconds.append(seconds)
        self.cycle_seconds.append(time.perf_counter() - cycle_start)
        return seconds

    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


def run_untraced(workload, seconds: float, details: list) -> tuple:
    import coldstart

    setup = coldstart.setup_seconds(ROOT, SETUP_REPEATS)
    runner = Runner(workload)
    start = time.perf_counter()
    while runner.passes < workload.min_passes or (
        time.perf_counter() - start + statistics.median(runner.cycle_seconds) <= seconds
    ):
        runner.one_pass()

    # A pass whose run_suite raised has no per-op latencies or margins; its
    # ops count as failed, and the figures fall back to 0 if no pass ran.
    latencies = [op.seconds for op in runner.ops if op.seconds is not None] or [0.0]
    pct = workload.tail_pct
    tail = quantile(latencies, pct)
    beyond = sum(x > tail for x in latencies)
    attempted = len(runner.ops)
    failed = runner.failed()
    details.append(
        f"passes={runner.passes} ops={attempted} failed={failed} "
        f"fail_ratio={failed / attempted:.6g} op_tail_ms=p{pct} over n={len(latencies)} "
        f"samples ({beyond} beyond) setup_s samples={[round(s, 4) for s in setup]} "
        f"pass_s={[round(s, 3) for s in runner.pass_seconds]}"
    )
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(runner.pass_seconds), "s"),
        "op_p50_ms": (1000 * quantile(latencies, 50), "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
        "margin_digits_min": (statistics.median(runner.pass_min_margin or [0.0]), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return attempted, failed, metrics


def run_traced(workload, seconds: float, seed: int, details: list) -> tuple:
    import coldstart
    import reference
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    runner = Runner(workload)
    untraced, traced = [], []
    start = time.perf_counter()
    budget = max(seconds - TRACE_RESERVE_S, 0.0)
    while not traced or (
        time.perf_counter() - start + 2 * statistics.median(runner.cycle_seconds) <= budget
    ):
        untraced.append(runner.one_pass())
        traced.append(runner.one_pass(tracer))
    n = len(traced)
    summary = tracer.summary()

    ref_ms, agree, pool_size = reference.reference_ms(seed)
    eval_s, eval_ok = coldstart.cli_cold(ROOT, coldstart.CLI_EVAL, CLI_REPEATS)
    minpoly_s, minpoly_ok = coldstart.cli_cold(ROOT, coldstart.CLI_MINPOLY, CLI_REPEATS)

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl.gz")
    tracer.write_spans(spans_path)

    metrics = {}
    self_total = 0.0
    for layer in LAYERS:
        row = summary["layers"][layer]
        metrics[f"{layer}.calls"] = (row["calls"] / n, "count")
        metrics[f"{layer}.busy_ms"] = (1000 * row["busy"] / n, "ms")
        metrics[f"{layer}.self_ms"] = (1000 * row["self"] / n, "ms")
        metrics[f"{layer}.errors"] = (row["errors"] / n, "count")
        self_total += row["self"]
    calls, secs, counts = summary["calls_by_name"], summary["seconds_by_name"], tracer.counts
    metrics.update({
        "numerics.contexts": (calls["PrecisionSpec.context"] / n, "count"),
        "numerics.context_ms": (1000 * secs["PrecisionSpec.context"] / n, "ms"),
        "numerics.product_factors": (counts["numerics.product_factors"] / n, "count"),
        "numerics.series_terms": (counts["numerics.series_terms"] / n, "count"),
        "qfunctions.qpow_calls": (calls["qpow"] / n, "count"),
        "cfrac.cf_depth": (counts["cfrac.cf_depth"] / n, "count"),
        "algrec.degrees_tried": (counts["algrec.degrees_tried"] / n, "count"),
        "algrec.recompute_ms": (1000 * tracer.timers["algrec.recompute"] / n, "ms"),
        "cli.eval_cold_ms": (1000 * eval_s, "ms"),
        "cli.minpoly_cold_ms": (1000 * minpoly_s, "ms"),
    })
    for kind in ("qp", "jtheta", "ellipk", "qhyper", "findpoly"):
        metrics[f"ref.{kind}_ms"] = (ref_ms[kind], "ms")
    traced_total = sum(traced)
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    metrics["trace.untraced_share"] = (1 - self_total / traced_total, "ratio")
    metrics["trace.run_s"] = (statistics.median(traced), "s")

    attempted = len(runner.ops) + 2
    failed = runner.failed() + (not eval_ok) + (not minpoly_ok)
    details.append(
        f"pairs={n} untraced_s={[round(s, 3) for s in untraced]} "
        f"traced_s={[round(s, 3) for s in traced]} ops={attempted} failed={failed} "
        f"spans={len(tracer)} written to {os.path.relpath(spans_path, ROOT)} "
        f"findpoly agrees with the expected table on {agree}/{pool_size}"
    )
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qelliptic = _import_program()
    if qelliptic is None:
        print(f"error: no qelliptic package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = cls(args.seed)
    details: list = []
    if args.trace:
        attempted, failed, metrics = run_traced(workload, args.seconds, args.seed, details)
    else:
        attempted, failed, metrics = run_untraced(workload, args.seconds, details)
    for line in details:
        print(f"# {workload.name} seed={args.seed}: {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
