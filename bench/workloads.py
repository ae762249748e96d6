"""The three benchmark workloads.

Each workload turns a seed into inputs, runs passes, and checks every op of a
pass against its own reference.  A pass goes through three steps, and only
the middle one is timed:

* ``prepare(k)`` builds the inputs of pass ``k`` and any oracle values;
* ``execute(prepared)`` calls the library and returns the raw results;
* ``check(prepared, raw)`` turns them into ``Op`` records.

The library is always reached through the ``qelliptic`` package namespace at
call time, so the tracer's rebindings are seen.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from mpmath.ctx_mp import MPContext

import qelliptic
from qelliptic import verify as qverify


@dataclass
class Op:
    name: str
    ok: bool
    seconds: float | None  # None when the op never ran (its pass raised)
    margin: float | None  # log10(tolerance / error), for ops that should pass


def _margin(tolerance, error, floor) -> float:
    """log10(tolerance / error) with the error floored at `floor` (mpf values)."""
    return math.log10(float(tolerance / max(error, floor)))


# ----------------------------------------------------------------- suite-60


class Suite:
    """One ``run_suite("all", digits, seed, parallelism=1)`` per pass; one
    check per op.  Expected status comes from the registry metadata."""

    name = "suite-60"
    tail_pct = 83  # 61 checks a pass leave >= 10 beyond p83
    min_passes = 3

    def __init__(self, seed: int, digits: int = 60, selector: str = "all") -> None:
        self.seed = seed
        self.digits = digits
        self.selector = selector
        self.checks = {
            c.id: c
            for c in qelliptic.register_builtin_checks()
            if selector == "all" or c.id.startswith(selector)
        }

    def expected_status(self, check) -> str:
        if self.digits < check.min_digits:
            return "skip"
        return "pass" if check.severity == qverify.NORMATIVE else "discrepancy"

    def prepare(self, k: int):
        return None

    def execute(self, prepared):
        try:
            return qelliptic.run_suite(
                self.selector, digits=self.digits, seed=self.seed, parallelism=1
            )
        except Exception as exc:  # run_suite has no exception boundary of its own
            return exc

    def check(self, prepared, report) -> list:
        if isinstance(report, Exception):
            return [Op(cid, False, None, None) for cid in self.checks]
        ops = []
        seen = set()
        ctx = MPContext()
        guard = qelliptic.PrecisionSpec(self.digits).guard
        floor = ctx.mpf(10) ** (-(self.digits + guard))
        for outcome in report.checks:
            check = self.checks.get(outcome.id)
            seen.add(outcome.id)
            if check is None:
                ops.append(Op(outcome.id, False, outcome.seconds, None))
                continue
            expected = self.expected_status(check)
            margin = None
            if expected == "pass":
                tol = ctx.mpf(10) ** check.tolerance_exponent(self.digits)
                margin = _margin(tol, ctx.mpf(outcome.max_abs_error), floor)
            ops.append(Op(outcome.id, outcome.status == expected, outcome.seconds, margin))
        ops += [Op(cid, False, None, None) for cid in self.checks if cid not in seen]
        return ops


# ------------------------------------------------------------ recognize-120

RECOGNITION_DIGITS = 120

# Ascending coefficients, content 1, leading coefficient positive, as
# find_minpoly normalizes them; None means NOT_FOUND is the right answer.
K3_POLY = (1, 0, -16, 0, 16)
OBS1_15_4 = (390625, -937500, -343750, 425000, 1321875, -133000, 99450, -10060, 1)
RECOGNITION_POOL = (
    ("k_1", ("kr", 1), (-1, 0, 2)),
    ("k_2", ("kr", 2), (-1, 2, 1)),
    ("k_3", ("kr", 3), K3_POLY),
    ("k_4", ("kr", 4), (1, -6, 1)),
    ("k_5", ("kr", 5), (1, 0, -72, 0, 88, 0, -32, 0, 16)),
    ("k_6", ("kr", 6), (1, -12, 2, 12, 1)),
    ("k_7", ("kr", 7), (1, 0, -256, 0, 256)),
    ("k_9", ("kr", 9), (1, 0, -776, 0, 792, 0, -32, 0, 16)),
    ("k_2/5", ("kr", Fraction(2, 5)), (1, -36, 2, 36, 1)),
    ("k_1/3", ("kr", Fraction(1, 3)), K3_POLY),
    ("obs1(1,4)^1", ("obs1", 1, 4, 1), (-2, 0, 0, 0, 0, 0, 0, 0, 1)),
    ("obs1(1,5)^4", ("obs1", 1, 5, 4), OBS1_15_4),
    ("obs1(2,5)^4", ("obs1", 2, 5, 4), OBS1_15_4),
    ("obs1(1,6)^12", ("obs1", 1, 6, 12), (1, -44, 198, -548, 1)),
    ("drq(1,2,5)", ("drq", 1, 2, 5), qverify.DERIV_POLY_125),
    ("drq(1,3,6)", ("drq", 1, 3, 6), qverify.DERIV_POLY_136),
    ("drq(1,3,8)", ("drq", 1, 3, 8), qverify.DERIV_POLY_138),
    ("agile_deriv(1,4)", ("agile_deriv", 1, 4), qverify.AGILE_DERIV_POLY_14),
    ("obs1(1,5)^1", ("obs1", 1, 5, 1), None),
)


def pool_value(spec, prec):
    """The pool value `spec` at precision `prec` (also the recompute callable)."""
    kind, *args = spec
    if kind == "kr":
        return qelliptic.singular_modulus(args[0], prec)
    if kind == "obs1":
        return qverify._obs1_value(*args, prec)
    if kind == "drq":
        ctx = prec.context()
        return qelliptic.drq_normalized(qelliptic.RQParams(*args), ctx.exp(-ctx.pi), prec)
    if kind == "agile_deriv":
        return qverify._agile_deriv_normalized(*args, prec)
    raise ValueError(f"unknown pool entry {spec!r}")


class Recognize:
    """``find_minpoly(x, 8, prec=PrecisionSpec(120), recompute=f)`` over the
    fixed pool; the seed picks the order.  One recognition per op."""

    name = "recognize-120"
    # 19 ops a pass are too few for a tail; 2 passes leave >= 10 beyond p73
    tail_pct = 73
    min_passes = 2
    max_degree = 8

    def __init__(self, seed: int, pool=RECOGNITION_POOL) -> None:
        self.prec = qelliptic.PrecisionSpec(RECOGNITION_DIGITS)
        entries = list(pool)
        random.Random(f"recognize:{seed}").shuffle(entries)
        # The inputs are the same every pass, so compute them once, untimed.
        self.tasks = [
            (label, spec, expected, pool_value(spec, self.prec))
            for label, spec, expected in entries
        ]
        ctx = self.prec.context()
        self.accept_tol = ctx.mpf(10) ** (-(RECOGNITION_DIGITS - 15))
        self.floor = ctx.mpf(10) ** (-self.prec.workdps)

    def prepare(self, k: int):
        return self.tasks

    def execute(self, tasks):
        out = []
        clock = time.perf_counter
        for _, spec, _, x in tasks:
            start = clock()
            try:
                res = qelliptic.find_minpoly(
                    x, self.max_degree, prec=self.prec,
                    recompute=lambda pr, spec=spec: pool_value(spec, pr),
                )
            except Exception as exc:
                res = exc
            out.append((res, clock() - start))
        return out

    def check(self, tasks, raw) -> list:
        ops = []
        for (label, _, expected, _), (res, seconds) in zip(tasks, raw):
            if isinstance(res, Exception):
                ops.append(Op(label, False, seconds, None))
            elif expected is None:
                ops.append(Op(label, res is qelliptic.NOT_FOUND, seconds, None))
            else:
                ok = (
                    res is not qelliptic.NOT_FOUND
                    and tuple(res.coeffs) == tuple(expected)
                    and res.confidence == "verified"
                )
                margin = _margin(self.accept_tol, res.residual, self.floor) if ok else None
                ops.append(Op(label, ok, seconds, margin))
        return ops


# ----------------------------------------------------------------- eval-mix

DIGITS = (30, 60, 120, 200)
Q_RANGE = (0.01, 0.5)
STRATA = 5
RQ_PARAMS = ((1, 2, 5), (1, 3, 8), (1, 2, 4), (2, 3, 7), (1, 3, 6))
MENU = (
    "euler_f",
    "theta3_real",
    "theta3_complex",
    "theta4_real",
    "theta4_complex",
    "K_of_k",
    "modulus_from_nome",
    "r1_cf",
    "phi21",
    "rq",
)
ORACLE_EXTRA_DIGITS = 20


def _draw_args(entry: str, q: float, v: float, rng: random.Random):
    """Library arguments (without the PrecisionSpec) for one menu entry.

    `v` in (0, 1) sets the second parameter that drives the cost (the
    imaginary part of z, the argument of phi21, the rq exponents); the draw
    stratifies it like q, so every pass costs about the same.
    """
    if entry in ("euler_f", "modulus_from_nome", "r1_cf", "K_of_k"):
        return (q,)  # K_of_k takes the modulus k, drawn from the same range
    if entry.startswith("theta"):
        if entry.endswith("complex"):
            # |q| e^(2|Im z|) <= q^(1/2), well inside the growth guard
            return (complex(1.5 * rng.random(), (0.05 + 0.2 * v) * -math.log(q)), q)
        return (1.5 * v, q)
    if entry == "phi21":
        return (qelliptic.Phi21Params(
            a=rng.uniform(0.1, 0.9), b=rng.uniform(0.1, 0.9),
            c=rng.uniform(0.1, 0.9), q=q, z=0.05 + 0.45 * v,
        ),)
    if entry == "rq":
        return (qelliptic.RQParams(*RQ_PARAMS[int(v * len(RQ_PARAMS))]), q)
    raise ValueError(entry)


def _call(entry: str, args, prec):
    """One public library call, looked up at call time."""
    if entry.startswith("theta"):
        return getattr(qelliptic, entry[:6])(*args, prec)
    return getattr(qelliptic, entry)(*args, prec)


def _rr_quotient(ctx, q):
    return (ctx.qp(q, q**5) * ctx.qp(q**4, q**5)) / (ctx.qp(q**2, q**5) * ctx.qp(q**3, q**5))


def _agile_qp(ctx, a, p, q):
    return ctx.qp(q ** (p - a), q**p) * ctx.qp(q**a, q**p)


def oracle(ctx, entry: str, args):
    """mpmath's independent value for one call, in `ctx` (digits + 20).
    Returns a tuple, compared component-wise with the library's result."""
    if entry == "euler_f":
        return (ctx.qp(ctx.mpf(args[0])),)
    if entry.startswith("theta"):
        z, q = args
        return (ctx.jtheta(3 if entry.startswith("theta3") else 4, ctx.convert(z), ctx.mpf(q)),)
    if entry == "K_of_k":
        k = ctx.mpf(args[0])
        return (ctx.ellipk(k * k),)
    if entry == "modulus_from_nome":
        q = ctx.mpf(args[0])
        t2, t3 = ctx.jtheta(2, 0, q), ctx.jtheta(3, 0, q)
        k = (t2 / t3) ** 2
        k_prime = ctx.sqrt(1 - k * k)
        return (k, k_prime, ctx.pi / 2 * t3**2, ctx.ellipk(k_prime**2))
    if entry == "r1_cf":
        q = ctx.mpf(args[0])
        return (q ** (ctx.mpf(1) / 5) * _rr_quotient(ctx, q),)
    if entry == "phi21":
        p = args[0]
        return (ctx.qhyper([p.a, p.b], [p.c], ctx.mpf(p.q), ctx.mpf(p.z)),)
    if entry == "rq":
        params, q = args
        a, b, p = params.a, params.b, params.p
        q = ctx.mpf(q)
        expo = -ctx.mpf(a - b) / 2 + ctx.mpf(a * a - b * b) / (2 * p)
        return (q**expo * _agile_qp(ctx, a, p, q) / _agile_qp(ctx, b, p, q),)
    raise ValueError(entry)


def _components(entry: str, value) -> tuple:
    if entry == "modulus_from_nome":
        return (value.k, value.k_prime, value.K, value.K_prime)
    return (value,)


@dataclass
class Call:
    entry: str
    args: tuple
    digits: int
    prec: object
    expected: tuple


class EvalMix:
    """A closed-loop stream of single public calls.  Every pass draws, for
    each (menu entry, digits) cell, one call per q-stratum of (0.01, 0.5),
    with the second parameter stratified too, in seeded random order.  q is
    a continuous draw, so no (entry, input, digits) repeats within a run."""

    name = "eval-mix"
    tail_pct = 95  # 200 calls a pass leave >= 10 beyond p95
    min_passes = 3

    def __init__(self, seed: int, digits=DIGITS, strata: int = STRATA) -> None:
        self.seed = seed
        self.digits = tuple(digits)
        self.strata = strata
        # One oracle context per digits level: a context per call would leave
        # hundreds of cyclic objects for the garbage collector each pass.
        self._oracle_ctx: dict = {}

    def oracle_context(self, digits: int):
        ctx = self._oracle_ctx.get(digits)
        if ctx is None:
            ctx = self._oracle_ctx[digits] = MPContext()
            ctx.dps = digits + ORACLE_EXTRA_DIGITS
        return ctx

    def draw(self, k: int) -> list:
        rng = random.Random(f"eval-mix:{self.seed}:{k}")
        lo, hi = Q_RANGE
        width = (hi - lo) / self.strata
        calls = []
        for entry in MENU:
            for digits in self.digits:
                second = rng.sample(range(self.strata), self.strata)
                for s in range(self.strata):
                    q = lo + width * (s + rng.random())
                    v = (second[s] + rng.random()) / self.strata
                    calls.append((entry, _draw_args(entry, q, v, rng), digits))
        rng.shuffle(calls)
        return calls

    def prepare(self, k: int) -> list:
        return [
            Call(entry, args, digits, qelliptic.PrecisionSpec(digits),
                 oracle(self.oracle_context(digits), entry, args))
            for entry, args, digits in self.draw(k)
        ]

    def execute(self, calls):
        out = []
        clock = time.perf_counter
        for c in calls:
            start = clock()
            try:
                value = _call(c.entry, c.args, c.prec)
            except Exception as exc:
                value = exc
            out.append((value, clock() - start))
        return out

    def check(self, calls, raw) -> list:
        ops = []
        for c, (value, seconds) in zip(calls, raw):
            if isinstance(value, Exception):
                ops.append(Op(c.entry, False, seconds, None))
                continue
            ctx = self.oracle_context(c.digits)
            tol = ctx.mpf(10) ** (-c.digits)
            floor = ctx.mpf(10) ** (-c.prec.workdps)
            worst = ctx.mpf(0)
            for got, want in zip(_components(c.entry, value), c.expected):
                rel = abs(ctx.convert(got) - want) / abs(want)
                worst = max(worst, rel)
            ok = worst < tol
            ops.append(Op(c.entry, ok, seconds, _margin(tol, worst, floor) if ok else None))
        return ops


WORKLOADS = {cls.name: cls for cls in (Suite, Recognize, EvalMix)}
