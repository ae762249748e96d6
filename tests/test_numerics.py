"""Precision plumbing: PrecisionSpec, conversion, series/product engines."""

import ast
import dataclasses
import inspect
import itertools
import math
import pathlib
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_fixed, to_rational

import qelliptic
from qelliptic.numerics import (
    _FIXED_GUARD,
    CrossCheckFailure,
    DomainError,
    InsufficientPrecision,
    NonConvergence,
    NumericsError,
    PrecisionSpec,
    UnknownSelector,
    VerificationError,
    _from_fixed,
    _report_memo,
    _resummed,
    _settle,
    cv,
    gamma,
    gaussian_cutoff,
    memoized,
)


def test_precision_spec_defaults():
    p = PrecisionSpec(60)
    assert p.digits == 60
    assert p.guard == 15
    assert p.workdps == 75
    p = PrecisionSpec(200)
    assert p.guard == 20
    assert p.workdps == 220


def test_precision_spec_rejects_low_digits():
    with pytest.raises(DomainError):
        PrecisionSpec(9)
    PrecisionSpec(10)  # boundary is allowed


def test_bumped_adds_digits():
    p = PrecisionSpec(60)
    q = p.bumped(30)
    assert q.digits == 90
    assert p.digits == 60  # original untouched


def test_context_is_shared_per_thread_and_precision():
    p = PrecisionSpec(50)
    c1 = p.context()
    c2 = p.context()
    assert c1 is c2
    assert PrecisionSpec(50, guard=p.guard + 1).context() is not c1
    other = []
    worker = threading.Thread(target=lambda: other.append(p.context()))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert other[0] is not c1 and other[0].dps == p.workdps
    c1.dps = 7  # mutating one context must not leak into the next
    assert p.context().dps == p.workdps
    c3 = p.context()
    c3.prec += 1  # a precision change that keeps dps is caught as well
    assert c3.dps == p.workdps
    fresh = p.context()
    assert fresh is not c3 and fresh.prec == c3.prec - 1


# mpmath context methods that change the precision for the length of a block
PRECISION_BLOCKS = ("workdps", "workprec", "extradps", "extraprec")


def _precision_changes(tree):
    """Sorted (line, name) of every store to a .dps or .prec attribute and of
    every call of a PRECISION_BLOCKS method, except inside
    PrecisionSpec.context."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "PrecisionSpec":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "context":
                    exempt.update(id(sub) for sub in ast.walk(item))
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr in ("dps", "prec")
        ):
            found.append((node.lineno, node.attr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PRECISION_BLOCKS
        ):
            found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_no_precision_changes_in_the_package():
    # PrecisionSpec.context() hands one context to every caller in a thread,
    # which is only safe while nothing else changes a context's precision
    package = pathlib.Path(qelliptic.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert _precision_changes(tree) == [], path.name
    sample = ast.parse(
        "def f(ctx, spec):\n    spec.prec = 1\n    ctx.dps += 3\n"
        "    with ctx.extradps(5):\n        return spec.workdps\n"
    )
    assert _precision_changes(sample) == [(2, "prec"), (3, "dps"), (4, "extradps")]


def test_eps_values():
    p = PrecisionSpec(40)
    ctx = p.context()
    assert p.target_eps(ctx) == ctx.mpf(10) ** (-40)
    assert p.work_eps(ctx) == ctx.mpf(10) ** (-(p.workdps - 2))


def test_cv_fraction_is_exact():
    p = PrecisionSpec(60)
    ctx = p.context()
    x = cv(ctx, Fraction(1, 3))
    assert abs(3 * x - 1) < ctx.mpf(10) ** (-p.workdps + 2)
    assert cv(ctx, 7) == 7
    assert cv(ctx, "0.5") == ctx.mpf(1) / 2


def test_error_taxonomy():
    for err in (
        NonConvergence,
        DomainError,
        VerificationError,
        InsufficientPrecision,
        CrossCheckFailure,
        UnknownSelector,
    ):
        assert issubclass(err, NumericsError)


def test_gaussian_cutoff_grows_with_digits():
    a = gaussian_cutoff(40, 1.0)
    b = gaussian_cutoff(160, 1.0)
    assert b > a
    # |q|^(N^2) < 10^-40 at the returned N
    import math

    n = gaussian_cutoff(40, 1.0)
    assert math.exp(-(n * n)) < 1e-40


def test_settle_geometric_series():
    p = PrecisionSpec(50)
    ctx = p.context()
    z = cv(ctx, Fraction(1, 3))
    s, _ = _settle(ctx, p.work_eps(ctx), (z**n for n in itertools.count()))
    assert abs(s - ctx.mpf(3) / 2) < p.target_eps(ctx)


def test_settle_series_nonconvergence():
    p = PrecisionSpec(50)
    ctx = p.context()
    with pytest.raises(NonConvergence):
        _settle(ctx, p.work_eps(ctx), itertools.repeat(ctx.mpf(1)), max_terms=50)


def test_settle_euler_product():
    p = PrecisionSpec(50)
    ctx = p.context()
    q = cv(ctx, Fraction(1, 10))
    factors = (1 - q**n for n in itertools.count(1))
    v = _settle(ctx, p.work_eps(ctx), factors, product=True)
    ref = ctx.mpf(1)
    for n in range(1, 200):
        ref *= 1 - q**n
    assert abs(v - ref) < p.target_eps(ctx)


def test_settle_zero_factor():
    p = PrecisionSpec(50)
    ctx = p.context()
    eps = p.work_eps(ctx)
    half = cv(ctx, Fraction(1, 2))
    factors = (ctx.mpf(0) if n == 3 else 1 - half**n for n in itertools.count(1))
    v = _settle(ctx, eps, factors, product=True)
    assert v == 0 and type(v).__name__ == "mpf"
    # a complex factor before the zero keeps the complex type
    factors = (ctx.mpc(1, 2) if n == 1 else ctx.mpf(0) for n in itertools.count(1))
    w = _settle(ctx, eps, factors, product=True)
    assert w == 0 and type(w).__name__ == "mpc"


def test_settle_product_nonconvergence():
    p = PrecisionSpec(50)
    ctx = p.context()
    with pytest.raises(NonConvergence):
        _settle(ctx, p.work_eps(ctx), itertools.repeat(ctx.mpf(2)), product=True, max_terms=50)


def test_settle_fixed_finite_iterable_is_exact():
    p = PrecisionSpec(50)
    ctx = p.context()
    wp = ctx.prec + _FIXED_GUARD
    items = [3 << wp, -(5 << (wp - 2)), 7, -1]
    assert _settle(ctx, p.work_eps(ctx), iter(items), wp=wp)[0] == sum(items)


def test_settle_fixed_nonconvergence():
    p = PrecisionSpec(50)
    ctx = p.context()
    wp = ctx.prec + _FIXED_GUARD
    with pytest.raises(NonConvergence):
        _settle(ctx, p.work_eps(ctx), itertools.repeat(1 << wp), max_terms=50, wp=wp)


def test_settle_fixed_product_keeps_relative_digits_when_tiny():
    # prod_{m>=0} (1 - (3/2) q^m) at q = 99/100 passes 1e-103 on the way;
    # the renormalized integer product stops where the mpf one does and
    # lands within 2 ulps of the exact product of the same integer factors
    p = PrecisionSpec(40)
    ctx, hi = p.context(), PrecisionSpec(120).context()
    wp = ctx.prec + _FIXED_GUARD
    one, q = 1 << wp, to_fixed(cv(ctx, Fraction(99, 100))._mpf_, wp)
    factors, qm = [], one
    while qm >> (wp - ctx.prec - 20):
        factors.append(one - (3 * qm >> 1))
        qm = qm * q >> wp
    eps = p.work_eps(ctx)
    seen, seen_mpf = [], []
    value = _settle(ctx, eps, (seen.append(f) or f for f in factors), product=True, wp=wp)
    mpf_factors = (seen_mpf.append(f) or _from_fixed(ctx, f, wp) for f in factors)
    mpf_value = _settle(ctx, eps, mpf_factors, product=True)
    assert len(seen) == len(seen_mpf) < len(factors)
    exact = math.prod(hi.ldexp(f, -wp) for f in seen)  # to about 2^-400
    assert abs(exact) < hi.mpf(10) ** -100
    assert abs(value - exact) <= abs(exact) * 2 ** (1 - ctx.prec)
    assert abs(value - mpf_value) <= abs(value) * 2 ** (12 - ctx.prec)


def test_settle_fixed_product_pairs_zero_and_budget():
    p = PrecisionSpec(40)
    ctx = p.context()
    eps = p.work_eps(ctx)
    wp = ctx.prec + _FIXED_GUARD
    one = 1 << wp
    # (1 + i/2)(1 - i/2) = 5/4, then factors of exactly 1
    pairs = [(one, one >> 1), (one, -(one >> 1))] + [(one, 0)] * 3
    value = _settle(ctx, eps, iter(pairs), product=True, wp=wp)
    assert value == ctx.mpf(5) / 4 and isinstance(value, ctx.mpf)
    value = _settle(ctx, eps, iter([(one, one >> 1), one, one, one]), product=True, wp=wp)
    assert value == ctx.mpc(1, 0.5)
    assert _settle(ctx, eps, iter([one >> 1, 0, one]), product=True, wp=wp) == 0
    with pytest.raises(NonConvergence):
        _settle(ctx, eps, itertools.repeat(2 * one), product=True, max_terms=50, wp=wp)


def test_work_eps_is_computed_once_per_context():
    p = PrecisionSpec(40)
    ctx = p.context()
    assert p.work_eps(ctx) is p.work_eps(ctx) is PrecisionSpec(35, 20).work_eps(ctx)
    assert p.work_eps(ctx) == ctx.mpf(10) ** (-(p.workdps - 2))


def test_settle_fixed_isolated_zeros_do_not_stop():
    # two zeros in a row do not settle the sum, three do
    p = PrecisionSpec(50)
    ctx = p.context()
    wp = ctx.prec + _FIXED_GUARD
    one = 1 << wp
    items = [one, 0, 0, one >> 1, 0, 0, one >> 2, 0, 0, 0, one]
    assert _settle(ctx, p.work_eps(ctx), iter(items), wp=wp)[0] == one + (one >> 1) + (one >> 2)


def _exact(x):
    return Fraction(*to_rational(x._mpf_))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    digits=st.integers(30, 200),
    ratio=st.fractions(
        min_value=Fraction(-95, 100), max_value=Fraction(95, 100), max_denominator=1000
    ),
    gaussian=st.booleans(),
)
def test_settle_fixed_matches_the_mpf_mode(digits, ratio, gaussian):
    # the same terms, as mpf numbers and as integers scaled by 2^wp: both
    # modes stop at the same term; the integer total, rounded once, is
    # within an ulp of the exact sum of those terms, while the mpf mode
    # rounds at every addition, up to half an ulp of its largest partial sum
    p = PrecisionSpec(digits)
    ctx = p.context()
    eps = p.work_eps(ctx)
    wp = ctx.prec + _FIXED_GUARD
    r = cv(ctx, ratio)
    terms = []

    def fresh_terms():
        for n in itertools.count():
            terms.append(r ** (n * n if gaussian else n))
            yield terms[-1]

    seen = {"mpf": 0, "int": 0}

    def counted(key, values):
        for v in values:
            seen[key] += 1
            yield v

    mpf_total, _ = _settle(ctx, eps, counted("mpf", fresh_terms()))
    n = seen["mpf"]
    terms += [r ** (k * k if gaussian else k) for k in range(n, n + 5)]
    fixed = (to_fixed(t._mpf_, wp) for t in terms)
    int_total = _from_fixed(ctx, _settle(ctx, eps, counted("int", fixed), wp=wp)[0], wp)
    assert seen["int"] == n
    exact = sum(_exact(t) for t in terms[:n])

    def ulp(x):
        return Fraction(2) ** (ctx.mag(x) - ctx.prec)

    assert abs(_exact(int_total) - exact) <= ulp(int_total)
    # every partial sum of these series lies within max(1, |total|)
    assert abs(_exact(mpf_total) - exact) <= n * ulp(max(1, abs(int_total))) / 2


def test_settle_loss_reading_agrees_between_modes_and_bounds_the_loss():
    # e^-40 by its Taylor series: terms up to 40^40/40! ~ 4e16 cancel to
    # 4.2e-18, 34.4 digits below the largest; the reading adds log10 of the
    # term count, and both modes read the same exponents
    p = PrecisionSpec(50)
    ctx = p.context()
    eps = p.work_eps(ctx)
    wp = ctx.prec + _FIXED_GUARD
    terms = []

    def taylor():
        term = ctx.mpf(1)
        for n in itertools.count(1):
            terms.append(term)
            yield term
            term = term * -40 / n

    mpf_total, mpf_lost = _settle(ctx, eps, taylor())
    int_total, int_lost = _settle(ctx, eps, [to_fixed(t._mpf_, wp) for t in terms], wp=wp)
    assert abs(mpf_lost - int_lost) < 0.5
    assert 34.4 < mpf_lost < 34.4 + math.log10(len(terms)) + 1
    exact = sum(_exact(t) for t in terms)
    for total in (mpf_total, _from_fixed(ctx, int_total, wp)):
        # the digits the total falls short of the working precision
        lost = math.log10(abs(_exact(total) - exact) / abs(exact) * 2**ctx.prec)
        assert lost <= mpf_lost


def test_settle_reads_an_exact_zero_total_as_a_total_loss():
    p = PrecisionSpec(30)
    ctx = p.context()
    wp = ctx.prec + _FIXED_GUARD
    half = ctx.mpf(1) / 2
    assert _settle(ctx, p.work_eps(ctx), iter([half, -half])) == (0, math.inf)
    assert _settle(ctx, p.work_eps(ctx), iter([1 << wp, -1 << wp]), wp=wp) == (0, math.inf)


@pytest.mark.parametrize("lost", [0, math.inf])
def test_resummed_stops_at_its_cap(lost):
    # a total always at noise level, or an exact zero, never fits: the
    # extra digits double, or jump, to the cap and stop there
    prec = PrecisionSpec(30)
    cap = 10 * prec.workdps
    extras = []

    def summed(p):
        extras.append(p.digits - prec.digits)
        assert extras[-1] <= cap  # past the cap: the loop would never end
        return p.context().mpf(1) / 3, lost + p.workdps

    total = _resummed(prec, summed, cap=cap)
    assert extras[-1] == cap
    assert extras == sorted(set(extras)) and len(extras) <= 7
    assert total == prec.context().mpf(1) / 3


def test_resummed_without_a_cap_sums_until_the_loss_fits():
    # a series that loses 1000 digits, more than 10 * workdps, until it is
    # summed with them comes back resolved
    prec = PrecisionSpec(30)
    extras = []

    def summed(p):
        extras.append(p.digits - prec.digits)
        return p.context().mpf(1) / 3, 1000 if extras[-1] < 1000 else 0

    assert _resummed(prec, summed) == prec.context().mpf(1) / 3
    assert extras == [0, 1000]


def _settle_reference(ctx, eps, items, product):
    """The stopping loop of _settle as it was before the exponent
    prefilter: the exact negligibility test on every item."""
    one = ctx.mpf(1)
    total = one if product else ctx.mpf(0)
    small = 0
    for x in items:
        if product:
            if x == 0:
                return total * x
            total = total * x
            negligible = abs(x - 1) <= eps
        else:
            total = total + x
            negligible = abs(x) <= eps * max(one, abs(total))
        small = small + 1 if negligible else 0
        if small == 3:
            return total
    return total


# an item: (kind, log2 of its size relative to the threshold, phase);
# kind "zero" is an exact 0 term or an exact 1 factor
settle_item_st = st.tuples(
    st.sampled_from(["real", "complex", "zero"]),
    st.floats(min_value=-8, max_value=8),
    st.floats(min_value=0, max_value=6.3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    product=st.booleans(),
    lead=st.one_of(st.none(), st.floats(min_value=-8, max_value=8)),
    lead_complex=st.booleans(),
    cancel=st.booleans(),
    items=st.lists(settle_item_st, min_size=1, max_size=12),
)
def test_settle_prefilter_never_changes_a_decision(product, lead, lead_complex, cancel, items):
    # Items near the negligibility threshold, within +-8 bits: the
    # exponent prefilter must stop at the same item with the same total as
    # the exact test alone.  For a series, the lead item sets |total| to
    # 2^lead (both sides of 1), or to an exact 0 (lead None, or cancelled
    # by its negative); for a product, a lead of None is an exact 0 factor.
    prec = PrecisionSpec(40)
    ctx = prec.context()
    eps = prec.work_eps(ctx)
    seq = []
    if lead is None:
        seq.append(ctx.mpf(0))
    elif not product:
        head = ctx.mpf(2) ** lead * (ctx.expjpi(ctx.mpf(1) / 3) if lead_complex else 1)
        seq += [head, -head] if cancel else [head]
    scale = eps * (1 if product or cancel or lead is None else max(1, ctx.mpf(2) ** lead))
    for kind, shift, phase in items:
        if kind == "zero":
            x = ctx.mpf(0)
        else:
            x = scale * ctx.mpf(2) ** shift
            x = x * ctx.expj(phase) if kind == "complex" else x * (1 if phase < 3.15 else -1)
        seq.append(1 + x if product else x)
    seq += [ctx.mpf(1) if product else ctx.mpf(0)] * 3  # every run settles

    for trial in (seq, seq[::-1]):
        seen = {"new": 0, "old": 0}

        def counted(key, values=trial):
            for v in values:
                seen[key] += 1
                yield v

        new = _settle(ctx, eps, counted("new"), product=product)
        new = new if product else new[0]
        old = _settle_reference(ctx, eps, counted("old"), product)
        assert seen["new"] == seen["old"]
        assert new == old and type(new) is type(old)


def test_gamma_half():
    p = PrecisionSpec(60)
    ctx = p.context()
    assert abs(gamma(Fraction(1, 2), p) - ctx.sqrt(ctx.pi)) < p.target_eps(ctx)
    with pytest.raises(DomainError):
        gamma(0, p)


# ---------------------------------------------------------------- report memo


@pytest.fixture
def report_memo():
    """A report memo set for the test, as run_suite sets one."""
    token = _report_memo.set({})
    yield _report_memo.get()
    _report_memo.reset(token)


def _counted(fn=lambda *args, **kwargs: args):
    """fn memoized, with the list of the calls that ran it."""
    calls = []

    def run(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return memoized(run), calls


def _counting_theta_series(monkeypatch):
    """The list of the calls that sum a theta series from now on."""
    calls, real = [], qelliptic.qfunctions._theta_series
    monkeypatch.setattr(qelliptic.qfunctions, "_theta_series", lambda *a: calls.append(a) or real(*a))
    return calls


def test_memo_runs_an_equal_typed_call_once(report_memo, monkeypatch):
    f, calls = _counted()
    assert f(Fraction(1, 3), PrecisionSpec(40)) == f(Fraction(1, 3), PrecisionSpec(40))
    assert f(2, route="a") == f(2, route="a")
    assert len(calls) == 2 and len(report_memo) == 2
    # a real primitive: the second theta3 call does not sum its series again
    series = _counting_theta_series(monkeypatch)
    values = [qelliptic.theta3(0, Fraction(1, 5), PrecisionSpec(40)) for _ in range(2)]
    assert values[0] is values[1] and len(series) == 1


@dataclasses.dataclass(frozen=True)
class _Pair:
    x: object
    y: object


def test_memo_keeps_equal_values_of_different_types_apart(report_memo):
    f, calls = _counted()
    low, high = PrecisionSpec(40).context(), PrecisionSpec(80).context()
    ones = (1, 1.0, Fraction(1), low.mpf(1), high.mpf(1), (1,), (1.0,), _Pair(1, 2), _Pair(1.0, 2))
    assert len(set(ones)) == 3  # (1,) == (1.0,) and the pairs are equal too
    for one in ones * 2:
        f(one)
        f(x=one)
    assert len(calls) == 2 * len(ones)


def test_memo_stores_no_unhashable_argument_and_no_exception(report_memo):
    f, calls = _counted()
    f([1])
    f([1])
    f(_Pair([1], 2))
    f(_Pair([1], 2))
    assert len(calls) == 4 and not report_memo

    def fail(x):
        raise NonConvergence(f"forced {x}")

    g, failed = _counted(fail)
    for _ in range(2):
        with pytest.raises(NonConvergence):
            g(1)
    assert len(failed) == 2 and not report_memo


def test_nothing_is_memoized_outside_a_report(monkeypatch):
    assert _report_memo.get() is None
    f, calls = _counted()
    f(1)
    f(1)
    assert len(calls) == 2
    series = _counting_theta_series(monkeypatch)
    for _ in range(2):
        qelliptic.theta3(0, Fraction(1, 5), PrecisionSpec(40))
    assert len(series) == 2


def test_every_primitive_that_takes_a_precision_is_memoized():
    # the rule is uniform: no list of memoized functions to keep current;
    # eval_cf takes a fraction of fresh callables, which never repeats
    kept_out = {qelliptic.cfrac.eval_cf}
    for module in (qelliptic.elliptic, qelliptic.qfunctions, qelliptic.cfrac,
                   qelliptic.rquantity, qelliptic.hyperq):
        for name, f in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(f) or f.__module__ != module.__name__:
                continue
            takes_prec = any(p.annotation == "PrecisionSpec"
                             for p in inspect.signature(f).parameters.values())
            assert hasattr(f, "__wrapped__") == (takes_prec and f not in kept_out), name
