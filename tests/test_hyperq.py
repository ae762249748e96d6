"""Basic hypergeometric sums and their closed-form twins."""

import functools
from fractions import Fraction

import pytest
from mpmath.libmp import from_man_exp, to_fixed

from qelliptic import hyperq
from qelliptic.hyperq import (
    Phi21Params,
    gauss_product,
    phi21,
    psi_small,
    psi_small_product,
)
from qelliptic.numerics import DomainError, PrecisionSpec, cv
from qelliptic.qfunctions import INF, pochhammer
from qelliptic.verify import _thm6_cf_residual, run_suite

P50 = PrecisionSpec(50)


def test_psi_small_series_vs_product():
    ctx = P50.context()
    a, q, z = Fraction(1, 4), Fraction(1, 5), Fraction(3, 10)
    s = psi_small(a, q, z, P50)
    p = psi_small_product(a, q, z, P50)
    assert abs(s - p) < ctx.mpf(10) ** (-45)


def test_psi_small_geometric_collapse():
    # a = q makes every coefficient 1: psi(q, q, z) = 1/(1 - z)
    ctx = P50.context()
    q, z = Fraction(1, 5), Fraction(2, 7)
    v = psi_small(q, q, z, P50)
    assert abs(v - ctx.mpf(7) / 5) < ctx.mpf(10) ** (-45)


def test_psi_small_euler_case():
    # a = 0: psi(0, q, z) * (z; q)_inf = 1
    ctx = P50.context()
    q, z = Fraction(1, 5), Fraction(3, 10)
    v = psi_small(0, q, z, P50) * pochhammer(z, q, INF, P50)
    assert abs(v - 1) < ctx.mpf(10) ** (-45)


def test_phi21_exact_zero_costs_two_sums(monkeypatch):
    # the q-Gauss sum gives (c/a; q)_inf (c/b; q)_inf / ((c; q)_inf (c/(ab); q)_inf)
    # at z = c/(ab), and c/a = 1/q makes it 0: no precision resolves the
    # total, so the extra digits stop at one working precision
    prec = PrecisionSpec(200)
    calls = []
    summed = hyperq._phi21_sum

    def counted(params, p):
        calls.append(p)
        return summed(params, p)

    monkeypatch.setattr(hyperq, "_phi21_sum", counted)
    params = Phi21Params(Fraction(1, 3), 3, Fraction(2, 3), Fraction(1, 2), Fraction(2, 3))
    value = phi21(params, prec)
    assert [p.digits - prec.digits for p in calls] == [0, prec.workdps]
    ctx = prec.context()
    assert abs(value) < ctx.mpf(10) ** -prec.workdps


def test_psi_small_is_phi21_with_b_c_zero():
    ctx = P50.context()
    q = Fraction(1, 5)
    for a, z in ((Fraction(1, 4), Fraction(3, 10)), (ctx.mpc(1, 2), ctx.mpc(-0.25, 0.5))):
        assert psi_small(a, q, z, P50) == phi21(Phi21Params(a, 0, 0, q, z), P50)


def test_psi_small_domain():
    with pytest.raises(DomainError):
        psi_small(Fraction(1, 4), Fraction(3, 2), Fraction(1, 10), P50)
    with pytest.raises(DomainError):
        psi_small(Fraction(1, 4), Fraction(1, 5), 1, P50)


def test_phi21_degenerates_to_psi():
    # upper b equals lower c: the 2-phi-1 collapses to psi(a, q, z)
    ctx = P50.context()
    a, bc, q, z = Fraction(1, 3), Fraction(1, 6), Fraction(1, 5), Fraction(1, 4)
    full = phi21(Phi21Params(a=a, b=bc, c=bc, q=q, z=z), P50)
    collapsed = psi_small(a, q, z, P50)
    assert abs(full - collapsed) < ctx.mpf(10) ** (-45)


def test_phi21_gauss_evaluation():
    # z = c/(ab) has the closed product form
    ctx = P50.context()
    a, b, c, q = Fraction(3, 10), Fraction(2, 5), Fraction(1, 20), Fraction(1, 5)
    z = c / (a * b)
    assert z < 1
    series = phi21(Phi21Params(a=a, b=b, c=c, q=q, z=z), P50)
    closed = gauss_product(a, b, c, q, P50)
    assert abs(series - closed) < ctx.mpf(10) ** (-45)


def test_phi21_domain():
    with pytest.raises(DomainError):
        phi21(Phi21Params(a=1, b=1, c=Fraction(1, 2), q=Fraction(3, 2), z=Fraction(1, 2)), P50)
    with pytest.raises(DomainError):
        phi21(Phi21Params(a=1, b=1, c=Fraction(1, 2), q=Fraction(1, 5), z=1), P50)


def _phi21_direct(ctx, a, b, c, q, z):
    """The 2-phi-1 series term by term in ctx's numbers, up to the first term
    t_N from which every factor of the term ratio but z is 1 at ctx's
    precision; the rest is the geometric t_N / (1 - z)."""
    big = max(1, abs(a), abs(b), abs(c))
    total, term, qn = 0, ctx.mpf(1), ctx.mpf(1)
    while abs(qn) * big >= ctx.eps:
        total += term
        term *= (1 - a * qn) * (1 - b * qn) * z / ((1 - c * qn) * (1 - q * qn))
        qn *= q
    return total + term / (1 - z)


def _phi21_ulps(args, digits, route):
    """|phi21 - direct sum at 2 digits + 30| in units of 2^-prec of |value|,
    on identically rounded inputs; route "mpc" passes them as mpc."""
    prec = PrecisionSpec(digits)
    ctx, hi = prec.context(), PrecisionSpec(2 * digits + 30).context()
    values = [cv(ctx, v) for v in args]
    ref = _phi21_direct(hi, *(hi.convert(v) for v in values))
    if route == "mpc":
        values = [ctx.mpc(v) for v in values]
    return abs(phi21(Phi21Params(*values), prec) - ref) / abs(ref) * 2**ctx.prec


_REAL_POINTS = (
    (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(999, 1000)),
    (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2), Fraction(-1, 2), Fraction(-9, 10)),
    (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)),
    (Fraction(7, 3), Fraction(-5, 4), Fraction(1, 7), Fraction(3, 10), Fraction(1, 2)),
)
_COMPLEX_POINT = (complex(1, 3) / 4, 5, Fraction(-1, 3), Fraction(3, 5), complex(0, 3) / 5)


@pytest.mark.parametrize("digits", [30, 60, 200])
@pytest.mark.parametrize("args, route", [
    *((args, route) for args in _REAL_POINTS for route in ("fixed", "mpc")),
    (_COMPLEX_POINT, "mpc"),
])
def test_phi21_is_correctly_rounded(args, route, digits):
    # phi21 sums q-shifted differences that fall like (z q^K)^n, so even at
    # z = 999/1000 _settle leaves no tail the rounding would not hide
    q, z = args[3:]
    assert abs(complex(z) * complex(q) ** hyperq._SHIFTS) <= 1 / 4
    assert _phi21_ulps(args, digits, route) <= 2


@pytest.mark.parametrize("route", ["fixed", "mpc"])
@pytest.mark.parametrize("q, z, before", [
    (Fraction(9, 10), Fraction(95, 100), 1.8e4),
    (Fraction(99, 100), Fraction(99, 100), 1.1e5),
])
def test_phi21_near_unit_q_and_z(q, z, before, route):
    # where z q^K is near 1 the differences still fall slowly, and _settle
    # keeps their tail at that ratio; summing the terms themselves, phi21
    # kept the tail at ratio z and was `before` ulps off at 30 digits
    args = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2), q, z)
    assert _phi21_ulps(args, 30, route) < before


@functools.lru_cache(maxsize=None)
def _qbinomial(ctx, a, z, q):
    """(az; q)_inf / (z; q)_inf at ctx's precision for real a, z and q,
    factor by factor in fixed-point integers with 20 guard bits, up to the
    first z q^n below ctx's epsilon; computed once per input (about 240,000
    factors at q = 0.999 and 90 digits)."""
    wp = ctx.prec + 20
    one, eps = 1 << wp, to_fixed(ctx.eps._mpf_, wp)
    a, z, q = (to_fixed(v._mpf_, wp) for v in (a, z, q))
    total = one
    while abs(z) >= eps:
        total = total * (one - (a * z >> wp)) // (one - z)
        z = z * q >> wp
    return ctx.make_mpf(from_man_exp(total, -wp, ctx.prec, "n"))


@pytest.mark.parametrize("route", ["fixed", "mpc"])
@pytest.mark.parametrize("q", [Fraction(99, 100), Fraction(999, 1000)])
def test_phi21_near_unit_q_stops_relative_to_the_product(q, route):
    # phi21(a, b; b; q, z) = (az; q)_inf / (z; q)_inf is near 1 at a = 1 -
    # 10^-7, while the differences sum to prod_k (1 - z q^k) times it,
    # 10^-12 at q = 0.99 and 10^-15 at 0.999; stopped at an absolute eps
    # they left 10^15 and 10^19 ulps.  They fall at ratio r = z q^K, and a
    # stop at eps left a tail of up to eps r / (1 - r): 5.1e3 and 5.5e4
    # ulps, where the stop at eps (1 - r) leaves 441 and 988, about eps.
    prec = PrecisionSpec(30)
    ctx, hi = prec.context(), PrecisionSpec(90).context()
    values = (1 - Fraction(1, 10**7), Fraction(1, 4), q, Fraction(99, 100))
    a, b, q, z = (cv(ctx, v) for v in values)
    reference = _qbinomial(hi, *(hi.convert(v) for v in (a, z, q)))
    args = (a, b, b, q, z) if route == "fixed" else tuple(map(ctx.mpc, (a, b, b, q, z)))
    error = abs(phi21(Phi21Params(*args), prec) - reference) / reference
    assert error <= 2 * prec.work_eps(ctx)


def _near_pole(ctx, k, route):
    """(a, b, c, q, z) = (1/3, 1/5, 2^10 (1 + 10^-k), 1/2, 10^-10) in ctx's
    numbers, a as an mpc with imaginary part 1/10 on the "mpc" route: 1 - c
    q^10 = -10^-k, so the term t_11 jumps to about 10^(34 - k) after t_8,
    t_9 and t_10 of 3e-96, -1e-106 and 1e-116."""
    third = ctx.mpf(1) / 3
    a = third if route == "fixed" else ctx.mpc(third, ctx.mpf(1) / 10)
    return a, ctx.mpf(1) / 5, 2**10 * (1 + ctx.mpf(10) ** -k), ctx.mpf(1) / 2, ctx.mpf(10) ** -10


@pytest.mark.parametrize("route", ["fixed", "mpc"])
@pytest.mark.parametrize("digits, k", [(60, 70), (100, 80)])
def test_phi21_does_not_stop_before_a_jump_near_a_pole(digits, k, route):
    # phi21 stopped after three negligible terms before the jump and was
    # 1.0e-56 off at (60, 70); at (100, 80) it reached the jump, but the
    # rounding of the terms before it, scaled by 10^k, left 4.5e-49 on the
    # fixed-point route and 6.8e-93 on the mpc route
    prec = PrecisionSpec(digits)
    hi = PrecisionSpec(2 * digits + 30).context()
    args = _near_pole(hi, k, route)
    reference = _phi21_direct(hi, *args)
    error = abs(phi21(Phi21Params(*args), prec) - reference) / abs(reference)
    assert error <= hi.mpf(10) ** -digits


def test_phi21_counts_a_c_within_working_ulps_of_q_to_the_minus_n_as_a_pole():
    # at 60 digits |1 - c q^10| = 10^-80 lies within the pole rule's 12
    # 2^(2 - prec) = 6.6e-75; phi21 stopped before n = 10 and returned a
    # value 1.0e-46 off
    args = _near_pole(PrecisionSpec(150).context(), 80, "fixed")
    with pytest.raises(DomainError, match=r"q\^\(-10\) is a pole"):
        phi21(Phi21Params(*args), PrecisionSpec(60))


@pytest.mark.parametrize("n", [3, 8, 12, 20])
def test_phi21_ends_before_a_pole_past_its_last_term(n):
    # a = 2 = q^-1 ends the series after t_1 = 1 / (2 (2^n - 1)), so c =
    # q^-n is no pole of the sum; phi21 raised at n = 3 and 8, where its
    # stop came after n, and summed at n = 12 and 20
    prec = PrecisionSpec(30)
    ctx = prec.context()
    value = phi21(Phi21Params(2, Fraction(1, 4), 2**n, Fraction(1, 2), Fraction(1, 3)), prec)
    assert abs(value - cv(ctx, 1 + Fraction(1, 2 * (2**n - 1)))) <= prec.work_eps(ctx)


@pytest.mark.parametrize("digits", [20, 50, 200])
@pytest.mark.parametrize("c, q, n", [
    (1, Fraction(1, 5), 0),
    (5, Fraction(1, 5), 1),
    (25, Fraction(1, 5), 2),
    (10**6, Fraction(1, 10), 6),
])
@pytest.mark.parametrize("kind", [Fraction, complex])
def test_phi21_raises_at_every_pole(digits, c, q, n, kind):
    # c q^n rounds to within a few ulps of 1, not to exactly 1; complex
    # input takes the mpc loop, real input the fixed-point one
    params = Phi21Params(kind(Fraction(1, 3)), Fraction(1, 4), kind(c), q, kind(Fraction(1, 2)))
    with pytest.raises(DomainError, match=rf"q\^\(-{n}\) is a pole"):
        phi21(params, PrecisionSpec(digits))


def test_gauss_product_pole():
    with pytest.raises(DomainError):
        gauss_product(Fraction(1, 3), Fraction(1, 4), 1, Fraction(1, 5), P50)


def test_thm6_check_i_residual():
    ctx = P50.context()
    # the relation is an identity exactly at A = B, where series and
    # quotient degenerate separately but the collapsed product form
    # continues through
    for A in (Fraction(1, 2), 1, 2):
        r = _thm6_cf_residual(A, A, Fraction(1, 5), P50)
        assert r < ctx.mpf(10) ** (-45)
    # away from A = B it is NOT an identity (the suite documents this as a
    # discrepancy-allowed reading); the residual is genuinely nonzero
    r = _thm6_cf_residual(Fraction(1, 2), Fraction(1, 4), Fraction(1, 5), P50)
    assert r > ctx.mpf(10) ** (-6)


def test_thm6_check_i_domain():
    with pytest.raises(DomainError):
        _thm6_cf_residual(0, Fraction(1, 2), Fraction(1, 5), P50)


def test_thm6_suite_checks_at_50_digits():
    # eq65 is the corrected, normative reading; eq63 holds within tolerance;
    # the printed eq62 (lower parameter q^b) is a documented discrepancy
    outcomes = {c.id: c for c in run_suite("thm6", 50).checks}
    assert float(outcomes["thm6.eq65"].max_abs_error) < 1e-45
    assert outcomes["thm6.eq65"].status == "pass"
    assert outcomes["thm6.eq63"].status == "pass"
    assert outcomes["thm6.eq62-printed"].status == "discrepancy"


@pytest.mark.parametrize("digits", [30, 200])
def test_phi21_takes_zero_imaginary_parts_on_the_real_route(digits):
    # an mpc with zero imaginary part counts as real, as in cfrac: the same
    # value as the real call, as an mpf, from the fixed-point route
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    for args in ((Fraction(1, 3), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(999, 1000)),
                 (2, Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))):
        real = phi21(Phi21Params(*args), prec)
        mixed = Phi21Params(*(ctx.mpc(cv(ctx, v), 0) if i % 2 else v for i, v in enumerate(args)))
        value = phi21(mixed, prec)
        assert value == real and isinstance(value, ctx.mpf)
