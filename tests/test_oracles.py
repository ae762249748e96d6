"""Theta functions, bilateral Gaussian sums, q-products and continued
fractions against mpmath's jtheta and qp; minimal polynomials against their
closed forms and mpmath's findpoly.

Inputs are drawn by Hypothesis with a fixed derandomized seed, so every run
tests the same points.  Each value must agree with the mpmath oracle,
computed 20 digits deeper, to 10^-digits relative.
"""

import math
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from qelliptic.algrec import PSLQ_MAXSTEPS, find_minpoly
from qelliptic.cfrac import p_cf, r1_cf, rr_cf
from qelliptic.numerics import PrecisionSpec
from qelliptic.qfunctions import (
    INF,
    euler_f,
    pochhammer,
    theta2,
    theta3,
    theta4,
    theta4_product,
    theta_sum_S,
    weber_phi,
)
from qelliptic.rquantity import RQParams, drq_normalized, rq_charprod
from qelliptic.verify import DERIV_POLY_125

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

digits_st = st.sampled_from([20, 40, 60, 200])
q_st = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 2), max_denominator=1000)
real_st = st.fractions(min_value=-2, max_value=2, max_denominator=100)
# |Im z| <= 1/3 keeps |q| e^(2|Im z|) below 1 for every q drawn above
imag_st = st.fractions(min_value=Fraction(-1, 3), max_value=Fraction(1, 3), max_denominator=100)
# |ab| < 1 for the P fraction
unit_st = st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=100)
# period p and residues 0 < a, b < p of the character product
chi_st = st.integers(2, 7).flatmap(
    lambda p: st.tuples(st.integers(1, p - 1), st.integers(1, p - 1), st.just(p))
)
recognition_digits_st = st.sampled_from([80, 120])
nonzero_st = st.integers(-9, 9).filter(bool)


def _oracle(digits):
    ctx = mpmath.mp.__class__()
    ctx.dps = digits + 20
    return ctx


def _agree(ctx, value, reference, digits):
    return abs(value - reference) <= ctx.mpf(10) ** (-digits) * max(1, abs(reference))


def _num(ctx, x):
    return ctx.mpf(x.numerator) / x.denominator


@SETTINGS
@given(digits_st, q_st)
def test_theta2_matches_jtheta(digits, q):
    ctx = _oracle(digits)
    qv = ctx.mpf(q.numerator) / q.denominator
    assert _agree(ctx, theta2(q, PrecisionSpec(digits)), ctx.jtheta(2, 0, qv), digits)


@SETTINGS
@given(digits_st, q_st, real_st, imag_st)
def test_theta3_theta4_match_jtheta(digits, q, x, y):
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv = ctx.mpf(q.numerator) / q.denominator
    xv = ctx.mpf(x.numerator) / x.denominator
    yv = ctx.mpf(y.numerator) / y.denominator
    for z in (xv, ctx.mpc(xv, yv)):
        assert _agree(ctx, theta3(z, q, prec), ctx.jtheta(3, z, qv), digits)
        assert _agree(ctx, theta4(z, q, prec), ctx.jtheta(4, z, qv), digits)


@SETTINGS
@given(digits_st, q_st, real_st, imag_st)
def test_theta_sum_S_matches_jtheta(digits, q, x, y):
    # q^(n^2 + z n) = q^(n^2) e^(2 i n w) with w = -i z ln(q) / 2
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv = ctx.mpf(q.numerator) / q.denominator
    xv = ctx.mpf(x.numerator) / x.denominator
    yv = ctx.mpf(y.numerator) / y.denominator
    for z in (xv, ctx.mpc(xv, yv)):
        w = -ctx.j * z * ctx.log(qv) / 2
        assert _agree(ctx, theta_sum_S(z, q, prec), ctx.jtheta(3, w, qv), digits)


def test_q_zero_matches_jtheta():
    ctx = _oracle(40)
    prec = PrecisionSpec(40)
    assert theta2(0, prec) == ctx.jtheta(2, 0, 0) == 0
    for z in (0, Fraction(1, 2), ctx.mpc(1, 2)):
        assert theta_sum_S(z, 0, prec) == ctx.jtheta(3, 0, 0) == 1


@SETTINGS
@given(digits_st, q_st, real_st, real_st)
def test_pochhammer_matches_qp(digits, q, x, y):
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv = _num(ctx, q)
    for a in (_num(ctx, x), ctx.mpc(_num(ctx, x), _num(ctx, y))):
        assert _agree(ctx, pochhammer(a, qv, INF, prec), ctx.qp(a, qv), digits)


@SETTINGS
@given(digits_st, q_st)
def test_euler_and_weber_products_match_qp(digits, q):
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv = _num(ctx, q)
    assert _agree(ctx, euler_f(q, prec), ctx.qp(qv, qv), digits)
    assert _agree(ctx, weber_phi(q, prec), ctx.qp(-qv, qv), digits)


@SETTINGS
@given(digits_st, q_st, real_st, imag_st)
def test_theta4_product_matches_jtheta(digits, q, x, y):
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv = _num(ctx, q)
    for z in (_num(ctx, x), ctx.mpc(_num(ctx, x), _num(ctx, y))):
        assert _agree(ctx, theta4_product(z, q, prec), ctx.jtheta(4, z, qv), digits)


@SETTINGS
@given(digits_st, q_st)
def test_rogers_ramanujan_fraction_matches_qp(digits, q):
    # R(q) = q^(1/5) (q;q^5)(q^4;q^5) / ((q^2;q^5)(q^3;q^5))
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv = _num(ctx, q)
    q5 = qv**5
    bare = ctx.qp(qv, q5) * ctx.qp(qv**4, q5) / (ctx.qp(qv**2, q5) * ctx.qp(qv**3, q5))
    assert _agree(ctx, rr_cf(q, prec), bare, digits)
    assert _agree(ctx, r1_cf(q, prec), ctx.root(qv, 5) * bare, digits)


@SETTINGS
@given(digits_st, q_st, unit_st, unit_st)
def test_p_fraction_matches_its_product_form(digits, q, a, b):
    # (a^2 q^3; q^4)(b^2 q^3; q^4) / ((a^2 q; q^4)(b^2 q; q^4))
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv, av, bv = _num(ctx, q), _num(ctx, a), _num(ctx, b)
    q4 = qv**4
    product = (
        ctx.qp(av * av * qv**3, q4) * ctx.qp(bv * bv * qv**3, q4)
        / (ctx.qp(av * av * qv, q4) * ctx.qp(bv * bv * qv, q4))
    )
    assert _agree(ctx, p_cf(a, b, q, prec), product, digits)


@SETTINGS
@given(digits_st, q_st, chi_st)
def test_character_product_matches_qp_quotient(digits, q, abp):
    # R*(a,b,p;q) = [a,p;q]/[b,p;q] with [a,p;q] = (q^(p-a);q^p)(q^a;q^p)
    a, b, p = abp
    ctx = _oracle(digits)
    qv = _num(ctx, q)
    qp = qv**p

    def agile(e):
        return ctx.qp(qv ** (p - e), qp) * ctx.qp(qv**e, qp)

    value = rq_charprod(a, b, p, q, PrecisionSpec(digits))
    assert _agree(ctx, value, agile(a) / agile(b), digits)


def _findpoly(x, max_degree, prec):
    """mpmath's findpoly at find_minpoly's default settings, in ascending
    powers with a positive leading coefficient."""
    ctx = prec.context()
    found = ctx.findpoly(
        x,
        max_degree,
        maxcoeff=10**8 + 1,
        maxsteps=PSLQ_MAXSTEPS,
        tol=ctx.mpf(10) ** (-(prec.digits - 15)),
    )
    sign = 1 if found[0] > 0 else -1
    return tuple(sign * c for c in reversed(found))


def _primitive(coeffs):
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs)


@SETTINGS
@given(
    recognition_digits_st,
    st.integers(-20, 20),
    nonzero_st,
    st.integers(2, 30).filter(lambda c: math.isqrt(c) ** 2 != c),
    st.integers(1, 9),
)
def test_quadratic_surd_minpoly(digits, a, b, c, d):
    # x = (a + b sqrt(c))/d is a root of d^2 t^2 - 2ad t + a^2 - b^2 c
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    x = (a + b * ctx.sqrt(c)) / d
    expected = _primitive((a * a - b * b * c, -2 * a * d, d * d))
    res = find_minpoly(x, 4, prec=prec)
    assert res.coeffs == expected
    assert _findpoly(x, 4, prec) == expected


@SETTINGS
@given(
    recognition_digits_st,
    st.integers(2, 30).filter(lambda r: round(r ** (1 / 3)) ** 3 != r),
    st.integers(-5, 5),
)
def test_cubic_radical_minpoly(digits, r, s):
    # x = cbrt(r) + s is a root of (t - s)^3 - r
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    x = ctx.cbrt(r) + s
    expected = (-(s**3) - r, 3 * s * s, -3 * s, 1)
    res = find_minpoly(x, 4, prec=prec)
    assert res.coeffs == expected
    assert _findpoly(x, 4, prec) == expected


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.integers(5, 7),
    st.integers(2, 30).filter(
        lambda r: math.isqrt(r) ** 2 != r and round(r ** (1 / 3)) ** 3 != r
    ),
    st.integers(-3, 3),
)
def test_radical_below_the_degree_bound_minpoly(k, r, s):
    # x = r^(1/k) + s is a root of (t - s)^k - r, irreducible since r is
    # neither a square nor a cube; a search at degree 8 may return a proper
    # multiple of it, so only the descent below 8 finds it
    prec = PrecisionSpec(120)
    x = prec.context().root(r, k) + s
    expected = [math.comb(k, j) * (-s) ** (k - j) for j in range(k + 1)]
    expected[0] -= r
    assert find_minpoly(x, 8, prec=prec).coeffs == tuple(expected)


def test_octic_needs_the_pinned_search_settings():
    # eq. (54) at (1,2,5): a degree-8 relation that mpmath's default of 100
    # PSLQ steps does not reach at 120 digits
    prec = PrecisionSpec(120)
    ctx = prec.context()
    x = drq_normalized(RQParams(1, 2, 5), ctx.exp(-ctx.pi), prec)
    assert find_minpoly(x, 8, prec=prec).coeffs == DERIV_POLY_125
    assert _findpoly(x, 8, prec) == DERIV_POLY_125
    assert ctx.findpoly(x, 8, maxcoeff=10**8 + 1) is None
