"""Theta functions, bilateral Gaussian sums, q-products and continued
fractions against mpmath's jtheta and qp (the M fraction against its series);
R by theta quotient and by exponential sum, its q-derivative, psi*, [a,p;q]
and the hyperbolic log sum against qp, jtheta and mpmath's diff;
K, the modulus from the nome and 2-phi-1 against ellipk, jtheta and qhyper;
the fixed-point real routes of 2-phi-1, (a; q)_inf and theta3/theta4
against their complex routes, those of the continued fractions against the
same fractions in ctx's numbers, and R's exp sum against its theta route;
minimal polynomials against their closed forms and mpmath's findpoly, and
the PSLQ search behind them against mpmath's pslq; the documented domain
errors.

Inputs are drawn by Hypothesis with a fixed derandomized seed, so every run
tests the same points.  Each value must agree with the mpmath oracle,
computed 20 digits deeper, to 10^-digits times max(1, |reference|), or to
10^-digits relative where a value can be tiny.
"""

import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qelliptic import cfrac, hyperq, qfunctions
from qelliptic.algrec import PSLQ_MAXSTEPS, _lll_reduce, find_minpoly
from qelliptic.cfrac import (
    ContinuedFraction,
    h_cf,
    m_cf,
    m_series,
    p_cf,
    r1_cf,
    r2_cf,
    r3_cf,
    rr_cf,
)
from qelliptic.elliptic import K_of_k, modulus_from_nome
from qelliptic.hyperq import Phi21Params, phi21
from qelliptic.numerics import DomainError, PrecisionSpec, _from_fixed, cv
from qelliptic.qfunctions import (
    INF,
    AgileParams,
    agile,
    euler_f,
    hyperbolic_log_sum,
    pochhammer,
    psi_star,
    theta2,
    theta3,
    theta4,
    theta4_product,
    theta_sum_S,
    weber_phi,
)
from qelliptic.rquantity import RQParams, drq_dq, drq_normalized, rq_charprod, rq_theta
from qelliptic.verify import DERIV_POLY_125

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

digits_st = st.sampled_from([20, 40, 60, 200])
q_st = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 2), max_denominator=1000)
real_st = st.fractions(min_value=-2, max_value=2, max_denominator=100)
# |Im z| <= 1/3 keeps |q| e^(2|Im z|) below 1 for every q drawn above
imag_st = st.fractions(min_value=Fraction(-1, 3), max_value=Fraction(1, 3), max_denominator=100)
# |ab| < 1 for the P fraction
unit_st = st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=100)
# c of the M fraction, inside the region the suite checks it in
c_st = st.fractions(min_value=-1, max_value=1, max_denominator=100)
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


def _agree_relative(ctx, value, reference, digits):
    return abs(value - reference) <= ctx.mpf(10) ** (-digits) * abs(reference)


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
@example(60, Fraction(3, 20), Fraction(10**40), Fraction(1, 7))
@example(200, Fraction(1, 2), Fraction(10**80), Fraction(-1, 5))
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


# qp gives up after 50 * prec factors, too few near |q| = 1
QP_MAXTERMS = 10**5


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.sampled_from([20, 40]),
    # q = 1 - 1/m in [1/2, 99/100], most draws close to 1
    st.integers(2, 100).map(lambda m: 1 - Fraction(1, m)),
    st.integers(1, 8),
    st.fractions(min_value=0, max_value=Fraction(99, 100), max_denominator=100),
    st.fractions(min_value=-4, max_value=4, max_denominator=100),
)
def test_pochhammer_near_unit_q_is_relatively_accurate(digits, q, k, r, theta):
    # (a;q)_inf is tiny for a near 1 or q near 1, where Euler's series sums
    # huge terms to a small total; max(1, |reference|) would hide the loss
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv = _num(ctx, q)
    near_one = 1 - ctx.mpf(10) ** -k
    phase = ctx.expj(_num(ctx, theta))
    for a in (near_one, -near_one, qv, _num(ctx, r) * phase):
        reference = ctx.qp(a, qv, maxterms=QP_MAXTERMS)
        assert _agree_relative(ctx, pochhammer(a, qv, INF, prec), reference, digits)


@pytest.mark.parametrize("q", [Fraction(-1, 2), Fraction(-9, 10), Fraction(-99, 100)])
@pytest.mark.parametrize("a", [Fraction(-99, 100), Fraction(1, 1000), Fraction(9, 10)])
def test_pochhammer_at_negative_q_is_relatively_accurate(q, a):
    # at q < 0 Euler's terms zigzag: an odd step can multiply a term by
    # |a| |q|^n / (1 - |q|^(n+1)) > 1 after an even step shrank it, and the
    # series must not stop in a dip
    digits = 60
    ctx = _oracle(digits)
    reference = ctx.qp(_num(ctx, a), _num(ctx, q), maxterms=QP_MAXTERMS)
    assert _agree_relative(ctx, pochhammer(a, q, INF, PrecisionSpec(digits)), reference, digits)


@pytest.mark.parametrize("digits", [60, 200])
@pytest.mark.parametrize("q", [Fraction(97, 100), Fraction(99, 100)])
def test_pochhammer_resums_a_cancelling_euler_series(digits, q, monkeypatch):
    # Euler's series alone is off by 2e-44 (0.97) and 1e28 (0.99) relative at
    # 60 digits, and by 6e-189 and 5e-118 at 200 digits; summed again with
    # the digits it lost, it needs no product
    settled = []

    def recording_settle(*args, **kwargs):
        settled.append(kwargs.get("product", False))
        return settle(*args, **kwargs)

    settle = qfunctions._settle
    monkeypatch.setattr(qfunctions, "_settle", recording_settle)
    ctx = _oracle(digits)
    qv = _num(ctx, q)
    value = pochhammer(qv, qv, INF, PrecisionSpec(digits))
    assert _agree_relative(ctx, value, ctx.qp(qv, qv), digits)
    assert settled and not any(settled)


def test_pochhammer_exact_edges():
    prec = PrecisionSpec(40)
    ctx = prec.context()
    for a in (Fraction(1, 3), Fraction(-9, 10), 3, ctx.mpc(0.5, -0.25)):
        assert pochhammer(a, 0, INF, prec) == 1 - cv(ctx, a)
    for q in (Fraction(1, 3), Fraction(-99, 100), ctx.mpc(0, 0.5)):
        assert pochhammer(0, q, INF, prec) == 1
    # a = q^(-k): the factor 1 - a q^k is exactly 0 on either route
    for a, q in ((4, Fraction(1, 2)), (-8, Fraction(-1, 2)), (ctx.mpc(4, 0), Fraction(1, 2))):
        assert pochhammer(a, q, INF, prec) == 0


@SETTINGS
@given(digits_st, st.fractions(min_value=0, max_value=Fraction(99, 100), max_denominator=1000))
def test_K_of_k_matches_ellipk(digits, k):
    ctx = _oracle(digits)
    kv = _num(ctx, k)
    assert _agree(ctx, K_of_k(k, PrecisionSpec(digits)), ctx.ellipk(kv * kv), digits)


@SETTINGS
@given(digits_st, q_st)
def test_modulus_from_nome_matches_jtheta(digits, q):
    # k = (theta2/theta3)^2, k' = (theta4/theta3)^2, K = pi theta3^2 / 2
    ctx = _oracle(digits)
    qv = _num(ctx, q)
    t2, t3, t4 = (ctx.jtheta(j, 0, qv) for j in (2, 3, 4))
    k, k_prime = (t2 / t3) ** 2, (t4 / t3) ** 2
    mod = modulus_from_nome(q, PrecisionSpec(digits))
    assert _agree_relative(ctx, mod.k, k, digits)
    assert _agree(ctx, mod.k_prime, k_prime, digits)
    assert _agree(ctx, mod.K, ctx.pi / 2 * t3**2, digits)
    assert _agree(ctx, mod.K_prime, ctx.ellipk(k_prime**2), digits)


@pytest.mark.parametrize("digits", [30, 60, 120, 200])
def test_modulus_from_nome_k_prime_keeps_the_working_precision(digits):
    # k' = sqrt(1 - k^2) lost about four digits to cancellation as k nears 1
    prec = PrecisionSpec(digits)
    ctx = _oracle(prec.workdps)
    for q in ("0.01", "0.05", "0.2", "0.35", "0.45", "0.49", "0.499"):
        qv = ctx.mpf(q)
        k_prime = (ctx.jtheta(4, 0, qv) / ctx.jtheta(3, 0, qv)) ** 2
        err = abs(modulus_from_nome(Fraction(q), prec).k_prime - k_prime) / k_prime
        assert err < ctx.mpf(10) ** (2 - prec.workdps), q


# phi21's upper parameters a, b and lower parameter c: |c| > 1 and large a, b
# are where its fixed-point terms scale differently from mpf ones
phi21_param_st = st.fractions(min_value=-3, max_value=3, max_denominator=100)


def _off_the_poles(c, q):
    # every pole c = q^(-n) with |c| <= 3 has n <= 1, since |q| <= 1/2
    return all(abs(c - q**-n) >= Fraction(1, 1000) for n in range(3))


@SETTINGS
@given(digits_st, q_st, phi21_param_st, phi21_param_st, phi21_param_st, unit_st.filter(bool))
def test_phi21_matches_qhyper(digits, q, a, b, c, z):
    # qhyper never settles at z = 0
    assume(_off_the_poles(c, q))
    ctx = _oracle(digits)
    qv, av, bv, cv_, zv = (_num(ctx, x) for x in (q, a, b, c, z))
    value = phi21(Phi21Params(a, b, c, q, z), PrecisionSpec(digits))
    assert _agree(ctx, value, ctx.qhyper([av, bv], [cv_], qv, zv), digits)


@pytest.mark.parametrize("digits", [30, 200])
@SETTINGS
@given(
    q=q_st, negative=st.booleans(), a=phi21_param_st, b=phi21_param_st, c=phi21_param_st, z=unit_st
)
def test_phi21_real_and_complex_routes_agree(digits, q, negative, a, b, c, z):
    # real input sums in fixed point, mpc input in ctx's numbers; an mpc
    # with zero imaginary part counts as real, so the mpc route is taken
    # here with cv_real turned into plain cv
    q = -q if negative else q
    assume(_off_the_poles(c, q))
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    real = phi21(Phi21Params(a, b, c, q, z), prec)
    params = Phi21Params(*(ctx.mpc(cv(ctx, x), 0) for x in (a, b, c, q, z)))
    assert phi21(params, prec) == real
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hyperq, "cv_real", cv)
        complex_ = phi21(params, prec)
    assert isinstance(real, ctx.mpf) and isinstance(complex_, ctx.mpc)
    assert _agree_relative(ctx, complex_, real, digits)


@pytest.mark.parametrize("digits", [30, 60])
def test_phi21_at_a_zero_of_a_terminating_series_returns(digits):
    # a = q^(-1) ends the series after 1 - 1 = 0: the exact zero leaves no
    # digits to resolve, so a re-sum until the loss fits would never end
    value = phi21(Phi21Params(2, Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)),
                  PrecisionSpec(digits))
    assert abs(value) < mpmath.mpf(10) ** -digits


def test_phi21_keeps_relative_digits_when_its_terms_cancel():
    # O(1) terms sum to 7.15e-13, a loss of 12 digits, more than half the
    # guard: phi21 sums again with 12 more digits
    a, b, c, q, z = (Fraction(x) for x in ("-2.693", "-2.296", "-2.428", "0.913", "-0.458"))
    ctx = _oracle(60)  # 80 digits
    qv, av, bv, cv_, zv = (_num(ctx, x) for x in (q, a, b, c, z))
    reference = ctx.qhyper([av, bv], [cv_], qv, zv)
    prec = PrecisionSpec(20)
    pctx = prec.context()
    for params in (
        Phi21Params(a, b, c, q, z),
        Phi21Params(*(pctx.mpc(cv(pctx, x), 0) for x in (a, b, c, q, z))),
    ):
        assert _agree_relative(ctx, phi21(params, prec), reference, 20)


# real a on both sides of |a| = 1, and q of either sign up to |q| = 0.99
poch_a_st = st.fractions(min_value=-3, max_value=3, max_denominator=100)
poch_q_st = st.fractions(
    min_value=Fraction(-99, 100), max_value=Fraction(99, 100), max_denominator=100
)


@pytest.mark.parametrize("digits", [30, 200])
@SETTINGS
@given(a=poch_a_st, q=poch_q_st)
def test_pochhammer_real_and_complex_routes_agree(digits, a, q):
    # real a and q advance in fixed point, mpc input in ctx's numbers; an
    # exact zero factor a q^m = 1 leaves no relative digits to compare
    assume(all(a * q**m != 1 for m in range(10)))
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    real = pochhammer(a, q, INF, prec)
    args = (ctx.mpc(cv(ctx, a), 0), ctx.mpc(cv(ctx, q), 0), INF, prec)
    assert pochhammer(*args) == real  # zero imaginary parts count as real
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qfunctions, "cv_real", cv)
        complex_ = pochhammer(*args)
    assert isinstance(real, ctx.mpf) and isinstance(complex_, ctx.mpc)
    assert _agree_relative(ctx, complex_, real, digits)


@pytest.mark.parametrize("digits", [30, 200])
@SETTINGS
@given(
    # A tiny q takes a large |Im z| to the guard, where cos(2z) is about
    # e^(2|Im z|).
    q=st.one_of(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
        st.sampled_from([Fraction(1, 10**30), Fraction(1, 10**100)]),
    ),
    negative=st.booleans(),
    x=real_st,
    # |q| e^(2|Im z|), from 0.9 up to just below the growth guard's 1
    growth=st.fractions(min_value=Fraction(9, 10), max_value=Fraction(99, 100)),
    below=st.booleans(),
)
def test_theta_real_and_complex_q_routes_agree(digits, q, negative, x, growth, below):
    # real q sums in fixed point, mpc q as a bilateral sum in ctx's numbers
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    qv = cv(ctx, -q if negative else q)
    y = ctx.log(cv(ctx, growth / q)) / 2
    for z, kind in ((cv(ctx, x), ctx.mpf), (ctx.mpc(cv(ctx, x), -y if below else y), ctx.mpc)):
        for theta in (theta3, theta4):
            real = theta(z, qv, prec)
            complex_ = theta(z, ctx.mpc(qv, 0), prec)
            assert isinstance(real, kind) and isinstance(complex_, ctx.mpc)
            assert _agree_relative(ctx, complex_, real, digits)


def _fraction_routes(fraction, args, digits):
    """The fraction that fraction(*args) hands eval_cf, evaluated as given,
    in fixed point, and with its items rounded to ctx's numbers and no wp:
    the value and the levels of the forward pass of each."""
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    evaluate = cfrac.eval_cf
    handed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cfrac, "eval_cf", lambda cf, p: handed.append(cf) or evaluate(cf, p))
        fraction(*args, prec)
    (fixed,) = handed

    def rounded(item):
        return lambda n: _from_fixed(ctx, item(n), fixed.wp)

    in_ctx = ContinuedFraction(
        _from_fixed(ctx, fixed.b0, fixed.wp), rounded(fixed.partial_num), rounded(fixed.partial_den)
    )
    results = []
    for cf in (fixed, in_ctx):
        requested = []
        counted = dataclasses.replace(
            cf, partial_num=lambda n, item=cf.partial_num: requested.append(n) or item(n)
        )
        # the forward pass requests levels 1..N, the backward pass N+1..2N
        results.append((evaluate(counted, prec), len(requested) // 2))
    return results


def _assert_fraction_routes_agree(fraction, args, digits):
    (fixed, fixed_levels), (in_ctx, ctx_levels) = _fraction_routes(fraction, args, digits)
    assert _agree_relative(PrecisionSpec(digits).context(), fixed, in_ctx, digits)
    # Both routes run the same passes and stop on the increments of g =
    # a1/value, three of them below eps * max(1, |g|); only their rounding
    # differs (integers at wp bits against ctx's numbers), which may move
    # the stop by a level.
    assert abs(fixed_levels - ctx_levels) <= 1


@SETTINGS
@given(
    st.sampled_from([20, 60, 200]),
    st.sampled_from([rr_cf, r2_cf, r3_cf]),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
)
@example(200, rr_cf, Fraction(99, 100))
@example(200, r2_cf, Fraction(99, 100))
@example(200, r3_cf, Fraction(99, 100))
def test_nome_fractions_integer_and_ctx_routes_agree(digits, fraction, q):
    _assert_fraction_routes_agree(fraction, (q,), digits)


@SETTINGS
@given(
    st.sampled_from([20, 60, 200]),
    c_st,
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
)
@example(200, Fraction(1), Fraction(99, 100))
@example(200, Fraction(-1), Fraction(99, 100))
def test_m_fraction_integer_and_ctx_routes_agree(digits, c, q):
    _assert_fraction_routes_agree(m_cf, (c, q), digits)


@SETTINGS
@given(st.sampled_from([20, 60, 200]), q_st, unit_st, unit_st)
@example(20, Fraction(1, 2), Fraction(49, 50), Fraction(1))
@example(60, Fraction(1, 2), Fraction(-49, 50), Fraction(1))
@example(200, Fraction(1, 2), Fraction(7, 10), Fraction(7, 5))
@example(200, Fraction(1, 2), Fraction(-7, 10), Fraction(7, 5))
def test_p_fraction_integer_and_ctx_routes_agree(digits, q, a, b):
    _assert_fraction_routes_agree(p_cf, (a, b, q), digits)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.sampled_from([20, 40, 60]),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(95, 100), max_denominator=100),
    st.fractions(min_value=-4, max_value=4, max_denominator=100),
    real_st,
    # Im z as a share of the growth guard's bound |ln|q|| / 2
    st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=100),
)
def test_theta3_theta4_match_jtheta_at_complex_q(digits, r, phi, x, share):
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    pctx = prec.context()
    q = cv(pctx, r) * pctx.expj(cv(pctx, phi))
    z = pctx.mpc(cv(pctx, x), cv(pctx, share) * -pctx.log(cv(pctx, r)) / 2)
    for theta, j in ((theta3, 3), (theta4, 4)):
        value = theta(z, q, prec)
        assert isinstance(value, pctx.mpc)
        assert _agree(ctx, value, ctx.jtheta(j, ctx.convert(z), ctx.convert(q)), digits)


@pytest.mark.parametrize("q", [Fraction(19, 20), Fraction(99, 100)])
def test_theta4_keeps_relative_digits_near_unit_q(q):
    # theta4(0, q) is about e^(-pi^2 / (4 |ln q|)): 2.0e-20 at 19/20 and
    # 8.5e-106 at 99/100, a sum of O(1) terms
    ctx = _oracle(280)  # 300 digits
    reference = ctx.jtheta(4, 0, _num(ctx, q))
    prec = PrecisionSpec(30)
    pctx = prec.context()
    qv = cv(pctx, q)
    for value in (theta4(0, qv, prec), theta4(0, pctx.mpc(qv, 0), prec)):
        assert _agree_relative(ctx, value, reference, 30)


outside_unit_st = st.fractions(min_value=1, max_value=3, max_denominator=100)
sign_st = st.sampled_from([1, -1])


@SETTINGS
@given(outside_unit_st, sign_st, unit_st)
def test_domain_guards_raise_domain_error(x, sign, y):
    prec = PrecisionSpec(20)
    ctx = prec.context()
    with pytest.raises(DomainError):
        pochhammer(y, sign * x, INF, prec)
    with pytest.raises(DomainError):
        pochhammer(y, ctx.mpc(0, cv(ctx, x)), INF, prec)
    with pytest.raises(DomainError):
        pochhammer(y, Fraction(1, 2), x + Fraction(1, 1000), prec)  # not an integer
    with pytest.raises(DomainError):
        K_of_k(x, prec)
    with pytest.raises(DomainError):
        phi21(Phi21Params(y, y, y, Fraction(1, 2), sign * x), prec)
    with pytest.raises(DomainError):
        modulus_from_nome(x, prec)
    with pytest.raises(DomainError):
        modulus_from_nome(-y * y, prec)


@SETTINGS
@given(digits_st, q_st, real_st, imag_st)
def test_theta4_product_matches_jtheta(digits, q, x, y):
    # real q at real and complex z, and q turned by (3 + 4i)/5, same |q|
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv, zr, zc = _num(ctx, q), _num(ctx, x), ctx.mpc(_num(ctx, x), _num(ctx, y))
    turned = qv * ctx.mpc(3, 4) / 5
    for z, arg, ref in ((zr, q, qv), (zc, q, qv), (zc, turned, turned)):
        assert _agree(ctx, theta4_product(z, arg, prec), ctx.jtheta(4, z, ref), digits)


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
@given(digits_st, q_st)
def test_cubic_fraction_matches_qp(digits, q):
    # R2(q) = q^(1/3) (q;q^6)(q^5;q^6) / (q^3;q^6)^2
    ctx = _oracle(digits)
    qv = _num(ctx, q)
    q6 = qv**6
    product = ctx.cbrt(qv) * ctx.qp(qv, q6) * ctx.qp(qv**5, q6) / ctx.qp(qv**3, q6) ** 2
    assert _agree(ctx, r2_cf(q, PrecisionSpec(digits)), product, digits)


@SETTINGS
@given(digits_st, q_st)
def test_octic_fraction_matches_qp(digits, q):
    # R3(q) = H(q) = R(1,3,8;q) = q^(1/2) (q;q^8)(q^7;q^8) / ((q^3;q^8)(q^5;q^8))
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv = _num(ctx, q)
    q8 = qv**8
    product = (
        ctx.sqrt(qv) * ctx.qp(qv, q8) * ctx.qp(qv**7, q8)
        / (ctx.qp(qv**3, q8) * ctx.qp(qv**5, q8))
    )
    assert _agree(ctx, r3_cf(q, prec), product, digits)
    assert _agree(ctx, h_cf(q, prec), product, digits)


@SETTINGS
@given(digits_st, q_st, c_st)
def test_m_fraction_matches_its_series(digits, q, c):
    # M(c, q) = sum_{n>=0} c^n q^(n(n+1)/2)
    ctx = _oracle(digits)
    qv, cv_ = _num(ctx, q), _num(ctx, c)
    # |c| <= 1, so terms past q^(N(N+1)/2) < 10^-(dps + 10) are negligible
    N = math.isqrt(int(2 * (ctx.dps + 10) * math.log(10) / -math.log(q))) + 2
    series = ctx.fsum(cv_**n * qv ** (n * (n + 1) // 2) for n in range(N))
    assert _agree(ctx, m_cf(c, q, PrecisionSpec(digits)), series, digits)


@SETTINGS
@given(
    st.sampled_from([30, 60, 120, 200]),
    st.fractions(min_value=-1000, max_value=-1, max_denominator=100),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
)
@example(30, Fraction(-5), Fraction(99, 100))
@example(30, Fraction(-1000), Fraction(9, 10))
@example(30, Fraction(-1000), Fraction(99, 100))
def test_m_series_keeps_relative_digits_when_its_terms_cancel(digits, c, q):
    # for c < 0 and q near 1 the terms rise far above the total before they
    # fall: at c = -5, q = 0.99 to 1e56 against 0.167
    lc, lq = math.log10(-c), -math.log10(q)
    # log10 |c^n q^(n(n+1)/2)| = n lc - n(n+1) lq / 2 peaks below lc^2 / (2 lq)
    ctx = _oracle(digits + math.ceil(lc * lc / (2 * lq)))
    b = lc - lq / 2
    N = math.ceil((b + math.sqrt(b * b + 2 * lq * (ctx.dps + 10))) / lq) + 2
    qv, cv_ = _num(ctx, q), _num(ctx, c)
    series = ctx.fsum(cv_**n * qv ** (n * (n + 1) // 2) for n in range(N))
    assert _agree_relative(ctx, m_series(c, q, PrecisionSpec(digits)), series, digits)


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
    # at real q, and at q turned by (3 + 4i)/5, same |q|
    a, b, p = abp
    ctx = _oracle(digits)
    turned = _num(ctx, q) * ctx.mpc(3, 4) / 5
    for arg, qv in ((q, _num(ctx, q)), (turned, turned)):
        qp = qv**p

        def agile(e):
            return ctx.qp(qv ** (p - e), qp) * ctx.qp(qv**e, qp)

        value = rq_charprod(a, b, p, arg, PrecisionSpec(digits))
        assert _agree(ctx, value, agile(a) / agile(b), digits)


# exponents of [a,p;q]: period p and a = p u with u inside (0, 1); the
# engines rewritten as recurrences are tested from 30 to 200 digits
period_st = st.integers(1, 5)
share_st = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=100)
series_digits_st = st.sampled_from([30, 60, 120, 200])


def _agile_qp(ctx, a, p, qv):
    """[a,p;q] = (q^(p-a); q^p)_inf (q^a; q^p)_inf by mpmath's qp."""
    return ctx.qp(qv ** (p - a), qv**p) * ctx.qp(qv**a, qv**p)


def _r_qp(ctx, a, b, p, qv):
    """R(a,b,p;q) = q^(-(a-b)/2 + (a^2-b^2)/(2p)) [a,p;q]/[b,p;q] by qp."""
    expo = -(a - b) / 2 + (a * a - b * b) / (2 * p)
    return qv**expo * _agile_qp(ctx, a, p, qv) / _agile_qp(ctx, b, p, qv)


@SETTINGS
@given(
    series_digits_st,
    period_st,
    share_st,
    share_st,
    st.fractions(min_value=Fraction(7, 10), max_value=4, max_denominator=100),
)
def test_rq_theta_routes_match_qp_quotient(digits, p, u, v, x):
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    a, b = u * p, v * p
    reference = _r_qp(ctx, _num(ctx, a), _num(ctx, b), ctx.mpf(p), ctx.exp(-_num(ctx, x)))
    for route in ("theta", "expsum"):
        assert _agree(ctx, rq_theta(a, b, p, x, prec, route=route), reference, digits)


@SETTINGS
@given(
    series_digits_st,
    period_st,
    share_st,
    share_st,
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(7, 10), max_denominator=100),
)
@example(200, 1, Fraction(1, 10), Fraction(1, 2), Fraction(1, 10))
@example(200, 5, Fraction(1, 10), Fraction(49, 50), Fraction(1, 10))
def test_rq_theta_exp_sum_matches_theta_route_at_small_x(digits, p, u, v, x):
    # the exp sum's first term is about 2/(px), and it takes about
    # digits ln(10) / (min(a, p - a) x) terms
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    a, b = u * p, v * p
    theta = rq_theta(a, b, p, x, prec, route="theta")
    assert _agree(ctx, rq_theta(a, b, p, x, prec, route="expsum"), theta, digits)


@SETTINGS
@given(series_digits_st, q_st, period_st, share_st, imag_st)
def test_psi_star_and_agile_theta_routes_match_qp_at_complex_a(digits, q, p, u, y):
    # psi*(a,p;q) = (q^p;q^p)(-q^a;q^p)(-q^(p-a);q^p) for 0 < Re(a) < p
    ctx = _oracle(digits)
    prec = PrecisionSpec(digits)
    qv, pv = _num(ctx, q), ctx.mpf(p)
    a = ctx.mpc(_num(ctx, u * p), _num(ctx, y))
    qp = qv**pv
    psi = ctx.qp(qp, qp) * ctx.qp(-(qv**a), qp) * ctx.qp(-(qv ** (pv - a)), qp)
    assert _agree(ctx, psi_star(a, p, q, prec, route="sum"), psi, digits)
    value = agile(AgileParams(a, p), q, prec, route="theta")
    assert _agree(ctx, value, _agile_qp(ctx, a, pv, qv), digits)


@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("q", [Fraction(9, 10), Fraction(19, 20), Fraction(97, 100)])
def test_agile_theta_route_keeps_relative_digits_near_unit_q(digits, q):
    # the theta route sums O(1) terms to [1/3, 1; q] (q; q)_inf, which is
    # tiny near q = 1: summed once it was off by 1.5e-27, 9.4e-6 and 2.2e23
    # relative at 30 digits for these q
    params = AgileParams(Fraction(1, 3), 1)
    reference = agile(params, q, PrecisionSpec(200), route="product")
    value = agile(params, q, PrecisionSpec(digits), route="theta")
    assert _agree_relative(_oracle(digits), value, reference, digits)


def test_agile_is_exactly_zero_when_a_over_p_is_an_integer():
    # a = -k p or (k + 1) p makes a factor of the product 1 - 1; at 7/10
    # and 7/30 the quotient of the rounded a and p is not 3
    prec = PrecisionSpec(30)
    pairs = ((0, 1), (1, 1), (2, 1), (-3, Fraction(3, 2)), (Fraction(9, 2), Fraction(3, 2)))
    for a, p in pairs + ((Fraction(7, 10), Fraction(7, 30)), ("0.7", Fraction(7, 30))):
        value = agile(AgileParams(a, p), Fraction(1, 2), prec)
        assert value == 0 and isinstance(value, prec.context().mpf)


@pytest.mark.parametrize("a", [3 + Fraction(1, 10**60), 3 - Fraction(1, 10**60), "3.0000000001"])
def test_agile_near_an_integer_ratio_keeps_relative_digits(a):
    # a/p within half an ulp of 3 at 30 digits, or well inside the working
    # digits, is no zero: the factor 1 - q^(1 - a + 2) = 1 - q^(3 - a) is
    # about (3 - a) ln 2
    ctx = _oracle(100)
    qv, av = ctx.mpf(1) / 2, ctx.mpf(Fraction(a).numerator) / Fraction(a).denominator
    reference = ctx.qp(qv**av, qv) * ctx.qp(qv ** (1 - av), qv)
    value = agile(AgileParams(a, 1), Fraction(1, 2), PrecisionSpec(30), route="theta")
    assert _agree_relative(ctx, value, reference, 30)


def test_euler_f_and_theta4_keep_relative_digits_at_q_999_1000():
    # both lose about 1070 digits to cancellation at q = 999/1000; against
    # their modular transforms at q' = e^(-4 pi^2 / t) and e^(-pi^2 / t),
    # t = -ln q, whose tails fall below 10^-8000
    ctx = _oracle(60)
    t = -ctx.log(ctx.mpf(999) / 1000)
    euler = ctx.sqrt(2 * ctx.pi / t) * ctx.exp(t / 24 - ctx.pi**2 / (6 * t))
    theta = 2 * ctx.sqrt(ctx.pi / t) * ctx.exp(-(ctx.pi**2) / (4 * t))
    prec = PrecisionSpec(30)
    assert _agree_relative(ctx, euler_f(Fraction(999, 1000), prec), euler, 30)
    assert _agree_relative(ctx, theta4(0, Fraction(999, 1000), prec), theta, 30)


@SETTINGS
@given(
    series_digits_st,
    st.fractions(min_value=Fraction(1, 2), max_value=2, max_denominator=100),
    st.fractions(min_value=Fraction(-11, 10), max_value=Fraction(11, 10), max_denominator=100),
)
def test_hyperbolic_log_sum_matches_qp_and_jtheta(digits, a, u):
    # log theta4(it, q) = log (q^2;q^2)_inf - sum_k cosh(2tk) / (k sinh(k ln(1/q)))
    # at q = e^(-pi a); |t| = |u| a <= 1.1 a stays inside |t| < pi a / 2
    ctx = _oracle(digits)
    av = _num(ctx, a)
    t = u * a
    tv = _num(ctx, t)
    reference = ctx.log(ctx.qp(ctx.exp(-2 * ctx.pi * av))) - ctx.log(
        ctx.jtheta(4, ctx.j * tv, ctx.exp(-ctx.pi * av))
    )
    assert _agree(ctx, hyperbolic_log_sum(t, a, PrecisionSpec(digits)), reference, digits)


@pytest.mark.parametrize("digits", [30, 200])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(q=q_st, p=period_st, u=share_st, v=share_st)
def test_drq_dq_matches_diff_of_qp_quotient(digits, q, p, u, v):
    ctx = _oracle(digits)
    a, b = u * p, v * p
    av, bv, pv = _num(ctx, a), _num(ctx, b), ctx.mpf(p)
    reference = ctx.diff(lambda qq: _r_qp(ctx, av, bv, pv, qq), _num(ctx, q))
    value = drq_dq(RQParams(a, b, p), q, PrecisionSpec(digits))
    assert _agree(ctx, value, reference, digits)


nonsquare_st = st.integers(2, 30).filter(lambda c: math.isqrt(c) ** 2 != c)
# x as (kind, arguments): the surds and radicals drawn below, and random
# reals, whose powers satisfy no relation under the height bound
search_x_st = st.one_of(
    st.tuples(st.just("surd"), st.integers(-20, 20), nonzero_st, nonsquare_st, st.integers(1, 9)),
    st.tuples(st.just("radical"), st.integers(2, 30), st.integers(2, 7), st.integers(-5, 5)),
    st.tuples(st.just("random"), st.integers(0, 2**32)),
)


def _search_x(ctx, kind, *args):
    if kind == "surd":
        a, b, c, d = args
        return (a + b * ctx.sqrt(c)) / d
    if kind == "radical":
        r, k, s = args
        return ctx.root(r, k) + s
    bits = random.Random(args[0]).getrandbits(700)
    return ctx.mpf(bits - 2**699) / 2**698


def _both_reject_a_zero_entry(ctx, xs, tol, maxcoeff):
    with pytest.raises(ValueError, match="nonzero"):
        _lll_reduce(ctx, xs, tol, maxcoeff)
    with pytest.raises(ValueError, match="nonzero"):
        ctx.pslq(xs, tol=tol, maxcoeff=maxcoeff, maxsteps=PSLQ_MAXSTEPS)


@pytest.mark.parametrize("degree", range(1, 9))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(digits=st.integers(80, 200), spec=search_x_st)
@example(digits=100, spec=("radical", 27, 3, -3))  # x = 27^(1/3) - 3 = 0
def test_local_pslq_matches_mpmath_pslq(degree, digits, spec):
    # the search find_minpoly runs returns exactly what mpmath's pslq does
    ctx = PrecisionSpec(digits).context()
    x = _search_x(ctx, *spec)
    xs = [x**i for i in range(degree + 1)]
    tol, maxcoeff = ctx.mpf(10) ** (15 - digits), 10**8 + 1
    if x == 0:
        _both_reject_a_zero_entry(ctx, xs, tol, maxcoeff)
        return
    relation = _lll_reduce(ctx, xs, tol, maxcoeff)
    assert relation == ctx.pslq(xs, tol=tol, maxcoeff=maxcoeff, maxsteps=PSLQ_MAXSTEPS)
    if spec[0] == "random":
        assert relation is None


def _exact_sqrt_fixed(x, prec):
    """mpmath's ``sqrt_fixed`` as its gmpy backend binds it: exact."""
    return math.isqrt(x << prec)


@pytest.mark.parametrize("degree", range(1, 9))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(digits=st.integers(80, 200), spec=search_x_st)
@example(digits=100, spec=("radical", 27, 3, -3))
def test_local_pslq_matches_mpmath_pslq_with_exact_square_roots(degree, digits, spec):
    # the search takes exact square roots, isqrt(x << prec), which is what
    # mpmath's sqrt_fixed is on its gmpy backend; its pure-Python one is 1
    # ulp low on about 0.1% of inputs
    ctx = PrecisionSpec(digits).context()
    x = _search_x(ctx, *spec)
    xs = [x**i for i in range(degree + 1)]
    tol, maxcoeff = ctx.mpf(10) ** (15 - digits), 10**8 + 1
    if x == 0:
        _both_reject_a_zero_entry(ctx, xs, tol, maxcoeff)
        return
    with mock.patch.object(mpmath.identification, "sqrt_fixed", _exact_sqrt_fixed):
        expected = ctx.pslq(xs, tol=tol, maxcoeff=maxcoeff, maxsteps=PSLQ_MAXSTEPS)
    assert _lll_reduce(ctx, xs, tol, maxcoeff) == expected


@pytest.mark.parametrize("digits", [320, 400])
@pytest.mark.parametrize("degree", [2, 4])
def test_local_pslq_matches_mpmath_pslq_past_the_float_range(degree, digits):
    # at 1,233 and 1,525 fixed-point bits the entries of H exceed 2^1024,
    # the float range the row choice screens in
    ctx = PrecisionSpec(digits).context()
    x = ctx.sqrt(2) + ctx.sqrt(3)
    xs = [x**i for i in range(degree + 1)]
    tol, maxcoeff = ctx.mpf(10) ** (15 - digits), 10**8 + 1
    relation = _lll_reduce(ctx, xs, tol, maxcoeff)
    assert relation == ctx.pslq(xs, tol=tol, maxcoeff=maxcoeff, maxsteps=PSLQ_MAXSTEPS)
    assert (relation is None) == (degree < 4)


@pytest.mark.parametrize(
    "x, degree, expected", [(-1, 3, [1, 0, -1, 0]), ("1e-50", 2, None), ("1e-110", 1, None)]
)
def test_local_pslq_precision_exhausted_exit(x, degree, expected):
    # a zero diagonal entry of H ends only the current row's reduction, as
    # mpmath's ZeroDivisionError does; the first two inputs reach that exit.
    # At 1e-110 an entry of the vector lies 10^5 below the tolerance, and
    # both return None before the first step
    ctx = PrecisionSpec(120).context()
    xs = [ctx.mpf(x) ** i for i in range(degree + 1)]
    tol, maxcoeff = ctx.mpf(10) ** -105, 10**8 + 1
    assert _lll_reduce(ctx, xs, tol, maxcoeff) == expected
    assert ctx.pslq(xs, tol=tol, maxcoeff=maxcoeff, maxsteps=PSLQ_MAXSTEPS) == expected


_AT_THE_HEIGHT_BOUND = [(e, e) for e in range(1, 9)] + [(3, 4), (7, 8)]


def _relation_at_the_height_bound(degree, search, guard):
    # the norm bound that stops a search holds for exact relations of the
    # fixed-point vector; an algebraic x's relation only nearly vanishes
    # there, so one with every coefficient within 3 of the height bound
    # 10^8, at the fewest digits find_minpoly allows, must still turn up
    # as pslq finds it (over 400 such roots, max|H_jj| was at least 1.39
    # times the stop's bound when the relation turned up)
    digits = 10 * search + 40
    ctx, rng = PrecisionSpec(digits, guard).context(), random.Random(degree)
    tol, maxcoeff, relation = ctx.mpf(10) ** (15 - digits), 10**8 + 1, [0]
    while max(map(abs, relation)) < 10**8 - 3:
        cs = [rng.choice([-1, 1]) * (10**8 - rng.randint(0, 3)) for _ in range(degree + 1)]
        roots = ctx.polyroots(cs[::-1], maxsteps=500, extraprec=2 * ctx.prec)
        for x in (ctx.re(r) for r in roots if abs(ctx.im(r)) < tol):
            xs = [x**i for i in range(search + 1)]
            relation = ctx.pslq(xs, tol=tol, maxcoeff=maxcoeff, maxsteps=PSLQ_MAXSTEPS) or [0]
            if max(map(abs, relation)) >= 10**8 - 3:
                break
    assert _lll_reduce(ctx, xs, tol, maxcoeff) == relation


@pytest.mark.parametrize("degree, search", _AT_THE_HEIGHT_BOUND)
def test_local_pslq_finds_relations_at_the_height_bound(degree, search):
    _relation_at_the_height_bound(degree, search, None)


@pytest.mark.parametrize("degree, search", _AT_THE_HEIGHT_BOUND)
def test_local_pslq_finds_relations_at_the_height_bound_without_guard_digits(degree, search):
    # exactly the 10 search + 40 digits find_minpoly searches that degree at
    _relation_at_the_height_bound(degree, search, 0)


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
    nonsquare_st,
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



noncube_st = st.integers(2, 30).filter(lambda r: round(r ** (1 / 3)) ** 3 != r)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.sampled_from([120, 160]),
    st.one_of(
        st.tuples(st.just("sqrt+cbrt"), nonsquare_st, noncube_st),
        st.tuples(st.just("cbrt of a surd"), st.integers(-9, 9), nonzero_st, nonsquare_st),
    ),
    st.integers(-5, 5),
)
def test_minpoly_below_an_overshooting_probe(digits, spec, s):
    # sqrt(a) + cbrt(b) + s and (a + b sqrt(c))^(1/3) + s have degree 6 or
    # less, so the galloping probe at 8 overshoots; its relation often
    # carries an extra factor, which find_minpoly splits off
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    if spec[0] == "sqrt+cbrt":
        x = ctx.sqrt(spec[1]) + ctx.cbrt(spec[2]) + s
    else:
        v = spec[1] + spec[2] * ctx.sqrt(spec[3])
        x = ctx.sign(v) * ctx.cbrt(abs(v)) + s
    assert find_minpoly(x, 8, prec=prec).coeffs == _findpoly(x, 8, prec)


def test_octic_needs_the_pinned_search_settings():
    # eq. (54) at (1,2,5): a degree-8 relation that mpmath's default of 100
    # PSLQ steps does not reach at 120 digits
    prec = PrecisionSpec(120)
    ctx = prec.context()
    x = drq_normalized(RQParams(1, 2, 5), ctx.exp(-ctx.pi), prec)
    assert find_minpoly(x, 8, prec=prec).coeffs == DERIV_POLY_125
    assert _findpoly(x, 8, prec) == DERIV_POLY_125
    assert ctx.findpoly(x, 8, maxcoeff=10**8 + 1) is None
