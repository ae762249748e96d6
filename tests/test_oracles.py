"""The theta series and bilateral Gaussian sums against mpmath's jtheta.

Inputs are drawn by Hypothesis with a fixed derandomized seed, so every run
tests the same points.  Each value must agree with jtheta, computed 20 digits
deeper, to 10^-digits relative.
"""

from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from qelliptic.numerics import PrecisionSpec
from qelliptic.qfunctions import theta2, theta3, theta4, theta_sum_S

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

digits_st = st.sampled_from([20, 40, 60])
q_st = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 2), max_denominator=1000)
real_st = st.fractions(min_value=-2, max_value=2, max_denominator=100)
# |Im z| <= 1/3 keeps |q| e^(2|Im z|) below 1 for every q drawn above
imag_st = st.fractions(min_value=Fraction(-1, 3), max_value=Fraction(1, 3), max_denominator=100)


def _oracle(digits):
    ctx = mpmath.mp.__class__()
    ctx.dps = digits + 20
    return ctx


def _agree(ctx, value, reference, digits):
    return abs(value - reference) <= ctx.mpf(10) ** (-digits) * max(1, abs(reference))


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
