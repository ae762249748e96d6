"""Theta functions, q-Pochhammer machinery, bilateral Gaussian sums.

Frozen decimals were produced by an independent implementation and pasted
here; route-vs-route tests need no external values at all.
"""

from fractions import Fraction
from functools import partial

import pytest

from qelliptic.numerics import DomainError, NonConvergence, PrecisionSpec, cv
from qelliptic.qfunctions import (
    INF,
    AgileParams,
    _theta_guard,
    agile,
    euler_f,
    hyperbolic_log_sum,
    pochhammer,
    psi_star,
    qpow,
    theta2,
    theta3,
    theta4,
    theta4_product,
    theta_sum_S,
    weber_phi,
)
from qelliptic.rquantity import RQParams, drq_dq, rq_theta

P60 = PrecisionSpec(60)


def _close(ctx, a, b, exp10=-45):
    return abs(a - b) < ctx.mpf(10) ** exp10


def test_qpow_exact_corner_cases():
    ctx = P60.context()
    assert qpow(ctx, 0, 0) == 1
    assert qpow(ctx, 0, 5) == 0
    assert _close(ctx, qpow(ctx, Fraction(1, 4), Fraction(1, 2)), ctx.mpf(1) / 2, -70)


def test_qpow_of_zero_needs_a_positive_real_part():
    ctx = P60.context()
    assert qpow(ctx, 0, ctx.mpc(0.25, 3)) == 0
    for x in (-1, Fraction(-1, 5), ctx.mpc(0, 1), ctx.mpc(-2, 1)):
        with pytest.raises(DomainError):
            qpow(ctx, 0, x)


def test_pochhammer_finite():
    ctx = P60.context()
    a, q = cv(ctx, Fraction(1, 3)), cv(ctx, Fraction(1, 7))
    manual = (1 - a) * (1 - a * q) * (1 - a * q * q)
    assert _close(ctx, pochhammer(Fraction(1, 3), Fraction(1, 7), 3, P60), manual, -70)
    assert pochhammer(Fraction(1, 3), Fraction(1, 7), 0, P60) == 1


def test_pochhammer_domain():
    with pytest.raises(DomainError):
        pochhammer(Fraction(1, 3), 2, INF, P60)  # |q| >= 1
    with pytest.raises(DomainError):
        pochhammer(Fraction(1, 3), Fraction(1, 7), -1, P60)


def test_pochhammer_accepts_float_infinity():
    ctx = P60.context()
    q = Fraction(1, 3)
    assert pochhammer(q, q, float("inf"), P60) == pochhammer(q, q, INF, P60)
    assert _close(ctx, pochhammer(q, q, float("inf"), P60), ctx.qp(cv(ctx, q)), -58)


def test_euler_f_frozen():
    p = PrecisionSpec(45)
    ctx = p.context()
    q = ctx.exp(-ctx.pi)
    assert _close(ctx, euler_f(q, p), cv(ctx, "0.954918789987674103751233978110291077632715374"), -43)
    q = ctx.exp(-2 * ctx.pi)
    assert _close(ctx, euler_f(q, p), cv(ctx, "0.998129069925958513279962322245273878130738435"), -43)


def test_weber_phi_frozen_and_euler_identity():
    p = PrecisionSpec(45)
    ctx = p.context()
    w = weber_phi(Fraction(1, 5), p)
    assert _close(ctx, w, cv(ctx, "1.26050080671010753238887315773910650660340949"), -43)
    # Euler: (-q; q)_inf * (q; q^2)_inf = 1
    qq = Fraction(1, 5)
    other = pochhammer(qq, qq * qq, INF, p)
    assert _close(ctx, w * other, 1, -43)


def test_theta3_frozen_real():
    p = PrecisionSpec(45)
    ctx = p.context()
    v = theta3(0, Fraction(3, 10), p)
    assert _close(ctx, v, cv(ctx, "1.61623937460951365802207791845386477486027086"), -43)


def test_theta3_complex_argument():
    p = PrecisionSpec(40)
    ctx = p.context()
    z = ctx.mpc(cv(ctx, Fraction(1, 5)), cv(ctx, Fraction(1, 10)))
    v = theta3(z, Fraction(3, 10), p)
    ref = ctx.mpc(
        cv(ctx, "1.575944813820448268919723977857657039588"),
        cv(ctx, "-0.05183914835187153488212647108903344901139"),
    )
    assert abs(v - ref) < ctx.mpf(10) ** (-38)


def test_theta4_series_vs_product():
    ctx = P60.context()
    z, q = Fraction(3, 10), Fraction(1, 4)
    a = theta4(z, q, P60)
    b = theta4_product(z, q, P60)
    assert _close(ctx, a, b, -55)
    assert _close(ctx, a, cv(ctx, "0.590164845573054655435839779068649589807899925"), -43)


def test_theta2_frozen():
    p = PrecisionSpec(45)
    ctx = p.context()
    v = theta2(Fraction(1, 5), p)
    assert _close(ctx, v, cv(ctx, "1.39106543858832939481476315485543267629360539"), -43)


def test_jacobi_quartic_identity():
    # theta2^4 + theta4^4 = theta3^4 at z = 0
    ctx = P60.context()
    q = Fraction(1, 5)
    lhs = theta2(q, P60) ** 4 + theta4(0, q, P60) ** 4
    rhs = theta3(0, q, P60) ** 4
    assert _close(ctx, lhs, rhs, -55)


def test_theta_growth_guard():
    with pytest.raises(DomainError):
        theta3(0, 2, P60)
    ctx = P60.context()
    z_bad = ctx.mpc(0, 10)  # |q| e^(2*10) >> 1
    with pytest.raises(NonConvergence):
        theta3(z_bad, Fraction(3, 10), P60)


@pytest.mark.parametrize("digits", [30, 200])
def test_theta_growth_guard_boundary(digits):
    # the guard reads L from a 53-bit ln|q| and runs the working-precision
    # test only near the boundary; it must raise exactly where that test
    # alone says |q| e^(2|Im z|) >= 1, a few ulps either side included
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    for q in (Fraction(3, 10), Fraction(-1, 2), Fraction(1, 10**100), 1 - Fraction(1, 10**30)):
        qa = abs(cv(ctx, q))
        edge = -ctx.log(qa) / 2
        for rel in (0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9):
            for ulps in range(-4, 5):
                t = edge * (1 + rel) + ulps * ctx.ldexp(edge, -ctx.prec)
                for z in (ctx.mpc(cv(ctx, Fraction(1, 3)), t), ctx.mpc(0, -t)):
                    if qa * ctx.exp(2 * t) >= 1:
                        with pytest.raises(NonConvergence):
                            _theta_guard(ctx, z, q)
                    else:
                        assert _theta_guard(ctx, z, q)[2] == pytest.approx(float(2 * edge))


def test_theta_sum_S_values():
    p = PrecisionSpec(45)
    ctx = p.context()
    # z = 0 reduces to theta3(0, q)
    v0 = theta_sum_S(0, Fraction(1, 10), p)
    assert _close(ctx, v0, cv(ctx, "1.200200002000000200000000200000000002"), -40)
    # z = 1/2 frozen
    vh = theta_sum_S(Fraction(1, 2), Fraction(3, 20), p)
    assert _close(ctx, vh, cv(ctx, "1.44884468628564499046232248780704794641734474"), -43)
    assert theta_sum_S(Fraction(1, 2), 0, p) == 1


def test_agile_product_vs_theta_routes():
    ctx = P60.context()
    params = AgileParams(Fraction(2, 3), Fraction(5, 2))
    q = Fraction(1, 6)
    a = agile(params, q, P60, route="product")
    b = agile(params, q, P60, route="theta")
    assert _close(ctx, a, b, -55)
    # auto-select matches both
    assert _close(ctx, agile(params, q, P60), a, -55)


def test_agile_euler_form():
    # [1,2;q] = ((q; q^2)_inf)^2 = (f(q)/f(q^2))^2
    ctx = P60.context()
    q = Fraction(1, 7)
    lhs = agile(AgileParams(1, 2), q, P60)
    rhs = (euler_f(q, P60) / euler_f(Fraction(1, 49), P60)) ** 2
    assert _close(ctx, lhs, rhs, -55)


def test_agile_complex_exponent_uses_theta():
    ctx = P60.context()
    a = ctx.mpc(cv(ctx, Fraction(-1, 2)), cv(ctx, Fraction(1, 3)))
    params = AgileParams(a, 2)
    v_auto = agile(params, Fraction(1, 6), P60)
    v_theta = agile(params, Fraction(1, 6), P60, route="theta")
    assert abs(v_auto - v_theta) == 0
    with pytest.raises(DomainError):
        agile(params, Fraction(1, 6), P60, route="product")


def test_agile_route_validation():
    with pytest.raises(DomainError):
        agile(AgileParams(1, 2), Fraction(1, 6), P60, route="nonsense")
    with pytest.raises(DomainError):
        AgileParams(1, -2)


def test_psi_star_routes_agree():
    ctx = P60.context()
    a, p, q = Fraction(1, 3), 2, Fraction(3, 20)
    s = psi_star(a, p, q, P60, route="sum")
    pr = psi_star(a, p, q, P60, route="product")
    assert _close(ctx, s, pr, -55)
    assert psi_star(a, p, 0, P60) == 1
    with pytest.raises(DomainError):
        psi_star(a, p, q, P60, route="nope")
    with pytest.raises(DomainError):
        psi_star(5, 2, q, P60, route="product")  # Re(a) outside (0, p)


def test_hyperbolic_log_sum_frozen():
    p = PrecisionSpec(45)
    ctx = p.context()
    v = hyperbolic_log_sum(0, 2, p)
    assert _close(ctx, v, cv(ctx, "0.00373839017833989101418313945295138797623646579"), -43)


def test_hyperbolic_log_sum_domain():
    with pytest.raises(DomainError):
        hyperbolic_log_sum(0, -1, P60)
    with pytest.raises(DomainError):
        hyperbolic_log_sum(4, 2, P60)  # |t| >= pi a / 2 would diverge


def _transcendental_calls(monkeypatch, digits):
    """exp and log calls on the context of PrecisionSpec(digits) made by the
    series engines that walk their terms by multiplication."""
    prec = PrecisionSpec(digits)
    ctx = prec.context()
    calls = {"exp": 0, "log": 0}
    for name in calls:
        original = getattr(ctx, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ctx, name, counted)
    theta_sum_S(ctx.mpc(1, 1) / 3, Fraction(1, 5), prec)
    psi_star(Fraction(2, 3), 3, Fraction(1, 4), prec)
    agile(AgileParams(ctx.mpc(1, 1), 3), Fraction(1, 4), prec, route="theta")
    rq_theta(1, 2, 5, Fraction(3, 2), prec, route="expsum")
    hyperbolic_log_sum(Fraction(1, 2), 1, prec)
    drq_dq(RQParams(1, 2, 5), Fraction(1, 5), prec)
    monkeypatch.undo()
    return calls


def test_exp_and_log_calls_do_not_grow_with_precision(monkeypatch):
    # a series loop that called exp per term would make these counts grow
    # with the number of terms, i.e. with the digits
    assert _transcendental_calls(monkeypatch, 200) == _transcendental_calls(monkeypatch, 40)


def test_qpow_integer_exponents_multiply_out():
    ctx = P60.context()
    hi = PrecisionSpec(120).context()
    for q in (cv(ctx, Fraction(3, 7)), cv(ctx, Fraction(-2, 3)), ctx.mpc(0.3, -0.4)):
        for n in (2, -3, 17):
            for x in (n, Fraction(n, 1), ctx.mpf(n)):
                assert qpow(ctx, q, x) == q**n
            ref = hi.convert(q) ** n
            assert abs(qpow(ctx, q, n) - ref) <= abs(ref) * 2 ** (1 - ctx.prec)
    assert isinstance(qpow(ctx, Fraction(-2, 3), 5), ctx.mpf)
    q, x = cv(ctx, Fraction(3, 7)), cv(ctx, Fraction(5, 2))
    assert qpow(ctx, q, x) == ctx.exp(x * ctx.log(q))
    assert qpow(ctx, q, ctx.mpc(2, 1)) == ctx.exp(ctx.mpc(2, 1) * ctx.log(q))


@pytest.mark.parametrize("digits", [60, 200])
def test_real_bilateral_sums_are_correctly_rounded(digits):
    # the fixed-point route against the same call at 2 digits + 30 on the
    # same rounded inputs; shifts up to z = 15 put the peak far from n = 0,
    # and complex shifts, complex a and complex z run on the (re, im) pair
    prec, hi = PrecisionSpec(digits), PrecisionSpec(2 * digits + 30)
    ctx = prec.context()

    def c(re, im):
        return ctx.mpc(cv(ctx, re), cv(ctx, im))

    for q in (Fraction(1, 100), Fraction(3, 20), Fraction(1, 2), Fraction(9, 10)):
        q = cv(ctx, q)
        shifts = (0, Fraction(1, 3), 7.5, 15, -15)
        shifts += (c(Fraction(1, 3), Fraction(1, 2)), c(-15, 3), c(Fraction(7, 2), -40))
        calls = [partial(theta_sum_S, cv(ctx, z), q) for z in shifts]
        psi_args = ((Fraction(1, 3), 2), (Fraction(-29, 2), 1), (15, 3))
        psi_args += ((c(Fraction(1, 3), 1), 2), (c(Fraction(-29, 2), Fraction(-7, 3)), 1))
        for a, p in psi_args:
            calls.append(partial(psi_star, cv(ctx, a), p, q))
        # p - 2a is formed exactly, so a rounded real a costs no rounding at p != 1
        for a in (Fraction(1, 3), Fraction(-29, 4)):
            for p in (1, Fraction(5, 2)):
                calls.append(partial(agile, AgileParams(cv(ctx, a), p), q, route="theta"))
        for a in (c(Fraction(1, 3), 1), c(2, Fraction(1, 100))):
            for p in (1, Fraction(5, 2)):
                calls.append(partial(agile, AgileParams(a, p), q, route="theta"))
        # p != 1: (q^p; q^p)_inf amplifies the rounding of q^p, at q = 9/10
        # and p = 1/50 by about 4e5
        for a, p in ((1, 4), (Fraction(-7, 2), 2), (Fraction(3, 350), Fraction(1, 50))):
            calls.append(partial(agile, AgileParams(a, p), q, route="theta"))
        calls.append(partial(theta2, q))
        # 2|Im z| = |ln q| / 4, inside the growth guard, where the sums do not cancel
        z = c(Fraction(1, 3), -ctx.log(q) / 8)
        calls += [partial(theta3, z, q), partial(theta4, z, q)]
        # a large real z, whose cosine needs pi/2 to more than the working bits
        calls += [partial(theta3, cv(ctx, 2**40), q), partial(theta4, cv(ctx, 2**40), q)]
        for call in calls:
            ref = call(hi)
            assert ref != 0
            assert abs(call(prec) - ref) <= abs(ref) * 2 ** (1 - ctx.prec)


@pytest.mark.parametrize("digits", [30, 60, 200])
def test_integer_products_and_sums_are_correctly_rounded(digits):
    # theta4_product at real and complex z, pochhammer at real |a| >= 1 and
    # hyperbolic_log_sum, in fixed-point integers, against the same call at
    # 2 digits + 30 on the same rounded inputs
    prec, hi = PrecisionSpec(digits), PrecisionSpec(2 * digits + 30)
    ctx = prec.context()

    def c(re, im):
        return ctx.mpc(cv(ctx, re), cv(ctx, im))

    calls = []
    for q in (cv(ctx, Fraction(1, 5)), cv(ctx, Fraction(-3, 10)), cv(ctx, Fraction(9, 10))):
        L = -ctx.log(abs(q))  # |Im z| < L / 2 by the growth guard
        for z in (0, cv(ctx, Fraction(3, 10)), c(Fraction(1, 10), L / 5), c(7, -3 * L / 8)):
            calls.append(partial(theta4_product, z, q))
        for a in (Fraction(11, 10), Fraction(3, 2), 5, -3, Fraction(-7, 2), 1000):
            calls.append(partial(pochhammer, cv(ctx, a), q, INF))
    for t, a in ((0, 2), (Fraction(1, 2), 1), (1, 3), (Fraction(-3, 10), Fraction(1, 2)), (1, 40)):
        calls.append(partial(hyperbolic_log_sum, cv(ctx, t), cv(ctx, a)))
    for call in calls:
        ref = call(hi)
        assert ref != 0
        assert abs(call(prec) - ref) <= abs(ref) * 2 ** (1 - ctx.prec)


@pytest.mark.parametrize("digits", [30, 200])
def test_integer_products_keep_relative_digits_when_tiny(digits):
    # partial products fall to 1e-105 and -3e-103 at q = 99/100: the integer
    # product carries a binary exponent, so the relative error stays within
    # 2 ulps of the same call at 2 digits + 30
    prec, hi = PrecisionSpec(digits), PrecisionSpec(2 * digits + 30)
    ctx = prec.context()
    q = cv(ctx, Fraction(99, 100))
    for call in (partial(theta4_product, 0, q), partial(pochhammer, cv(ctx, 1.5), q, INF)):
        ref = call(hi)
        assert 0 < abs(ref) < 1e-100
        assert abs(call(prec) - ref) <= abs(ref) * 2 ** (1 - ctx.prec)
