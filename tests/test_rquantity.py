"""Quotient quantities R, R*, tau, character products, and dR/dq."""

import time
from fractions import Fraction

import pytest

import qelliptic.rquantity
from qelliptic.numerics import CrossCheckFailure, DomainError, PrecisionSpec, cv
from qelliptic.rquantity import (
    Chi2Character,
    RQParams,
    _log_derivative,
    drq_dq,
    drq_normalized,
    rq,
    rq_charprod,
    rq_star,
    rq_theta,
    tau0,
    tau_star,
)

P50 = PrecisionSpec(50)


def test_rq_star_product_vs_theta_route():
    ctx = P50.context()
    params = RQParams(Fraction(1, 2), Fraction(3, 2), 4)
    a = rq_star(params, Fraction(1, 5), P50, route="product")
    b = rq_star(params, Fraction(1, 5), P50, route="theta")
    assert abs(a - b) < ctx.mpf(10) ** (-45)


def test_rq_matches_theta_quotient_form():
    ctx = P50.context()
    x = ctx.pi
    q = ctx.exp(-x)
    via_product = rq(RQParams(1, 2, 5), q, P50)
    via_theta = rq_theta(1, 2, 5, x, P50, route="theta")
    via_expsum = rq_theta(1, 2, 5, x, P50, route="expsum")
    assert abs(via_product - via_theta) < ctx.mpf(10) ** (-45)
    assert abs(via_product - via_expsum) < ctx.mpf(10) ** (-45)


def test_rq_theta_route_validation():
    with pytest.raises(DomainError):
        rq_theta(1, 2, 5, 3, P50, route="bogus")
    for route in ("theta", "expsum"):
        with pytest.raises(DomainError):
            rq_theta(-1, 2, 5, 3, P50, route=route)
        # a or b outside (0, p): the exp sum diverges there (10^6 terms,
        # 31 s, then NonConvergence) and the theta route fails its growth
        # guard
        started = time.perf_counter()
        for a, b in ((3, 1), (2, 1), (1, 3), (1, 2)):
            with pytest.raises(DomainError):
                rq_theta(a, b, 2, 1, PrecisionSpec(30), route=route)
        assert time.perf_counter() - started < 1


def test_character_product_equals_rq_star():
    ctx = P50.context()
    v1 = rq_charprod(1, 2, 5, Fraction(3, 20), P50)
    v2 = rq_star(RQParams(1, 2, 5), Fraction(3, 20), P50)
    assert abs(v1 - v2) < ctx.mpf(10) ** (-45)


def test_character_product_all_zero_pattern_is_exactly_one():
    # a == b, and a == p - b, cancel every exponent
    for a, b, p in ((2, 2, 5), (1, 4, 5)):
        assert all(Chi2Character(a, b, p).exponent(n) == 0 for n in range(p))
        assert rq_charprod(a, b, p, Fraction(1, 2), P50) == 1


def test_character_product_runs_past_zero_exponents():
    # exponents at n = 2, 3, 4 are all zero: three exact factors 1 in a row
    # must not stop the product
    ctx = P50.context()
    chi = Chi2Character(1, 5, 12)
    assert [chi.exponent(n) for n in (2, 3, 4)] == [0, 0, 0]
    q = Fraction(1, 2)
    v1 = rq_charprod(1, 5, 12, q, P50)
    v2 = rq_star(RQParams(1, 5, 12), q, P50, route="product")
    assert abs(v1 - v2) < ctx.mpf(10) ** (-50)


def test_character_exponent_pattern():
    chi = Chi2Character(1, 2, 5)
    assert [chi.exponent(n) for n in range(6)] == [0, 1, -1, -1, 1, 0]
    assert chi.exponent(6) == 1  # pattern has period 5
    # a = p - a doubles the contribution
    chi2 = Chi2Character(2, 1, 4)
    assert chi2.exponent(2) == 2
    assert chi2.exponent(1) == -1
    assert chi2.exponent(3) == -1
    assert chi2.values == {0: 0, 1: -1, 2: 2, 3: -1}


def test_character_domain():
    with pytest.raises(DomainError):
        Chi2Character(0, 1, 5)
    with pytest.raises(DomainError):
        Chi2Character(1, 5, 5)
    with pytest.raises(DomainError):
        Chi2Character(Fraction(1, 2), 1, 5)


def test_rqparams_positive_period():
    with pytest.raises(DomainError):
        RQParams(1, 2, 0)


def test_tau_star_reflection_symmetry():
    # tau*(a, p; q) = tau*(p - a, p; q)
    ctx = P50.context()
    a, p, q = Fraction(3, 10), 2, Fraction(1, 5)
    left = tau_star(a, p, q, P50)
    right = tau_star(p - a, p, q, P50)
    assert abs(left - right) < ctx.mpf(10) ** (-45)


def test_tau0_unit_periodicity():
    # tau0(a + 1, q) = tau0(a, q)
    ctx = P50.context()
    a, q = Fraction(3, 10), Fraction(1, 5)
    assert abs(tau0(a + 1, q, P50) - tau0(a, q, P50)) < ctx.mpf(10) ** (-45)


def test_tau_star_domain():
    with pytest.raises(DomainError):
        tau_star(Fraction(1, 2), 1, Fraction(3, 2), P50)


def test_drq_equal_exponents_vanish():
    assert drq_dq(RQParams(2, 2, 5), Fraction(1, 5), P50) == 0


def test_drq_passes_internal_central_difference():
    # drq_dq cross-checks its analytic value against a central difference
    # at raised precision and raises CrossCheckFailure on disagreement, so a
    # clean return certifies both routes.
    ctx = P50.context()
    v = drq_dq(RQParams(1, 2, 4), Fraction(1, 5), P50)
    assert ctx.isfinite(v)


def test_drq_raises_when_the_central_difference_disagrees(monkeypatch):
    # a wrong R only at the raised precision of the central difference: its
    # two calls read 10^-5 relative high, past the 10^-16 tolerance at 50
    # digits, while the analytic route's R stays right
    exact = qelliptic.rquantity.rq

    def skewed(params, q, prec):
        value = exact(params, q, prec)
        return value * (1 + prec.context().mpf(10) ** -5) if prec.digits > P50.digits else value

    monkeypatch.setattr(qelliptic.rquantity, "rq", skewed)
    with pytest.raises(CrossCheckFailure):
        drq_dq(RQParams(1, 2, 4), Fraction(1, 5), P50)


def test_drq_domain():
    with pytest.raises(DomainError):
        drq_dq(RQParams(1, 2, 5), Fraction(3, 2), P50)
    with pytest.raises(DomainError):
        drq_dq(RQParams(-1, 2, 5), Fraction(1, 5), P50)  # a outside (0, p)


def test_drq_normalized_octic_value():
    # q pi^2/K^2-normalized derivative of R(1,2,5;q) at q = e^(-pi) is the
    # algebraic number 0.23318... (a root of a degree-8 integer polynomial;
    # the recognition suite pins the polynomial itself)
    p = PrecisionSpec(60)
    ctx = p.context()
    q = ctx.exp(-ctx.pi)
    rho = drq_normalized(RQParams(1, 2, 5), q, p)
    ref = cv(ctx, "0.233180615907676532931907241202520808076943167")
    assert abs(rho - ref) < ctx.mpf(10) ** (-42)


def test_rq_at_q_zero():
    # the exponent -(a-b)/2 + (a^2-b^2)/(2p) is -1/5 for (2,1,5): R diverges
    with pytest.raises(DomainError):
        rq(RQParams(2, 1, 5), 0, PrecisionSpec(30))
    # and +1/5 for (1,2,5): R vanishes
    assert rq(RQParams(1, 2, 5), 0, PrecisionSpec(30)) == 0


@pytest.mark.parametrize("digits", [30, 60, 200])
def test_character_product_and_log_derivative_are_correctly_rounded(digits):
    # rq_charprod and drq_dq's R'/R in fixed-point integers, against the
    # same call at 2 digits + 30 on the same rounded inputs
    prec, hi = PrecisionSpec(digits), PrecisionSpec(2 * digits + 30)
    ctx = prec.context()
    nomes = (ctx.exp(-ctx.pi), cv(ctx, Fraction(1, 5)), cv(ctx, Fraction(1, 2)))
    for q in nomes + (cv(ctx, Fraction(-1, 2)), cv(ctx, Fraction(9, 10))):
        for a, b, p in ((1, 2, 5), (1, 5, 12), (1, 3, 4), (2, 3, 7)):
            ref = rq_charprod(a, b, p, q, hi)
            assert abs(rq_charprod(a, b, p, q, prec) - ref) <= abs(ref) * 2 ** (1 - ctx.prec)
    # R'/R as drq_dq sums it: C with a, p-a (+) and b, p-b (-); and the
    # agile derivative's (a, p) = (1, 4): e = -1/24 with 1, 3 (+)
    shapes = [(Fraction(-1, 24), ((1, 1), (3, 1)), 4)]
    for a, b, p in ((1, 2, 5), (1, 3, 8), (Fraction(1, 3), Fraction(5, 2), 3)):
        c = (a - b) * (a + b - p) / Fraction(2 * p)
        shapes.append((c, ((a, 1), (p - a, 1), (b, -1), (p - b, -1)), p))
    for q in nomes[:2]:  # nearer q = 1, C and the sum cancel to R'/R
        for c, signed, p in shapes:
            args = (c, [(cv(ctx, e), s) for e, s in signed], cv(ctx, p), q)
            ref = _log_derivative(hi.context(), *args)[0]
            assert abs(_log_derivative(ctx, *args)[0] - ref) <= abs(ref) * 2 ** (1 - ctx.prec)


@pytest.mark.parametrize("digits", [30, 60, 200])
def test_drq_keeps_relative_digits_where_the_bracket_cancels(digits):
    # at (1, 2, 5) and q = 9/10, R' = 3.1e-30 next to R = 0.59: C/q and the
    # sum cancel by about 29 digits, which the bracket's re-sum restores
    prec, hi = PrecisionSpec(digits), PrecisionSpec(2 * digits + 30)
    tol = hi.context().mpf(10) ** -(digits + prec.guard / 2)
    for args, q in (((1, 2, 5), Fraction(9, 10)), ((1, 3, 8), Fraction(9, 10)), ((1, 2, 4), Fraction(1, 5))):
        ref = drq_dq(RQParams(*args), q, hi)
        assert abs(drq_dq(RQParams(*args), q, prec) - ref) <= abs(ref) * tol
    # b = p - a: every term of the sum and C vanish, and the cap ends the re-sum
    assert drq_dq(RQParams(1, 4, 5), Fraction(1, 3), prec) == 0


def test_drq_sums_once_at_the_suites_nome(monkeypatch):
    # the suite and the recognition pool call drq_dq at q = e^-pi, at 40-200
    # digits and, for recompute, 30 digits more; the bracket loses under 2
    # digits there, so it is summed once
    calls = []
    log_derivative = qelliptic.rquantity._log_derivative

    def counting(*args):
        calls.append(1)
        return log_derivative(*args)

    monkeypatch.setattr(qelliptic.rquantity, "_log_derivative", counting)
    for digits in (40, 60, 120, 150, 200, 230):
        prec = PrecisionSpec(digits)
        ctx = prec.context()
        for args in ((1, 2, 4), (1, 2, 5), (1, 3, 6), (1, 3, 8)):
            calls.clear()
            drq_dq(RQParams(*args), ctx.exp(-ctx.pi), prec)
            assert len(calls) == 1
