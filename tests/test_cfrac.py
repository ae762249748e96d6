"""Continued-fraction evaluator and the named fractions."""

import dataclasses
from fractions import Fraction

import mpmath
import pytest

from qelliptic import cfrac
from qelliptic.cfrac import (
    ContinuedFraction,
    eval_cf,
    h_cf,
    m_cf,
    m_series,
    p_cf,
    r1_cf,
    r2_cf,
    r3_cf,
    rr_cf,
)
from qelliptic.numerics import (
    CrossCheckFailure,
    DomainError,
    NonConvergence,
    PrecisionSpec,
    cv,
)
from qelliptic.qfunctions import INF, pochhammer

P60 = PrecisionSpec(60)


def test_eval_cf_golden_ratio():
    ctx = P60.context()
    cf = ContinuedFraction(b0=1, partial_num=lambda n: 1, partial_den=lambda n: 1)
    phi = (1 + ctx.sqrt(5)) / 2
    assert abs(eval_cf(cf, P60) - phi) < ctx.mpf(10) ** (-58)


def test_eval_cf_exact_termination():
    # numerator hits exact zero at level 3: value is exactly 1/(1 + 1/1) = 1/2,
    # for items in ctx's numbers and in fixed point
    for one, wp in ((1, None), (1 << 300, 300)):
        cf = ContinuedFraction(
            b0=0,
            partial_num=lambda n, one=one: one if n < 3 else 0,
            partial_den=lambda n, one=one: one,
            wp=wp,
        )
        v = eval_cf(cf, P60)
        assert v == 0.5


def test_eval_cf_nonconvergence_budget(monkeypatch):
    monkeypatch.setattr(cfrac, "MAX_LEVELS", 10)
    cf = ContinuedFraction(b0=1, partial_num=lambda n: 1, partial_den=lambda n: 1)
    with pytest.raises(NonConvergence):
        eval_cf(cf, P60)


def test_rr_cf_depth_follows_convergence(monkeypatch):
    # At q = e^(-pi) the approximants close in like q^(n(n-1)/2), so about a
    # dozen levels reach 60 digits; both passes together stay far below 100.
    requested = []
    evaluate = cfrac.eval_cf

    def counting_eval_cf(cf, prec):
        def partial_num(n):
            requested.append(n)
            return cf.partial_num(n)

        return evaluate(dataclasses.replace(cf, partial_num=partial_num), prec)

    monkeypatch.setattr(cfrac, "eval_cf", counting_eval_cf)
    ctx = P60.context()
    q = ctx.exp(-ctx.pi)
    v = rr_cf(q, P60)
    q5 = q**5
    bare = ctx.qp(q, q5) * ctx.qp(q**4, q5) / (ctx.qp(q**2, q5) * ctx.qp(q**3, q5))
    assert abs(v - bare) < ctx.mpf(10) ** (-58)
    assert len(requested) < 60


def test_eval_cf_backward_pass_is_compared(monkeypatch):
    # The backward pass reuses the forward pass's terms, so a disagreement
    # can only come from the forward arithmetic: a forward product off by
    # 1e-20 relative must be caught at 60 digits.
    settle = cfrac._settle

    def off_settle(*args, **kwargs):
        value = settle(*args, **kwargs)
        return value + value * 1e-20

    monkeypatch.setattr(cfrac, "_settle", off_settle)
    cf = ContinuedFraction(b0=1, partial_num=lambda n: 1, partial_den=lambda n: 1)
    with pytest.raises(CrossCheckFailure):
        eval_cf(cf, P60)


def test_eval_cf_fixed_backward_pass_is_compared(monkeypatch):
    # the same for items in fixed point: a forward total off by 2^-66
    # (1.4e-20) relative must be caught at 60 digits
    settle = cfrac._settle

    def off_settle(*args, **kwargs):
        total, lost = settle(*args, **kwargs)
        return total + (total >> 66), lost

    monkeypatch.setattr(cfrac, "_settle", off_settle)
    one = 1 << 300
    cf = ContinuedFraction(b0=one, partial_num=lambda n: one, partial_den=lambda n: one, wp=300)
    with pytest.raises(CrossCheckFailure):
        eval_cf(cf, P60)


def test_eval_cf_requests_each_term_once():
    # the backward pass reads the forward pass's a_n and b_n for n <= depth
    # and requests only the deeper ones, each once, for items in ctx's
    # numbers and in fixed point
    ctx = P60.context()
    for one, wp in ((1, None), (1 << 300, 300)):
        requested = {"num": [], "den": []}

        def partial(kind, one=one, requested=requested):
            def term(n):
                requested[kind].append(n)
                return one

            return term

        cf = ContinuedFraction(b0=one, partial_num=partial("num"), partial_den=partial("den"), wp=wp)
        assert abs(eval_cf(cf, P60) - (1 + ctx.sqrt(5)) / 2) < ctx.mpf(10) ** (-60)
        for seen in requested.values():
            assert sorted(seen) == list(range(1, len(seen) + 1))


def test_rr_cf_frozen_at_inverse_e():
    ctx = P60.context()
    q = ctx.exp(ctx.mpf(-1))
    v = rr_cf(q, P60)
    ref = cv(ctx, "0.754240064263667293245980937109193226967960138")
    assert abs(v - ref) < ctx.mpf(10) ** (-44)


def test_rr_cf_equals_quintic_product():
    # 1/(1 + q/(1 + q^2/...)) = (q; q^5)(q^4; q^5) / ((q^2; q^5)(q^3; q^5))
    ctx = P60.context()
    q = Fraction(1, 5)
    lhs = rr_cf(q, P60)
    q5 = Fraction(1, 5) ** 5
    rhs = (
        pochhammer(q, q5, INF, P60)
        * pochhammer(q**4, q5, INF, P60)
        / (pochhammer(q**2, q5, INF, P60) * pochhammer(q**3, q5, INF, P60))
    )
    assert abs(lhs - rhs) < ctx.mpf(10) ** (-55)


def test_r1_frozen_closed_form():
    # q^(1/5) * bare fraction at q = e^(-2 pi) equals sqrt(phi sqrt(5)) - phi
    ctx = P60.context()
    q = ctx.exp(-2 * ctx.pi)
    v = r1_cf(q, P60)
    ref = cv(ctx, "0.284079043840412296028291832393126169091088088")
    assert abs(v - ref) < ctx.mpf(10) ** (-44)
    phi = (1 + ctx.sqrt(5)) / 2
    assert abs(v - (ctx.sqrt(phi * ctx.sqrt(5)) - phi)) < ctx.mpf(10) ** (-58)


def test_domain_checks():
    for fn in (rr_cf, r1_cf, r2_cf, r3_cf, h_cf):
        with pytest.raises(DomainError):
            fn(Fraction(3, 2), P60)
        with pytest.raises(DomainError):
            fn(0, P60)


def test_r2_r3_precision_consistency():
    # same value at 40 and 70 digits: the evaluator's settle logic is honest
    p40, p70 = PrecisionSpec(40), PrecisionSpec(70)
    ctx = p70.context()
    for fn in (r2_cf, r3_cf):
        lo = fn(Fraction(1, 10), p40)
        hi = fn(Fraction(1, 10), p70)
        assert abs(cv(ctx, lo) - hi) < ctx.mpf(10) ** (-38)
        assert 0 < hi < 1


def test_h_is_r3():
    ctx = P60.context()
    assert abs(h_cf(Fraction(1, 7), P60) - r3_cf(Fraction(1, 7), P60)) == 0


def test_m_series_frozen_triangular():
    p = PrecisionSpec(45)
    ctx = p.context()
    v = m_series(1, Fraction(1, 10), p)
    ref = cv(ctx, "1.101001000100001000001000000100000001")
    assert abs(v - ref) < ctx.mpf(10) ** (-36)


def test_m_series_large_c_still_converges():
    # quadratic exponent dominates any fixed c
    ctx = P60.context()
    v = m_series(1000, Fraction(1, 10), P60)
    assert ctx.isfinite(v)


def test_m_cf_matches_series():
    ctx = P60.context()
    for c, q in ((Fraction(1, 2), Fraction(1, 5)), (1, Fraction(1, 10)), (Fraction(-3, 4), Fraction(3, 10))):
        s = m_series(c, q, P60)
        f = m_cf(c, q, P60)
        assert abs(s - f) < ctx.mpf(10) ** (-55), f"c={c} q={q}"


def test_m_domain():
    with pytest.raises(DomainError):
        m_series(1, 2, P60)
    with pytest.raises(DomainError):
        m_cf(1, Fraction(3, 2), P60)


def test_p_cf_degenerate_is_exact_one():
    v = p_cf(0, 0, Fraction(1, 10), P60)
    assert v == 1


def test_p_cf_product_identity():
    # P(a,b,q) = (a^2 q^3; q^4)(b^2 q^3; q^4) / ((a^2 q; q^4)(b^2 q; q^4))
    ctx = P60.context()
    a, b, q = Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)
    lhs = p_cf(a, b, q, P60)
    q4 = q**4
    rhs = (
        pochhammer(a * a * q**3, q4, INF, P60)
        * pochhammer(b * b * q**3, q4, INF, P60)
        / (
            pochhammer(a * a * q, q4, INF, P60)
            * pochhammer(b * b * q, q4, INF, P60)
        )
    )
    assert abs(lhs - rhs) < ctx.mpf(10) ** (-55)


@pytest.mark.parametrize("q", [Fraction(9, 10), Fraction(97, 100)])
def test_p_cf_near_its_q_bound_matches_qp(q):
    # slow convergence: the forward pass runs to depth 10^2..10^3 here
    ctx = P60.context()
    a = b = cv(ctx, Fraction(9, 10))
    qv = cv(ctx, q)
    q4 = qv**4
    product = (
        ctx.qp(a * a * qv**3, q4) * ctx.qp(b * b * qv**3, q4)
        / (ctx.qp(a * a * qv, q4) * ctx.qp(b * b * qv, q4))
    )
    assert abs(p_cf(a, b, qv, P60) - product) < ctx.mpf(10) ** (-55) * abs(product)


@pytest.mark.parametrize("digits", [40, 60])
def test_p_cf_settles_near_unit_ab(digits):
    # ab = 0.998: a forward pass in ctx's numbers stalls with its Lentz
    # ratios at |r - 1| = 1.02e-53, just above eps = 1.0e-53 at 40 digits,
    # and raises NonConvergence after 4.8 s
    ctx = mpmath.mp.__class__()
    ctx.dps = digits + 20
    a = b = ctx.mpf(999) / 1000
    q = ctx.mpf(1) / 2
    q4 = q**4
    product = (
        ctx.qp(a * a * q**3, q4) * ctx.qp(b * b * q**3, q4)
        / (ctx.qp(a * a * q, q4) * ctx.qp(b * b * q, q4))
    )
    value = p_cf(Fraction(999, 1000), Fraction(999, 1000), Fraction(1, 2), PrecisionSpec(digits))
    assert abs(value - product) < ctx.mpf(10) ** (-digits) * abs(product)
    # an mpc with zero imaginary part takes the real pass, not the stalling one
    args = (Fraction(999, 1000), Fraction(1, 2), PrecisionSpec(digits))
    assert p_cf(mpmath.mpc(0.999, 0), *args) == p_cf(0.999, *args)


def test_p_cf_domain():
    with pytest.raises(DomainError):
        p_cf(2, 1, Fraction(1, 10), P60)  # |ab| >= 1
    with pytest.raises(DomainError):
        p_cf(Fraction(1, 3), Fraction(1, 4), 1, P60)


def test_real_fractions_accept_an_mpc_with_zero_imaginary_part():
    ctx = P60.context()
    fractions = (rr_cf, r1_cf, r2_cf, r3_cf, h_cf, lambda q, p: m_cf(1, q, p))
    for fn in fractions:
        assert fn(ctx.mpc(0.5, 0), P60) == fn(0.5, P60)
        with pytest.raises(DomainError):
            fn(ctx.mpc(0.5, 0.1), P60)
