"""Continued fractions: a generic evaluator (modified Lentz forward pass,
confirmed by a backward recurrence from deeper truncation) plus constructors
for the named fractions used elsewhere: the Rogers-Ramanujan fraction R and
its prefactored variant R1, the cubic-type R2, the octic-type R3 (same
fraction as H), the M fraction with its series twin, and the two-parameter
P fraction.

Notation: value = b0 + a1/(b1 + a2/(b2 + a3/(b3 + ...))).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .numerics import (
    CrossCheckFailure,
    DomainError,
    PrecisionSpec,
    _resummed,
    _settle,
    cv,
)
from .qfunctions import _qpowers, qpow

# Levels of the forward pass before ``eval_cf`` declares divergence.
MAX_LEVELS = 100_000


@dataclass(frozen=True)
class ContinuedFraction:
    """b0 plus partial numerators a_n and denominators b_n for n >= 1.

    A partial numerator that is exactly zero terminates the fraction exactly
    at that depth; that is normal, not an error.
    """

    b0: object
    partial_num: Callable[[int], object]
    partial_den: Callable[[int], object]


def eval_cf(cf: ContinuedFraction, prec: PrecisionSpec):
    """Evaluate a continued fraction to the requested precision.

    Modified Lentz with a tiny-value floor of 10^(-digits-guard-10).  Its
    ratios C_n D_n of consecutive approximants tend to 1, so the forward pass
    stops by the factor rule of ``numerics._settle``; it is then re-confirmed
    by a backward recurrence from twice the depth where it settled, which
    reuses the a_n and b_n of the forward pass and requests only deeper
    ones.  Disagreement between the two routes raises CrossCheckFailure;
    ``MAX_LEVELS`` levels without settling raise NonConvergence.
    """
    ctx = prec.context()
    tiny = ctx.mpf(10) ** (-(prec.digits + prec.guard + 10))
    tol = ctx.mpf(10) ** (-(prec.digits + 2))
    b0 = cv(ctx, cf.b0)
    f0 = b0 if b0 != 0 else tiny
    nums, dens = [None], [None]  # a_n and b_n for n >= 1, kept for the backward pass
    exact = False

    def lentz_ratios():
        nonlocal exact
        c_acc, d_acc = f0, ctx.mpf(0)
        for n in itertools.count(1):
            a = cv(ctx, cf.partial_num(n))
            if a == 0:
                exact = True  # tail is exactly zero from here on
                return
            b = cv(ctx, cf.partial_den(n))
            nums.append(a)
            dens.append(b)
            d_acc = b + a * d_acc
            if d_acc == 0:
                d_acc = tiny
            c_acc = b + a / c_acc
            if c_acc == 0:
                c_acc = tiny
            d_acc = 1 / d_acc
            yield c_acc * d_acc

    f = f0 * _settle(
        ctx, prec.work_eps(ctx), lentz_ratios(), product=True, max_terms=MAX_LEVELS
    )

    # Independent confirmation: plain backward recurrence from deeper down,
    # reusing the forward pass's a_j and b_j for j <= depth.
    if not exact:
        depth = len(nums) - 1
        for j in range(depth + 1, 2 * depth + 1):
            nums.append(cv(ctx, cf.partial_num(j)))
            dens.append(cv(ctx, cf.partial_den(j)))
    tail = ctx.mpf(0)
    for j in range(len(nums) - 1, 0, -1):
        den = dens[j] + tail
        if den == 0:
            den = tiny
        tail = nums[j] / den
    back = b0 + tail

    if exact:
        return back  # finite fraction: the backward pass is exact
    if abs(back - f) > 100 * tol * max(ctx.mpf(1), abs(back)):
        raise CrossCheckFailure(
            f"forward Lentz gave {f} but backward recurrence gave {back}"
        )
    return back


def _real_q(ctx, q):
    q = cv(ctx, q)
    if ctx.im(q) != 0 or not (0 < q < 1):
        raise DomainError(f"this fraction is evaluated for real q in (0, 1), got {q}")
    return q


def rr_cf(q, prec: PrecisionSpec):
    """Rogers-Ramanujan fraction without prefactor:
    1/(1 + q/(1 + q^2/(1 + q^3/(1 + ...))))."""
    ctx = prec.context()
    q = _real_q(ctx, q)
    power = _qpowers(ctx, q)
    cf = ContinuedFraction(
        b0=0,
        partial_num=lambda n: 1 if n == 1 else power(n - 1),
        partial_den=lambda n: 1,
    )
    return eval_cf(cf, prec)


def r1_cf(q, prec: PrecisionSpec):
    """q^(1/5) times the Rogers-Ramanujan fraction."""
    ctx = prec.context()
    q = _real_q(ctx, q)
    return qpow(ctx, q, Fraction(1, 5)) * rr_cf(q, prec)


def r2_cf(q, prec: PrecisionSpec):
    """q^(1/3)/(1 + (q+q^2)/(1 + (q^2+q^4)/(1 + (q^3+q^6)/(1 + ...))))."""
    ctx = prec.context()
    q = _real_q(ctx, q)
    power = _qpowers(ctx, q)

    def a_n(n: int):
        if n == 1:
            return 1
        m = n - 1
        return power(m) + power(2 * m)

    cf = ContinuedFraction(b0=0, partial_num=a_n, partial_den=lambda n: 1)
    return qpow(ctx, q, Fraction(1, 3)) * eval_cf(cf, prec)


def r3_cf(q, prec: PrecisionSpec):
    """q^(1/2)/((1+q) + q^2/((1+q^3) + q^4/((1+q^5) + ...))).

    Partial numerators q^(2(n-1)), denominators 1 + q^(2n-1).
    """
    ctx = prec.context()
    q = _real_q(ctx, q)
    power = _qpowers(ctx, q)
    cf = ContinuedFraction(
        b0=0,
        partial_num=lambda n: 1 if n == 1 else power(2 * (n - 1)),
        partial_den=lambda n: 1 + power(2 * n - 1),
    )
    return qpow(ctx, q, Fraction(1, 2)) * eval_cf(cf, prec)


def h_cf(q, prec: PrecisionSpec):
    """The H fraction; identical in shape to r3_cf."""
    return r3_cf(q, prec)


def m_series(c, q, prec: PrecisionSpec):
    """M(c, q) = sum_{n>=0} c^n q^(n(n+1)/2); converges for every c when
    |q| < 1 because the quadratic exponent eventually dominates.  Re-summed
    while its terms cancel, by 56 digits at c = -5, q = 0.99."""

    def summed(p: PrecisionSpec):
        ctx = p.context()
        cc, qq = cv(ctx, c), cv(ctx, q)
        if abs(qq) >= 1:
            raise DomainError(f"M(c, q) needs |q| < 1, got |q| = {abs(qq)}")

        def terms():
            term = ctx.mpf(1)
            # term ratio from n-1 to n is c*q^n, so update it incrementally
            ratio = cc * qq
            while True:
                yield term
                term = term * ratio
                ratio = ratio * qq

        return _settle(ctx, p.work_eps(ctx), terms())

    return _resummed(prec, summed)


def m_cf(c, q, prec: PrecisionSpec):
    """The alternating-sign fraction for M(c, q):

    1/(1 - cq/(1 + c(q-q^2)/(1 - cq^3/(1 + c(q^2-q^4)/(1 - ...))))).

    Folding the signs into the numerators: all denominators 1, and for j >= 1
    a_{2j} = -c q^(2j-1), a_{2j+1} = c (q^j - q^(2j)).  Checked against
    m_series inside its empirical convergence region by the suite.
    """
    ctx = prec.context()
    c = cv(ctx, c)
    q = cv(ctx, q)
    if ctx.im(c) != 0 or ctx.im(q) != 0:
        raise DomainError("the M fraction is evaluated for real c and q")
    if not (0 < q < 1):
        raise DomainError(f"the M fraction needs real q in (0, 1), got {q}")
    power = _qpowers(ctx, q)

    def a_n(n: int):
        if n == 1:
            return 1
        if n % 2 == 0:
            j = n // 2
            return -c * power(2 * j - 1)
        j = (n - 1) // 2
        return c * (power(j) - power(2 * j))

    cf = ContinuedFraction(b0=0, partial_num=a_n, partial_den=lambda n: 1)
    return eval_cf(cf, prec)


def p_cf(a, b, q, prec: PrecisionSpec):
    """Two-parameter fraction

    1/((1-ab) + (a-bq)(b-aq)/((1-ab)(q^2+1) + (a-bq^3)(b-aq^3)/(...)))

    with general level n >= 2: partial numerator (a - b q^(2n-3))(b - a q^(2n-3))
    and partial denominator (1-ab)(q^(2n-2) + 1).  Equals
    (a^2 q^3; q^4)(b^2 q^3; q^4) / ((a^2 q; q^4)(b^2 q; q^4)) in the suite's
    cross-check.
    """
    ctx = prec.context()
    a = cv(ctx, a)
    b = cv(ctx, b)
    q = cv(ctx, q)
    if abs(q) >= 1:
        raise DomainError(f"P(a, b, q) needs |q| < 1, got |q| = {abs(q)}")
    if abs(a * b) >= 1:
        raise DomainError(f"P(a, b, q) needs |ab| < 1, got |ab| = {abs(a * b)}")
    power = _qpowers(ctx, q)

    def a_n(n: int):
        if n == 1:
            return 1
        qe = power(2 * n - 3)
        return (a - b * qe) * (b - a * qe)

    def b_n(n: int):
        if n == 1:
            return 1 - a * b
        return (1 - a * b) * (power(2 * n - 2) + 1)

    cf = ContinuedFraction(b0=0, partial_num=a_n, partial_den=b_n)
    return eval_cf(cf, prec)
