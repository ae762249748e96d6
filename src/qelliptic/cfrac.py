"""Continued fractions: a generic evaluator (a forward pass confirmed by a
backward recurrence from deeper truncation) plus constructors for the named
fractions used elsewhere: the Rogers-Ramanujan fraction R and its
prefactored variant R1, the cubic-type R2, the octic-type R3 (same fraction
as H), the M fraction with its series twin, and the two-parameter P
fraction.

At real input every constructor hands ``eval_cf`` its a_n and b_n as
fixed-point integers scaled by 2^wp, wp = ctx.prec + ``_FIXED_GUARD`` plus
the bits of the largest |a_n| and |b_n|, with its powers of q from
``_qpowers(..., wp)``; both passes then run in integers and the value is
rounded once.  Complex input to ``p_cf`` keeps the passes in mpc numbers.

Notation: value = b0 + a1/(b1 + a2/(b2 + a3/(b3 + ...))).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath.libmp import to_fixed

from .numerics import (
    _FIXED_GUARD,
    CrossCheckFailure,
    DomainError,
    PrecisionSpec,
    _from_fixed,
    _resummed,
    _settle,
    cv,
    cv_real,
    memoized,
)
from .qfunctions import _qpowers, qpow

# Levels of the forward pass before ``eval_cf`` declares divergence.
MAX_LEVELS = 100_000


@dataclass(frozen=True)
class ContinuedFraction:
    """b0 plus partial numerators a_n and denominators b_n for n >= 1.

    A partial numerator that is exactly zero terminates the fraction exactly
    at that depth; that is normal, not an error.  ``wp`` states the scale of
    the items, as it does for ``numerics._settle``: with it given, b0, a_n
    and b_n are real fixed-point values, Python ints scaled by 2^wp.
    """

    b0: object
    partial_num: Callable[[int], object]
    partial_den: Callable[[int], object]
    wp: int | None = None


def eval_cf(cf: ContinuedFraction, prec: PrecisionSpec):
    """Evaluate a continued fraction to the requested precision.

    A forward pass stops by the rule of ``numerics._settle``; it is then
    re-confirmed by a backward recurrence from twice the depth where it
    settled, which reuses the a_n and b_n of the forward pass and requests
    only deeper ones.  Disagreement between the two passes raises
    CrossCheckFailure; ``MAX_LEVELS`` levels without settling raise
    NonConvergence.

    With ``cf.wp`` given, both passes run in integers (``_eval_fixed``) and
    the value is rounded once; otherwise in ctx's numbers (``_eval_ctx``).
    """
    ctx = prec.context()
    tol = ctx.mpf(10) ** (-(prec.digits + 2))
    f, back = (_eval_ctx if cf.wp is None else _eval_fixed)(cf, prec, ctx)
    if f is not None and abs(back - f) > 100 * tol * max(ctx.mpf(1), abs(back)):
        raise CrossCheckFailure(
            f"forward pass gave {f} but backward recurrence gave {back}"
        )
    return back


def _eval_ctx(cf: ContinuedFraction, prec: PrecisionSpec, ctx):
    """Forward and backward values of ``eval_cf`` in ctx's numbers; the
    forward value is None when the fraction terminates exactly.

    Modified Lentz with a tiny-value floor of 10^(-digits-guard-10).  Its
    ratios C_n D_n of consecutive approximants tend to 1, so the forward
    pass stops by the factor rule of ``_settle``.
    """
    tiny = ctx.mpf(10) ** (-(prec.digits + prec.guard + 10))
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
    return (None if exact else f), b0 + tail


def _eval_fixed(cf: ContinuedFraction, prec: PrecisionSpec, ctx):
    """Forward and backward values of ``eval_cf`` for items scaled by
    2^wp; the forward value is None when the fraction terminates exactly.

    Both passes evaluate g = b1 + a2/(b2 + ...), starting at level 1, and
    the value b0 + a1/g is rounded once.  The forward pass keeps Lentz's
    D_n = 1/(b_n + a_n D_(n-1)) and advances the approximant increments
    g_n - g_(n-1) = (b_n D_n - 1)(g_(n-1) - g_(n-2)) (Steed's form, one
    division a level), which ``_settle`` adds as a series of integers.
    A zero denominator is floored at one unit of 2^-wp.

    Where |g| >= 1 that stops where the ratio rule of ``_eval_ctx`` does,
    give or take a level; below |g| = 1 the rule on increments is
    absolute, so the pass may stop earlier (57 levels of 3,830 at
    p_cf(49/50, 1, 1/2), 20 digits).  The backward pass from twice the
    depth still returns the value to its relative digits.
    """
    wp = cf.wp
    one = 1 << wp
    nums, dens = [None, cf.partial_num(1)], [None, cf.partial_den(1)]
    exact = False

    def increments():
        nonlocal exact
        yield dens[1]
        d, step = 0, None  # D_1 = 0 makes D_2 = 1/b2
        for n in itertools.count(2):
            a = cf.partial_num(n)
            if a == 0:
                exact = True  # tail is exactly zero from here on
                return
            b = cf.partial_den(n)
            nums.append(a)
            dens.append(b)
            d = (one << wp) // ((b + (a * d >> wp)) or 1)
            # g_2 - g_1 = a2 / b2, then Steed's recurrence
            step = a * d >> wp if step is None else ((b * d >> wp) - one) * step >> wp
            yield step

    g, _ = _settle(ctx, prec.work_eps(ctx), increments(), max_terms=MAX_LEVELS, wp=wp)

    if not exact:
        depth = len(nums) - 1
        for j in range(depth + 1, 2 * depth + 1):
            nums.append(cf.partial_num(j))
            dens.append(cf.partial_den(j))
    tail = 0
    for j in range(len(nums) - 1, 1, -1):
        tail = (nums[j] << wp) // ((dens[j] + tail) or 1)
    a1 = nums[1]
    back = _from_fixed(ctx, cf.b0 + (a1 << wp) // (dens[1] + tail), wp)
    return (None if exact else _from_fixed(ctx, cf.b0 + (a1 << wp) // g, wp)), back


def _fraction_wp(ctx, bound) -> int:
    """Bits of a fixed-point fraction whose |a_n| and |b_n| stay below bound."""
    return ctx.prec + _FIXED_GUARD + ctx.mag(bound)


def _real_q(ctx, q):
    """q as a real number of ctx in (0, 1); an mpc with zero imaginary part
    counts as real."""
    q = cv_real(ctx, q)
    if isinstance(q, ctx.mpc) or not (0 < q < 1):
        raise DomainError(f"this fraction is evaluated for real q in (0, 1), got {q}")
    return q


@memoized
def rr_cf(q, prec: PrecisionSpec):
    """Rogers-Ramanujan fraction without prefactor:
    1/(1 + q/(1 + q^2/(1 + q^3/(1 + ...))))."""
    ctx = prec.context()
    q = _real_q(ctx, q)
    wp = _fraction_wp(ctx, 1)
    one = 1 << wp
    power = _qpowers(ctx, q, wp)
    cf = ContinuedFraction(
        b0=0,
        partial_num=lambda n: one if n == 1 else power(n - 1),
        partial_den=lambda n: one,
        wp=wp,
    )
    return eval_cf(cf, prec)


@memoized
def r1_cf(q, prec: PrecisionSpec):
    """q^(1/5) times the Rogers-Ramanujan fraction."""
    ctx = prec.context()
    q = _real_q(ctx, q)
    return qpow(ctx, q, Fraction(1, 5)) * rr_cf(q, prec)


@memoized
def r2_cf(q, prec: PrecisionSpec):
    """q^(1/3)/(1 + (q+q^2)/(1 + (q^2+q^4)/(1 + (q^3+q^6)/(1 + ...))))."""
    ctx = prec.context()
    q = _real_q(ctx, q)
    wp = _fraction_wp(ctx, 2)
    one = 1 << wp
    power = _qpowers(ctx, q, wp)

    def a_n(n: int):
        if n == 1:
            return one
        m = n - 1
        return power(m) + power(2 * m)

    cf = ContinuedFraction(b0=0, partial_num=a_n, partial_den=lambda n: one, wp=wp)
    return qpow(ctx, q, Fraction(1, 3)) * eval_cf(cf, prec)


@memoized
def r3_cf(q, prec: PrecisionSpec):
    """q^(1/2)/((1+q) + q^2/((1+q^3) + q^4/((1+q^5) + ...))).

    Partial numerators q^(2(n-1)), denominators 1 + q^(2n-1).
    """
    ctx = prec.context()
    q = _real_q(ctx, q)
    wp = _fraction_wp(ctx, 2)
    one = 1 << wp
    power = _qpowers(ctx, q, wp)
    cf = ContinuedFraction(
        b0=0,
        partial_num=lambda n: one if n == 1 else power(2 * (n - 1)),
        partial_den=lambda n: one + power(2 * n - 1),
        wp=wp,
    )
    return qpow(ctx, q, Fraction(1, 2)) * eval_cf(cf, prec)


@memoized
def h_cf(q, prec: PrecisionSpec):
    """The H fraction; identical in shape to r3_cf."""
    return r3_cf(q, prec)


@memoized
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


@memoized
def m_cf(c, q, prec: PrecisionSpec):
    """The alternating-sign fraction for M(c, q):

    1/(1 - cq/(1 + c(q-q^2)/(1 - cq^3/(1 + c(q^2-q^4)/(1 - ...))))).

    Folding the signs into the numerators: all denominators 1, and for j >= 1
    a_{2j} = -c q^(2j-1), a_{2j+1} = c (q^j - q^(2j)).  Checked against
    m_series inside its empirical convergence region by the suite.
    """
    ctx = prec.context()
    c = cv(ctx, c)
    if ctx.im(c) != 0:
        raise DomainError(f"the M fraction is evaluated for real c, got {c}")
    q = _real_q(ctx, q)
    wp = _fraction_wp(ctx, max(1, abs(c)))
    one = 1 << wp
    c = to_fixed(ctx.re(c)._mpf_, wp)
    power = _qpowers(ctx, q, wp)

    def a_n(n: int):
        if n == 1:
            return one
        if n % 2 == 0:
            j = n // 2
            return -c * power(2 * j - 1) >> wp
        j = (n - 1) // 2
        return c * (power(j) - power(2 * j)) >> wp

    cf = ContinuedFraction(b0=0, partial_num=a_n, partial_den=lambda n: one, wp=wp)
    return eval_cf(cf, prec)


@memoized
def p_cf(a, b, q, prec: PrecisionSpec):
    """Two-parameter fraction

    1/((1-ab) + (a-bq)(b-aq)/((1-ab)(q^2+1) + (a-bq^3)(b-aq^3)/(...)))

    with general level n >= 2: partial numerator (a - b q^(2n-3))(b - a q^(2n-3))
    and partial denominator (1-ab)(q^(2n-2) + 1).  Equals
    (a^2 q^3; q^4)(b^2 q^3; q^4) / ((a^2 q; q^4)(b^2 q; q^4)) in the suite's
    cross-check.
    """
    ctx = prec.context()
    a, b, q = (cv_real(ctx, v) for v in (a, b, q))
    if abs(q) >= 1:
        raise DomainError(f"P(a, b, q) needs |q| < 1, got |q| = {abs(q)}")
    if abs(a * b) >= 1:
        raise DomainError(f"P(a, b, q) needs |ab| < 1, got |ab| = {abs(a * b)}")
    if any(isinstance(v, ctx.mpc) for v in (a, b, q)):
        wp, one, mul = None, 1, operator.mul
    else:
        # |a_n| <= (|a| + |b|)^2 and |b_n| <= 2 |1 - ab| < 4
        wp = _fraction_wp(ctx, max(4, (abs(a) + abs(b)) ** 2))
        one = 1 << wp
        a, b = to_fixed(a._mpf_, wp), to_fixed(b._mpf_, wp)

        def mul(x, y):
            return x * y >> wp

    power = _qpowers(ctx, q, wp)
    gap = one - mul(a, b)

    def a_n(n: int):
        if n == 1:
            return one
        qe = power(2 * n - 3)
        return mul(a - mul(b, qe), b - mul(a, qe))

    def b_n(n: int):
        if n == 1:
            return gap
        return mul(gap, power(2 * n - 2) + one)

    cf = ContinuedFraction(b0=0, partial_num=a_n, partial_den=b_n, wp=wp)
    return eval_cf(cf, prec)
