"""Continued fractions: a generic evaluator (a forward pass confirmed by a
backward recurrence from deeper truncation) plus constructors for the named
fractions used elsewhere: the Rogers-Ramanujan fraction R and its
prefactored variant R1, the cubic-type R2, the octic-type R3 (same fraction
as H), the M fraction with its series twin, and the two-parameter P
fraction.

At real input every constructor hands ``eval_cf`` its a_n and b_n as
fixed-point integers scaled by 2^wp, wp = ctx.prec + ``_FIXED_GUARD`` plus
the bits of the largest |a_n| and |b_n|, with its powers of q from
``_qpowers(..., wp)``; the value is rounded once.  Complex input to
``p_cf`` runs the same passes in mpc numbers.

Notation: value = b0 + a1/(b1 + a2/(b2 + a3/(b3 + ...))).
"""

from __future__ import annotations

import functools
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
    and b_n are real fixed-point values, Python ints scaled by 2^wp;
    without it, anything ``numerics.cv`` converts to ctx numbers.  Both
    kinds run through the same passes of ``eval_cf``.
    """

    b0: object
    partial_num: Callable[[int], object]
    partial_den: Callable[[int], object]
    wp: int | None = None


def eval_cf(cf: ContinuedFraction, prec: PrecisionSpec):
    """Evaluate a continued fraction to the requested precision.

    Both passes evaluate g = b1 + a2/(b2 + ...), from level 1, and return
    b0 + a1/g.  The forward pass keeps Lentz's D_n = 1/(b_n + a_n D_(n-1))
    and advances the increments g_n - g_(n-1) = (b_n D_n - 1)(g_(n-1) -
    g_(n-2)) (Steed's form, one division a level), which ``_settle`` adds
    as a series; ``MAX_LEVELS`` levels without settling raise
    NonConvergence.  A backward recurrence from twice the depth where it
    settled, reusing the forward pass's a_n and b_n, re-confirms it;
    disagreement raises CrossCheckFailure.  The passes are written once over
    one, mul and div: with ``cf.wp`` given, in integers scaled by 2^wp, a
    zero denominator floored at 2^-wp and the value rounded once; otherwise
    in ctx's numbers (mpf or mpc, through ``cv``), a zero denominator
    floored at 10^(-digits-guard-10).

    The tail: the increments have the ratio b_n D_n - 1 = -a_n D_(n-1) D_n.
    Where every a_n >= 0 and b_n > 0 (``rr_cf``, ``r2_cf``, ``r3_cf`` and
    ``h_cf`` at q in (0, 1)), every D_n > 0 and that is -x / (b_n + x), x =
    a_n D_(n-1) >= 0: past the first, the increments alternate in sign and
    fall in modulus, so the tail is below the last, negligible, increment.
    Elsewhere no level is known past which |ratio| < 1: it tends to 0 for
    ``m_cf`` and to -ab for ``p_cf``, but can exceed 1 before (1.24 at
    level 301 of m_cf(-5, 99/100)).  The backward pass turns a jump before
    twice the depth into a CrossCheckFailure; one past it goes unseen.
    """
    ctx = prec.context()
    wp = cf.wp
    if wp is None:
        tiny = ctx.mpf(10) ** (-(prec.digits + prec.guard + 10))
        one, b0, mul = ctx.mpf(1), cv(ctx, cf.b0), operator.mul
        num, den = lambda n: cv(ctx, cf.partial_num(n)), lambda n: cv(ctx, cf.partial_den(n))
        div, rounded = lambda x, y: x / (y or tiny), lambda x: x
    else:
        one, b0, num, den = 1 << wp, cf.b0, cf.partial_num, cf.partial_den
        mul, div = lambda x, y: x * y >> wp, lambda x, y: (x << wp) // (y or 1)
        rounded = functools.partial(_from_fixed, ctx, wp=wp)

    nums, dens = [None, num(1)], [None, den(1)]
    exact = False

    def increments():
        nonlocal exact
        yield dens[1]
        d, step = 0, None  # D_1 = 0 makes D_2 = 1/b2
        for n in itertools.count(2):
            a = num(n)
            if a == 0:
                exact = True  # tail is exactly zero from here on
                return
            b = den(n)
            nums.append(a)
            dens.append(b)
            d = div(one, b + mul(a, d))
            # g_2 - g_1 = a2 / b2, then Steed's recurrence
            step = mul(a, d) if step is None else mul(mul(b, d) - one, step)
            yield step

    g, _ = _settle(ctx, prec.work_eps(ctx), increments(), max_terms=MAX_LEVELS, wp=wp)

    if not exact:
        depth = len(nums) - 1
        for j in range(depth + 1, 2 * depth + 1):
            nums.append(num(j))
            dens.append(den(j))
    tail = 0
    for j in range(len(nums) - 1, 1, -1):
        tail = div(nums[j], dens[j] + tail)
    back = rounded(b0 + div(nums[1], dens[1] + tail))
    if not exact:
        f = rounded(b0 + div(nums[1], g))
        tol = ctx.mpf(10) ** (-(prec.digits + 2))
        if abs(back - f) > 100 * tol * max(ctx.mpf(1), abs(back)):
            raise CrossCheckFailure(
                f"forward pass gave {f} but backward recurrence gave {back}"
            )
    return back


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
    while its terms cancel, by 56 digits at c = -5, q = 0.99.

    Three negligible terms stop it only where the terms can only shrink, as
    for Euler's series: the ratio t_(n+1) / t_n = c q^(n+1) falls in
    modulus, so the terms rise while |c q^(n+1)| >= 1 and then fall for
    good.  A term on the rise is the largest so far, at least t_0 = 1 and
    |total| / count, so it is not negligible while count < 1 / eps.  The
    three lie past the peak, and the tail is at most eps max(1, |total|)
    r / (1 - r), r = |c q^(n+1)| at the last of them."""

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
