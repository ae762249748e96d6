"""Basic hypergeometric series: the 2-phi-1 sum, the one-parameter psi sum
with its q-binomial product twin, and the Gauss product evaluation.

``phi21`` hands ``numerics._settle`` the q-shifted differences of its terms
(see ``_phi21_sum``), which fall like (z q^K)^n where the terms fall like
z^n.  A geometric series stopped by ``_settle`` keeps up to eps r/(1 - r)
of its tail at ratio r, so the differences are also more accurate, and
their stop is scaled by 1 - r to keep that tail below eps.  At
real a, b, c, q and z (an mpc with zero imaginary part counts as real) they
are fixed-point integers, which ``_settle(..., wp=wp)`` adds as integers,
and the total is rounded once; complex input runs the loop in mpc numbers.
Both routes raise DomainError at a pole: when |1 - c q^n| <= (n + 2)
2^(2 - prec), a few working ulps, since c q^n rounds near 1 rather than
onto it, unless a numerator factor 1 - a q^m or 1 - b q^m was exactly 0 at
an m < n, which ends the series.  Only an n with |c q^n| >= 1/2 can be a
pole, and the sum does not stop before the last such n.  A sum that
cancels is summed again with more digits by ``numerics._resummed``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from mpmath.libmp import to_fixed

from .numerics import (
    _FIXED_GUARD,
    DomainError,
    PrecisionSpec,
    _from_fixed,
    _resummed,
    _settle,
    cv_real,
    memoized,
)
from .qfunctions import INF, pochhammer

# Levels K of q-shifted differences.  On eval-mix-like draws (pure-Python
# mpmath, 2-core x86-64), 8 beat 6 by 7% at 200 digits; 10 and 12 gained at
# most 3% more there but lost 5-12% at 30 digits.
_SHIFTS = 8


@dataclass(frozen=True)
class Phi21Params:
    """Upper parameters a, b; lower parameter c; base q; argument z."""

    a: object
    b: object
    c: object
    q: object
    z: object


@memoized
def phi21(params: Phi21Params, prec: PrecisionSpec):
    """2-phi-1(a, b; c; q, z) = sum_{n>=0} (a;q)_n (b;q)_n / ((c;q)_n (q;q)_n) z^n.

    Requires |q| < 1 and |z| < 1; c must avoid the poles q^(-n), and one
    within a few working ulps of them raises DomainError, unless a or b =
    q^(-m), m < n, ends the series before it.  ``_settle`` sums
    the q-shifted differences of the terms, which end soon even for |z| near
    1.  A series that cancels past half the guard digits is summed again
    with more digits by ``numerics._resummed``, at most prec.workdps more,
    so that an exact zero costs two sums: phi21(2, 1/4; 1/2; 1/2, 1/3) is
    one, since a = 1/q ends the series after 1 - 1 = 0, and so is
    phi21(1/3, 3; 2/3; 1/2, 2/3).
    """
    return _resummed(prec, lambda p: _phi21_sum(params, p), cap=prec.workdps)


def _phi21_sum(params: Phi21Params, prec: PrecisionSpec):
    """The 2-phi-1 series at prec, and the digits it lost to cancellation.

    ``_settle`` adds d_n = prod_{k<K} (1 - z q^k S) t_n, S t_n = t_(n-1) and
    t_(-1) = 0, which sum to prod_k (1 - z q^k) times the series and fall
    like (z q^K)^n: each factor cancels the (z q^k)^n part of the terms t_n.
    They carry g more bits, 2^g >= prod_k 1 / (1 - |z q^k|), so dividing by
    the product loses nothing, and the loss reading leaves it out; ``_settle``
    stops at eps 2^-g (1 - r), r = |z q^K|, since the total it reads is the
    series times the product and a stop at eps leaves a tail of up to eps
    r / (1 - r).

    That tail bound needs every later term to follow from its predecessor
    without a pole.  The ratio t_(n+1) / t_n carries 1 / (1 - c q^n), so a
    c near q^(-n) makes t_(n+1) jump after any number of negligible terms
    (Gasper and Rahman, *Basic Hypergeometric Series*, §1.2).  Let N be the
    last n >= 0 with |c q^n| >= 1/2 (N = -1 if there is none; at complex c
    or q the scan reads binary exponents and may go on while |c q^n| >=
    1/4, which only adds items).  For n > N, |1 - c q^n| > 1/2, and d_n
    holds only t_n and earlier terms, so a stop at d_M leaves a tail of
    terms that follow without a pole once M >= N + 1: ``_settle`` takes at
    least N + 2 items.  Only n <= N can be a pole, so the scan for N stops
    at the first, and ``_phi21_terms`` raises there unless a zero numerator
    factor has ended the series before it.  A |1 - c q^n| = 2^-m below 1/2
    scales the rounding of the terms before t_(n+1) by 2^m, so the terms
    carry m - 1 more bits.
    """
    ctx = prec.context()
    values = tuple(cv_real(ctx, v) for v in (params.a, params.b, params.c, params.q, params.z))
    a, b, c, q, z = values
    if abs(q) >= 1:
        raise DomainError(f"2-phi-1 needs |q| < 1, got |q| = {abs(q)}")
    if abs(z) >= 1:
        raise DomainError(f"2-phi-1 series needs |z| < 1, got |z| = {abs(z)}")
    # 1 - |z q^k| = (1 - |z|) + |z| (1 - |q|^k); log2(1 - |z|) from its
    # mantissa and exponent, which no float underflow loses
    gap, zf, qf = 1 - abs(z), float(abs(z)), float(abs(q))
    logs = (math.log2(float(gap) + zf * (1 - qf**k)) for k in range(1, _SHIFTS))
    g = math.ceil(-_log2(gap) - sum(logs))
    n, cqn, pole_bits, pole = 0, c, 0, None
    # n <= N: mag(x) >= 0 holds at |x| >= 1/2, and at an mpf only there
    while ctx.mag(cqn) >= 0:
        distance = abs(1 - cqn)
        if distance <= (n + 2) * ctx.ldexp(1, 2 - ctx.prec):
            pole = n
            break
        pole_bits = max(pole_bits, math.ceil(-_log2(distance)) - 1)
        n, cqn = n + 1, cqn * q
    if any(isinstance(v, ctx.mpc) for v in values):
        work = prec.bumped(math.ceil((_FIXED_GUARD + g + pole_bits) * math.log10(2))).context()
        wp, one, mul, div = None, 1, work.fmul, work.fdiv
        a, b, c, q, z = (work.convert(v) for v in values)  # exact: more bits
    else:
        # a q^n, b q^n and c q^n stay within 2^-(ctx.prec + _FIXED_GUARD) of
        # their values however large a, b or c is.
        wp = ctx.prec + _FIXED_GUARD + g + pole_bits + max(0, *(ctx.mag(v) for v in (a, b, c)))
        work, one = ctx, 1 << wp
        mul, div = lambda x, y: x * y >> wp, lambda x, y: (x << wp) // y
        a, b, c, q, z = (to_fixed(v._mpf_, wp) for v in values)
    terms = _phi21_terms(a, b, c, q, z, one, mul, div, pole)
    lams = list(itertools.accumulate([z] + [q] * (_SHIFTS - 1), mul))  # z q^k
    # stop at eps (1 - r), 1 - r = 1 - |z q^K| as above
    eps = ctx.ldexp(prec.work_eps(ctx), -g) * (gap + zf * (1 - qf**_SHIFTS))
    least = n + 1 if pole is None else pole + 2  # N + 2
    total, lost = _settle(work, eps, _differenced(terms, lams, mul), wp=wp, least=least)
    divisor = math.prod(one - lam for lam in lams)  # one**K times the product
    if wp is None:  # unary + rounds; mag(x) >= log2 |x|, where a float can underflow
        return +ctx.convert(total / divisor), lost + work.mag(divisor) * math.log10(2)
    lost += math.log10(divisor) - _SHIFTS * wp * math.log10(2)
    return _from_fixed(ctx, (total << _SHIFTS * wp) // divisor, wp), lost


def _differenced(terms, lams, mul):
    """The differences prod_k (1 - lam_k S) t_n of the terms t_n, S t_n = t_(n-1)."""
    prev = [0] * len(lams)
    for t in terms:
        for k, lam in enumerate(lams):
            prev[k], t = t, t - mul(lam, prev[k])
        yield t


def _phi21_terms(a, b, c, q, z, one, mul, div, pole):
    """The 2-phi-1 terms, t_(n+1) = t_n (1 - a q^n) (1 - b q^n) z / ((1 - c
    q^n)(1 - q^(n+1))), in numbers (one = 1) or fixed-point integers (one =
    2^wp) with their mul and div; c q^pole is 1 to working precision, which
    raises DomainError unless a numerator factor was exactly 0 before it."""
    term = qn = one
    ended = False
    for n in itertools.count():
        yield term
        if n == pole:
            if not ended:
                raise DomainError(f"lower parameter c = q^(-{n}) is a pole")
            yield from itertools.repeat(term)  # 0 since the factor that ended the series
        factor_a, factor_b = one - mul(a, qn), one - mul(b, qn)
        ended = ended or not (factor_a and factor_b)
        numer = mul(mul(term, z), mul(factor_a, factor_b))
        denom_c = one - mul(c, qn)
        qn = mul(qn, q)
        term = div(numer, mul(denom_c, one - qn))


def _log2(x) -> float:
    """log2 of an mpf x > 0 from its mantissa and exponent, which no float
    overflow or underflow loses."""
    return math.log2(x.man) + x.exp


@memoized
def psi_small(a, q, z, prec: PrecisionSpec):
    """psi(a, q, z) = sum_{n>=0} (a;q)_n / (q;q)_n z^n for |q| < 1, |z| < 1:
    the 2-phi-1 series with b = c = 0."""
    return phi21(Phi21Params(a, 0, 0, q, z), prec)


@memoized
def psi_small_product(a, q, z, prec: PrecisionSpec):
    """q-binomial product form (az; q)_inf / (z; q)_inf of psi(a, q, z).

    Converges as a product for every z off the poles z = q^(-n), so it also
    extends psi beyond |z| < 1.
    """
    ctx = prec.context()
    a = cv_real(ctx, a)
    z = cv_real(ctx, z)
    numer = pochhammer(a * z, q, INF, prec)
    denom = pochhammer(z, q, INF, prec)
    if denom == 0:
        raise DomainError("(z; q)_inf is exactly zero (z is a pole)")
    return numer / denom


@memoized
def gauss_product(a, b, c, q, prec: PrecisionSpec):
    """Closed form of 2-phi-1(a, b; c; q, c/(ab)), the q-Gauss sum:

    (c/a; q)_inf (c/b; q)_inf / ((c; q)_inf (c/(ab); q)_inf)."""
    ctx = prec.context()
    a = cv_real(ctx, a)
    b = cv_real(ctx, b)
    c = cv_real(ctx, c)
    numer = pochhammer(c / a, q, INF, prec) * pochhammer(c / b, q, INF, prec)
    denom = pochhammer(c, q, INF, prec) * pochhammer(c / (a * b), q, INF, prec)
    if denom == 0:
        raise DomainError("Gauss product denominator is exactly zero")
    return numer / denom

