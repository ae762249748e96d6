"""Basic hypergeometric series: the 2-phi-1 sum, the one-parameter psi sum
with its q-binomial product twin, and the Gauss product evaluation.

When a, b, c, q and z are all real, ``phi21`` advances its terms in
fixed-point Python integers at ctx.prec + ``numerics._FIXED_GUARD`` bits
and ``numerics._settle(..., wp=wp)`` adds them as integers and decides when
to stop; the total is rounded once, the way mpmath's own jtheta and hypsum
sum.  Complex input keeps the loop in mpc numbers.  Both routes raise
DomainError at a pole: when |1 - c q^n| <= (n + 2) 2^(2 - prec), a few
working ulps, since c q^n rounds near 1 rather than onto it.  A sum
that cancels is summed again with more digits by ``numerics._resummed``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from mpmath.libmp import to_fixed

from .numerics import _FIXED_GUARD, DomainError, PrecisionSpec, _from_fixed, _resummed, _settle, cv
from .qfunctions import INF, pochhammer


@dataclass(frozen=True)
class Phi21Params:
    """Upper parameters a, b; lower parameter c; base q; argument z."""

    a: object
    b: object
    c: object
    q: object
    z: object


def phi21(params: Phi21Params, prec: PrecisionSpec):
    """2-phi-1(a, b; c; q, z) = sum_{n>=0} (a;q)_n (b;q)_n / ((c;q)_n (q;q)_n) z^n.

    Requires |q| < 1 and |z| < 1; c must avoid the poles q^(-n), and one
    within a few working ulps of them raises DomainError.  A series that
    cancels past half the guard digits is summed again with more digits by
    ``numerics._resummed``, at most prec.workdps more, so that an exact
    zero costs two sums: phi21(2, 1/4; 1/2; 1/2, 1/3) is one, since a = 1/q
    ends the series after 1 - 1 = 0, and so is phi21(1/3, 3; 2/3; 1/2, 2/3).
    """
    return _resummed(prec, lambda p: _phi21_sum(params, p), cap=prec.workdps)


def _phi21_sum(params: Phi21Params, prec: PrecisionSpec):
    """The 2-phi-1 series at prec, and the digits it lost to cancellation."""
    ctx = prec.context()
    values = tuple(cv(ctx, v) for v in (params.a, params.b, params.c, params.q, params.z))
    a, b, c, q, z = values
    if abs(q) >= 1:
        raise DomainError(f"2-phi-1 needs |q| < 1, got |q| = {abs(q)}")
    if abs(z) >= 1:
        raise DomainError(f"2-phi-1 series needs |z| < 1, got |z| = {abs(z)}")
    if any(isinstance(v, ctx.mpc) for v in values):
        return _settle(ctx, prec.work_eps(ctx), _phi21_terms_complex(ctx, *values))
    # a q^n, b q^n and c q^n stay within 2^-(ctx.prec + _FIXED_GUARD) of
    # their values however large a, b or c is.
    wp = ctx.prec + _FIXED_GUARD + max(0, *(ctx.mag(v) for v in (a, b, c)))
    total, lost = _settle(ctx, prec.work_eps(ctx), _phi21_terms_fixed(ctx, wp, *values), wp=wp)
    return _from_fixed(ctx, total, wp), lost


def _pole(n: int):
    return DomainError(f"lower parameter c = q^(-{n}) is a pole")


def _phi21_terms_complex(ctx, a, b, c, q, z):
    """The 2-phi-1 terms in ctx's numbers; t_(n+1) = t_n (1 - a q^n)
    (1 - b q^n) z / ((1 - c q^n)(1 - q^(n+1)))."""
    term = ctx.mpf(1)
    qn = ctx.mpf(1)  # q^n
    for n in itertools.count():
        yield term
        denom_c = 1 - c * qn
        if abs(denom_c) <= ctx.ldexp(n + 2, 2 - ctx.prec):
            raise _pole(n)
        term = term * (1 - a * qn) * (1 - b * qn) / (denom_c * (1 - q * qn)) * z
        qn = qn * q


def _phi21_terms_fixed(ctx, wp, a, b, c, q, z):
    """The same terms for real parameters, advanced and yielded as
    fixed-point integers (value * 2^wp)."""
    a, b, c, q, z = (to_fixed(v._mpf_, wp) for v in (a, b, c, q, z))
    one = 1 << wp
    pole_shift = wp + 2 - ctx.prec  # |1 - c q^n| <= (n + 2) 2^(2 - prec)
    term = one
    qn = one  # q^n
    for n in itertools.count():
        yield term
        term = term * z >> wp
        if not qn:
            continue  # q^n is below 2^-wp: every other factor is exactly 1
        denom_c = one - (c * qn >> wp)
        if abs(denom_c) <= (n + 2) << pole_shift:
            raise _pole(n)
        qn1 = qn * q >> wp  # q^(n+1)
        numer = (one - (a * qn >> wp)) * (one - (b * qn >> wp))
        term = term * numer // (denom_c * (one - qn1))
        qn = qn1


def psi_small(a, q, z, prec: PrecisionSpec):
    """psi(a, q, z) = sum_{n>=0} (a;q)_n / (q;q)_n z^n for |q| < 1, |z| < 1:
    the 2-phi-1 series with b = c = 0."""
    return phi21(Phi21Params(a, 0, 0, q, z), prec)


def psi_small_product(a, q, z, prec: PrecisionSpec):
    """q-binomial product form (az; q)_inf / (z; q)_inf of psi(a, q, z).

    Converges as a product for every z off the poles z = q^(-n), so it also
    extends psi beyond |z| < 1.
    """
    ctx = prec.context()
    a = cv(ctx, a)
    z = cv(ctx, z)
    numer = pochhammer(a * z, q, INF, prec)
    denom = pochhammer(z, q, INF, prec)
    if denom == 0:
        raise ZeroDivisionError("(z; q)_inf is exactly zero (z is a pole)")
    return numer / denom


def gauss_product(a, b, c, q, prec: PrecisionSpec):
    """Closed form of 2-phi-1(a, b; c; q, c/(ab)), the q-Gauss sum:

    (c/a; q)_inf (c/b; q)_inf / ((c; q)_inf (c/(ab); q)_inf)."""
    ctx = prec.context()
    a = cv(ctx, a)
    b = cv(ctx, b)
    c = cv(ctx, c)
    numer = pochhammer(c / a, q, INF, prec) * pochhammer(c / b, q, INF, prec)
    denom = pochhammer(c, q, INF, prec) * pochhammer(c / (a * b), q, INF, prec)
    if denom == 0:
        raise ZeroDivisionError("Gauss product denominator is exactly zero")
    return numer / denom

