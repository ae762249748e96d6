"""Basic hypergeometric series: the 2-phi-1 sum, the one-parameter psi sum
with its q-binomial product twin, and the Gauss product evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .numerics import DomainError, PrecisionSpec, _settle, cv
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

    Requires |q| < 1 and |z| < 1; c must avoid q^(-n) (zero denominators).
    """
    ctx = prec.context()
    a = cv(ctx, params.a)
    b = cv(ctx, params.b)
    c = cv(ctx, params.c)
    q = cv(ctx, params.q)
    z = cv(ctx, params.z)
    if abs(q) >= 1:
        raise DomainError(f"2-phi-1 needs |q| < 1, got |q| = {abs(q)}")
    if abs(z) >= 1:
        raise DomainError(f"2-phi-1 series needs |z| < 1, got |z| = {abs(z)}")

    def terms():
        term = ctx.mpf(1)
        qn = ctx.mpf(1)  # q^n
        for n in itertools.count():
            yield term
            denom_c = 1 - c * qn
            if denom_c == 0:
                raise DomainError(f"lower parameter c = q^(-{n}) is a pole")
            term = term * (1 - a * qn) * (1 - b * qn) / (denom_c * (1 - q * qn)) * z
            qn = qn * q

    return _settle(ctx, prec.work_eps(ctx), terms())


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
    """Closed form of 2-phi-1(a, b; c; q, ab/c):

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

