"""Complete elliptic integral K, nome construction, modulus from the nome,
singular moduli, and one step of descending Landen transformation.

The modulus is recovered from the nome by a closed form in the Weber-style
products (see ``modulus_from_nome``) rather than by root-finding on the
period ratio; the AGM route is kept as an independent cross-check in the
verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import (
    DomainError,
    PrecisionSpec,
    VerificationError,
    cv,
    memoized,
)
from .qfunctions import euler_f, weber_phi


@dataclass(frozen=True)
class Nome:
    """A point q with |q| < 1; ``r`` records q = e^(-pi sqrt(r)) when known."""

    q: object
    r: Fraction | None = None


@dataclass(frozen=True)
class Modulus:
    """Modulus k, complement k' = sqrt(1-k^2), and both period integrals."""

    k: object
    k_prime: object
    K: object
    K_prime: object


def _as_fraction(r) -> Fraction:
    if isinstance(r, (int, Fraction)):
        return Fraction(r)
    if isinstance(r, str):
        return Fraction(r)
    raise DomainError(
        f"r must be an exact rational (int, Fraction, or 'n/d' string), got {r!r}"
    )


@memoized
def nome_from_r(r, prec: PrecisionSpec) -> Nome:
    """q = e^(-pi sqrt(r)) for exact rational r > 0."""
    r = _as_fraction(r)
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    ctx = prec.context()
    q = ctx.exp(-ctx.pi * ctx.sqrt(cv(ctx, r)))
    return Nome(q=q, r=r)


@memoized
def K_of_k(k, prec: PrecisionSpec):
    """Complete elliptic integral K(k) = pi / (2 agm(1, sqrt(1 - k^2)))."""
    ctx = prec.context()
    k = cv(ctx, k)
    if ctx.im(k) != 0 or k < 0 or k >= 1:
        raise DomainError(f"K(k) needs real k in [0, 1), got {k}")
    return ctx.pi / (2 * ctx.agm(1, ctx.sqrt(1 - k * k)))


@memoized
def modulus_from_nome(q, prec: PrecisionSpec) -> Modulus:
    """Modulus and periods at a real nome q in (0, 1).

    k is the closed form in w = (-q; q)_inf:

        k = 8 sqrt(q) w^12 / (1 + sqrt(1 + 64 q w^24)),

    K is the matching closed form in (q; q)_inf and w, k' = sqrt(2/(1 + s))
    with s = sqrt(1 + 64 q w^24), which equals sqrt(1 - k^2) exactly but
    loses no digits to cancellation as k nears 1, and K' = K_of_k(k').
    Accepts a Nome or a bare number.
    """
    nome = q if isinstance(q, Nome) else Nome(q=q)
    ctx = prec.context()
    qv = cv(ctx, nome.q)
    if ctx.im(qv) != 0 or not (0 < qv < 1):
        raise DomainError(f"modulus_from_nome needs real q in (0, 1), got {qv}")
    w = weber_phi(qv, prec)
    f = euler_f(qv, prec)
    root = ctx.sqrt(1 + 64 * qv * w**24)
    k = 8 * ctx.sqrt(qv) * w**12 / (1 + root)
    K = f * f * ctx.pi * ctx.sqrt(1 + root) / (2 * ctx.sqrt(2) * w * w)
    k_prime = ctx.sqrt(2 / (1 + root))
    K_prime = K_of_k(k_prime, prec)
    return Modulus(k=k, k_prime=k_prime, K=K, K_prime=K_prime)


@memoized
def singular_modulus(r, prec: PrecisionSpec):
    """k_r: the modulus whose period ratio K'/K equals sqrt(r).

    Computed through the nome closed form, then the period ratio is
    re-derived by AGM and asserted to match sqrt(r); a failure there means
    an implementation bug, not bad input.
    """
    nome = nome_from_r(r, prec)
    mod = modulus_from_nome(nome, prec)
    ctx = prec.context()
    residual = abs(mod.K_prime / K_of_k(mod.k, prec) - ctx.sqrt(cv(ctx, nome.r)))
    tol = ctx.mpf(10) ** (-prec.digits + ctx.mpf(prec.guard) / 2)
    if not residual < tol:
        raise VerificationError(
            f"period-ratio residual {residual} exceeds {tol} at r = {r}"
        )
    return mod.k


@memoized
def landen_descend(k11, prec: PrecisionSpec):
    """One descending Landen step from modulus k11 in (0, 1).

    Returns (k12, k21, k22) with k12 = sqrt(1 - k11^2),
    k21 = (2 - k11^2 - 2 k12)/k11^2, k22 = sqrt(1 - k21^2).
    """
    ctx = prec.context()
    k11 = cv(ctx, k11)
    if ctx.im(k11) != 0 or not (0 < k11 < 1):
        raise DomainError(f"landen_descend needs real k11 in (0, 1), got {k11}")
    k12 = ctx.sqrt(1 - k11 * k11)
    k21 = (2 - k11 * k11 - 2 * k12) / (k11 * k11)
    k22 = ctx.sqrt(1 - k21 * k21)
    return k12, k21, k22


@memoized
def landen_chain(q, prec: PrecisionSpec):
    """(k11, k12, k21, k22) at a real nome q: k11 from modulus_from_nome,
    the rest from one Landen step.  Convenience used by several identities."""
    mod = modulus_from_nome(q, prec)
    k12, k21, k22 = landen_descend(mod.k, prec)
    return mod.k, k12, k21, k22


__all__ = [
    "Nome",
    "Modulus",
    "nome_from_r",
    "K_of_k",
    "modulus_from_nome",
    "singular_modulus",
    "landen_descend",
    "landen_chain",
]
