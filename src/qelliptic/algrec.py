"""Integer-relation recognition: find an integer-coefficient polynomial
annihilating a high-precision real number.

One PSLQ search (Ferguson, Bailey and Arno, Math. Comp. 68, 1999; mpmath's
``pslq``) looks for an integer relation among (1, x, x^2, ..., x^d) at each
degree d that ``find_minpoly`` tries.  A relation is normalized to content 1
with positive leading coefficient, ascending powers, and accepted only when
it is square-free and its Horner residual at x is below the accept tolerance.

PSLQ is a search, not one of the independent second routes the paper's
checks rely on: a recognized polynomial is trusted because its residual is
checked here and, with ``recompute``, again 30 digits higher, not because a
second algorithm agrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Sequence

from .numerics import DomainError, InsufficientPrecision, PrecisionSpec, cv

# mpmath's default of 100 PSLQ steps misses degree-8 relations at 120 digits
# (the eq. (54) octic among them); a search without a relation stops long
# before this, once its norm bound passes the height bound.
PSLQ_MAXSTEPS = 200000


class NotFound:
    """Sentinel result: no relation under the bounds. A finding, not an error."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NotFound"


NOT_FOUND = NotFound()


@dataclass(frozen=True)
class MinPolyResult:
    """Normalized integer polynomial with its residual at the input point."""

    coeffs: tuple  # ascending powers, content 1, leading coefficient > 0
    degree: int
    residual: object
    confidence: str  # "verified" | "unverified"

    def as_text(self) -> str:
        """Human form like ``16 - 240*t^2 + 800*t^3 + ... + 625*t^8``."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = f"{mag}"
            elif i == 1:
                term = f"{mag}*t" if mag != 1 else "t"
            else:
                term = f"{mag}*t^{i}" if mag != 1 else f"t^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"

    def as_json(self) -> list:
        return [int(c) for c in self.coeffs]


def verify_root(coeffs: Sequence[int], x, prec: PrecisionSpec):
    """|sum_i coeffs[i] x^i| by Horner evaluation at working precision."""
    ctx = prec.context()
    xv = cv(ctx, x)
    acc = ctx.mpf(0)
    for c in reversed(list(coeffs)):
        acc = acc * xv + c
    return abs(acc)


def _lll_reduce(ctx, xs: list, tol, maxcoeff: int):
    """One integer-relation search over ``xs = [1, x, ..., x^d]`` by mpmath's
    PSLQ on the caller's context: the first relation c it meets with
    max|c| < maxcoeff and |sum c_i x^i| below `tol` relative to |xs|, or None.

    The name predates PSLQ: the benchmark's tracer counts the degrees
    ``find_minpoly`` tries by rebinding this module global, so it is looked
    up once per search and keeps its name until the benchmark changes.
    """
    return ctx.pslq(xs, tol=tol, maxcoeff=maxcoeff, maxsteps=PSLQ_MAXSTEPS)


def _poly_mod(a: list, b: list) -> list:
    """Remainder of a by b; ascending Fraction coefficients, b nonzero."""
    a = a[:]
    while a and a[-1] == 0:
        a.pop()
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i in range(len(b)):
            a[shift + i] -= f * b[i]
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _is_squarefree(coeffs) -> bool:
    """True when gcd(P, P') is constant.  A minimal polynomial is
    irreducible, hence square-free; a candidate with a repeated factor is a
    search artifact (for example the square of a lower-degree near-fit,
    whose residual is the square of a rejected one)."""
    p = [Fraction(c) for c in coeffs]
    dp = [Fraction(i * c) for i, c in enumerate(coeffs)][1:]
    while dp and dp[-1] == 0:
        dp.pop()
    a, b = p, dp
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) <= 1


def _normalize(coeffs: list) -> tuple:
    """Trim, divide by content, make the leading coefficient positive.
    `coeffs` is a nonzero integer vector (a PSLQ relation never is zero)."""
    cs = list(coeffs)
    while cs[-1] == 0:
        cs.pop()
    g = 0
    for c in cs:
        g = gcd(g, abs(c))
    cs = [c // g for c in cs]
    if cs[-1] < 0:
        cs = [-c for c in cs]
    return tuple(cs)


def find_minpoly(
    x,
    max_degree: int,
    height_bound: int = 10**8,
    prec: PrecisionSpec | None = None,
    recompute: Callable[[PrecisionSpec], object] | None = None,
):
    """Search for an integer polynomial of degree <= max_degree, coefficient
    height <= height_bound, vanishing at x.  Returns MinPolyResult or the
    NOT_FOUND sentinel.

    The height bound is inclusive.  Precondition (enforced): prec.digits >=
    10*max_degree + 40, so that a genuine relation is separated from chance
    near-relations by many orders of magnitude.  An |x| below the accept
    tolerance 10^-(digits-15) is recognized as the root of t.

    The lowest degree with an accepted candidate wins.  A search that fails
    at degree d rules out every degree <= d: a lower-degree relation is a
    degree-d one with zero top coefficients, and PSLQ gives up only once
    its bound on every relation's norm passes 100 times the height bound.
    So degrees 1, 2, 4, 8, ... are probed until a relation turns up, and a
    relation of degree e, accepted or not, is followed by a search at e - 1,
    down to the first failure or to a degree already searched, whose result
    and descent are known.

    confidence is "verified" only when a ``recompute`` callable is supplied:
    it is invoked with a PrecisionSpec 30 digits higher, and the polynomial's
    residual there must shrink by at least a factor 10^15 (floored at the
    respective working epsilons, so exact zeros verify cleanly).
    """
    if max_degree < 1:
        raise DomainError(f"max_degree must be >= 1, got {max_degree}")
    if height_bound < 1:
        raise DomainError(f"height_bound must be >= 1, got {height_bound}")
    if prec is None:
        raise DomainError("find_minpoly requires an explicit PrecisionSpec")
    if prec.digits < 10 * max_degree + 40:
        raise InsufficientPrecision(
            f"need digits >= {10 * max_degree + 40} for degree {max_degree}, "
            f"got {prec.digits}"
        )
    ctx = prec.context()
    xv = cv(ctx, x)
    if ctx.im(xv) != 0:
        raise DomainError("recognition is defined for real x")
    xv = ctx.re(xv)
    accept_tol = ctx.mpf(10) ** (-(prec.digits - 15))

    if abs(xv) < accept_tol:
        # PSLQ needs nonzero inputs; t itself is the relation for x ~ 0.
        cs, residual = (0, 1), abs(xv)
    else:
        xs = [ctx.mpf(1)]
        # PSLQ finds nothing once a power falls below accept_tol/100
        while len(xs) <= max_degree and abs(xs[-1] * xv) >= accept_tol / 100:
            xs.append(xs[-1] * xv)
        top = len(xs) - 1
        # no relation has degree <= failed; probe is the galloping degree;
        # searching a degree in searched again would repeat it and its descent
        best, failed, probe, d, searched = None, 0, 1, 1, set()
        while True:
            searched.add(d)
            relation = _lll_reduce(ctx, xs[: d + 1], accept_tol, height_bound + 1)
            if relation is None:
                failed = d
            else:
                while relation[0] == 0:
                    relation = relation[1:]  # x != 0: divided by t, still one
                cs = _normalize(relation)
                residual = verify_root(cs, xv, prec)
                if residual < accept_tol and _is_squarefree(cs):
                    best = cs, residual
                d = len(cs) - 2
                if d > failed and d not in searched:
                    continue
            if best is not None or probe == top:
                break
            probe = d = min(2 * probe, top)
        if best is None:
            return NOT_FOUND
        cs, residual = best

    confidence = "unverified"
    if recompute is not None:
        high = PrecisionSpec(prec.digits + 30, prec.guard)
        hctx = high.context()
        residual_high = verify_root(cs, recompute(high), high)
        floor_low = ctx.mpf(10) ** (-prec.workdps)
        floor_high = hctx.mpf(10) ** (-high.workdps)
        r_low = max(residual, floor_low)
        r_high = max(residual_high, cv(ctx, floor_high))
        if r_high <= r_low * ctx.mpf(10) ** (-15):
            confidence = "verified"
    return MinPolyResult(
        coeffs=cs,
        degree=len(cs) - 1,
        residual=residual,
        confidence=confidence,
    )
