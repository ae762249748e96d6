"""Integer-relation recognition: find an integer-coefficient polynomial
annihilating a high-precision real number.

One PSLQ search (Ferguson, Bailey and Arno, Math. Comp. 68, 1999) looks for
an integer relation among (1, x, x^2, ..., x^d) at each degree d that
``find_minpoly`` tries, at the 10 d + 40 digits that degree needs rather
than the caller's full precision, with a tolerance scaled to match.  The
search is a local transcription of mpmath 1.3.0's ``pslq`` that skips work
whose result is unread or known exactly (see ``_lll_reduce``); it takes the
steps ``pslq`` takes with exact integer square roots, as on mpmath's gmpy
backend, the tests use ``pslq`` as its oracle, and it stops a failed search
sooner, at a norm bound.  A relation is normalized to content 1 with
positive leading coefficient, ascending powers, and accepted only when it
is square-free and its Horner residual at x, at the caller's full
precision, is below the accept tolerance.

The degree of an accepted relation is settled by proving it irreducible
(``_factor``: Durand-Kerner roots in floats, inclusion disks, and a screen
of root subsets, Cohen, GTM 138, section 3.5), or by splitting off the
factor that vanishes at x; only when that test cannot tell does a search
one degree lower follow.

PSLQ is a search, not one of the independent second routes the paper's
checks rely on: a recognized polynomial is trusted because its residual is
checked here and, with ``recompute``, again 30 digits higher, not because a
second algorithm agrees.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, expm1, gcd, hypot, isqrt, ldexp, log10, pi, prod
from typing import Callable, Sequence

from .numerics import DomainError, InsufficientPrecision, PrecisionSpec, cv

# The step limit of every PSLQ search.  mpmath's default of 100 steps misses
# degree-8 relations at 120 digits (the eq. (54) octic among them); a search
# without a relation stops long before this, once its norm bound passes the
# height bound.
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


def verify_root(coeffs: Sequence[int], x, prec: PrecisionSpec):
    """|sum_i coeffs[i] x^i| by Horner evaluation at working precision."""
    ctx = prec.context()
    xv = cv(ctx, x)
    acc = ctx.mpf(0)
    for c in reversed(list(coeffs)):
        acc = acc * xv + c
    return abs(acc)


# The float screen of ``_pivot`` keeps every row within this factor of its
# largest estimate.  An estimate is the exact size over 2^(2 prec) up to
# three roundings (under 2^-51 relative) and, above the floor, the shifts.
_SCREEN_SLACK = 1 - 2.0**-40
# ``_pivot`` floats H_ii >> max(0, prec - _SCREEN_BITS): under 2^1020 in size
# for |H_ii| < 2^(prec + 60), so the float cannot overflow.
_SCREEN_BITS = 960


def _pivot_weights(n: int, prec: int) -> tuple:
    """The ``weights`` and ``floor`` that ``_pivot`` takes for an n-entry
    search at prec bits."""
    g = isqrt((4 << prec) // 3 << prec)
    shift = max(0, prec - _SCREEN_BITS)
    weights = []
    for i in range(n - 1):
        gi = g ** (i + 1)
        weights.append((gi, gi / (1 << prec * (i + 2) - shift)))
    # above this floor, the >> of the exact products moves the largest size
    # by under 2^-64 of itself, and so does the floor of H_ii >> shift,
    # which moves an estimate by under one unit of weights[-1][1]
    floor = ldexp(1.0, 64 - 2 * prec)
    if shift:
        floor = max(floor, ldexp(weights[-1][1], 64))
    return weights, floor


def _round_div(h: int, p: int) -> int:
    """floor(h / p + 1/2) for p != 0: mpmath's ``round_fixed((h << prec) //
    p, prec) >> prec`` at any prec, without the 2*prec-bit division."""
    T, r = divmod(h, p)
    return T + (2 * abs(r) >= abs(p))


def _pivot(H, weights, prec: int, floor: float, est=None) -> int:
    """PSLQ's row choice: the first i with the largest g^(i+1) |H_ii| >>
    prec*i, over ``weights[i] = (g^(i+1), w_i)`` with w_i the float
    g^(i+1) / 2^(prec*(i+2) - shift) and shift = max(0, prec -
    ``_SCREEN_BITS``).  ``est``, when given, is the list of the screen's
    estimates w_i |H_ii >> shift| for every row.

    The floats w_i |H_ii >> shift|, about g^(i+1) |H_ii| / 2^(2 prec),
    screen the rows.  PSLQ's diagonal never grows past its start, at most 1,
    so the shifted integer stays below 2^1020 and its float cannot overflow;
    w_i is at least 2^-960, so a nonzero estimate cannot underflow.  The
    exact products run only for the rows within ``_SCREEN_SLACK`` of the
    largest estimate, in increasing i, so the first maximum still wins; the
    exact maximum is always among them.  When the largest estimate is below
    ``floor``, the floor of either shift may weigh, and every row is
    compared exactly.
    """
    if est is None:
        shift = max(0, prec - _SCREEN_BITS)
        est = [w * abs(float(H[i][i] >> shift)) for i, (_, w) in enumerate(weights)]
    rows = range(len(est))
    top = max(est)
    if top >= floor:
        cut = top * _SCREEN_SLACK
        rows = [i for i in rows if est[i] >= cut]
        if len(rows) == 1:
            return rows[0]
    m, szmax = 0, -1
    for i in rows:
        sz = weights[i][0] * abs(H[i][i]) >> prec * i
        if sz > szmax:
            m, szmax = i, sz
    return m


def _lll_reduce(ctx, xs: list, tol, maxcoeff: int):
    """One PSLQ search over ``xs = [1, x, ..., x^d]``, rounded into the
    caller's context ``ctx``: the first relation c it meets with max|c| <
    maxcoeff and |sum c_i x^i| below `tol` relative to |xs|, or None.

    A transcription of mpmath 1.3.0's ``identification.pslq`` (Bailey's
    pseudocode in fixed point at ``ctx.prec + 60`` bits).  For the inputs
    ``find_minpoly`` passes (two or more entries, ``ctx.prec >= 53``) its
    steps are those of ``ctx.pslq(xs, tol=tol, maxcoeff=maxcoeff,
    maxsteps=PSLQ_MAXSTEPS)``, and the tests hold its result to pslq's.  The
    ``H``, ``y`` and ``s`` arithmetic and every exit but the stop test are
    mpmath's, bit for bit, with its square roots ``sqrt_fixed(x, prec)``
    taken exactly as ``isqrt(x << prec)``: that is ``sqrt_fixed`` on
    mpmath's gmpy backend, while its pure-Python one is 1 ulp low on about
    0.1% of inputs.  Dropped
    is work that is never read or whose result is known exactly: the matrix
    A; the 2^prec scaling of B, whose multipliers are integers, so B holds
    plain integers; tuple-keyed dicts (``H`` is a list of rows and ``B`` a
    list of columns, so a swap exchanges two references); and reductions
    whose multiplier rounds to 0.  A step changes H's diagonal only at rows
    m and m + 1, so |H_jj| and the row choice's float estimates are kept in
    two lists and refreshed there.  Two shortcuts reach mpmath's integers
    with less big-integer work:

    - the row choice screens the weights g^(i+1) |H_ii| in floats and
      multiplies out only the rows the screen cannot tell apart (``_pivot``);
    - the multiplier floor(H_ij / H_jj + 1/2), which mpmath rounds from a
      2*prec-bit quotient, is ``divmod``'s quotient plus 1 when twice the
      remainder reaches |H_jj| (``_round_div``).

    It stops at Ferguson, Bailey and Arno's bound: every relation m of the
    fixed-point vector has |m|_2 >= 2^prec / max_j |H_jj|, and one with
    max|c| < maxcoeff has |m|_2 < maxcoeff sqrt(n), so a failed search ends
    in fewer steps than pslq's, which waits for every |H_ij| to fall below
    2^prec / (100 maxcoeff).  A relation of an algebraic x only nearly
    vanishes there; the tests hold one at the height bound, at the fewest
    digits ``find_minpoly`` allows, to pslq's result.

    The name predates PSLQ: the benchmark's tracer counts the degrees
    ``find_minpoly`` tries by rebinding this module global, so it is looked
    up once per search and keeps its name until the benchmark changes.
    """
    n = len(xs)
    prec = ctx.prec + 60
    tol = ctx.to_fixed(ctx.convert(tol), prec)
    x = [ctx.to_fixed(ctx.mpf(v), prec) for v in xs]
    minx = min(abs(v) for v in x)
    if not minx:
        raise ValueError("PSLQ requires a vector of nonzero numbers")
    if minx < tol // 100:
        return None
    weights, floor = _pivot_weights(n, prec)
    bound = (1 << prec) // (maxcoeff * (isqrt(n) + 1))
    s, t = [0] * n, 0
    for k in range(n - 1, -1, -1):
        t += x[k] ** 2 >> prec
        s[k] = isqrt(t << prec)
    y = [(v << prec) // s[0] for v in x]
    s = [(v << prec) // s[0] for v in s]
    # mpmath's H is n x n, but its last column is never written: it stays 0
    H = [[0] * (n - 1) for _ in range(n)]
    for i in range(n):
        if i < n - 1 and s[i]:
            H[i][i] = (s[i + 1] << prec) // s[i]
        for j in range(i):
            if s[j] * s[j + 1]:
                H[i][j] = ((-y[i] * y[j]) << prec) // (s[j] * s[j + 1])
    B = [[int(i == j) for j in range(n)] for i in range(n)]
    shift = max(0, prec - _SCREEN_BITS)
    diag = [abs(H[j][j]) for j in range(n - 1)]
    est = [w * abs(float(H[j][j] >> shift)) for j, (_, w) in enumerate(weights)]
    # a step size-reduces each row i >= lo against rows min(i - 1, top)..0;
    # the set-up pass (step 0) reduces every row against every row above it
    lo, top = 1, n
    for step in range(PSLQ_MAXSTEPS + 1):
        for i in range(lo, n):
            Hi, Bi = H[i], B[i]
            for j in range(min(i - 1, top), -1, -1):
                dj = diag[j]
                if not dj:
                    # a zero pivot skips the row at set-up and, as mpmath's
                    # ZeroDivisionError, ends the row's reduction in a step
                    if step:
                        break
                    continue
                if 2 * abs(Hi[j]) < dj:
                    continue  # rounds to T = 0, which changes nothing
                Hj = H[j]
                T = _round_div(Hi[j], Hj[j])
                y[j] += T * y[i]
                for k in range(j + 1):
                    Hi[k] -= T * Hj[k]
                Bj = B[j]
                for k in range(n):
                    Bj[k] += T * Bi[k]
        if step:
            for yi, column in zip(y, B):
                if abs(yi) < tol and max(abs(c) for c in column) < maxcoeff:
                    return list(column)
            # every relation has norm >= 2^prec / max|H_jj| > maxcoeff sqrt(n)
            if max(diag) <= bound or step == PSLQ_MAXSTEPS:
                break
        m = _pivot(H, weights, prec, floor, est)
        y[m], y[m + 1] = y[m + 1], y[m]
        H[m], H[m + 1] = H[m + 1], H[m]
        B[m], B[m + 1] = B[m + 1], B[m]
        if m <= n - 3:
            a, b = H[m][m], H[m][m + 1]
            t0 = isqrt((a * a + b * b) >> prec << prec)
            if not t0:
                break
            t1, t2 = (a << prec) // t0, (b << prec) // t0
            m1 = m + 1
            for Hi in H[m:]:
                t3, t4 = Hi[m], Hi[m1]
                Hi[m] = (t1 * t3 + t2 * t4) >> prec
                Hi[m1] = (t1 * t4 - t2 * t3) >> prec
        # only rows m and m + 1 of the diagonal changed
        for j in range(m, min(m + 2, n - 1)):
            h = H[j][j]
            diag[j] = abs(h)
            est[j] = weights[j][1] * abs(float(h >> shift))
        lo, top = m + 1, m + 1
    return None


def _poly_mod(a: list, b: list) -> list:
    """Remainder of a by b; ascending Fraction coefficients, b's leading
    one nonzero (every remainder's is)."""
    a = a[:]
    while len(a) >= len(b):
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


# Relations up to this degree are put to the root-subset test (at most 2,509
# subsets, at degree 12); above it, only the descent settles their degree.
_SUBSET_MAX_DEGREE = 12
# Durand-Kerner sweeps before the iterates are taken as they are.
_ROOT_SWEEPS = 200
# Float bounds below are inflated by this factor, far above the rounding in
# computing them (under 60 units of 2^-53 for degree <= 12).
_SLACK = 1 + 2.0**-30


def _roots(coeffs) -> list:
    """Durand-Kerner (Weierstrass) iterates for the complex roots of the
    integer polynomial ``coeffs`` (ascending, degree >= 1, P(0) != 0), in
    Python complex floats.  They need not be accurate: ``_inclusion_radii``
    bounds their error."""
    e = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    # start on a circle of the roots' geometric mean modulus
    r = abs(monic[0]) ** (1 / e)
    z = [r * cmath.exp(1j * (0.4 + 2 * pi * k / e)) for k in range(e)]
    for _ in range(_ROOT_SWEEPS):
        settled = True
        for i, zi in enumerate(z):
            num = 0j
            for c in reversed(monic):
                num = num * zi + c
            den = prod(zi - zj for j, zj in enumerate(z) if j != i)
            w = num / den
            z[i] = zi - w
            settled = settled and abs(w) <= 2.0**-50 * abs(zi)
        if settled:
            break
    return z


def _abs_at(coeffs, z: complex) -> float:
    """|P(z)| for the integer polynomial ``coeffs`` at the float z: exact
    Horner at the dyadic rational z, each part rounded once."""
    (a, p), (b, q) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    den = max(p, q)  # both are powers of 2
    a, b = a * (den // p), b * (den // q)
    # P(z) den^k after k steps, with scale = den^k
    re, im, scale = coeffs[-1], 0, 1
    for c in reversed(coeffs[:-1]):
        scale *= den
        re, im = re * a - im * b + c * scale, re * b + im * a
    return hypot(re / scale, im / scale)


def _inclusion_radii(coeffs, z: list):
    """Radii rho_i such that each disk D(z_i, rho_i) holds exactly one root
    of P, or None when the disks cannot be shown disjoint.

    The Weierstrass correction W_i = P(z_i) / (lc(P) prod_{j != i} (z_i -
    z_j)) gives disks D(z_i - W_i, (e - 1)|W_i|) whose union holds every
    root, a connected group of m of them holding m roots (Gerschgorin's
    theorem for the e x e matrix diag(z) - W 1^T, whose characteristic
    polynomial is P / lc(P)).  D(z_i, e|W_i|) contains the i-th of them, so
    when these larger disks are disjoint, each holds exactly one root.
    P(z_i) is exact up to its final rounding (``_abs_at``).  Every difference
    z_i - z_j is kept within 2^(+-80), so no product of 11 of them leaves the
    normal float range, and the float bounds carry ``_SLACK``.
    """
    e = len(coeffs) - 1
    lc = float(coeffs[-1])
    radii = []
    for i, zi in enumerate(z):
        gaps = [zi - zj for j, zj in enumerate(z) if j != i]
        if not all(2.0**-80 <= abs(g) <= 2.0**80 for g in gaps):
            return None
        # 2^-1000 stands in for an |P(z_i)| or a W_i that underflowed
        w = (_abs_at(coeffs, zi) + 2.0**-1000) / (lc * abs(prod(gaps)))
        radii.append(e * max(w, 2.0**-1000) * _SLACK)
    for i, zi in enumerate(z):
        for j in range(i):
            if not abs(zi - z[j]) > (radii[i] + radii[j]) * _SLACK:
                return None
    return radii


def _near_integer(v: complex, bound: float) -> bool:
    """Whether some (real) integer lies within ``bound`` of v."""
    return abs(v.imag) <= bound and abs(v.real - round(v.real)) <= bound


def _exact_quotient(p, a):
    """p / a over Z for ascending integer coefficients, or None when a does
    not divide p there (a primitive: then Z and Q agree, by Gauss's lemma)."""
    p = list(p)
    q = [0] * (len(p) - len(a) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k], r = divmod(p[k + len(a) - 1], a[-1])
        if r:
            return None
        for i, c in enumerate(a):
            p[k + i] -= q[k] * c
    return None if any(p) else tuple(q)


def _factor(coeffs):
    """The root-subset irreducibility test (Cohen, *A Course in
    Computational Algebraic Number Theory*, GTM 138, section 3.5) for a
    normalized P with P(0) != 0: ``[P]`` when P is proved irreducible over
    Z, ``[A, P / A]`` for a factor A it finds, or None when it cannot tell.
    Any result also proves P square-free: its e inclusion disks are
    disjoint and each holds exactly one root.  A repeated root leaves the
    question open, because the disks around it cannot be shown disjoint.

    A factor A of P over Z is lc(A) prod_{r in S} (t - r) over a subset S of
    P's roots, |S| <= e/2 for one of A and P/A, and lc(A) divides lc(P), so
    lc(P) sum S and lc(P) prod S are integers.  Each subset's two values are
    screened against the nearest integer within their error bound, which
    follows from the inclusion disks.  No survivor proves P irreducible.  A
    survivor counts as a factor only after exact division: lc(P) prod (t -
    z_i) rounded to integers, made primitive, must divide P.  Overlapping
    disks, a bound of 1/2 or more, a survivor that does not divide, or a
    degree above ``_SUBSET_MAX_DEGREE`` leave the question open.
    """
    e = len(coeffs) - 1
    if e > _SUBSET_MAX_DEGREE:
        return None
    try:
        z = _roots(coeffs)
        radii = _inclusion_radii(coeffs, z)
    except (ZeroDivisionError, OverflowError, ValueError):  # iterates met or left the floats
        return None
    if radii is None:
        return None
    lc = coeffs[-1]
    mods = [abs(zi) for zi in z]
    if any(rho >= m for rho, m in zip(radii, mods)):
        return None
    # |prod r_i - prod z_i| <= prod |z_i| (exp(sum rho_i / |z_i|) - 1)
    rel = [rho / m for rho, m in zip(radii, mods)]
    for k in range(1, e // 2 + 1):
        for S in combinations(range(e), k):
            zs = [z[i] for i in S]
            b_sum = lc * sum(radii[i] + 2.0**-40 * mods[i] for i in S) * _SLACK
            b_prod = lc * prod(mods[i] for i in S) * _SLACK * (
                expm1(sum(rel[i] for i in S)) + 2.0**-40
            )
            if max(b_sum, b_prod) >= 0.5:
                return None
            if not (_near_integer(lc * sum(zs), b_sum) and _near_integer(lc * prod(zs), b_prod)):
                continue
            monic = [1 + 0j]  # prod (t - z_i), ascending
            for r in zs:
                monic = [a - r * b for a, b in zip([0] + monic, monic + [0])]
            factor = _normalize([round((lc * c).real) for c in monic])
            quotient = _exact_quotient(coeffs, factor)
            return None if quotient is None else [factor, quotient]
    return [tuple(coeffs)]


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

    The precondition is also the search precision: degree d is searched at
    10 d + 40 digits, with the tolerance 10^-(10 d + 25) that the accept
    rule gives at those digits.  Only a tiny x raises it, until the search's
    smallest power is 10 times its tolerance (at most prec.workdps digits).
    A relation's residual is still checked at the full precision against
    the accept tolerance.

    The lowest degree with an accepted candidate wins.  A search that fails
    at degree d rules out every degree <= d: a lower-degree relation is a
    degree-d one with zero top coefficients, and PSLQ gives up only once
    its bound on every relation's norm passes sqrt(d + 1) times the height
    bound, the largest norm of a relation within it.
    So degrees 4, 8, 16, ... (the first capped at the top degree) are
    probed until a relation turns up.  The ladder starts at 4 because the
    values recognized here are mostly of degree 2, 4 or 8: one degree-4
    search meets any relation of degree <= 4, where probes at 1 and 2 would
    fail for every value above them, while a first probe at 8 returns
    degree-7 and degree-8 multiples of quartics that the test below cannot
    always split.  A rational or a quadratic costs one search at 4 instead
    of one or two at 1 and 2.

    An accepted relation P is put to the root-subset test (``_factor``): if
    P is irreducible, no relation of lower degree exists and the search
    ends; if P splits, the factor that vanishes at x (residual below the
    accept tolerance, height within the bound) takes its place and is
    tested in turn.  A relation that is not accepted, or one the test
    cannot settle, is followed by a search at e - 1, e its degree, down to
    the first failure or to a degree already searched, whose result and
    descent are known.

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
        probe = d = min(4, top)
        best, failed, searched = None, 0, set()
        while True:
            searched.add(d)
            # the smallest power, x^d or 1, at least 10 times the search's
            # tolerance: PSLQ gives up on one below tolerance / 100.  At the
            # working digits every power kept above clears that exit
            dps = max(10 * d + 40, 16 + ceil((1 - ctx.mag(xs[d])) * log10(2)))
            sctx = PrecisionSpec(min(dps, prec.workdps), 0).context()
            search_tol = sctx.mpf(10) ** (15 - sctx.dps)
            relation = _lll_reduce(sctx, xs[: d + 1], search_tol, height_bound + 1)
            if relation is None:
                failed = d
            else:
                while relation[0] == 0:
                    relation = relation[1:]  # x != 0: divided by t, still one
                cs = _normalize(relation)
                residual = verify_root(cs, xv, prec)
                # a result of _factor proves cs square-free; the gcd runs
                # only where it cannot tell
                if residual < accept_tol and ((factors := _factor(cs)) or _is_squarefree(cs)):
                    best = cs, residual
                    # a factor of a square-free P is square-free; the one
                    # that vanishes at x replaces P when it passes the rest
                    while factors and len(factors) == 2:
                        res, f = min((verify_root(g, xv, prec), g) for g in factors)
                        if res >= accept_tol or max(map(abs, f)) > height_bound:
                            factors = None
                            break
                        cs, residual = f, res
                        best = cs, residual
                        factors = _factor(cs)
                    if factors:
                        break  # cs is irreducible: no relation of lower degree
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
        high = prec.bumped(30)
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
