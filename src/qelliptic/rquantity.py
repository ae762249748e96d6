"""The two-parameter quantity R*(a,b,p;q) = [a,p;q]/[b,p;q], its prefactored
companion R = q^(-(a-b)/2 + (a^2-b^2)/(2p)) R*, four independent evaluation
routes (product, theta quotient, exponential sum, character product), the
tau quantities built on the bilateral sum psi*, and the q-derivative of R.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import mpf_exp, mpf_log, mpf_mul, to_fixed

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
    tail_eps,
)
from .qfunctions import AgileParams, _fraction, _qpowers, agile, psi_star, qpow, theta3, theta4


@dataclass(frozen=True)
class RQParams:
    """Exponents a, b and period p > 0.  Product-route evaluation needs
    Re(a), Re(b) in (0, p); the theta-sum route takes any complex a, b."""

    a: object
    b: object
    p: object

    def __post_init__(self) -> None:
        p = self.p
        if isinstance(p, (int, float, Fraction)) and p <= 0:
            raise DomainError(f"period p must be positive, got {p!r}")


@dataclass(frozen=True)
class Chi2Character:
    """Exponent pattern of the character product: period p, distinguished
    residues a and b (integers with 0 < a, b < p).

    exponent(n) adds +1 for each of n = a, p-a (mod p) and -1 for each of
    n = b, p-b (mod p); multiples of p get 0.  Contributions are summed, so
    a residue hit twice (e.g. a = p-a) counts twice.
    """

    a: int
    b: int
    p: int

    def __post_init__(self) -> None:
        if not all(isinstance(v, int) for v in (self.a, self.b, self.p)):
            raise DomainError("character parameters must be integers")
        if not (0 < self.a < self.p and 0 < self.b < self.p):
            raise DomainError(
                f"need 0 < a, b < p, got a={self.a}, b={self.b}, p={self.p}"
            )

    def exponent(self, n: int) -> int:
        m = n % self.p
        if m == 0:
            return 0
        e = 0
        e += 1 if m == (self.p - self.a) % self.p else 0
        e -= 1 if m == (self.p - self.b) % self.p else 0
        e += 1 if m == self.a else 0
        e -= 1 if m == self.b else 0
        return e

    @property
    def values(self) -> dict:
        return {m: self.exponent(m) for m in range(self.p)}


@memoized
def rq_star(params: RQParams, q, prec: PrecisionSpec, route: str | None = None):
    """R*(a,b,p;q) = [a,p;q] / [b,p;q]."""
    numer = agile(AgileParams(params.a, params.p), q, prec, route=route)
    denom = agile(AgileParams(params.b, params.p), q, prec, route=route)
    if denom == 0:
        raise ZeroDivisionError(
            f"[b,p;q] is exactly zero at b={params.b}, p={params.p}"
        )
    return numer / denom


@memoized
def rq(params: RQParams, q, prec: PrecisionSpec):
    """R(a,b,p;q) = q^(-(a-b)/2 + (a^2-b^2)/(2p)) * R*(a,b,p;q)."""
    ctx = prec.context()
    a = cv(ctx, params.a)
    b = cv(ctx, params.b)
    p = cv(ctx, params.p)
    exponent = -(a - b) / 2 + (a * a - b * b) / (2 * p)
    return qpow(ctx, q, exponent) * rq_star(params, q, prec)


@memoized
def rq_theta(a, b, p, x, prec: PrecisionSpec, route: str = "theta"):
    """R(a,b,p;e^(-x)) for real p, x > 0 and a, b in (0, p), by theta
    quotient:

        exp(-x(a^2-b^2)/(2p) + x(a-b)/2)
        * theta4((p-2a) i x/4, e^(-px/2)) / theta4((p-2b) i x/4, e^(-px/2)).

    route="expsum" evaluates the equivalent exponential-sum form

        prefactor * exp(- sum_{n>=1} (1/n)
            (e^(anx) + e^((p-a)nx) - e^(bnx) - e^((p-b)nx)) / (e^(pnx) - 1)),

    its numerator and denominator divided by e^(pnx), so that the five
    bases e^(-(p-a)x), e^(-ax), e^(-(p-b)x), e^(-bx) and e^(-px) all lie
    below 1.  They are computed once, raised to the n-th power by one
    multiplication per term, and the terms are summed in fixed-point
    integers by ``_settle``.  The two routes (and the product route of
    ``rq``) agree; the suite asserts that.

    Outside a, b in (0, p) the theta route fails its growth guard and the
    exponential sum diverges, so both routes raise DomainError there
    before any work.
    """
    ctx = prec.context()
    a = cv(ctx, a)
    b = cv(ctx, b)
    p = cv(ctx, p)
    x = cv(ctx, x)
    for name, v in (("a", a), ("b", b), ("p", p), ("x", x)):
        if ctx.im(v) != 0 or v <= 0:
            raise DomainError(f"{name} must be positive real, got {v}")
    if not (a < p and b < p):
        raise DomainError(f"rq_theta needs a and b in (0, p), got a={a}, b={b}, p={p}")
    prefactor = ctx.exp(-x * (a * a - b * b) / (2 * p) + x * (a - b) / 2)
    if route == "theta":
        qq = ctx.exp(-p * x / 2)
        zn = (p - 2 * a) * ctx.mpc(0, 1) * x / 4
        zd = (p - 2 * b) * ctx.mpc(0, 1) * x / 4
        value = prefactor * theta4(zn, qq, prec) / theta4(zd, qq, prec)
        return ctx.re(value) if abs(ctx.im(value)) < prec.target_eps(ctx) else value
    if route == "expsum":
        wp = ctx.prec + _FIXED_GUARD
        one = 1 << wp
        bases = [to_fixed(ctx.exp(-e * x)._mpf_, wp) for e in (p - a, a, p - b, b, p)]

        def terms():
            powers = bases
            for n in itertools.count(1):
                pa, ppa, pb, ppb, pp = powers
                yield ((pa + ppa - pb - ppb) << wp) // (n * (one - pp))
                powers = [v * w >> wp for v, w in zip(powers, bases)]

        s, _ = _settle(ctx, prec.work_eps(ctx), terms(), wp=wp)
        return prefactor * ctx.exp(-_from_fixed(ctx, s, wp))
    raise DomainError(f"unknown route {route!r}")


@memoized
def rq_charprod(a: int, b: int, p: int, q, prec: PrecisionSpec):
    """R*(a,b,p;q) as prod_{n>=1} (1-q^n)^(exponent(n)) over the character
    pattern of Chi2Character(a, b, p), one factor per n with a nonzero
    exponent (an exact 1 would count as negligible to the stopping rule).
    At real q the factors are fixed-point integers, which ``_settle``
    multiplies and renormalizes; complex q multiplies them in ctx's numbers.
    """
    exponents = Chi2Character(a, b, p).values
    ctx = prec.context()
    q = cv_real(ctx, q)
    if abs(q) >= 1:
        raise DomainError(f"character product needs |q| < 1, got |q| = {abs(q)}")
    if not any(exponents.values()):
        return ctx.mpf(1)
    nonzero = ((n, exponents[n % p]) for n in itertools.count(1) if exponents[n % p])
    if isinstance(q, ctx.mpc):
        power = _qpowers(ctx, q)
        factors = ((1 - power(n)) ** e for n, e in nonzero)
        return _settle(ctx, prec.work_eps(ctx), factors, product=True)
    wp = ctx.prec + _FIXED_GUARD
    one, power = 1 << wp, _qpowers(ctx, q, wp)

    def factor(n, e):  # (1 - q^n)^e
        f = (one - power(n)) ** abs(e)
        return f >> (e - 1) * wp if e > 0 else (one << -e * wp) // f

    factors = (factor(n, e) for n, e in nonzero)
    return _settle(ctx, tail_eps(ctx, abs(q)), factors, product=True, wp=wp)


@memoized
def tau_star(a, p, q, prec: PrecisionSpec):
    """tau*(a,p;q) = sqrt(pi/K) * q^(a^2/(2p) - a/2 + p/8) * psi*(a,p;q),
    where K is the period integral attached to the nome q.  Since
    K = (pi/2) theta3(0, q)^2, the prefactor is sqrt(2)/theta3(0, q).

    Evaluated through the bilateral sum psi*, which is entire in a; the
    equivalent product quotient form has removable 0/0 points at integer a.
    """
    ctx = prec.context()
    qv = cv(ctx, q)
    if ctx.im(qv) != 0 or not (0 < qv < 1):
        raise DomainError(f"tau* needs real q in (0, 1), got {qv}")
    a = cv(ctx, a)
    p = cv(ctx, p)
    pref = ctx.sqrt(2) / theta3(0, qv, prec)
    expo = a * a / (2 * p) - a / 2 + p / 8
    return pref * qpow(ctx, qv, expo) * psi_star(a, p, qv, prec)


@memoized
def tau0(a, q, prec: PrecisionSpec):
    """tau0(a, q) = tau*(a, 1; q)."""
    return tau_star(a, 1, q, prec)


@memoized
def drq_dq(params: RQParams, q, prec: PrecisionSpec):
    """dR(a,b,p;q)/dq, analytically, for real a, b in (0, p), real q in (0,1).

    Differentiates log R termwise: with C = -(a-b)/2 + (a^2-b^2)/(2p) and
    h(m) = m q^(m-1)/(1 - q^m),

        R'(q) = R(q) [ C/q - sum_{n>=0} (h(pn+a) + h(pn+p-a)
                                         - h(pn+b) - h(pn+p-b)) ],

    the bracket by ``_log_derivative``.  Where C/q and the sum cancel past
    half the guard digits, ``numerics._resummed`` sums the bracket again
    with more digits, at most prec.workdps more: it is exactly zero at
    b = p - a, where every term of the sum and C vanish.

    Cross-checked against a central difference with step 10^(-digits/2)
    computed at raised working precision; disagreement beyond
    10^(-digits/3) raises CrossCheckFailure.
    """
    ctx = prec.context()
    a, b, p, qv = (cv_real(ctx, v) for v in (params.a, params.b, params.p, q))
    for name, v in (("a", a), ("b", b), ("p", p)):
        if isinstance(v, ctx.mpc):
            raise DomainError(f"{name} must be real for the derivative, got {v}")
    if isinstance(qv, ctx.mpc) or not (0 < qv < 1):
        raise DomainError(f"derivative needs real q in (0, 1), got {qv}")
    if a == b:
        return ctx.mpf(0)
    if not (0 < a < p and 0 < b < p):
        raise DomainError("derivative route needs a, b in (0, p)")

    fa, fb, fp = (_fraction(v) for v in (a, b, p))
    c = (fa - fb) * (fa + fb - fp) / (2 * fp)
    signed = [(a, 1), (ctx.fsub(p, a, exact=True), 1), (b, -1), (ctx.fsub(p, b, exact=True), -1)]
    bracket = _resummed(prec, lambda pr: _log_derivative(pr.context(), c, signed, p, qv), cap=prec.workdps)
    value = rq(params, qv, prec) * bracket

    # Independent confirmation by central difference at raised precision.
    cd_prec = prec.bumped(prec.digits // 2 + 20)
    cctx = cd_prec.context()
    step = cctx.mpf(10) ** (-(prec.digits // 2))
    qc = cv(cctx, qv)
    upper = rq(params, qc + step, cd_prec)
    lower = rq(params, qc - step, cd_prec)
    central = (upper - lower) / (2 * step)
    tol = ctx.mpf(10) ** (-(prec.digits // 3))
    if abs(central - cv(cctx, value)) > tol * max(cctx.mpf(1), abs(central)):
        raise CrossCheckFailure(
            f"analytic derivative {value} vs central difference {central}"
        )
    return value


def _log_derivative(ctx, c, signed, p, q):
    """(c - sum_{n>=0} sum_{(e, s) in signed} s g(pn+e)) / q, g(m) = m q^m /
    (1 - q^m), for a Fraction c, exponents e in (0, p) with signs s = +1 or
    -1, mpf e and p, and q in (0, 1), in fixed-point integers rounded once:
    c exactly, and each q^e from a ln q at wp + 10 bits, then advancing by
    q^p per term.  With c = C and the exponents a, p-a (+) and b, p-b (-)
    it is R'(q) / R(q); with the exponent of q^e [a,p;q] and a, p-a (+) it
    is that function's log-derivative.  Returns it with the digits c and
    the sum cancel, counted from the larger of |c| and the sum's largest
    term."""
    wp = ctx.prec + _FIXED_GUARD
    one, lp, log_q = 1 << wp, wp + 10, mpf_log(q._mpf_, wp + 10)
    exps = [e._mpf_ for e, _ in signed] + [p._mpf_]
    signs = [s for _, s in signed]
    *ms, p_fixed = [to_fixed(e, wp) for e in exps]
    *powers, step = [to_fixed(mpf_exp(mpf_mul(e, log_q, lp), wp), wp) for e in exps]

    def terms():
        m, x = ms, powers
        while True:
            yield sum(s * (mi * xi // (one - xi)) for s, mi, xi in zip(signs, m, x))
            m, x = [mi + p_fixed for mi in m], [xi * step >> wp for xi in x]

    total, lost = _settle(ctx, tail_eps(ctx, _from_fixed(ctx, step, wp)), terms(), wp=wp)
    c = (c.numerator << wp) // c.denominator
    diff = c - total
    if not diff:
        return ctx.zero, math.inf
    # _settle counts its loss from the sum's largest term, 10^lost |total|
    peak = lost + math.log10(abs(total)) if total else 0.0
    lost = max(peak, math.log10(abs(c) or 1)) - math.log10(abs(diff))
    return _from_fixed(ctx, (diff << wp) // to_fixed(q._mpf_, wp), wp), lost


@memoized
def drq_normalized(params: RQParams, q, prec: PrecisionSpec):
    """R'(a,b,p;q) * q pi^2 / K^2 with K the period integral at the nome q.
    Since K = (pi/2) theta3(0, q)^2, the factor pi^2 / K^2 is
    4 / theta3(0, q)^4.

    This is the normalization under which the derivative values at singular
    nomes are algebraic numbers; it is what the minimal-polynomial command
    exposes as "drq-normalized".
    """
    ctx = prec.context()
    qv = cv(ctx, q)
    return drq_dq(params, qv, prec) * qv * 4 / theta3(0, qv, prec) ** 4
