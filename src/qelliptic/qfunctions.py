"""q-series building blocks: Pochhammer products, Euler and Weber products,
Jacobi theta functions, shifted bilateral Gaussian sums, and the two-sided
product quantity [a,p;q] with its theta-sum twin.

Sign convention used throughout: ``euler_f(q)`` and ``weber_phi(q)`` return
the products (q;q)_inf and (-q;q)_inf, i.e. the classical symbols f(-q) and
phi(-q) evaluated so that the caller passes plain q.  ``qpow`` gives an
integer power of q as q ** n, multiplied out; any other power is
e^(x*ln q) on the principal branch, never root extraction.  No
series loop calls exp or log per term: the integer powers a loop walks
through come from ``_qpowers`` or from a running product, and a term of a
bilateral sum from its neighbour times a ratio that itself advances by
multiplication.  Infinite sums and products reach ``numerics._settle`` as
generators of numbers of the working context, except the Gaussian sums
(``_theta_series`` and ``_bilateral_halfsquare``), whose terms fall like
|q|^(n^2): they stop at ``numerics.gaussian_cutoff``, known before the
first term, because a per-term test costs more there than it saves.

Each kernel has one route per input type.  For real a and q with |a| < 1,
``pochhammer(a, q, inf)`` sums Euler's series in fixed-point Python
integers, which ``_settle`` adds as integers before the total is rounded
once; every other input multiplies out the product in ctx's numbers.  For
real q, ``_theta_series`` sums in integers and rounds once at the end, as
mpmath's jtheta does; complex q takes the bilateral sum in mpc numbers.
``_bilateral_halfsquare`` likewise walks in integers at real q in (0, 1)
with a real period and linear coefficient, and in ctx's numbers otherwise.
Euler's series, the theta series and ``agile``'s theta sum report the
digits their terms cancel, and ``numerics._resummed`` sums them again with
more digits until the loss fits in half the guard digits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (
    mpf_abs,
    mpf_add,
    mpf_cos,
    mpf_cos_sin,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sub,
    to_fixed,
    to_float,
    to_rational,
)

from .numerics import (
    _FIXED_GUARD,
    DomainError,
    NonConvergence,
    PrecisionSpec,
    _from_fixed,
    _resummed,
    _settle,
    cv,
    gaussian_cutoff,
)

INF = math.inf


@dataclass(frozen=True)
class AgileParams:
    """Exponent a (may be complex) and period p > 0 for the [a,p;q] quantity.

    The product representation needs Re(a) in (0, p); the theta-sum
    representation accepts any complex a.
    """

    a: object
    p: object

    def __post_init__(self) -> None:
        p = self.p
        pr = p if isinstance(p, (int, float, Fraction)) else None
        if pr is not None and pr <= 0:
            raise DomainError(f"period p must be positive, got {p!r}")


def qpow(ctx, q, x):
    """q**x on the principal branch. Exact 0^0 = 1 and 0^x = 0 for
    Re(x) > 0; any other power of 0 raises DomainError.

    An integer-valued real x gives q ** n, which mpmath multiplies out
    exactly or with guard bits growing like log2(n), and rounds once (a
    real q < 0 stays real); any other x gives e^(x*ln q)."""
    q = cv(ctx, q)
    x = cv(ctx, x)
    if q == 0:
        if x == 0:
            return ctx.mpf(1)
        if ctx.re(x) > 0:
            return ctx.mpf(0)
        raise DomainError(f"0^x is not defined for Re(x) <= 0, got x = {x}")
    if isinstance(x, ctx.mpf) and ctx.isint(x):
        return q ** int(x)
    return ctx.exp(x * ctx.log(q))


def _qpowers(ctx, q, wp: int | None = None):
    """m -> q^m for integers m >= 0, read from a table that grows by one
    multiplication per new m (q must already be a number of ``ctx``).

    Used where a loop needs q^1, q^2, ... in turn: m multiplications cost
    far less than m exp/log pairs and lose at most m ulps, which the guard
    digits absorb.  With ``wp`` given, q must be real and the powers are
    fixed-point integers scaled by 2^wp, losing at most m units of 2^-wp.
    """
    table = [ctx.mpf(1), q] if wp is None else [1 << wp, to_fixed(q._mpf_, wp)]
    base = table[1]

    def power(m: int):
        while len(table) <= m:
            table.append(table[-1] * base if wp is None else table[-1] * base >> wp)
        return table[m]

    return power


def pochhammer(a, q, n, prec: PrecisionSpec):
    """(a; q)_n = prod_{k=0}^{n-1} (1 - a q^k); n may be math.inf.

    For n = inf with real a and q and |a| < 1 strictly, Euler's identity

        (a; q)_inf = sum_{n>=0} (-a)^n q^(n(n-1)/2) / (q; q)_n

    (Gasper and Rahman, Basic Hypergeometric Series, eq. (1.3.16)) is
    summed instead, in fixed-point integers: its terms fall like
    |q|^(n^2/2), so it needs about the square root of the factor count.
    Its stopping rule is absolute, so it loses about
    log10(max |t_n| / |total|) digits to cancellation (near |q| = 1 a tiny
    product is the sum of huge terms); ``numerics._resummed`` sums it again
    with those digits, which resolves it because (a; q)_inf has no zero
    at |a| < 1.  Every other input, |a| >= 1 (where a = q^(-k) gives an
    exact zero) or complex a or q, multiplies out the product in ctx's
    numbers.

    Euler's identity is not the Jacobi triple product: checks that set a
    product against a theta series, and ``psi_small`` against
    ``psi_small_product``, still compare two different routes.
    """
    ctx = prec.context()
    a_in, q_in = a, q
    a = cv(ctx, a)
    q = cv(ctx, q)
    if n is None or n == INF:
        if abs(q) >= 1:
            raise DomainError(f"(a;q)_inf needs |q| < 1, got |q| = {abs(q)}")
        if abs(a) < 1 and not (isinstance(a, ctx.mpc) or isinstance(q, ctx.mpc)):
            return _resummed(prec, lambda p: _euler_series(p, a_in, q_in))
        power = _qpowers(ctx, q)
        factors = (1 - a * power(m) for m in itertools.count())
        return _settle(ctx, prec.work_eps(ctx), factors, product=True)
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"n must be a non-negative integer or math.inf, got {n!r}")
    total = ctx.mpf(1)
    power = ctx.mpf(1)
    for _ in range(n):
        total = total * (1 - a * power)
        power = power * q
    return total


def _euler_series(prec: PrecisionSpec, a, q):
    """Euler's series for (a; q)_inf at real a and q, |a| < 1, with every
    term advanced in fixed-point integers (value * 2^wp, wp = ctx.prec +
    ``_FIXED_GUARD``) and added by ``_settle`` as integers; returns the
    total, rounded once, and ``_settle``'s reading of the digits it lost to
    cancellation."""
    ctx = prec.context()
    wp = ctx.prec + _FIXED_GUARD
    one = 1 << wp
    a_fixed, q_fixed = (to_fixed(cv(ctx, v)._mpf_, wp) for v in (a, q))

    def terms():
        term, qm = one, one  # t_m and q^m
        while True:
            yield term
            qm1 = qm * q_fixed >> wp
            term = term * (-a_fixed * qm >> wp) // (one - qm1)
            qm = qm1

    total, lost = _settle(ctx, prec.work_eps(ctx), terms(), wp=wp)
    return _from_fixed(ctx, total, wp), lost


def euler_f(q, prec: PrecisionSpec):
    """(q; q)_inf, the Euler product (classically the symbol f(-q))."""
    return pochhammer(q, q, INF, prec)


def weber_phi(q, prec: PrecisionSpec):
    """(-q; q)_inf (classically the symbol phi(-q))."""
    ctx = prec.context()
    return pochhammer(-cv(ctx, q), q, INF, prec)


def _theta_guard(ctx, z, q):
    """Common validation for theta series; returns (z, q, L, t).

    L = |ln|q||, t = |Im z|.  Raises when terms q^(n^2) e^(2inz) would not
    decay fast enough to sum: the documented precondition is |q| e^(2|Im z|)
    strictly below 1.
    """
    z = cv(ctx, z)
    q = cv(ctx, q)
    qa = abs(q)
    if qa >= 1:
        raise DomainError(f"theta series need |q| < 1, got |q| = {qa}")
    t = abs(ctx.im(z))
    if qa > 0 and qa * ctx.exp(2 * t) >= 1:
        raise NonConvergence(
            f"growth guard: |q| e^(2|Im z|) = {qa * ctx.exp(2 * t)} >= 1"
        )
    L = float(-ctx.log(qa)) if qa > 0 else INF
    return z, q, L, float(t)


def theta3(z, q, prec: PrecisionSpec):
    """theta_3(z, q) = 1 + 2 sum_{n>=1} q^(n^2) cos(2 n z)."""
    return _theta_series(prec, z, q, 1)


def theta4(z, q, prec: PrecisionSpec):
    """theta_4(z, q) = 1 + 2 sum_{n>=1} (-1)^n q^(n^2) cos(2 n z)."""
    return _theta_series(prec, z, q, -1)


def _theta_series(prec: PrecisionSpec, z, q, s: int):
    """1 + 2 sum_{n>=1} s^n q^(n^2) cos(2 n z), s = 1 or -1, summed to the
    Gaussian cutoff of the working precision: in fixed-point integers for
    real q, and for complex q as the bilateral sum of s^n q^(n^2) e^(2inz)
    by ``_bilateral_halfsquare``, returned as an mpc, q = 0 included.

    The cutoff bounds the error relative to 1, and theta4(0, q) near q = 1
    is a tiny sum of O(1) terms.  The growth guard 2|Im z| < L = |ln|q||
    makes |q^(n^2) e^(2inz)| <= e^(-L n (n-1)) fall from n = 0, so
    sum |term| <= 3 + sqrt(pi/L) is known before the first term, and
    ``numerics._resummed`` sums again with the digits the total falls
    short of it.  That ends because theta3 and theta4 vanish at no mpf or
    mpc input: a zero needs e^(2iz) = -q^(2n+1) or q^(2n+1), but e^(2iz) is
    transcendental for z != 0, and z = 0 needs |q| = 1.
    """

    def summed(p: PrecisionSpec):
        ctx = p.context()
        z_, q_, L, t = _theta_guard(ctx, z, q)
        if isinstance(q_, ctx.mpc):
            # q^(n^2) e^(2inz) = q^(2 n^2 / 2 + (4iz / ln q) n / 2)
            lin = 4j * z_ / ctx.log(q_) if q_ else 0
            total = ctx.mpc(_bilateral_halfsquare(ctx, lin, 2, q_, signed=s < 0)[0])
        else:
            total = _theta_sum_fixed(ctx, z_, q_, s, gaussian_cutoff(ctx.dps, L, t), L, t)
        return total, _gaussian_lost(ctx, total, L)

    return _resummed(prec, summed)


def _gaussian_lost(ctx, total, L: float, c: float = 0.0) -> float:
    """The digits lost by a Gaussian sum that came to total, from a bound
    known before its first term: terms of size at most e^(-L n^2 - c n)
    peak at e^(c^2 / (4L)) and sum to below that times 3 + sqrt(pi / L)."""
    mag_total = ctx.mag(total) if total else -ctx.prec  # 0 is below one ulp
    bound = c * c / (4 * L) / math.log(2) + math.log2(3 + math.sqrt(math.pi / L))
    return (bound - mag_total) * math.log10(2)


def _theta_sum_fixed(ctx, z, q, s: int, n_cut: int, L: float, t: float):
    """The theta series for real q, its terms advanced by recurrences in
    fixed-point integers (value * 2^wp) and rounded once at the end, as
    mpmath's jtheta does.  term = s^n q^(n^2) advances by the ratio
    s q^(2n+1), which advances by q^2; cos(2nz) follows the Chebyshev
    recurrence in cos(2z).

    For complex z, cos(2nz) grows like e^(2nt) (t = |Im z|), far past what
    the truncated q^(n^2) can be multiplied by, so the recurrence runs on
    the (re, im) integer pair of cos(2nz) e^(-2nt), bounded by 1, and term
    carries e^(2nt) instead.  That term, e^(2nt - n^2 L) with L = |ln|q||,
    peaks below e^(t^2 / L), so wp gains t^2 / (L ln 2) bits for it.
    """
    wp = ctx.prec + _FIXED_GUARD
    complex_z = isinstance(z, ctx.mpc)
    if complex_z:
        wp += int(t * t / (L * math.log(2))) + 1
    one = 1 << wp
    term = one
    ratio = s * to_fixed(q._mpf_, wp)
    q2 = ratio * ratio >> wp
    if not complex_z:
        c1 = to_fixed(mpf_cos(mpf_shift(z._mpf_, 1), wp), wp)
        cos_prev, cos_n, total = one, c1, 0
        for _ in range(n_cut):
            term = term * ratio >> wp
            ratio = ratio * q2 >> wp
            total += term * cos_n >> wp
            cos_prev, cos_n = cos_n, (c1 * cos_n >> (wp - 1)) - cos_prev
        return _from_fixed(ctx, one + 2 * total, wp)
    x, y = z._mpc_
    two_t = mpf_shift(mpf_abs(y), 1)
    # s q e^(2t) as one wp-bit product: its error stays 2^-wp however small
    # q is and however large e^(2t)
    ratio = s * to_fixed(mpf_mul(q._mpf_, mpf_exp(two_t, wp), wp), wp)
    shrink2 = to_fixed(mpf_exp(mpf_neg(mpf_shift(two_t, 1)), wp), wp)  # e^(-4t)
    # cos(2z) e^(-2t) = cos 2x (1 + e^(-4t))/2 - i sgn(y) sin 2x (1 - e^(-4t))/2
    cos_2x, sin_2x = (to_fixed(v, wp) for v in mpf_cos_sin(mpf_shift(x, 1), wp))
    c1_re = cos_2x * (one + shrink2) >> (wp + 1)
    c1_im = sin_2x * (one - shrink2) >> (wp + 1)
    if not y[0]:  # y >= 0
        c1_im = -c1_im
    re_prev, im_prev, re_n, im_n = one, 0, c1_re, c1_im
    total_re = total_im = 0
    for _ in range(n_cut):
        term = term * ratio >> wp
        ratio = ratio * q2 >> wp
        total_re += term * re_n >> wp
        total_im += term * im_n >> wp
        re_next = ((c1_re * re_n - c1_im * im_n) >> (wp - 1)) - (shrink2 * re_prev >> wp)
        im_next = ((c1_re * im_n + c1_im * re_n) >> (wp - 1)) - (shrink2 * im_prev >> wp)
        re_prev, im_prev, re_n, im_n = re_n, im_n, re_next, im_next
    return ctx.mpc(_from_fixed(ctx, one + 2 * total_re, wp), _from_fixed(ctx, 2 * total_im, wp))


def theta4_product(z, q, prec: PrecisionSpec):
    """Triple-product form of theta_4:

    prod_{n>=1} (1 - q^(2n)) (1 - 2 q^(2n-1) cos(2z) + q^(4n-2)).

    Kept as an independent route so the series form can be cross-checked.
    """
    ctx = prec.context()
    z, q, _, _ = _theta_guard(ctx, z, q)
    c = ctx.cos(2 * z)
    power = _qpowers(ctx, q)

    def factors():
        for n in itertools.count(1):
            qodd = power(2 * n - 1)
            yield (1 - power(2 * n)) * (1 - 2 * qodd * c + qodd * qodd)

    return _settle(ctx, prec.work_eps(ctx), factors(), product=True)


def theta2(q, prec: PrecisionSpec):
    """theta_2(0, q) = 2 q^(1/4) sum_{n>=0} q^(n(n+1)) = q^(1/4) S_1, since
    n and -1-n give the same term of S_1 = sum_{n in Z} q^(n^2 + n)."""
    ctx = prec.context()
    q = cv(ctx, q)
    return qpow(ctx, q, Fraction(1, 4)) * _bilateral_halfsquare(ctx, 2, 2, q, signed=False)[0]


def theta_sum_S(z, q, prec: PrecisionSpec):
    """S_z = sum over all integers n of q^(n^2 + z n); z may be complex."""
    ctx = prec.context()
    return _bilateral_halfsquare(ctx, 2 * cv(ctx, z), 2, q, signed=False)[0]


def _bilateral_halfsquare(ctx, coeff_lin, p, q, signed: bool):
    """sum over n in Z of s^n * q^(p n^2 / 2 + coeff_lin * n / 2), s = -1 or 1.

    Shared engine for theta_sum_S (p = 2), theta2, the theta-sum route of
    [a,p;q] and psi_star; the quadratic coefficient is p/2.  At q = 0 only
    the n = 0 term is kept, which gives 1.  Returns the sum and the digits
    it lost to cancellation, by ``_gaussian_lost``.

    The terms are walked out from n = 0 in both directions by
    multiplication: term(n +- 1) / term(n) starts at
    s e^((p/2 +- coeff_lin/2) ln q) and gains a factor Q = e^(p ln q) per
    step.  Three exp calls and one ln q at the walk's precision per sum,
    whatever the number of terms; exp turns the sum of exponents into the
    product exactly, so the branch is the principal one of the closed form.

    For real q in (0, 1) and real p and coeff_lin the walk runs in
    fixed-point integers (value * 2^wp) and the total is rounded once, as
    in ``_theta_sum_fixed``.  Terms e^(-L n^2 - c n) peak at e^(c^2 / (4L)),
    so wp gains c^2 / (4L ln 2) bits beyond ``_FIXED_GUARD``, and ln q is
    taken at wp: an ln q rounded at ctx.prec would pass its error, times an
    exponent as large as the peak's, to every term.  Complex q, p or
    coeff_lin walk in ctx's numbers.
    """
    q = cv(ctx, q)
    p = cv(ctx, p)
    b = cv(ctx, coeff_lin)
    qa = abs(q)
    if qa >= 1:
        raise DomainError(f"bilateral Gaussian sum needs |q| < 1, got |q| = {qa}")
    if q == 0:
        return ctx.mpf(1), 0.0
    if all(isinstance(v, ctx.mpf) for v in (q, p, b)) and q > 0:
        return _bilateral_fixed(ctx, b, p, q, signed)
    logq = ctx.log(q)
    L, c, n_cut = _gaussian_shape(ctx, float(-ctx.re(p * logq)), float(-ctx.re(b * logq)))
    step = ctx.exp(p * logq)
    total = ctx.mpf(1)
    for sign in (1, -1):
        ratio = ctx.exp((p + sign * b) / 2 * logq)
        if signed:
            ratio = -ratio
        term = ctx.mpf(1)
        for _ in range(n_cut):
            term = term * ratio
            ratio = ratio * step
            total = total + term
    return total, _gaussian_lost(ctx, total, L, c)


def _gaussian_shape(ctx, p_lam: float, b_lam: float):
    """L, c and the terms to walk each way for |term| = e^(-L n^2 - c n),
    from -Re(p ln q) and -Re(coeff_lin ln q); raises unless L > 0.  The
    linear term shifts the peak, so the cutoff widens by the peak offset."""
    if p_lam <= 0:
        raise DomainError("bilateral Gaussian sum needs Re(p ln q) < 0")
    L, c = p_lam / 2.0, b_lam / 2.0
    return L, c, gaussian_cutoff(ctx.dps, L, abs(c) / 2.0) + math.ceil(abs(c) / (2 * L)) + 1


def _bilateral_fixed(ctx, b, p, q, signed: bool):
    """``_bilateral_halfsquare`` at real q in (0, 1), real p and real b, in
    fixed-point integers.  The cutoff and wp need only a float ln q; the
    ratios take ln q at wp + 10 bits."""
    lam = -to_float(mpf_log(q._mpf_, 53))
    L, c, n_cut = _gaussian_shape(ctx, float(p) * lam, float(b) * lam)
    wp = ctx.prec + _FIXED_GUARD + math.ceil(c * c / (4 * L * math.log(2))) + 1
    lp = wp + 10
    logq = mpf_log(q._mpf_, lp)

    def fixed_qpow(x):  # e^(x ln q) at wp, x an exact mpf
        return to_fixed(mpf_exp(mpf_mul(x, logq, lp), lp), wp)

    one = 1 << wp
    p_, b_ = p._mpf_, b._mpf_
    step = fixed_qpow(p_)
    total = one
    for x in (mpf_add(p_, b_), mpf_sub(p_, b_)):
        ratio = fixed_qpow(mpf_shift(x, -1))
        if signed:
            ratio = -ratio
        term = one
        for _ in range(n_cut):
            term = term * ratio >> wp
            ratio = ratio * step >> wp
            total += term
    total = _from_fixed(ctx, total, wp)
    return total, _gaussian_lost(ctx, total, L, c)


def agile(params: AgileParams, q, prec: PrecisionSpec, route: str | None = None):
    """[a,p;q] = (q^(p-a); q^p)_inf * (q^a; q^p)_inf.

    Route "product" evaluates that product directly (requires Re(a) in
    (0, p)); route "theta" evaluates the equivalent alternating bilateral sum

        (1/(q^p; q^p)_inf) * sum_{n in Z} (-1)^n q^(p n^2/2 + (p-2a) n/2),

    which is defined for every complex a.  Auto-selection: product for real
    a inside (0, p), theta sum otherwise.  The theta sum is exactly 0 when
    a/p is an integer (a factor is 1 - 1), its only zero at exact a, p, q,
    and is otherwise re-summed while it cancels.
    """
    ctx = prec.context()
    a = cv(ctx, params.a)
    p = cv(ctx, params.p)
    q_in, q = q, cv(ctx, q)
    if abs(q) >= 1:
        raise DomainError(f"[a,p;q] needs |q| < 1, got |q| = {abs(q)}")
    if ctx.im(p) != 0 or ctx.re(p) <= 0:
        raise DomainError(f"period p must be positive real, got {p}")
    if route is None:
        product_ok = ctx.im(a) == 0 and 0 < ctx.re(a) < ctx.re(p)
        route = "product" if product_ok else "theta"
    if route == "product":
        if not (0 < ctx.re(a) < ctx.re(p)):
            raise DomainError(f"product route needs Re(a) in (0, p), got a = {a}")
        qp = qpow(ctx, q, p)
        first = pochhammer(qpow(ctx, q, p - a), qp, INF, prec)
        second = pochhammer(qpow(ctx, q, a), qp, INF, prec)
        return first * second
    if route == "theta":
        if ctx.im(q) != 0 or ctx.re(q) <= 0:
            raise DomainError("theta route needs real q in (0, 1)")
        try:  # exactly: a quotient rounded to ctx can land on an integer or miss one
            integer = (_fraction(params.a) / _fraction(params.p)).denominator == 1
        except (TypeError, ValueError, OverflowError):  # complex a or p
            integer = ctx.isint(a / p)
        if integer:
            return ctx.mpf(0)

        def summed(at: PrecisionSpec):  # a and p again at `at`: a near k p keeps its distance
            a_, p_ = (cv(at.context(), v) for v in (params.a, params.p))
            return _bilateral_halfsquare(at.context(), p_ - 2 * a_, p_, q_in, signed=True)

        return _resummed(prec, summed) / euler_f(qpow(ctx, q, p), prec)
    raise DomainError(f"unknown route {route!r}")


def _fraction(x) -> Fraction:
    """A real int, Fraction, float, decimal string or mpf as the exact Fraction."""
    return Fraction(*to_rational(x._mpf_)) if hasattr(x, "_mpf_") else Fraction(x)


def psi_star(a, p, q, prec: PrecisionSpec, route: str = "sum"):
    """psi*(a, p; q) = sum_{n in Z} q^(p n^2/2 + (p-2a) n/2).

    Route "product" uses the equivalent form
    (q^p; q^p)_inf * (-q^a; q^p)_inf * (-q^(p-a); q^p)_inf,
    defined when Re(a) is in (0, p).
    """
    ctx = prec.context()
    a = cv(ctx, a)
    p = cv(ctx, p)
    q = cv(ctx, q)
    if abs(q) >= 1:
        raise DomainError(f"psi* needs |q| < 1, got |q| = {abs(q)}")
    if route == "sum":
        return _bilateral_halfsquare(ctx, p - 2 * a, p, q, signed=False)[0]
    if route == "product":
        if not (0 < ctx.re(a) < ctx.re(p)):
            raise DomainError(f"product route needs Re(a) in (0, p), got a = {a}")
        qp = qpow(ctx, q, p)
        return (
            euler_f(qp, prec)
            * pochhammer(-qpow(ctx, q, a), qp, INF, prec)
            * pochhammer(-qpow(ctx, q, p - a), qp, INF, prec)
        )
    raise DomainError(f"unknown route {route!r}")


def hyperbolic_log_sum(t, a, prec: PrecisionSpec):
    """sum_{k>=1} cosh(2 t k) / (k sinh(pi a k)) for a > 0, |t| < pi a / 2.

    The terms decay like e^((2|t| - pi a) k), so the decay region is exactly
    |t| < pi a / 2.  With E = e^(2t) and F = e^(pi a), the k-th term is
    (E^k + E^-k) / (k (F^k - F^-k)); the four powers advance by one
    multiplication each, so the sum costs two exp calls.
    """
    ctx = prec.context()
    t = cv(ctx, t)
    a = cv(ctx, a)
    if ctx.im(a) != 0 or a <= 0:
        raise DomainError(f"need positive real a, got {a}")
    if ctx.im(t) != 0 or 2 * abs(t) >= ctx.pi * a:
        raise DomainError(f"need real t with |t| < pi a / 2, got t = {t}")
    e, f = ctx.exp(2 * t), ctx.exp(ctx.pi * a)
    e_inv, f_inv = 1 / e, 1 / f

    def terms():
        ek, e_negk, fk, f_negk = e, e_inv, f, f_inv
        for k in itertools.count(1):
            yield (ek + e_negk) / (k * (fk - f_negk))
            ek, e_negk, fk, f_negk = ek * e, e_negk * e_inv, fk * f, f_negk * f_inv

    return _settle(ctx, prec.work_eps(ctx), terms())[0]
