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
generators, of fixed-point integers at real input, except the Gaussian
sums, whose terms fall like |q|^(n^2): they stop at
``numerics.gaussian_cutoff``, known before the first term, because a
per-term test costs more there than it saves.

Each kernel has one route per input type, and an mpc with zero imaginary
part counts as real.  For real a and q, ``pochhammer(a, q, inf)`` sums
Euler's series (|a| < 1) or multiplies the product (|a| >= 1) in
fixed-point Python integers, and so do ``theta4_product`` and
``hyperbolic_log_sum``; ``_settle`` adds or multiplies the integers, and the
total is rounded once.  Complex input multiplies in ctx's numbers.  At
real q every theta3/theta4 series and every bilateral sum is the one sum
1 + sum_{n>=1} s^n Q^(n^2) (e^(n beta) + e^(-n beta)), which
``_gaussian_fixed`` adds in integers and rounds once, as mpmath's jtheta
does, for real and complex beta alike: ``_theta_series`` passes Q = q and
beta = 2iz, and ``_bilateral_halfsquare``, at q in (0, 1) and real p,
Q = q^(p/2) and beta = (coeff_lin / 2) ln q.  Complex q or p walks the
bilateral sum in ctx's numbers.  Euler's series, the theta series and
``agile``'s theta sum report the digits their terms cancel, and
``numerics._resummed`` sums them again with more digits until the loss
fits in half the guard digits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (
    from_man_exp,
    fzero,
    mpc_cos,
    mpf_abs,
    mpf_cos_sin,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
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
    cv_real,
    gaussian_cutoff,
    memoized,
    tail_eps,
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


@memoized
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
    at |a| < 1.  Real |a| >= 1 (where a = q^(-k) gives an exact zero)
    multiplies out the product in fixed-point integers, which keep their
    relative digits in ``_settle``; complex a or q, in ctx's numbers.

    Euler's identity is not the Jacobi triple product: checks that set a
    product against a theta series, and ``psi_small`` against
    ``psi_small_product``, still compare two different routes.
    """
    ctx = prec.context()
    a_in, q_in = a, q
    a = cv_real(ctx, a)
    q = cv_real(ctx, q)
    if n is None or n == INF:
        if abs(q) >= 1:
            raise DomainError(f"(a;q)_inf needs |q| < 1, got |q| = {abs(q)}")
        if isinstance(a, ctx.mpc) or isinstance(q, ctx.mpc):
            power = _qpowers(ctx, q)
            factors = (1 - a * power(m) for m in itertools.count())
            return _settle(ctx, prec.work_eps(ctx), factors, product=True)
        if abs(a) < 1:
            return _resummed(prec, lambda p: _euler_series(p, a_in, q_in))
        wp = ctx.prec + _FIXED_GUARD + ctx.mag(a)
        one, a_fixed, power = 1 << wp, to_fixed(a._mpf_, wp), _qpowers(ctx, q, wp)
        factors = (one - (a_fixed * power(m) >> wp) for m in itertools.count())
        return _settle(ctx, tail_eps(ctx, abs(q)), factors, product=True, wp=wp)
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
    cancellation.

    Three negligible terms stop it only where the terms can only shrink.
    The ratio t_(n+1) / t_n is -a q^n / (1 - q^(n+1)).  At q in (0, 1) its
    modulus r_n = |a| q^n / (1 - q^(n+1)) falls with n, so the terms rise
    while r_n >= 1 and then fall for good.  A term on the rise is the
    largest so far, at least |total| / count, so it is not negligible while
    count < 1 / eps.  The three therefore lie past the peak, every later
    ratio is at most the r at the last of them, and the tail is at most
    eps max(1, |total|) r / (1 - r).

    At q in (-1, 0), with x = |q|, r_n = |a| x^n / (1 + x^(n+1)) < 1 at
    even n, while r_n = |a| x^n / (1 - x^(n+1)) at odd n can exceed 1.  So
    each odd term is below the even term before it, and at even n the even
    terms advance by P_n = r_n r_(n+1) = |a|^2 x^(2n+1) / ((1 + x^(n+1))
    (1 - x^(n+2))), which falls with n (P_(n+2) <= x^2 P_n): they rise
    while P_n >= 1 and then fall for good.  An even term on the rise is the
    largest so far, hence not negligible.  Three terms in a row hold an
    even one; the last, t_e, is past the peak, every later term is below
    |t_e|, and the tail is at most eps max(1, |total|) (1 + P_e) / (1 -
    P_e)."""
    ctx = prec.context()
    wp = ctx.prec + _FIXED_GUARD
    one = 1 << wp
    a_fixed, q_fixed = (to_fixed(cv_real(ctx, v)._mpf_, wp) for v in (a, q))

    def terms():
        term, qm = one, one  # t_m and q^m
        while True:
            yield term
            qm1 = qm * q_fixed >> wp
            term = term * (-a_fixed * qm >> wp) // (one - qm1)
            qm = qm1

    total, lost = _settle(ctx, prec.work_eps(ctx), terms(), wp=wp)
    return _from_fixed(ctx, total, wp), lost


@memoized
def euler_f(q, prec: PrecisionSpec):
    """(q; q)_inf, the Euler product (classically the symbol f(-q))."""
    return pochhammer(q, q, INF, prec)


@memoized
def weber_phi(q, prec: PrecisionSpec):
    """(-q; q)_inf (classically the symbol phi(-q))."""
    ctx = prec.context()
    return pochhammer(-cv(ctx, q), q, INF, prec)


def _theta_guard(ctx, z, q):
    """Common validation for theta series; returns (z, q, L, t).

    L = |ln|q||, t = |Im z|.  Raises when terms q^(n^2) e^(2inz) would not
    decay fast enough to sum: the documented precondition is |q| e^(2|Im z|)
    strictly below 1.  L comes from a 53-bit ln|q|; the test runs at working
    precision only where 2t is not below L by more than float rounding.
    """
    z = cv(ctx, z)
    q = cv(ctx, q)
    qa = abs(q)
    if qa >= 1:
        raise DomainError(f"theta series need |q| < 1, got |q| = {qa}")
    t = abs(ctx.im(z))
    L = -to_float(mpf_log(qa._mpf_, 53)) if qa else INF
    near = L - 2 * float(t) <= L * 2**-40 + 2.0 ** (8 - ctx.prec)
    if near and qa * ctx.exp(2 * t) >= 1:
        raise NonConvergence(f"growth guard: |q| e^(2|Im z|) = {qa * ctx.exp(2 * t)} >= 1")
    return z, q, L, float(t)


@memoized
def theta3(z, q, prec: PrecisionSpec):
    """theta_3(z, q) = 1 + 2 sum_{n>=1} q^(n^2) cos(2 n z)."""
    return _theta_series(prec, z, q, 1)


@memoized
def theta4(z, q, prec: PrecisionSpec):
    """theta_4(z, q) = 1 + 2 sum_{n>=1} (-1)^n q^(n^2) cos(2 n z)."""
    return _theta_series(prec, z, q, -1)


def _theta_series(prec: PrecisionSpec, z, q, s: int):
    """1 + 2 sum_{n>=1} s^n q^(n^2) cos(2 n z), s = 1 or -1, summed to the
    Gaussian cutoff of the working precision.  Real q hands Q = q and
    beta = 2iz to ``_gaussian_fixed``, which needs no ln q for them; complex
    q takes the bilateral sum of s^n q^(n^2) e^(2inz) by
    ``_bilateral_halfsquare``.  Complex z or q gives an mpc, q = 0 included.

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
            x, y = z_._mpc_ if isinstance(z_, ctx.mpc) else (z_._mpf_, fzero)
            beta = (mpf_neg(mpf_shift(y, 1)), mpf_shift(x, 1))  # 2iz
            total = _gaussian_fixed(ctx, s, L, 2 * t, lambda wp: (q_._mpf_, *beta))
            if isinstance(z_, ctx.mpc):
                total = ctx.mpc(total)
        return total, _gaussian_lost(ctx, total, L)

    return _resummed(prec, summed)


def _gaussian_lost(ctx, total, L: float, c: float = 0.0) -> float:
    """The digits lost by a Gaussian sum that came to total, from a bound
    known before its first term: terms of size at most e^(-L n^2 + c |n|)
    peak at e^(c^2 / (4L)) and sum to below that times 3 + sqrt(pi / L)."""
    mag_total = ctx.mag(total) if total else -ctx.prec  # 0 is below one ulp
    bound = c * c / (4 * L) / math.log(2) + math.log2(3 + math.sqrt(math.pi / L))
    return (bound - mag_total) * math.log10(2)


def _gaussian_fixed(ctx, s: int, L: float, a: float, parts):
    """1 + sum_{n>=1} s^n Q^(n^2) (e^(n beta) + e^(-n beta)) for real Q with
    |Q| < 1 and s = 1 or -1, in fixed-point integers (value * 2^wp) rounded
    once at the end, as mpmath's jtheta does: the one kernel behind every
    theta series and bilateral Gaussian sum at real q.  L = -ln|Q| and
    a = |Re beta| come as floats, and ``parts(wp)`` gives Q, Re beta and
    Im beta as mpf values good to wp bits.  A real total comes back as an
    mpf, any other as an mpc.

    The term s^n Q^(n^2) advances by the ratio s Q^(2n+1), which advances
    by Q^2, and cosh(n beta) follows the Chebyshev recurrence in
    cosh(beta).  cosh(n beta) grows like rho^n, rho = e^a, far past what
    the truncated Q^(n^2) can be multiplied by, so the recurrence runs on
    the (re, im) integer pair c_n = cosh(n beta) / rho^n, bounded by 1,

        c_(n+1) = (2 cosh(beta) / rho) c_n - c_(n-1) + (1 - rho^-2) c_(n-1),

    and the term carries rho^n instead.  That term, e^(a n - L n^2), peaks
    below e^(a^2 / (4L)), so wp gains a^2 / (4 L ln 2) bits for it, and the
    loop stops at its Gaussian cutoff.  A real or an imaginary beta keeps
    the pair's imaginary part at 0.  rho^-2 is a division, not another exp.
    cos and sin of Im beta come from mpf_cos_sin, which reduces a large
    argument by pi/2 at the extra bits it needs.
    """
    wp = ctx.prec + _FIXED_GUARD + math.ceil(a * a / (4 * L * math.log(2))) + 1
    Q, u, v = parts(wp)
    one = 1 << wp
    q_fixed = to_fixed(Q, wp)
    step = q_fixed * q_fixed >> wp
    ratio, gap = s * q_fixed, 0  # rho = 1
    if u != fzero:
        rho = mpf_exp(mpf_abs(u), wp)
        # s Q rho as one wp-bit product: its error stays 2^-wp however small
        # Q is and however large rho
        ratio = s * to_fixed(mpf_mul(Q, rho, wp), wp)
        gap = one - (one << wp) // to_fixed(mpf_mul(rho, rho, wp), wp)  # 1 - rho^-2
    # 2 cosh(beta) / rho = cos v (1 + rho^-2) + i sgn(u) sin v (1 - rho^-2)
    cos_v, sin_v = (to_fixed(w, wp) for w in mpf_cos_sin(v, wp))
    c1_re = 2 * cos_v - (cos_v * gap >> wp)
    c1_im = (-sin_v if u[0] else sin_v) * gap >> wp
    term = one
    re_prev, im_prev, re_n, im_n = one, 0, c1_re >> 1, c1_im >> 1
    total_re = total_im = 0
    n_cut = gaussian_cutoff(ctx.dps, L, a / 2)
    for _ in range(n_cut):
        term = term * ratio >> wp
        ratio = ratio * step >> wp
        total_re += term * re_n >> wp
        total_im += term * im_n >> wp
        re_prev, im_prev, re_n, im_n = (
            re_n,
            im_n,
            ((c1_re * re_n - c1_im * im_n + gap * re_prev) >> wp) - re_prev,
            ((c1_re * im_n + c1_im * re_n + gap * im_prev) >> wp) - im_prev,
        )
    total = _from_fixed(ctx, one + 2 * total_re, wp)
    return ctx.mpc(total, _from_fixed(ctx, 2 * total_im, wp)) if total_im else total


@memoized
def theta4_product(z, q, prec: PrecisionSpec):
    """Triple-product form of theta_4:

    prod_{n>=1} (1 - q^(2n)) (1 - 2 q^(2n-1) cos(2z) + q^(4n-2)).

    Kept as an independent route so the series form can be cross-checked.
    At real q the factors are fixed-point integers, (re, im) pairs for
    complex z, with r_n = q^(2n-1) cos 2z advancing by q^2 (below 1 by the
    growth guard).  Complex q takes the same product as
    (q^2; q^2)_inf (q e^(2iz); q^2)_inf (q e^(-2iz); q^2)_inf.
    """
    ctx = prec.context()
    z, q, _, _ = _theta_guard(ctx, cv_real(ctx, z), cv_real(ctx, q))
    if isinstance(q, ctx.mpc):
        w, q2 = ctx.exp(2j * z), q * q
        return math.prod(pochhammer(x, q2, INF, prec) for x in (q2, q * w, q / w))
    wp = ctx.prec + _FIXED_GUARD
    one, q_fixed = 1 << wp, to_fixed(q._mpf_, wp)
    cos2z = mpc_cos(ctx.mpc(2 * z)._mpc_, wp)

    def factors():
        qodd, step = q_fixed, q_fixed * q_fixed >> wp
        r_re, r_im = (to_fixed(mpf_mul(q._mpf_, w, wp), wp) for w in cos2z)
        while True:
            left = one - (qodd * q_fixed >> wp)
            right = one - 2 * r_re + (qodd * qodd >> wp)
            yield left * right >> wp, -2 * left * r_im >> wp
            qodd, r_re, r_im = (w * step >> wp for w in (qodd, r_re, r_im))

    total = _settle(ctx, tail_eps(ctx, q * q), factors(), product=True, wp=wp)
    return ctx.mpc(total) if isinstance(z, ctx.mpc) else total


@memoized
def theta2(q, prec: PrecisionSpec):
    """theta_2(0, q) = 2 q^(1/4) sum_{n>=0} q^(n(n+1)) = q^(1/4) S_1, since
    n and -1-n give the same term of S_1 = sum_{n in Z} q^(n^2 + n)."""
    ctx = prec.context()
    q = cv(ctx, q)
    return qpow(ctx, q, Fraction(1, 4)) * _bilateral_halfsquare(ctx, 2, 2, q, signed=False)[0]


@memoized
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

    At real q in (0, 1) and real p the sum is
    1 + sum_{n>=1} s^n Q^(n^2) (e^(n beta) + e^(-n beta)) with Q = q^(p/2)
    and beta = (coeff_lin / 2) ln q, real or complex, which
    ``_gaussian_fixed`` sums in integers.  Q and beta take ln q at wp + 10
    bits: an ln q rounded at ctx.prec would pass its error, times an
    exponent as large as the peak's, to every term.  Complex q or p walks
    out from n = 0 in both directions in ctx's numbers: term(n +- 1) /
    term(n) starts at s e^((p/2 +- coeff_lin/2) ln q) and gains a factor
    e^(p ln q) per step, so exp turns the sum of exponents into the
    product exactly, and the branch is the principal one of the closed form.
    """
    q = cv(ctx, q)
    p = cv(ctx, p)
    b = cv(ctx, coeff_lin)
    qa = abs(q)
    if qa >= 1:
        raise DomainError(f"bilateral Gaussian sum needs |q| < 1, got |q| = {qa}")
    if q == 0:
        return ctx.mpf(1), 0.0
    s = -1 if signed else 1
    fixed = isinstance(q, ctx.mpf) and isinstance(p, ctx.mpf) and q > 0
    # |term| = e^(-L n^2 -+ a n); a float ln q suffices for L and a
    log_q = to_float(mpf_log(q._mpf_, 53)) if fixed else complex(ctx.log(q))
    L, a = -(complex(p) * log_q).real / 2, abs((complex(b) * log_q).real) / 2
    if L <= 0:
        raise DomainError("bilateral Gaussian sum needs Re(p ln q) < 0")
    if fixed:
        b_parts = b._mpc_ if isinstance(b, ctx.mpc) else (b._mpf_, fzero)

        def parts(wp):
            lp = wp + 10
            half_logq = mpf_shift(mpf_log(q._mpf_, lp), -1)
            Q = mpf_exp(mpf_mul(p._mpf_, half_logq, lp), lp)
            return Q, *(mpf_mul(w, half_logq, lp) for w in b_parts)

        total = _gaussian_fixed(ctx, s, L, a, parts)
        if isinstance(b, ctx.mpc):
            total = ctx.mpc(total)
    else:
        logq = ctx.log(q)
        step = ctx.exp(p * logq)
        total = ctx.mpf(1)
        for sign in (1, -1):
            ratio = s * ctx.exp((p + sign * b) / 2 * logq)
            term = ctx.mpf(1)
            for _ in range(gaussian_cutoff(ctx.dps, L, a / 2)):
                term = term * ratio
                ratio = ratio * step
                total = total + term
    return total, _gaussian_lost(ctx, total, L, a)


@memoized
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
            lin = at.context().fsub(p_, 2 * a_, exact=True)
            return _bilateral_halfsquare(at.context(), lin, p_, q_in, signed=True)

        # (Q; Q)_inf amplifies the rounding of Q = q^p by
        # sum_n n / (e^(n t) - 1) < pi^2 / (6 t^2), t = -ln Q, so both take
        # that many more digits and one more
        t = -to_float(mpf_log(ctx.re(q)._mpf_, 53)) * float(ctx.re(p))
        hi = prec.bumped(max(0, math.ceil(math.log10(math.pi**2 / (6 * t * t)))) + 1)
        return _resummed(prec, summed) / euler_f(qpow(hi.context(), q_in, params.p), hi)
    raise DomainError(f"unknown route {route!r}")


def _fraction(x) -> Fraction:
    """A real int, Fraction, float, decimal string or mpf as the exact Fraction."""
    return Fraction(*to_rational(x._mpf_)) if hasattr(x, "_mpf_") else Fraction(x)


@memoized
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
        return _bilateral_halfsquare(ctx, ctx.fsub(p, 2 * a, exact=True), p, q, signed=False)[0]
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


@memoized
def hyperbolic_log_sum(t, a, prec: PrecisionSpec):
    """sum_{k>=1} cosh(2 t k) / (k sinh(pi a k)) for a > 0, |t| < pi a / 2.

    The terms decay like e^((2|t| - pi a) k), so the decay region is exactly
    |t| < pi a / 2.  Divided by e^(pi a k), the k-th term is
    u^k (1 + rho^k) / (k (1 - w^k)) with u = e^(2|t| - pi a),
    rho = e^(-4|t|) and w = e^(-2 pi a), none above 1; the sum is u times
    that of u^(k-1) (1 + rho^k) / (k (1 - w^k)), whose powers advance by one
    multiplication each in fixed-point integers, and it is rounded once.

    The items are positive, and item k + 1 over item k is u times k / (k +
    1), (1 + rho^(k+1)) / (1 + rho^k) and (1 - w^k) / (1 - w^(k+1)), none
    above 1: every ratio is below u < 1 from the first item on, so three
    items below ``tail_eps(ctx, u)`` leave a tail below one working ulp.
    """
    ctx = prec.context()
    t = cv_real(ctx, t)
    a = cv_real(ctx, a)
    if ctx.im(a) != 0 or a <= 0:
        raise DomainError(f"need positive real a, got {a}")
    if ctx.im(t) != 0 or 2 * abs(t) >= ctx.pi * a:
        raise DomainError(f"need real t with |t| < pi a / 2, got t = {t}")
    wp = ctx.prec + _FIXED_GUARD
    lp = wp + 10 + max(0, ctx.mag(a))  # the exponents, to 2^-wp after exp
    pi_a, two_t = mpf_mul(mpf_pi(lp), a._mpf_, lp), mpf_shift(abs(t)._mpf_, 1)
    args = (mpf_sub(two_t, pi_a, lp), mpf_neg(mpf_shift(two_t, 1)), mpf_neg(mpf_shift(pi_a, 1)))
    u, rho, w = (ctx.make_mpf(mpf_exp(x, wp)) for x in args)
    one, uk, rhok, wk = 1 << wp, *(_qpowers(ctx, x, wp) for x in (u, rho, w))
    terms = (uk(k - 1) * (one + rhok(k)) // (k * (one - wk(k))) for k in itertools.count(1))
    total, _ = _settle(ctx, tail_eps(ctx, u), terms, wp=wp)
    return ctx.make_mpf(mpf_mul(u._mpf_, from_man_exp(total, -wp), ctx.prec, "n"))
