"""Precision plumbing shared by every other module.

Design rule: precision is always an explicit ``PrecisionSpec`` argument, and
every public entry point takes its mpmath context from
``PrecisionSpec.context()``: one context per thread and working precision,
built on first use and shared by every later caller in that thread.  Callers
never change a context's precision (a test parses the package for ``.dps``
and ``.prec`` assignments), so sharing is invisible to them.
Nothing here reads or writes the process-global ``mpmath.mp`` context, so
results are reproducible under threads and concurrent suites.  Returned
values are ordinary ``mpf``/``mpc`` instances, which are immutable and safe
to pass between contexts.

Infinite series, products and continued fractions are summed or multiplied
by ``_settle``: callers hand it an iterable of numbers of their context or
of fixed-point integers, and it applies the one stopping rule and term
budget.  A continued fraction hands it the increments of its
approximants, as a series, in integers or in ctx numbers.  A geometric
series stopped there keeps up to eps r/(1 - r) of its tail at ratio r, which
is why ``hyperq.phi21`` hands it the q-shifted differences of its terms (see
``hyperq``) and the routes that round once pass ``tail_eps``.  The Gaussian
sums are the exception:
``qfunctions._gaussian_fixed``, the one kernel behind every theta3/theta4
series and bilateral sum at real q (theta2/3/4, ``theta_sum_S``,
``psi_star`` and the theta route of ``agile``, at real or complex z and
shift), runs to ``gaussian_cutoff``, a term count fixed in advance from |q|,
the shift and the working digits, with no per-term test.

Every real-input series and product but ``cfrac.m_series`` and the
printed fraction of ``verify``'s ``deriv.eq53-printed`` advances its items
in Python integers scaled by 2^wp, wp at least ctx.prec + ``_FIXED_GUARD``
bits, the way mpmath's own jtheta and hypsum do, and all but the Gaussian
kernel hand them to ``_settle(..., wp=wp)``, which adds or multiplies them
with no mpf per item; a product carries a binary exponent, so a small
partial product keeps its relative digits.  An mpc with zero imaginary part
counts as real (``cv_real``).  Each route rounds once.

A series whose terms cancel loses digits that no stopping rule sees:
``_settle`` returns each series total with the digits its items lost, and
``_resummed``, the one re-sum rule, sums again with more digits until the
loss fits in half the guard digits.  Euler's series, ``phi21`` and
``drq_dq``'s log-derivative (capped: they can be exactly zero),
``m_series``, and the theta and ``agile`` Gaussian sums (by a bound known
before their first term) use it; plain ``_settle`` serves
``hyperbolic_log_sum`` (positive terms), ``rq_theta``'s exp sum
(exponentiated, so only its absolute error counts), ``eval_cf``'s
approximant increments (a backward pass from twice the depth cross-checks
them), ``verify``'s cosh/sinh sum and its agile derivative's
log-derivative (which does not cancel at its one nome, e^-pi).

One report computes each primitive value once.  ``verify.run_suite`` sets
``_report_memo`` to a fresh dict for the length of one report, and the
public functions of ``elliptic``, ``qfunctions``, ``cfrac``, ``rquantity``
and ``hyperq`` that take a ``PrecisionSpec`` are ``memoized``: inside a
report the second identical call returns the first one's value.  Outside
one the variable is ``None`` and the decorator calls straight through, so
library calls and ``qelliptic eval`` store nothing.  A key is the function,
its arguments and their exact types, item by item inside tuples and field
by field inside dataclasses: 1, 1.0, ``mpf(1)`` and ``Fraction(1)``
compare equal but may take different routes (an integer exponent is
multiplied out, a Fraction divided exactly), and each context has its own
mpf class, so working precisions stay apart too.  An unhashable argument
calls through, and an exception is not stored.  Every memoized function
returns an immutable value: an mpf, an mpc, a tuple or a frozen
dataclass.  Left out: ``qfunctions.qpow``, which takes a context and gained
nothing when memoized alone; ``cfrac.eval_cf``, whose fraction of fresh
callables never repeats, while a stored key would keep its power tables
alive; ``algrec.find_minpoly``, whose inputs never repeat; and every
private helper.
"""

from __future__ import annotations

import functools
import math
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from mpmath.ctx_mp import MPContext
from mpmath.libmp import dps_to_prec, from_man_exp, to_fixed

# Hard budget on series/product terms before we declare divergence.
MAX_TERMS = 10**6

# Guard bits of fixed-point terms and sums beyond the working precision.
_FIXED_GUARD = 30

# Per-thread maps workdps -> MPContext and (workdps, prec) -> work_eps.
_contexts = threading.local()

# The values of one report, by typed call key; None outside a report.
_report_memo: ContextVar[dict | None] = ContextVar("report_memo", default=None)


class NumericsError(Exception):
    """Base class for every error this package raises deliberately."""


class NonConvergence(NumericsError):
    """A series, product, or continued fraction failed to settle in budget."""


class DomainError(NumericsError):
    """An argument lies outside the documented domain of the operation."""


class VerificationError(NumericsError):
    """An internal consistency assertion failed; indicates a bug, not bad input."""


class InsufficientPrecision(NumericsError):
    """The requested operation needs more working digits than were supplied."""


class CrossCheckFailure(NumericsError):
    """Two independent evaluation routes disagreed beyond tolerance."""


class UnknownSelector(NumericsError):
    """A name (function selector, format) was not recognized."""


@dataclass(frozen=True)
class PrecisionSpec:
    """Target accuracy in decimal digits plus guard digits for roundoff.

    ``digits`` is the accuracy promised to the caller; ``guard`` extra digits
    absorb cancellation (theta quotients at the evaluation points used here
    lose a handful of digits).  Working precision is ``digits + guard``.
    """

    digits: int
    guard: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.digits, int) or self.digits < 10:
            raise DomainError(f"digits must be an integer >= 10, got {self.digits!r}")
        if self.guard is None:
            object.__setattr__(self, "guard", max(15, self.digits // 10))
        elif not isinstance(self.guard, int) or self.guard < 0:
            raise DomainError(f"guard must be a non-negative integer, got {self.guard!r}")

    @property
    def workdps(self) -> int:
        return self.digits + self.guard

    def context(self) -> MPContext:
        """The calling thread's context at working precision.

        One context per thread and ``workdps``, built on first use (about
        0.5 ms) and returned to every later call.  Callers must never change
        its precision; if one did, the next call notices and builds a new
        context, so the change does not leak to the next caller.
        """
        contexts = _contexts.__dict__
        ctx = contexts.get(self.workdps)
        if ctx is None or ctx.prec != dps_to_prec(self.workdps):
            ctx = contexts[self.workdps] = MPContext()
            ctx.dps = self.workdps
        return ctx

    def target_eps(self, ctx: MPContext):
        """10^(-digits): the accuracy promised to the caller."""
        return ctx.mpf(10) ** (-self.digits)

    def work_eps(self, ctx: MPContext):
        """Cutoff used internally; two digits above working roundoff, kept
        beside the thread's contexts once computed."""
        cache, key = _contexts.__dict__, (self.workdps, ctx.prec)
        if key not in cache:
            cache[key] = ctx.mpf(10) ** (-(self.workdps - 2))
        return cache[key]

    def bumped(self, extra: int) -> "PrecisionSpec":
        """Same spec with `extra` more target digits (used by cross-checks)."""
        return PrecisionSpec(self.digits + extra, self.guard)


def _kinds(values) -> tuple:
    """The exact types of values, with those of tuple items and dataclass
    fields (but a PrecisionSpec, which holds validated ints)."""
    kinds = []
    for x in values:
        kind = type(x)
        if kind is tuple:
            kind = (kind, _kinds(x))
        elif kind is not PrecisionSpec and hasattr(x, "__dataclass_fields__"):
            kind = (kind, _kinds([getattr(x, name) for name in x.__dataclass_fields__]))
        kinds.append(kind)
    return tuple(kinds)


class _HashedKey(list):
    """A call key that hashes its items once, as ``functools.lru_cache``'s
    ``_HashedSeq`` does: mpmath hashes an mpf in Python, and a miss looks
    the key up and then stores it."""

    __slots__ = ("hashvalue",)

    def __init__(self, items: tuple) -> None:
        self[:] = items
        self.hashvalue = hash(items)

    def __hash__(self) -> int:
        return self.hashvalue


def memoized(fn):
    """fn, computed once per typed call key while a report memo is set."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        memo = _report_memo.get()
        if memo is None:
            return fn(*args, **kwargs)
        named = tuple(sorted(kwargs.items()))
        try:
            key = _HashedKey((fn, args, named, _kinds(args), _kinds(value for _, value in named)))
        except TypeError:  # an unhashable argument
            return fn(*args, **kwargs)
        try:
            return memo[key]
        except KeyError:
            pass
        value = memo[key] = fn(*args, **kwargs)
        return value

    return wrapper


def cv(ctx: MPContext, x):
    """Convert ints, floats, Fractions, strings, mpf/mpc into ctx numbers.

    Fractions are divided exactly at working precision rather than going
    through float, so denominators like 1/3 keep full accuracy.
    """
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
    return ctx.convert(x)


def cv_real(ctx, x):
    """``cv(ctx, x)``, but an mpc with zero imaginary part becomes an mpf."""
    x = cv(ctx, x)
    return ctx.re(x) if isinstance(x, ctx.mpc) and not x.imag else x


def gaussian_cutoff(total_digits: int, log_q_abs: float, imag_shift: float = 0.0) -> int:
    """Smallest N with |q|^(N^2) * e^(2*N*t) < 10^(-total_digits).

    ``log_q_abs`` is |ln|q|| (positive), ``imag_shift`` is t = |Im z| for
    shifted theta-type terms q^(n^2) e^(2 i n z).  Solves the quadratic
    n^2 L - 2 n t > D ln10 and pads by 2.
    """
    if log_q_abs <= 0 or math.isinf(log_q_abs):
        return 2  # q == 0 (or degenerate); only the n = 0 term survives
    d = total_digits * math.log(10)
    t = max(0.0, imag_shift)
    n = (t + math.sqrt(t * t + log_q_abs * d)) / log_q_abs
    return int(math.ceil(n)) + 2


def _from_fixed(ctx, man: int, wp: int):
    """The mpf of ctx nearest to the fixed-point value man * 2^-wp."""
    return ctx.make_mpf(from_man_exp(man, -wp, ctx.prec, "n"))


def _settle(
    ctx,
    eps,
    items,
    *,
    product: bool = False,
    max_terms: int = MAX_TERMS,
    wp: int | None = None,
    least: int = 0,
):
    """The one stopping rule for every series and infinite product here.

    Adds the items (or, with ``product=True``, multiplies them) in order and
    stops after three consecutive negligible ones: a term t with
    |t| <= eps * max(1, |total|), or a factor f with |f - 1| <= eps.  Three
    in a row because q-series frequently have isolated zero coefficients.
    A factor that is exactly zero makes the product exactly zero; a finite
    iterable gives its exact total; ``max_terms`` items without settling
    raise NonConvergence.  Items must already be numbers of ``ctx``.
    Callers pass ``prec.work_eps(ctx)`` or ``tail_eps``; series and products keep
    the default budget ``MAX_TERMS``, and ``cfrac.eval_cf`` passes its own
    level budget, with the increments of its approximants as a series.

    With ``wp`` given, the items are fixed-point Python ints scaled by 2^wp,
    and the rule runs as exact integer tests with eps_fixed = eps 2^wp.  A
    series returns its total as such an integer, for the caller to round
    once.  A product also takes (re, im) pairs as complex factors; it keeps
    the running product at wp bits with a binary exponent, so a small
    partial product keeps its relative digits, and returns it rounded once,
    an mpc when its imaginary part is not zero.

    A series stops no sooner than after ``least`` items: three negligible
    terms bound the tail only where the term ratio stays below 1 from
    there on, and a source whose ratio can jump states the item from which
    it cannot (``hyperq._phi21_sum``).

    A series returns its total and the digits its count items lost to
    cancellation, (peak - mag(total) + log2(count)) log10(2) with 2^peak
    above the largest item (infinite for an exact zero total).

    Products are multiplied directly, not summed as logarithms: every factor
    here is within a geometrically shrinking distance of 1, so N factors
    cost at most N ulps, with no branch bookkeeping of complex logarithms.

    Most mpf and mpc items are far from the threshold, so binary exponents
    settle them first: ``ctx.mag`` gives |x| <= 2^mag(x), and |x| >=
    2^(mag(x) - 2) for mpf and mpc alike.  A term with mag(t) - 2 > mag(eps) + max(0,
    mag(total)), or a factor with mag(f - 1) - 2 > mag(eps), is therefore
    not negligible, and the exact test runs only for the rest.  The
    prefilter never changes a decision; it costs an integer comparison
    where the exact test costs an abs and a multiplication.
    """
    if wp is not None and product:
        one, eps_sq = 1 << wp, to_fixed(eps._mpf_, wp) ** 2
        re, im, exp, small = one, 0, 0, 0  # the product is (re + i im) 2^(exp - wp)
        for count, f in enumerate(items, 1):
            fr, fi = f if isinstance(f, tuple) else (f, 0)
            if not (fr or fi):
                return ctx.mpf(0)
            re, im = re * fr - im * fi, re * fi + im * fr
            shift = max(0, max(abs(re), abs(im)).bit_length() - wp - 1)
            re, im, exp = re >> shift, im >> shift, exp + shift - wp
            small = small + 1 if (fr - one) ** 2 + fi * fi <= eps_sq else 0
            if small == 3:
                break
            if count >= max_terms:
                raise NonConvergence(f"product did not settle within {max_terms} terms")
        total = _from_fixed(ctx, re, wp - exp)
        return ctx.mpc(total, _from_fixed(ctx, im, wp - exp)) if im else total
    if wp is not None:
        one = 1 << wp
        eps_fixed = to_fixed(eps._mpf_, wp)
        total = small = peak = count = 0
        for count, t in enumerate(items, 1):
            total += t
            peak = max(peak, abs(t))
            small = small + 1 if abs(t) << wp <= eps_fixed * max(one, abs(total)) else 0
            if small >= 3 and count >= least:
                break
            if count >= max_terms:
                raise NonConvergence(f"series did not settle within {max_terms} terms")
        lost = peak.bit_length() - abs(total).bit_length() + math.log2(count) if total else math.inf
        return total, lost * math.log10(2)
    mag = ctx.mag
    mag_eps = mag(eps)
    one = ctx.mpf(1)
    total = one if product else ctx.mpf(0)
    small = count = 0
    peak = -math.inf
    for count, x in enumerate(items, 1):
        if product:
            if x == 0:
                return total * x  # exact zero, of the joint real/complex type
            total = total * x
            d = x - 1
            negligible = mag(d) - 2 <= mag_eps and abs(d) <= eps
        else:
            total = total + x
            size = mag(x)
            if size > peak:
                peak = size
            negligible = (
                size - 2 <= mag_eps + max(0, mag(total))
                and abs(x) <= eps * max(one, abs(total))
            )
        small = small + 1 if negligible else 0
        if small >= 3 and count >= least:
            break
        if count >= max_terms:
            kind = "product" if product else "series"
            raise NonConvergence(f"{kind} did not settle within {max_terms} terms")
    if product:
        return total
    lost = peak - mag(total) + math.log2(count) if total else math.inf
    return total, lost * math.log10(2)


def tail_eps(ctx, r):
    """An eps for ``_settle`` that leaves below one working ulp (relative to
    max(1, |total|)) of a tail falling like r^n, r in [0, 1): after three
    items below eps the rest add up to at most eps r^3 / (1 - r), while
    ``work_eps`` is about 10^3 ulps."""
    return ctx.ldexp(1 - r, -ctx.prec)


def _resummed(prec: PrecisionSpec, summed, cap: float = math.inf):
    """A series at prec, summed again with more digits while it cancels.

    ``summed(p)`` sums the series at the PrecisionSpec p and returns its
    total with the decimal digits the terms lost to cancellation.  While
    that loss exceeds the extra digits plus half the guard digits, the
    series is summed again at ``prec.bumped(extra)``; a total lost in
    rounding understates the loss, so the extra digits at least double
    until the loss fits, and the total is rounded back to prec's working
    precision.  That ends only where the series is not zero, so a series
    that can be exactly zero passes a ``cap`` on the extra digits; past it
    the total keeps its absolute accuracy, not its relative digits.
    """
    total, lost = summed(prec)
    extra = 0
    while lost > extra + prec.guard // 2 and extra < cap:
        extra = math.ceil(min(cap, max(lost, 2 * extra)))
        total, lost = summed(prec.bumped(extra))
    return +prec.context().convert(total) if extra else total  # unary + rounds


def gamma(x, prec: PrecisionSpec):
    """Euler Gamma for positive real x."""
    ctx = prec.context()
    x = cv(ctx, x)
    if ctx.im(x) != 0 or x <= 0:
        raise DomainError(f"gamma needs a positive real argument, got {x}")
    return ctx.gamma(x)
