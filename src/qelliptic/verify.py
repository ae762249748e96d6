"""Identity-check registry and deterministic suite runner.

Every check evaluates one numerical identity at a handful of sample points
and reports its worst absolute residual.  Checks carry one of two
severities:

* ``normative``: the identity is expected to hold; a residual above
  tolerance makes the whole suite fail.
* ``discrepancy-allowed``: the check evaluates a formula reading that is
  documented as wrong (a sign, a prefactor, a parameter, or a phase);
  a residual above tolerance is reported as status ``discrepancy`` and
  does not fail the suite.  These checks keep the record honest: the
  neighbouring normative check evaluates the corrected reading.

Each check is a ``_chk_*`` generator function that yields its absolute
residuals, registered by the ``@check`` decorator, which carries its id,
the equations it covers, its severity and its tolerance.  A check that
raises a ``NumericsError``, even after yielding some residuals, is reported
with status ``error`` instead of aborting the suite.

``run_suite`` is deterministic: two runs with the same (selector, digits,
seed) produce byte-identical JSON reports.  Per-check sample
generators draw from ``random.Random(f"{seed}:{check_id}")``, wall-clock
times are reported only in the text rendering, and checks are sorted by id.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import mpmath
from mpmath.libmp import mpf_exp, mpf_neg

from .numerics import (
    _FIXED_GUARD, DomainError, NumericsError, PrecisionSpec, UnknownSelector, _from_fixed,
    _report_memo, _settle, cv, gamma, tail_eps,
)
from .qfunctions import (
    INF,
    AgileParams,
    _qpowers,
    agile,
    euler_f,
    hyperbolic_log_sum,
    pochhammer,
    psi_star,
    qpow,
    theta2,
    theta3,
    theta4,
    theta4_product,
    theta_sum_S,
    weber_phi,
)
from .elliptic import (
    K_of_k,
    landen_chain,
    modulus_from_nome,
    nome_from_r,
    singular_modulus,
)
from .cfrac import (
    ContinuedFraction,
    eval_cf,
    h_cf,
    m_cf,
    m_series,
    p_cf,
    r1_cf,
    r2_cf,
    r3_cf,
    rr_cf,
)
from .rquantity import (
    RQParams,
    _log_derivative,
    drq_dq,
    drq_normalized,
    rq,
    rq_charprod,
    rq_star,
    rq_theta,
    tau0,
    tau_star,
)
from .hyperq import (
    Phi21Params,
    gauss_product,
    phi21,
    psi_small,
    psi_small_product,
)
from .algrec import NOT_FOUND, find_minpoly, verify_root

__all__ = [
    "IdentityCheck",
    "CheckOutcome",
    "Report",
    "register_builtin_checks",
    "run_suite",
]

NORMATIVE = "normative"
DISCREPANCY_ALLOWED = "discrepancy-allowed"

# r values used by the fixed-sample singular-modulus checks.
R_SAMPLES = (1, 2, 3, 5, Fraction(2, 5))

# Ascending coefficients of the degree-8 polynomial satisfied by the
# normalized derivative of the first quotient below at q = exp(-pi).
DERIV_POLY_125 = (16, 0, -240, 800, -2900, -6000, -6500, 17500, 625)
DERIV_POLY_136 = (-1, 0, 6, 24, 3)
DERIV_POLY_138 = (1, -8, 20, -16, 2)
# 32768 t^8 = 1: the normalized derivative of the exponent-weighted product
# at (a, p) = (1, 4) is -2^(-15/8).
AGILE_DERIV_POLY_14 = (-1, 0, 0, 0, 0, 0, 0, 0, 32768)

# Recognition checks need find_minpoly's precondition for degree 8.
RECOGNITION_MIN_DIGITS = 120

# Wrong readings whose residual does not shrink with digits (2.4e-10 for
# deriv.eq53-printed, 7.4e-10 for thm6.eq61-general) fall below the default
# tolerance 10^(15 - digits) up to 24 digits; below this floor they skip.
READING_MIN_DIGITS = 25


@dataclass(frozen=True)
class IdentityCheck:
    """One verifiable identity (or one documented wrong reading).

    ``run(prec, rng)`` yields the absolute residuals it measures.
    ``covers`` lists the equation tokens this check exercises.  ``formula``
    is a short ASCII statement of what is being compared.  Every check is
    judged by one tolerance, 10^tolerance_exponent(digits) = 10^(15 - digits).
    """

    id: str
    description: str
    formula: str
    covers: tuple
    severity: str
    run: Callable[[PrecisionSpec, random.Random], Iterator]
    min_digits: int = 10

    @staticmethod
    def tolerance_exponent(digits: int) -> int:
        return 15 - digits


# check id -> IdentityCheck, filled by @check as this module is imported
_REGISTRY: dict = {}


def check(
    id: str,
    *,
    covers: tuple,
    description: str,
    formula: str,
    severity: str = NORMATIVE,
    min_digits: int = 10,
):
    """Register the decorated function as the ``run`` of check ``id``."""

    def register(run):
        if id in _REGISTRY:
            raise ValueError(f"duplicate check id {id!r} in the registry")
        _REGISTRY[id] = IdentityCheck(id, description, formula, covers, severity, run, min_digits)
        return run

    return register


def register_builtin_checks() -> list:
    """The built-in identity registry, sorted by check id."""
    return sorted(_REGISTRY.values(), key=lambda c: c.id)


@dataclass(frozen=True)
class CheckOutcome:
    id: str
    status: str  # pass | fail | discrepancy | skip | error
    max_abs_error: str
    samples: int
    seconds: float  # wall time; rendered only in the text format


@dataclass(frozen=True)
class Report:
    suite: str
    digits: int
    seed: int
    checks: tuple

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "discrepancy": 0, "skip": 0, "error": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self) -> bool:
        n = self.counts
        return n["fail"] == 0 and n["error"] == 0

    def to_json(self) -> str:
        """Canonical byte-stable rendering (wall times are zeroed)."""
        obj = {
            "suite": self.suite,
            "digits": self.digits,
            "seed": self.seed,
            "checks": [
                {
                    "id": c.id,
                    "status": c.status,
                    "max_abs_error": c.max_abs_error,
                    "samples": c.samples,
                    "seconds": 0.0,
                }
                for c in self.checks
            ],
        }
        return json.dumps(obj, separators=(",", ":"))

    def spare_digits(self, outcome: CheckOutcome) -> str:
        """log10(tolerance / max_abs_error) to two decimals: how many digits
        the residual stays below the check's tolerance (negative when it
        misses).  "-" for a skip or an error, which measured nothing."""
        if outcome.status in ("skip", "error"):
            return "-"
        tol_exp = IdentityCheck.tolerance_exponent(self.digits)
        spare = tol_exp - mpmath.log10(mpmath.mpf(outcome.max_abs_error))
        return f"{float(spare):.2f}"

    def to_text(self) -> str:
        width = max([len(c.id) for c in self.checks] + [4])
        lines = [f"suite: {self.suite}   digits: {self.digits}   seed: {self.seed}"]
        lines.append(
            f"{'id':<{width}}  {'status':<11}  {'max_abs_error':<14}  "
            f"{'spare':>7}  {'samples':>7}  {'seconds':>8}"
        )
        for c in self.checks:
            lines.append(
                f"{c.id:<{width}}  {c.status:<11}  {c.max_abs_error:<14}  "
                f"{self.spare_digits(c):>7}  {c.samples:>7}  {c.seconds:>8.2f}"
            )
        n = self.counts
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{len(self.checks)} checks: {n['pass']} pass, {n['fail']} fail, "
            f"{n['discrepancy']} discrepancy, {n['skip']} skip, {n['error']} error "
            f"-> {verdict}"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------------
# sample helpers


def _frac(rng: random.Random, lo, hi, max_den: int = 12) -> Fraction:
    """Random Fraction strictly inside (lo, hi) with denominator <= max_den."""
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    for _ in range(1000):
        d = rng.randint(2, max_den)
        n = rng.randint(int(lo_f * d) + 1, max(int(lo_f * d) + 1, int(hi_f * d)))
        x = Fraction(n, d)
        if lo_f < x < hi_f:
            return x
    raise ValueError(f"no fraction with denominator <= {max_den} in ({lo}, {hi})")


def _rq_exponent(a, b, p) -> Fraction:
    return -Fraction(a - b, 2) + Fraction(a * a - b * b, 2 * p)


def _agile_exponent(a, p) -> Fraction:
    return Fraction(p, 12) - Fraction(a, 2) + Fraction(a * a, 2 * p)


# --------------------------------------------------------------------------
# check bodies (each yields its absolute residuals)


@check(
    "lemma1.k",
    covers=("eq8", "eq9"),
    description="closed-form modulus satisfies the AGM period ratio",
    formula="K(k')/K(k) = sqrt(r) for k = 8 sqrt(q) w^12/(1+sqrt(1+64 q w^24)), q = exp(-pi sqrt r)",
)
def _chk_lemma1_k(prec, rng):
    for r in R_SAMPLES:
        ctx = prec.context()
        q = nome_from_r(r, prec).q
        mod = modulus_from_nome(q, prec)
        ratio = K_of_k(mod.k_prime, prec) / K_of_k(mod.k, prec)
        yield abs(ratio - ctx.sqrt(cv(ctx, Fraction(r))))


@check(
    "lemma1.K",
    covers=("eq10",),
    description="closed-form complete integral matches the AGM route",
    formula="K = f(-q)^2 pi sqrt(1+sqrt(1+64 q w^24))/(2 sqrt2 w^2) vs pi/(2 agm(1, k'))",
)
def _chk_lemma1_K(prec, rng):
    for r in R_SAMPLES:
        q = nome_from_r(r, prec).q
        mod = modulus_from_nome(q, prec)
        yield abs(mod.K - K_of_k(mod.k, prec))


@check(
    "prodid.eq5",
    covers=("eq5",),
    description="sixth power of the even eta-type product in k, k', K",
    formula="prod (1-q^2n)^6 = 2 k k' K^3/(pi^3 sqrt q)",
)
def _chk_prodid_eq5(prec, rng):
    for r in (1, 2, 3, 5):
        ctx = prec.context()
        q = nome_from_r(r, prec).q
        mod = modulus_from_nome(q, prec)
        Kk = K_of_k(mod.k, prec)
        lhs = euler_f(q * q, prec) ** 6
        rhs = 2 * mod.k * mod.k_prime * Kk**3 / (ctx.pi**3 * ctx.sqrt(q))
        yield abs(lhs - rhs)


@check(
    "prodid.eq6",
    covers=("eq6",),
    description="eighth power of the (-q;q) product in k",
    formula="q^(1/3) prod (1+q^n)^8 = 2^(-4/3) (k/(1-k^2))^(2/3), k = (theta2/theta3)^2",
)
def _chk_prodid_eq6(prec, rng):
    # k from the theta series, not from modulus_from_nome: that closed form
    # is built on w = weber_phi(q) and would make both sides q^(1/3) w^8.
    for r in (1, 2, 3, 5):
        ctx = prec.context()
        q = nome_from_r(r, prec).q
        k = (theta2(q, prec) / theta3(0, q, prec)) ** 2
        lhs = qpow(ctx, q, Fraction(1, 3)) * weber_phi(q, prec) ** 8
        rhs = 2 ** cv(ctx, Fraction(-4, 3)) * (k / (1 - k**2)) ** cv(ctx, Fraction(2, 3))
        yield abs(lhs - rhs)


@check(
    "prodid.eq7",
    covers=("eq7",),
    description="eighth power of the (q;q) product in k, k', K",
    formula="prod (1-q^n)^8 = 2^(8/3) pi^-4 q^(-1/3) k^(2/3) k'^(8/3) K^4",
)
def _chk_prodid_eq7(prec, rng):
    for r in (1, 2, 3, 5):
        ctx = prec.context()
        q = nome_from_r(r, prec).q
        mod = modulus_from_nome(q, prec)
        Kk = K_of_k(mod.k, prec)
        lhs = euler_f(q, prec) ** 8
        rhs = (
            2 ** cv(ctx, Fraction(8, 3))
            / ctx.pi**4
            * qpow(ctx, q, Fraction(-1, 3))
            * mod.k ** cv(ctx, Fraction(2, 3))
            * mod.k_prime ** cv(ctx, Fraction(8, 3))
            * Kk**4
        )
        yield abs(lhs - rhs)


@check(
    "prodid.eq15",
    covers=("eq15",),
    description="odd product squared in the ascending-descent moduli",
    formula="prod ((1+q^n)/(1+q^2n))^2 = q^(1/12) k11^(1/6) k22^(1/3)/(k21^(1/6) k12^(1/3))",
)
def _chk_prodid_eq15(prec, rng):
    for r in (1, 2, 3):
        ctx = prec.context()
        q = nome_from_r(r, prec).q
        k11, k12, k21, k22 = landen_chain(q, prec)
        lhs = (weber_phi(q, prec) / weber_phi(q * q, prec)) ** 2
        rhs = (
            qpow(ctx, q, Fraction(1, 12))
            * k11 ** cv(ctx, Fraction(1, 6))
            * k22 ** cv(ctx, Fraction(1, 3))
            / (k21 ** cv(ctx, Fraction(1, 6)) * k12 ** cv(ctx, Fraction(1, 3)))
        )
        yield abs(lhs - rhs)


def intro_product_rows(prec) -> list:
    """The introduction's three closed-form product evaluations as
    (label, closed-form text, computed, closed) rows: the residuals of
    ``prodid.intro`` and the first rows of ``qelliptic table``."""
    ctx = prec.context()
    pi = ctx.pi
    q25 = ctx.exp(-pi * ctx.sqrt(cv(ctx, Fraction(2, 5))))
    q3 = ctx.exp(-pi * ctx.sqrt(3))
    return [
        (
            "prod (1+q^n)^8 at q=exp(-pi*sqrt(2/5))",
            "(7+3*sqrt(5))/8 * exp(pi*sqrt(2/5)/3)",
            pochhammer(-q25, q25, INF, prec) ** 8,
            (7 + 3 * ctx.sqrt(5)) / 8 * ctx.exp(pi / 3 * ctx.sqrt(cv(ctx, Fraction(2, 5)))),
        ),
        (
            "prod (1+q^n)^8 at q=exp(-pi*sqrt(3))",
            "exp(pi/sqrt(3)) / (2^(2/3) (26+15*sqrt(3))^(1/3))",
            pochhammer(-q3, q3, INF, prec) ** 8,
            ctx.exp(pi / ctx.sqrt(3))
            / (2 ** cv(ctx, Fraction(2, 3)) * (26 + 15 * ctx.sqrt(3)) ** cv(ctx, Fraction(1, 3))),
        ),
        (
            "prod (1-q^n)^8 at q=exp(-pi*sqrt(3))",
            "3 (2+sqrt(3)) exp(pi/sqrt(3)) Gamma(1/3)^12 / (1024 pi^8)",
            euler_f(q3, prec) ** 8,
            3
            * (2 + ctx.sqrt(3))
            * ctx.exp(pi / ctx.sqrt(3))
            * gamma(Fraction(1, 3), prec) ** 12
            / (1024 * pi**8),
        ),
    ]


def deriv_closed_forms(prec) -> tuple:
    """e^pi Gamma(1/4)^4 / (64 2^(5/8) pi^3), the closed form of dR(1,2,4)/dq
    at q = e^-pi, and e^pi Gamma(1/4)^4 / (16 pi^3), the factor that
    multiplies rho in dR(1,2,5)/dq there: the residuals of ``deriv.eq57``
    and the last rows of ``qelliptic table``."""
    ctx = prec.context()
    g14 = gamma(Fraction(1, 4), prec)
    return (
        ctx.exp(ctx.pi) * g14**4 / (64 * 2 ** cv(ctx, Fraction(5, 8)) * ctx.pi**3),
        ctx.exp(ctx.pi) * g14**4 / (16 * ctx.pi**3),
    )


@check(
    "prodid.intro",
    covers=("eq5", "eq6", "eq7"),
    description="three closed-form product evaluations at r = 2/5 and r = 3",
    formula="prod (1+e^(-n pi sqrt(2/5)))^8, prod (1+e^(-n pi sqrt3))^8, prod (1-e^(-n pi sqrt3))^8",
)
def _chk_prodid_intro(prec, rng):
    for _, _, computed, closed in intro_product_rows(prec):
        yield abs(computed - closed)


@check(
    "thm1.eq11",
    covers=("eq11",),
    description="even-shift bilateral sums in the Landen moduli chain",
    formula="sum q^(n^2+2mn) = 2^(1/6) q^(-m^2) (k11 k22)^(1/3) (k12 k21)^(-1/6) sqrt(K/pi)",
)
def _chk_thm1_eq11(prec, rng):
    for r in (1, 2, 3):
        ctx = prec.context()
        q = nome_from_r(r, prec).q
        k11, k12, k21, k22 = landen_chain(q, prec)
        K = K_of_k(k11, prec)
        base = (
            2 ** cv(ctx, Fraction(1, 6))
            * (k11 * k22) ** cv(ctx, Fraction(1, 3))
            / (k12 * k21) ** cv(ctx, Fraction(1, 6))
            * ctx.sqrt(K / ctx.pi)
        )
        for m in (0, 1, 2):
            lhs = theta_sum_S(2 * m, q, prec)
            yield abs(lhs - qpow(ctx, q, -m * m) * base)


@check(
    "thm1.eq12",
    covers=("eq12",),
    description="odd-shift bilateral sums in the Landen moduli chain",
    formula="sum q^(n^2+(2m+1)n) = 2^(5/6) q^(-(2m+1)^2/4) (k11 k12 k21)^(1/6) k22^(-1/3) sqrt(K/pi)",
)
def _chk_thm1_eq12(prec, rng):
    for r in (1, 2, 3):
        ctx = prec.context()
        q = nome_from_r(r, prec).q
        k11, k12, k21, k22 = landen_chain(q, prec)
        K = K_of_k(k11, prec)
        base = (
            2 ** cv(ctx, Fraction(5, 6))
            * (k11 * k12 * k21) ** cv(ctx, Fraction(1, 6))
            / k22 ** cv(ctx, Fraction(1, 3))
            * ctx.sqrt(K / ctx.pi)
        )
        for m in (0, 1):
            lhs = theta_sum_S(2 * m + 1, q, prec)
            rhs = qpow(ctx, q, Fraction(-((2 * m + 1) ** 2), 4)) * base
            yield abs(lhs - rhs)


@check(
    "thm1.eq1314",
    covers=("eq13", "eq14"),
    description="bilateral sum as a triple product; even shifts via the odd product",
    formula="S_z = prod (1-q^(2n+2))(1+q^(2n+1+z))(1+q^(2n+1-z)); S_2m reduction",
)
def _chk_thm1_eq1314(prec, rng):
    # bilateral sum vs triple product at generic rational shifts
    for _ in range(3):
        z = _frac(rng, 0, 3)
        q = _frac(rng, Fraction(1, 20), Fraction(1, 4))
        ctx = prec.context()
        qv = cv(ctx, q)
        S = theta_sum_S(z, q, prec)
        prod = (
            euler_f(qv * qv, prec)
            * pochhammer(-qpow(ctx, qv, 1 + z), qv * qv, INF, prec)
            * pochhammer(-qpow(ctx, qv, 1 - z), qv * qv, INF, prec)
        )
        yield abs(S - prod)
    # even-shift reduction to the doubled-nome odd product
    ctx = prec.context()
    q = nome_from_r(1, prec).q
    k11, k12, _, _ = landen_chain(q, prec)
    K = K_of_k(k11, prec)
    for m in (1, 2):
        S = theta_sum_S(2 * m, q, prec)
        head = ctx.mpf(1)
        for n in range(m):
            head *= (1 + qpow(ctx, q, 2 * (n - m) + 1)) / (1 + q ** (2 * n + 1))
        tail = pochhammer(-q, q * q, INF, prec) ** 2
        rhs = (
            (2 * k11 * k12) ** cv(ctx, Fraction(1, 6))
            * qpow(ctx, q, Fraction(-1, 12))
            * ctx.sqrt(K / ctx.pi)
            * head
            * tail
        )
        yield abs(S - rhs)


@check(
    "thm1.app",
    covers=("eq11", "eq12"),
    description="two-sided series combination equals an odd-shift bilateral sum",
    formula="M(q^2a, q^2) + q^-2a M(q^-2a, q^2) = sum q^(k^2+(2a+1)k)",
)
def _chk_thm1_app(prec, rng):
    for r in (1, 2):
        ctx = prec.context()
        q = nome_from_r(r, prec).q
        for a in (0, 1, 2):
            lhs = m_series(qpow(ctx, q, 2 * a), q * q, prec) + qpow(
                ctx, q, -2 * a
            ) * m_series(qpow(ctx, q, -2 * a), q * q, prec)
            rhs = theta_sum_S(2 * a + 1, q, prec)
            yield abs(lhs - rhs)


@check(
    "cf.eq1617",
    covers=("eq16", "eq17"),
    description="alternating-pattern fraction equals its defining series",
    formula="M(c,q) series = the 1/(1-) cq/(1+) c(q-q^2)/(1-) ... fraction",
)
def _chk_cf_eq1617(prec, rng):
    for _ in range(4):
        c = _frac(rng, Fraction(1, 20), 1)
        if rng.random() < 0.5:
            c = -c
        q = _frac(rng, Fraction(1, 20), Fraction(1, 2))
        ctx = prec.context()
        yield abs(m_series(c, q, prec) - m_cf(cv(ctx, c), cv(ctx, q), prec))


def _cf_note_residual(ctx, prec, qv, a, sign):
    """|q^((a+1)^2/4) M(sign q^a, q^2) - (1/2 - sum_{k<=(a-1)/2} q^(k^2) + theta3(0,q)/2)|."""
    lhs = qpow(ctx, qv, Fraction((a + 1) ** 2, 4)) * m_series(
        sign * qpow(ctx, qv, a), qv * qv, prec
    )
    rhs = (
        cv(ctx, Fraction(1, 2))
        - sum(qv ** (k * k) for k in range((a - 1) // 2 + 1))
        + theta3(0, qv, prec) / 2
    )
    return abs(lhs - rhs)


@check(
    "cf.note",
    covers=("eq16", "eq17"),
    description="odd-exponent evaluation of the series in partial sums of q^(k^2)",
    formula="q^((a+1)^2/4) M(q^a, q^2) = 1/2 - sum_{k<=(a-1)/2} q^(k^2) + theta3(0,q)/2",
)
def _chk_cf_note(prec, rng):
    for q in (Fraction(3, 20), Fraction(3, 10)):
        ctx = prec.context()
        qv = cv(ctx, q)
        for a in (1, 3, 5):
            yield _cf_note_residual(ctx, prec, qv, a, 1)
        # the closing relation: the square of the z = 0 sum is 2 K / pi
        mod = modulus_from_nome(qv, prec)
        yield abs(theta3(0, qv, prec) - ctx.sqrt(2 * K_of_k(mod.k, prec) / ctx.pi))


@check(
    "cf.note-sign",
    covers=("eq16", "eq17"),
    description="literal sign reading of the odd-exponent evaluation (documented slip)",
    formula="q^((a+1)^2/4) M(-q^a, q^2) vs the same right side: the prose says c = -q^a, the fraction uses c = +q^a",
    severity=DISCREPANCY_ALLOWED,
    min_digits=READING_MIN_DIGITS,
)
def _chk_cf_note_sign(prec, rng):
    ctx = prec.context()
    qv = cv(ctx, Fraction(3, 20))
    for a in (1, 3):
        yield _cf_note_residual(ctx, prec, qv, a, -1)


@check(
    "lemma2.eq18",
    covers=("eq18",),
    description="hyperbolic log-sum equals a log-ratio of products",
    formula="sum cosh(2tk)/(k sinh(pi a k)) = log prod(1-e^(-2n pi a)) - log theta4(it, e^(-a pi))",
)
def _chk_lemma2_eq18(prec, rng):
    for t, a in ((0, 2), (Fraction(1, 2), 1), (1, 3), (Fraction(-3, 10), Fraction(1, 2))):
        ctx = prec.context()
        lhs = hyperbolic_log_sum(t, a, prec)
        P0 = euler_f(ctx.exp(-2 * ctx.pi * cv(ctx, a)), prec)
        th = theta4(ctx.mpc(0, 1) * cv(ctx, t), ctx.exp(-ctx.pi * cv(ctx, a)), prec)
        yield abs(lhs - (ctx.log(P0) - ctx.log(th)))


@check(
    "theta.eq19",
    covers=("eq19",),
    description="series and triple-product routes agree for the fourth theta function",
    formula="theta4(z,q) series = prod (1-q^2n)(1-2 q^(2n-1) cos 2z + q^(4n-2))",
)
def _chk_theta_eq19(prec, rng):
    ctx = prec.context()
    samples = [
        (cv(ctx, Fraction(3, 10)), cv(ctx, Fraction(1, 5))),
        (ctx.mpc(cv(ctx, Fraction(1, 10)), cv(ctx, Fraction(1, 5))), cv(ctx, Fraction(1, 5))),
        (cv(ctx, _frac(rng, 0, 1)), cv(ctx, _frac(rng, Fraction(1, 20), Fraction(2, 5)))),
    ]
    for z, q in samples:
        yield abs(theta4(z, q, prec) - theta4_product(z, q, prec))


@check(
    "theta.def-printed",
    covers=("eq18", "eq19"),
    description="cosine-series display missing the factor 2 (documented slip)",
    formula="1 + sum (-1)^n q^(n^2) cos(2nz) vs the triple product; the standard series has 2 sum",
    severity=DISCREPANCY_ALLOWED,
)
def _chk_theta_def_printed(prec, rng):
    ctx = prec.context()
    z, q = cv(ctx, Fraction(3, 10)), cv(ctx, Fraction(1, 5))
    printed = (1 + theta4(z, q, prec)) / 2  # theta4 = 1 + 2 sum (-1)^n q^(n^2) cos 2nz
    yield abs(printed - theta4_product(z, q, prec))


@check(
    "rr.eq2021",
    covers=("eq20", "eq21", "eq32"),
    description="first quotient fraction equals its product and character-product forms",
    formula="1/(1+ q/(1+ q^2/...)) = (q;q^5)(q^4;q^5)/((q^2;q^5)(q^3;q^5)) = prod (1-q^n)^chi(n)",
)
def _chk_rr_eq2021(prec, rng):
    ctx = prec.context()
    pi = ctx.pi
    for q in (ctx.exp(-pi), ctx.exp(-2 * pi), ctx.exp(-pi * ctx.sqrt(3)), cv(ctx, Fraction(1, 5))):
        bare = rr_cf(q, prec)
        yield abs(bare - rq_star(RQParams(1, 2, 5), q, prec))
        yield abs(bare - rq_charprod(1, 2, 5, q, prec))
        yield abs(r1_cf(q, prec) - rq(RQParams(1, 2, 5), q, prec))


@check(
    "rr.eq21-printed",
    covers=("eq20", "eq21"),
    description="prefactor-free chain reading of the first quotient (documented slip)",
    formula="q^(-1/5) (bare fraction) vs the product ratio; the bare fraction already equals the ratio",
    severity=DISCREPANCY_ALLOWED,
)
def _chk_rr_eq21_printed(prec, rng):
    ctx = prec.context()
    q = cv(ctx, Fraction(1, 5))
    lhs = qpow(ctx, q, Fraction(-1, 5)) * rr_cf(q, prec)
    yield abs(lhs - rq_star(RQParams(1, 2, 5), q, prec))


@check(
    "rr.eq22",
    covers=("eq22",),
    description="prefactored first quotient as a ratio of fourth theta values",
    formula="R(e^-x) = e^(-x/5) theta4(3ix/4, e^(-5x/2))/theta4(ix/4, e^(-5x/2))",
)
def _chk_rr_eq22(prec, rng):
    ctx = prec.context()
    for x in (ctx.pi, 2 * ctx.pi, ctx.pi * ctx.sqrt(3)):
        yield abs(r1_cf(ctx.exp(-x), prec) - rq_theta(1, 2, 5, x, prec, route="theta"))


@check(
    "rr.eq2324",
    covers=("eq23", "eq24"),
    description="exponential-sum and cosh/sinh forms of the first quotient",
    formula="R(e^-x) = exp(-x/5 - sum ...) and the cosh/sinh rewriting",
)
def _chk_rr_eq2324(prec, rng):
    ctx = prec.context()
    for x in (ctx.mpf(1), ctx.mpf(2), ctx.pi):
        R = r1_cf(ctx.exp(-x), prec)
        yield abs(R - rq_theta(1, 2, 5, x, prec, route="expsum"))
        yield abs(R - ctx.exp(-x / 5 + _cosh_sinh_sum(ctx, x)))


def _cosh_sinh_sum(ctx, x):
    """sum_{n>=1} (cosh(nx/2) - cosh(3nx/2)) / (n sinh(5nx/2)) for x > 0.
    Divided by E^5n, E = e^(x/2), a term is (u^2n + u^3n - u^n - u^4n) /
    (n (1 - u^5n)) with u = e^(-x) < 1, whose powers come from a table in
    fixed-point integers; the sum is rounded once."""
    wp = ctx.prec + _FIXED_GUARD
    u = ctx.make_mpf(mpf_exp(mpf_neg(x._mpf_), wp))  # exact to wp bits
    one, power = 1 << wp, _qpowers(ctx, u, wp)
    terms = ((power(2 * n) + power(3 * n) - power(n) - power(4 * n) << wp)
             // (n * (one - power(5 * n))) for n in itertools.count(1))
    return _from_fixed(ctx, _settle(ctx, tail_eps(ctx, u), terms, wp=wp)[0], wp)


@check(
    "h.eq2526",
    covers=("eq25", "eq26"),
    description="octic quotient fraction equals its exponential-sum and product forms",
    formula="H(e^-x) = exp(-x/2 - sum (e^7nx - e^5nx - e^3nx + e^nx)/(n(e^8nx - 1)))",
)
def _chk_h_eq2526(prec, rng):
    ctx = prec.context()
    for x in (ctx.mpf(1), ctx.pi):
        yield abs(h_cf(ctx.exp(-x), prec) - rq_theta(1, 3, 8, x, prec, route="expsum"))
    for q in (Fraction(1, 10), Fraction(1, 4)):
        qv = cv(ctx, q)
        yield abs(h_cf(qv, prec) - rq(RQParams(1, 3, 8), qv, prec))


@check(
    "h.eq27",
    covers=("eq27",),
    description="octic quotient as a theta ratio (corrected denominator argument ix/2)",
    formula="H(e^-x) = e^(-x/2) theta4(3ix/2, e^(-4x))/theta4(ix/2, e^(-4x))",
)
def _chk_h_eq27(prec, rng):
    ctx = prec.context()
    for x in (ctx.mpf(1), ctx.pi):
        yield abs(h_cf(ctx.exp(-x), prec) - rq_theta(1, 3, 8, x, prec, route="theta"))


@check(
    "h.eq27-printed",
    covers=("eq27",),
    description="theta-ratio display with denominator argument ix/4 (documented slip)",
    formula="e^(-x/2) theta4(3ix/2, e^(-4x))/theta4(ix/4, e^(-4x)) vs the fraction",
    severity=DISCREPANCY_ALLOWED,
    min_digits=READING_MIN_DIGITS,
)
def _chk_h_eq27_printed(prec, rng):
    ctx = prec.context()
    x = ctx.mpf(1)
    i = ctx.mpc(0, 1)
    Q = ctx.exp(-4 * x)
    lhs = ctx.exp(-x / 2) * theta4(3 * i * x / 2, Q, prec) / theta4(i * x / 4, Q, prec)
    yield abs(h_cf(ctx.exp(-x), prec) - lhs)


def _obs1_value(a, p, power, prec):
    ctx = prec.context()
    q = ctx.exp(-ctx.pi)
    v = qpow(ctx, q, _agile_exponent(a, p)) * agile(AgileParams(a, p), q, prec)
    return ctx.re(v) ** power


def _recognition_residual(res, expected=None):
    """Map a find_minpoly outcome to a residual: tiny when recognized and
    verified (and matching `expected` when given), sentinel 1.0 or 0.5
    otherwise."""
    if res is NOT_FOUND:
        return 1.0
    if expected is not None and tuple(res.coeffs) != tuple(expected):
        return 1.0
    if res.confidence != "verified":
        return 0.5
    return res.residual


def _recognized(value_fn, prec, expected=None):
    """Recognize value_fn(prec) at degree <= 8, verified by recomputing
    value_fn 30 digits higher, and map the outcome to a residual."""
    res = find_minpoly(value_fn(prec), 8, prec=prec, recompute=value_fn)
    return _recognition_residual(res, expected)


@check(
    "obs1.algebraic",
    covers=("eq28", "eq29"),
    description="exponent-weighted products are algebraic (recognized after a power map)",
    formula="minpoly of v, v^4, v^4, v^12 for (a,p) = (1,4),(1,5),(2,5),(1,6) at q = exp(-pi)",
    min_digits=RECOGNITION_MIN_DIGITS,
)
def _chk_obs1_algebraic(prec, rng):
    for a, p, power in ((1, 4, 1), (1, 5, 4), (2, 5, 4), (1, 6, 12)):
        yield _recognized(functools.partial(_obs1_value, a, p, power), prec)


@check(
    "obs1.deg8-printed",
    covers=("eq29",),
    description="raw values of three pairs exceed every degree-8 height-1e8 polynomial",
    formula="find_minpoly(v, 8) returns not-found for (1,5),(2,5),(1,6): their true degrees exceed 8",
    severity=DISCREPANCY_ALLOWED,
    min_digits=RECOGNITION_MIN_DIGITS,
)
def _chk_obs1_deg8_printed(prec, rng):
    for a, p in ((1, 5), (2, 5), (1, 6)):
        res = find_minpoly(_obs1_value(a, p, 1, prec), 8, prec=prec)
        yield _recognition_residual(res)


@check(
    "rq.fourway",
    covers=("eq30", "eq31", "eq33", "eq34", "eq35", "eq36"),
    description="product, theta-ratio, exponential-sum and character routes agree",
    formula="R(a,b,p;q) via four independent evaluation routes",
)
def _chk_rq_fourway(prec, rng):
    for a, b, p in ((1, 2, 5), (1, 3, 8), (1, 2, 4), (2, 3, 7)):
        for q in ("exp", Fraction(3, 20)):
            ctx = prec.context()
            if q == "exp":
                x = ctx.pi
                qv = ctx.exp(-x)
            else:
                qv = cv(ctx, q)
                x = -ctx.log(qv)
            v1 = rq(RQParams(a, b, p), qv, prec)
            v2 = rq_theta(a, b, p, x, prec, route="theta")
            v3 = rq_theta(a, b, p, x, prec, route="expsum")
            v4 = qpow(ctx, qv, _rq_exponent(a, b, p)) * rq_charprod(a, b, p, qv, prec)
            yield from (abs(v1 - v2), abs(v1 - v3), abs(v1 - v4))


@check(
    "thm3.eq3334",
    covers=("eq33", "eq34"),
    description="theta and exponential-sum routes at random rational parameters",
    formula="R(a,b,p;e^-x) = exp(...) theta4((p-2a)ix/4, e^(-px/2))/theta4((p-2b)ix/4, ...) = exp-sum form",
)
def _chk_thm3_eq3334(prec, rng):
    for _ in range(3):
        p = _frac(rng, 2, 6)
        a = _frac(rng, 0, p)
        b = _frac(rng, 0, p)
        ctx = prec.context()
        x = cv(ctx, _frac(rng, Fraction(1, 2), 3))
        qv = ctx.exp(-x)
        v1 = rq(RQParams(a, b, p), qv, prec)
        yield abs(v1 - rq_theta(a, b, p, x, prec, route="theta"))
        yield abs(v1 - rq_theta(a, b, p, x, prec, route="expsum"))


@check(
    "thm4.eq3536",
    covers=("eq35", "eq36"),
    description="quotient of products equals the character-exponent product",
    formula="R*(a,b,p;q) = prod (1-q^n)^X2(n) at random integer triples",
)
def _chk_thm4_eq3536(prec, rng):
    for k in range(4):
        p = rng.randint(5, 12)
        a = rng.randint(1, p - 1)
        b = rng.randint(1, p - 1)
        while b == a:
            b = rng.randint(1, p - 1)
        q = Fraction(3, 25) if k % 2 == 0 else Fraction(3, 10)
        ctx = prec.context()
        qv = cv(ctx, q)
        yield abs(rq_star(RQParams(a, b, p), qv, prec) - rq_charprod(a, b, p, qv, prec))


@check(
    "agile.eq37",
    covers=("eq28", "eq37"),
    description="product and signed bilateral-sum routes agree for the basic product",
    formula="[a,p;q] = (1/f(-q^p)) sum (-1)^n q^(p n^2/2 + (p-2a)n/2)",
)
def _chk_agile_eq37(prec, rng):
    pairs = [(1, 5), (2, 7), (Fraction(3, 2), 4), (Fraction(1, 3), 2)]
    p = _frac(rng, 1, 5)
    pairs.append((_frac(rng, 0, p), p))
    for a, p in pairs:
        for q in (Fraction(1, 5), "exp"):
            ctx = prec.context()
            qv = ctx.exp(-ctx.pi) if q == "exp" else cv(ctx, q)
            lhs = agile(AgileParams(a, p), qv, prec, route="product")
            rhs = agile(AgileParams(a, p), qv, prec, route="theta")
            yield abs(lhs - rhs)


def _m38(ctx, prec, a, p, q):
    """M(-q^-a, q^p) - q^a M(-q^a, q^p): the two-sided combination that
    collapses to an exponent-weighted product."""
    qp = qpow(ctx, q, p)
    return m_series(-qpow(ctx, q, -a), qp, prec) - qpow(ctx, q, a) * m_series(
        -qpow(ctx, q, a), qp, prec
    )


@check(
    "cf.eq383940",
    covers=("eq38", "eq39", "eq40"),
    description="two-sided series combinations build the quotient and the first fraction",
    formula="M(-q^-a,q^p) - q^a M(-q^a,q^p) = f(-q^p)[a,p;q]; ratios give R* and the first quotient",
)
def _chk_cf_eq383940(prec, rng):
    for a, b, p in ((1, 2, 5), (1, 3, 8), (2, 3, 7)):
        ctx = prec.context()
        qv = cv(ctx, Fraction(3, 20))
        la = _m38(ctx, prec, a, p, qv)
        lb = _m38(ctx, prec, b, p, qv)
        yield abs(la - euler_f(qpow(ctx, qv, p), prec) * agile(AgileParams(a, p), qv, prec))
        yield abs(la / lb - rq_star(RQParams(a, b, p), qv, prec))
    ctx = prec.context()
    qv = cv(ctx, Fraction(1, 5))
    yield abs(_m38(ctx, prec, 1, 5, qv) / _m38(ctx, prec, 2, 5, qv) - rr_cf(qv, prec))


@check(
    "app3.eq4142",
    covers=("eq41", "eq42"),
    description="integer-shift and reflection invariance of the normalized product ratio",
    formula="tau0(a,q) = tau0(n+a,q) = tau0(n-a,q)",
)
def _chk_app3_eq4142(prec, rng):
    for a in (Fraction(3, 10), _frac(rng, 0, 1)):
        for q in (Fraction(3, 20), Fraction(3, 10)):
            ctx = prec.context()
            qv = cv(ctx, q)
            base = tau0(a, qv, prec)
            for n in (1, 2):
                yield abs(base - tau0(n + a, qv, prec))
                yield abs(base - tau0(n - a, qv, prec))


@check(
    "app3.eq43",
    covers=("eq43",),
    description="vanishing derivative at integer arguments",
    formula="d tau0/da = 0 at a in Z (central difference at h = 10^(-digits/3))",
)
def _chk_app3_eq43(prec, rng):
    # The ratio is symmetric about integer a, so a central difference of
    # width h measures pure evaluation roundoff divided by 2h, about
    # 10^(digits/3) ulps; tau0 is evaluated digits/3 + 5 digits higher so
    # that this stays below the residual floor.
    hi = prec.bumped(prec.digits // 3 + 5)
    ctx = hi.context()
    qv = cv(ctx, Fraction(1, 5))
    h = ctx.mpf(10) ** (-(prec.digits // 3))
    for a0 in (1, 2):
        d = (tau0(a0 + h, qv, hi) - tau0(a0 - h, qv, hi)) / (2 * h)
        yield abs(d)


@check(
    "app3.eq4445",
    covers=("eq44", "eq45"),
    description="period-shift and reflection invariance of the general ratio",
    formula="tau*(a,p;q) = tau*(np+a,p;q) = tau*(np-a,p;q)",
)
def _chk_app3_eq4445(prec, rng):
    pairs = [(Fraction(2, 5), Fraction(13, 10)), (Fraction(2, 3), 2)]
    pairs.append((_frac(rng, 0, 1), _frac(rng, 1, 3)))
    for a, p in pairs:
        ctx = prec.context()
        qv = cv(ctx, Fraction(3, 20))
        base = tau_star(a, p, qv, prec)
        for n in (1, 2):
            yield abs(base - tau_star(n * p + a, p, qv, prec))
            yield abs(base - tau_star(n * p - a, p, qv, prec))


@check(
    "psistar.eq4647",
    covers=("eq46", "eq47"),
    description="bilateral sum equals both product forms",
    formula="psi*(a,p;q) = f(-q^p)(-q^a;q^p)(-q^(p-a);q^p) = f(-q^p)[2a,2p;q]/[a,p;q]",
)
def _chk_psistar_eq4647(prec, rng):
    for a, p in ((Fraction(3, 10), 1), (Fraction(3, 2), 2), (Fraction(5, 6), 3)):
        for q in (Fraction(1, 5), Fraction(2, 5)):
            ctx = prec.context()
            qv = cv(ctx, q)
            s = psi_star(a, p, qv, prec, route="sum")
            yield abs(s - psi_star(a, p, qv, prec, route="product"))
            quot = (
                euler_f(qpow(ctx, qv, p), prec)
                * agile(AgileParams(2 * a, 2 * p), qv, prec)
                / agile(AgileParams(a, p), qv, prec)
            )
            yield abs(s - quot)


@check(
    "thm5.eq4849",
    covers=("eq48", "eq49", "eq50"),
    description="equality of the general ratio at linked arguments",
    formula="tau*(a,|a+-b|/n;q) = tau*(b,|a+-b|/n;q); tau*(1/a, gcd/(ab)) = tau*(1/b, gcd/(ab))",
)
def _chk_thm5_eq4849(prec, rng):
    ctx = prec.context()
    qv = cv(ctx, Fraction(3, 20))
    for _ in range(2):
        a = _frac(rng, 0, 3)
        b = _frac(rng, 0, 3)
        while b == a:
            b = _frac(rng, 0, 3)
        for n in (1, 2):
            p = Fraction(a + b, n)
            yield abs(tau_star(a, p, qv, prec) - tau_star(b, p, qv, prec))
            p = Fraction(abs(a - b), n)
            yield abs(tau_star(a, p, qv, prec) - tau_star(b, p, qv, prec))
    for ia, ib in ((2, 3), (4, 6)):
        p = Fraction(math.gcd(ia, ib), ia * ib)
        yield abs(tau_star(Fraction(1, ia), p, qv, prec) - tau_star(Fraction(1, ib), p, qv, prec))
    a, b, p = 1, 2, Fraction(3, 2)
    lhs = qpow(ctx, qv, Fraction(a * a, 2) / p - Fraction(a, 2)) * psi_star(a, p, qv, prec)
    rhs = qpow(ctx, qv, Fraction(b * b, 2) / p - Fraction(b, 2)) * psi_star(b, p, qv, prec)
    yield abs(lhs - rhs)


@check(
    "deriv.eq5153",
    covers=("eq51", "eq52", "eq53"),
    description="the three classical fractions equal their exponent-weighted products",
    formula="R1, R2, R3 fractions vs q^e (q^a;q^p).../(...) products",
)
def _chk_deriv_eq5153(prec, rng):
    for q in (Fraction(1, 10), Fraction(1, 5), "exp"):
        ctx = prec.context()
        qv = ctx.exp(-ctx.pi) if q == "exp" else cv(ctx, q)
        yield abs(r1_cf(qv, prec) - rq(RQParams(1, 2, 5), qv, prec))
        yield abs(r2_cf(qv, prec) - rq(RQParams(1, 3, 6), qv, prec))
        yield abs(r3_cf(qv, prec) - rq(RQParams(1, 3, 8), qv, prec))


@check(
    "deriv.eq53-printed",
    covers=("eq53",),
    description="third-fraction display with denominator 1+q^7 in third place (documented slip)",
    formula="q^(1/2)/((1+q)+) q^2/((1+q^3)+) q^4/((1+q^7)+) ... vs the product; pattern wants 1+q^5",
    severity=DISCREPANCY_ALLOWED,
    min_digits=READING_MIN_DIGITS,
)
def _chk_deriv_eq53_printed(prec, rng):
    ctx = prec.context()
    qv = cv(ctx, Fraction(3, 20))

    def den(n):
        e = 7 if n == 3 else 2 * n - 1
        return 1 + qv**e

    cf = ContinuedFraction(
        b0=ctx.mpf(0),
        partial_num=lambda n: ctx.mpf(1) if n == 1 else qv ** (2 * (n - 1)),
        partial_den=den,
    )
    lhs = qpow(ctx, qv, Fraction(1, 2)) * eval_cf(cf, prec)
    yield abs(lhs - rq(RQParams(1, 3, 8), qv, prec))


def _drq_norm_at_exp_pi(a, b, p, prec):
    ctx = prec.context()
    return drq_normalized(RQParams(a, b, p), ctx.exp(-ctx.pi), prec)


@check(
    "deriv.eq54",
    covers=("eq54", "eq55"),
    description="normalized derivatives of the three fractions are algebraic of degree <= 8",
    formula="R'(q) q pi^2/K^2 at q = exp(-pi) has an integer minimal polynomial, degree <= 8",
    min_digits=RECOGNITION_MIN_DIGITS,
)
def _chk_deriv_eq54(prec, rng):
    for a, b, p, expected in (
        (1, 2, 5, DERIV_POLY_125),
        (1, 3, 6, DERIV_POLY_136),
        (1, 3, 8, DERIV_POLY_138),
    ):
        yield _recognized(functools.partial(_drq_norm_at_exp_pi, a, b, p), prec, expected)


def _agile_deriv_normalized(a, p, prec):
    """d/dq of q^e [a,p;q], e = p/12 - a/2 + a^2/(2p), at q = exp(-pi),
    normalized by q pi^2 / K^2, via the exact logarithmic derivative of the
    product by ``rquantity._log_derivative``.  Since K = (pi/2)
    theta3(0, q)^2, pi^2 / K^2 is 4 / theta3(0, q)^4."""
    ctx = prec.context()
    q = ctx.exp(-ctx.pi)
    e = _agile_exponent(a, p)
    g = qpow(ctx, q, e) * agile(AgileParams(a, p), q, prec)
    signed = [(cv(ctx, a), 1), (cv(ctx, p - a), 1)]
    dg = g * _log_derivative(ctx, e, signed, cv(ctx, p), q)[0]
    return ctx.re(dg * q * 4 / theta3(0, q, prec) ** 4)


@check(
    "deriv.eq56",
    covers=("eq56",),
    description="normalized derivative of the exponent-weighted product is algebraic",
    formula="d/dq[q^(p/12-a/2+a^2/(2p))[a,p;q]] q pi^2/K^2 at (1,4), q = exp(-pi) is -2^(-15/8)",
    min_digits=RECOGNITION_MIN_DIGITS,
)
def _chk_deriv_eq56(prec, rng):
    yield _recognized(functools.partial(_agile_deriv_normalized, 1, 4), prec, AGILE_DERIV_POLY_14)


@check(
    "deriv.eq57",
    covers=("eq55", "eq57"),
    description="closed forms of two derivative values at q = exp(-pi)",
    formula="dR(1,2,4)/dq = e^pi Gamma(1/4)^4/(64 2^(5/8) pi^3); dR(1,2,5)/dq = e^pi Gamma(1/4)^4/(16 pi^3) rho",
)
def _chk_deriv_eq57(prec, rng):
    ctx = prec.context()
    q = ctx.exp(-ctx.pi)
    closed124, factor125 = deriv_closed_forms(prec)
    rho = drq_normalized(RQParams(1, 2, 5), q, prec)
    yield abs(drq_dq(RQParams(1, 2, 4), q, prec) - closed124)
    yield abs(verify_root(DERIV_POLY_125, rho, prec))
    yield abs(drq_dq(RQParams(1, 2, 5), q, prec) - factor125 * rho)


@check(
    "prop.eq58",
    covers=("eq58",),
    description="quartic-nome fraction equals the rewritten product quotient",
    formula="P(q^A,q^B,q^(A+B)) = (q^a;q^p)(q^(2p-a);q^p)/[b,p;q], a = 2A+3p/4, b = 2B+p/4, p = 4(A+B)",
)
def _chk_prop_eq58(prec, rng):
    samples = [(1, 2), (2, 1), (Fraction(1, 2), Fraction(3, 2))]
    samples.append((_frac(rng, 0, 2), _frac(rng, 0, 2)))
    for A, B in samples:
        for q in (Fraction(3, 20), Fraction(1, 4)):
            ctx = prec.context()
            qv = cv(ctx, q)
            p = 4 * (Fraction(A) + Fraction(B))
            a = 2 * Fraction(A) + 3 * p / 4
            b = 2 * Fraction(B) + p / 4
            Q = qpow(ctx, qv, p)
            lhs = p_cf(qpow(ctx, qv, A), qpow(ctx, qv, B), qpow(ctx, qv, Fraction(A) + Fraction(B)), prec)
            rhs = (
                pochhammer(qpow(ctx, qv, a), Q, INF, prec)
                * pochhammer(qpow(ctx, qv, 2 * p - a), Q, INF, prec)
                / agile(AgileParams(b, p), qv, prec)
            )
            yield abs(lhs - rhs)


def _thm6_cf_residual(A, B, q, prec: PrecisionSpec):
    """Residual |psi(q^a, q^p, q^(p-a)) R*(a,b,p;q) - P(q^A, q^B, q^(A+B))|
    with a = 2A + 3p/4, b = 2B + p/4, p = 4(A+B).

    The psi factor is taken in its product form, under which the
    left side collapses to (q^p; q^p)_inf (q^a; q^p)_inf / [b,p;q]; that
    collapsed form is also the correct continuation at A = B, where the
    series psi and R* individually degenerate (pole against zero).  The
    right side is evaluated independently through the continued fraction.
    """
    ctx = prec.context()
    A = cv(ctx, A)
    B = cv(ctx, B)
    q = cv(ctx, q)
    if A <= 0 or B <= 0:
        raise DomainError("need A, B > 0")
    p = 4 * (A + B)
    a = 2 * A + 3 * p / 4
    b = 2 * B + p / 4
    Q = qpow(ctx, q, p)
    lhs = (
        pochhammer(Q, Q, INF, prec)
        * pochhammer(qpow(ctx, q, a), Q, INF, prec)
        / (
            pochhammer(qpow(ctx, q, p - b), Q, INF, prec)
            * pochhammer(qpow(ctx, q, b), Q, INF, prec)
        )
    )
    rhs = p_cf(qpow(ctx, q, A), qpow(ctx, q, B), qpow(ctx, q, A + B), prec)
    return abs(lhs - rhs)


@check(
    "thm6.eq61",
    covers=("eq59", "eq60", "eq61"),
    description="series-times-quotient identity at equal parameters",
    formula="psi(q^a,q^p,q^(p-a)) R*(a,b,p;q) = P(q^A,q^B,q^(A+B)) at A = B",
)
def _chk_thm6_eq61(prec, rng):
    for A in (1, 2, Fraction(1, 2)):
        for q in (Fraction(1, 10), Fraction(1, 5)):
            yield _thm6_cf_residual(A, A, q, prec)


@check(
    "thm6.eq61-general",
    covers=("eq61",),
    description="the same identity at A != B (holds only for A = B; documented)",
    formula="the A != B residual is nonzero: (q^p;Q) != (q^(2p-a);Q) unless a = p",
    severity=DISCREPANCY_ALLOWED,
    min_digits=READING_MIN_DIGITS,
)
def _chk_thm6_eq61_general(prec, rng):
    for A, B, q in ((1, 2, Fraction(1, 10)), (2, 1, Fraction(3, 20))):
        yield _thm6_cf_residual(A, B, q, prec)


@check(
    "thm6.eq65",
    covers=("eq64", "eq65"),
    description="basic hypergeometric evaluation of the quotient",
    formula="phi21[q^(b-a),q^(a+b-p);q^b;q^p,q^(p-b)] = R*(a,b,p;q)",
)
def _chk_thm6_eq65(prec, rng):
    ctx = prec.context()
    for a, b, p, q in ((1, 2, 5, Fraction(1, 5)), (1, 3, 8, Fraction(3, 20)), (2, 3, 7, Fraction(1, 5))):
        q = cv(ctx, q)
        lhs = phi21(
            Phi21Params(
                a=qpow(ctx, q, b - a),
                b=qpow(ctx, q, a + b - p),
                c=qpow(ctx, q, b),
                q=qpow(ctx, q, p),
                z=qpow(ctx, q, p - b),
            ),
            prec,
        )
        yield abs(lhs - rq_star(RQParams(a, b, p), q, prec))


def _thm6_theta_residual(a, b, c, p, q, prec):
    """|phi21(q^a, q^b; q^c; q^p, q^((p-a-b)/2)) - theta4((a-b) i ln q / 4, q^(p/2))
    / theta4((a+b) i ln q / 4, q^(p/2))| at real q in (0, 1)."""
    ctx = prec.context()
    a, b, c, p, q = (cv(ctx, v) for v in (a, b, c, p, q))
    logq = ctx.log(q)
    theta_quot = theta4(
        (a - b) * ctx.mpc(0, 1) * logq / 4, qpow(ctx, q, p / 2), prec
    ) / theta4((a + b) * ctx.mpc(0, 1) * logq / 4, qpow(ctx, q, p / 2), prec)
    lhs = phi21(
        Phi21Params(
            a=qpow(ctx, q, a),
            b=qpow(ctx, q, b),
            c=qpow(ctx, q, c),
            q=qpow(ctx, q, p),
            z=qpow(ctx, q, (p - a - b) / 2),
        ),
        prec,
    )
    return abs(lhs - theta_quot)


@check(
    "thm6.eq63",
    covers=("eq63",),
    description="basic hypergeometric sum as a ratio of fourth theta values",
    formula="phi21[a,b;sqrt(abc);c;sqrt(c/(ab))] = theta4((ln a - ln b)i/4, sqrt c)/theta4((ln a + ln b)i/4, sqrt c)",
)
def _chk_thm6_eq63(prec, rng):
    for a, b, p, q in ((1, 2, 5, Fraction(1, 5)), (1, 3, 8, Fraction(3, 20)), (2, 3, 7, Fraction(1, 5))):
        yield _thm6_theta_residual(a, b, Fraction(a + b + p, 2), p, q, prec)


@check(
    "thm6.eq62-printed",
    covers=("eq62",),
    description="theta-ratio display with lower parameter q^b (documented slip)",
    formula="phi21[q^a,q^b;q^b;q^p,q^((p-a-b)/2)] vs theta4 ratio; the lower parameter should be q^((a+b+p)/2)",
    severity=DISCREPANCY_ALLOWED,
    min_digits=READING_MIN_DIGITS,
)
def _chk_thm6_eq62_printed(prec, rng):
    for a, b, p, q in ((1, 2, 5, Fraction(1, 5)), (2, 3, 7, Fraction(1, 5))):
        yield _thm6_theta_residual(a, b, b, p, q, prec)


@check(
    "hyperq.eq5960",
    covers=("eq59", "eq60"),
    description="series with one upper parameter equals its product form",
    formula="sum (a;q)_n/(q;q)_n z^n = (az;q)/(z;q); degenerate phi21 consistency",
)
def _chk_hyperq_eq5960(prec, rng):
    for a, q, z in (
        (Fraction(3, 10), Fraction(1, 5), Fraction(1, 2)),
        (Fraction(-2, 5), Fraction(3, 20), Fraction(7, 10)),
        (2, Fraction(1, 10), Fraction(-3, 10)),
    ):
        yield abs(psi_small(a, q, z, prec) - psi_small_product(a, q, z, prec))
    yield abs(
        phi21(
            Phi21Params(Fraction(2, 5), Fraction(3, 10), Fraction(3, 10), Fraction(1, 10), Fraction(1, 2)),
            prec,
        )
        - psi_small_product(Fraction(2, 5), Fraction(1, 10), Fraction(1, 2), prec)
    )


@check(
    "hyperq.eq64",
    covers=("eq64",),
    description="terminating-free summation at argument c/(ab)",
    formula="phi21[a,b;c;q,c/(ab)] = (c/a;q)(c/b;q)/((c;q)(c/(ab);q))",
)
def _chk_hyperq_eq64(prec, rng):
    for a, b, c, q in (
        (Fraction(4, 5), Fraction(9, 10), Fraction(3, 10), Fraction(1, 10)),
        (Fraction(1, 2), Fraction(7, 10), Fraction(1, 5), Fraction(3, 20)),
    ):
        z = Fraction(c) / (Fraction(a) * Fraction(b))
        lhs = phi21(Phi21Params(a, b, c, q, z), prec)
        yield abs(lhs - gauss_product(a, b, c, q, prec))


@check(
    "hyperq.eq64-printed",
    covers=("eq64",),
    description="summation display with argument ab/c (documented slip)",
    formula="phi21[a,b;c;q,ab/c] vs the same product right side",
    severity=DISCREPANCY_ALLOWED,
)
def _chk_hyperq_eq64_printed(prec, rng):
    a, b, c, q = Fraction(1, 5), Fraction(3, 10), Fraction(7, 10), Fraction(1, 10)
    z = Fraction(a) * Fraction(b) / Fraction(c)
    lhs = phi21(Phi21Params(a, b, c, q, z), prec)
    yield abs(lhs - gauss_product(a, b, c, q, prec))


@check(
    "thm7.eq66",
    covers=("eq66",),
    description="half-odd-multiple arguments give a sign, not always 1 (corrected)",
    formula="R((2m1+1)p/2, (2m2+1)p/2, p; q) = (-1)^(m1-m2)",
)
def _chk_thm7_eq66(prec, rng):
    for m1, m2, p, x in ((0, 1, 3, 1), (1, 2, 2, 2), (0, 2, 5, 1)):
        ctx = prec.context()
        qv = ctx.exp(-ctx.mpf(x))
        val = rq(
            RQParams(Fraction((2 * m1 + 1) * p, 2), Fraction((2 * m2 + 1) * p, 2), p),
            qv,
            prec,
        )
        yield abs(val - (-1) ** (m1 - m2))


@check(
    "thm7.eq66-printed",
    covers=("eq66",),
    description="printed value 1 at odd m1-m2 (documented: true value is the sign)",
    formula="R(3/2, 9/2, 3; q) vs 1; the true value is -1",
    severity=DISCREPANCY_ALLOWED,
)
def _chk_thm7_eq66_printed(prec, rng):
    ctx = prec.context()
    qv = ctx.exp(-ctx.mpf(1))
    val = rq(RQParams(Fraction(3, 2), Fraction(9, 2), 3), qv, prec)
    yield abs(val - 1)


@check(
    "thm7.eq67",
    covers=("eq67",),
    description="even-multiple arguments give 1 (checked as a limit; both factors vanish there)",
    formula="R(2 m1 p + eps, 2 m2 p + eps, p; q) -> 1 as eps -> 0",
)
def _chk_thm7_eq67(prec, rng):
    # Both bilateral sums vanish identically at eps = 0, so the value is
    # checked as a limit.  R is invariant under a -> a + 2p, since
    # [a + 2p, p; q] = q^(-2a-p) [a, p; q] and C(a + 2p, b) - C(a, b) =
    # 2a + p, so R(2 m1 p + eps, 2 m2 p + eps, p; q) = R(eps, eps, p; q) = 1
    # for every eps: the residual is rounding alone.  The O(1) terms of
    # the two sums cancel to O(eps), which agile's theta route sums again
    # with the digits lost.
    ctx = prec.context()
    eps = Fraction(1, 10 ** ((2 * prec.digits) // 5))
    for m1, m2, p in ((1, 2, 3), (2, 1, 2)):
        qv = cv(ctx, Fraction(1, 5))
        val = rq(RQParams(2 * m1 * p + eps, 2 * m2 * p + eps, p), qv, prec)
        yield abs(val - 1)


@check(
    "thm7.eq68",
    covers=("eq68",),
    description="swap reciprocity of the quotient",
    formula="R(a,b,p;q) R(b,a,p;q) = 1",
)
def _chk_thm7_eq68(prec, rng):
    ctx = prec.context()
    qv = cv(ctx, Fraction(1, 5))
    for _ in range(2):
        p = _frac(rng, 2, 5)
        a = _frac(rng, 0, p)
        b = _frac(rng, 0, p)
        yield abs(rq(RQParams(a, b, p), qv, prec) * rq(RQParams(b, a, p), qv, prec) - 1)


def _thm8_eq69_sides(ctx, prec, m, p, r):
    """R(-mp + i/sqrt r, p/2 - mp + i/sqrt r, p; e^(-pi sqrt r)) and the
    square root of the singular modulus k_(p^2 r/4)."""
    i = ctx.mpc(0, 1)
    rr_ = ctx.sqrt(cv(ctx, r))
    qv = ctx.exp(-ctx.pi * rr_)
    a = -m * p + i / rr_
    b = cv(ctx, Fraction(p, 2)) - m * p + i / rr_
    val = rq(RQParams(a, b, p), qv, prec)
    return val, ctx.sqrt(singular_modulus(Fraction(p * p * r, 4), prec))


@check(
    "thm8.eq6970",
    covers=("eq69", "eq70"),
    description="imaginary-shift evaluation equals +i times a square-root modulus (corrected phase)",
    formula="R(-mp+i/sqrt r, p/2-mp+i/sqrt r, p; e^(-pi sqrt r)) = i k_(p^2 r/4)^(1/2), all m",
)
def _chk_thm8_eq6970(prec, rng):
    ctx = prec.context()
    i = ctx.mpc(0, 1)
    for m, p, r in ((0, 2, 1), (1, 2, 1), (0, 1, 4)):
        val, root_k = _thm8_eq69_sides(ctx, prec, m, p, r)
        yield abs(val - i * root_k)
    # same statement in proof variables at a generic nome
    q0 = cv(ctx, Fraction(3, 10))
    k0 = modulus_from_nome(q0, prec).k
    for m in (0, 1):
        p = 2
        c = i * ctx.pi / ctx.log(q0)
        A = -(2 * m + c) * p / 2
        B = -(2 * m + c - 1) * p / 2
        val = rq(RQParams(A, B, p), qpow(ctx, q0, Fraction(2, p)), prec)
        yield abs(val - i * ctx.sqrt(k0))


@check(
    "thm8.eq69-printed",
    covers=("eq69",),
    description="printed phase (-i)^m (documented: the true phase is +i for all m)",
    formula="R(...) vs (-i)^m k^(1/2)",
    severity=DISCREPANCY_ALLOWED,
)
def _chk_thm8_eq69_printed(prec, rng):
    ctx = prec.context()
    i = ctx.mpc(0, 1)
    for m, p, r in ((0, 2, 1), (1, 2, 1)):
        val, root_k = _thm8_eq69_sides(ctx, prec, m, p, r)
        yield abs(val - (-i) ** m * root_k)


def _thm8_eq71_value(ctx, prec, m, p):
    """R(-p(2m+i)/2, -p(2m+i-1)/2, p; e^(-2pi/p))."""
    i = ctx.mpc(0, 1)
    a = -cv(ctx, Fraction(p, 2)) * (2 * m + i)
    b = -cv(ctx, Fraction(p, 2)) * (2 * m + i - 1)
    return rq(RQParams(a, b, p), ctx.exp(-2 * ctx.pi / p), prec)


@check(
    "thm8.eq71",
    covers=("eq71",),
    description="worked example evaluates to -i 2^(-1/4) for every m and p (corrected phase)",
    formula="R(-p(2m+i)/2, -p(2m+i-1)/2, p; e^(-2pi/p)) = -i 2^(-1/4)",
)
def _chk_thm8_eq71(prec, rng):
    ctx = prec.context()
    i = ctx.mpc(0, 1)
    tgt = qpow(ctx, ctx.mpf(2), Fraction(-1, 4))
    for p in (2, 4):
        for m in (0, 1):
            yield abs(_thm8_eq71_value(ctx, prec, m, p) + i * tgt)


@check(
    "thm8.eq71-printed",
    covers=("eq71",),
    description="printed phase (-i)^m at m = 0 (documented: true value is -i 2^(-1/4))",
    formula="R(...) vs 2^(-1/4) at m = 0",
    severity=DISCREPANCY_ALLOWED,
)
def _chk_thm8_eq71_printed(prec, rng):
    ctx = prec.context()
    yield abs(_thm8_eq71_value(ctx, prec, 0, 2) - qpow(ctx, ctx.mpf(2), Fraction(-1, 4)))


@check(
    "thm8.eq72",
    covers=("eq72",),
    description="second worked example at the doubled nome (corrected reading)",
    formula="R(-mp+ip/(2 sqrt2), p/2-mp+ip/(2 sqrt2), p; e^(-2pi sqrt2/p)) = i sqrt(sqrt2-1)",
)
def _chk_thm8_eq72(prec, rng):
    ctx = prec.context()
    i = ctx.mpc(0, 1)
    rt2 = ctx.sqrt(2)
    tgt = ctx.sqrt(rt2 - 1)
    for p in (2, 3):
        for m in (0, 1):
            qv = ctx.exp(-2 * ctx.pi * rt2 / p)
            a = -m * p + i * p / (2 * rt2)
            b = cv(ctx, Fraction(p, 2)) - m * p + i * p / (2 * rt2)
            val = rq(RQParams(a, b, p), qv, prec)
            yield abs(val - i * tgt)


@check(
    "thm8.eq72-printed",
    covers=("eq72",),
    description="second worked example exactly as displayed (documented: matches no clean value)",
    formula="R(-(sqrt2-4mi)pi/4, -(2-i sqrt2-4m)p/4, p; e^(-pi sqrt2/p)) vs (-i)^m sqrt(sqrt2-1)",
    severity=DISCREPANCY_ALLOWED,
)
def _chk_thm8_eq72_printed(prec, rng):
    ctx = prec.context()
    i = ctx.mpc(0, 1)
    rt2 = ctx.sqrt(2)
    tgt = ctx.sqrt(rt2 - 1)
    for m in (0, 1):
        p = 2
        a = -(rt2 - 4 * m * i) * p * i / 4
        b = -(2 - i * rt2 - 4 * m) * p / 4
        val = rq(RQParams(a, b, p), ctx.exp(-ctx.pi * rt2 / p), prec)
        yield abs(val - (-i) ** m * tgt)


@check(
    "cor.eq73",
    covers=("eq73",),
    description="ratio of the normalized product ratio at successive half-integers",
    formula="tau0(m+1,q)/tau0(m+1/2,q) = k_(r/4)^(1/2) at q = e^(-pi sqrt r)",
)
def _chk_cor_eq73(prec, rng):
    ctx = prec.context()
    for r, ms in ((4, (0, 1)), (12, (0,))):
        qv = ctx.exp(-ctx.pi * ctx.sqrt(cv(ctx, r)))
        k = singular_modulus(Fraction(r, 4), prec)
        for m in ms:
            val = tau0(m + 1, qv, prec) / tau0(Fraction(2 * m + 1, 2), qv, prec)
            yield abs(val - ctx.sqrt(k))


# --------------------------------------------------------------------------
# runner


def _run_one(check: IdentityCheck, digits: int, seed: int, prec: PrecisionSpec) -> CheckOutcome:
    start = time.perf_counter()
    # A tolerance of 1 or more would let any residual pass, so such a check
    # is skipped rather than reported as a vacuous pass.
    tol_exp = check.tolerance_exponent(digits)
    if digits < check.min_digits or tol_exp >= 0:
        return CheckOutcome(check.id, "skip", "0", 0, time.perf_counter() - start)
    rng = random.Random(f"{seed}:{check.id}")
    try:
        errs = list(check.run(prec, rng))
    except NumericsError as exc:
        # one check that raises must not abort the report; it has no verdict
        return CheckOutcome(check.id, "error", type(exc).__name__, 0, time.perf_counter() - start)
    worst = mpmath.mpf(0)
    for e in errs:
        ev = mpmath.mpf(abs(e))
        if ev > worst:
            worst = ev
    floor = mpmath.mpf(10) ** (-(digits + prec.guard))
    if worst < floor:
        worst = floor
    tol = mpmath.mpf(10) ** tol_exp
    if worst < tol:
        status = "pass"
    elif check.severity == DISCREPANCY_ALLOWED:
        status = "discrepancy"
    else:
        status = "fail"
    return CheckOutcome(
        check.id,
        status,
        mpmath.nstr(worst, 3),
        len(errs),
        time.perf_counter() - start,
    )


def run_suite(
    selector: str = "all",
    digits: int = 60,
    seed: int = 42,
    parallelism: int = 1,
) -> Report:
    """Run every registered check whose id matches ``selector``, in id order.

    ``selector`` is either "all" or a prefix of check ids ("thm7",
    "lemma1.K").  Raises UnknownSelector when nothing matches.  The returned
    Report serializes byte-identically for identical inputs.

    The checks share one memo of primitive values (see ``numerics``): each
    distinct call of a public primitive is computed once per report, and
    the memo is dropped when the report is done, also when a check raises.
    So a check's ``seconds`` depends on the checks that ran before it; its
    verdict, residual and samples do not.

    ``parallelism`` is accepted and ignored: checks always run one after
    another.  They are CPU-bound pure-Python mpmath code, so a thread pool
    gained nothing under the interpreter lock: on a 2-core machine (Python
    3.11, mpmath 1.3.0 without gmpy2), alternating runs of the whole suite
    took 1.35-2.13 s serially and 1.63-2.09 s on two threads at 60 digits,
    8.15-8.78 s and 9.26 s at 120 digits, with identical reports.
    """
    checks = register_builtin_checks()
    if selector == "all":
        selected = checks
    else:
        selected = [c for c in checks if c.id == selector or c.id.startswith(selector)]
    if not selected:
        known = ", ".join(sorted({c.id.split(".")[0] for c in checks}))
        raise UnknownSelector(
            f"selector {selector!r} matches no check; known prefixes: {known}"
        )
    prec = PrecisionSpec(digits)
    token = _report_memo.set({})
    try:
        outcomes = [_run_one(c, digits, seed, prec) for c in selected]
    finally:
        _report_memo.reset(token)
    return Report(suite=selector, digits=digits, seed=seed, checks=tuple(outcomes))
