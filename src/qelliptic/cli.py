"""Command-line front end: evaluate any named quantity, run the
verification suites, recognize minimal polynomials, and print the table of
closed-form constants.

The CLI is a thin shell over the library: it parses flags, dispatches to
library calls, and formats output.  All numeric values are bit-identical to
the corresponding direct library calls.

Exit codes: 0 success; 1 a normative verification check failed, or a
``table`` row does not match its closed form; 2 usage or
parse error (including an unknown suite selector and insufficient requested
precision); 3 a computation failed to converge; 4 minimal-polynomial search
exhausted (no match within the degree and height bounds).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath

from .numerics import (
    NonConvergence,
    NumericsError,
    PrecisionSpec,
    cv,
)
from .elliptic import K_of_k, nome_from_r, singular_modulus
from .qfunctions import (
    AgileParams,
    agile,
    euler_f,
    psi_star,
    theta2,
    theta3,
    theta4,
    weber_phi,
)
from .cfrac import h_cf, m_cf, m_series, p_cf, r1_cf, r2_cf, r3_cf, rr_cf
from .rquantity import (
    RQParams,
    drq_dq,
    drq_normalized,
    rq,
    rq_star,
    tau0,
    tau_star,
)
from .hyperq import Phi21Params, phi21, psi_small
from .algrec import NOT_FOUND, find_minpoly, verify_root
from .verify import DERIV_POLY_125, IdentityCheck, deriv_closed_forms, intro_product_rows, run_suite

__all__ = ["NomeExpr", "main"]


class UsageError(Exception):
    """Bad flags, parameters, or expression text; maps to exit code 2."""


class NotFoundExit(Exception):
    """Minimal-polynomial search exhausted; maps to exit code 4."""


# --------------------------------------------------------------------------
# NomeExpr

_DECIMAL_RE = re.compile(r"^[0-9]*\.[0-9]+$")
_RATIONAL_RE = re.compile(r"^[0-9]+(/[0-9]+)?$")
_EXP_RE = re.compile(r"^exp\(-pi\*sqrt\((?P<r>[0-9]+(/[0-9]+)?)\)\)$")


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise UsageError(f"expected a rational literal INT[/INT], got {text!r}")
    r = Fraction(text)
    if r <= 0:
        raise UsageError(f"rational must be positive, got {text!r}")
    return r


@dataclass(frozen=True)
class NomeExpr:
    """A nome given either as a decimal literal in (0,1), as ``r=R`` for
    exp(-pi sqrt(R)), or spelled out as ``exp(-pi*sqrt(R))``.

    Whitespace-insensitive, case-insensitive keywords.  ``canonical()``
    prints a form that parses back to an equal NomeExpr.
    """

    kind: str  # "decimal" | "r"
    value: Fraction  # the decimal value, or the rational R

    @staticmethod
    def parse(text: str) -> "NomeExpr":
        t = "".join(text.split()).lower()
        if not t:
            raise UsageError("empty nome expression")
        if t.startswith("r="):
            return NomeExpr("r", _parse_rational(t[2:]))
        m = _EXP_RE.match(t)
        if m:
            return NomeExpr("r", _parse_rational(m.group("r")))
        if _DECIMAL_RE.match(t):
            v = Fraction(t)
            if not 0 < v < 1:
                raise UsageError(f"nome decimal must lie in (0,1), got {text!r}")
            return NomeExpr("decimal", v)
        raise UsageError(
            f"cannot parse nome {text!r}: expected DECIMAL, r=RATIONAL, "
            "or exp(-pi*sqrt(RATIONAL))"
        )

    def canonical(self) -> str:
        if self.kind == "r":
            return f"exp(-pi*sqrt({self.value}))"
        # exact decimal rendering: the denominator divides a power of 10
        num, den = self.value.numerator, self.value.denominator
        k2 = k5 = 0
        d = den
        while d % 2 == 0:
            d //= 2
            k2 += 1
        while d % 5 == 0:
            d //= 5
            k5 += 1
        k = max(k2, k5)
        scaled = num * 10**k // den
        return f"0.{scaled:0{k}d}" if k else str(num)

    def realize(self, prec: PrecisionSpec):
        """The nome as a high-precision number under ``prec``."""
        if self.kind == "r":
            return nome_from_r(self.value, prec).q
        return cv(prec.context(), self.value)


# --------------------------------------------------------------------------
# parameter parsing

_SIGN_SPLIT_RE = re.compile(r"(?<=[0-9.])[+-]")


def _parse_scalar(text: str):
    """A rational/decimal literal, or a complex literal like ``-2-1i``.

    Returns a Fraction, or a ("complex", re, im) triple of Fractions.
    """
    t = "".join(text.split()).lower()
    if not t:
        raise UsageError("empty parameter value")
    if "i" not in t:
        try:
            return Fraction(t)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse number {text!r}") from None
    m = _SIGN_SPLIT_RE.search(t)
    if m:
        re_part, im_part = t[: m.start()], t[m.start():]
    else:
        re_part, im_part = "", t
    if not im_part.endswith("i"):
        raise UsageError(f"cannot parse complex number {text!r}")
    im_text = im_part[:-1]
    if im_text in ("", "+"):
        im_text = "1"
    elif im_text == "-":
        im_text = "-1"
    try:
        re_val = Fraction(re_part) if re_part else Fraction(0)
        im_val = Fraction(im_text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse complex number {text!r}") from None
    return ("complex", re_val, im_val)


def _parse_params(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise UsageError(f"parameter {piece!r} is not of the form key=value")
        key, _, val = piece.partition("=")
        out[key.strip().lower()] = _parse_scalar(val)
    return out


def _realize_scalar(ctx, v):
    if isinstance(v, tuple) and v and v[0] == "complex":
        return ctx.mpc(cv(ctx, v[1]), cv(ctx, v[2]))
    return v  # Fraction: pass through exactly; library converts


# --------------------------------------------------------------------------
# eval dispatch


class _Fn(NamedTuple):
    """A named quantity: ``call(*required, *optional, q, prec)``, with ``q``
    passed only when ``needs_q``; ``defaults`` holds (key, value) pairs."""

    call: Callable
    keys: tuple = ()
    defaults: tuple = ()
    needs_q: bool = True


def _kr(r, prec: PrecisionSpec):
    if not isinstance(r, Fraction):
        raise UsageError("kr needs a rational r")
    return singular_modulus(r, prec)


def _on_rq(fn):
    return _Fn(lambda a, b, p, q, prec: fn(RQParams(a, b, p), q, prec), ("a", "b", "p"))


_Z0 = (("z", Fraction(0)),)

# The one list of names that `eval` and `minpoly --fn` accept.
FUNCTIONS = {
    "K": _Fn(K_of_k, ("k",), needs_q=False),
    "kr": _Fn(_kr, ("r",), needs_q=False),
    "theta2": _Fn(theta2),
    "theta3": _Fn(theta3, defaults=_Z0),
    "theta4": _Fn(theta4, defaults=_Z0),
    "f": _Fn(euler_f),
    "phi": _Fn(weber_phi),
    "agile": _Fn(lambda a, p, q, prec: agile(AgileParams(a, p), q, prec), ("a", "p")),
    "psistar": _Fn(psi_star, ("a", "p")),
    "rqstar": _on_rq(rq_star),
    "rq": _on_rq(rq),
    "rr": _Fn(rr_cf),
    "r1": _Fn(r1_cf),
    "r2": _Fn(r2_cf),
    "r3": _Fn(r3_cf),
    "h": _Fn(h_cf),
    "mseries": _Fn(m_series, ("c",)),
    "mcf": _Fn(m_cf, ("c",)),
    "pcf": _Fn(p_cf, ("a", "b")),
    "phi21": _Fn(
        lambda a, b, c, z, q, prec: phi21(Phi21Params(a, b, c, q, z), prec),
        ("a", "b", "c", "z"),
    ),
    "psi": _Fn(lambda a, z, q, prec: psi_small(a, q, z, prec), ("a", "z")),
    "tau0": _Fn(tau0, ("a",)),
    "taustar": _Fn(tau_star, ("a", "p")),
    "drq": _on_rq(drq_dq),
    "drq-normalized": _on_rq(drq_normalized),
}


def _evaluator(fn: str, params_text: str | None, q_text: str | None):
    """Check the name, parse ``--params`` and ``--q``, and return the
    function of a PrecisionSpec that evaluates the named quantity."""
    entry = FUNCTIONS.get(fn)
    if entry is None:
        raise UsageError(f"unknown function {fn!r}; known: {', '.join(FUNCTIONS)}")
    params = _parse_params(params_text)
    nome = NomeExpr.parse(q_text) if q_text else None

    def compute(prec: PrecisionSpec):
        ctx = prec.context()
        q_args = []
        if entry.needs_q:
            if nome is None:
                raise UsageError(f"{fn} needs --q NOME")
            q_args = [nome.realize(prec)]
        missing = [k for k in entry.keys if k not in params]
        if missing:
            raise UsageError(f"{fn} needs parameter(s): {', '.join(missing)}")
        values = [params[k] for k in entry.keys] + [params.get(k, v) for k, v in entry.defaults]
        return entry.call(*(_realize_scalar(ctx, v) for v in values), *q_args, prec)

    return compute


def _format_value(prec: PrecisionSpec, val, digits: int) -> list:
    """One line for a real value, two (re, im) for a genuinely complex one."""
    ctx = prec.context()
    re_part = ctx.re(val)
    im_part = ctx.im(val)
    scale = max(ctx.mpf(1), abs(re_part))
    if im_part != 0 and abs(im_part) > scale * ctx.mpf(10) ** (-digits + 5):
        return [ctx.nstr(re_part, digits), ctx.nstr(im_part, digits)]
    return [ctx.nstr(re_part, digits)]


# --------------------------------------------------------------------------
# commands


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_eval(args) -> int:
    compute = _evaluator(args.fn, args.params, args.q)
    prec = PrecisionSpec(args.digits)
    val = compute(prec)
    _emit("\n".join(_format_value(prec, val, args.digits)), args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_suite(selector=args.suite, digits=args.digits, seed=args.seed)
    _emit(report.to_json() if args.format == "json" else report.to_text(), args.out)
    return 0 if report.ok else 1


def cmd_minpoly(args) -> int:
    if (args.fn is None) == (args.value is None):
        raise UsageError("minpoly needs exactly one of --fn or --value")
    degree = args.degree
    if degree < 1:
        raise UsageError("--degree must be >= 1")
    if args.height < 1:
        raise UsageError("--height must be >= 1")
    # find_minpoly needs >= 10*degree + 40 digits; the requested --digits
    # controls reporting, and the digits are bumped to fit.
    digits_eff = max(args.digits, 10 * degree + 40)
    prec = PrecisionSpec(digits_eff)

    if args.value is not None:
        try:
            literal = Fraction(args.value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse --value {args.value!r}") from None

        def compute(pr: PrecisionSpec):
            return cv(pr.context(), literal)

        recompute = None
    else:
        compute = recompute = _evaluator(args.fn, args.params, args.q)

    res = find_minpoly(
        compute(prec), degree, height_bound=args.height, prec=prec, recompute=recompute
    )
    if res is NOT_FOUND:
        raise NotFoundExit(
            f"no integer polynomial of degree <= {degree} and height <= "
            f"{args.height} fits at {digits_eff} digits"
        )
    lines = [res.as_text()]
    lines.append(f"degree: {res.degree}   confidence: {res.confidence}")
    lines.append(f"residual at {digits_eff} digits: {mp_nstr(res.residual)}")
    if recompute is not None:
        prec30 = prec.bumped(30)
        r30 = abs(verify_root(res.coeffs, recompute(prec30), prec30))
        lines.append(f"residual at {digits_eff + 30} digits: {mp_nstr(r30)}")
    else:
        lines.append("residual at +30 digits: unavailable for a literal value")
    _emit("\n".join(lines), args.out)
    return 0


def mp_nstr(x) -> str:
    return mpmath.nstr(mpmath.mpf(abs(x)), 3)


def cmd_table(args) -> int:
    if args.digits < 30:
        raise UsageError("table needs --digits >= 30")
    prec = PrecisionSpec(args.digits)
    ctx = prec.context()
    tol = ctx.mpf(10) ** IdentityCheck.tolerance_exponent(args.digits)
    qpi = ctx.exp(-ctx.pi)
    closed124, factor125 = deriv_closed_forms(prec)
    rows = intro_product_rows(prec) + [
        (
            "d/dq R(1,2,4;q) at q=exp(-pi)",
            "exp(pi) Gamma(1/4)^4 / (64 2^(5/8) pi^3)",
            drq_dq(RQParams(1, 2, 4), qpi, prec),
            closed124,
        ),
        (
            "d/dq R(1,2,5;q) at q=exp(-pi)",
            "exp(pi) Gamma(1/4)^4 rho / (16 pi^3), rho the octic root below 1/2",
            drq_dq(RQParams(1, 2, 5), qpi, prec),
            factor125 * _octic_root(prec),
        ),
    ]

    lines = []
    any_mismatch = False
    for name, closed_text, computed, closed in rows:
        diff = abs(computed - closed)
        status = "ok" if diff < tol else "MISMATCH"
        any_mismatch = any_mismatch or status != "ok"
        lines.append(name)
        lines.append(f"  closed form: {closed_text}")
        lines.append(f"  computed  {ctx.nstr(computed, args.digits)}")
        lines.append(f"  closed    {ctx.nstr(closed, args.digits)}")
        lines.append(f"  |diff| {mp_nstr(diff)}  {status}")
    lines.append("all rows agree" if not any_mismatch else "MISMATCH in at least one row")
    _emit("\n".join(lines), args.out)
    return 1 if any_mismatch else 0


def _octic_root(prec: PrecisionSpec):
    """The real root in (0, 1/2) of the degree-8 derivative polynomial."""
    ctx = prec.context()
    roots = ctx.polyroots(
        [cv(ctx, Fraction(c)) for c in reversed(DERIV_POLY_125)],
        maxsteps=200,
        extraprec=prec.workdps,
    )
    for r in roots:
        if abs(ctx.im(r)) < ctx.mpf(10) ** (-prec.digits) and 0 < ctx.re(r) < ctx.mpf(1) / 2:
            return ctx.re(r)
    raise NonConvergence("octic root isolation failed")


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qelliptic",
        description=(
            "Evaluate elliptic/theta/q-series quantities, verify the "
            "identity suite, recognize minimal polynomials, print the "
            "closed-form constant table."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, digits_default=50):
        p.add_argument("--digits", type=int, default=digits_default)
        p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="evaluate one named quantity")
    p.add_argument("--fn", required=True)
    p.add_argument("--params", default=None, help="comma list key=value")
    p.add_argument("--q", default=None, help="nome: DECIMAL | r=R | exp(-pi*sqrt(R))")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("json", "text"), default="text")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minpoly", help="recognize an integer minimal polynomial")
    p.add_argument("--fn", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--q", default=None)
    p.add_argument("--value", default=None, help="decimal literal to recognize")
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--height", type=int, default=10**8)
    common(p)
    p.set_defaults(func=cmd_minpoly)

    p = sub.add_parser("table", help="print the closed-form constant table")
    common(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"error: did not converge: {exc}", file=sys.stderr)
        return 3
    except NotFoundExit as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 4
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
