"""Command-line interface: golden outputs, expression parsing, exit codes."""

import dataclasses
import json
import pathlib
from fractions import Fraction

import pytest

import qelliptic.cli
import qelliptic.verify
from qelliptic.algrec import MinPolyResult
from qelliptic.cli import FUNCTIONS, NomeExpr, UsageError, _parse_scalar, main
from qelliptic.numerics import CrossCheckFailure, PrecisionSpec
from qelliptic.rquantity import RQParams, drq_normalized


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


# ----------------------------------------------------------------- eval


def test_eval_kr_golden(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "kr", "--params", "r=1", "--digits", "30")
    assert code == 0
    assert out == "0.707106781186547524400844362105"


def test_eval_K_golden(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "K", "--params", "k=0", "--digits", "30")
    assert code == 0
    assert out == "1.57079632679489661923132169164"


def test_eval_r1_with_exp_nome(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--fn", "r1", "--q", "exp(-pi*sqrt(4))", "--digits", "30"
    )
    assert code == 0
    assert out == "0.284079043840412296028291832393"


def test_eval_theta3_decimal_nome(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--fn", "theta3", "--params", "z=0", "--q", "0.3", "--digits", "30"
    )
    assert code == 0
    assert out == "1.61623937460951365802207791845"


def test_eval_euler_product_r_nome(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "f", "--q", "r=4", "--digits", "25")
    assert code == 0
    assert out == "0.9981290699259585132799623"


def test_eval_mseries_near_unit_q(capsys):
    # the terms rise to 1e56 and cancel to 0.167
    code, out, _ = run_cli(
        capsys, "eval", "--fn", "mseries", "--params", "c=-5", "--q", "0.99", "--digits", "30"
    )
    assert code == 0
    assert out == "0.166899116135176362255442234603"


def test_eval_complex_params_two_lines(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--fn", "rq", "--params", "a=-2+1i,b=-1+1i,p=2", "--q", "r=1",
        "--digits", "20",
    )
    assert code == 0
    lines = out.split("\n")
    assert len(lines) == 2
    # imaginary part is 2^(-1/4); the real part is numerically zero
    assert lines[1] == "0.84089641525371454303"
    assert "e-" in lines[0]


def test_eval_digit_escalation_prefix_consistent(capsys):
    _, lo, _ = run_cli(capsys, "eval", "--fn", "mseries", "--params", "c=1", "--q", "0.1", "--digits", "30")
    _, hi, _ = run_cli(capsys, "eval", "--fn", "mseries", "--params", "c=1", "--q", "0.1", "--digits", "40")
    assert hi.startswith(lo[:28])
    assert lo == "1.1010010001000010000010000001"


def test_eval_unknown_fn(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "nosuch", "--q", "0.1")
    assert code == 2
    assert "unknown function" in err


def test_eval_low_digits_rejected(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "K", "--params", "k=0", "--digits", "5")
    assert code == 2
    assert "digits" in err


def test_eval_missing_param(capsys):
    code, _, err = run_cli(capsys, "eval", "--fn", "K")
    assert code == 2
    assert "needs parameter" in err


def test_eval_nonconvergence_exit_code(capsys):
    # theta growth guard trips: |q| e^(2 Im z) >= 1
    code, _, err = run_cli(
        capsys, "eval", "--fn", "theta3", "--params", "z=10i", "--q", "0.3"
    )
    assert code == 3
    assert "did not converge" in err


def test_eval_out_file(capsys, tmp_path):
    target = tmp_path / "value.txt"
    code, out, _ = run_cli(
        capsys, "eval", "--fn", "K", "--params", "k=0", "--digits", "30",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "1.57079632679489661923132169164\n"


# One case per eval name: parameters and nome that make the call succeed, the
# frozen 30-digit output, and the missing-parameter list (None when every
# parameter is optional).  Each case also checks both usage messages.
EVAL_GOLDEN = [
    ("K", "k=1/2", None, "1.6857503548125960428712036578", "k"),
    ("kr", "r=2", None, "0.41421356237309504880168872421", "r"),
    ("theta2", None, "0.3", "1.6144603411944334908162357373", None),
    ("theta3", "z=1/3", "0.3", "1.47532681546062482859660646585", None),
    ("theta4", "z=1/5", "0.3", "0.458635787463012082513906840604", None),
    ("f", None, "0.2", "0.760332795871232420101488296293", None),
    ("phi", None, "0.2", "1.26050080671010753238887315774", None),
    ("agile", "a=1,p=3", "0.2", "0.766513964455482695474221629477", "a, p"),
    ("psistar", "a=1,p=3", "0.2", "1.24033280412876842010148898371", "a, p"),
    ("rqstar", "a=1,b=2,p=5", "r=1", "0.958650181595838792605863223565", "a, b, p"),
    ("rq", "a=1,b=2,p=5", "r=1", "0.511428455403703519294633013543", "a, b, p"),
    ("rr", None, "0.1", "0.909909099171983628753495806843", None),
    ("r1", None, "0.1", "0.574113828931919596631074014097", None),
    ("r2", None, "0.1", "0.418575509095258734016059132796", None),
    ("r3", None, "0.1", "0.284892699450442412422482017754", None),
    ("h", None, "0.1", "0.284892699450442412422482017754", None),
    ("mseries", "c=1/2", "0.1", "1.050250125006250031250015625", "c"),
    ("mcf", "c=1/2", "0.1", "1.050250125006250031250015625", "c"),
    ("pcf", "a=1/2,b=1/3", "0.2", "1.07356617256291425173600775563", "a, b"),
    (
        "phi21",
        "a=1/2,b=1/3+1/2i,c=1/4,z=1/5-1/5i",
        "0.3",
        "0.970917712477268878266723235123\n-0.256570847289635890777393046957",
        "a, b, c, z",
    ),
    ("psi", "a=1/2,z=1/3", "0.3", "1.34853458852190572524244768672", "a, z"),
    ("tau0", "a=1/3", "0.2", "1.99136088911271623622740339459", "a"),
    ("taustar", "a=1,p=3", "0.2", "1.16898673940640764921850637977", "a, p"),
    ("drq", "a=1,b=2,p=5", "0.2", "0.154509062683547580731634263008", "a, b, p"),
]


@pytest.mark.parametrize("fn, params, q, frozen, missing", EVAL_GOLDEN)
def test_eval_every_name_golden(capsys, fn, params, q, frozen, missing):
    param_args = ["--params", params] if params else []
    q_args = ["--q", q] if q else []
    code, out, _ = run_cli(capsys, "eval", "--fn", fn, *param_args, *q_args, "--digits", "30")
    assert (code, out) == (0, frozen)
    if missing:
        code, _, err = run_cli(capsys, "eval", "--fn", fn, *q_args)
        assert (code, err) == (2, f"error: {fn} needs parameter(s): {missing}")
    if q:
        code, _, err = run_cli(capsys, "eval", "--fn", fn, *param_args)
        assert (code, err) == (2, f"error: {fn} needs --q NOME")


def test_eval_drq_normalized_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--fn", "drq-normalized", "--params", "a=1,b=2,p=5",
        "--q", "r=1", "--digits", "30",
    )
    prec = PrecisionSpec(30)
    ctx = prec.context()
    direct = drq_normalized(RQParams(1, 2, 5), ctx.exp(-ctx.pi), prec)
    assert (code, out) == (0, ctx.nstr(direct, 30))


def test_readme_documents_every_eval_name():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### eval\n", 1)[1].split("\n### ", 1)[0]
    assert [name for name in FUNCTIONS if f"| `{name}` |" not in section] == []


# ----------------------------------------------------------------- NomeExpr


def test_nome_parse_forms():
    assert NomeExpr.parse("0.3") == NomeExpr("decimal", Fraction(3, 10))
    assert NomeExpr.parse("r=2/5") == NomeExpr("r", Fraction(2, 5))
    assert NomeExpr.parse("exp(-pi*sqrt(3))") == NomeExpr("r", Fraction(3))
    # whitespace- and case-insensitive
    assert NomeExpr.parse(" R = 2/5 ") == NomeExpr("r", Fraction(2, 5))
    assert NomeExpr.parse("EXP(-PI*SQRT(3))") == NomeExpr("r", Fraction(3))


def test_nome_canonical_roundtrip():
    for text in ("0.3", "0.15", "0.5", "r=7/3", "r=4", "exp(-pi*sqrt(2/5))"):
        expr = NomeExpr.parse(text)
        assert NomeExpr.parse(expr.canonical()) == expr


def test_nome_canonical_forms():
    assert NomeExpr.parse("r=2/5").canonical() == "exp(-pi*sqrt(2/5))"
    assert NomeExpr.parse("0.15").canonical() == "0.15"


def test_nome_realize():
    p = PrecisionSpec(40)
    ctx = p.context()
    q = NomeExpr.parse("r=4").realize(p)
    assert abs(q - ctx.exp(-2 * ctx.pi)) < ctx.mpf(10) ** (-45)
    d = NomeExpr.parse("0.25").realize(p)
    assert d == 0.25


def test_nome_parse_errors():
    for bad in ("", "1.5", "-0.3", "r=0", "r=-2", "exp(-pi*sqrt(0))", "garbage", "2"):
        with pytest.raises(UsageError):
            NomeExpr.parse(bad)


# ----------------------------------------------------------------- scalars


def test_parse_scalar_literal_forms():
    assert _parse_scalar("2/5") == Fraction(2, 5)
    assert _parse_scalar("0.3") == Fraction(3, 10)
    assert _parse_scalar("-2-1i") == ("complex", Fraction(-2), Fraction(-1))
    assert _parse_scalar("3+2i") == ("complex", Fraction(3), Fraction(2))
    assert _parse_scalar("1i") == ("complex", Fraction(0), Fraction(1))
    assert _parse_scalar("-1i") == ("complex", Fraction(0), Fraction(-1))
    with pytest.raises(UsageError):
        _parse_scalar("2i+3")
    with pytest.raises(UsageError):
        _parse_scalar("")


# ----------------------------------------------------------------- verify


def test_verify_json_schema_and_exit(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "lemma1", "--digits", "40", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "lemma1"
    assert obj["digits"] == 40
    assert obj["seed"] == 42
    assert all(c["status"] == "pass" for c in obj["checks"])
    assert all(c["seconds"] == 0.0 for c in obj["checks"])


def test_verify_byte_identical_runs(capsys):
    _, a, _ = run_cli(capsys, "verify", "--suite", "thm1", "--digits", "40", "--format", "json")
    _, b, _ = run_cli(capsys, "verify", "--suite", "thm1", "--digits", "40", "--format", "json")
    assert a == b


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nosuch", "--digits", "40")
    assert code == 2
    assert "known prefixes" in err


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "lemma1", "--digits", "40",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["suite"] == "lemma1"


def test_verify_exits_1_on_a_raising_check(capsys, monkeypatch):
    def raising(prec, rng):
        raise CrossCheckFailure("forced")

    registry = qelliptic.verify._REGISTRY
    patched = dataclasses.replace(registry["lemma1.K"], run=raising)
    monkeypatch.setitem(registry, "lemma1.K", patched)
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma1", "--digits", "40")
    assert code == 1
    assert "CrossCheckFailure" in out
    assert "lemma1.k" in out


def test_verify_only_flags(capsys):
    # the thread pool is gone, and only verify reads --seed and --format
    assert run_cli(capsys, "verify", "--suite", "lemma1.K", "--jobs", "2")[0] == 2
    assert run_cli(capsys, "table", "--digits", "30", "--seed", "1")[0] == 2
    assert run_cli(capsys, "table", "--digits", "30", "--format", "json")[0] == 2


# ----------------------------------------------------------------- minpoly


def test_minpoly_fn_verified(capsys):
    code, out, _ = run_cli(
        capsys, "minpoly", "--fn", "kr", "--params", "r=2", "--degree", "4", "--digits", "80"
    )
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "-1 + 2*t + t^2"
    assert "degree: 2" in lines[1]
    assert "confidence: verified" in lines[1]


def test_minpoly_fn_drq_normalized(capsys):
    code, out, _ = run_cli(
        capsys, "minpoly", "--fn", "drq-normalized", "--params", "a=1,b=2,p=5",
        "--q", "r=1", "--degree", "8",
    )
    assert code == 0
    lines = out.split("\n")
    expected = MinPolyResult(qelliptic.verify.DERIV_POLY_125, 8, 0, "verified")
    assert lines[0] == expected.as_text()
    assert "degree: 8" in lines[1]
    assert "confidence: verified" in lines[1]


def test_minpoly_underprecise_literal_not_found(capsys):
    code, _, err = run_cli(
        capsys, "minpoly", "--value", "0.333333333333333333333333333333", "--degree", "2"
    )
    assert code == 4
    assert err.startswith("not found:")


def test_minpoly_precise_literal_found(capsys):
    seventy_threes = "0." + "3" * 70
    code, out, _ = run_cli(capsys, "minpoly", "--value", seventy_threes, "--degree", "2")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "-1 + 3*t"
    assert "confidence: unverified" in lines[1]
    assert "unavailable for a literal value" in out


def test_minpoly_zero_literal(capsys):
    code, out, _ = run_cli(capsys, "minpoly", "--value", "0", "--degree", "2")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "t"
    assert "degree: 1" in lines[1]


def test_minpoly_flag_validation(capsys):
    code, _, err = run_cli(capsys, "minpoly", "--degree", "2")
    assert code == 2
    assert "exactly one of" in err
    code, _, err = run_cli(
        capsys, "minpoly", "--value", "0.5", "--fn", "kr", "--degree", "2"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "minpoly", "--value", "0.5", "--degree", "0")
    assert code == 2


def test_minpoly_height_below_one_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "minpoly", "--value", "0.5", "--height", "0")
    assert code == 2
    assert "--height" in err


# ----------------------------------------------------------------- table


def test_table_golden_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--digits", "40")
    assert code == 0
    assert "all rows agree" in out
    for frozen in (
        "3.322969541961794141895235153315226665819",
        "1.035353947933958073725017413431848856653",
        "0.9657081820002996217524490454686252628659",
        "1.306553851963970406773741910742599839769",
        "1.879418503699130054155800448428029216916",
    ):
        assert frozen in out
    assert "MISMATCH" not in out


def test_table_exits_1_on_a_mismatch(capsys, monkeypatch):
    def one_wrong_row(prec):
        ctx = prec.context()
        return [("wrong row", "1", ctx.mpf(1), ctx.mpf(2))]

    monkeypatch.setattr(qelliptic.cli, "intro_product_rows", one_wrong_row)
    code, out, _ = run_cli(capsys, "table", "--digits", "30")
    assert code == 1
    assert "MISMATCH in at least one row" in out


def test_table_digits_floor(capsys):
    code, _, err = run_cli(capsys, "table", "--digits", "20")
    assert code == 2
    assert ">= 30" in err


# ----------------------------------------------------------------- misc


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "eval" in out and "verify" in out and "minpoly" in out and "table" in out


def test_no_args_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2
