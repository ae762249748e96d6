"""Command-line interface: golden outputs, expression parsing, exit codes."""

import json
from fractions import Fraction

import pytest

from qelliptic.cli import NomeExpr, UsageError, _parse_scalar, main
from qelliptic.numerics import PrecisionSpec


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
