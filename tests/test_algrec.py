"""Integer-relation recognition of minimal polynomials."""

from fractions import Fraction

import pytest

import qelliptic.algrec
from qelliptic.algrec import (
    MinPolyResult,
    NOT_FOUND,
    NotFound,
    _is_squarefree,
    find_minpoly,
    verify_root,
)
from qelliptic.numerics import DomainError, InsufficientPrecision, PrecisionSpec, cv

P60 = PrecisionSpec(60)
P80 = PrecisionSpec(80)


def test_sqrt2_minus_1_degree2():
    ctx = P60.context()
    x = ctx.sqrt(2) - 1
    res = find_minpoly(x, 2, prec=P60)
    assert res is not NOT_FOUND
    assert res.coeffs == (-1, 2, 1)
    assert res.degree == 2
    assert res.confidence == "unverified"
    assert res.residual < ctx.mpf(10) ** (-45)


def test_cbrt2_degree3():
    ctx = P80.context()
    x = ctx.cbrt(2)
    res = find_minpoly(x, 3, prec=P80)
    assert res.coeffs == (-2, 0, 0, 1)
    assert res.degree == 3


def test_rational_degree1():
    res = find_minpoly(Fraction(1, 3), 2, prec=P60)
    assert res.coeffs == (-1, 3)
    assert res.degree == 1


def test_smaller_degree_wins():
    # sqrt(2)-1 searched up to degree 6 still returns the degree-2 relation
    ctx = P80.context()
    hi = PrecisionSpec(110)
    res = find_minpoly(hi.context().sqrt(2) - 1, 6, prec=hi)
    assert res.coeffs == (-1, 2, 1)


def test_pi_not_algebraic_small():
    ctx = P80.context()
    res = find_minpoly(ctx.pi, 3, prec=P80)
    assert res is NOT_FOUND
    assert not res  # sentinel is falsy
    assert repr(res) == "NotFound"
    assert NotFound() is NOT_FOUND  # singleton


def test_height_bound_excludes():
    ctx = P60.context()
    res = find_minpoly(ctx.sqrt(2) - 1, 2, height_bound=1, prec=P60)
    assert res is NOT_FOUND


def test_height_bound_is_inclusive():
    ctx = P60.context()
    assert find_minpoly(ctx.sqrt(2) - 1, 2, height_bound=2, prec=P60).coeffs == (-1, 2, 1)
    assert find_minpoly(Fraction(5, 7), 2, height_bound=7, prec=P60).coeffs == (-5, 7)
    assert find_minpoly(Fraction(5, 7), 2, height_bound=6, prec=P60) is NOT_FOUND


def test_zero_and_tiny_inputs_are_roots_of_t():
    ctx = P80.context()
    res = find_minpoly(0, 3, prec=P80)
    assert res.coeffs == (0, 1) and res.residual == 0
    tiny = ctx.mpf(10) ** (-70)  # below the 10^-65 accept tolerance at 80 digits
    res = find_minpoly(tiny, 4, prec=P80)
    assert res.coeffs == (0, 1) and res.residual == tiny
    # above the tolerance but with powers too small to search: no relation
    assert find_minpoly(tiny, 8, prec=PrecisionSpec(120)) is NOT_FOUND


def test_one_search_per_degree_tried(monkeypatch):
    # find_minpoly must look _lll_reduce up as a module global once per
    # degree: the benchmark counts the degrees tried by rebinding it.
    calls = []
    search = qelliptic.algrec._lll_reduce

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(qelliptic.algrec, "_lll_reduce", counting)
    prec = PrecisionSpec(120)
    res = find_minpoly(prec.context().sqrt(2), 4, prec=prec)
    assert res.coeffs == (-2, 0, 1)
    assert len(calls) == 2


@pytest.fixture
def searched(monkeypatch):
    """The degrees find_minpoly searches, in order."""
    degrees = []
    search = qelliptic.algrec._lll_reduce

    def counting(ctx, xs, *args, **kwargs):
        degrees.append(len(xs) - 1)
        return search(ctx, xs, *args, **kwargs)

    monkeypatch.setattr(qelliptic.algrec, "_lll_reduce", counting)
    return degrees


def test_no_relation_costs_the_galloping_probes_only(searched):
    # a failed search at degree 8 rules out every lower degree
    prec = PrecisionSpec(120)
    assert find_minpoly(prec.context().pi, 8, prec=prec) is NOT_FOUND
    assert searched == [1, 2, 4, 8]


def test_octic_is_confirmed_by_one_failure_below_it(searched):
    prec = PrecisionSpec(120)
    res = find_minpoly(prec.context().root(2, 8), 8, prec=prec)
    assert res.coeffs == (-2, 0, 0, 0, 0, 0, 0, 0, 1)
    assert searched == [1, 2, 4, 8, 7]


def test_precision_precondition():
    ctx = P60.context()
    with pytest.raises(InsufficientPrecision):
        find_minpoly(ctx.sqrt(2) - 1, 4, prec=P60)  # needs >= 80 digits
    with pytest.raises(DomainError):
        find_minpoly(ctx.sqrt(2) - 1, 0, prec=P60)
    with pytest.raises(DomainError):
        find_minpoly(ctx.sqrt(2) - 1, 2, prec=None)
    with pytest.raises(DomainError):
        find_minpoly(ctx.mpc(1, 1), 2, prec=P60)


@pytest.mark.parametrize("height", [0, -3])
def test_height_bound_below_one_is_a_domain_error(height):
    with pytest.raises(DomainError, match="height_bound"):
        find_minpoly(P60.context().sqrt(2), 2, height_bound=height, prec=P60)


def test_truncated_rational_rejected_by_squarefree_guard():
    # a 30-digit truncation of 1/3: the linear fit 3t-1 misses the accept
    # tolerance at 60 digits, and its square (which numerically fits) is a
    # repeated-factor artifact that the guard must reject
    x = "0.333333333333333333333333333333"
    res = find_minpoly(x, 2, prec=P60)
    assert res is NOT_FOUND


def test_is_squarefree_unit():
    assert _is_squarefree((-1, 2, 1))
    assert _is_squarefree((16, 0, -240, 800, -2900, -6000, -6500, 17500, 625))
    assert not _is_squarefree((1, -6, 9))  # (3t-1)^2
    assert not _is_squarefree((1, 2, 1))  # (t+1)^2


def test_verified_confidence_via_recompute():
    res = find_minpoly(
        P60.context().sqrt(2) - 1,
        2,
        prec=P60,
        recompute=lambda p: p.context().sqrt(2) - 1,
    )
    assert res.confidence == "verified"


def test_recompute_gets_bumped_precision():
    seen = {}

    def recompute(p):
        seen["digits"] = p.digits
        return p.context().sqrt(2) - 1

    find_minpoly(P60.context().sqrt(2) - 1, 2, prec=P60, recompute=recompute)
    assert seen["digits"] == 90


def test_verify_root_horner():
    ctx = P60.context()
    assert verify_root((-2, 1), 2, P60) == 0
    x = cv(ctx, Fraction(1, 7))
    expected = abs(3 * x * x + 2 * x + 1)
    assert abs(verify_root((1, 2, 3), Fraction(1, 7), P60) - expected) < ctx.mpf(10) ** (-70)


def test_result_rendering():
    res = MinPolyResult(coeffs=(-1, 2, 1), degree=2, residual=0, confidence="unverified")
    assert res.as_text() == "-1 + 2*t + t^2"
    assert res.as_json() == [-1, 2, 1]
    res = MinPolyResult(coeffs=(-2, 0, 0, 1), degree=3, residual=0, confidence="unverified")
    assert res.as_text() == "-2 + t^3"
