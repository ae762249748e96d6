"""Integer-relation recognition of minimal polynomials."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.identification import round_fixed
from mpmath.libmp import sqrt_fixed

import qelliptic.algrec
from qelliptic.algrec import (
    MinPolyResult,
    NOT_FOUND,
    NotFound,
    _factor,
    _is_squarefree,
    _pivot,
    _pivot_weights,
    _round_div,
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
    res = find_minpoly(prec.context().root(2, 5), 8, prec=prec)
    assert res.coeffs == (-2, 0, 0, 0, 0, 1)
    assert len(calls) == 2  # the probes at 4 and 8


class Searches(list):
    """The degrees find_minpoly searches, in order, with each search's
    working digits in ``dps`` and its tolerance in ``tols``."""

    def __init__(self):
        super().__init__()
        self.dps, self.tols = [], []


@pytest.fixture
def searched(monkeypatch):
    searches = Searches()
    search = qelliptic.algrec._lll_reduce

    def counting(ctx, xs, tol, *args, **kwargs):
        searches.append(len(xs) - 1)
        searches.dps.append(ctx.dps)
        searches.tols.append(tol)
        return search(ctx, xs, tol, *args, **kwargs)

    monkeypatch.setattr(qelliptic.algrec, "_lll_reduce", counting)
    return searches


def test_no_relation_costs_the_galloping_probes_only(searched):
    # a failed search at degree 8 rules out every lower degree.  Degree d
    # is searched at the 10 d + 40 digits of the precondition, not the 135
    # working digits, with the accept rule's tolerance at those digits
    prec = PrecisionSpec(120)
    assert find_minpoly(prec.context().pi, 8, prec=prec) is NOT_FOUND
    assert searched == [4, 8]
    assert searched.dps == [80, 120]
    for dps, tol in zip(searched.dps, searched.tols):
        assert tol == PrecisionSpec(dps, 0).context().mpf(10) ** (15 - dps)


@pytest.mark.parametrize(
    "value, coeffs",
    [
        (lambda ctx: Fraction(3, 7), (-3, 7)),
        (lambda ctx: Fraction(-5, 2), (5, 2)),
        (lambda ctx: ctx.sqrt(5) - 3, (4, 6, 1)),
        (lambda ctx: (1 + ctx.sqrt(5)) / 2, (-1, -1, 1)),
        (lambda ctx: ctx.cbrt(2), (-2, 0, 0, 1)),
        (lambda ctx: ctx.cos(2 * ctx.pi / 7), (-1, -4, 4, 8)),
        (lambda ctx: ctx.sqrt(2) + ctx.sqrt(3), (1, 0, -10, 0, 1)),
        (lambda ctx: ctx.root(2, 5), (-2, 0, 0, 0, 0, 1)),
        (lambda ctx: ctx.root(2, 6) + 1, (-1, -6, 15, -20, 15, -6, 1)),
        (lambda ctx: ctx.root(3, 7), (-3, 0, 0, 0, 0, 0, 0, 1)),
        (lambda ctx: ctx.cos(2 * ctx.pi / 17), (1, -8, -40, 80, 240, -192, -448, 128, 256)),
        (lambda ctx: ctx.pi, None),
    ],
    ids=[
        "3/7", "-5/2", "sqrt5-3", "golden", "cbrt2", "cos(2pi/7)", "sqrt2+sqrt3",
        "2^(1/5)", "2^(1/6)+1", "3^(1/7)", "cos(2pi/17)", "pi",
    ],
)
def test_ladder_starts_at_degree_four(searched, value, coeffs):
    # one search at 4 settles every value of degree <= 4; a higher degree,
    # or no relation at all, takes the probe at 8 as well
    prec = PrecisionSpec(120)
    res = find_minpoly(value(prec.context()), 8, prec=prec)
    if coeffs is None:
        assert res is NOT_FOUND
    else:
        assert res.coeffs == coeffs
    assert searched == ([4] if coeffs is not None and len(coeffs) <= 5 else [4, 8])


@pytest.mark.parametrize("exponent, top", [(40, 2), (70, 1)])
def test_tiny_powers_raise_the_search_precision(searched, exponent, top):
    # the top degree caps the first probe.  10^-70 is 0 in fixed point at
    # the 50 digits of a degree-1 search, and (10^-40)^2 lies below the
    # tolerance / 100 of a degree-2 search at 60 digits; each search takes
    # the digits that put its smallest power 10 times above its tolerance
    prec = PrecisionSpec(120)
    x = prec.context().mpf(10) ** -exponent
    assert find_minpoly(x, 8, prec=prec) is NOT_FOUND
    assert searched == [top]
    for degree, dps, tol in zip(searched, searched.dps, searched.tols):
        assert 10 * degree + 40 < dps < prec.workdps
        assert x**degree >= 10 * tol


@pytest.mark.parametrize("degree, mpmath_steps", [(4, 286), (8, 1233)])
def test_failed_search_stops_at_the_norm_bound(monkeypatch, degree, mpmath_steps):
    # mpmath's pslq gives up on this random x after mpmath_steps steps, once
    # every |H_ij| is 100 maxcoeff below 2^prec; the search stops sooner, at
    # 1 / max|H_jj|, a lower bound on the norm of every relation, past
    # sqrt(degree + 1) times the height bound
    ctx = PrecisionSpec(120).context()
    x = ctx.mpf(random.Random(1).getrandbits(400)) / 2**400
    seen = []

    def pivot(H, *args):
        seen.append(H)
        return _pivot(H, *args)

    monkeypatch.setattr(qelliptic.algrec, "_pivot", pivot)
    maxcoeff = 10**8 + 1
    xs = [x**i for i in range(degree + 1)]
    assert qelliptic.algrec._lll_reduce(ctx, xs, ctx.mpf(10) ** -105, maxcoeff) is None
    assert len(seen) < mpmath_steps
    H = seen[-1]  # the search's own H, as it stopped
    diag = max(abs(H[j][j]) for j in range(degree))
    assert (2 ** (ctx.prec + 60) / diag) ** 2 > (degree + 1) * maxcoeff**2


@pytest.mark.parametrize(
    "x, degree, found",
    [
        ("k_5", 8, True),  # a pool octic: a relation
        ("random", 8, False),  # no relation: the stop test ends it
        (-1, 3, True),  # a zero diagonal entry, as in
        ("1e-50", 2, False),  # test_local_pslq_precision_exhausted_exit
    ],
)
def test_search_keeps_its_diagonal_lists_current(monkeypatch, x, degree, found):
    # a step refreshes |H_jj| and _pivot's estimates only at rows m and
    # m + 1; at every step they must equal a fresh computation from H
    ctx = PrecisionSpec(120).context()
    if x == "k_5":
        x = qelliptic.singular_modulus(5, PrecisionSpec(120))
    elif x == "random":
        x = ctx.mpf(random.Random(1).getrandbits(400)) / 2**400
    seen = []

    def check(H, weights, prec, est, diag):
        shift = max(0, prec - qelliptic.algrec._SCREEN_BITS)
        assert est == [w * abs(float(H[i][i] >> shift)) for i, (_, w) in enumerate(weights)]
        assert diag == [abs(H[j][j]) for j in range(len(H) - 1)]

    def pivot(H, weights, prec, floor, est):
        state = H, weights, prec, est, sys._getframe(1).f_locals["diag"]
        check(*state)
        seen.append(state)
        return _pivot(H, weights, prec, floor, est)

    monkeypatch.setattr(qelliptic.algrec, "_pivot", pivot)
    xs = [ctx.mpf(x) ** i for i in range(degree + 1)]
    relation = qelliptic.algrec._lll_reduce(ctx, xs, ctx.mpf(10) ** -105, 10**8 + 1)
    assert (relation is not None) == found
    check(*seen[-1])  # the lists as the last step left them


def test_octic_is_proved_irreducible_without_a_search_below_it(searched):
    prec = PrecisionSpec(120)
    res = find_minpoly(prec.context().root(2, 8), 8, prec=prec)
    assert res.coeffs == (-2, 0, 0, 0, 0, 0, 0, 0, 1)
    assert searched == [4, 8]


def test_no_degree_is_searched_twice(searched):
    # the truncation fits no square-free relation, so searches at 4, 8, 7
    # and 5 return rejected relations; the descent from 5 meets 4 again
    prec = PrecisionSpec(120)
    x = cv(prec.context(), Fraction(10**30 // 3, 10**30))
    assert find_minpoly(x, 8, prec=prec) is NOT_FOUND
    assert len(searched) == len(set(searched))



def test_overshooting_probe_is_split_without_a_search_below_it(searched):
    # the degree-8 search returns the sextic times t + 1, and the factor
    # that vanishes at x is proved irreducible
    prec = PrecisionSpec(120)
    ctx = prec.context()
    res = find_minpoly(ctx.sqrt(2) + ctx.cbrt(3) - 3, 8, prec=prec)
    assert res.coeffs == (82, 684, 849, 462, 129, 18, 1)
    assert searched == [4, 8]


def test_reducible_relation_at_the_degree_bound(searched):
    # the degree-4 search returns t (t^3 - 2)
    res = find_minpoly(P80.context().cbrt(2), 4, prec=P80)
    assert res.coeffs == (-2, 0, 0, 1)
    assert searched == [4]


def test_factor_above_the_height_bound_leaves_the_degree_to_the_descent(searched):
    # sqrt 5 - 3 is a root of t^2 + 6t + 4, of height 6; the degree-4 search
    # returns it times t^2 - t + 1 (height 5), so the descent finds its
    # multiple by t - 1, as it did before the irreducibility test, and ends
    # at the failure at 2
    res = find_minpoly(P80.context().sqrt(5) - 3, 4, height_bound=5, prec=P80)
    assert res.coeffs == (-4, -2, 5, 1)
    assert searched == [4, 3, 2]


def test_inconclusive_irreducibility_falls_back_to_the_descent(searched):
    # t^8 - 2 (100 t - 1)^2 is irreducible (Eisenstein at 2), but two of its
    # roots lie 1.4e-10 apart, too close for Durand-Kerner in floats to
    # separate their disks
    mignotte = (-2, 400, -20000, 0, 0, 0, 0, 0, 1)
    assert _factor(mignotte) is None
    prec = PrecisionSpec(120)
    ctx = prec.context()
    x = ctx.findroot(lambda t: ctx.polyval(mignotte[::-1], t), ctx.mpf(1) / 100 + 7e-11)
    assert find_minpoly(x, 8, prec=prec).coeffs == mignotte
    assert searched == [4, 8, 7]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return tuple(out)


K3_POLY = (1, 0, -16, 0, 16)
K5_POLY = (1, 0, -72, 0, 88, 0, -32, 0, 16)
K6_POLY = (1, -12, 2, 12, 1)
K25_POLY = (1, -36, 2, 36, 1)


@pytest.mark.parametrize(
    "poly",
    # k_3 and k_5 factor modulo every prime, so no mod-p factorization
    # proves them irreducible
    [K3_POLY, K5_POLY, (-2, 0, 0, 0, 0, 0, 0, 0, 1), (-1, 0, 6, 24, 3), (7, 1), (1, 0, 1)],
)
def test_factor_proves_irreducible(poly):
    assert _factor(poly) == [poly]


@pytest.mark.parametrize(
    "a, b",
    [
        (K3_POLY, (-1, 2, 1)),
        ((1, -6, 1), (-2, 0, 3)),  # leading coefficients 1 and 3
        ((7, 0, 0, 3), (5, 1, 0, 0, 11)),  # 3 and 11
        ((1, 0, -256, 0, 256), (-2, 0, 0, 1)),  # k_7 times a cubic
        (K6_POLY, K25_POLY),  # two quartics: cofactors of equal degree
        ((-3, 0, 5), (-2, 0, 0, 1)),
    ],
)
def test_factor_splits_products(a, b):
    factors = _factor(_mul(a, b))
    assert sorted(factors) == sorted([a, b])


def test_factor_leaves_degrees_past_the_subset_budget_open():
    assert _factor((-2,) + (0,) * 12 + (1,)) is None


@pytest.mark.parametrize(
    "poly", [(1, -6, 9), (1, 2, 1), _mul(K3_POLY, K3_POLY), _mul(_mul(K6_POLY, K6_POLY), (-2, 0, 3))]
)
def test_factor_leaves_repeated_roots_open(poly):
    # find_minpoly runs the square-free gcd only where _factor returns None:
    # any result of _factor proves P square-free
    assert _factor(poly) is None
    assert not _is_squarefree(poly)


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
    res = MinPolyResult(coeffs=(-2, 0, 0, 1), degree=3, residual=0, confidence="unverified")
    assert res.as_text() == "-2 + t^3"


def _size(diag, i, prec):
    g = sqrt_fixed((4 << prec) // 3, prec)
    return g ** (i + 1) * abs(diag[i]) >> prec * i


def _exact_pivot(diag, prec):
    # mpmath's row choice: the first i with the largest g^(i+1) |H_ii| >> prec*i
    sizes = [_size(diag, i, prec) for i in range(len(diag))]
    return sizes.index(max(sizes))


def _pivot_of(diag, prec):
    # H as _lll_reduce keeps it: n rows of n - 1 entries, diagonal from diag
    n = len(diag) + 1
    H = [[0] * (n - 1) for _ in range(n)]
    for i, h in enumerate(diag):
        H[i][i] = h
    weights, floor = _pivot_weights(n, prec)
    return _pivot(H, weights, prec, floor)


def _entries(prec):
    # signed integers of every bit length up to prec + 60: |H_ii| / 2^prec
    # from far below the float range to 2^60 (PSLQ keeps it below 1)
    return st.integers(0, prec + 60).flatmap(lambda b: st.integers(-(1 << b), 1 << b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    diag_prec=st.sampled_from([12, 53, 113, 572, 1233, 1525]).flatmap(
        lambda prec: st.tuples(st.lists(_entries(prec), min_size=1, max_size=9), st.just(prec))
    )
)
def test_pivot_matches_the_exact_row_choice_on_random_diagonals(diag_prec):
    diag, prec = diag_prec
    assert _pivot_of(diag, prec) == _exact_pivot(diag, prec)


@pytest.mark.parametrize("prec", [12, 113, 572, 1525])
@pytest.mark.parametrize("n", [2, 5, 9])
def test_pivot_of_a_zero_or_underflowing_diagonal(prec, n):
    # no row stands out to the screen: the first row, or the exact maximum
    assert _pivot_of([0] * (n - 1), prec) == 0
    tiny = [(-1) ** i * (3 - i % 3) for i in range(n - 1)]
    assert _pivot_of(tiny, prec) == _exact_pivot(tiny, prec)


@pytest.mark.parametrize("prec", [1233, 1525])
def test_pivot_where_the_floats_are_subnormal(prec):
    # 7 and 6 times 2^-1076 round to 2 and 2 units of 2^-1074, and the
    # weighted estimates to 2 and 3 units, so the screen alone would pick
    # row 1; row 0 is larger by 1%
    diag = [7 << prec - 1076, 6 << prec - 1076]
    assert _pivot_of(diag, prec) == _exact_pivot(diag, prec) == 0


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("prec", [114, 573, 1525])
def test_pivot_on_rows_tied_or_one_apart(prec, delta):
    # g h1 - 2^prec h0 = delta makes row 1's size that of row 0 plus delta
    # (g is odd at these precisions, so delta = 1 has a solution); a tie
    # goes to row 0
    g = sqrt_fixed((4 << prec) // 3, prec)
    h1 = (1 << prec) if delta == 0 else pow(g, -1, 1 << prec)
    h0 = (g * h1 - delta) >> prec
    for rest in ([], [h0 >> 8, -(h1 >> 8)]):
        diag = [-h0, h1] + rest
        assert _size(diag, 1, prec) == _size(diag, 0, prec) + delta
        assert _pivot_of(diag, prec) == _exact_pivot(diag, prec) == delta


def _diagonal_with_sizes(prec, n, i, j, delta, bits, rng):
    # rows i and j sized S_j = S_i + delta, above every other row
    g = sqrt_fixed((4 << prec) // 3, prec)
    while True:
        diag = [rng.getrandbits(bits - 10) for _ in range(n - 1)]
        diag[i] = rng.getrandbits(bits) | 1 << bits
        target = _size(diag, i, prec) + delta
        diag[j] = -(-(target << prec * j) // g ** (j + 1))
        if _size(diag, j, prec) == target:
            return diag


@pytest.mark.parametrize("bits", [24, 60])
@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("i, j", [(1, 2), (2, 1), (2, 6), (7, 3)])
def test_pivot_on_any_two_rows_tied_or_one_apart(i, j, delta, bits):
    # at 12 bits the sizes repeat often enough to be found by trial.
    # Entries near 2^60 keep the screen on, and the floats see no
    # difference; near 2^24 the floor of the shift outweighs the screen's
    # slack.  Row 0's sizes are multiples of g, so pairs with it are built
    # above
    rng = random.Random(f"{i}{j}{delta}")
    diag = _diagonal_with_sizes(12, 9, i, j, delta, bits, rng)
    expected = j if delta > 0 or (delta == 0 and j < i) else i
    assert _pivot_of(diag, 12) == _exact_pivot(diag, 12) == expected


@pytest.mark.parametrize("prec", [113, 572, 1525])
def test_pivot_on_rows_closer_than_the_floats_resolve(prec):
    # row 5's size lands within 2^(prec+3) of row 2's, of about 2^(2 prec),
    # just above or just below it
    g = sqrt_fixed((4 << prec) // 3, prec)
    rng = random.Random(prec)
    for sign in (1, -1):
        for _ in range(20):
            diag = [rng.getrandbits(prec - 8) for _ in range(8)]
            diag[2] = rng.getrandbits(prec) | 1 << (prec - 1)
            target = (_size(diag, 2, prec) + sign * (1 << prec + 2)) << prec * 5
            diag[5] = -(-target // g**6) if sign > 0 else target // g**6
            assert _pivot_of(diag, prec) == _exact_pivot(diag, prec) == (5 if sign > 0 else 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    h=st.integers(0, 1400).flatmap(lambda b: st.integers(-(1 << b), 1 << b)),
    p=st.integers(0, 1400).flatmap(lambda b: st.integers(1, 1 << b)),
    sign=st.sampled_from([1, -1]),
    prec=st.sampled_from([1, 53, 572, 1525]),
)
def test_round_div_is_mpmaths_rounded_quotient(h, p, sign, prec):
    # round_fixed(x, prec) >> prec is (x + 2^(prec-1)) >> prec
    p *= sign
    assert _round_div(h, p) == round_fixed((h << prec) // p, prec) >> prec


@pytest.mark.parametrize("p", [2, -2, 6, -6, 1 << 600, -(3 << 600)])
@pytest.mark.parametrize("k", [0, 1, -1, 7, -(1 << 300)])
def test_round_div_rounds_exact_halves_up(p, k):
    # h / p = k +- 1/2 rounds to k + 1 and k, as round_fixed does
    prec = 572
    for h, expected in ((k * p + p // 2, k + 1), (k * p - p // 2, k)):
        assert _round_div(h, p) == expected == round_fixed((h << prec) // p, prec) >> prec
