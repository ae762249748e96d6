"""Modulus / nome / complete-integral layer."""

import dataclasses
from fractions import Fraction

import pytest

import qelliptic.elliptic
from qelliptic.elliptic import (
    K_of_k,
    landen_chain,
    landen_descend,
    modulus_from_nome,
    nome_from_r,
    singular_modulus,
)
from qelliptic.numerics import DomainError, PrecisionSpec, VerificationError, cv, gamma


def test_K_at_zero():
    p = PrecisionSpec(60)
    ctx = p.context()
    assert abs(K_of_k(0, p) - ctx.pi / 2) < p.target_eps(ctx)


def test_K_lemniscatic():
    # K(1/sqrt2) = Gamma(1/4)^2 / (4 sqrt(pi))
    p = PrecisionSpec(80)
    ctx = p.context()
    lemniscatic = gamma(Fraction(1, 4), p) ** 2 / (4 * ctx.sqrt(ctx.pi))
    assert abs(K_of_k(1 / ctx.sqrt(2), p) - lemniscatic) < p.target_eps(ctx)


def test_K_domain():
    p = PrecisionSpec(40)
    with pytest.raises(DomainError):
        K_of_k(1, p)
    with pytest.raises(DomainError):
        K_of_k(Fraction(3, 2), p)


def test_singular_modulus_raises_on_a_wrong_modulus(monkeypatch):
    # a k off by 10^-20 relative moves K(k) but not K' = K(k'), so the
    # period ratio misses sqrt(r) far past its 10^-(digits - guard/2) bound.
    # A wrong K_of_k would not show: it scales both sides of the ratio
    exact = qelliptic.elliptic.modulus_from_nome

    def skewed(nome, prec):
        mod = exact(nome, prec)
        return dataclasses.replace(mod, k=mod.k * (1 + prec.context().mpf(10) ** -20))

    monkeypatch.setattr(qelliptic.elliptic, "modulus_from_nome", skewed)
    with pytest.raises(VerificationError):
        singular_modulus(2, PrecisionSpec(60))


def test_singular_modulus_r1():
    # k_1 = 1/sqrt(2)
    p = PrecisionSpec(80)
    ctx = p.context()
    k1 = singular_modulus(1, p)
    assert abs(k1 - 1 / ctx.sqrt(2)) < p.target_eps(ctx)
    # frozen decimal
    assert abs(k1 - cv(ctx, "0.7071067811865475244008443621048490392848")) < ctx.mpf(
        10
    ) ** (-38)


def test_singular_modulus_r2_minpoly():
    # k_2 = sqrt(2) - 1 satisfies t^2 + 2t - 1 = 0
    p = PrecisionSpec(80)
    ctx = p.context()
    k2 = singular_modulus(2, p)
    assert abs(k2 * k2 + 2 * k2 - 1) < p.target_eps(ctx)


def test_singular_modulus_r3():
    # k_3 = (sqrt(3) - 1) / (2 sqrt(2))
    p = PrecisionSpec(80)
    ctx = p.context()
    k3 = singular_modulus(3, p)
    ref = (ctx.sqrt(3) - 1) / (2 * ctx.sqrt(2))
    assert abs(k3 - ref) < p.target_eps(ctx)


def test_nome_from_r_value():
    p = PrecisionSpec(60)
    ctx = p.context()
    nm = nome_from_r(Fraction(2, 5), p)
    ref = ctx.exp(-ctx.pi * ctx.sqrt(cv(ctx, Fraction(2, 5))))
    assert abs(nm.q - ref) < p.target_eps(ctx)
    assert nm.r == Fraction(2, 5)


def test_nome_requires_positive_rational_r():
    p = PrecisionSpec(40)
    with pytest.raises(DomainError):
        nome_from_r(0, p)
    with pytest.raises(DomainError):
        nome_from_r(Fraction(-1, 2), p)
    with pytest.raises(DomainError):
        nome_from_r(0.5, p)  # floats are not exact rationals here


def test_modulus_from_nome_roundtrip():
    # q(k(q)) == q via K'/K computed from the returned periods
    p = PrecisionSpec(60)
    ctx = p.context()
    nm = nome_from_r(3, p)
    mod = modulus_from_nome(nm, p)
    q_back = ctx.exp(-ctx.pi * mod.K_prime / mod.K)
    assert abs(q_back - nm.q) < ctx.mpf(10) ** (-55)


def test_modulus_periods_match_agm():
    p = PrecisionSpec(60)
    ctx = p.context()
    mod = modulus_from_nome(cv(ctx, Fraction(1, 20)), p)
    assert abs(mod.K - K_of_k(mod.k, p)) < ctx.mpf(10) ** (-55)
    assert abs(mod.k_prime - ctx.sqrt(1 - mod.k**2)) < ctx.mpf(10) ** (-55)


def test_modulus_consistency_with_singular():
    p = PrecisionSpec(60)
    ctx = p.context()
    for r in (1, 2, 5, Fraction(2, 5)):
        nm = nome_from_r(r, p)
        mod = modulus_from_nome(nm.q, p)
        k_direct = singular_modulus(r, p)
        assert abs(mod.k - k_direct) < ctx.mpf(10) ** (-55), f"r={r}"


def test_landen_descend_relations():
    p = PrecisionSpec(60)
    ctx = p.context()
    k11 = cv(ctx, Fraction(3, 5))
    k12, k21, k22 = landen_descend(k11, p)
    assert abs(k12 - ctx.sqrt(1 - k11**2)) < ctx.mpf(10) ** (-55)
    # k21 = (1 - k12)/(1 + k12), the descending-step modulus
    assert abs(k21 - (1 - k12) / (1 + k12)) < ctx.mpf(10) ** (-55)
    assert abs(k22 - ctx.sqrt(1 - k21**2)) < ctx.mpf(10) ** (-55)
    # Landen: K(k11) = (1 + k21) K(k21)
    assert abs(K_of_k(k11, p) - (1 + k21) * K_of_k(k21, p)) < ctx.mpf(10) ** (-55)


def test_landen_descend_domain():
    p = PrecisionSpec(40)
    with pytest.raises(DomainError):
        landen_descend(Fraction(3, 2), p)


def test_landen_chain_is_nome_squaring():
    # the stepped modulus equals the modulus at q^2
    p = PrecisionSpec(60)
    ctx = p.context()
    q = cv(ctx, Fraction(1, 12))
    k11, k12, k21, k22 = landen_chain(q, p)
    assert abs(k11 - modulus_from_nome(q, p).k) < ctx.mpf(10) ** (-55)
    assert abs(k21 - modulus_from_nome(q * q, p).k) < ctx.mpf(10) ** (-55)
