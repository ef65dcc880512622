"""Arithmetic in the working field tower: exactness, valuations, residues."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berklocus.errors import NegativeValuation
from berklocus.field import INF, PrimeContext, vp


rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_vp_basics():
    assert vp(Fraction(12), 2) == 2
    assert vp(Fraction(12), 3) == 1
    assert vp(Fraction(1, 9), 3) == -2
    assert vp(Fraction(0), 5) == INF


def test_from_rational_roundtrip():
    ctx = PrimeContext(5)
    a = ctx.from_rational(Fraction(7, 3))
    b = ctx.from_rational(Fraction(-2, 3))
    assert a + b == ctx.from_rational(Fraction(5, 3))
    assert (a * b).val() == vp(Fraction(-14, 9), 5)


def test_uniformizer_power():
    ctx = PrimeContext(3, n=2)
    pi = ctx.pi
    assert (pi * pi) == ctx.from_rational(3)
    assert pi.val() == Fraction(1, 2)
    assert ctx.pi_pow(-3).val() == Fraction(-3, 2)


def test_unramified_generator():
    # the unramified part is a degree-k extension; its generator is a unit
    ctx = PrimeContext(5, n=1, k=2)
    x = ctx.x_gen
    assert x.val() == 0
    r = x.residue()
    # the residue lies in F_25 but outside the prime field
    assert r.frobenius() != r
    assert r.frobenius().frobenius() == r


def test_residue_of_negative_valuation_raises():
    ctx = PrimeContext(5)
    with pytest.raises(NegativeValuation):
        ctx.from_rational(Fraction(1, 5)).residue()


@given(rationals, rationals)
def test_val_multiplicative(qa, qb):
    ctx = PrimeContext(7)
    a, b = ctx.from_rational(qa), ctx.from_rational(qb)
    prod = a * b
    if a.is_zero() or b.is_zero():
        assert prod.is_zero()
    else:
        assert prod.val() == a.val() + b.val()


@given(rationals, rationals)
def test_val_ultrametric(qa, qb):
    ctx = PrimeContext(7)
    a, b = ctx.from_rational(qa), ctx.from_rational(qb)
    s = a + b
    if not s.is_zero():
        assert s.val() >= min(a.val(), b.val())
    if a.val() != b.val() and not (a.is_zero() or b.is_zero()):
        assert s.val() == min(a.val(), b.val())


@given(rationals)
def test_inverse(qa):
    ctx = PrimeContext(3)
    a = ctx.from_rational(qa)
    if a.is_zero():
        return
    assert a * a.inverse() == ctx.one
    assert a.inverse().val() == -a.val()


@given(rationals, st.integers(min_value=-3, max_value=6))
def test_truncate_keeps_agreement(qa, level):
    ctx = PrimeContext(5, n=2)
    a = ctx.from_rational(qa) * ctx.pi
    t = a.truncate(Fraction(level))
    diff = a - t
    assert diff.is_zero() or diff.val() >= Fraction(level)


def test_extension_embedding_preserves_arithmetic():
    ctx = PrimeContext(3, n=1, k=1)
    big = ctx.extend(n=2, k=2)
    a = ctx.from_rational(Fraction(5, 7))
    b = ctx.from_rational(Fraction(-2, 9))
    ea, eb = big.embed(a), big.embed(b)
    assert ea + eb == big.embed(a + b)
    assert ea * eb == big.embed(a * b)
    assert ea.val() == a.val()


def test_extension_tower_pi_compatible():
    ctx = PrimeContext(5, n=3)
    assert ctx.pi_pow(3) == ctx.from_rational(5)
    assert ctx.pi_pow(1).val() == Fraction(1, 3)


def test_unit_residue():
    ctx = PrimeContext(7)
    a = ctx.from_rational(Fraction(21))  # 3 * 7
    assert a.val() == 1
    assert a.unit_residue() == ctx.residue_field.from_int(3)


def _det(m):
    """Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * _det([r[:c] + r[c + 1:] for r in m[1:]])
               for c in range(len(m)) if m[0][c])


@pytest.mark.parametrize("p,n,k", [(2, 1, 2), (3, 2, 2), (2, 2, 3),
                                   (5, 1, 3), (3, 1, 4), (7, 2, 4)])
def test_val_is_the_norm_valuation(p, n, k):
    # val(a) = min over j of vp(det M_j) / k + j / n, where M_j is the
    # Fraction matrix of multiplication by the coefficient a_j of pi^j in the
    # x-power basis, an element of the unramified part
    ctx = PrimeContext(p, n, k)
    mp = ctx.unram_min_poly
    rng = random.Random(100 * p + 10 * n + k)
    for _ in range(30):
        coeffs = [[Fraction(rng.randint(-40, 40) * p ** rng.randint(0, 2),
                            rng.choice([1, p, 2 * p + 1]))
                   if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
                  for _ in range(k)]
        expected = INF
        for j in range(n):
            col = [coeffs[i][j] for i in range(k)]
            if not any(col):
                continue
            cols = []
            for _ in range(k):
                cols.append(col)
                lead = col[-1]
                col = [c - lead * m for c, m in zip([Fraction(0)] + col[:-1],
                                                    mp)]
            det = _det([[cols[c][r] for c in range(k)] for r in range(k)])
            expected = min(expected, vp(det, p) / k + Fraction(j, n))
        assert ctx.element(coeffs).val() == expected
