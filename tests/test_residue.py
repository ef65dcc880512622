"""Finite-field layer: element arithmetic, polynomial factorization, and
rational maps over residue fields."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from berklocus.errors import IdentityMap, MultiplierOne
from berklocus.residue import (
    Fq,
    FqRationalMap,
    INF_POINT,
    factor,
    find_irreducible,
    is_irreducible,
    poly,
    poly_deg,
    poly_eval,
    poly_gcd,
    poly_monic,
    poly_mul,
    trace_to_base,
)


def ext_field(p, k):
    F = Fq(p)
    return Fq(p, modulus=poly(F, find_irreducible(p, k)), base=F)


def test_prime_field_arithmetic():
    F = Fq(7)
    a, b = F.from_int(3), F.from_int(5)
    assert a + b == F.from_int(1)
    assert a * b == F.from_int(1)
    assert a.inverse() == b
    assert (-a) == F.from_int(4)


def test_extension_field_and_frobenius():
    ext = ext_field(3, 2)
    g = ext.gen
    # Frobenius has order 2 on F_9 and fixes exactly the prime field
    assert g.frobenius() != g
    assert g.frobenius().frobenius() == g
    assert ext.from_int(2).frobenius() == ext.from_int(2)


def test_elements_enumeration():
    ext = ext_field(2, 3)
    elems = list(ext.elements())
    assert len(elems) == 8
    assert len(set(map(repr, elems))) == 8


@given(st.integers(min_value=0, max_value=7 ** 4 - 1))
def test_factor_roundtrip(seed_poly):
    F = Fq(7)
    digits = []
    x = seed_poly
    for _ in range(4):
        digits.append(x % 7)
        x //= 7
    f = poly(F, digits + [1])  # monic degree 4
    parts = factor(F, f)
    prod = (F.one,)
    for q, mult in parts:
        assert is_irreducible(F, q)
        for _ in range(mult):
            prod = poly_mul(F, prod, q)
    assert poly_monic(F, prod) == poly_monic(F, f)


def test_find_irreducible():
    for p, k in ((2, 4), (5, 3), (11, 2)):
        F = Fq(p)
        q = poly(F, find_irreducible(p, k))
        assert poly_deg(q) == k
        assert is_irreducible(F, q)


def test_find_irreducible_matches_factor_based_search():
    # the search by full factorization that Ben-Or's criterion replaced:
    # the first candidate in coefficient order that `factor` leaves whole
    def by_factoring(p, k):
        F = Fq(p)
        for tail in itertools.product(range(p), repeat=k):
            if is_irreducible(F, poly(F, list(tail) + [1])):
                return tuple(tail) + (1,)

    for p in (2, 3, 5, 7, 11):
        for k in (2, 3, 4):
            assert find_irreducible.__wrapped__(p, k) == by_factoring(p, k)


def test_find_irreducible_is_memoized():
    first = find_irreducible(7, 3)
    hits = find_irreducible.cache_info().hits
    assert find_irreducible(7, 3) == first
    assert find_irreducible.cache_info().hits == hits + 1


def test_trace_to_base():
    F = Fq(5)
    ext = ext_field(5, 2)
    g = ext.gen
    tr = trace_to_base(g, F)
    assert tr == g + g.frobenius() or tr.field == F
    # trace of a base element is [ext : F] times itself
    assert trace_to_base(ext.from_int(3), F) == F.from_int(6)


def test_fixed_points_multiplicities_sum():
    F = Fq(5)
    m = FqRationalMap(F, poly(F, [0, 0, 1]), poly(F, [1]))  # w^2
    dirs = m.fixed_points()
    assert sum(t.orbit_size * t.multiplicity for t in dirs) == m.degree + 1
    locs = {t.key() for t in dirs}
    assert ("inf",) in locs


def test_fixed_points_galois_orbit():
    # w^4 over F_5: the cube roots of unity other than 1 form one orbit
    F = Fq(5)
    m = FqRationalMap(F, poly(F, [0, 0, 0, 0, 1]), poly(F, [1]))
    orbit = [t for t in m.fixed_points() if t.orbit_size == 2]
    assert len(orbit) == 1
    assert orbit[0].minpoly is not None


def test_multiplier_and_identity_errors():
    F = Fq(7)
    m = FqRationalMap(F, poly(F, [0, 0, 1]), poly(F, [1]))
    assert m.multiplier(INF_POINT).is_zero()
    lam = m.multiplier(F.from_int(1))
    assert lam == F.from_int(2)
    ident = FqRationalMap(F, poly(F, [0, 1]), poly(F, [1]))
    with pytest.raises(IdentityMap):
        ident.fixed_points()


def test_holomorphic_index_simple_map():
    F = Fq(7)
    # w^2 has a fixed point of multiplier 0 at each of 0, oo and 2 at 1:
    # 1/(1-0) + 1/(1-0) + 1/(1-2) = 1
    m = FqRationalMap(F, poly(F, [0, 0, 1]), poly(F, [1]))
    assert m.holomorphic_index_check()


def test_holomorphic_index_rejects_multiplier_one():
    F = Fq(5)
    # w + w^2 fixes 0 with multiplier exactly 1
    m = FqRationalMap(F, poly(F, [0, 1, 1]), poly(F, [1]))
    with pytest.raises(MultiplierOne):
        m.holomorphic_index_check()


def test_flip_involution():
    F = Fq(3)
    m = FqRationalMap(F, poly(F, [1, 2, 1]), poly(F, [0, 1]))
    assert m.flip().flip() == m


def test_gcd_normalization():
    F = Fq(5)
    a = poly(F, [1, 1])
    b = poly(F, [1, 1, 1])
    g = poly_gcd(F, poly_mul(F, a, b), poly_mul(F, a, a))
    assert poly_monic(F, g) == poly_monic(F, a)
    assert poly_eval(F, g, F.from_int(4)).is_zero()
