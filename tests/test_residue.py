"""Finite-field layer: element arithmetic, polynomial factorization, and
rational maps over residue fields."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from berklocus.berkmap import gauss_point, reduce_at
from berklocus.errors import CheckFailed, IdentityMap, MultiplierOne, \
    ZeroPolynomial
from berklocus.field import PrimeContext
from berklocus.oracle import MOEBIUS_IDENTITY, classify_moebius, fixture
from berklocus.residue import (
    TABLE_MAX_ORDER,
    Fq,
    FqElement,
    FqRationalMap,
    INF_POINT,
    _CoordKernel,
    _PrimeKernel,
    _project_to_base,
    _TableKernel,
    _TowerKernel,
    direction_key,
    factor,
    find_irreducible,
    is_irreducible,
    poly,
    poly_deg,
    poly_eval,
    residue_field,
    trace_to_base,
)

from conftest import mk


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


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (3, 2)])
def test_inverse_of_zero_raises(p, k):
    F = field_of(p, k)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_tower_arithmetic_over_f9():
    # F_9 = F_3[x]/(x^2 + 1) and c = 1 + x: w^3 + (1 - c) w fixes 0, oo and
    # the two roots of y^2 - c, which live in the tower F_9[y]/(y^2 - c)
    F3 = Fq(3)
    F9 = Fq(3, modulus=poly(F3, [1, 0, 1]), base=F3)
    c = F9.one + F9.gen
    f = FqRationalMap(F9, (F9.zero, F9.one - c, F9.zero, F9.one), (F9.one,))
    (t,) = [t for t in f.fixed_points() if t.orbit_size == 2]
    assert t.minpoly == (-c, F9.zero, F9.one)
    x = t.location
    assert x.rep == ((0, 0), (1, 0)) and t.multiplier.rep == ((0, 2), (0, 0))
    assert x * x == t.field.embed(c)
    assert f.holomorphic_index_check()
    assert repr(x.inverse()) == "((0,0),(2,1))"
    assert x * x.inverse() == t.field.one
    assert repr(x.frobenius()) == "((0,0),(1,1))"
    assert repr(trace_to_base(x, F9)) == "(0,0)"


def test_tower_inverse_over_f81():
    # F_81 = F_9[w]/(w^2 - g), g a nonsquare of F_9 = F_3[x]/(x^2 + 1): the
    # extended Euclid of F_9's kernel against a^(q - 2), the inverse by
    # Fermat's little theorem
    F3 = Fq(3)
    F9 = Fq(3, modulus=poly(F3, [1, 0, 1]), base=F3)
    g = next(a for a in F9.elements() if not a.is_zero() and a ** 4 != F9.one)
    F81 = Fq(3, modulus=(-g, F9.zero, F9.one), base=F9)
    K = F81.kernel
    assert K.q == 81
    for x in F81.elements():
        if not x.is_zero():
            y = x.inverse()
            assert x * y == F81.one
            assert y.rep == K._pow(x.rep, K.q - 2)


def test_field_guards():
    """A prime field takes no modulus and has no generator, an extension
    needs a monic modulus of degree >= 2, an element embeds only from a
    subfield, and the trace goes down only to one; equal fields hash
    alike, and neither the zero polynomial nor a constant is irreducible."""
    F = Fq(5)
    F25 = residue_field(5, 2)
    with pytest.raises(ValueError, match="takes no modulus"):
        Fq(5, modulus=poly(F, [2, 0, 1]))
    with pytest.raises(ValueError, match="monic modulus"):
        Fq(5, modulus=poly(F, [2, 1]), base=F)
    with pytest.raises(ValueError, match="no generator"):
        F.gen
    with pytest.raises(ValueError, match="not in a subfield"):
        F.embed(F25.gen)
    with pytest.raises(ValueError, match="F_25 is not a subfield of F_125"):
        trace_to_base(residue_field(5, 3).gen, F25)
    with pytest.raises(ValueError, match="F_25 is not a subfield of F_5"):
        _project_to_base(F.one, F25)
    assert hash(Fq(5, modulus=F25.modulus, base=F)) == hash(F25)
    with pytest.raises(ZeroPolynomial):
        factor(F, ())
    assert not is_irreducible(F, poly(F, [3]))


def test_a_tower_over_a_tower_is_refused():
    # F_9 -> F_81 builds and computes; an extension of F_81 would need the
    # polynomial arithmetic of a tower's kernel, which has none
    F3 = Fq(3)
    F9 = Fq(3, modulus=poly(F3, [1, 0, 1]), base=F3)
    g = next(a for a in F9.elements() if not a.is_zero() and a ** 4 != F9.one)
    F81 = Fq(3, modulus=(-g, F9.zero, F9.one), base=F9)
    assert F81.order == 81 and F81.gen * F81.gen == F81.embed(g)
    h = F81.gen + F81.one
    with pytest.raises(ValueError):
        Fq(3, modulus=(-h, F81.zero, F81.one), base=F81)


@pytest.mark.parametrize("k", [1, 2])
def test_inverse_of_a_zero_divisor_raises(k):
    # w^2 - 1 = (w - 1)(w + 1) is reducible, yet a monic modulus of degree 2
    # over F_3 or over F_9; w - 1 is a zero divisor and has no inverse
    base = field_of(3, k)
    R = Fq(3, modulus=(-base.one, base.zero, base.one), base=base)
    x = R.gen - R.one
    assert (x * (R.gen + R.one)).is_zero()
    with pytest.raises(CheckFailed):
        x.inverse()
    with pytest.raises(CheckFailed):
        R.one / x
    assert (R.gen * R.gen.inverse()) == R.one  # w is a unit: w^2 = 1


def test_inverse_mod_raises_on_a_common_factor():
    K = _PrimeKernel(3)
    with pytest.raises(CheckFailed):
        K.inverse_mod([2, 1], [2, 0, 1])  # x - 1 modulo x^2 - 1
    # (1 + x)(2 + x) = 2 + x^2 = 1 modulo x^2 + 1 over F_3
    assert K.inverse_mod([1, 1], [1, 0, 1]) == [2, 1]


def test_elements_enumeration():
    ext = ext_field(2, 3)
    elems = list(ext.elements())
    assert len(elems) == 8
    assert len(set(map(repr, elems))) == 8


def test_a_field_element_is_never_the_infinity_direction():
    # a direction is a field element or oo: the two never compare equal,
    # from either side
    for F in (Fq(5), ext_field(2, 3)):
        for e in F.elements():
            assert e != INF_POINT and INF_POINT != e
            assert e == FqElement(F, e.rep)


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
            prod = F.ring.mul(prod, q)
    assert F.ring.monic(prod) == F.ring.monic(f)


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
    with pytest.raises(CheckFailed):  # g lies outside the base
        _project_to_base(g, F)


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
    lam = {t.key(): t.multiplier for t in m.fixed_points()}
    assert lam[direction_key(INF_POINT)].is_zero()
    assert lam[direction_key(F.from_int(1))] == F.from_int(2)
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


def test_the_index_check_refuses_the_identity():
    """The closed-form oracle calls the identity fixture the identity; its
    reduction at the Gauss point is the identity tangent map, on which the
    index sum is undefined: IdentityMap."""
    f = fixture("moebius-identity").build()
    assert classify_moebius(f).case == MOEBIUS_IDENTITY
    m = reduce_at(f, gauss_point(f.ctx)).reduced_map
    assert m.is_identity()
    with pytest.raises(IdentityMap, match="undefined for the identity"):
        m.holomorphic_index_check()


def test_a_constant_map_over_a_finite_field_fixes_its_value_once():
    """0/0 is refused.  A zero denominator collapses the numerator to 1, so
    every constant-infinity map has the one normal form 1/0, and like every
    constant map it fixes its value once, superattracting: infinity with
    multiplier 0.  The constant 0 fixes 0 the same way."""
    F = Fq(5)
    with pytest.raises(ZeroPolynomial, match="0/0"):
        FqRationalMap(F, (), ())
    inf = FqRationalMap(F, poly(F, [3, 2]), ())
    assert (inf.num, inf.den) == ((F.one,), ())
    assert inf == FqRationalMap(F, poly(F, [4]), ()) and inf.is_constant()
    for m, value in ((inf, INF_POINT), (FqRationalMap(F, (), poly(F, [2, 1])),
                                        F.zero)):
        t, = m.fixed_points()
        assert (t.key(), t.multiplicity, t.multiplier, t.critically_fixed) \
            == (direction_key(value), 1, F.zero, True)


def test_fixed_points_multiple_at_infinity():
    # (w^2 + 2)/(w + 2) over F_5: deg num = deg den + 1 with equal leading
    # coefficients, so P = 2 - 2w has degree 1 and oo is a double fixed point
    F = Fq(5)
    m = FqRationalMap(F, poly(F, [2, 0, 1]), poly(F, [2, 1]))
    dirs = {t.key(): t for t in m.fixed_points()}
    inf = dirs[("inf",)]
    assert inf.multiplicity >= 2 and inf.multiplier == F.one
    assert inf.multiplicity == m.infinity_multiplicity() == 2
    assert sum(t.orbit_size * t.multiplicity for t in dirs.values()) == \
        m.degree + 1


def test_flip_involution():
    F = Fq(3)
    m = FqRationalMap(F, poly(F, [1, 2, 1]), poly(F, [0, 1]))
    assert m.flip().flip() == m


def test_gcd_normalization():
    F = Fq(5)
    a = poly(F, [1, 1])
    b = poly(F, [1, 1, 1])
    g = F.ring.gcd(F.ring.mul(a, b), F.ring.mul(a, a))
    assert F.ring.monic(g) == F.ring.monic(a)
    assert poly_eval(F, g, F.from_int(4)).is_zero()


# -- factorization on ints against the element ring `Fq.ring` --------------

FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in (1, 2, 3, 4)]


def field_of(p, k):
    return Fq(p) if k == 1 else ext_field(p, k)


def elem(F, digits):
    return FqElement(F, digits[0] if F.base is None else tuple(digits))


def random_poly(F, rng, deg):
    k = F.degree
    f = [elem(F, [rng.randrange(F.p) for _ in range(k)]) for _ in range(deg)]
    lead = [rng.randrange(F.p) for _ in range(k)]
    lead[0] = lead[0] or 1
    return tuple(f) + (elem(F, lead),)


def poly_pow(F, f, e):
    out = (F.one,)
    for _ in range(e):
        out = F.ring.mul(out, f)
    return out


def ben_or_irreducible(F, f):
    """f of degree n >= 1 is irreducible over F_q iff
    gcd(f, w^(q^i) - w) = 1 for every i <= n/2."""
    w = (F.zero, F.one)
    h = w
    for _ in range(poly_deg(f) // 2):
        e, base, h = F.order, h, (F.one,)
        while e:  # h <- base^q mod f
            if e & 1:
                h = F.ring.rem(F.ring.mul(h, base), f)
            base = F.ring.rem(F.ring.mul(base, base), f)
            e >>= 1
        if poly_deg(F.ring.gcd(f, F.ring.sub(h, w))) > 0:
            return False
    return True


def rep_key(c):
    return c.rep


def inputs(F, rng):
    """A random f, one with repeated factors (one of multiplicity p), one
    of the form h(w^p), and w^q - w on fields of at most 16 elements."""
    p = F.p
    g, h, u = (random_poly(F, rng, rng.randint(1, 2)) for _ in range(3))
    yield random_poly(F, rng, rng.randint(1, 6))
    yield F.ring.mul(F.ring.mul(poly_pow(F, g, 2), poly_pow(F, h, 3)),
                     poly_pow(F, u, p) if p <= 5 else u)
    stretched = [F.zero] * (p * poly_deg(h) + 1)
    for i, c in enumerate(h):
        stretched[p * i] = c
    yield tuple(stretched)
    if F.order <= 16:
        yield F.ring.sub((F.zero,) * F.order + (F.one,), (F.zero, F.one))


@pytest.mark.parametrize("p,k", FIELDS)
def test_factor_against_generic_helpers(p, k):
    F = field_of(p, k)
    rng = random.Random(1000 * p + k)
    for f in inputs(F, rng):
        parts = factor(F, f)
        prod = (F.one,)
        for q, mult in parts:
            assert q[-1] == F.one
            assert ben_or_irreducible(F, q)
            prod = F.ring.mul(prod, poly_pow(F, q, mult))
        assert prod == F.ring.monic(f)
        keys = [(poly_deg(q), tuple(rep_key(c) for c in q)) for q, _ in parts]
        assert keys == sorted(set(keys))
        if F.order <= 729:
            roots = {rep_key(a) for a in F.elements()
                     if poly_eval(F, f, a).is_zero()}
            assert roots == {rep_key(-q[0]) for q, _ in parts
                             if poly_deg(q) == 1}


# -- the kernel's arithmetic and its contract ------------------------------

def test_factor_over_a_large_prime_field():
    F = Fq(2 ** 31 - 1)
    f = F.ring.mul(poly(F, [-1, 1]), F.ring.mul(poly(F, [1, 0, 1]),
                                                poly(F, [-2, 1])))
    assert [q for q, _ in factor(F, f)] == \
        [poly(F, [-2, 1]), poly(F, [-1, 1]), poly(F, [1, 0, 1])]


def test_factor_over_a_large_extension_field():
    # GF(1031^2) has more than a million elements; nothing is built per
    # element, so it factors like a small field
    F = ext_field(1031, 2)
    rng = random.Random(1031)
    a, b, c = (random_poly(F, rng, d) for d in (1, 1, 2))
    f = F.ring.mul(F.ring.mul(a, a), F.ring.mul(b, c))
    parts = factor(F, f)
    prod = (F.one,)
    for q, mult in parts:
        assert ben_or_irreducible(F, q)
        prod = F.ring.mul(prod, poly_pow(F, q, mult))
    assert prod == F.ring.monic(f)
    assert (tuple(F.ring.monic(a)), 2) in parts


def schoolbook_mul(p, m, a, b):
    """The product of two coordinate tuples over F_p[w]/(m), m monic: the
    full product of the polynomials, from whose top term c w^t down c w^(t-k)
    m is subtracted while t >= k."""
    k = len(m) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for t in range(2 * k - 2, k - 1, -1):
        c = prod[t]
        for i in range(k + 1):
            prod[t - k + i] -= c * m[i]
    return tuple(c % p for c in prod[:k])


@pytest.mark.parametrize("p,k", [(p, k) for p, k in FIELDS if k > 1])
def test_kernel_arithmetic_matches_fq_elements(p, k):
    """The kernel of F_p[w]/(m) and the FqElement operations, which are the
    kernel's, against a schoolbook product reduced by the modulus."""
    F = field_of(p, k)
    K = F.kernel
    mul = functools.partial(schoolbook_mul, p, find_irreducible(p, k))
    zero = (0,) * k
    one, neg_one = (1,) + zero[1:], (p - 1,) + zero[1:]
    assert (K.zero, K.one, K.neg_one) == (zero, one, neg_one)
    assert (F.zero.rep, F.one.rep, (-F.one).rep) == (zero, one, neg_one)
    assert K._from_int(p + 3) == F.from_int(3).rep == (3 % p,) + zero[1:]
    rng = random.Random(100 * p + k)
    reps = [zero, one, neg_one, F.gen.rep] + \
        [tuple(rng.randrange(p) for _ in range(k)) for _ in range(40)]
    for a in reps:
        if a == zero:
            continue
        assert mul(a, K._inv(a)) == one
        frob = one
        for _ in range(p):
            frob = mul(frob, a)
        assert K._pow(a, p) == frob == FqElement(F, a).frobenius().rep
        for b in reps[:12]:
            assert K._mul(a, b) == mul(a, b) == (FqElement(F, a) *
                                                 FqElement(F, b)).rep
        # out[j] += a * b_j, with sums that cancel to zero at odd j
        out = [tuple(-c % p for c in mul(a, b)) if j % 2 else a
               for j, b in enumerate(reps)]
        want = [zero if j % 2 else
                tuple((x + y) % p for x, y in zip(a, mul(a, b)))
                for j, b in enumerate(reps)]
        K._axpy(out, 0, a, list(enumerate(reps)))
        assert out == want


def test_factor_over_a_tower_raises():
    F = ext_field(3, 2)
    tower = Fq(3, modulus=poly(F, find_irreducible(3, 2)), base=F)
    with pytest.raises(ValueError):
        factor(tower, (tower.zero, tower.one))


# -- Zech-log tables of the working residue fields ---------------------------

TABLE_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2),
                (11, 2), (5, 3)]  # every table field of at most 125 elements


def table_field(p, k):
    """The residue field of E(p, 1, k), with the convolution kernel of the
    same modulus to compare against."""
    F = PrimeContext(p, 1, k).residue_field
    assert isinstance(F.kernel, _TableKernel)
    return F, _CoordKernel(p, find_irreducible(p, k))


@pytest.mark.parametrize("p,k", TABLE_FIELDS + [(11, 3), (7, 4)])
def test_table_products_match_the_convolution(p, k):
    """Every pair of elements up to 125 elements, sampled pairs above."""
    F, C = table_field(p, k)
    K = F.kernel
    assert K.modulus == C.modulus
    mul = functools.partial(schoolbook_mul, p, C.modulus)
    if F.order <= 125:
        reps = list(itertools.product(range(p), repeat=k))
    else:
        rng = random.Random(F.order)
        reps = [K.zero, K.one, K.neg_one, F.gen.rep] + \
            [tuple(rng.randrange(p) for _ in range(k)) for _ in range(60)]
    for a in reps:
        for b in reps:
            assert K._mul(a, b) == C._mul(a, b) == mul(a, b)
        if a != K.zero:
            assert K._inv(a) == C._inv(a)
            assert mul(a, K._inv(a)) == K.one


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (11, 3)])
def test_table_axpy_and_powers_match_the_convolution(p, k):
    F, C = table_field(p, k)
    K = F.kernel
    rng = random.Random(7 * p + k)
    reps = [K.zero, K.one, K.neg_one, F.gen.rep] + \
        [tuple(rng.randrange(p) for _ in range(k)) for _ in range(12)]
    for c in reps:
        # out[j] += c * b_j over zero and nonzero out[j], with zero entries
        # b_j, and sums that cancel at every third j
        terms = list(enumerate(reps))
        out = [C._sub(K.zero, C._mul(c, b)) if j % 3 == 0 else
               K.zero if j % 3 == 1 else reps[-j] for j, b in terms] + [K.one]
        want = list(out)
        K._axpy(out, 1, c, terms[:-1])
        C._axpy(want, 1, c, terms[:-1])
        assert out == want
        for e in (0, 1, 2, p, F.order - 1, F.order, 3 * F.order + 2):
            assert K._pow(c, e) == C._pow(c, e)
    assert K._pow(K.zero, 0) == K.one and K._pow(K.zero, F.order) == K.zero
    x = F.gen + F.one
    assert x ** -3 == (x ** 3).inverse() and x ** -3 * x ** 3 == F.one
    assert (x ** -1).rep == C._inv(x.rep)


@pytest.mark.parametrize("p,k", [(3, 2), (2, 4)])
def test_table_inverse_of_zero_raises_as_the_convolution(p, k):
    F, C = table_field(p, k)
    for K in (F.kernel, C):
        with pytest.raises(CheckFailed):
            K._inv(K.zero)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (11, 2)])
def test_factor_over_a_table_field_matches_the_convolution(p, k):
    F, _ = table_field(p, k)
    G = ext_field(p, k)  # the same modulus, on the convolution
    assert type(G.kernel) is _CoordKernel
    rng = random.Random(1000 * p + k)
    for f in inputs(F, rng):
        g = tuple(FqElement(G, c.rep) for c in f)
        assert [([c.rep for c in q], m) for q, m in factor(F, f)] == \
            [([c.rep for c in q], m) for q, m in factor(G, g)]


def test_tables_are_built_once_per_modulus():
    """One residue field per (p, k), whatever n, and extend reaches it."""
    F = residue_field(7, 2)
    K = F.kernel
    assert isinstance(K, _TableKernel) and K.modulus == find_irreducible(7, 2)
    assert PrimeContext(7, 1, 2).residue_field is F
    assert PrimeContext(7, 3, 2).residue_field is F
    assert PrimeContext(7, 1, 1).extend(k=2).extend(n=2).residue_field is F
    assert residue_field(3, 1) is PrimeContext(3, 4).residue_field == Fq(3)
    # above the bound the residue field keeps the convolution
    big = PrimeContext(11, 1, 4).residue_field
    assert big.order > TABLE_MAX_ORDER and type(big.kernel) is _CoordKernel


def test_orbit_fields_keep_the_convolution():
    """The fixed points of a tangent map outside its field live in orbit
    fields: F_5[w]/(w^2 - w + 2) for z^2 + 2 over Q_5, and a tower over the
    table field F_9 for z^3 + 1 over E(3, 1, 2).  Neither builds tables:
    only `residue_field` makes a `_TableKernel`."""
    for f, kind in ((mk(5, [2, 0, 1], [1]), _CoordKernel),
                    (mk(3, [1, 0, 0, 1], [1], k=2), _TowerKernel)):
        local = reduce_at(f, gauss_point(f.ctx))
        (t,) = [t for t in local.fixed_directions() if t.orbit_size > 1]
        assert type(t.field.kernel) is kind
    assert t.field.base is f.ctx.residue_field is residue_field(3, 2)
    assert isinstance(t.field.base.kernel, _TableKernel)


@pytest.mark.parametrize("p,modulus,divisor", [(3, (2, 0, 1), (2, 1)),
                                               (2, (1, 0, 1), (1, 1)),
                                               (2, (0, 0, 1), (0, 1))])
def test_tables_of_a_reducible_modulus_are_refused(p, modulus, divisor):
    # w^2 - 1 over F_3 and (w + 1)^2 over F_2 have the zero divisors w - 1
    # and w + 1, and w^2 over F_2 the nilpotent w: no element has q - 1
    # distinct nonzero powers, and the convolution refuses the inverse
    with pytest.raises(CheckFailed):
        _TableKernel(p, modulus)
    base = Fq(p)
    R = Fq(p, modulus=poly(base, modulus), base=base)
    assert type(R.kernel) is _CoordKernel
    with pytest.raises(CheckFailed):
        FqElement(R, divisor).inverse()


# -- the exactness checks of tangent maps, on tampered objects --------------

def square_map():
    F = Fq(5)
    return F, FqRationalMap(F, poly(F, [0, 0, 1]), poly(F, [1]))  # w^2


def _polys(f):
    return f.num, f.den, f.derivative_numerator()


def test_a_tampered_denominator_puts_a_pole_at_a_fixed_point():
    F, f = square_map()
    f.den = (F.zero, F.one)  # w / ... : a pole at the fixed point 0
    with pytest.raises(CheckFailed, match="fixed pole"):
        f._multiplier_and_critical(F.zero, F, 1, _polys(f))


def test_a_tampered_multiplier_fails_the_criticality_cross_check():
    F, f = square_map()
    lam, crit = f._multiplier_and_critical(F.one, F, 1, _polys(f))
    assert lam == F.from_int(2) and not crit
    with pytest.raises(CheckFailed, match="criticality"):
        f._multiplier_and_critical(F.one, F, 1, (f.num, f.den, ()))


def test_a_tampered_multiplicity_needs_multiplier_one():
    F, f = square_map()
    with pytest.raises(CheckFailed, match="multiplier 1"):
        f._multiplier_and_critical(F.one, F, 2, _polys(f))


def test_a_tampered_multiplicity_at_infinity_breaks_the_direction_count():
    F, f = square_map()
    assert sum(t.orbit_size * t.multiplicity for t in f.fixed_points()) == 3
    f.infinity_multiplicity = lambda: 0
    with pytest.raises(CheckFailed, match="fixes 2 directions"):
        f.fixed_points()


# -- the polynomial ring, on element objects and on ints ---------------------

def ring_fields():
    """Three working fields, F_5, F_9 and the tower F_81 over F_9."""
    F3 = Fq(3)
    F9 = Fq(3, modulus=poly(F3, [1, 0, 1]), base=F3)
    g = next(a for a in F9.elements() if not a.is_zero() and a ** 4 != F9.one)
    return [PrimeContext(5), PrimeContext(3, 2), PrimeContext(2, 1, 2),
            Fq(5), residue_field(3, 2),
            Fq(3, modulus=(-g, F9.zero, F9.one), base=F9)]


def random_element(field, rng):
    if isinstance(field, PrimeContext):
        return field.element([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(field.n)]
                              for _ in range(field.k)])
    return rng.choice(list(field.elements()))


def random_ring_poly(field, rng, deg):
    """A polynomial of degree exactly deg (the zero polynomial at -1)."""
    f = [random_element(field, rng) for _ in range(deg + 1)]
    while f and f[-1].is_zero():
        f[-1] = random_element(field, rng)
    return f


@pytest.mark.parametrize("field", ring_fields(), ids=repr)
def test_the_ring_divides_takes_gcds_and_differentiates(field):
    """Over each field, `ring` (on elements) gives f = q g + r with
    deg r < deg g; a monic gcd that divides both inputs and is divided by
    a known common factor; and a product and derivative that agree with
    evaluation at random points, the derivative by the product rule."""
    R, rng = field.ring, random.Random(repr(field))
    for _ in range(12):
        f, g, h = (random_ring_poly(field, rng, rng.randint(lo, hi))
                   for lo, hi in ((-1, 5), (0, 3), (1, 2)))
        q, r = R.divmod(f, g)
        assert R.add(R.mul(q, g), r, R.one) == f
        assert poly_deg(r) < poly_deg(g)
        fh, gh = R.mul(f, h), R.mul(g, h)
        d = R.gcd(fh, gh)
        assert d[-1] == field.one
        assert R.rem(fh, d) == [] and R.rem(gh, d) == []
        assert R.rem(d, h) == []
        x = random_element(field, rng)

        def at(p):
            return poly_eval(field, p, x)
        assert at(R.mul(f, g)) == at(f) * at(g)
        assert at(R.deriv(R.mul(f, g))) == \
            at(R.deriv(f)) * at(g) + at(f) * at(R.deriv(g))
    c = random_element(field, rng)
    assert R.deriv([c]) == [] and R.deriv([c, field.one]) == [field.one]


def test_the_ring_refuses_division_by_zero_and_keeps_zero_monic():
    R = PrimeContext(5).ring
    f = [R.one, R.one]
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        R.divmod(f, [])
    assert R.monic([]) == [] and R.gcd([], []) == []
    assert R.monic([R.neg_one, R.neg_one]) == f


def nonzero_element(field, rng):
    c = random_element(field, rng)
    while c.is_zero():
        c = random_element(field, rng)
    return c


def ring_power(R, g, m):
    out = [R.one]
    for _ in range(m):
        out = R.mul(out, g)
    return out


def assert_squarefree_parts(R, f, parts):
    """f = lc(f) * prod g^m over `parts`, each g monic, nonconstant and
    squarefree, the g pairwise coprime, the m distinct and ascending."""
    prod = [f[-1]]
    for g, m in parts:
        assert len(g) > 1 and g[-1] == R.one
        assert R.gcd(g, R.deriv(g)) == [R.one]
        prod = R.mul(prod, ring_power(R, g, m))
    assert prod == f
    ms = [m for _, m in parts]
    assert ms == sorted(set(ms))
    for (g, _), (h, _) in itertools.combinations(parts, 2):
        assert R.gcd(g, h) == [R.one]


@pytest.mark.parametrize("field", ring_fields()[:5], ids=repr)
def test_the_ring_splits_squarefree_parts_and_lowest_terms(field):
    """Over each field, `ring.squarefree` of a product of random factors to
    random powers (so repeated, shared and, over F_9, p-th power factors
    occur) gives the squarefree parts, and [] for a constant; and
    `ring.lowest_terms(f, g)` gives a monic c with f = c f', g = c g' and
    gcd(f', g') = 1, returning f and g themselves when c is constant."""
    R, rng = field.ring, random.Random(repr(field))
    for _ in range(8):
        f = [nonzero_element(field, rng)]
        for _ in range(rng.randint(1, 3)):
            g = random_ring_poly(field, rng, rng.randint(1, 2))
            f = R.mul(f, ring_power(R, g, rng.randint(1, 3)))
        assert_squarefree_parts(R, f, R.squarefree(f))
        a, b, h = (random_ring_poly(field, rng, rng.randint(0, 2))
                   for _ in range(3))
        fa, fb = R.mul(a, h), R.mul(b, h)
        c, a2, b2 = R.lowest_terms(fa, fb)
        assert c[-1] == R.one and R.rem(c, h) == []
        assert R.mul(c, a2) == fa and R.mul(c, b2) == fb
        assert R.gcd(a2, b2) == [R.one]
        if len(c) == 1:
            assert a2 is fa and b2 is fb
    assert R.squarefree([nonzero_element(field, rng)]) == []
    f, g = [R.one, R.one], [R.zero, R.one]  # w + 1 and w: coprime
    assert R.lowest_terms(f, g) == ([R.one], f, g)
    assert R.lowest_terms(f, g)[1] is f


@pytest.mark.parametrize("field", [Fq(5), residue_field(3, 2)], ids=repr)
def test_the_kernel_splits_an_inseparable_polynomial(field):
    """f = h(w^p) has f' = 0, so `squarefree` takes p-th roots of the
    coefficients: on the kernel's reps every multiplicity is a multiple of
    p, and the parts still multiply back to f."""
    K, rng, p = field.kernel, random.Random(7), field.p
    for _ in range(6):
        h = [nonzero_element(field, rng).rep
             for _ in range(rng.randint(2, 4))]
        f = [K.zero] * (p * (len(h) - 1) + 1)
        f[::p] = h
        assert K.deriv(f) == []
        parts = K.squarefree(f)
        assert parts and all(m % p == 0 for _, m in parts)
        assert_squarefree_parts(K, f, parts)
