"""Arithmetic in the working field tower: exactness, valuations, residues."""

import copy
import functools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berklocus import field
from berklocus import residue as rf
from berklocus import fixlocus as fx
from berklocus.errors import CheckFailed, NegativeValuation
from berklocus.field import INF, NEG_INF, FieldElement, PrimeContext, vp
from berklocus.oracle import fixture


rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_vp_basics():
    assert vp(Fraction(12), 2) == 2
    assert vp(Fraction(12), 3) == 1
    assert vp(Fraction(1, 9), 3) == -2
    assert vp(Fraction(0), 5) == INF


def test_infinities_order_around_every_rational():
    assert -INF is NEG_INF and -NEG_INF is INF
    for q in (Fraction(-10 ** 12), Fraction(0), Fraction(10 ** 9), 7):
        assert NEG_INF < q < INF and INF > q > NEG_INF
        assert NEG_INF <= q <= INF and not q >= INF and not q <= NEG_INF
        assert q != INF and INF != q and q != NEG_INF
    assert INF == INF and INF >= INF and INF <= INF and not INF < INF
    assert NEG_INF < INF and INF != NEG_INF


def test_infinities_in_min_max_and_sorted():
    mixed = [Fraction(3), INF, Fraction(-1, 2), NEG_INF, 0]
    assert sorted(mixed) == [NEG_INF, Fraction(-1, 2), 0, Fraction(3), INF]
    assert sorted(mixed)[0] is NEG_INF and sorted(mixed)[-1] is INF
    assert min(Fraction(5), INF) == 5 and min(INF, Fraction(5)) == 5
    assert max(NEG_INF, Fraction(-5)) == -5
    assert min([INF, INF]) is INF and max([NEG_INF, INF]) is INF


def test_infinities_refuse_arithmetic():
    for op in (lambda: INF + 1, lambda: 1 + INF, lambda: Fraction(1) - INF,
               lambda: NEG_INF * 2, lambda: INF / Fraction(3),
               lambda: INF < 1.5):
        with pytest.raises(TypeError):
            op()


def test_element_guards():
    """The inverse and the unit residue of zero are refused, operands of two
    working fields do not mix, and an element compared with a non-element
    leaves the answer to the other operand."""
    ctx = PrimeContext(5)
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        ctx.zero.inverse()
    with pytest.raises(ValueError, match="unit residue of zero"):
        ctx.zero.unit_residue()
    for other in (PrimeContext(5, 2).one, PrimeContext(7).one, 1):
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b):
            with pytest.raises(TypeError, match="different working fields"):
                op(ctx.one, other)
    assert ctx.one.__eq__(1) is NotImplemented
    assert ctx.one != 1 and ctx.one == ctx.from_rational(Fraction(5, 5))


def test_infinities_survive_copies():
    assert copy.deepcopy([INF, NEG_INF]) == [INF, NEG_INF]
    assert copy.deepcopy(INF) is INF
    assert pickle.loads(pickle.dumps(NEG_INF)) is NEG_INF


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


def test_a_retry_chain_builds_its_residue_field_once_without_factoring(
        monkeypatch):
    """E(7, 1, 1) -> E(7, 1, 2) -> E(7, 3, 2), as extension retries grow the
    tower, and the same steps by `extend`: F_49 is built once, on the
    modulus whose Ben-Or test proved it irreducible, and nothing is
    factored."""
    calls = []
    factor = rf.factor
    monkeypatch.setattr(rf, "factor",
                        lambda *a: calls.append(a) or factor(*a))
    # fresh caches, so that the chain builds its fields instead of reading
    # them
    for name in ("residue_field", "find_irreducible"):
        monkeypatch.setattr(rf, name, functools.lru_cache(maxsize=None)(
            getattr(rf, name).__wrapped__))
    base = PrimeContext(7, 1, 1)
    chain = [PrimeContext(7, 1, 2), PrimeContext(7, 3, 2),
             base.extend(k=2), base.extend(k=2).extend(n=3),
             base.extend(n=3, k=2)]
    assert calls == []
    assert rf.residue_field.cache_info().misses == 2  # (7, 1) and (7, 2)
    F = rf.residue_field(7, 2)
    assert all(ctx.residue_field is F for ctx in chain)
    assert chain[0].unram_min_poly == rf.find_irreducible(7, 2) == \
        tuple(c.rep for c in F.modulus)
    assert chain[1] == chain[3] == chain[4] != chain[2]
    assert len({chain[1], chain[3], chain[4]}) == 1


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


IRREDUCIBLE = [(3, (1, 0, 1)), (3, (1, 2, 0, 1)), (5, (2, 0, 1)),
               (5, (1, 1, 0, 1))]
REDUCIBLE = [(p, m) for p in (3, 5) for m in ((-1, 0, 1), (0, -1, 0, 1))]


@pytest.mark.parametrize("p,modulus", IRREDUCIBLE + REDUCIBLE)
def test_unit_test_agrees_with_determinant_mod_p(p, modulus):
    """The norm cross-check of a valuation, a gcd with the modulus mod p,
    passes exactly when the multiplication matrix of a / p^v has a nonzero
    determinant mod p, for x^2 - 1 and x^3 - x as for irreducible moduli;
    modulo a reducible one, some nonzero residues are not units."""
    k = len(modulus) - 1
    ctx = PrimeContext(p, 1, k)
    ctx.unram_min_poly = modulus
    rng = random.Random(p * 1000 + sum(modulus))
    outcomes = set()
    for _ in range(60):
        nums = [rng.randint(-20, 20) * p ** rng.randint(0, 2)
                for _ in range(k)]
        if not any(nums):
            continue
        v = min(vp(c, p) for c in nums if c)
        col = [c // p ** v for c in nums]
        cols = []
        for _ in range(k):
            cols.append(col)
            lead = col[-1]
            col = [c - lead * m for c, m in zip([0] + col[:-1], modulus)]
        unit = _det([[cols[c][r] for c in range(k)] for r in range(k)]) % p
        if unit:
            assert ctx.one._unram_val(nums) == v
        else:
            with pytest.raises(CheckFailed):
                ctx.one._unram_val(nums)
        outcomes.add(bool(unit))
    assert outcomes == ({True, False} if (p, modulus) in REDUCIBLE
                        else {True})


# -- the short paths against the general ones ------------------------------

@pytest.mark.parametrize("p,n,k", [(2, 4, 2), (3, 2, 2), (5, 1, 3),
                                   (2, 8, 1)])
def test_monomial_inverse_matches_the_solve(p, n, k):
    ctx = PrimeContext(p, n, k)
    for j in range(n):
        for c in (1, -1, p, -p, 6, -6):
            for den in (1, p, p ** 3, 7):
                nums = [0] * (n * k)
                nums[j] = c
                x = FieldElement(ctx, nums, den)
                inv = x.inverse()
                solved = x._solve_inverse()
                assert (inv.nums, inv.den) == (solved.nums, solved.den)
                assert x * inv == ctx.one


@pytest.mark.parametrize("p,n,k", [(2, 1, 1), (3, 1, 1), (2, 4, 2),
                                   (3, 2, 2), (5, 1, 3), (2, 8, 1)])
def test_rational_product_matches_the_convolution(p, n, k):
    ctx = PrimeContext(p, n, k)
    rng = random.Random(10 * p + n + k)
    for _ in range(40):
        a = FieldElement(ctx, [rng.randint(-50, 50) * p ** rng.randint(0, 2)
                               for _ in range(n * k)],
                         rng.choice((1, p, p * p, 6)))
        r = ctx.from_rational(Fraction(rng.randint(-30, 30),
                                       rng.choice((1, p, 7))))
        want = FieldElement(ctx, field._product(ctx, r.nums, a.nums),
                            r.den * a.den)
        for got in (r * a, a * r):
            assert (got.nums, got.den) == (want.nums, want.den)


UNIT_MODULI = IRREDUCIBLE + [(p, m) for p in (3, 5) for m in (
    (-1, 0, 1), (0, -1, 0, 1), (-1, 1, -1, 1))]  # (x - 1)(x^2 + 1) last


@pytest.mark.parametrize("p,modulus", UNIT_MODULI)
def test_unit_test_by_degree_agrees_with_the_gcd(p, modulus):
    """Residues of every degree below k: the constant and linear routes of
    the norm cross-check decide as the gcd with the modulus does."""
    k = len(modulus) - 1
    ctx = PrimeContext(p, 1, k)
    ctx.unram_min_poly = modulus
    K = ctx.residue_field.base.kernel
    m = [c % p for c in modulus]
    rng = random.Random(p * 100 + sum(modulus))
    seen = set()
    for deg in range(k):
        for _ in range(40):
            digits = [rng.randrange(p) for _ in range(deg)] + \
                [rng.randrange(1, p)]
            v = rng.randint(0, 2)
            nums = [(d + p * rng.randint(-3, 3)) * p ** v for d in digits]
            nums += [p ** (v + 1) * rng.randint(-3, 3)
                     for _ in range(k - deg - 1)]
            unit = len(K.gcd(K._trim(list(digits)), m)) == 1
            if unit:
                assert ctx.one._unram_val(nums) == v
            else:
                with pytest.raises(CheckFailed):
                    ctx.one._unram_val(nums)
            seen.add((deg, unit))
    assert {d for d, _ in seen} == set(range(k))
    assert any(not u for _, u in seen) == ((p, modulus) not in IRREDUCIBLE)


@pytest.mark.parametrize("name,limit", [("segment-p3-d4", 4),
                                        ("wild-p3-d3", 1)])
def test_bareiss_solves_stay_few(monkeypatch, name, limit):
    """The monomial inverse keeps the solves of an analysis down: 138 and
    43 of them without it, on these two fixtures."""
    calls = []
    solve = field._bareiss_solve

    def counted(m):
        calls.append(len(m))
        return solve(m)

    monkeypatch.setattr(field, "_bareiss_solve", counted)
    fx.analyze(fixture(name).build(), fx.ExploreConfig(n_max=24, k_max=4))
    assert len(calls) <= limit


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 2])
def test_residue_shifted_matches_the_product(p, n, k):
    """nval is n * val, and the residue of self / pi^m read off one column
    is the residue of the product with pi^-m, at m = nval and below it;
    above nval it raises NegativeValuation, as the product's residue
    does."""
    ctx = PrimeContext(p, n, k)
    rng = random.Random(1000 * p + 10 * n + k)
    dens = set()
    for _ in range(40):
        x = FieldElement(ctx, [rng.randint(-30, 30) * p ** rng.randint(0, 3)
                               if rng.random() < 0.7 else 0
                               for _ in range(n * k)],
                         rng.choice((1, 7, p, p ** 2, 3 * p)))
        if x.is_zero():
            assert x.nval() is INF
            assert x.residue_shifted(-n) == ctx.residue_field.zero
            continue
        dens.add(x.den % p == 0)
        nv = x.nval()
        assert nv == x.val() * n
        for m in (nv, nv - 1, nv - n - 1):
            assert x.residue_shifted(m) == (x * ctx.pi_pow(-m)).residue()
        assert x.residue_shifted(nv) == x.unit_residue() != \
            ctx.residue_field.zero
        for m in (nv + 1, nv + n):
            with pytest.raises(NegativeValuation):
                x.residue_shifted(m)
            with pytest.raises(NegativeValuation):
                (x * ctx.pi_pow(-m)).residue()
    assert dens == {True, False}


def test_unit_residue_builds_no_element(monkeypatch):
    """The leading digit is read off the element's own coefficients: no
    product with a power of pi and no valuation of it."""
    ctx = PrimeContext(2, 4, 2)
    x = ctx.element([[0, Fraction(3, 4), 0, 5], [Fraction(6, 7), 0, 1, 0]])
    assert any(x.nums[ctx.n:])  # not rational
    made = []
    init, product = FieldElement.__init__, field._product

    def counted_init(self, *args, **kwargs):
        made.append("element")
        init(self, *args, **kwargs)

    def counted_product(*args):
        made.append("product")
        return product(*args)

    monkeypatch.setattr(FieldElement, "__init__", counted_init)
    monkeypatch.setattr(field, "_product", counted_product)
    digit = x.unit_residue()
    assert made == []
    monkeypatch.undo()
    assert digit == (x * ctx.pi_pow(-x.nval())).residue()


# -- the integer form against a Fraction reference -------------------------

SHAPES = [(p, n, k) for p in (2, 3, 5, 11)
          for n, k in ((1, 1), (2, 1), (3, 1), (8, 1), (1, 2), (2, 2),
                       (4, 2), (1, 3), (2, 3), (1, 4), (2, 4))]


@functools.lru_cache(maxsize=None)
def _ctx(p, n, k):
    return PrimeContext(p, n, k)


@st.composite
def grids(draw, p, n, k):
    """k rows of n rational coefficients, some zero, with denominators
    divisible by p among them."""
    coeff = st.one_of(st.just(Fraction(0)), st.builds(
        lambda a, e, d: Fraction(a * p ** e, d),
        st.integers(-60, 60), st.integers(0, 2),
        st.sampled_from((1, 7, p, p * p, 3 * p))))
    return [[draw(coeff) for _ in range(n)] for _ in range(k)]


def _grid(e):
    """The coefficient of x^i pi^j of an element, read from its integer form."""
    n, k = e.ctx.n, e.ctx.k
    return [[Fraction(e.nums[i * n + j], e.den) for j in range(n)]
            for i in range(k)]


def _ref_mul(ctx, a, b):
    n, k, p = ctx.n, ctx.k, ctx.p
    prod = [[Fraction(0)] * n for _ in range(2 * k - 1)]
    for i1 in range(k):
        for j1 in range(n):
            for i2 in range(k):
                for j2 in range(n):
                    c = a[i1][j1] * b[i2][j2]
                    j = j1 + j2
                    if j >= n:
                        j, c = j - n, c * p
                    prod[i1 + i2][j] += c
    mp = ctx.unram_min_poly
    for i in range(2 * k - 2, k - 1, -1):
        for t in range(k):
            for j in range(n):
                prod[i - k + t][j] -= mp[t] * prod[i][j]
    return prod[:k]


def _ref_val(ctx, a):
    # the monomial basis is integral (see test_val_is_the_norm_valuation)
    return min((vp(c, ctx.p) + Fraction(j, ctx.n) for row in a
                for j, c in enumerate(row) if c), default=INF)


def _ref_truncate(ctx, a, level):
    p, out = ctx.p, []
    for row in a:
        out.append([])
        for j, c in enumerate(row):
            m = math.ceil(level - Fraction(j, ctx.n))
            if c == 0 or vp(c, p) >= m:
                out[-1].append(Fraction(0))
                continue
            den, e = c.denominator, 0
            while den % p == 0:
                den, e = den // p, e + 1
            mod = p ** (m + e)
            out[-1].append(Fraction(c.numerator * pow(den, -1, mod) % mod,
                                    p ** e))
    return out


def _ref_repr(a):
    parts = []
    for i, row in enumerate(a):
        for j, c in enumerate(row):
            if c:
                mono = ([] if i == 0 else ["x"] if i == 1 else [f"x^{i}"]) + \
                    ([] if j == 0 else ["pi"] if j == 1 else [f"pi^{j}"])
                parts.append("*".join([str(c)] + mono))
    return " + ".join(parts) or "0"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_form_matches_fraction_reference(data):
    p, n, k = data.draw(st.sampled_from(SHAPES))
    ctx = _ctx(p, n, k)
    ga, gb = data.draw(grids(p, n, k)), data.draw(grids(p, n, k))
    a, b = ctx.element(ga), ctx.element(gb)
    assert _grid(a) == ga and a.den > 0
    assert math.gcd(a.den, *a.nums) == 1
    assert _grid(a + b) == [[x + y for x, y in zip(r, s)]
                            for r, s in zip(ga, gb)]
    assert _grid(a - b) == [[x - y for x, y in zip(r, s)]
                            for r, s in zip(ga, gb)]
    assert _grid(a * b) == _ref_mul(ctx, ga, gb)
    assert a.val() == _ref_val(ctx, ga)
    assert repr(a) == _ref_repr(ga)
    v = _ref_val(ctx, ga)
    if v < 0:
        with pytest.raises(NegativeValuation):
            a.residue()
    else:
        digits = [0 if v > 0 else
                  row[0].numerator * pow(row[0].denominator, -1, p) % p
                  for row in ga]
        r = a.residue()
        got = (r.rep,) if k == 1 else r.rep
        assert got == tuple(digits)
    assert _grid(_ctx(p, 2 * n, k).embed(a)) == [
        [r[j // 2] if j % 2 == 0 else 0 for j in range(2 * n)] for r in ga]
    level = Fraction(data.draw(st.integers(-2 * n, 4 * n)), n)
    assert _grid(a.truncate(level)) == _ref_truncate(ctx, ga, level)
    if not a.is_zero():
        inv = a.inverse()
        one = [[Fraction(int(i == j == 0)) for j in range(n)]
               for i in range(k)]
        assert _ref_mul(ctx, ga, _grid(inv)) == one
        assert inv.val() == -a.val()
    # products with a zero factor are the one zero
    for z in (a * ctx.zero, (b - b) * a):
        assert z == ctx.zero and z.nums == (0,) * (n * k) and z.den == 1
        assert repr(z) == "0" and z.val() is INF
    # equal elements built two ways are equal, with equal hashes
    q = Fraction(data.draw(st.integers(-30, 30)), data.draw(
        st.sampled_from((1, p, 6))))
    for x, y in ((a * b, b * a), ((a + b) - b, a),
                 (a.scale(q), ctx.element([[q * c for c in r] for r in ga])),
                 (ctx.from_rational(q), ctx.element([[q]]))):
        assert x == y and hash(x) == hash(y)


def test_exactness_checks_fail_under_optimize():
    code = (
        "from berklocus import field\n"
        "from berklocus.errors import CheckFailed\n"
        "from berklocus.field import PrimeContext\n"
        "assert False, 'asserts must be off'\n"
        "def expect(name, thunk, error=CheckFailed):\n"
        "    try:\n"
        "        thunk()\n"
        "    except error:\n"
        "        print(name)\n"
        "ctx = PrimeContext(5)\n"
        "e = ctx.from_rational(1)\n"
        "e.nums, e.den = (5,), 5  # not normalised: val 0 over den p\n"
        "expect('residue', e.residue)\n"
        "expect('unit', ctx.zero.unit_residue, ValueError)\n"
        "bad = PrimeContext(3, 1, 2)\n"
        "bad.unram_min_poly = (-1, 0, 1)  # x^2 - 1: reducible, no field\n"
        "e = bad.x_gen - bad.one\n"
        "expect('norm', e.val)\n"
        "expect('solve', e.inverse)\n"
        "bad = PrimeContext(3, 1, 3)\n"
        "bad.unram_min_poly = (0, -1, 0, 1)  # x^3 - x, a multiple of x^2 - 1\n"
        "e = bad.x_gen * bad.x_gen - bad.one\n"
        "expect('norm-euclid', e.val)\n"
        "e = ctx.from_rational(3)\n"
        "e._nv = 1  # claims 5 | 3\n"
        "expect('shifted', e.unit_residue)\n"
        "e = ctx.from_rational(25)\n"
        "e._nv = 1  # claims the digit of 25 / 5 is a unit\n"
        "expect('shifted-digits', e.unit_residue)\n"
        "field.pow = lambda b, e, m: 0  # a truncation with a wrong inverse\n"
        "expect('truncate', lambda: ctx.from_rational(3).truncate(2))\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["residue", "unit", "norm", "solve",
                                    "norm-euclid", "shifted",
                                    "shifted-digits", "truncate"]


def _tampered_residue():
    e = PrimeContext(5).from_rational(1)
    e.nums, e.den = (5,), 5  # not normalised: val 0 over den p
    return e.residue


def _tampered_nval(value, nv):
    e = PrimeContext(5).from_rational(value)
    e._nv = nv
    return e.unit_residue


def _tampered_modulus():
    bad = PrimeContext(3, 1, 2)
    bad.unram_min_poly = (-1, 0, 1)  # x^2 - 1: reducible, no field
    return (bad.x_gen - bad.one).inverse


@pytest.mark.parametrize("tamper,match", [
    (_tampered_residue, "denominator divisible"),
    (lambda: _tampered_nval(3, 1), "not divisible"),  # claims 5 | 3
    (lambda: _tampered_nval(25, 1), "digits vanish"),  # 25 / 5 a unit
    (_tampered_modulus, "singular"),
    # a rational right-hand side: Cramer's rule has no integer quotient
    (lambda: functools.partial(field._bareiss_solve,
                               [[2, Fraction(1, 3)]]), "inexact"),
])
def test_exactness_checks_fail_on_tampered_elements(tamper, match):
    """The checks of `test_exactness_checks_fail_under_optimize`, in this
    process: each element or system contradicts one fact its reader
    relies on, and the reader raises."""
    with pytest.raises(CheckFailed, match=match):
        tamper()()


def test_truncation_with_a_wrong_inverse_fails_its_congruence(monkeypatch):
    monkeypatch.setattr(field, "pow", lambda b, e, m: 0, raising=False)
    with pytest.raises(CheckFailed, match="not congruent"):
        PrimeContext(5).from_rational(3).truncate(2)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_nval_of_tests_the_value_group(n):
    """n*s as an int on (1/n)Z, None off it."""
    ctx = PrimeContext(3, n)
    big = 10 ** 40 + 1
    assert ctx.nval_of(Fraction(0)) == 0 and ctx.nval_of(0) == 0
    assert ctx.nval_of(Fraction(1, n)) == 1
    assert ctx.nval_of(Fraction(-1, n)) == -1
    assert ctx.nval_of(Fraction(1, 2 * n)) is None
    assert ctx.nval_of(Fraction(big, n)) == big
    assert ctx.nval_of(Fraction(-big, 2 * n)) is None
    assert ctx.nval_of(5) == 5 * n


def test_context_guards_and_shortcuts():
    """PrimeContext refuses a p that is not prime and an n or k below 1;
    `extend` refuses an n that is not a multiple and a k step from k > 1,
    and returns the context itself when nothing grows; `embed` returns an
    element of the context itself and refuses one from a context it does
    not contain; `lift` refuses a residue of another field."""
    assert not field._is_prime(1) and not field._is_prime(0)
    with pytest.raises(ValueError, match="not prime"):
        PrimeContext(1)
    with pytest.raises(ValueError, match=">= 1"):
        PrimeContext(5, 0)
    ctx = PrimeContext(5, 2)
    assert repr(ctx) == "E(p=5, n=2, k=1)"
    assert ctx != (5, 2, 1) and ctx == PrimeContext(5, 2)
    assert ctx.extend() is ctx and ctx.extend(n=2, k=1) is ctx
    assert ctx.extend(n=4, k=3) == PrimeContext(5, 4, 3)
    with pytest.raises(ValueError, match="multiple"):
        ctx.extend(n=3)
    unram = PrimeContext(5, 1, 2)
    assert unram.extend(k=2) is unram
    with pytest.raises(ValueError, match="only from k = 1"):
        unram.extend(k=4)
    x = ctx.pi
    assert ctx.embed(x) is x
    with pytest.raises(ValueError, match="not a sub-context"):
        ctx.embed(PrimeContext(5, 3).pi)
    with pytest.raises(ValueError, match="not in the residue field"):
        ctx.lift(unram.residue_field.one)
