"""Acceptance gate: one test per release criterion.

Each test prints exactly one PASS line when it completes, so `pytest -v`
gives a one-line verdict per criterion.  The expensive randomized batch (200
maps over Q_11 with split classical fixed points) is computed once per
session and shared by the criteria that consume it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berklocus import fixlocus as fx
from berklocus.berkmap import (
    ID_INDIFFERENT,
    MULT_INDIFFERENT,
    TypeIIPoint,
    embed_map,
    gauss_point,
    reduce_at,
)
from berklocus.errors import (
    BerklocusError,
    ConstantMap,
    MultiplierOne,
    ZeroDenominator,
)
from berklocus.oracle import (
    MOEBIUS_IDENTITY,
    MOEBIUS_SCALING_UNIT_TRIVIAL,
    MOEBIUS_TRANSLATION,
    brute_is_fixed,
    classify_moebius,
    fixture,
    fixtures,
    moebius_membership,
    tube_radius,
)
from berklocus.field import INF
from berklocus.residue import Fq, FqRationalMap, Infinity, poly

from conftest import mk, random_split_map, reciprocity_ends, \
    reciprocity_segments

CONFIG = fx.ExploreConfig(n_max=24, k_max=4)

BATCH_DEGREES = [2] * 120 + [3] * 40 + [4] * 25 + [5] * 15
BATCH_P = 11


@pytest.fixture(scope="session")
def random_batch():
    """200 random maps over Q_11 with rational classical fixed points,
    analyzed once; degrees are all below the residue characteristic."""
    rng = random.Random(20260823)
    batch = []
    for d in BATCH_DEGREES:
        f = random_split_map(rng, BATCH_P, d)
        batch.append((f, fx.analyze(f, CONFIG)))
    return batch


def test_criterion_1_weight_formula(fixture_analyses, random_batch, expected):
    """Total weight of the crucial points equals degree - 1, rigorously."""
    for name, (f, a) in fixture_analyses.items():
        assert a.weight_total == f.degree - 1, name
        assert a.complete_rigorous, name
        assert a.weight_total == expected[name]["degree"] - 1, name
        assert sum(cp.weight for cp in a.crucial_points) == a.weight_total
        assert all(cp.weight > 0 for cp in a.crucial_points), name
        # no ray breaks more than degree + 3 times (tests/test_wild.py)
        assert all(len(ray.breakpoints) <= f.degree + 3
                   for ray in a.skeleton.rays), name
    for f, a in random_batch:
        assert a.weight_total == f.degree - 1, repr(f)
        assert a.complete_rigorous, repr(f)
    print(f"\n[criterion 1] PASS: weight total == degree - 1 on "
          f"{len(fixture_analyses)} fixtures and {len(random_batch)} "
          f"random maps, all certificates complete")


def test_criterion_2_component_counting(fixture_analyses):
    """Each non-classical component holds exactly 2 + alpha classical fixed
    points with multiplicity."""
    checked = 0
    for name, (f, a) in fixture_analyses.items():
        for c in a.components:
            if c.kind == fx.KIND_CLASSICAL:
                continue
            count = fx.theorem_a_count(c)  # asserts count == direct tally
            assert count == 2 + c.alpha
            if c.kind == fx.KIND_INDIFFERENT:
                assert count == 2, name
            if c.kind == fx.KIND_HYPERBOLIC:
                assert count == 0, name
            checked += 1
    assert checked >= 10
    print(f"\n[criterion 2] PASS: counting formula verified on {checked} "
          f"non-classical components")


def test_criterion_3_degree_one_oracle(expected):
    """The engine agrees everywhere with the closed-form answers for
    degree-1 maps, including half-integer radii and exact tube radii."""
    centers = [Fraction(a, b) for a in (-26, -7, -2, -1, 0, 1, 2, 3, 5, 6,
                                        25, 26) for b in (1, 5)]
    radii = [Fraction(i, 2) for i in range(-10, 11)]
    probes = disagreements = 0
    for fxt in fixtures():
        if fxt.family != "moebius":
            continue
        f = fxt.build()
        desc = classify_moebius(f)
        exp = expected[fxt.name]
        assert desc.case == exp["case"], fxt.name
        # certificate shape: classical points and multiplicities
        if desc.case != MOEBIUS_IDENTITY:
            assert sum(m for _, m in desc.classical) == 2
            inf_mult = sum(m for v, m in desc.classical
                           if isinstance(v, Infinity))
            assert inf_mult == exp["infinity_multiplicity"], fxt.name
            finite = {}
            for v, m in desc.classical:
                if not isinstance(v, Infinity):
                    key = "inf" if v.val() is INF else str(v.val())
                    finite[key] = finite.get(key, 0) + m
            assert finite == dict(exp["fixed_point_valuations"]), fxt.name
        # exact tube radii where the closed form defines one
        if desc.case == MOEBIUS_TRANSLATION:
            assert tube_radius(desc) is None
            assert exp["tube_radius"] == "unbounded"
        elif desc.case == MOEBIUS_SCALING_UNIT_TRIVIAL:
            assert str(tube_radius(desc)) == exp["tube_radius"], fxt.name
        if desc.case == MOEBIUS_IDENTITY:
            continue
        # probe grid: >= 500 points per map, half-integer radii included
        ctx2 = f.ctx.extend(n=2)
        f2 = embed_map(f, ctx2)
        desc2 = classify_moebius(f2)
        assert desc2.case == desc.case
        count = 0
        for c in centers:
            for s in radii:
                pt = TypeIIPoint(ctx2.from_rational(c), s)
                count += 1
                if moebius_membership(desc2, pt) != reduce_at(f2, pt).is_fixed:
                    disagreements += 1
        assert count >= 500
        probes += count
    assert disagreements == 0
    print(f"\n[criterion 3] PASS: closed-form oracle matches the engine on "
          f"{probes} probe points (0 disagreements), tube radii exact")


def test_criterion_4_indifferent_structure(fixture_analyses):
    """Indifferent components: exactly two classical fixed points with
    multiplicity, reciprocal multipliers, and the interior dichotomy."""
    seen = 0
    for name, (f, a) in fixture_analyses.items():
        for c in a.components:
            if c.kind != fx.KIND_INDIFFERENT:
                continue
            seen += 1
            assert fx.indifferent_checks(c), name
            assert c.classical_multiplicity == 2, name
            F = c.residue_field
            if len(c.classical_points) == 2:
                r1 = c.classical_points[0].multiplier_residue
                r2 = c.classical_points[1].multiplier_residue
                assert r1 * r2 == F.one, name
                interior = {arc.behavior for arc in c.arcs}
                if r1 == F.one:
                    assert MULT_INDIFFERENT not in interior, name
                else:
                    assert interior <= {MULT_INDIFFERENT}, name
            else:
                # a doubled classical point forces an id-/additive interior
                assert all(arc.behavior != MULT_INDIFFERENT
                           for arc in c.arcs), name
    assert seen >= 5
    # multiplier reciprocity across every fixed segment with reduced ends,
    # and at every classical end of a fixed segment
    segments = ends = 0
    for name, (f, a) in fixture_analyses.items():
        assert fx.multiplier_reciprocity_check(a), name
        segments += len(reciprocity_segments(a))
        ends += len(reciprocity_ends(a))
    assert segments >= 6
    assert ends >= 20
    # interior points of the quadratic indifferent arc are indifferent
    fq = fixture_analyses["quadratic-repelling"][0]
    cls = reduce_at(fq, gauss_point(fq.ctx)).indifference_class
    assert cls in (ID_INDIFFERENT, MULT_INDIFFERENT)
    print(f"\n[criterion 4] PASS: structure of {seen} indifferent components "
          f"verified, multipliers reciprocal on {segments} segments and "
          f"{ends} classical ends, interior dichotomy holds")


def test_criterion_5_hyperbolic_structure(fixture_analyses, random_batch):
    """Hyperbolic components satisfy the vertex-degree congruence and hull
    property; no hyperbolic component occurs when p > degree."""
    n_hyp = 0
    for name, (f, a) in fixture_analyses.items():
        exp_hyp = fixture(name).expected.get("hyperbolic", False)
        hyp = [c for c in a.components if c.kind == fx.KIND_HYPERBOLIC]
        assert bool(hyp) == exp_hyp, name
        for c in hyp:
            n_hyp += 1
            assert fx.hyperbolic_checks(c), name
            # degree congruence, re-derived here: sum of local degrees of
            # the repelling vertices == (#vertices - 1) mod p
            degs = sum(deg for _, deg, _ in c.repelling_vertices)
            assert degs % f.ctx.p == (len(c.repelling_vertices) - 1) % f.ctx.p
            assert c.classical_multiplicity == 0, name
    assert n_hyp >= 8
    # randomized tame suite: p = 11 > degree, so never hyperbolic
    for f, a in random_batch:
        assert all(c.kind != fx.KIND_HYPERBOLIC for c in a.components), repr(f)
    rng = random.Random(7)
    for _, a in rng.sample(random_batch, 10):
        assert fx.theorem_b_check(a)
    print(f"\n[criterion 5] PASS: {n_hyp} hyperbolic components verified; "
          f"{len(random_batch)} tame random maps produced none")


def test_criterion_6_component_bounds(fixture_analyses, random_batch):
    """Component-count bounds and the connectedness criterion."""
    pool = [(f, a) for f, a in fixture_analyses.values() if f.degree >= 2]
    pool += random_batch
    for f, a in pool:
        d = f.degree
        non_classical = [c for c in a.components
                         if c.kind != fx.KIND_CLASSICAL]
        indiff = [c for c in non_classical
                  if c.kind == fx.KIND_INDIFFERENT]
        assert len(a.components) <= 2 * d, repr(f)
        assert len(non_classical) <= d - 1, repr(f)
        assert len(indiff) <= (d + 1) // 2, repr(f)
        # connectedness criterion, re-derived from the certificate: the
        # surplus sum over fixed vertices detects a single component
        sigma = sum(ld.local_degree - 1 - ld.n_cf
                    for c in a.components for _, ld in c.fixed_vertices
                    if ld.indifference_class != ID_INDIFFERENT)
        assert (sigma == d - 1) == (len(a.components) == 1), repr(f)
    # the public check agrees (it re-asserts the biconditional internally)
    for _, a in pool[:5] + random_batch[:5]:
        fx.connectedness_check(a)
    print(f"\n[criterion 6] PASS: bounds and connectedness criterion hold on "
          f"{len(pool)} analyzed maps")


def test_criterion_7_local_layer():
    """Direction-level identification, surplus balance, residue index
    formula, and the independent fixedness test."""
    rng = random.Random(31337)

    def random_map(p, dmax):
        while True:
            d = rng.randint(1, dmax)
            num = [rng.randint(-9, 9) for _ in range(d + 1)]
            den = [rng.randint(-9, 9) for _ in range(d + 1)]
            try:
                f = mk(p, num, den)
            except (ConstantMap, ZeroDenominator):
                continue
            if f.is_identity():
                continue
            return f

    # (a) identification check at every fixed skeleton vertex of maps fixing
    # the Gauss point with a non-identity tangent map
    ident_maps = 0
    while ident_maps < 30:
        p = rng.choice([3, 5])
        f = random_map(p, 3)
        gauss = gauss_point(f.ctx)
        local = reduce_at(f, gauss)
        if not local.is_fixed or local.indifference_class == ID_INDIFFERENT:
            continue
        assert fx.identification_check(fx.analyze(f, CONFIG)), repr(f)
        ident_maps += 1

    # (b) surplus balance: total surplus == degree - local degree
    surplus_maps = 0
    while surplus_maps < 40:
        f = random_map(rng.choice([3, 5, 7]), 4)
        local = reduce_at(f, gauss_point(f.ctx))
        if local.local_degree is None:
            continue
        assert local.surplus_total() == f.degree - local.local_degree
        surplus_maps += 1

    # (c) holomorphic index formula on random residue maps over F_7
    F7 = Fq(7)
    index_ok = index_skipped = 0
    while index_ok < 200:
        d = rng.randint(1, 4)
        num = poly(F7, [rng.randint(0, 6) for _ in range(d + 1)])
        den = poly(F7, [rng.randint(0, 6) for _ in range(d + 1)])
        try:
            m = FqRationalMap(F7, num, den)
            if m.is_constant() or m.is_identity():
                continue
            assert m.holomorphic_index_check()
            index_ok += 1
        except MultiplierOne:
            index_skipped += 1
        except BerklocusError:
            continue

    # (d) the two independent fixedness implementations agree
    pairs = 0
    while pairs < 2000:
        f = random_map(rng.choice([3, 5, 7]), 5)
        for _ in range(20):
            a = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 1, f.ctx.p]))
            s = Fraction(rng.randint(-2, 3))
            pt = TypeIIPoint(f.ctx.from_rational(a), s)
            assert brute_is_fixed(f, pt) == reduce_at(f, pt).is_fixed, \
                (repr(f), a, s)
            pairs += 1
    print(f"\n[criterion 7] PASS: identification ({ident_maps} maps), "
          f"surplus balance ({surplus_maps} maps), index formula "
          f"({index_ok} maps, {index_skipped} skipped), dual fixedness "
          f"({pairs} pairs)")


# ---------------------------------------------------------------------------
# Criterion 8: the property-based layer restates the same guarantees as
# searchable invariants rather than fixed examples.
# ---------------------------------------------------------------------------

small_rational = st.fractions(min_value=-6, max_value=6,
                              max_denominator=3)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3))
def _prop_weight_formula(seed, d):
    f = random_split_map(random.Random(seed), 7, d)
    a = fx.analyze(f, CONFIG)
    assert a.weight_total == f.degree - 1
    assert a.complete_rigorous
    assert len(a.components) <= 2 * f.degree


@settings(max_examples=40, deadline=None)
@given(a1=small_rational, b=small_rational,
       center=small_rational, s=st.integers(-3, 3))
def _prop_degree_one_membership(a1, b, center, s):
    assume(a1 != 0)
    assume(a1 != 1 or b != 0)
    f = mk(5, [b, a1], [1])
    assume(not f.is_identity())
    desc = classify_moebius(f)
    pt = TypeIIPoint(f.ctx.from_rational(center), Fraction(s))
    assert moebius_membership(desc, pt) == reduce_at(f, pt).is_fixed


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.integers(-9, 9), min_size=6, max_size=6),
       center=small_rational, s=st.integers(-2, 3))
def _prop_dual_fixedness(coeffs, center, s):
    try:
        f = mk(5, coeffs[:3], coeffs[3:])
    except (ConstantMap, ZeroDenominator):
        assume(False)
    pt = TypeIIPoint(f.ctx.from_rational(center), Fraction(s))
    assert brute_is_fixed(f, pt) == reduce_at(f, pt).is_fixed


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.integers(-9, 9), min_size=8, max_size=8))
def _prop_surplus_balance(coeffs):
    try:
        f = mk(7, coeffs[:4], coeffs[4:])
    except (ConstantMap, ZeroDenominator):
        assume(False)
    local = reduce_at(f, gauss_point(f.ctx))
    assume(local.local_degree is not None)
    assert local.surplus_total() == f.degree - local.local_degree


def test_criterion_8_property_layer():
    """Hypothesis re-derives the acceptance guarantees from scratch."""
    _prop_weight_formula()
    _prop_degree_one_membership()
    _prop_dual_fixedness()
    _prop_surplus_balance()
    print("\n[criterion 8] PASS: property layer (weight formula, degree-1 "
          "oracle, dual fixedness, surplus balance) found no counterexample")
