"""Global structure: classical fixed points, skeleton, components, weights,
and the structure checks, on the small fixtures."""

import ast
import copy
import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from berklocus import berkmap
from berklocus import fixlocus as fx
from berklocus import roots
from berklocus.berkmap import ADD_INDIFFERENT, ID_INDIFFERENT, \
    MULT_INDIFFERENT, REPELLING, TypeIIPoint, gauss_point
from berklocus.epoly import count_roots_in_disk, epoly, newton_polygon, \
    poly_shift, translate
from berklocus.errors import (
    CheckFailed,
    ClassicalComponent,
    IdentityMap,
    NoTotallyRamifiedFixedPoint,
    NotHyperbolic,
    NotIndifferent,
    PreconditionViolated,
)
from berklocus.field import INF, NEG_INF, PrimeContext
from berklocus.oracle import brute_is_fixed, classify_moebius, fixture, \
    fixtures
from berklocus.residue import Infinity, _CoordKernel, _trim, poly_deg, \
    poly_eval
from berklocus.roots import RootHandle, isolate_roots

from conftest import mk, random_wild_map, reciprocity_ends, \
    reciprocity_segments


def test_classical_fixed_points_multiplicities_sum():
    for name in ("power-2", "power-3", "quadratic-repelling",
                 "quadratic-doubled"):
        f = fixture(name).build()
        pts = fx.classical_fixed_points(f)
        assert sum(m for _, m in pts) == f.degree + 1
    # z^3 over Q_3 needs the quadratic residue extension for its direction
    # data; analyze() performs the retry
    a = fx.analyze(fixture("wild-p3-d3").build())
    assert sum(cp.multiplicity for cp in a.classical_points) == 4


def test_classical_fixed_points_identity_raises():
    f = mk(5, [0, 1], [1])
    with pytest.raises(IdentityMap):
        fx.classical_fixed_points(f)


def test_a_lost_fixed_point_fails_the_total(monkeypatch):
    """With one root of the fixed-point polynomial dropped by isolation,
    the multiplicities no longer add up to d + 1."""
    f = fixture("quadratic-repelling").build()
    monkeypatch.setattr(fx, "isolate_roots",
                        lambda ctx, g: isolate_roots(ctx, g)[1:])
    with pytest.raises(CheckFailed, match="classical fixed points total 2"):
        fx.classical_fixed_points(f)


@pytest.fixture
def recorded_attempts(monkeypatch):
    """The steps of each analysis attempt, in order: "classical" and
    "critical" for the two isolations, "lines" for each `_ray_lines_at`
    and "lead" for each `RootHandle.lead_of`, with the attempt's outcome
    last ("ok" or the exception's class name)."""
    attempts = []

    def recorded(name, fn):
        def wrapper(*a, **kw):
            attempts[-1].append(name)
            return fn(*a, **kw)
        return wrapper

    once = fx._analyze_once

    def attempt(f, config):
        attempts.append([])
        try:
            out = once(f, config)
        except Exception as e:
            attempts[-1].append(type(e).__name__)
            raise
        attempts[-1].append("ok")
        return out

    monkeypatch.setattr(fx, "_analyze_once", attempt)
    for attr, name in (("classical_fixed_points", "classical"),
                       ("_critical_point_handles", "critical"),
                       ("_ray_lines_at", "lines")):
        monkeypatch.setattr(fx, attr, recorded(name, getattr(fx, attr)))
    monkeypatch.setattr(RootHandle, "lead_of",
                        recorded("lead", RootHandle.lead_of))
    return attempts


def test_an_attempt_that_asks_for_an_extension_reads_no_line(
        recorded_attempts):
    """(z^2 + 6z) / (z^2 + 2z + 4) over Q_11 asks for the residue field
    F_121 at its first attempt; both isolations run, and no ray line is
    read, before the attempt is thrown away."""
    a = fx.analyze(mk(11, [0, 6, 1], [4, 2, 1]))
    assert a.map.ctx.k == 2
    failed, done = recorded_attempts
    assert failed == ["classical", "critical", "NeedsExtension"]
    assert done[:2] == ["classical", "critical"] and done[-1] == "ok"
    assert "lines" in done and "lead" in done


def test_the_classical_points_are_isolated_before_the_critical_ones(
        recorded_attempts):
    """Every attempt isolates the classical fixed points, then the critical
    points, and only then reads a ray line: the classical requests reach
    `in_tower` first, since granting a critical one first can push a later
    classical request past the budget."""
    config = fx.ExploreConfig(n_max=24, k_max=4)
    for name in ("quadratic-repelling", "wild-p3-d3", "segment-p5-d6"):
        fx.analyze(fixture(name).build(), config)
    fx.analyze(mk(11, [0, 6, 1], [4, 2, 1]), config)
    assert len(recorded_attempts) >= 5
    for steps in recorded_attempts:
        isolations = [s for s in steps if s in ("classical", "critical")]
        assert isolations in (["classical"], ["classical", "critical"])
        if "lines" in steps or steps[-1] == "ok":
            assert steps[:2] == ["classical", "critical"]


def test_classical_classification_quadratic(expected):
    f = fixture("quadratic-repelling").build()
    pts = [fx._leaf(f, value, m) for value, m in fx.classical_fixed_points(f)]
    by_val = {}
    for cp in pts:
        key = "inf" if cp.is_infinity() else repr(cp.value.center)
        by_val[key] = cp
    # derived multiplier table: 0 and oo indifferent, 4/3 repelling
    assert by_val["0"].klass == fx.INDIFFERENT
    assert by_val["inf"].klass == fx.INDIFFERENT
    assert by_val["4/3"].klass == fx.REPELLING_CLASS
    assert by_val["4/3"].multiplier_valuation == Fraction(-2)


def test_classical_multipliers_match_the_derived_tables(fixture_analyses,
                                                        expected):
    """The classical fixed points of each fixture with a `multipliers` table
    in scripts/expected_values.json (the quadratic ones, oo included) have
    the multiplicity, multiplier valuation and multiplier residue that
    scripts/derive_expected.py computes in rational arithmetic."""
    tables = {name: e["multipliers"] for name, e in expected.items()
              if "multipliers" in e}
    assert len(tables) >= 3
    for name, table in tables.items():
        a = fixture_analyses[name][1]
        ctx = a.map.ctx
        F = ctx.residue_field
        want = {}
        for row in table:
            if "multiplier" in row:  # a multiple point: multiplier 1
                assert row["multiplier"] == "1", name
                lam = (Fraction(0), F.one)
            elif row["multiplier_valuation"] == "inf":
                lam = (INF, None)
            else:
                res = row.get("multiplier_residue")
                lam = (Fraction(row["multiplier_valuation"]),
                       None if res is None else F.from_int(res))
            point = "inf" if row["point"] == "inf" else \
                ctx.from_rational(Fraction(row["point"]))
            want[point] = (row["multiplicity"], *lam)
        got = {}
        for cp in a.classical_points:
            assert cp.is_infinity() or cp.value.is_exact, name
            point = "inf" if cp.is_infinity() else cp.value.center
            got[point] = (cp.multiplicity, cp.multiplier_valuation,
                          cp.multiplier_residue)
        assert got == want, name


def test_analysis_power2_structure():
    f = fixture("power-2").build()
    a = fx.analyze(f)
    assert a.weight_total == 1
    assert a.complete_rigorous
    kinds = sorted(c.kind for c in a.components)
    assert kinds == [fx.KIND_CLASSICAL, fx.KIND_CLASSICAL, fx.KIND_PEAKED]
    peaked = next(c for c in a.components if c.kind == fx.KIND_PEAKED)
    assert peaked.classical_multiplicity == 1
    assert peaked.alpha == -1
    (pt, deg, ncf), = peaked.repelling_vertices
    assert pt.same_point(gauss_point(f.ctx)) and deg == 2 and ncf == 2


def test_analysis_wild_hyperbolic_singleton():
    f = fixture("wild-p3-d3").build()
    a = fx.analyze(f)
    assert a.weight_total == 2
    hyp = [c for c in a.components if c.kind == fx.KIND_HYPERBOLIC]
    assert len(hyp) == 1
    assert hyp[0].classical_multiplicity == 0
    assert fx.hyperbolic_checks(hyp[0])
    assert fx.theorem_a_count(hyp[0]) == 0


def test_analysis_quadratic_indifferent_component():
    f = fixture("quadratic-repelling").build()
    a = fx.analyze(f)
    ind = [c for c in a.components if c.kind == fx.KIND_INDIFFERENT]
    assert len(ind) == 1
    assert fx.indifferent_checks(ind[0])
    assert ind[0].classical_multiplicity == 2


def test_component_kind_errors():
    f = fixture("power-2").build()
    a = fx.analyze(f)
    classical = next(c for c in a.components if c.kind == fx.KIND_CLASSICAL)
    peaked = next(c for c in a.components if c.kind == fx.KIND_PEAKED)
    with pytest.raises(ClassicalComponent):
        fx.theorem_a_count(classical)
    with pytest.raises(NotHyperbolic):
        fx.hyperbolic_checks(peaked)
    with pytest.raises(NotIndifferent):
        fx.indifferent_checks(peaked)


def test_connectedness_criterion_matches_component_count():
    # z^2 over Q_5 has three components, and the criterion agrees
    assert fx.connectedness_check(fx.analyze(fixture("power-2").build())) \
        is False
    # the doubled quadratic branch is connected
    assert fx.connectedness_check(
        fx.analyze(fixture("quadratic-doubled").build())) is True


@pytest.mark.parametrize("check", [fx.connectedness_check,
                                   fx.totally_ramified_corollary_check],
                         ids=lambda c: c.__name__)
def test_degree_two_checks_refuse_a_moebius_map(check):
    """The closed-form oracle classifies the degree-1 translation fixture,
    and the checks that need degree >= 2 refuse its analysis."""
    fix = fixture("moebius-translation")
    f = fix.build()
    assert f.degree == fix.expected["degree"] == 1
    assert classify_moebius(f).case == fix.expected["case"]
    with pytest.raises(PreconditionViolated, match="degree >= 2 required"):
        check(fx.analyze(f))


def test_weight_formula_on_segment_fixture():
    a = fx.analyze(fixture("segment-p3-d4").build())
    assert a.weight_total == a.map.degree - 1 == 3
    assert sum(cp.weight for cp in a.crucial_points) == a.weight_total
    assert all(cp.weight > 0 for cp in a.crucial_points)


def test_segment_fixture_two_repelling_vertices():
    f = fixture("segment-p3-d4").build()
    a = fx.analyze(f)
    hyp = [c for c in a.components if c.kind == fx.KIND_HYPERBOLIC]
    assert len(hyp) == 1
    assert len(hyp[0].repelling_vertices) == 2
    assert fx.hyperbolic_checks(hyp[0])


def test_theorem_b_small_degree_large_p():
    assert fx.theorem_b_check(fx.analyze(mk(11, [0, 0, 1], [1])))
    with pytest.raises(PreconditionViolated):
        fx.theorem_b_check(fx.analyze(mk(3, [0, 0, 0, 1], [1])))


def test_totally_ramified_corollary():
    # z^2 is a polynomial, oo is totally ramified: no indifferent components
    assert fx.totally_ramified_corollary_check(
        fx.analyze(fixture("power-2").build()))
    a = fx.analyze(fixture("quadratic-indifferent").build())
    with pytest.raises(NoTotallyRamifiedFixedPoint):
        fx.totally_ramified_corollary_check(a)


def test_totally_ramified_finite_fixed_point():
    # z^2/(1 + z) over Q_5: oo is a simple fixed point of a non-polynomial,
    # and 0 is fixed with local degree 2, read off the ray lines into it
    f = mk(5, [0, 0, 1], [1, 1])
    a = fx.analyze(f)
    point = fx.totally_ramified_fixed_point(a)
    assert point.value.center == f.ctx.zero
    assert fx.totally_ramified_corollary_check(a)


def test_totally_ramified_reads_the_skeleton_expansion(monkeypatch):
    """The local degree is read off the lines each leaf was built from, so
    the check shifts nothing again."""
    maps = [mk(5, [0, 0, 1], [1, 1])]
    maps += [fixture(name).build() for name in (
        "moebius-inversion", "quadratic-repelling", "quadratic-indifferent",
        "segment-p5-d6")]
    config = fx.ExploreConfig(n_max=24, k_max=4)
    analyses = [fx.analyze(f, config) for f in maps]
    exact = sum(not cp.is_infinity() and cp.value.is_exact
                for a in analyses for cp in a.classical_points)
    assert exact >= 5

    def shift(*args):
        raise AssertionError("the expansion was computed again")
    monkeypatch.setattr(roots, "poly_shift", shift)
    points = [fx.totally_ramified_fixed_point(a) for a in analyses]
    assert points[0].value.center == maps[0].ctx.zero


def test_totally_ramified_inexact_fixed_point():
    """Newton's map for sqrt(2) over Q_7, (z^2 + 2)/(2z): its finite fixed
    points +-sqrt(2) are irrational, so their handles stay inexact, and at
    each f(w + t) - w = t^2 / (2(w + t)) has order 2 = d, the least i of an
    ("n", i) line.  The leaf found is the root = 235 mod 7^4
    (235^2 = 2 + 23 * 7^4)."""
    f = mk(7, [2, 0, 1], [0, 2])
    a = fx.analyze(f)
    assert [c.kind for c in a.components] == [
        fx.KIND_CLASSICAL, fx.KIND_CLASSICAL, fx.KIND_PEAKED]
    leaf = fx.totally_ramified_fixed_point(a)
    assert not leaf.is_infinity() and not leaf.value.is_exact
    assert leaf.value.distance_to_point(f.ctx.from_rational(235)) >= 4
    assert fx.totally_ramified_corollary_check(a)


def test_an_attempt_asks_each_root_query_once(monkeypatch):
    """Every A_i and DS_i at a root is asked of `RootHandle.lead_of` once
    per attempt: the leaf's multiplier and local degree and the skeleton's
    rays all read the lines the leaf was built from.  A handle belongs to
    one attempt, so (handle, i, which) names a query within its attempt."""
    asked = []
    lead_of = RootHandle.lead_of

    def recorded(self, expand, build):
        asked.append((self, *expand.args[2:]))  # (f, h, i, which)
        return lead_of(self, expand, build)

    monkeypatch.setattr(RootHandle, "lead_of", recorded)
    config = fx.ExploreConfig(n_max=24, k_max=4)
    for fxt in fixtures():
        if fxt.name != "moebius-identity":
            fx.analyze(fxt.build(), config)
    assert any(h.is_exact for h, _, _ in asked)
    assert any(not h.is_exact for h, _, _ in asked)
    assert len(set(asked)) == len(asked)


def test_a_multiple_point_off_multiplier_one_fails(fixture_analyses,
                                                   monkeypatch):
    """At quadratic-doubled's doubled fixed point A_1(w) = DS_0(w), so the
    lines ("n", 1) and ("d", 0) give the multiplier 1; with the residue of
    ("n", 1) altered they do not, and the leaf is refused."""
    f, a = fixture_analyses["quadratic-doubled"]
    cp = next(cp for cp in a.classical_points if cp.multiplicity == 2)
    one = cp.multiplier_residue.field.one
    assert (cp.multiplier_valuation, cp.multiplier_residue) == (0, one)
    lines = [(m, b, key, res + one if key == ("n", 1) else res)
             for m, b, key, res in cp.lines]
    monkeypatch.setattr(fx, "_ray_lines_at", lambda f, h: lines)
    with pytest.raises(CheckFailed, match="multiplicity 2"):
        fx._leaf(f, cp.value, cp.multiplicity)


def test_identification_check_fails_on_a_tampered_surplus():
    """One more cancelled factor in one direction of one fixed vertex, in a
    copy of the analysis, breaks that direction's count."""
    a = fx.analyze(fixture("segment-p5-d6").build(),
                   fx.ExploreConfig(n_max=24, k_max=4))
    assert fx.identification_check(a)
    vertex_points = list(a.skeleton.vertex_points)
    cid, (pt, local) = next(
        (i, v) for i, v in enumerate(vertex_points)
        if v[1].is_fixed and v[1].indifference_class != ID_INDIFFERENT)
    surplus = dict(local.surplus)
    surplus[("inf",)] = surplus.get(("inf",), 0) + 1
    vertex_points[cid] = (pt, dataclasses.replace(local, surplus=surplus))
    tampered = dataclasses.replace(a, skeleton=dataclasses.replace(
        a.skeleton, vertex_points=vertex_points))
    assert not fx.identification_check(tampered)
    assert fx.identification_check(a)


def test_multiplier_reciprocity_fails_on_a_tampered_multiplier(
        shared_point_analyses):
    """Replacing the infinity-direction multiplier at the deeper end of a
    checked segment, in a copy of the analysis, breaks the product."""
    a = shared_point_analyses["segment-p5-d6"]
    assert fx.multiplier_reciprocity_check(a)
    vertex_points = list(a.skeleton.vertex_points)
    for ray, seg in reciprocity_segments(a):
        cid = next(bp.cid for bp in ray.breakpoints if bp.s == seg.s_hi)
        pt, local = vertex_points[cid]
        if local.directions:  # not id-indifferent
            break
    directions = [dataclasses.replace(t, multiplier=t.multiplier + t.field.one)
                  if isinstance(t.location, Infinity) else t
                  for t in local.directions]
    vertex_points[cid] = (pt, dataclasses.replace(local,
                                                  directions=directions))
    tampered = dataclasses.replace(a, skeleton=dataclasses.replace(
        a.skeleton, vertex_points=vertex_points))
    assert not fx.multiplier_reciprocity_check(tampered)
    assert fx.multiplier_reciprocity_check(a)


def test_multiplier_reciprocity_fails_on_a_tampered_classical_end():
    """On z -> 2z over Q_5 the one skeleton segment runs from infinity to
    the fixed point 0: doubling either leaf's multiplier residue, in a copy
    of the analysis, breaks its end."""
    a = fx.analyze(fixture("moebius-scaling-unit-nontrivial").build())
    assert len(reciprocity_ends(a)) == 2
    assert fx.multiplier_reciprocity_check(a)
    for i, cp in enumerate(a.skeleton.leaves):
        leaves = list(a.skeleton.leaves)
        leaves[i] = dataclasses.replace(
            cp, multiplier_residue=cp.multiplier_residue.field.from_int(2) *
            cp.multiplier_residue)
        tampered = dataclasses.replace(a, skeleton=dataclasses.replace(
            a.skeleton, leaves=leaves))
        assert not fx.multiplier_reciprocity_check(tampered), cp.describe()
    assert fx.multiplier_reciprocity_check(a)


def test_multiplier_reciprocity_raises_on_a_tampered_segment_or_direction(
        shared_point_analyses):
    """In copies of the analysis: a checked segment whose multiplier is not
    the one its shallower end faces it with, and a deeper end whose
    infinity direction is no longer fixed, each raise CheckFailed."""
    a = shared_point_analyses["segment-p5-d6"]
    ray, seg = reciprocity_segments(a)[0]
    segments = [dataclasses.replace(x, multiplier=x.multiplier +
                                    x.multiplier.field.one) if x is seg else x
                for x in ray.segments]
    rays = [dataclasses.replace(r, segments=segments) if r is ray else r
            for r in a.skeleton.rays]
    with pytest.raises(CheckFailed, match="differs from the segment's"):
        fx.multiplier_reciprocity_check(dataclasses.replace(
            a, skeleton=dataclasses.replace(a.skeleton, rays=rays)))
    cid = next(bp.cid for bp in ray.breakpoints if bp.s == seg.s_hi)
    vertex_points = list(a.skeleton.vertex_points)
    pt, local = vertex_points[cid]
    vertex_points[cid] = (pt, dataclasses.replace(local, directions=[
        t for t in local.directions if not isinstance(t.location, Infinity)]))
    tampered = dataclasses.replace(a, skeleton=dataclasses.replace(
        a.skeleton, vertex_points=vertex_points))
    with pytest.raises(CheckFailed, match="is not fixed"):
        fx.multiplier_reciprocity_check(tampered)
    assert fx.multiplier_reciprocity_check(a)


def test_hyperbolic_checks_fail_on_tampered_components(
        shared_point_analyses):
    """The hyperbolic component of segment-p5-d6 (repelling vertices of
    degrees 4 and 2 joined through a multiplicatively indifferent vertex)
    passes; each copy with one fact changed fails: a degree off the
    congruence, a graph leaf that is not repelling, an id- or additively
    indifferent vertex inside, an id-indifferent arc."""
    (c,) = [c for c in shared_point_analyses["segment-p5-d6"].components
            if c.kind == fx.KIND_HYPERBOLIC]
    assert fx.hyperbolic_checks(c)
    (pt, deg, ncf), rest = c.repelling_vertices[0], c.repelling_vertices[1:]
    inner = next(b for b, cls in c.bp_class.items() if cls != REPELLING)
    outer = next(b for b, cls in c.bp_class.items() if cls == REPELLING)
    assert len(c.atom_adj[inner]) == 2 and len(c.atom_adj[outer]) == 1
    tampered = [
        dataclasses.replace(c, repelling_vertices=[(pt, deg + 1, ncf)] + rest),
        dataclasses.replace(c, bp_class={**c.bp_class,
                                         outer: MULT_INDIFFERENT}),
        dataclasses.replace(c, bp_class={**c.bp_class, inner: ID_INDIFFERENT}),
        dataclasses.replace(c, bp_class={**c.bp_class,
                                         inner: ADD_INDIFFERENT}),
        dataclasses.replace(c, arcs=[dataclasses.replace(
            c.arcs[0], behavior=ID_INDIFFERENT)] + c.arcs[1:])]
    assert [fx.hyperbolic_checks(t) for t in tampered] == [False] * 5


def test_theorem_b_check_fails_on_a_tampered_component():
    """p = 5 > d = 2 and no hyperbolic component: a copy in which one
    component is called hyperbolic fails."""
    a = fx.analyze(fixture("quadratic-repelling").build())
    assert fx.theorem_b_check(a)
    components = [dataclasses.replace(a.components[0],
                                      kind=fx.KIND_HYPERBOLIC)]
    assert not fx.theorem_b_check(
        dataclasses.replace(a, components=components + a.components[1:]))


def test_indifferent_checks_fail_on_tampered_components():
    """The indifferent components of three Moebius maps over Q_5 pass; each
    copy with one fact changed fails.  z -> 2z (multipliers 2 and 3 at 0
    and oo, one multiplicatively indifferent arc): a classical point
    dropped, a multiplier off the product 1, an id-indifferent arc, no arc
    at all.  z -> 6z (multipliers
    1): a multiplicatively indifferent arc.  z -> z + 1 (oo doubled): a
    multiplicatively indifferent arc."""
    def component(name):
        (c,) = fx.analyze(fixture(name).build()).components
        assert c.kind == fx.KIND_INDIFFERENT and fx.indifferent_checks(c)
        return c

    def with_arc(c, behavior):
        return dataclasses.replace(c, arcs=[dataclasses.replace(
            c.arcs[0], behavior=behavior)])
    scaling = component("moebius-scaling-unit-nontrivial")
    cp = scaling.classical_points[0]
    doubled = dataclasses.replace(
        cp, multiplier_residue=cp.multiplier_residue.field.from_int(2) *
        cp.multiplier_residue)
    tampered = [
        dataclasses.replace(scaling,
                            classical_points=scaling.classical_points[1:]),
        dataclasses.replace(scaling, classical_points=[doubled] +
                            scaling.classical_points[1:]),
        with_arc(scaling, ID_INDIFFERENT),
        dataclasses.replace(scaling, arcs=[]),
        with_arc(component("moebius-scaling-unit-trivial"), MULT_INDIFFERENT),
        with_arc(component("moebius-translation"), MULT_INDIFFERENT)]
    assert [fx.indifferent_checks(t) for t in tampered] == [False] * 6


def test_alpha_sum_check_fixtures():
    for name in ("power-2", "power-3", "wild-p3-d3", "quadratic-repelling",
                 "segment-p3-d4"):
        assert fx.alpha_sum_check(fx.analyze(fixture(name).build())), name


def test_gamma_fix_contains_classical_points():
    f = fixture("power-3").build()
    skel = fx.gamma_fix(f, fx.ExploreConfig())
    assert sum(cp.multiplicity for cp in skel.leaves) == f.degree + 1
    assert any(cp.is_infinity() for cp in skel.leaves)


def test_analysis_retries_with_extension():
    # fixed points at valuation 1/2 force a ramified extension during analysis
    f = mk(5, [-5, 0, 2], [0, 1])  # fixed-point polynomial z^2 - 5
    a = fx.analyze(f)
    assert a.map.ctx.n >= 2
    assert a.weight_total == f.degree - 1


def test_analysis_retries_with_a_large_residue_extension():
    # z^2 + 1 has good reduction over Q_1031, and its fixed-point polynomial
    # z^2 - z + 1 is irreducible mod 1031 (-3 is a non-residue), so the
    # directions at the Gauss point need GF(1031^2), a field of more than
    # a million elements
    f = mk(1031, [1, 0, 1], [1])
    a = fx.analyze(f, fx.ExploreConfig(k_max=2))
    assert (a.map.ctx.n, a.map.ctx.k) == (1, 2)
    # a field above TABLE_MAX_ORDER keeps the convolution, with no tables
    assert type(a.map.ctx.residue_field.kernel) is _CoordKernel
    assert a.complete_rigorous
    assert a.weight_total == f.degree - 1


def test_analysis_with_three_nonlinear_rational_factors():
    # the fixed-point polynomial (z^2 + 1)(z^2 - 3)(z^2 + z + 1) has three
    # nonlinear irreducible factors over Q; the rational split keeps their
    # product whole, and its roots are isolated as one polynomial: the first
    # two factors need GF(49), the third splits over Q_7
    P = [-3, -3, -5, -2, -1, 1, 1]
    f = mk(7, [-c + (i == 1) for i, c in enumerate(P)], [1])
    ctx = f.ctx
    (whole,) = roots._rational_split(ctx, epoly(ctx, P))
    assert whole == epoly(ctx, P)
    a = fx.analyze(f, fx.ExploreConfig(n_max=24, k_max=4))
    assert (a.map.ctx.n, a.map.ctx.k) == (1, 2)
    assert a.complete_rigorous
    assert a.weight_total == f.degree - 1
    assert len(a.components) == 5
    for pt, local in a.skeleton.vertex_points:
        assert brute_is_fixed(a.map, pt) == local.is_fixed, pt


def test_analysis_where_a_refinement_lands_on_a_fixed_point():
    """(-8/3 - z^2)/(z - 4) over Q_3 has the fixed points 1 +- x*pi/3 of
    E(3, 2, 2), and the multiplier query at the handle of 1 + x*pi/3
    refines it onto the root exactly.  The analysis certifies there, and
    every vertex agrees with the brute-force oracle."""
    for config in (fx.ExploreConfig(), fx.ExploreConfig(n_max=24, k_max=4)):
        a = fx.analyze(mk(3, [Fraction(-8, 3), 0, -1], [-4, 1]), config)
        assert (a.map.ctx.n, a.map.ctx.k) == (2, 2)
        assert a.complete_rigorous and a.weight_total == 1
        assert any(not cp.is_infinity() and cp.value.is_exact
                   for cp in a.classical_points)
        for pt, local in a.skeleton.vertex_points:
            assert brute_is_fixed(a.map, pt) == local.is_fixed, pt


def test_fixedness_meets_a_bare_breakpoint():
    """On (6 - 2z + 4z^2 - 7z^3)/(5/3 + z + 8z^2) over Q_3 at budget
    (6, 2), in E(3, 1, 2), one ray has an id-indifferent segment on
    (-1, -1/2) and a not-fixed one on (-1/2, -1/3): they meet at a bare
    breakpoint, a radius outside the value group with no reduction, where
    the assembly links the two segments.  Each segment's behavior agrees
    with the brute-force oracle at an interior radius, in a tower that
    holds it; only the fixed one joins a component.  (In 50,980 random
    maps no bare breakpoint had fixed segments on both sides.)"""
    a = fx.analyze(mk(3, [6, -2, 4, -7], [Fraction(5, 3), 1, 8]),
                   fx.ExploreConfig(n_max=6, k_max=2))
    ctx = a.map.ctx
    assert (ctx.n, ctx.k) == (1, 2)
    ray = next(r for r in a.skeleton.rays
               if any(bp.cid is None and bp.s == Fraction(-1, 2)
                      for bp in r.breakpoints))
    fixed, loose = ray.segments
    assert (fixed.s_lo, fixed.s_hi, fixed.behavior) == \
        (-1, Fraction(-1, 2), ID_INDIFFERENT)
    assert (loose.s_lo, loose.s_hi, loose.behavior) == \
        (Fraction(-1, 2), Fraction(-1, 3), berkmap.NOT_FIXED)
    for seg, s in ((fixed, Fraction(-3, 4)), (loose, Fraction(-2, 5))):
        big = PrimeContext(3, s.denominator, 2)
        pt = TypeIIPoint(big.embed(seg.center), s)
        assert brute_is_fixed(berkmap.embed_map(a.map, big), pt) == \
            (seg is fixed)
    arcs = [arc for c in a.components for arc in c.arcs]
    assert any(arc is fixed for arc in arcs)
    assert not any(arc is loose for arc in arcs)


def test_one_reduction_per_skeleton_point(shared_point_analyses, monkeypatch):
    calls = []
    reduce_at = fx.reduce_at

    def counting(f, x):
        calls.append(x)
        return reduce_at(f, x)
    monkeypatch.setattr(fx, "reduce_at", counting)
    for name, a in shared_point_analyses.items():
        calls.clear()
        sk = fx.gamma_fix(a.map, fx.ExploreConfig(n_max=24, k_max=4))
        shared = sum(bp.cid is not None for ray in sk.rays
                     for bp in ray.breakpoints)
        assert shared > len(sk.vertex_points), name  # rays do share points
        assert len(calls) == len(sk.vertex_points), name
        for i, (pt, _) in enumerate(sk.vertex_points):
            assert not any(pt.same_point(q) for q, _ in sk.vertex_points[:i])


def test_ray_lines_once_per_anchor(fixture_analyses, monkeypatch):
    """`gamma_fix` reads the ray lines of each distinct anchor (a handle, a
    cluster stub or an element) once, however many rays start there."""
    calls = []
    ray_lines_at = fx._ray_lines_at

    def counting(f, anchor):
        calls.append(anchor)
        return ray_lines_at(f, anchor)
    monkeypatch.setattr(fx, "_ray_lines_at", counting)
    config = fx.ExploreConfig(n_max=24, k_max=4)
    shared = 0
    for name, (_, a) in fixture_analyses.items():
        calls.clear()
        sk = fx.gamma_fix(a.map, config)
        anchors = {id(ray.anchor) for ray in sk.rays}
        assert sorted(map(id, calls)) == sorted(anchors), name
        shared += len(sk.rays) > len(anchors)
    assert shared  # some anchor starts more than one ray


def test_breakpoints_hold_the_canonical_reduction(shared_point_analyses):
    for name, a in shared_point_analyses.items():
        sk = a.skeleton
        for ray in sk.rays:
            for bp in ray.breakpoints:
                if bp.cid is None:
                    assert (bp.s * a.map.ctx.n).denominator != 1, name
                    continue
                pt, local = sk.vertex_points[bp.cid]
                assert local.point is pt, name
                here = TypeIIPoint(ray.segments[0].center, bp.s)
                assert pt.same_point(here), name


def test_join_tree_ray_order():
    # anchors 0, 1 join at 5 and 2, 3 at 4; the two pairs join at 1
    dist = {(0, 1): Fraction(5), (0, 2): Fraction(1), (0, 3): Fraction(1),
            (1, 2): Fraction(1), (1, 3): Fraction(1), (2, 3): Fraction(4)}
    anchors = [(f"a{i}", i) for i in range(4)]
    rays = []
    fx._emit_join_tree(rays, anchors, dist, [0, 1, 2, 3], NEG_INF,
                       to_infinity=True)
    got = [(r.ray_id, r.anchor, r.s_lo, r.s_hi, r.leaf_idx, r.to_infinity)
           for r in rays]
    assert got == [(0, "a0", 1, 5, None, False), (1, "a0", 5, INF, 0, False),
                   (2, "a1", 5, INF, 1, False), (3, "a2", 1, 4, None, False),
                   (4, "a2", 4, INF, 2, False), (5, "a3", 4, INF, 3, False),
                   (6, "a0", NEG_INF, 1, None, True)]


def test_join_tree_rejects_a_non_ultrametric_distance():
    # d(0, 1) = 2 and d(1, 2) = 3 exceed d(0, 2) = 1: no ultrametric has that
    dist = {(0, 1): Fraction(2), (0, 2): Fraction(1), (1, 2): Fraction(3)}
    anchors = [(f"a{i}", i) for i in range(3)]
    with pytest.raises(CheckFailed):
        fx._emit_join_tree([], anchors, dist, [0, 1, 2], NEG_INF,
                           to_infinity=True)


def test_theorem_a_count_fails_on_doctored_component():
    a = fx.analyze(fixture("power-2").build())
    peaked = next(c for c in a.components if c.kind == fx.KIND_PEAKED)
    assert fx.theorem_a_count(peaked) == peaked.classical_multiplicity
    with pytest.raises(CheckFailed):
        fx.theorem_a_count(dataclasses.replace(peaked, alpha=peaked.alpha + 1))


def test_theorem_a_count_fails_under_optimize():
    code = (
        "import dataclasses\n"
        "from berklocus import fixlocus as fx\n"
        "from berklocus.errors import CheckFailed\n"
        "from berklocus.oracle import fixture\n"
        "assert False, 'asserts must be off'\n"
        "a = fx.analyze(fixture('power-2').build())\n"
        "c = next(c for c in a.components if c.kind == fx.KIND_PEAKED)\n"
        "try:\n"
        "    fx.theorem_a_count(dataclasses.replace(c, alpha=c.alpha + 1))\n"
        "except CheckFailed:\n"
        "    print('FAIL reported')\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "FAIL reported"


# -- one expansion per root center -------------------------------------------

@pytest.fixture(scope="module")
def certified_maps():
    """wild-p3-d4, wild-p3-d6 and the first 10 maps of the wild draw of
    tests/test_wild.py, each over the tower that certifies it."""
    maps = [fixture(name).build() for name in ("wild-p3-d4", "wild-p3-d6")]
    rng = random.Random(2026)
    maps += [random_wild_map(rng) for _ in range(10)]
    config = fx.ExploreConfig(n_max=24, k_max=4)
    return [fx.analyze(f, config).map for f in maps]


def _tail_lines_reference(f, h):
    """The ray lines at a handle with each coefficient polynomial built on
    its own, A_i = NS_i - w*DS_i and DS_i, and shifted by `lead_at`."""
    ctx = f.ctx
    num, den = f.num, f.den
    dn, dd = poly_deg(num), poly_deg(den)
    lines = []
    for i in range(max(dn, dd) + 1):
        ns = _trim([num[j] * ctx.from_rational(math.comb(j, i))
                    for j in range(i, dn + 1)])
        ds = _trim([den[j] * ctx.from_rational(math.comb(j, i))
                    for j in range(i, dd + 1)])
        ai = ctx.ring.sub(ns, ctx.ring.mul([ctx.zero, ctx.one], ds))
        for slope, key, q in ((Fraction(i), ("n", i), ai),
                              (Fraction(i + 1), ("d", i), ds)):
            lead = h.lead_at(q)
            if lead is not None:
                lines.append((slope, lead[0], key, lead[1]))
    return lines


def _multiplier_reference(h, N, D):
    lead_n = h.lead_at(N)
    if lead_n is None:
        return INF, None
    lead_d = h.lead_at(D)
    v = lead_n[0] - lead_d[0]
    return v, (lead_n[1] / lead_d[1] if v == 0 else None)


def _summed(ctx, coeffs):
    """A polynomial from `RootHandle.lead_of` parts: coefficient j is the
    sum of m*x over the parts (m, x) of coeffs[j]."""
    out = []
    for parts in coeffs:
        total = ctx.zero
        for m, x in parts:
            total = total + x * ctx.from_rational(m)
        out.append(total)
    return _trim(out)


def test_one_expansion_matches_a_shift_per_polynomial(certified_maps):
    checked = 0
    for f in certified_maps:
        ctx = f.ctx
        # the quotient rule's f' = N / D, the multiplier's reference
        N, D = f.derivative_numerator(), ctx.ring.mul(f.den, f.den)
        for g, m in ctx.ring.squarefree(f.fixed_point_polynomial()):
            for h in isolate_roots(ctx, g):
                if h.is_exact:
                    continue
                checked += 1
                # every expansion read off the handle's one shift is the
                # shift of its own polynomial
                c = h.center
                for i in range(f.degree + 1):
                    for which in (0, 1):
                        q = fx._tail_poly(f, i, which)
                        if q:
                            # poly_shift returns q itself at c = 0
                            assert _summed(ctx, fx._tail_expansion(
                                f, h, i, which)) == \
                                tuple(poly_shift(ctx, q, c))
                fast, ref = copy.copy(h), copy.copy(h)
                lines = fx._tail_lines(f, fast)
                assert lines and lines == _tail_lines_reference(f, ref)
                # the same refinements, down to the same center
                assert (fast.center, fast.prec) == (ref.center, ref.prec)
                # the leaf is built off those lines, and its multiplier
                # is the quotient rule's
                cp = fx._leaf(f, fast, m)
                assert cp.lines == lines
                assert (cp.multiplier_valuation, cp.multiplier_residue) == \
                    _multiplier_reference(copy.copy(h), N, D)
    assert checked >= 10


def test_isolation_matches_a_shift_per_query(certified_maps, monkeypatch):
    """Isolation shifts g once per center: one shift and its root
    valuations serve the root count, the initial precision and the next
    level, so no (g, center) pair is shifted twice in one isolation.  Each
    inexact anchor's closed disk holds its one root, and g vanishes at each
    exact anchor."""
    config = fx.ExploreConfig(n_max=24, k_max=4)
    shift = roots.poly_shift
    shifts = []

    def recording(ctx, f, c):
        shifts.append((f, c))
        return shift(ctx, f, c)

    monkeypatch.setattr(roots, "poly_shift", recording)
    handles = []
    for f in certified_maps:
        ctx = f.ctx
        calls = [lambda g=g: isolate_roots(ctx, g) for g, _ in
                 ctx.ring.squarefree(f.fixed_point_polynomial())]
        calls.append(lambda: fx._critical_point_handles(f, config))
        for call in calls:
            shifts.clear()
            anchors = call()
            assert len(set(shifts)) == len(shifts)
            handles += [(ctx, h) for h in anchors
                        if isinstance(h, RootHandle)]
    assert sum(not h.is_exact for _, h in handles) >= 10
    for ctx, h in handles:
        if h.is_exact:
            assert poly_eval(ctx, h.g, h.center).is_zero()
        else:
            vals = newton_polygon(ctx, shift(ctx, h.g, h.center))
            assert count_roots_in_disk(vals, h.prec, "closed") == 1


def test_ray_lines_at_an_exact_handle_match_its_expansion(fixture_analyses):
    """At the exact classical handles of the tame fixtures (p > degree),
    `_ray_lines_at` reads through the handle the lines that
    `berkmap._expansion_lines` reads off the map translated to the root."""
    checked = 0
    for _, a in fixture_analyses.values():
        g = a.map
        if g.ctx.p <= g.degree:
            continue
        for cp in a.classical_points:
            if cp.is_infinity() or not cp.value.is_exact:
                continue
            b, e = translate(g.ctx, g.num, g.den, cp.value.center)
            assert set(fx._ray_lines_at(g, cp.value)) == \
                set(berkmap._expansion_lines(e, b))
            checked += 1
    assert checked >= 10


# -- where the pipeline runs -------------------------------------------------

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "berklocus")
# what re-runs the pipeline, reduces afresh or grows the working field
PIPELINE = {"reduce_at", "analyze", "gamma_fix", "_annotate_ray",
            "conjugate_affine", "embed_map", "extend", "PrimeContext",
            "count_roots_in_disk"}


def _called_names(node):
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def _functions(tree):
    """(qualified name, node) of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_theorem_checks_read_the_analysis_and_only_analyze_grows_the_field():
    """No function in the "Theorem checks" section of fixlocus runs any part
    of the pipeline, and `.extend(` and `embed_map(` are called only inside
    `fixlocus.in_tower`, which `analyze` runs the pipeline through."""
    with open(os.path.join(PACKAGE, "fixlocus.py")) as fh:
        source = fh.read()
    section = source[:source.index("# Theorem checks")].count("\n") + 1
    checks = [(name, sorted(PIPELINE.intersection(_called_names(node))))
              for name, node in _functions(ast.parse(source))
              if node.lineno > section]
    assert len(checks) >= 10
    assert [(name, found) for name, found in checks if found] == []
    growers = set()
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module)) as fh:
                tree = ast.parse(fh.read(), module)
            growers |= {f"{module[:-3]}.{name}"
                        for name, node in _functions(tree)
                        if {"extend", "embed_map"} & set(_called_names(node))}
            body = [n for n in tree.body
                    if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
            assert not any({"extend", "embed_map"} & set(_called_names(n))
                           for n in body), module
    assert growers == {"fixlocus.in_tower"}


def test_ray_ends_are_read_only_through_ray_stops():
    """A ray's `leaf_idx` and `to_infinity` are read only in
    `fixlocus.ray_stops`, the one reading of a ray's ends, and rays are
    built only where the join tree builds them (`_emit_join_tree`, and
    `gamma_fix` when there is no finite anchor).  The ray lines of a center
    come from `epoly.translate`: `berkmap._ray_lines` is gone."""
    readers, builders = set(), set()
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, module)) as fh:
            tree = ast.parse(fh.read(), module)
        units = list(_functions(tree)) + [
            ("<module>", n) for n in tree.body
            if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        for name, node in units:
            if any(isinstance(n, ast.Attribute) and
                   n.attr in ("leaf_idx", "to_infinity")
                   for n in ast.walk(node)):
                readers.add(f"{module[:-3]}.{name}")
            if "ScaffoldRay" in _called_names(node):
                builders.add(f"{module[:-3]}.{name}")
    assert readers == {"fixlocus.ray_stops"}
    assert builders == {"fixlocus._emit_join_tree", "fixlocus.gamma_fix"}
    assert not hasattr(berkmap, "_ray_lines")


def test_only_residue_field_chooses_a_working_modulus_and_its_kernel():
    """`residue.residue_field` is the one builder of working residue fields:
    no other function, method or module body in the package calls
    `find_irreducible` or builds a `_TableKernel`."""
    callers = set()
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, module)) as fh:
            tree = ast.parse(fh.read(), module)
        units = list(_functions(tree)) + [
            ("<module>", n) for n in tree.body
            if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        for name, node in units:
            if {"find_irreducible", "_TableKernel"} & set(_called_names(node)):
                callers.add(f"{module[:-3]}.{name}")
    assert callers == {"residue.residue_field"}


def test_analyze_runs_each_attempt_through_the_module_attribute(monkeypatch):
    """`analyze` looks `_analyze_once` up per call, so a wrapper patched
    onto the module attribute sees every attempt, retries included."""
    attempts = []
    once = fx._analyze_once

    def counted(f, config):
        attempts.append((f.ctx.n, f.ctx.k))
        return once(f, config)
    monkeypatch.setattr(fx, "_analyze_once", counted)
    # (2z^2 - 5)/z over Q_5 fixes the square roots of 5, and its tower
    # grows twice
    a = fx.analyze(mk(5, [-5, 0, 2], [0, 1]))
    assert attempts == [(1, 1), (2, 1), (2, 2)]
    assert (a.map.ctx.n, a.map.ctx.k) == (2, 2)


def _value_group_casts(tree):
    """The line numbers of `(... ctx.n ...).denominator` and
    `int(... ctx.n ...)`: a product with ctx.n tested or cast by hand."""
    def on_n(node):
        return any(isinstance(x, ast.Attribute) and x.attr == "n" and
                   (isinstance(x.value, ast.Name) and x.value.id == "ctx" or
                    isinstance(x.value, ast.Attribute) and
                    x.value.attr == "ctx")
                   for x in ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "denominator" \
                and isinstance(node.value, ast.BinOp) and on_n(node.value):
            yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "int" and node.args \
                and isinstance(node.args[0], ast.BinOp) and on_n(node.args[0]):
            yield node.lineno


def test_one_budget_channel_and_one_value_group_test():
    """No module of the package reads the environment: the budget comes
    from the defaults and the command line.  Outside `field`, whose
    `PrimeContext.nval_of` is the one test of the value group, and
    `oracle`, which stays independent of the engine, no module tests or
    casts a product with ctx.n by hand."""
    environ, casts = [], []
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, module)) as fh:
            tree = ast.parse(fh.read(), module)
        environ += [(module, n.lineno) for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute)
                    and n.attr in ("environ", "getenv")]
        casts += [(module, ln) for ln in _value_group_casts(tree)]
    assert environ == []
    # oracle's own test is seen, so the search is not blind
    assert {module for module, _ in casts} == {"oracle.py"}
