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

from berklocus import fixlocus as fx
from berklocus import roots
from berklocus.berkmap import ID_INDIFFERENT, TypeIIPoint, gauss_point
from berklocus.epoly import epoly, poly_shift
from berklocus.errors import (
    CheckFailed,
    ClassicalComponent,
    IdentityMap,
    NoTotallyRamifiedFixedPoint,
    NotHyperbolic,
    NotIndifferent,
    PreconditionViolated,
)
from berklocus.field import INF, NEG_INF
from berklocus.oracle import brute_is_fixed, fixture
from berklocus.residue import Infinity, _trim, poly_deg, poly_mul, poly_sub
from berklocus.roots import RootHandle, isolate_roots

from conftest import mk, random_wild_map, reciprocity_ends, \
    reciprocity_segments


def test_classical_fixed_points_multiplicities_sum():
    for name in ("power-2", "power-3", "quadratic-repelling",
                 "quadratic-doubled"):
        f = fixture(name).build()
        pts = fx.classical_fixed_points(f)
        assert sum(cp.multiplicity for cp in pts) == f.degree + 1
    # z^3 over Q_3 needs the quadratic residue extension for its direction
    # data; analyze() performs the retry
    a = fx.analyze(fixture("wild-p3-d3").build())
    assert sum(cp.multiplicity for cp in a.classical_points) == 4


def test_classical_fixed_points_identity_raises():
    f = mk(5, [0, 1], [1])
    with pytest.raises(IdentityMap):
        fx.classical_fixed_points(f)


def test_classical_classification_quadratic(expected):
    f = fixture("quadratic-repelling").build()
    pts = fx.classical_fixed_points(f)
    by_val = {}
    for cp in pts:
        key = "inf" if cp.is_infinity() else repr(cp.value.center)
        by_val[key] = cp
    # derived multiplier table: 0 and oo indifferent, 4/3 repelling
    assert by_val["0"].klass == fx.INDIFFERENT
    assert by_val["inf"].klass == fx.INDIFFERENT
    assert by_val["4/3"].klass == fx.REPELLING_CLASS
    assert by_val["4/3"].multiplier_valuation == Fraction(-2)


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
    # and 0 is fixed with local degree 2, read off the root's expansion
    f = mk(5, [0, 0, 1], [1, 1])
    a = fx.analyze(f)
    point = fx.totally_ramified_fixed_point(a)
    assert point == f.ctx.zero
    assert fx.totally_ramified_corollary_check(a)


def test_totally_ramified_reads_the_skeleton_expansion(monkeypatch):
    """The skeleton reads an exact anchor's ray lines off the handle's
    expansion, so the check finds it cached and shifts nothing again."""
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
    assert points[0] == maps[0].ctx.zero


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
    for ray, seg in reciprocity_segments(a):
        i = next(i for i, bp in enumerate(ray.breakpoints) if bp.s == seg.s_hi)
        if ray.breakpoints[i].local.directions:  # not id-indifferent
            break
    breakpoints = list(ray.breakpoints)
    local = breakpoints[i].local
    directions = [dataclasses.replace(t, multiplier=t.multiplier + t.field.one)
                  if isinstance(t.location, Infinity) else t
                  for t in local.directions]
    breakpoints[i] = dataclasses.replace(
        breakpoints[i], local=dataclasses.replace(local, directions=directions))
    rays = [dataclasses.replace(r, breakpoints=breakpoints) if r is ray else r
            for r in a.skeleton.rays]
    tampered = dataclasses.replace(
        a, skeleton=dataclasses.replace(a.skeleton, rays=rays))
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


def test_alpha_sum_check_fixtures():
    for name in ("power-2", "power-3", "wild-p3-d3", "quadratic-repelling",
                 "segment-p3-d4"):
        assert fx.alpha_sum_check(fx.analyze(fixture(name).build())), name


def test_gamma_fix_contains_classical_points():
    f = fixture("power-3").build()
    skel = fx.gamma_fix(f)
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


def test_one_reduction_per_skeleton_point(shared_point_analyses, monkeypatch):
    calls = []
    reduce_at = fx.reduce_at

    def counting(f, x):
        calls.append(x)
        return reduce_at(f, x)
    monkeypatch.setattr(fx, "reduce_at", counting)
    for name, a in shared_point_analyses.items():
        calls.clear()
        sk = fx.gamma_fix(a.map, a.config)
        shared = sum(bp.local is not None for ray in sk.rays
                     for bp in ray.breakpoints)
        assert shared > len(sk.vertex_points), name  # rays do share points
        assert len(calls) == len(sk.vertex_points), name
        for i, (pt, _) in enumerate(sk.vertex_points):
            assert not any(pt.same_point(q) for q, _ in sk.vertex_points[:i])


def test_breakpoints_hold_the_canonical_reduction(shared_point_analyses):
    for name, a in shared_point_analyses.items():
        sk = a.skeleton
        for ray in sk.rays:
            for bp in ray.breakpoints:
                if bp.local is None:
                    assert bp.cid is None
                    continue
                pt, local = sk.vertex_points[bp.cid]
                assert bp.local is local, name
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
        ai = poly_sub(ctx, ns, poly_mul(ctx, (ctx.zero, ctx.one), ds))
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
    sum of m*x*y over the parts (m, x, y) of coeffs[j]."""
    out = []
    for parts in coeffs:
        total = ctx.zero
        for m, x, y in parts:
            total = total + x * (ctx.one if y is None else y) * \
                ctx.from_rational(m)
        out.append(total)
    return _trim(out)


def test_one_expansion_matches_a_shift_per_polynomial(certified_maps):
    checked = 0
    for f in certified_maps:
        ctx = f.ctx
        N, D = f.multiplier_polys()
        for g, m in fx._squarefree_parts(ctx, f.fixed_point_polynomial()):
            for h in isolate_roots(ctx, g, m):
                if h.is_exact:
                    continue
                checked += 1
                # every expansion read off the handle's one shift is the
                # shift of its own polynomial
                c = h.center
                for which, q in enumerate((N, D)):
                    assert _summed(ctx, fx._multiplier_expansion(
                        f, h, which)) == poly_shift(ctx, q, c)
                for i in range(f.degree + 1):
                    for which in (0, 1):
                        q = fx._tail_poly(f, i, which)
                        if q:
                            assert _summed(ctx, fx._tail_expansion(
                                f, h, i, which)) == poly_shift(ctx, q, c)
                fast, ref = copy.copy(h), copy.copy(h)
                lines = fx._tail_lines(f, fast)
                assert lines and lines == _tail_lines_reference(f, ref)
                # the same refinements, down to the same center
                assert (fast.center, fast.prec) == (ref.center, ref.prec)
                fast, ref = copy.copy(h), copy.copy(h)
                cp = fx._finite_entry(f, fast, 1, N, D)
                assert (cp.multiplier_valuation, cp.multiplier_residue) == \
                    _multiplier_reference(ref, N, D)
                assert (fast.center, fast.prec) == (ref.center, ref.prec)
    assert checked >= 10


def test_isolation_matches_a_shift_per_query(certified_maps, monkeypatch):
    """Isolation shares one shift of g and its Newton polygon per center
    between the root count, the initial precision and the next level; the
    same isolation with every one of them recomputed at its center gives
    the same anchors."""
    config = fx.ExploreConfig(n_max=24, k_max=4)

    def isolate_all():
        out = []
        for f in certified_maps:
            ctx = f.ctx
            anchors = [h for g, m in fx._squarefree_parts(
                ctx, f.fixed_point_polynomial())
                for h in isolate_roots(ctx, g, m)]
            anchors += fx._critical_point_handles(f, config)
            out.append([(h.center, h.prec) if isinstance(h, RootHandle)
                        else (h.center, h.radius, h.count) for h in anchors])
        return out

    shared = isolate_all()
    assert any(len(a) > 1 for a in shared)
    cluster, initial, count = roots._isolate_cluster, roots._initial_prec, \
        roots.count_roots_in_disk
    monkeypatch.setattr(roots, "_isolate_cluster",
                        lambda *a: cluster(*a[:7]))
    monkeypatch.setattr(roots, "_initial_prec",
                        lambda ctx, g, c, floor, polygon=None:
                        initial(ctx, g, c, floor))
    monkeypatch.setattr(roots, "count_roots_in_disk",
                        lambda ctx, f, c, s, mode="open", polygon=None:
                        count(ctx, f, c, s, mode))
    assert isolate_all() == shared


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
