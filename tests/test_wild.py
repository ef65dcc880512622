"""Seeded differential batch in the wild regime (p <= d): 60 maps over Q_2
and Q_3 of degree 2 or 3, certified at the acceptance budget, compared
with the independent oracle `brute_is_fixed` and run through the
identification and reciprocity checks.

The seed and the batch size were fixed by runtime (about 20 s) before any
outcome was seen, and no map is filtered out: maps whose certificate needs
an extension beyond the budget stay in the batch, and the test asserts that
outcome by index.
"""

import importlib.util
import os
import random
from fractions import Fraction

import pytest

from berklocus import fixlocus as fx
from berklocus.berkmap import NOT_FIXED, TypeIIPoint, embed_map, reduce_at
from berklocus.errors import NeedsExtension
from berklocus.field import INF, NEG_INF
from berklocus.oracle import brute_is_fixed
from berklocus.roots import ClusterStub

from conftest import mk, random_wild_map

SEED = 2026
SIZE = 60
# index -> ramification the certificate asks for: a cluster of classical
# fixed points over Q_2 at a radius with 32 in its denominator, beyond
# n_max = 24
NEEDS_EXTENSION = {12: 32, 13: 32, 14: 32, 32: 32}


def _inner_radius(lo, hi):
    """A radius strictly inside the segment (lo, hi): the midpoint, or one
    step in from the bounded end of an unbounded segment."""
    if lo is NEG_INF and hi is INF:
        return Fraction(0)
    if lo is NEG_INF:
        return hi - 1
    if hi is INF:
        return lo + 1
    return (lo + hi) / 2


def _in_value_group(f, center, s):
    """The map and center over a ramified extension in which the radius s
    is a valuation."""
    ctx = f.ctx
    step = (s * ctx.n).denominator
    if step == 1:
        return f, center
    ctx2 = ctx.extend(n=ctx.n * step)
    return embed_map(f, ctx2), ctx2.embed(center)


@pytest.fixture(scope="module")
def outcomes():
    rng = random.Random(SEED)
    out = []
    for _ in range(SIZE):
        f = random_wild_map(rng)
        try:
            out.append((f, fx.analyze(f, fx.ExploreConfig(n_max=24, k_max=4))))
        except NeedsExtension as exc:
            out.append((f, exc))
    return out


def test_needs_extension_outcomes_by_index(outcomes):
    failed = {i: a.n for i, (_, a) in enumerate(outcomes)
              if isinstance(a, NeedsExtension)}
    assert failed == NEEDS_EXTENSION


def test_certified_maps_check_against_oracle(outcomes):
    certified = 0
    for i, (f, a) in enumerate(outcomes):
        if isinstance(a, NeedsExtension):
            continue
        certified += 1
        g = a.map
        assert a.complete_rigorous, i
        assert a.weight_total == f.degree - 1, i
        assert fx.identification_check(a), i
        assert fx.multiplier_reciprocity_check(a), i
        # a ray's valuation lines have slopes in {0, ..., d + 1}: along the
        # concave lower envelope the support changes at most d + 1 times,
        # and with the ray's two ends it has at most d + 3 breakpoints
        assert all(len(ray.breakpoints) <= f.degree + 3
                   for ray in a.skeleton.rays), i
        for comp in a.components:
            if comp.kind != fx.KIND_CLASSICAL:
                held = sum(cp.multiplicity for cp in comp.classical_points)
                assert held == 2 + comp.alpha, (i, comp.kind)
        for pt, local in a.skeleton.vertex_points:
            assert brute_is_fixed(g, pt) == local.is_fixed, (i, pt)
        for ray in a.skeleton.rays:
            for seg in ray.segments:
                s = _inner_radius(seg.s_lo, seg.s_hi)
                h, c = _in_value_group(g, seg.center, s)
                pt = TypeIIPoint(c, s)
                fixed = brute_is_fixed(h, pt)
                assert reduce_at(h, pt).is_fixed == fixed, (i, seg)
                assert (seg.behavior != NOT_FIXED) == fixed, (i, seg)
    assert certified == SIZE - len(NEEDS_EXTENSION)


# maps 7 and 41 of the benchmark's wild draw (`random.Random(1)`): their
# residue extensions need k = 6 after a first k step, which the retry reaches
# by embedding the input map into E(p, lcm n, lcm k)
WIDE_TOWER = [((2, [3, 2, 6, -9, 6], [-8, 0, 9, 9, 3]), (1, 6)),
              ((3, [-1, 8, 5, 8, 5], [-9, 3, 1, -4, -1]), (4, 6))]


@pytest.mark.parametrize("spec,tower", WIDE_TOWER)
def test_retry_reaches_the_lcm_tower(spec, tower):
    a = fx.analyze(mk(*spec), fx.ExploreConfig(n_max=64, k_max=6))
    assert (a.map.ctx.n, a.map.ctx.k) == tower
    assert a.complete_rigorous
    assert fx.identification_check(a)
    assert fx.multiplier_reciprocity_check(a)
    for pt, local in a.skeleton.vertex_points:
        assert brute_is_fixed(a.map, pt) == local.is_fixed, pt


def test_input_over_k_above_one_refuses_a_k_step():
    (p, num, den), _ = WIDE_TOWER[0]
    with pytest.raises(NeedsExtension) as exc:
        fx.analyze(mk(p, num, den, k=2), fx.ExploreConfig(n_max=64, k_max=6))
    assert exc.value.k == 6


# map 49 of the same draw: a critical cluster whose residue direction needs
# k = 4 in E(3, 4, 2)
MAP_49 = (3, [2, 3, 7, -4, 8], [-8, 7, -7, -1, -6])


def test_critical_cluster_is_stubbed_only_where_analyze_refuses():
    config = fx.ExploreConfig(n_max=24, k_max=4)
    # over Q_3 the retry takes the k step, and the cluster splits
    a = fx.analyze(mk(*MAP_49), config)
    assert (a.map.ctx.n, a.map.ctx.k) == (4, 4)
    assert a.complete_rigorous
    assert not any(isinstance(h, ClusterStub) for h in a.skeleton.aux_leaves)
    assert fx.identification_check(a)
    assert fx.multiplier_reciprocity_check(a)
    for pt, local in a.skeleton.vertex_points:
        assert brute_is_fixed(a.map, pt) == local.is_fixed, pt
    # an input over k = 2 takes no k step: the cluster stays a stub
    b = fx.analyze(mk(*MAP_49, k=2), config)
    assert (b.map.ctx.n, b.map.ctx.k) == (4, 2)
    assert b.complete_rigorous
    assert [repr(h) for h in b.skeleton.aux_leaves
            if isinstance(h, ClusterStub)] == ["cluster(~0, radius=0, count=4)"]


def test_census_of_the_benchmark_wild_draw():
    """scripts/census.py on the 60 maps of the benchmark's wild draw at the
    acceptance budget: 42 certify, maps 17 and 35 return incomplete, 16
    raise NeedsExtension, and the returned skeletons hold 33 stubs."""
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "census.py")
    spec = importlib.util.spec_from_file_location("census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    rows = census.census(24, 4)
    assert len(rows) == 60
    assert census.totals(rows) == {"certified": 42, "incomplete": 2,
                                   "NeedsExtension": 16, "stubs": 33}
    assert [row[0] for row in rows if row[3] == "incomplete"] == \
        ["wild:17", "wild:35"]
