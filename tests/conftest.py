import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from berklocus import fixlocus as fx
from berklocus.berkmap import NOT_FIXED, RationalMapK, normalize
from berklocus.errors import BerklocusError
from berklocus.field import INF, NEG_INF, PrimeContext
from berklocus.oracle import fixture, fixtures

settings.register_profile("default", deadline=None)
settings.load_profile("default")

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts",
                             "expected_values.json")


def mk(p, num, den, n=1, k=1) -> RationalMapK:
    ctx = PrimeContext(p, n, k)
    return normalize(ctx, [Fraction(c) for c in num],
                     [Fraction(c) for c in den])


@pytest.fixture(scope="session")
def expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def random_split_map(rng: random.Random, p: int, d: int) -> RationalMapK:
    """A degree-d map over Q_p whose d+1 classical fixed points are distinct
    rationals: pick the fixed points and a denominator, then solve for the
    numerator."""
    pool = [Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3)]
    while True:
        xis = rng.sample(pool, d + 1)
        den = [Fraction(rng.randint(-4, 4)) for _ in range(d)] + [Fraction(1)]
        P = [Fraction(1)]
        for xi in xis:
            Q = [Fraction(0)] * (len(P) + 1)
            for i, c in enumerate(P):
                Q[i + 1] += c
                Q[i] -= xi * c
            P = Q

        def ev(cs, x):
            r = Fraction(0)
            for c in reversed(cs):
                r = r * x + c
            return r

        if any(ev(den, xi) == 0 for xi in xis):
            continue
        num = [Fraction(0)] * (d + 2)
        for i, c in enumerate(den):
            num[i + 1] += c
        for i, c in enumerate(P):
            num[i] -= c
        while num and num[-1] == 0:
            num.pop()
        f = mk(p, num, den)
        if f.degree == d:
            return f


def random_wild_map(rng: random.Random) -> RationalMapK:
    """A map over Q_2 or Q_3 of degree 2 or 3 with integer coefficients in
    [-9, 9]; draws whose reduced map drops in degree, is constant or is the
    identity are drawn again."""
    while True:
        p, d = rng.choice([2, 3]), rng.randint(2, 3)
        num = [rng.randint(-9, 9) for _ in range(d + 1)]
        den = [rng.randint(-9, 9) for _ in range(d + 1)]
        try:
            f = mk(p, num, den)
        except BerklocusError:
            continue
        if f.degree == d and not f.is_identity():
            return f


@pytest.fixture(scope="session")
def fixture_analyses():
    """Analysis (acceptance budget) of every named fixture map, as
    (map, analysis) by name (the identity has no analysis)."""
    config = fx.ExploreConfig(n_max=24, k_max=4)
    maps = {fxt.name: fxt.build() for fxt in fixtures()
            if fxt.name != "moebius-identity"}
    return {name: (f, fx.analyze(f, config)) for name, f in maps.items()}


@pytest.fixture(scope="session")
def shared_point_analyses():
    """Analyses (acceptance budget) of maps whose skeleton rays share
    breakpoints: three fixtures certified only after extension retries, and
    a degree-5 map over Q_11 with split fixed points."""
    config = fx.ExploreConfig(n_max=24, k_max=4)
    maps = {name: fixture(name).build()
            for name in ("segment-p5-d6", "wild-p3-d6", "power-4")}
    maps["split-q11-d5"] = random_split_map(random.Random(16), 11, 5)
    return {name: fx.analyze(f, config) for name, f in maps.items()}


def reciprocity_segments(a):
    """The (ray, segment) pairs `fixlocus.multiplier_reciprocity_check`
    reads: every fixed skeleton segment whose two ends are reduced
    breakpoints."""
    out = []
    for ray in a.skeleton.rays:
        ends = {bp.s for bp in ray.breakpoints if bp.cid is not None}
        out += [(ray, seg) for seg in ray.segments if seg.behavior != NOT_FIXED
                and seg.s_lo in ends and seg.s_hi in ends]
    return out


def reciprocity_ends(a):
    """The (ray, segment) pairs of the classical ends that
    `fixlocus.multiplier_reciprocity_check` reads: a fixed segment running
    into a classical leaf (s_hi INF on a ray with a leaf), and the fixed
    upward segment (s_lo NEG_INF on the ray toward infinity), once for each
    such end."""
    out = []
    for ray in a.skeleton.rays:
        for seg in ray.segments:
            if seg.behavior == NOT_FIXED:
                continue
            if seg.s_hi is INF and ray.leaf_idx is not None:
                out.append((ray, seg))
            if seg.s_lo is NEG_INF and ray.to_infinity:
                out.append((ray, seg))
    return out
