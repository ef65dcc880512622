"""Local analysis of maps: normalization, conjugation, reduction, tropical
ray decomposition, and the direction-level identification, which
`fixlocus.identification_check` reads off an `Analysis`: the classical
fixed points the skeleton isolated against the surplus and tangent
multiplicities of each reduction."""

import dataclasses
import random
from fractions import Fraction

import pytest

from berklocus import berkmap, field, roots
from berklocus import fixlocus as fx
from berklocus.berkmap import (
    ADD_INDIFFERENT,
    ID_INDIFFERENT,
    MULT_INDIFFERENT,
    NOT_FIXED,
    REPELLING,
    TypeIIPoint,
    embed_map,
    gauss_point,
    normalize,
    reduce_at,
)
from berklocus.errors import CheckFailed, ConstantMap, NeedsExtension, \
    ZeroDenominator
from berklocus.field import PrimeContext
from berklocus.oracle import fixture
from berklocus.residue import (
    INF_POINT,
    Fq,
    FqRationalMap,
    Infinity,
    _trim,
    direction_key,
    poly_deg,
    poly_eval,
)

from conftest import mk, random_wild_map, reciprocity_segments

CONFIG = fx.ExploreConfig(n_max=24, k_max=4)


def _scaled(f):
    """The coefficients of f divided by its first nonzero one: a map's
    normalized form is unique up to one unit scalar."""
    u = next(c for c in f.num + f.den if not c.is_zero())
    return tuple(c / u for c in f.num), tuple(c / u for c in f.den)


def test_normalization_invariants():
    f = mk(5, [0, 0, 25], [5])
    vals = [c.val() for c in f.num + f.den if not c.is_zero()]
    assert min(vals) == 0
    assert f.degree == 2


def test_gcd_cancellation():
    # (z^2 - 1) / (z - 1) is the map z + 1
    f = mk(7, [-1, 0, 1], [-1, 1])
    assert f.degree == 1
    assert _scaled(f) == _scaled(mk(7, [1, 1], [1]))


def test_degenerate_maps_rejected():
    ctx = PrimeContext(5)
    with pytest.raises(ZeroDenominator):
        normalize(ctx, [1, 1], [0])
    with pytest.raises(ConstantMap):
        normalize(ctx, [3], [1])
    with pytest.raises(ConstantMap):
        normalize(ctx, [0, 2], [0, 1])  # cancels to the constant 2


def test_conjugation_group_identities():
    f = mk(5, [1, 2, 1], [3, 0, 1])
    ctx = f.ctx
    u = ctx.from_rational(Fraction(5))
    a = ctx.from_rational(Fraction(2, 3))
    g = f.conjugate_affine(u, a)
    back = g.conjugate_affine(u.inverse(), -(a / u))
    assert _scaled(back) == _scaled(f)
    assert _scaled(f.flip().flip()) == _scaled(f)


def test_conjugation_by_a_zero_scale_is_refused():
    f = mk(5, [1, 2, 1], [3, 0, 1])
    with pytest.raises(ValueError, match="zero scale"):
        f.conjugate_affine(f.ctx.zero, f.ctx.one)


def test_eval_and_fixed_point_polynomial():
    f = mk(5, [0, 0, 1], [1])
    ctx = f.ctx
    from berklocus.residue import poly_eval
    three = ctx.from_rational(3)
    assert poly_eval(ctx, f.num, three) / poly_eval(ctx, f.den, three) == \
        ctx.from_rational(9)
    P = f.fixed_point_polynomial()
    # roots 0 and 1
    assert poly_eval(ctx, P, ctx.zero).is_zero()
    assert poly_eval(ctx, P, ctx.one).is_zero()
    assert f.infinity_multiplicity() == 1


def test_reduce_at_gauss_power_map():
    f = mk(5, [0, 0, 1], [1])
    local = reduce_at(f, gauss_point(f.ctx))
    assert local.is_fixed
    assert local.indifference_class == REPELLING
    assert local.local_degree == 2
    assert local.n_cf == 2
    assert local.surplus_total() == 0


def test_reduce_at_unfixed_point():
    f = mk(5, [0, 0, 1], [1])
    ctx = f.ctx
    # zeta(2, 1): f moves the small disk around 2 to around 4
    local = reduce_at(f, TypeIIPoint(ctx.from_rational(2), Fraction(1)))
    assert not local.is_fixed
    assert local.indifference_class == NOT_FIXED


def test_reduce_surplus_balance_at_gauss():
    # surplus total = degree - local degree at the Gauss point
    rng = random.Random(7)
    for _ in range(20):
        p = rng.choice([3, 5, 7])
        d = rng.randint(2, 4)
        num = [rng.randint(-p * p, p * p) for _ in range(d + 1)]
        den = [rng.randint(-p * p, p * p) for _ in range(d + 1)]
        try:
            f = mk(p, num, den)
        except (ConstantMap, ZeroDenominator):
            continue
        local = reduce_at(f, gauss_point(f.ctx))
        if local.local_degree is None:
            continue
        assert local.surplus_total() == f.degree - local.local_degree


def test_indifference_classes_along_scaling_map():
    f = mk(5, [0, 2], [1])  # 2z: whole segment [0, oo] multiplicatively fixed
    local = reduce_at(f, gauss_point(f.ctx))
    assert local.indifference_class == MULT_INDIFFERENT
    f6 = mk(5, [0, 6], [1])  # 6z: identity reduction on the segment
    assert reduce_at(f6, gauss_point(f6.ctx)).indifference_class == \
        ID_INDIFFERENT
    fadd = mk(5, [1, 1], [1])  # z + 1: additively indifferent at the Gauss pt
    assert reduce_at(fadd, gauss_point(fadd.ctx)).indifference_class == \
        ADD_INDIFFERENT


def test_fractional_radius_needs_extension():
    f = mk(5, [0, 0, 1], [1])
    with pytest.raises(NeedsExtension) as exc:
        reduce_at(f, TypeIIPoint(f.ctx.zero, Fraction(1, 2)))
    assert exc.value.n == 2
    # the same point is representable after a ramified extension
    ctx2 = f.ctx.extend(n=2)
    f2 = embed_map(f, ctx2)
    local = reduce_at(f2, TypeIIPoint(ctx2.zero, Fraction(1, 2)))
    assert not local.is_fixed


def _zero_ray(f, s_lo, s_hi):
    """The ray {zeta(0, s) : s in [s_lo, s_hi]}, annotated as a skeleton
    ray, and the reductions its breakpoints' ids index."""
    ray = fx.ScaffoldRay(0, f.ctx.zero, Fraction(s_lo), Fraction(s_hi),
                         leaf_idx=None, to_infinity=False)
    vertex_points = []
    fx._annotate_ray(f, ray, fx._ray_lines_at(f, ray.anchor), vertex_points,
                     {})
    return ray, [local for _, local in vertex_points]


def _behavior_at(ray, reductions, s):
    bp = next((bp for bp in ray.breakpoints if bp.s == s), None)
    if bp is not None:
        return reductions[bp.cid].indifference_class
    return next(seg.behavior for seg in ray.segments
                if seg.s_lo < s < seg.s_hi)


def test_ray_analysis_segments_power_map():
    f = mk(5, [0, 0, 1], [1])
    ra, reductions = _zero_ray(f, -3, 3)
    # along the 0-ray of z^2: fixed only at s = 0 (the Gauss point)
    assert _behavior_at(ra, reductions, Fraction(0)) == REPELLING
    assert _behavior_at(ra, reductions, Fraction(1)) == NOT_FIXED
    assert _behavior_at(ra, reductions, Fraction(-1)) == NOT_FIXED
    # sample five interior points of each constant-behavior interval
    for seg in ra.segments:
        lo = seg.s_lo if seg.s_lo > Fraction(-3) else Fraction(-3)
        hi = seg.s_hi if seg.s_hi < Fraction(3) else Fraction(3)
        for i in range(1, 6):
            s = lo + (hi - lo) * Fraction(i, 6)
            if (s * f.ctx.n).denominator != 1:
                continue
            local = reduce_at(f, TypeIIPoint(f.ctx.zero, s))
            expected_fixed = seg.behavior != NOT_FIXED
            assert local.is_fixed == expected_fixed


def test_ray_analysis_scaling_map_everywhere_fixed():
    f = mk(5, [0, 2], [1])
    ra, reductions = _zero_ray(f, -2, 2)
    for seg in ra.segments:
        assert seg.behavior == MULT_INDIFFERENT
    assert len(reductions) == len(ra.breakpoints) == 2
    for bp in ra.breakpoints:
        assert reductions[bp.cid].is_fixed


def test_multiplier_reciprocity_on_arc(shared_point_analyses):
    """On segment-p5-d6 two multiplicatively indifferent segments run
    between reduced breakpoints: the shallower end faces the segment with
    its multiplier, the deeper end faces infinity with the inverse."""
    a = shared_point_analyses["segment-p5-d6"]
    segments = reciprocity_segments(a)
    assert [seg.behavior for _, seg in segments] == [MULT_INDIFFERENT] * 2
    for ray, seg in segments:
        ends = {bp.s: a.skeleton.vertex_points[bp.cid][1]
                for bp in ray.breakpoints}
        lo = fx._facing_multiplier(ends[seg.s_lo], seg.center)
        hi = fx._facing_multiplier(ends[seg.s_hi], None)
        assert lo == seg.multiplier and lo * hi == lo.field.one
    assert fx.multiplier_reciprocity_check(a)


def _tangent_reference(m, d):
    """(whether the reduced map m = num/den fixes d, its multiplier there)
    at a point d of P^1 over m's field, by `poly_eval`.  m fixes oo when
    deg num > deg den, with the multiplier lc(den)/lc(num) when the degrees
    differ by 1 and 0 otherwise; it fixes a finite d when den(d) != 0 and
    num(d) = d den(d), with the multiplier m'(d)."""
    F, num, den = m.ctx, m.num, m.den
    if isinstance(d, Infinity):
        if poly_deg(num) <= poly_deg(den):
            return False, None
        if poly_deg(num) > poly_deg(den) + 1:
            return True, F.zero
        return True, den[-1] / num[-1]
    dv = poly_eval(F, den, d)
    if dv.is_zero() or poly_eval(F, num, d) != d * dv:
        return False, None
    slope = poly_eval(F, F.ring.deriv(num), d) * dv - \
        poly_eval(F, num, d) * poly_eval(F, F.ring.deriv(den), d)
    return True, slope / (dv * dv)


def test_multiplier_at_agrees_with_the_reduced_map(fixture_analyses):
    """At every skeleton vertex of the fixture analyses and of a seeded
    wild sample, `multiplier_at` is None in a leaf direction exactly when
    the reduced map does not fix it, and is m'(d) where it does; at a fixed
    vertex over a field of at most 32 elements, in every direction of
    P^1."""
    analyses = [a for _, a in fixture_analyses.values()]
    rng = random.Random(28)
    while len(analyses) < len(fixture_analyses) + 10:
        try:
            analyses.append(fx.analyze(random_wild_map(rng), CONFIG))
        except NeedsExtension:
            continue
    checked = {True: 0, False: 0}
    for a in analyses:
        sk = a.skeleton
        for pt, local in sk.vertex_points:
            dirs = [d for d, _ in fx._leaf_directions(sk, pt).values()]
            if not local.is_fixed:
                assert all(local.multiplier_at(direction_key(d)) is None
                           for d in dirs)
                continue
            F = local.reduced_map.ctx
            if F.order <= 32:
                dirs += [INF_POINT, *F.elements()]
            for d in dirs:
                fixes, lam = _tangent_reference(local.reduced_map, d)
                assert local.multiplier_at(direction_key(d)) == lam, (pt, d)
                checked[fixes] += 1
    assert checked[True] > 100 and checked[False] > 100, checked


def test_classical_count_in_direction_power_map():
    f = mk(5, [0, 0, 1], [1])
    a = fx.analyze(f)
    gauss = gauss_point(f.ctx)
    F = f.ctx.residue_field
    # direction of 1 holds the fixed point 1; directions 0 and oo hold 0, oo;
    # no other direction holds one
    dirs = fx._leaf_directions(a.skeleton, gauss)
    held = {key: sum(a.skeleton.leaves[i].multiplicity for i in idx)
            for key, (_, idx) in dirs.items()}
    assert held == {direction_key(F.zero): 1, direction_key(F.one): 1,
                    direction_key(INF_POINT): 1}


def test_identification_check_gauss_directions():
    f = mk(5, [0, 0, 1], [1])
    a = fx.analyze(f)
    assert any(local.is_fixed for _, local in a.skeleton.vertex_points)
    assert fx.identification_check(a)


def test_identification_check_random_maps():
    rng = random.Random(99)
    done = 0
    while done < 15:
        p = rng.choice([3, 5])
        d = rng.randint(2, 3)
        num = [rng.randint(-6, 6) for _ in range(d + 1)]
        den = [rng.randint(-6, 6) for _ in range(d)] + [0]
        try:
            f = mk(p, num, den)
        except (ConstantMap, ZeroDenominator):
            continue
        gauss = gauss_point(f.ctx)
        local = reduce_at(f, gauss)
        if not local.is_fixed or local.indifference_class == ID_INDIFFERENT:
            continue
        assert fx.identification_check(fx.analyze(f, CONFIG)), repr(f)
        done += 1


def test_conjugation_coherence_of_fixedness():
    # fixedness of a point is invariant under conjugating map and point
    rng = random.Random(5)
    f = mk(5, [1, 0, 2], [0, 1])
    ctx = f.ctx
    for _ in range(10):
        a = ctx.from_rational(Fraction(rng.randint(-9, 9),
                                       rng.choice([1, 1, 5])))
        pt = TypeIIPoint(a, Fraction(rng.randint(-2, 2)))
        c = ctx.from_rational(rng.randint(-4, 4))
        g = f.conjugate_affine(ctx.one, c)
        moved = TypeIIPoint(pt.center - c, pt.s)
        assert reduce_at(f, pt).is_fixed == reduce_at(g, moved).is_fixed


def test_embed_map_preserves_reduction():
    f = mk(3, [0, 0, 0, 1], [1])
    big = f.ctx.extend(n=2, k=2)
    f2 = embed_map(f, big)
    l1 = reduce_at(f, gauss_point(f.ctx))
    l2 = reduce_at(f2, gauss_point(big))
    assert l1.is_fixed == l2.is_fixed
    assert l1.local_degree == l2.local_degree
    assert l1.indifference_class == l2.indifference_class


def test_surplus_table_infinity_matches_standalone(shared_point_analyses):
    """reduce_at takes the infinity surplus from the degrees of the residues
    it has taken; the flip of the conjugated map, reduced on its own, gives
    the same order at every skeleton vertex."""
    for name, a in shared_point_analyses.items():
        for pt, local in a.skeleton.vertex_points:
            g = berkmap._conjugate_to_gauss(a.map, pt)
            assert local.surplus.get(("inf",), 0) == \
                _flip_surplus_reference(g), (name, pt)


def test_neg_inf_is_one_sentinel():
    assert roots.NEG_INF is berkmap.NEG_INF is field.NEG_INF


def _flip_surplus_reference(g):
    """The infinity surplus of a map g conjugated to the Gauss point, by the
    flip: reverse num and den to degree d and swap them, renormalise to
    minimal valuation 0, reduce, take the gcd of the reductions (the monic
    nonzero one when the other vanishes) and its vanishing order at 0."""
    ctx, d = g.ctx, g.degree
    F = ctx.residue_field

    def reverse(f):
        return (list(f) + [ctx.zero] * (d + 1 - len(f)))[::-1]

    num, den = reverse(g.den), reverse(g.num)
    shift = min(c.val() for c in num + den if not c.is_zero())
    scale = ctx.pi_pow(-int(shift * ctx.n))
    rnum, rden = (_trim([(c * scale).residue() for c in f])
                  for f in (num, den))
    common = F.ring.gcd(rnum, rden) if rnum and rden \
        else F.ring.monic(rnum or rden)
    return next(i for i, c in enumerate(common) if not c.is_zero())


def test_infinity_surplus_matches_the_flip():
    """reduce_at reads the infinity surplus off the residues it has taken;
    it equals the flip's cancelled order on a seeded batch of maps and disk
    points, among them points where the reduction is the constant 0 or
    infinity."""
    rng = random.Random(2026)
    constant = {"num": 0, "den": 0}
    for _ in range(120):
        p, d = rng.choice([3, 5]), rng.randint(1, 3)
        num = [rng.randint(-9, 9) * p ** rng.randint(0, 2)
               for _ in range(d + 1)]
        den = [rng.randint(-9, 9) * p ** rng.randint(0, 2)
               for _ in range(rng.randint(1, d + 1))]
        try:
            f = mk(p, num, den)
        except (ConstantMap, ZeroDenominator):
            continue
        ctx = f.ctx
        for _ in range(4):
            a = ctx.from_rational(Fraction(rng.randint(-9, 9),
                                           rng.choice([1, 1, p])))
            x = TypeIIPoint(a, Fraction(rng.randint(-3, 3)))
            g = berkmap._conjugate_to_gauss(f, x)
            rnum, rden = berkmap._residues(g)
            for key, r in (("num", rnum), ("den", rden)):
                constant[key] += not r
            expected = _flip_surplus_reference(g)
            assert reduce_at(f, x).surplus.get(("inf",), 0) == expected
    assert constant["num"] > 0 and constant["den"] > 0, constant


@pytest.mark.parametrize("p,n,k", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1),
                                   (3, 2, 2), (5, 3, 1), (7, 1, 3)])
def test_point_key_agrees_with_same_point(p, n, k):
    # pairs of disks at one radius whose centers differ at valuation near
    # it (above, at and below), negative radii included, and pairs at two
    # radii; the key decides a shared breakpoint with one lookup
    ctx = PrimeContext(p, n, k)
    rng = random.Random(100 * p + 10 * n + k)

    def element():
        return ctx.element([[Fraction(rng.randint(-p ** 3, p ** 3),
                                      p ** rng.randint(0, 2))
                             for _ in range(n)] for _ in range(k)])
    agreed = set()
    for _ in range(400):
        s = Fraction(rng.randint(-3 * n, 3 * n), n)
        a = element()
        b = a + element() * ctx.pi_pow(int(s * n) + rng.randint(-2, 2))
        x = TypeIIPoint(a, s)
        y = TypeIIPoint(b, s + rng.choice([0, 0, 0, Fraction(1, n)]))
        assert (x.key() == y.key()) == x.same_point(y) == y.same_point(x)
        agreed.add(x.same_point(y))
    assert agreed == {True, False}


def _grid_segments_reference(one, lines, s_lo, s_hi):
    """The envelope decomposition by an all-pairs grid: every crossing of
    two lines inside (s_lo, s_hi) is a grid point, the support of each grid
    interval is read at its midpoint by evaluating every line, and equal
    neighbours merge."""
    NEG_INF, INF = field.NEG_INF, field.INF
    cands = set()
    for i, (m1, b1, _, _) in enumerate(lines):
        for m2, b2, _, _ in lines[i + 1:]:
            if m1 != m2:
                s = (b2 - b1) / (m1 - m2)
                if (s_lo is NEG_INF or s_lo < s) and (s_hi is INF or s < s_hi):
                    cands.add(s)
    if s_lo is NEG_INF:
        anchors = sorted(cands) + ([s_hi] if s_hi is not INF else [])
        eff_lo = min(anchors) - 1 if anchors else Fraction(0)
    else:
        eff_lo = s_lo
    eff_hi = s_hi if s_hi is not INF else \
        (max(cands) + 1 if cands else eff_lo + 1)
    grid = sorted(cands | {eff_lo, eff_hi})

    def support(s):
        vals = [m * s + b for m, b, _, _ in lines]
        return frozenset(line[2] for line, v in zip(lines, vals)
                         if v == min(vals))

    merged = []
    for lo, hi in zip(grid, grid[1:]):
        sup = support((lo + hi) / 2)
        if merged and merged[-1][2] == sup:
            merged[-1] = (merged[-1][0], hi, sup)
        else:
            merged.append((lo, hi, sup))
    if s_lo is NEG_INF:
        merged[0] = (NEG_INF,) + merged[0][1:]
    if s_hi is INF:
        merged[-1] = (merged[-1][0], INF, merged[-1][2])
    res = {key: r for _, _, key, r in lines}
    segments, breaks = [], set()
    for lo, hi, sup in merged:
        breaks |= {x for x in (lo, hi) if x is not NEG_INF and x is not INF}
        nkeys = [k for k in sup if k[0] == "n"]
        dkeys = [k for k in sup if k[0] == "d"]
        assert len(nkeys) <= 1 and len(dkeys) <= 1
        if nkeys and dkeys:
            lam = res[nkeys[0]] / res[dkeys[0]]
            segments.append((lo, hi, ID_INDIFFERENT if lam == one
                             else MULT_INDIFFERENT, lam))
        else:
            segments.append((lo, hi, NOT_FIXED, None))
    return segments, sorted(breaks)


def test_envelope_walk_matches_the_all_pairs_grid():
    """The hull walk of `segments_from_lines` against the all-pairs grid,
    on seeded line sets in the shape `_expansion_lines` gives (numerator
    coefficient i on slope i, denominator coefficient j on slope j + 1):
    equal slopes across the two families, ties between them, three lines
    through one point, and bounds on crossings, for every pairing of an
    open or finite lower end with a finite or open upper end."""
    F = Fq(5)
    rng = random.Random(22)
    seen = set()
    for _ in range(300):
        lines = []
        for key, shift in (("n", 0), ("d", 1)):
            for i in range(rng.randint(1, 5)):
                if rng.random() < 0.8:
                    lines.append([Fraction(i + shift),
                                  Fraction(rng.randint(-6, 6),
                                           rng.choice((1, 1, 2, 3))),
                                  (key, i), F.from_int(rng.randint(1, 4))])
        if len(lines) < 2:
            continue
        if rng.random() < 0.4:  # a tie across the families
            same = [(a, b) for a in lines for b in lines
                    if a[2][0] == "n" and b[2][0] == "d" and a[0] == b[0]]
            if same:
                a, b = rng.choice(same)
                b[1] = a[1]
                seen.add("tie")
        if rng.random() < 0.4 and len(lines) >= 3:  # three through a point
            s0 = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
            y0 = Fraction(rng.randint(-4, 4))
            for line in rng.sample(lines, 3):
                line[1] = y0 - line[0] * s0
            seen.add("triple")
        lines = [tuple(line) for line in lines]
        crossings = sorted({(b2 - b1) / (m1 - m2)
                            for m1, b1, _, _ in lines
                            for m2, b2, _, _ in lines if m1 != m2})
        ends = crossings + [Fraction(rng.randint(-16, 16), 2)
                            for _ in range(2)]
        lo = rng.choice(ends)
        hi = rng.choice([e for e in ends if e > lo] or [lo + 1])
        if {lo, hi} & set(crossings):
            seen.add("crossing")
        for s_lo, s_hi in ((field.NEG_INF, field.INF), (field.NEG_INF, hi),
                           (lo, field.INF), (lo, hi)):
            got = berkmap.segments_from_lines(F.one, lines, s_lo, s_hi)
            want = _grid_segments_reference(F.one, lines, s_lo, s_hi)
            assert got == want, (lines, s_lo, s_hi)
            seen |= {seg[2] for seg in got[0]}
    assert seen >= {"tie", "triple", "crossing", NOT_FIXED, ID_INDIFFERENT,
                    MULT_INDIFFERENT}


def test_envelope_checks_fail_on_crafted_lines():
    """An empty interval, and two numerator lines that coincide on one
    piece of the envelope, each raise CheckFailed."""
    F = Fq(5)
    line = (Fraction(0), Fraction(0), ("n", 0), F.one)
    for s_lo, s_hi in ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))):
        with pytest.raises(CheckFailed, match="empty envelope interval"):
            berkmap.segments_from_lines(F.one, [line], s_lo, s_hi)
    twin = (Fraction(0), Fraction(0), ("n", 1), F.one)
    with pytest.raises(CheckFailed, match="two lines of one family"):
        berkmap.segments_from_lines(F.one, [line, twin], Fraction(0),
                                    Fraction(1))


def test_reduction_checks_fail_on_tampered_residues(monkeypatch):
    """A reduction to 0/0, and an additively indifferent tangent map whose
    one fixed direction is given multiplicity 1 instead of 2, each raise
    CheckFailed."""
    f = fixture("moebius-translation").build()
    x = gauss_point(f.ctx)
    assert reduce_at(f, x).indifference_class == ADD_INDIFFERENT
    fixed_points = FqRationalMap.fixed_points
    with monkeypatch.context() as m:
        m.setattr(FqRationalMap, "fixed_points", lambda g: [
            dataclasses.replace(t, multiplicity=1) for t in fixed_points(g)])
        with pytest.raises(CheckFailed, match="multiplicity 1, not 2"):
            reduce_at(f, x)
    monkeypatch.setattr(berkmap, "_residues", lambda g: ((), ()))
    with pytest.raises(CheckFailed, match="0/0"):
        reduce_at(f, x)


def test_direction_of_reads_the_direction_in_the_reduction_coordinate():
    """At zeta(3, 1) over Q_5, y lies in the direction of the residue of
    (y - 3)/5 and outside the closed disk in the infinity direction.  The
    affine map 2z - 13 fixes 13, and the tangent map of its reduction there
    fixes the direction that `direction_of` gives for 13.  A radius off the
    value group has no direction."""
    f = mk(5, [-13, 2], [1])
    ctx = f.ctx
    F = ctx.residue_field
    pt = TypeIIPoint(ctx.from_rational(3), Fraction(1))
    assert pt.direction_of(ctx.from_rational(13)) == F.from_int(2)
    assert pt.direction_of(ctx.from_rational(28)) == F.zero
    assert pt.direction_of(ctx.from_rational(3)) == F.zero
    assert pt.direction_of(ctx.from_rational(4)) is INF_POINT
    assert pt.direction_of(ctx.from_rational(Fraction(16, 5))) is INF_POINT
    assert TypeIIPoint(ctx.zero, Fraction(-1)).direction_of(
        ctx.from_rational(Fraction(2, 5))) == F.from_int(2)
    fixed = [t.location for t in reduce_at(f, pt).fixed_directions()]
    assert pt.direction_of(ctx.from_rational(13)) in fixed
    with pytest.raises(CheckFailed, match="off the value group"):
        TypeIIPoint(ctx.zero, Fraction(1, 2)).direction_of(ctx.one)
