"""Global structure of the fixed locus: classical fixed points, the connected
hull skeleton, discovery and classification of components, crucial weights,
and the global structure checks.

The skeleton is the join tree of the exact pairwise distances between the
classical fixed points and the critical points, an ultrametric: built top
down, each group of anchors joins at its shallowest pairwise level and splits
into the classes of `distance > level`, with the ultrametric inequality
checked on the way.  Every edge is decomposed by the tropical ray analysis
and every vertex annotated by reduction.  Rays share their ends and
junctions, so each distinct disk point is reduced exactly once: the first ray
to reach it reduces it in its own coordinate, and every breakpoint at that
point holds only its id, `RayBreakpoint.cid`, the index in
`SkeletonGraph.vertex_points` of the point and its one reduction.
Fixedness, class and local degree do not depend on the coordinate; direction
data is read in the coordinate of that reduction.  `ray_stops` names the
points a ray's segments end at -- the breakpoints by that id, the classical
leaves and the point oo -- and every reader of the tree (components,
multiplier reciprocity, the `tree` subcommand) finds a segment's ends there
alone.  Components of the fixed locus are the connected groups of fixed atoms
(vertices, edge segments, classical leaves) in the adjacency the assembly
builds.  A classical fixed point is a leaf built off the valuation lines of
the ray into it, which it keeps: its multiplier, its class and its local
degree are read off them, and the rays into it reuse them.

Completeness of the certificate rests on a structural fact: at a fixed point
whose tangent map is not the identity, every fixed tangent direction has
positive fixed-point multiplicity, hence contains a classical fixed point,
hence points along the skeleton -- so nothing with positive weight hides off
the tree outside id-indifferent regions, and the weight total provides an
end-to-end cross-check either way.  `identification_check` verifies the
count behind it at every such skeleton vertex.

`in_tower` is the one place that grows the working field: each attempt embeds
the input map into E(p, lcm n, lcm k) of the extensions asked for so far.
`analyze` runs the pipeline through it, and the CLI's `reduce-at` and
`tangent` run one reduction through it.  The global structure checks are
functions of one `Analysis`: they read the certificate `analyze` returned
and never run the pipeline again.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import berkmap as bk
from . import residue as rf
from .berkmap import (
    ADD_INDIFFERENT,
    ID_INDIFFERENT,
    MULT_INDIFFERENT,
    NOT_FIXED,
    REPELLING,
    LocalData,
    RationalMapK,
    RayBreakpoint,
    RaySegment,
    TypeIIPoint,
    embed_map,
    reduce_at,
    segments_from_lines,
)
from .epoly import translate
from .errors import (
    CheckFailed,
    ClassicalComponent,
    IdentityMap,
    NeedsExtension,
    NoTotallyRamifiedFixedPoint,
    NotHyperbolic,
    NotIndifferent,
    PreconditionViolated,
)
from .field import INF, NEG_INF, FieldElement
from .residue import (
    INF_POINT,
    FqElement,
    Infinity,
    poly_deg,
)
from .roots import ClusterStub, RootHandle, isolate_roots

ATTRACTING = "attracting"
REPELLING_CLASS = "repelling"
INDIFFERENT = "indifferent"

KIND_CLASSICAL = "classical"
KIND_INDIFFERENT = "indifferent"
KIND_PEAKED = "peaked"
KIND_HYPERBOLIC = "hyperbolic"


@dataclass
class ExploreConfig:
    n_max: int = 6
    k_max: int = 3


@dataclass
class ClassicalFixedPoint:
    """One classical fixed point: exact, realized-to-precision, or infinity,
    with the valuation lines of the ray into it (`_ray_lines_at`; at
    infinity, those of the point 0 of `f.flip()`), off which its multiplier
    and its local degree are read."""

    value: Union[RootHandle, Infinity]
    multiplicity: int
    multiplier_valuation: Fraction  # INF encodes multiplier exactly 0
    multiplier_residue: Optional[FqElement]  # present iff valuation == 0
    klass: str
    lines: list

    def is_infinity(self) -> bool:
        return isinstance(self.value, Infinity)

    def describe(self) -> str:
        if self.is_infinity():
            return "oo"
        h = self.value
        if h.is_exact:
            return repr(h.center)
        return f"~{h.center!r} (prec {h.prec})"


# ---------------------------------------------------------------------------
# Classical fixed points
# ---------------------------------------------------------------------------

def _squarefree_parts(ctx, P):
    """Yun decomposition over a characteristic-zero field: [(g, m)] with the
    g monic squarefree pairwise coprime and P = lc * prod g^m."""
    R = ctx.ring
    P = R.monic(P)
    out = []
    dP = R.deriv(P)
    a = R.gcd(P, dP)
    b = R.divmod(P, a)[0]
    c = R.divmod(dP, a)[0]
    i = 1
    while poly_deg(b) > 0:
        d = R.sub(c, R.deriv(b))
        g = R.gcd(b, d)
        if poly_deg(g) > 0:
            out.append((g, i))
        b = R.divmod(b, g)[0]
        c = R.divmod(d, g)[0]
        i += 1
    return out


def classical_fixed_points(f: RationalMapK) -> list:
    """The classical fixed points, isolated and not yet read: (value,
    multiplicity) for a handle of each root of the fixed-point polynomial,
    then for INF_POINT when infinity is fixed.  `_leaf` builds each one's
    leaf."""
    if f.is_identity():
        raise IdentityMap("every point is fixed")
    ctx = f.ctx
    # a constant P has no squarefree parts: every fixed point is at oo
    out = [(h, m) for g, m in _squarefree_parts(
        ctx, f.fixed_point_polynomial()) for h in isolate_roots(ctx, g)]
    inf_m = f.infinity_multiplicity()
    if inf_m:
        out.append((INF_POINT, inf_m))
    total = sum(m for _, m in out)
    if total != f.degree + 1:
        raise CheckFailed(f"classical fixed points total {total}, expected "
                          f"{f.degree + 1}")
    return out


def _leaf(f: RationalMapK, value, mult: int) -> ClassicalFixedPoint:
    """The leaf of the fixed point `value` of f, of multiplicity `mult`,
    built off the lines of the ray into it: `_ray_lines_at` at a handle,
    and at infinity those of the point 0 of the flipped map 1/f(1/z), its
    coefficients.  Its multiplier is A_1(w) / DS_0(w), the ratio of the
    lines ("n", 1) and ("d", 0) (`_tail_lines`): f' = N / den^2 with
    N = num' den - num den' = den A_1 - den' P, and the fixed-point
    polynomial P vanishes at w; it is 0 when ("n", 1) is absent.  At a
    multiple root P'(w) = 0 too, so A_1(w) = P'(w) + den(w) = DS_0(w) and
    the lines give the multiplier 1; CheckFailed when they do not."""
    if value is INF_POINT:
        g = f.flip()
        lines = bk._expansion_lines(g.num, g.den)
    else:
        lines = _ray_lines_at(f, value)
    lead = {key: (v, res) for _, v, key, res in lines}
    v_d, res_d = lead[("d", 0)]
    v_a, res_a = lead.get(("n", 1), (INF, None))
    v = INF if v_a is INF else v_a - v_d
    res = res_a / res_d if v == 0 else None
    if mult >= 2 and res != res_d.field.one:
        raise CheckFailed(f"a fixed point of multiplicity {mult} has the "
                          f"multiplier valuation {v} and residue {res}, "
                          "not the multiplier 1")
    klass = ATTRACTING if v > 0 else (REPELLING_CLASS if v < 0 else INDIFFERENT)
    return ClassicalFixedPoint(value, mult, v, res, klass, lines)


# ---------------------------------------------------------------------------
# Skeleton
# ---------------------------------------------------------------------------

@dataclass
class ScaffoldRay:
    """One analyzed ray of the skeleton: points zeta(center, s) for s in
    [s_lo, s_hi] (bounds may be the +/-INF sentinels)."""

    ray_id: int
    anchor: Union[RootHandle, FieldElement]
    s_lo: Fraction
    s_hi: Fraction
    leaf_idx: Optional[int]  # classical leaf at the s -> INF end
    to_infinity: bool  # carries the upward end toward the point oo
    segments: List[RaySegment] = dc_field(default_factory=list)
    breakpoints: List[RayBreakpoint] = dc_field(default_factory=list)

    def center_elem(self, depth: Fraction) -> FieldElement:
        if isinstance(self.anchor, ClusterStub):
            # every element of the stub's disk represents zeta(c, s) for
            # s <= radius, and stub rays never descend past the radius
            return self.anchor.center
        if isinstance(self.anchor, RootHandle):
            self.anchor.ensure(depth)
            return self.anchor.center
        return self.anchor


@dataclass
class SkeletonGraph:
    """Annotated connected hull of the classical fixed points together with
    the critical points and the point at infinity.

    Including the critical points is what makes the exploration complete:
    every point of local degree >= 2 -- in particular every type-II repelling
    fixed point -- lies in the convex hull of the critical points (the
    ramification locus is contained in that hull), and every other positive-
    weight point sits on the hull of the classical fixed points.  Since paths
    in the Berkovich line are unique geodesics, component connectivity is
    also decided entirely on this tree.

    `rays` come in the pre-order of the join tree (`_emit_join_tree`), the
    upward ray last.  `vertex_points` holds every distinct disk point among
    the integral ray breakpoints, once, in the order the rays first reach it,
    with the one reduction taken there; a breakpoint's `cid` indexes this
    list and is the one id of the point for every reader, who takes the
    reduction from here.  That reduction is in the coordinate of the first
    center that reached the point, and direction data (`_leaf_directions`,
    the surplus keys) is read in that coordinate.
    """

    leaves: List[ClassicalFixedPoint]
    # critical points that are not fixed; clusters whose isolation would
    # exceed the extension budget appear as ClusterStub entries
    aux_leaves: List[Union[RootHandle, ClusterStub]]
    rays: List[ScaffoldRay]
    vertex_points: List[Tuple[TypeIIPoint, LocalData]]  # join/branch points


def _tail_lines(f: RationalMapK, h: RootHandle):
    """Valuation lines of the conjugated coefficients along the ray into a
    classical fixed point held by a handle.  Conjugated by the root w, the
    map's numerator and denominator have the coefficients
    A_i(w) = NS_i(w) - w*DS_i(w) and DS_i(w), where NS_i = num^(i)/i! and
    DS_i = den^(i)/i!; each is evaluated exactly at the root through the
    handle, one `RootHandle.lead_of` query per coefficient, and vanishing
    ones drop out, in particular A_0, the fixed-point polynomial itself.

    Every A_i and DS_i is read off the handle's one expansion b, e of
    den and num - c*den at its center c (`RootHandle.expansion`), by
    integer rescaling: [DS_i]_j = C(i+j, i) b_(i+j), [A_i]_0 = e_i and
    [A_i]_j = C(i+j, i) e_(i+j) - C(i+j-1, i) b_(i+j-1) for j >= 1.  The
    perturbation bound needs valuations only, val(C x) = v_p(C) + val(x),
    so a difference is formed only when its two valuations tie, and the
    unshifted A_i or DS_i is built only for the vanishing test."""
    lines = []
    dn, dd = poly_deg(f.num), poly_deg(f.den)
    for i in range(max(dn, dd) + 1):
        queries = [(Fraction(i), ("n", i), 0)]
        if i <= dd:
            queries.append((Fraction(i + 1), ("d", i), 1))
        for slope, key, which in queries:
            lead = h.lead_of(functools.partial(_tail_expansion, f, h, i, which),
                             functools.partial(_tail_poly, f, i, which))
            if lead is not None:
                lines.append((slope, lead[0], key, lead[1]))
    return lines


def _tail_expansion(f: RationalMapK, h: RootHandle, i: int, which: int):
    """The Taylor coefficients, as `RootHandle.lead_of` parts, of A_i
    (which = 0) or DS_i (which = 1) at the handle's center, off its
    expansion b, e, yielded one at a time: a coefficient is built only when
    `lead_of` reads it."""
    b, e = h.expansion(f.num, f.den)
    if which:
        for k in range(i, len(b)):
            yield ((math.comb(k, i), b[k]),)
        return
    yield ((1, e[i]),) if i < len(e) else ()
    for k in range(i + 1, max(len(e), len(b) + 1)):
        parts = []
        if k < len(e):
            parts.append((math.comb(k, i), e[k]))
        if k <= len(b):
            parts.append((-math.comb(k - 1, i), b[k - 1]))
        yield parts


def _tail_poly(f: RationalMapK, i: int, which: int):
    """A_i (which = 0) or DS_i (which = 1) as a polynomial in w:
    NS_i(w) = sum_j C(j, i) num_j w^(j-i), DS_i likewise from den, and
    A_i = NS_i - w*DS_i."""
    ctx = f.ctx
    ns, ds = (rf._trim([c[j].scale(math.comb(j, i))
                        for j in range(i, len(c))]) for c in (f.num, f.den))
    if which:
        return ds
    return ctx.ring.sub(ns, [ctx.zero, *ds] if ds else [])


def _ray_lines_at(f: RationalMapK, anchor):
    """Lines for a ray anchored at an element, a handle, or a cluster stub.
    A handle, exact or not, gets exact lines through the true root
    (`_tail_lines`); an element, or a stub's center, serves verbatim (a
    stub's rays stop at the radius, above which every disk element is an
    equivalent center)."""
    if isinstance(anchor, RootHandle):
        return _tail_lines(f, anchor)
    a = anchor.center if isinstance(anchor, ClusterStub) else anchor
    b, e = translate(f.ctx, f.num, f.den, a)
    return bk._expansion_lines(e, b)


def _annotate_ray(f: RationalMapK, ray: ScaffoldRay, lines,
                  vertex_points: List[Tuple[TypeIIPoint, LocalData]],
                  cids: Dict[tuple, int]):
    """Decompose the ray into segments and breakpoints, given the valuation
    lines of its anchor (`_ray_lines_at`): the one path from valuation lines
    to segments and reduced breakpoints, for skeleton rays.  An integral
    breakpoint already in `vertex_points` (the same disk point under any
    center, found by its `TypeIIPoint.key` in `cids`, which maps each key to
    its index there) reuses that reduction; a new one is reduced and
    appended."""
    ctx = f.ctx
    one = ctx.residue_field.one
    # center element used for segment records and reductions
    max_s = ray.s_hi if ray.s_hi is not INF else Fraction(0)
    segments, breaks = segments_from_lines(one, lines, ray.s_lo, ray.s_hi)
    if breaks:
        max_s = max(max_s, max(breaks))
    center = ray.center_elem(max_s + 1)
    ray.segments = [RaySegment(center, *seg) for seg in segments]
    ray.breakpoints = []
    for s in breaks:
        if ctx.nval_of(s) is None:
            # the radius lies outside the value group of E(p, n, k): no
            # reduction is taken there, and the breakpoint is recorded bare
            # (no stop of the ray), so the assembly passes fixedness
            # through it by closure
            ray.breakpoints.append(RayBreakpoint(s))
            continue
        pt = TypeIIPoint(center, s)
        cid = cids.setdefault(pt.key(), len(vertex_points))
        if cid == len(vertex_points):
            vertex_points.append((pt, reduce_at(f, pt)))
        ray.breakpoints.append(RayBreakpoint(s, cid))


def _critical_point_handles(f: RationalMapK,
                            config: ExploreConfig) -> list:
    """Handles for the finite critical points of f that are not themselves
    fixed (fixed ones already appear as leaves).  Conjugate clusters whose
    separation would exceed the extension budget come back as ClusterStub
    entries: they still anchor the hull down to their radius, and nothing of
    positive weight can hide below an unsplit cluster without breaking the
    global weight total."""
    ctx = f.ctx
    N = f.derivative_numerator()
    P = f.fixed_point_polynomial()
    out: list = []
    if poly_deg(N) < 1:
        return out
    for g, _ in _squarefree_parts(ctx, N):
        if P and poly_deg(P) >= 1:
            common = ctx.ring.gcd(g, P)
            if poly_deg(common) >= 1:
                g = ctx.ring.divmod(g, common)[0]
        if poly_deg(g) >= 1:
            out += isolate_roots(ctx, g, budget=(config.n_max, config.k_max))
    return out


def _anchor_distance(a, b) -> Fraction:
    """Join level of two hull anchors.  A cluster stub stands for the disk
    point at its radius, so joins through it cap at the radius; the capped
    values still satisfy the ultrametric inequality."""
    if isinstance(a, ClusterStub) or isinstance(b, ClusterStub):
        if isinstance(a, ClusterStub) and isinstance(b, ClusterStub):
            diff = a.center - b.center
            raw = INF if diff.is_zero() else diff.val()
        else:
            h, stub = (a, b) if isinstance(b, ClusterStub) else (b, a)
            raw = h.distance_to_point(stub.center)
        cap = min(x.radius for x in (a, b) if isinstance(x, ClusterStub))
        return min(raw, cap)
    return a.distance_to(b)


def _emit_join_tree(rays: List[ScaffoldRay], anchors, dist, group: List[int],
                    s_lo, to_infinity: bool):
    """Append the rays of the join tree of `group` (ascending anchor
    indices) below the level s_lo.  The group joins at the shallowest
    pairwise level; its classes under `dist > level`, found in ascending
    order, are the children.  A join's ray is anchored at its least member,
    and the children follow in the order of their least members.  The top
    group carries the upward ray toward infinity, after its subtree."""
    anchor, leaf_idx = anchors[group[0]]
    if len(group) == 1:
        hi = anchor.radius if isinstance(anchor, ClusterStub) else INF
        if hi is INF or hi > s_lo:  # a stub may sit exactly at the join
            rays.append(ScaffoldRay(len(rays), anchor, s_lo, hi,
                                    leaf_idx=leaf_idx,
                                    to_infinity=to_infinity))
        return
    level = min(dist[i, j] for i, j in itertools.combinations(group, 2))
    classes: List[List[int]] = []
    for i in group:
        cls = next((c for c in classes if dist[c[0], i] > level), None)
        if cls is None:
            classes.append([i])
        else:
            cls.append(i)
    class_of = {i: k for k, c in enumerate(classes) for i in c}
    for i, j in itertools.combinations(group, 2):
        if (dist[i, j] > level) != (class_of[i] == class_of[j]):
            raise CheckFailed(f"anchor distances are not ultrametric: "
                              f"anchors {i} and {j} at distance {dist[i, j]} "
                              f"split wrongly at the join level {level}")
    if not to_infinity:
        rays.append(ScaffoldRay(len(rays), anchor, s_lo, level,
                                leaf_idx=None, to_infinity=False))
    for c in classes:
        _emit_join_tree(rays, anchors, dist, c, level, to_infinity=False)
    if to_infinity:
        rays.append(ScaffoldRay(len(rays), anchor, NEG_INF, level,
                                leaf_idx=None, to_infinity=True))


def gamma_fix(f: RationalMapK,
              config: Optional[ExploreConfig] = None) -> SkeletonGraph:
    """The annotated connected hull of the classical fixed points, the finite
    critical points, and the ray toward infinity.

    Both kinds of point are isolated before any ray line is read, so an
    attempt that asks for an extension is thrown away before it reads one.
    The classical ones come first, and the order matters: a classical
    request beyond the budget ends the analysis, while a critical one is
    stubbed (`ClusterStub`), and granting the critical requests first grows
    (n, k), which can push a later classical request past the budget."""
    config = config or ExploreConfig()
    fixed = classical_fixed_points(f)
    aux = _critical_point_handles(f, config)
    leaves = [_leaf(f, value, m) for value, m in fixed]
    # anchors: (handle, index into leaves or None for a critical point)
    anchors: List[Tuple[RootHandle, Optional[int]]] = \
        [(cp.value, i) for i, cp in enumerate(leaves)
         if not cp.is_infinity()] + [(h, None) for h in aux]

    rays: List[ScaffoldRay] = []
    if anchors:
        dist = {(i, j): _anchor_distance(anchors[i][0], anchors[j][0])
                for i, j in itertools.combinations(range(len(anchors)), 2)}
        _emit_join_tree(rays, anchors, dist, list(range(len(anchors))),
                        NEG_INF, to_infinity=True)
    else:
        rays.append(ScaffoldRay(0, f.ctx.zero, NEG_INF, INF, leaf_idx=None,
                                to_infinity=True))

    vertex_points: List[Tuple[TypeIIPoint, LocalData]] = []
    cids: Dict[tuple, int] = {}
    # the ray lines of each anchor, by its id, read once: a leaf's are the
    # lines it was built from
    lines = {id(cp.value): cp.lines for cp in leaves}
    for ray in rays:
        key = id(ray.anchor)
        if key not in lines:
            lines[key] = _ray_lines_at(f, ray.anchor)
        _annotate_ray(f, ray, lines[key], vertex_points, cids)
    return SkeletonGraph(leaves=leaves, aux_leaves=aux, rays=rays,
                         vertex_points=vertex_points)


def ray_stops(skeleton: SkeletonGraph,
              ray: ScaffoldRay) -> Dict[object, tuple]:
    """The points at which the ray's segments end, by s in ascending order:
    the point oo, ("leaf", i), at s = NEG_INF on the upward ray when it is a
    classical fixed point, ("bp", cid) at each reduced breakpoint, and the
    classical leaf ("leaf", i) at s = INF.  The one reading of a ray's ends:
    the components, multiplier reciprocity and the `tree` subcommand find
    the point at the end of a segment only here."""
    stops = {}
    if ray.to_infinity:
        for i, cp in enumerate(skeleton.leaves):
            if cp.is_infinity():
                stops[NEG_INF] = ("leaf", i)
    stops.update((bp.s, ("bp", bp.cid)) for bp in ray.breakpoints
                 if bp.cid is not None)
    if ray.leaf_idx is not None:
        stops[INF] = ("leaf", ray.leaf_idx)
    return stops


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

@dataclass
class Component:
    kind: str
    classical_points: List[ClassicalFixedPoint]
    repelling_vertices: List[Tuple[TypeIIPoint, int, int]]  # (pt, deg, n_cf)
    arcs: List[RaySegment]
    fixed_vertices: List[Tuple[TypeIIPoint, LocalData]]
    alpha: int
    residue_field: object = None
    atom_adj: Dict[tuple, List[tuple]] = dc_field(default_factory=dict)
    bp_class: Dict[tuple, str] = dc_field(default_factory=dict)

    @property
    def classical_multiplicity(self) -> int:
        return sum(cp.multiplicity for cp in self.classical_points)


@dataclass
class CrucialPoint:
    point: TypeIIPoint
    weight: int
    fixed: bool
    detail: dict


@dataclass
class Analysis:
    """Full certificate for one map."""

    map: RationalMapK
    classical_points: List[ClassicalFixedPoint]
    skeleton: SkeletonGraph
    components: List[Component]
    crucial_points: List[CrucialPoint]
    weight_total: int
    complete_rigorous: bool
    diagnostics: List[str]


def _assemble(f: RationalMapK, skeleton: SkeletonGraph) -> List[Component]:
    """Components of the fixed locus: the connected groups of fixed atoms
    (classical leaves, breakpoints by `cid`, ray segments) of the skeleton,
    in the order their first atom was added."""
    atoms: Dict[tuple, dict] = {}
    adj: Dict[tuple, set] = {}

    def add_atom(aid, fixed, payload):
        atoms[aid] = {"fixed": fixed, **payload}
        adj[aid] = set()

    def connect(a, b):
        adj[a].add(b)
        adj[b].add(a)

    for i, cp in enumerate(skeleton.leaves):
        add_atom(("leaf", i), True, {"cp": cp})
    for cid, (pt, local) in enumerate(skeleton.vertex_points):
        add_atom(("bp", cid), local.is_fixed, {"pt": pt, "local": local})

    for ray in skeleton.rays:
        stops = ray_stops(skeleton, ray)
        prev = None
        for si, seg in enumerate(ray.segments):
            aid = ("seg", ray.ray_id, si)
            add_atom(aid, seg.behavior != NOT_FIXED, {"seg": seg})
            if seg.s_lo in stops:
                connect(aid, stops[seg.s_lo])
            elif prev is not None:
                # neighbouring segments meeting at a bare breakpoint touch
                # at a single point of weight 0; the fixed locus is closed,
                # so fixedness passes straight through
                connect(aid, prev)
            if seg.s_hi in stops:
                connect(aid, stops[seg.s_hi])
            prev = aid

    # label fixed atoms by a traversal of adj, in insertion order
    comp_of: Dict[tuple, tuple] = {}
    groups: Dict[tuple, List[tuple]] = {}
    for aid, info in atoms.items():
        if not info["fixed"]:
            continue
        if aid not in comp_of:
            comp_of[aid] = aid
            stack = [aid]
            while stack:
                for b in adj[stack.pop()]:
                    if atoms[b]["fixed"] and b not in comp_of:
                        comp_of[b] = aid
                        stack.append(b)
        groups.setdefault(comp_of[aid], []).append(aid)

    components = []
    for root, aids in groups.items():
        classical = [atoms[a]["cp"] for a in aids if a[0] == "leaf"]
        fixed_vertices = [(atoms[a]["pt"], atoms[a]["local"])
                          for a in aids if a[0] == "bp"]
        repelling = [(pt, ld.local_degree, ld.n_cf)
                     for pt, ld in fixed_vertices
                     if ld.indifference_class == REPELLING]
        arcs = [atoms[a]["seg"] for a in aids if a[0] == "seg"]
        alpha = sum(deg - 1 - ncf for _, deg, ncf in repelling)
        if repelling:
            kind = KIND_HYPERBOLIC if not classical else KIND_PEAKED
        elif len(classical) == 1 and not fixed_vertices and not arcs and \
                classical[0].klass in (ATTRACTING, REPELLING_CLASS):
            kind = KIND_CLASSICAL
        else:
            kind = KIND_INDIFFERENT
        comp = Component(kind=kind, classical_points=classical,
                         repelling_vertices=repelling, arcs=arcs,
                         fixed_vertices=fixed_vertices, alpha=alpha,
                         residue_field=f.ctx.residue_field,
                         atom_adj={a: sorted(x for x in adj[a]
                                             if comp_of.get(x) == root)
                                   for a in aids},
                         bp_class={a: atoms[a]["local"].indifference_class
                                   for a in aids if a[0] == "bp"})
        components.append(comp)
    components.sort(key=lambda c: (c.kind, -c.classical_multiplicity))
    return components


def _leaf_directions(skeleton: SkeletonGraph, pt: TypeIIPoint):
    """Map direction-key -> (direction, leaf indices) for the classical
    points' tangent directions at pt."""
    out: Dict[tuple, Tuple[object, List[int]]] = {}
    for i, cp in enumerate(skeleton.leaves):
        d = INF_POINT if cp.is_infinity() else cp.value.direction_at(pt)
        out.setdefault(rf.direction_key(d), (d, []))[1].append(i)
    return out


def crucial_weights_from(
        skeleton: SkeletonGraph) -> Tuple[List[CrucialPoint], int]:
    out = []
    for pt, local in skeleton.vertex_points:
        dirs = _leaf_directions(skeleton, pt)
        if local.is_fixed:
            # the leaf directions the tangent map does not fix
            n_shear = sum(local.multiplier_at(key) is None for key in dirs)
            w = local.local_degree - 1 + n_shear
            if w > 0:
                out.append(CrucialPoint(pt, w, True,
                                        {"degree": local.local_degree,
                                         "n_shear": n_shear}))
        else:
            v = len(dirs)
            w = max(0, v - 2)
            if w > 0:
                out.append(CrucialPoint(pt, w, False, {"v": v}))
    return out, sum(c.weight for c in out)


# ---------------------------------------------------------------------------
# Top-level analysis with extension retries
# ---------------------------------------------------------------------------

def in_tower(f: RationalMapK, config: ExploreConfig, attempt):
    """attempt(g, config) for g = f embedded into the smallest tower
    E(p, n, k) over f's own context that the attempts ask for.  Each
    `NeedsExtension` takes n and k to their lcm with the request, and the
    next attempt runs on f itself, embedded afresh; a request beyond the
    budget is raised, and a k step is refused from an input over k > 1.
    This is the one place that grows the working field."""
    base, g = f.ctx, f
    n, k = base.n, base.k
    if k != 1:
        # an input over k > 1 keeps its generator, so it takes no k step;
        # the attempts read the same budget and stub what it refuses
        config = replace(config, k_max=min(config.k_max, k))
    # no attempt cap: each retry grows (n, k) strictly, within the budget
    while True:
        try:
            return attempt(g, config)
        except NeedsExtension as e:
            new_n = n if e.n is None else math.lcm(n, e.n)
            new_k = k if e.k is None else math.lcm(k, e.k)
            if (new_n, new_k) == (n, k) or new_n > config.n_max \
                    or new_k > config.k_max:
                raise
            n, k = new_n, new_k
            g = embed_map(f, base.extend(n=n, k=k))


def analyze(f: RationalMapK,
            config: Optional[ExploreConfig] = None) -> Analysis:
    """The certificate of f, in the tower `in_tower` grows for it."""
    # `_analyze_once` is looked up per call, so a wrapper patched onto the
    # module attribute (the span tracer of perfbench/) sees every attempt
    return in_tower(f, config or ExploreConfig(), _analyze_once)


def _analyze_once(f: RationalMapK, config: ExploreConfig) -> Analysis:
    skeleton = gamma_fix(f, config)
    components = _assemble(f, skeleton)
    crucial, total = crucial_weights_from(skeleton)
    diagnostics = []
    d = f.degree
    stubs = [h for h in skeleton.aux_leaves if isinstance(h, ClusterStub)]
    for stub in stubs:
        diagnostics.append(
            f"critical cluster left unsplit: {stub!r} (separation needs an "
            "extension beyond the budget); region below its radius certified "
            "only through the weight total")
    complete = total == d - 1
    if not complete:
        diagnostics.append(
            f"weight total {total} != degree - 1 = {d - 1}: "
            "exploration incomplete or inconsistent")
    return Analysis(map=f, classical_points=skeleton.leaves,
                    skeleton=skeleton, components=components,
                    crucial_points=crucial, weight_total=total,
                    complete_rigorous=complete, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Theorem checks
# ---------------------------------------------------------------------------

def identification_check(a: Analysis) -> bool:
    """At every fixed skeleton vertex whose tangent map is not the identity,
    each tangent direction holds as many classical fixed points, with
    multiplicity, as its cancelled multiplicity plus its fixed-point
    multiplicity under the tangent map (a Galois orbit of directions counts
    all its conjugates).  The first count comes from root isolation, through
    the leaves' directions that the weights already read, and the second
    from the reduction, so the two are independent.  Every direction with a
    leaf, a cancelled factor or a fixed point of the tangent map is
    compared; False on a mismatch."""
    sk = a.skeleton
    for pt, local in sk.vertex_points:
        if not local.is_fixed or local.indifference_class == ID_INDIFFERENT:
            continue
        held = {key: sum(sk.leaves[i].multiplicity for i in idx)
                for key, (_, idx) in _leaf_directions(sk, pt).items()}
        expected = dict(local.surplus)
        for t in local.fixed_directions():
            expected[t.key()] = expected.get(t.key(), 0) + \
                t.orbit_size * t.multiplicity
        if held != expected:
            return False
    return True


def theorem_a_count(c: Component) -> int:
    """2 + alpha(X) for a non-classical component, checked against the
    directly counted classical multiplicity inside (CheckFailed when they
    differ)."""
    if c.kind == KIND_CLASSICAL:
        raise ClassicalComponent("count applies to non-classical components")
    count = 2 + c.alpha
    if count != c.classical_multiplicity:
        raise CheckFailed(f"counting formula gives {count}, component holds "
                          f"{c.classical_multiplicity}")
    return count


def connectedness_check(a: Analysis) -> bool:
    d = a.map.degree
    if d < 2:
        raise PreconditionViolated("degree >= 2 required")
    sigma = sum((ld.local_degree - 1 - ld.n_cf)
                for _, ld in a.skeleton.vertex_points
                if ld.is_fixed and ld.indifference_class != ID_INDIFFERENT)
    result = sigma == d - 1
    if result != (len(a.components) == 1):
        raise CheckFailed("connectedness criterion disagrees with the "
                          f"component count {len(a.components)}")
    return result


def hyperbolic_checks(c: Component) -> bool:
    if c.kind != KIND_HYPERBOLIC:
        raise NotHyperbolic(f"component is {c.kind}")
    F = c.residue_field
    n = len(c.repelling_vertices)
    # (i) degree congruence in the residue field
    total = F.zero
    for _, deg, _ in c.repelling_vertices:
        total = total + F.from_int(deg)
    if total != F.from_int(n - 1):
        return False
    # (ii) the component is the connected hull of its repelling vertices:
    # every graph-leaf atom of the component must be a repelling vertex
    rep_atoms = {a for a, cls in c.bp_class.items() if cls == REPELLING}
    for a, nbrs in c.atom_adj.items():
        if len(nbrs) <= 1 and a not in rep_atoms:
            return False
    # (iii) no id-/additively indifferent annotation inside
    for cls in c.bp_class.values():
        if cls in (ID_INDIFFERENT, ADD_INDIFFERENT):
            return False
    for arc in c.arcs:
        if arc.behavior == ID_INDIFFERENT:
            return False
    return True


def theorem_b_check(a: Analysis) -> bool:
    p = a.map.ctx.p
    d = a.map.degree
    if p <= d:
        raise PreconditionViolated(f"requires residue characteristic {p} > "
                                   f"degree {d}")
    if any(c.kind == KIND_HYPERBOLIC for c in a.components):
        return False
    return len(a.components) <= d + 1


def indifferent_checks(c: Component) -> bool:
    if c.kind != KIND_INDIFFERENT:
        raise NotIndifferent(f"component is {c.kind}")
    if c.classical_multiplicity != 2:
        return False
    F = c.residue_field
    pts = c.classical_points
    if len(pts) == 2:
        r1, r2 = pts[0].multiplier_residue, pts[1].multiplier_residue
        if r1 is None or r2 is None or r1 * r2 != F.one:
            return False
        interior_id = (r1 == F.one)
        for arc in c.arcs:
            if interior_id and arc.behavior == MULT_INDIFFERENT:
                return False
            if not interior_id and arc.behavior != MULT_INDIFFERENT:
                return False
    else:
        # one doubled point: interior id-indifferent or additive
        for arc in c.arcs:
            if arc.behavior == MULT_INDIFFERENT:
                return False
    # contains a type-II fixed point
    if not c.fixed_vertices and not c.arcs:
        return False
    return True


def multiplier_reciprocity_check(a: Analysis) -> bool:
    """The tangent multipliers at the two ends of a fixed skeleton segment,
    each in the direction facing along it, multiply to 1 in the residue
    field.  Every fixed segment whose two ends are reduced breakpoints is
    checked: the shallower end faces the direction holding the ray's center,
    whose multiplier is the segment's own, and the deeper end faces
    infinity.  The classical ends are checked too: a fixed segment running
    into a classical leaf carries that leaf's multiplier residue, and the
    fixed upward segment's multiplier times that of the fixed point at
    infinity is 1.  A leaf's multiplier and the last segment into it are
    read off the same lines ("n", 1) and ("d", 0) of the ray into the leaf,
    so that end compares two readings of the same lines, not two
    computations.  False when one of these fails; CheckFailed, whatever
    else fails, when a facing direction is not fixed or the shallower
    multiplier is not the segment's."""
    sk = a.skeleton
    ok = True
    for ray in sk.rays:
        stops = ray_stops(sk, ray)
        for seg in ray.segments:
            if seg.behavior == NOT_FIXED:
                continue
            one = seg.multiplier.field.one
            lo, hi = stops.get(seg.s_lo), stops.get(seg.s_hi)
            if hi and hi[0] == "leaf":
                ok &= seg.multiplier == sk.leaves[hi[1]].multiplier_residue
            if lo and lo[0] == "leaf":  # the point oo
                lam_inf = sk.leaves[lo[1]].multiplier_residue
                ok &= lam_inf is not None and seg.multiplier * lam_inf == one
            if not (lo and hi and lo[0] == hi[0] == "bp"):
                continue
            lam_lo = _facing_multiplier(sk.vertex_points[lo[1]][1], seg.center)
            if lam_lo != seg.multiplier:
                raise CheckFailed(f"multiplier {lam_lo} at s = {seg.s_lo} "
                                  f"differs from the segment's "
                                  f"{seg.multiplier}")
            ok &= lam_lo * _facing_multiplier(sk.vertex_points[hi[1]][1],
                                              None) == one
    return ok


def _facing_multiplier(local: LocalData, center) -> FqElement:
    """The tangent multiplier at `local.point` of the direction holding
    `center` (`TypeIIPoint.direction_of`, in the coordinate of that
    reduction), or of the infinity direction when center is None; 1 on an
    id-indifferent point (`LocalData.multiplier_at`)."""
    pt = local.point
    d = INF_POINT if center is None else pt.direction_of(center)
    lam = local.multiplier_at(rf.direction_key(d))
    if lam is None:
        raise CheckFailed(f"the direction {d} at {pt!r} facing along a fixed "
                          "segment is not fixed")
    return lam


def totally_ramified_fixed_point(a: Analysis):
    """A totally ramified classical fixed point, when one is visible: the
    leaf where the map has local degree equal to its degree.  The local
    degree at a fixed point w is the order at t = 0 of
    num(w + t) - w*den(w + t), the least i of a ("n", i) line of the ray
    into the leaf; at infinity, the lines of the point 0 of `f.flip()`."""
    d = a.map.degree
    for cp in a.classical_points:
        if min(key[1] for _, _, key, _ in cp.lines if key[0] == "n") == d:
            return cp
    return None


def totally_ramified_corollary_check(a: Analysis) -> bool:
    if a.map.degree < 2:
        raise PreconditionViolated("degree >= 2 required")
    if totally_ramified_fixed_point(a) is None:
        raise NoTotallyRamifiedFixedPoint("no totally ramified fixed point")
    return not any(c.kind == KIND_INDIFFERENT for c in a.components)


def alpha_sum_check(a: Analysis) -> bool:
    non_classical = [c for c in a.components if c.kind != KIND_CLASSICAL]
    n = len(non_classical)
    c_count = sum(cp.multiplicity for cp in a.classical_points
                  if cp.klass in (ATTRACTING, REPELLING_CLASS))
    lhs = sum(c.alpha for c in non_classical)
    return lhs == a.map.degree + 1 - c_count - 2 * n

