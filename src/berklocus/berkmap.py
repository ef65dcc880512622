"""Rational maps over the working field and their local behavior at points of
the Berkovich line.

`RationalMapK` adds the valuation normal form, equality up to a unit,
affine conjugation and evaluation to the field-agnostic core
`residue.RationalMap`, which the tangent maps over the residue field share.

The central operation is `reduce_at`: conjugate the map so a chosen disk point
becomes the Gauss point, normalize coefficients to minimal valuation zero, and
reduce mod the maximal ideal.  The point is fixed exactly when that reduction
is nonconstant, and the reduced map is the tangent map, whose fixed directions,
multipliers, and cancelled-factor multiplicities drive everything downstream.
Each of these is derived once per reduction: the cancelled multiplicity into
infinity is read off the degrees of the residues already taken.  This module
holds no theorem check: `fixlocus.identification_check` compares the
per-direction counts of a reduction with the classical fixed points that an
`Analysis` isolated, and `embed_map` is called only by `fixlocus.in_tower`,
the one place that grows the working field.  `LocalData.multiplier_at` is
the one reading of whether, and with which multiplier, the tangent map fixes
a direction, and `TypeIIPoint.direction_of` the one reading of the direction
at a disk point that holds a given element, in the coordinate of
`reduce_at`.

Along a ray of disk points with a fixed center, every conjugated coefficient
valuation is an affine function of the radius parameter s
(`_expansion_lines`, off the map translated to the center by
`epoly.translate`; at a root, `fixlocus._tail_lines`), so the reduction's support
-- hence fixedness and the indifference class -- is constant between
breakpoints of a lower envelope of finitely many lines
(`segments_from_lines`).  `fixlocus._annotate_ray` is the one place that
turns those lines into a ray's segments and reduced breakpoints.  No sampling
is used to find structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from . import residue as rf
from .epoly import poly_scale_arg, translate
from .errors import CheckFailed, ConstantMap, NeedsExtension, ZeroDenominator
from .field import INF, NEG_INF, FieldElement, PrimeContext
from .residue import (
    FqElement,
    FqRationalMap,
    RationalMap,
    _trim,
    poly_deg,
    poly_scale,
)

DirectionKey = tuple

NOT_FIXED = "not-fixed"
ID_INDIFFERENT = "id-indifferent"
MULT_INDIFFERENT = "multiplicatively-indifferent"
ADD_INDIFFERENT = "additively-indifferent"
REPELLING = "repelling"


# ---------------------------------------------------------------------------
# Maps and points
# ---------------------------------------------------------------------------

class RationalMapK(RationalMap):
    """A rational map over the working field in normalized form: numerator and
    denominator coprime, all coefficients of valuation >= 0 with at least one
    of valuation exactly 0."""

    _PRINT = ("z", True, " / ")

    def __init__(self, ctx: PrimeContext, num, den, _coprime: bool = False):
        num, den = _trim(num), _trim(den)
        if not den:
            raise ZeroDenominator("denominator is identically zero")
        if not num:
            raise ConstantMap("the zero map is constant")
        if not _coprime:
            R = ctx.ring
            g = R.gcd(num, den)
            if poly_deg(g) > 0:
                num = R.divmod(num, g)[0]
                den = R.divmod(den, g)[0]
        if max(poly_deg(num), poly_deg(den)) < 1:
            raise ConstantMap("map is constant after cancellation")
        shift = min(c.nval() for c in num + den if not c.is_zero())
        self.ctx = ctx
        if shift:
            scale = ctx.pi_pow(-shift)
            num = [c * scale for c in num]
            den = [c * scale for c in den]
        self.num, self.den = tuple(num), tuple(den)

    # -- coordinate changes ----------------------------------------------

    def conjugate_affine(self, u: FieldElement, a: FieldElement) -> "RationalMapK":
        """The map z -> u^(-1) * (f(u*z + a) - a), for u nonzero."""
        if u.is_zero():
            raise ValueError("conjugation by a zero scale")
        ctx = self.ctx
        den_s, num_s = translate(ctx, self.num, self.den, a)
        num_u = poly_scale_arg(ctx, num_s, u)
        den_u = poly_scale(ctx, poly_scale_arg(ctx, den_s, u), u)
        # an invertible coordinate change of a reduced map stays reduced
        return RationalMapK(ctx, num_u, den_u, _coprime=True)


def normalize(ctx: PrimeContext, raw_num, raw_den) -> RationalMapK:
    """Build a normalized map from raw coefficient lists."""
    from .epoly import epoly
    return RationalMapK(ctx, epoly(ctx, raw_num), epoly(ctx, raw_den))


def embed_map(f: RationalMapK, new_ctx: PrimeContext) -> RationalMapK:
    """f over a context that contains its own."""
    # coprimality persists under field extension (the Bezout witness embeds)
    return RationalMapK(new_ctx, [new_ctx.embed(c) for c in f.num],
                        [new_ctx.embed(c) for c in f.den], _coprime=True)


@dataclass(frozen=True)
class TypeIIPoint:
    """The disk point of center `center` and radius p^(-s).

    Negative s reaches the points between the Gauss point and infinity (the
    disk of radius p^(-s) > 1 around any finite center); no separate
    infinity-side chart is needed.
    """

    center: FieldElement
    s: Fraction

    def same_point(self, other: "TypeIIPoint") -> bool:
        if self.s != other.s:
            return False
        d = self.center - other.center
        return d.is_zero() or d.val() >= self.s

    def key(self) -> tuple:
        """The radius and the center truncated at it: equal for two points
        exactly when `same_point` holds, since `truncate` is canonical on
        the classes of congruence at its level."""
        return self.s, self.center.truncate(self.s)

    def direction_of(self, y: FieldElement):
        """The tangent direction at this point that holds the element y, in
        the coordinate of `reduce_at` (z = center + pi^(ns) w): the infinity
        direction when val(y - center) < s, and otherwise the residue of
        (y - center) / pi^(ns).  The one reading of a direction at a disk
        point; CheckFailed when s lies outside the value group."""
        ns = self.center.ctx.nval_of(self.s)
        if ns is None:
            raise CheckFailed(f"a direction at {self!r}, off the value group")
        d = y - self.center
        if d.nval() < ns:
            return rf.INF_POINT
        return d.residue_shifted(ns)

    def __repr__(self):
        return f"zeta({self.center!r}, s={self.s})"


def gauss_point(ctx: PrimeContext) -> TypeIIPoint:
    return TypeIIPoint(ctx.zero, Fraction(0))


# ---------------------------------------------------------------------------
# Local data at a point
# ---------------------------------------------------------------------------

@dataclass
class LocalData:
    """Everything the reduction at one type-II point reveals."""

    point: TypeIIPoint
    is_fixed: bool
    reduced_map: Optional[FqRationalMap]
    local_degree: Optional[int]
    indifference_class: str
    directions: Optional[List[rf.TangentFixedDirection]]  # None: identity map
    surplus: Dict[DirectionKey, int]
    n_cf: Optional[int]

    def surplus_total(self) -> int:
        return sum(self.surplus.values())

    def fixed_directions(self):
        return self.directions or []

    def multiplier_at(self, key: DirectionKey) -> Optional[FqElement]:
        """The tangent multiplier in the direction named by `key`
        (`residue.direction_key` of a point of P^1 over the residue field):
        that of the fixed direction of orbit size 1 there, 1 in every
        direction of an id-indifferent point, and None when the direction
        is not fixed.  The one reading of whether the tangent map fixes a
        direction, off the fixed directions the reduction listed."""
        if self.indifference_class == ID_INDIFFERENT:
            return self.reduced_map.ctx.one
        for t in self.fixed_directions():
            if t.orbit_size == 1 and t.key() == key:
                return t.multiplier
        return None


def _conjugate_to_gauss(f: RationalMapK, x: TypeIIPoint) -> RationalMapK:
    """f in the coordinate w with z = center + pi^(s n) w, in which the disk
    point x is the Gauss point."""
    ctx = f.ctx
    ns = ctx.nval_of(x.s)
    if ns is None:
        raise NeedsExtension(n=math.lcm(ctx.n, x.s.denominator),
                             detail=f"radius parameter s = {x.s}")
    return f.conjugate_affine(ctx.pi_pow(ns), x.center)


def reduce_at(f: RationalMapK, x: TypeIIPoint) -> LocalData:
    """Reduction of f at the disk point x, with full direction data."""
    g = _conjugate_to_gauss(f, x)
    F = f.ctx.residue_field
    rnum, rden = _residues(g)
    if not (rnum or rden):
        raise CheckFailed("normalized map cannot reduce to 0/0")
    # cancelled common factor
    R = F.ring
    if rnum and rden:
        gcd_poly = R.gcd(rnum, rden)
    else:
        gcd_poly = R.monic(rnum or rden)
    cnum = R.divmod(rnum, gcd_poly)[0] if rnum else ()
    cden = R.divmod(rden, gcd_poly)[0] if rden else ()
    surplus = _surplus_table(F, gcd_poly, _infinity_surplus(g, rnum, rden))
    # None: constant 0 or constant infinity
    reduced = FqRationalMap(F, cnum, cden, _coprime=True) \
        if cnum and cden else None
    if reduced is None or reduced.is_constant():
        return LocalData(point=x, is_fixed=False, reduced_map=reduced,
                         local_degree=None, indifference_class=NOT_FIXED,
                         directions=None, surplus=surplus, n_cf=None)
    deg = reduced.degree
    if reduced.is_identity():
        cls, dirs, n_cf = ID_INDIFFERENT, None, 0
    else:
        dirs = reduced.fixed_points()
        n_cf = sum(t.orbit_size for t in dirs if t.critically_fixed)
        if deg > 1:
            cls = REPELLING
        else:
            distinct = sum(t.orbit_size for t in dirs)
            cls = ADD_INDIFFERENT if distinct == 1 else MULT_INDIFFERENT
            if cls == ADD_INDIFFERENT and dirs[0].multiplicity != 2:
                raise CheckFailed("an additively indifferent tangent map "
                                  f"fixes one direction with multiplicity "
                                  f"{dirs[0].multiplicity}, not 2")
    return LocalData(point=x, is_fixed=True, reduced_map=reduced,
                     local_degree=deg, indifference_class=cls,
                     directions=dirs, surplus=surplus, n_cf=n_cf)


def _residues(g: RationalMapK):
    """The reductions of the numerator and denominator of a normalized map."""
    return (_trim([c.residue() for c in g.num]),
            _trim([c.residue() for c in g.den]))


def _surplus_table(F, gcd_poly, inf_surplus: int):
    """Per-direction cancelled multiplicities: the finite directions from
    the factors of the cancelled common factor, then infinity's."""
    table: Dict[DirectionKey, int] = {}
    for q, mult in rf.factor(F, gcd_poly) if poly_deg(gcd_poly) > 0 else []:
        key = rf.direction_key(q)
        table[key] = table.get(key, 0) + mult * poly_deg(q)
    if inf_surplus:
        table[("inf",)] = inf_surplus
    return table


def _infinity_surplus(g: RationalMapK, rnum, rden) -> int:
    """Cancelled multiplicity into the infinity direction of the Gauss point
    for a map g already conjugated there, whose reductions are rnum and
    rden.  The flip of g reduces to their reversals to degree d = deg g, so
    its cancelled factor vanishes at 0 to the order d - max(deg rnum,
    deg rden) exactly: the reversals of the two reductions to their own
    degrees do not vanish at 0."""
    return g.degree - max(poly_deg(rnum), poly_deg(rden))


# ---------------------------------------------------------------------------
# Ray analysis (tropical)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RaySegment:
    """Constant-behavior open interval of radius parameters along the ray of
    disk points with a fixed center."""

    center: FieldElement
    s_lo: Fraction
    s_hi: Fraction
    behavior: str  # NOT_FIXED / ID_INDIFFERENT / MULT_INDIFFERENT
    multiplier: Optional[FqElement]  # constant lambda of the interior w -> lw


@dataclass
class RayBreakpoint:
    """The point zeta(center, s) of a ray at a support change of the lower
    envelope.  On a skeleton ray (`fixlocus.gamma_fix`) `cid` indexes the
    point in `SkeletonGraph.vertex_points`, which holds its one reduction:
    the one id of the point, by which every reader of the skeleton names it
    and finds that reduction.  `cid` is None at a radius outside the value
    group, where no reduction is taken.  A ray's breakpoints are sorted by s
    and, the center being fixed, are distinct points."""

    s: Fraction
    cid: Optional[int] = None


def _expansion_lines(num_s, den_s):
    """The ray's lines off the Taylor coefficients num_s of num(a + t) -
    a*den(a + t) and den_s of den(a + t) at its center a: numerator
    coefficient i gives (slope i, intercept val alpha_i), denominator
    coefficient j gives (slope j + 1, val beta_j); returns the lines as
    (slope, intercept, ("n", i) or ("d", j), unit residue), numerator
    first."""
    lines = []
    for key, shift, coeffs in (("n", 0, num_s), ("d", 1, den_s)):
        for i, c in enumerate(coeffs):
            if not c.is_zero():
                lines.append((Fraction(i + shift), c.val(), (key, i),
                              c.unit_residue()))
    return lines


def segments_from_lines(one: FqElement, lines, s_lo, s_hi):
    """Decompose the lower envelope of valuation lines into constant-support
    segments on [s_lo, s_hi] (either bound may be the +/-INF sentinel).

    Each line is (slope, intercept, family-key, unit-residue), with family
    keys ("n", i) for numerator and ("d", j) for denominator coefficients.
    Returns the classified segments as (s_lo, s_hi, behavior, multiplier)
    and the sorted finite breakpoint values (support changes plus finite
    endpoints).

    The envelope is walked along its hull.  Of the lines of one slope only
    the least intercept can be on it, with every key that attains it as
    its support.  The walk starts from the lowest line just above s_lo (the
    steepest when s_lo is NEG_INF, the smallest slope on a tie) and steps
    to the nearest crossing with a smaller slope, the smallest slope on a
    tie, until the crossing reaches s_hi.
    """
    if s_lo is not NEG_INF and s_hi is not INF and not s_lo < s_hi:
        raise CheckFailed(f"empty envelope interval [{s_lo}, {s_hi}]")
    least = {}  # slope -> (least intercept, the keys attaining it)
    for m, b, key, _ in lines:
        seen = least.get(m)
        if seen is None or b < seen[0]:
            least[m] = (b, [key])
        elif b == seen[0]:
            seen[1].append(key)
    if s_lo is NEG_INF:
        m = max(least)
    else:
        m = min(least, key=lambda m: (m * s_lo + least[m][0], m))
    pieces = []  # (lo, hi, support) of each envelope piece
    lo = s_lo
    while True:
        b = least[m][0]
        step = None  # (crossing, slope) of the next piece
        for m2, (b2, _) in least.items():
            if m2 < m:
                cross = ((b2 - b) / (m - m2), m2)
                if step is None or cross < step:
                    step = cross
        if step is None or s_hi is not INF and step[0] >= s_hi:
            pieces.append((lo, s_hi, least[m][1]))
            break
        pieces.append((lo, step[0], least[m][1]))
        lo, m = step
    line_res = {key: res for _, _, key, res in lines}
    segments = []
    breaks = set()
    for lo, hi, sup in pieces:
        if lo is not NEG_INF:
            breaks.add(lo)
        if hi is not INF:
            breaks.add(hi)
        nkeys = [k for k in sup if k[0] == "n"]
        dkeys = [k for k in sup if k[0] == "d"]
        if len(nkeys) > 1 or len(dkeys) > 1:
            raise CheckFailed(f"the envelope on ({lo}, {hi}) holds two "
                              "lines of one family")
        if nkeys and dkeys:
            lam = line_res[nkeys[0]] / line_res[dkeys[0]]
            behavior = ID_INDIFFERENT if lam == one else MULT_INDIFFERENT
            segments.append((lo, hi, behavior, lam))
        else:
            segments.append((lo, hi, NOT_FIXED, None))
    return segments, sorted(breaks)

