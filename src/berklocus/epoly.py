"""Polynomials over the working field: Newton polygons, disk-localized root
counting, Taylor shifts, and the translation of a map to a center.

Polynomials reuse the coefficient-sequence convention of the residue module
(low degree first, trimmed), and their arithmetic is the context's `ring`,
the same polynomial algorithms that serve the finite fields
(`residue._PolyRing`).  The Newton polygon turns coefficient valuations
into exact root valuations, which is how every disk question is answered
without ever realizing a root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import CheckFailed, ZeroPolynomial
from .field import INF, FieldElement, PrimeContext
from .residue import _trim

__all__ = [
    "NewtonPolygon", "epoly", "newton_polygon", "count_roots_in_disk",
    "root_valuations", "poly_shift", "poly_scale_arg", "translate",
]


def epoly(ctx: PrimeContext, entries) -> tuple:
    """Build a polynomial over the working field from rationals or elements."""
    out = []
    for c in entries:
        out.append(c if isinstance(c, FieldElement) else ctx.from_rational(c))
    return _trim(out)


# ---------------------------------------------------------------------------
# Newton polygon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull data of a nonzero polynomial.

    `segments` lists (slope, horizontal length) with strictly increasing
    slopes, so collinear points never split a segment; each segment
    accounts for `length` roots of valuation equal to the negated slope.
    `vanishing_order` counts the roots at 0 itself.
    """

    segments: Tuple[Tuple[Fraction, int], ...]
    vanishing_order: int


def newton_polygon(ctx: PrimeContext, f) -> NewtonPolygon:
    """The hull is built on the int points (i, n * val(f_i)); a slope
    becomes a Fraction only at a segment's ends."""
    if not f:
        raise ZeroPolynomial("Newton polygon of the zero polynomial")
    pts = [(i, c.nval()) for i, c in enumerate(f) if not c.is_zero()]
    ord0 = pts[0][0]
    # lower convex hull, left to right (monotone chain); popping on >= also
    # drops the middle one of three collinear points
    hull: List[Tuple[int, int]] = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    n = ctx.n
    segments = tuple((Fraction(y2 - y1, (x2 - x1) * n), x2 - x1)
                     for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    if any(a[0] >= b[0] for a, b in zip(segments, segments[1:])):
        raise CheckFailed(f"Newton polygon slopes {list(segments)} do not "
                          "increase")
    return NewtonPolygon(segments=segments, vanishing_order=ord0)


def root_valuations(ctx: PrimeContext, f) -> List[Fraction]:
    """Valuations of all roots in an algebraic closure, with multiplicity;
    roots at 0 are reported with the INF sentinel."""
    np_ = newton_polygon(ctx, f)
    out = [INF] * np_.vanishing_order
    for slope, length in np_.segments:
        out += [-slope] * length
    return out


def poly_shift(ctx: PrimeContext, f, c: FieldElement):
    """Taylor shift: the polynomial z -> f(z + c), whose coefficient i is
    the i-th Taylor coefficient of f at c (the constant term is f(c)).

    Synthetic division in place (von zur Gathen & Gerhard, ISSAC 1997):
    pass i folds c into the coefficients above i, so a degree-d input takes
    d(d+1)/2 products with c and none with one.  At c = 0 the input is
    returned unchanged.
    """
    if c.is_zero():
        return f
    a = list(f)
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] = a[j] + c * a[j + 1]
    return tuple(a)


def translate(ctx: PrimeContext, num, den, c: FieldElement):
    """The map num/den moved to the center c: the coefficients of
    b = den(c + t) and e = num(c + t) - c*den(c + t), the numerator of
    f(c + t) - c.  The one place a map is shifted to a center: affine
    conjugation, the ray lines and a root handle's expansion all read it."""
    a = poly_shift(ctx, num, c)
    b = poly_shift(ctx, den, c)
    return b, ctx.ring.add(a, b, -c)


def poly_scale_arg(ctx: PrimeContext, f, u: FieldElement):
    """The polynomial z -> f(u*z)."""
    out = []
    power = ctx.one
    for coeff in f:
        out.append(coeff * power)
        power = power * u
    return _trim(out)


def count_roots_in_disk(ctx: PrimeContext, f, center: FieldElement,
                        s: Fraction, mode: str = "open",
                        polygon: NewtonPolygon = None) -> int:
    """Number of roots x (with multiplicity, in an algebraic closure) with
    val(x - center) > s (open) or >= s (closed).  `polygon`, when given, is
    the Newton polygon of f(center + z) the caller already holds."""
    if mode not in ("open", "closed"):
        raise ValueError(f"disk mode {mode!r} is neither open nor closed")
    if polygon is None:
        if not f:
            raise ZeroPolynomial("root counting needs a nonzero polynomial")
        polygon = newton_polygon(ctx, poly_shift(ctx, f, center))
    count = polygon.vanishing_order  # the center itself, val = INF
    for slope, length in polygon.segments:
        v = -slope
        if v > s or (mode == "closed" and v == s):
            count += length
    return count
