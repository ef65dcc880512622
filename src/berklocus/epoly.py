"""Polynomials over the working field: Newton polygons, disk-localized root
counting, Taylor shifts, and the translation of a map to a center.

Polynomials reuse the coefficient-sequence convention of the residue module
(low degree first, trimmed), and their arithmetic is the context's `ring`,
the same polynomial algorithms that serve the finite fields
(`residue._PolyRing`).  `newton_polygon` turns coefficient valuations
into exact root valuations, and that tuple is the one reading of a
polygon: the count of roots in a disk about c reads the valuations of
f(c + z), which is how every disk question is answered without ever
realizing a root.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroPolynomial
from .field import INF, FieldElement, PrimeContext
from .residue import _trim

__all__ = [
    "epoly", "lower_hull", "newton_polygon", "count_roots_in_disk",
    "poly_shift", "poly_scale_arg", "translate",
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

def lower_hull(points) -> list:
    """The vertices of the lower convex hull of `points`, sorted by their
    first coordinate, all distinct (Andrew's monotone chain); popping on >=
    also drops the middle one of three collinear points."""
    hull = []
    for x, y in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def newton_polygon(ctx: PrimeContext, f) -> tuple:
    """The valuations of the roots of f in an algebraic closure, with
    multiplicity, in hull order: INF once per root at 0, then the negated
    slope of each hull edge, once per unit of its length.  The hull is built
    on the int points (i, n * val(f_i)); a slope becomes a Fraction only at
    an edge's ends.  `lower_hull` drops collinear points, so the slopes
    strictly increase and the valuations decrease edge by edge."""
    if not f:
        raise ZeroPolynomial("Newton polygon of the zero polynomial")
    hull = lower_hull((i, c.nval()) for i, c in enumerate(f)
                      if not c.is_zero())
    vals = [INF] * hull[0][0]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        vals += [Fraction(y1 - y2, (x2 - x1) * ctx.n)] * (x2 - x1)
    return tuple(vals)


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


def count_roots_in_disk(vals, s: Fraction, mode: str = "open") -> int:
    """Number of roots x (with multiplicity, in an algebraic closure) with
    val(x - c) > s (open) or >= s (closed), read off `vals`, the root
    valuations `newton_polygon` gives for f(c + z)."""
    if mode not in ("open", "closed"):
        raise ValueError(f"disk mode {mode!r} is neither open nor closed")
    return sum(1 for v in vals if v > s or (mode == "closed" and v == s))
