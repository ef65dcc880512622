"""Closed-form answers for degree-1 maps, a fixture suite, and a second
implementation of the fixedness test.

Everything in this module is deliberately independent of the exploration
engine: the degree-1 classification reduces a map to one of five normal forms
by explicit coordinate changes and answers membership questions from the known
shape of each fixed locus, and `brute_is_fixed` re-derives fixedness of a disk
point from scratch with its own conjugation and normalization code.  The
fixture list collects the maps used throughout the test suite together with
their externally known facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .berkmap import RationalMapK, TypeIIPoint, normalize
from .errors import CheckFailed, NeedsExtension, NotDegreeOne, WrongCase
from .field import FieldElement, PrimeContext
from .residue import INF_POINT, Infinity, poly_deg

__all__ = [
    "MOEBIUS_IDENTITY", "MOEBIUS_TRANSLATION", "MOEBIUS_SCALING_NONUNIT",
    "MOEBIUS_SCALING_UNIT_NONTRIVIAL", "MOEBIUS_SCALING_UNIT_TRIVIAL",
    "MoebiusFixDescription", "classify_moebius", "moebius_membership",
    "tube_radius", "Fixture", "fixtures", "brute_is_fixed",
]

MOEBIUS_IDENTITY = "identity"
MOEBIUS_TRANSLATION = "translation"
MOEBIUS_SCALING_NONUNIT = "scaling-nonunit"
MOEBIUS_SCALING_UNIT_NONTRIVIAL = "scaling-unit-nontrivial-residue"
MOEBIUS_SCALING_UNIT_TRIVIAL = "scaling-unit-trivial-residue"


@dataclass(frozen=True)
class MoebiusFixDescription:
    """Normal form of a degree-1 map.

    `chain` is the sequence of coordinate changes taking the original
    coordinate to the normal one, each a tuple:

        ("shift", c)  w = z - c
        ("scale", u)  w = z / u
        ("invert",)   w = 1 / z

    In the normal coordinate the map is w + 1 (translation case) or lam * w
    (scaling cases); `classical` lists the exact classical fixed points in
    the *original* coordinate with multiplicities.
    """

    case: str
    chain: tuple
    lam: Optional[FieldElement]
    classical: Tuple[Tuple[Union[FieldElement, Infinity], int], ...]


def _transport(pt: TypeIIPoint, chain) -> TypeIIPoint:
    """Exact image of a disk point under a chain of degree-1 coordinate
    changes."""
    a, s = pt.center, Fraction(pt.s)
    ctx = a.ctx
    for op in chain:
        if op[0] == "shift":
            a = a - op[1]
        elif op[0] == "scale":
            u = op[1]
            s = s - u.val()
            a = a / u
        else:  # invert: disks containing 0 flip to disks around 0
            if a.is_zero() or a.val() >= s:
                a, s = ctx.zero, -s
            else:
                s = s - 2 * a.val()
                a = a.inverse()
    return TypeIIPoint(a, s)


def _exact_quadratic_roots(ctx: PrimeContext, P):
    """Roots (value, multiplicity) of a degree-<=2 polynomial, required to be
    exactly representable in the working field."""
    from .fixlocus import _squarefree_parts
    from .roots import isolate_roots
    out = []
    for g, m in _squarefree_parts(ctx, P):
        for h in isolate_roots(ctx, g):
            if not h.is_exact:
                raise NeedsExtension(
                    detail="fixed point is not exactly representable; "
                           "closed-form classification needs exact roots")
            out.append((h.center, m))
    return out


def _scaling_case(lam: FieldElement, one: FieldElement) -> str:
    if lam.val() != 0:
        return MOEBIUS_SCALING_NONUNIT
    if lam.unit_residue() != one.residue():
        return MOEBIUS_SCALING_UNIT_NONTRIVIAL
    return MOEBIUS_SCALING_UNIT_TRIVIAL


def classify_moebius(f: RationalMapK) -> MoebiusFixDescription:
    """Sort a degree-1 map into one of the five closed-form cases and record
    the normalizing coordinate change."""
    if f.degree != 1:
        raise NotDegreeOne(f"map has degree {f.degree}")
    ctx = f.ctx
    one = ctx.one
    if f.is_identity():
        return MoebiusFixDescription(MOEBIUS_IDENTITY, (), None, ())
    if poly_deg(f.den) == 0:
        a1 = f.num[1] / f.den[0]
        b = (f.num[0] / f.den[0]) if f.num[0:1] else ctx.zero
        if a1 == one:
            # translation z + b; w = z / b turns it into w + 1
            return MoebiusFixDescription(
                MOEBIUS_TRANSLATION, (("scale", b),), None,
                ((INF_POINT, 2),))
        x = b / (one - a1)
        return MoebiusFixDescription(
            _scaling_case(a1, one), (("shift", x),), a1,
            ((x, 1), (INF_POINT, 1)))
    # genuine fractional-linear map: both fixed points are finite roots of
    # the degree-2 fixed-point polynomial
    P = f.fixed_point_polynomial()
    if poly_deg(P) != 2:
        raise CheckFailed(f"a fractional-linear map has a fixed-point "
                          f"polynomial of degree {poly_deg(P)}")
    roots = _exact_quadratic_roots(ctx, P)
    if len(roots) == 1:
        # doubled fixed point w0: send it to infinity and read off the
        # translation parameter of the resulting affine map
        w0, m = roots[0]
        g = f.conjugate_affine(one, w0).flip()
        if m != 2 or poly_deg(g.den) != 0 or poly_deg(g.num) != 1 \
                or g.num[1] / g.den[0] != one:
            raise CheckFailed("the doubled fixed point does not conjugate "
                              "to a translation")
        b = g.num[0] / g.den[0]
        return MoebiusFixDescription(
            MOEBIUS_TRANSLATION, (("shift", w0), ("invert",), ("scale", b)),
            None, ((w0, 2),))
    (x, mx), (y, my) = roots
    if mx != 1 or my != 1:
        raise CheckFailed("two distinct roots of a quadratic are not simple")
    # f = (a z + b) / (c z + e), so f'(x) = (a e - b c) / (c x + e)^2
    b, a = (f.num + (ctx.zero,))[:2]
    e, c = f.den
    lam = (a * e - b * c) / ((c * x + e) * (c * x + e))
    chain = (("shift", y), ("invert",), ("shift", (x - y).inverse()))
    return MoebiusFixDescription(
        _scaling_case(lam, one), chain, lam, ((x, 1), (y, 1)))


def moebius_membership(desc: MoebiusFixDescription, x: TypeIIPoint) -> bool:
    """Whether the disk point belongs to the fixed locus, answered from the
    closed form of the normal-form case."""
    if desc.case == MOEBIUS_IDENTITY:
        return True
    pt = _transport(x, desc.chain)
    a, s = pt.center, pt.s
    if desc.case == MOEBIUS_TRANSLATION:
        # w + 1 fixes exactly the disks of radius >= 1
        return s <= 0
    if desc.case == MOEBIUS_SCALING_NONUNIT:
        # only the two classical endpoints are fixed
        return False
    if desc.case == MOEBIUS_SCALING_UNIT_NONTRIVIAL:
        # exactly the arc between the two classical fixed points
        return a.is_zero() or a.val() >= s
    # unit multiplier with trivial residue: the closed tube of radius
    # val(lam - 1) around the arc between the fixed points
    if a.is_zero():
        return True
    rho = (desc.lam - desc.lam.ctx.one).val()
    return s <= a.val() + rho


def tube_radius(desc: MoebiusFixDescription) -> Optional[Fraction]:
    """Radius parameter of the fixed tube around the invariant arc: finite
    for a unit multiplier with trivial residue, unbounded (None) for a
    translation, undefined otherwise."""
    if desc.case == MOEBIUS_TRANSLATION:
        return None
    if desc.case == MOEBIUS_SCALING_UNIT_TRIVIAL:
        return (desc.lam - desc.lam.ctx.one).val()
    raise WrongCase(f"no tube in case {desc.case!r}")


# ---------------------------------------------------------------------------
# Fixture suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fixture:
    """One named test map with its externally known facts.

    `expected` holds only facts established outside the exploration engine:
    the degree, the weight total it forces, the degree-1 case label, and
    structural flags derived in scripts/derive_expected.py.
    """

    name: str
    p: int
    num: tuple
    den: tuple
    family: str
    expected: dict = dc_field(default_factory=dict)

    def build(self) -> RationalMapK:
        ctx = PrimeContext(self.p, 1, 1)
        return normalize(ctx, [Fraction(c) for c in self.num],
                         [Fraction(c) for c in self.den])


def _segment_coeffs(p: int, d: int, t: int):
    num = [0] * (d - p + 3)
    num[d - p + 2] = t
    num[2] += 2
    den = [0] * (d + 1)
    den[d] = -t ** (2 * p - 1)
    den[d - p + 1] += 2 * t
    den[1] += 4
    den[0] += -2
    return tuple(num), tuple(den)


def _quad_coeffs(a, b, T):
    a, b, T = Fraction(a), Fraction(b), Fraction(T)
    return (Fraction(0), a * (b + T), Fraction(1)), (a, 1 / b + T)


def fixtures() -> List[Fixture]:
    out = []

    def add(name, p, num, den, family, **expected):
        out.append(Fixture(name, p, tuple(num), tuple(den), family, expected))

    # degree 1: one representative per closed-form case, plus an inversion
    # exercising the fractional-linear classification path
    add("moebius-identity", 5, (0, 1), (1,), "moebius",
        degree=1, case=MOEBIUS_IDENTITY)
    add("moebius-translation", 5, (1, 1), (1,), "moebius",
        degree=1, case=MOEBIUS_TRANSLATION, weight_total=0)
    add("moebius-scaling-nonunit", 5, (0, 5), (1,), "moebius",
        degree=1, case=MOEBIUS_SCALING_NONUNIT, weight_total=0)
    add("moebius-scaling-unit-nontrivial", 5, (0, 2), (1,), "moebius",
        degree=1, case=MOEBIUS_SCALING_UNIT_NONTRIVIAL, weight_total=0)
    add("moebius-scaling-unit-trivial", 5, (0, 6), (1,), "moebius",
        degree=1, case=MOEBIUS_SCALING_UNIT_TRIVIAL, weight_total=0,
        tube_radius="1")
    add("moebius-inversion", 5, (1,), (0, 1), "moebius",
        degree=1, case=MOEBIUS_SCALING_UNIT_NONTRIVIAL, weight_total=0)

    # tame power maps
    for d in (2, 3, 4):
        add(f"power-{d}", 5, (0,) * d + (1,), (1,), "power",
            degree=d, weight_total=d - 1)

    # wild polynomials t z^d + z^p with t = p^(d - p); d = p is z^p itself
    for p in (3, 5):
        for d in (p, p + 1, 2 * p):
            t = p ** (d - p)
            num = [0] * (d + 1)
            num[p] += 1
            num[d] += t
            add(f"wild-p{p}-d{d}", p, num, (1,), "wild",
                degree=d, weight_total=d - 1, hyperbolic=True)

    # maps whose fixed locus contains a hyperbolic segment between two
    # repelling vertices
    for p, d, t in ((3, 4, 3), (5, 6, 5)):
        num, den = _segment_coeffs(p, d, t)
        add(f"segment-p{p}-d{d}", p, num, den, "segment",
            degree=d, weight_total=d - 1, hyperbolic=True,
            min_repelling=2)

    # quadratic family with an attracting/repelling pair, an indifferent
    # branch, and a doubled classical fixed point
    for tag, (a, b, T) in (("repelling", (1, 2, 5)),
                           ("indifferent", (1, 26, 5)),
                           ("doubled", (1, -4, 5))):
        num, den = _quad_coeffs(a, b, T)
        add(f"quadratic-{tag}", 5, num, den, "quadratic",
            degree=2, weight_total=1)

    return out


def fixture(name: str) -> Fixture:
    for fx in fixtures():
        if fx.name == name:
            return fx
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Independent fixedness test
# ---------------------------------------------------------------------------

def _conv_linear(ctx: PrimeContext, coeffs, a: FieldElement, u: FieldElement):
    """Coefficients of c(u*z + a) by Horner recursion with a hand-rolled
    convolution (no shared polynomial helpers)."""
    res: tuple = ()
    for c in reversed(coeffs):
        out = [ctx.zero] * (len(res) + 1)
        for i, r in enumerate(res):
            out[i] = out[i] + r * a
            out[i + 1] = out[i + 1] + r * u
        out[0] = out[0] + c
        while out and out[-1].is_zero():
            out.pop()
        res = tuple(out)
    return res


def brute_is_fixed(f: RationalMapK, x: TypeIIPoint) -> bool:
    """Decide whether the disk point is fixed, from first principles.

    Conjugates the map by hand so the point becomes the unit disk, rescales
    by the single coefficient of minimal valuation with the highest position
    (a different convention from the engine's minimal-valuation shift), and
    tests whether the mod-pi reduction is a nonconstant map via vanishing of
    all 2x2 minors of the reduced coefficient vectors.
    """
    ctx = f.ctx
    s = Fraction(x.s)
    if (s * ctx.n).denominator != 1:
        need = ctx.n * s.denominator // math.gcd(ctx.n, s.denominator)
        raise NeedsExtension(n=need, detail=f"radius parameter s = {s}")
    u = ctx.pi_pow(int(s * ctx.n))
    a = x.center
    N = list(_conv_linear(ctx, f.num, a, u))
    D = list(_conv_linear(ctx, f.den, a, u))
    # g = u^{-1} * (f(u z + a) - a): numerator N - a D over denominator u D
    width = max(len(N), len(D) + 1)
    Ng = [ctx.zero] * width
    Dg = [ctx.zero] * width
    for i, c in enumerate(N):
        Ng[i] = Ng[i] + c
    for i, c in enumerate(D):
        Ng[i] = Ng[i] - a * c
        Dg[i] = u * c
    # leading-term normalization: divide by the highest-position coefficient
    # of minimal valuation
    pivot = None
    vmin = None
    for c in Ng + Dg:
        if c.is_zero():
            continue
        v = c.val()
        if vmin is None or v <= vmin:
            vmin, pivot = v, c
    if pivot is None:
        raise CheckFailed("the conjugated map has no nonzero coefficient")
    rn = [(c / pivot).residue() for c in Ng]
    rd = [(c / pivot).residue() for c in Dg]
    # constant as a map over the residue field iff the two coefficient
    # vectors are proportional
    for i in range(width):
        for j in range(i + 1, width):
            if rn[i] * rd[j] != rn[j] * rd[i]:
                return True
    return False
