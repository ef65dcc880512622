"""Classical fixed points: localization and arbitrary-precision realization.

Roots of the fixed-point polynomial need not lie in the working field itself
(they live in its completion, or in finite extensions of it).  Each root is
therefore carried as a `RootHandle`: a squarefree polynomial it satisfies plus
a center approximating it to a known exact valuation precision, refinable on
demand by digit steps (reduction factoring) or Newton iteration.  Every
question the global analysis asks of a root -- distance to another root, the
valuation or residue of a polynomial evaluated at it, the direction it
occupies at a disk point -- reduces to a finite refinement followed by an
exact computation, with a rigorous stopping criterion in each case.

A polynomial q at a root takes one exact query, `RootHandle.lead_of`: the
valuation and leading residue digit of q(root) together, or None when q
vanishes there, read off the Taylor expansion of q at the center, for an
exact handle as for an inexact one.  The Taylor coefficients come as an
iterable, each one a list of parts (m, x), an int times a field element,
summed only when the valuations cannot decide; q_0 is read first, and the
others only until one decides, so an expansion that builds each
coefficient when it is read builds no more than the query needs.  Once the
handle is exact -- from the start, or after a refinement lands on the
root -- the constant term of the expansion is q(root) itself and no other
coefficient is read.  Until then the perturbation bound decides; when it
cannot, q vanishes at the root if the root's polynomial divides it, and the
gcd with that polynomial runs only as the last fallback.  A handle keeps one
Taylor shift of a map's denominator and of its fixed-point numerator per
center (`RootHandle.expansion`), and every polynomial the analysis reads at
a root -- the coefficients of the ray lines into a leaf, off which the
leaf reads its multiplier and local degree -- takes its expansion off that
one shift instead of shifting itself.
`RootHandle.lead_at`, the same query for a q given whole and shifted to
each center, is the tests' reference for `lead_of`; the engine does not
call it.  The direction of a root at a disk point zeta(c, s) needs no
query: once `distance_to_point` has refined the handle to
prec > val(root - c), the center lies in the root's direction there, and
`berkmap.TypeIIPoint.direction_of`, the one reading of a direction at a
disk point, reads it off the center.
Isolation likewise shifts g once per candidate center and reads the root
count, the initial precision and the next level off the root valuations of
that one shift, as a refinement reads the new precision off those at its new
center.

Rational-coefficient polynomials are pre-split over the rationals so rational
roots come out exact; everything else stays a handle.  The split finds the
rational roots by p-adic expansion (R. Loos, SIAM J. Comput. 12, 1983; von
zur Gathen & Gerhard, Modern Computer Algebra, ch. 15), on ints: the roots
modulo the least auxiliary prime q that keeps the primitive integer
polynomial squarefree, each Newton-lifted until q^m > 2 |a_0 a_d|, where the
symmetric residue of a_d r mod q^m is a_d times any rational root; a
candidate is kept only when the polynomial vanishes at it exactly.  The
cofactor of the linear factors stays whole, so a polynomial with two or more
nonlinear irreducible factors over Q is isolated as one: its roots are the
same, but they come out in another order, with other centers, than a full
factorization over Q would give.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from . import residue as rf
from .epoly import count_roots_in_disk, epoly, newton_polygon, poly_shift, \
    poly_scale_arg, translate
from .errors import CheckFailed, NeedsExtension
from .field import INF, NEG_INF, FieldElement, PrimeContext, _is_prime, _vp
from .residue import (
    Infinity,
    _trim,
    poly_deg,
    poly_eval,
)

_MAX_REFINE = 200  # hard stop against runaway refinement loops


class RootHandle:
    """One root of a squarefree polynomial over the working field, known
    through a center with val(root - center) = prec exactly (INF when the
    center is the root itself)."""

    def __init__(self, ctx: PrimeContext, g, center: FieldElement,
                 prec: Fraction):
        self.ctx = ctx
        self.g = g
        self.center = center
        self.prec = prec
        self._dg = ctx.ring.deriv(g)
        # (center, num, den, b, e) of the last `expansion` call; stale,
        # and recomputed, once the center has moved
        self._expansion = None

    @property
    def is_exact(self) -> bool:
        return self.prec is INF

    def __repr__(self):
        if self.is_exact:
            return f"root({self.center!r})"
        return f"root(~{self.center!r}, prec={self.prec})"

    # -- refinement -------------------------------------------------------

    def refine(self):
        """One improvement step: a Newton step when it converges, a digit
        step otherwise."""
        ctx = self.ctx
        gc = poly_eval(ctx, self.g, self.center)
        dgc = poly_eval(ctx, self._dg, self.center)
        if not dgc.is_zero() and gc.nval() > 2 * dgc.nval():
            # Newton step, quadratic convergence
            self._move(self.center - gc / dgc)
        else:
            self._digit_step()

    def _move(self, center: FieldElement):
        """Move to a center nearer the root: prec is read off the root
        valuations of g there (`_initial_prec`), and digits of the center
        beyond it are dropped; any representative agreeing with the root to
        depth prec is as good, and the small one keeps later exact
        arithmetic affordable.  Truncating at prec + 1 keeps
        val(root - center) = prec, so a finite prec never meets a center
        at which g vanishes."""
        ctx = self.ctx
        vals = newton_polygon(ctx, poly_shift(ctx, self.g, center))
        self.prec = _initial_prec(vals, self.prec)
        self.center = center if self.prec is INF \
            else center.truncate(self.prec + 1)

    def _digit_step(self):
        """The next residue digit of the root.  It never asks for an
        extension: a finite prec comes from `_initial_prec` as the one root
        above a floor, so it is the slope of a Newton segment of length 1,
        n*prec is an int, and the residual polynomial has exactly one
        nonzero root, which lies in the residue field."""
        ctx = self.ctx
        u, factors = _residual_factors(
            ctx, poly_shift(ctx, self.g, self.center), self._nprec())
        # the nonzero roots of the residual polynomial in the residue field
        digits = [-q[0] for q, _ in factors
                  if poly_deg(q) == 1 and not q[0].is_zero()]
        if len(digits) != 1:
            raise CheckFailed(f"an isolated root has {len(digits)} digits")
        self._move(self.center + u * ctx.lift(digits[0]))

    def _nprec(self) -> int:
        """n*prec for a finite prec, an int by the argument of
        `_digit_step`; CheckFailed when prec lies outside the value
        group."""
        nprec = self.ctx.nval_of(self.prec)
        if nprec is None:
            raise CheckFailed(f"an isolated root at distance {self.prec} "
                              "outside the value group")
        return nprec

    def ensure(self, target: Fraction):
        """Refine until prec > target."""
        for _ in range(_MAX_REFINE):
            if self.prec is INF or self.prec > target:
                return
            self.refine()
        raise CheckFailed("refinement did not reach the requested precision")

    # -- exact queries ----------------------------------------------------

    def distance_to(self, other: "RootHandle") -> Fraction:
        """val(self.root - other.root); the two handles must hold distinct
        roots."""
        for _ in range(_MAX_REFINE):
            d = _val_diff(self.center, other.center)
            lim = min(self.prec, other.prec)
            if d < lim:
                return d
            if self.prec <= other.prec and not self.is_exact:
                self.refine()
            else:  # other is inexact: two exact handles returned d < INF
                other.refine()
        raise CheckFailed("distance computation did not stabilize")

    def distance_to_point(self, c: FieldElement) -> Fraction:
        """val(root - c) for a working-field element c; INF when the handle
        is exact at c."""
        for _ in range(_MAX_REFINE):
            d = _val_diff(self.center, c)
            if d < self.prec:
                return d
            if self.is_exact:
                return d
            self.refine()
        raise CheckFailed("distance to point did not stabilize")

    def expansion(self, num, den):
        """(b, e) at the current center c: the coefficients of
        b = den(c + t) and e = num(c + t) - c*b (`epoly.translate`).
        Computed once per center and pair, so every polynomial built from
        num and den reads its own expansion off these two instead of
        shifting itself."""
        cache = self._expansion
        if cache is None or cache[0] is not self.center \
                or cache[1] is not num or cache[2] is not den:
            c = self.center
            cache = self._expansion = (c, num, den,
                                       *translate(self.ctx, num, den, c))
        return cache[3:]

    def lead_at(self, q) -> Optional[Tuple[Fraction, rf.FqElement]]:
        """(val, unit residue) of q(root), exact; None when q vanishes at
        the root.  `lead_of` on the Taylor shift of q at each center: the
        tests' reference for the expansions the engine hands `lead_of`."""
        if not q:
            return None
        return self.lead_of(
            lambda: (((1, c),) for c in poly_shift(self.ctx, q, self.center)),
            lambda: q)

    def lead_of(self, expand, build) -> Optional[Tuple[Fraction,
                                                       rf.FqElement]]:
        """(val, unit residue) of q(root), exact, or None when q vanishes
        at the root, for a polynomial q given through its expansion at the
        current center.  `expand()` returns an iterable of the Taylor
        coefficients q_0, q_1, ... of q there, each as its parts: (m, x)
        stands for m*x, with m a nonzero int and x a field element.  q_0 is
        read first, and the others only as long as the bound needs them, so
        an iterable that builds each coefficient when it is read builds none
        past the one that decides.  `build()` returns q itself; it runs
        only for the vanishing test.

        A nonzero q(center) = q_0 of valuation below the perturbation bound
        min over j >= 1 of val(q_j) + j*prec on val(q(root) - q(center))
        decides both values.  The bound reads valuations only,
        val(m x) = v_p(m) + val(x), and a coefficient is summed
        only when its least part valuation is reached twice and does not
        already clear q_0.  Only when the bound cannot decide does the
        vanishing test run, once, before the first refinement: q vanishes
        at the root when g divides q, and otherwise when gcd(g, q) has a
        root in the handle's disk.  Once the handle is exact, from the start
        or after a refinement lands on the root, q_0 is q(root) itself and
        decides alone."""
        for step in range(_MAX_REFINE):
            coeffs = iter(expand())
            qc = self._sum(next(coeffs))
            if self.is_exact:
                return None if qc.is_zero() else (qc.val(), qc.unit_residue())
            if not qc.is_zero() and self._below_bound(qc.nval(), coeffs):
                return qc.val(), qc.unit_residue()
            if step == 0 and self._vanishes(build()):
                return None
            self.refine()
        raise CheckFailed("value at root did not stabilize")

    def _sum(self, parts) -> FieldElement:
        total = None
        for m, x in parts:
            t = x if m == 1 else x.scale(m)
            total = t if total is None else total + t
        return self.ctx.zero if total is None else total

    def _below_bound(self, nv0: int, coeffs) -> bool:
        """Whether v0 < val(q_j) + j*prec for every nonzero Taylor
        coefficient q_j, j >= 1, read from the iterator `coeffs` of q_1,
        q_2, ... until one decides: v0 below the perturbation bound.
        Compared in units of 1/n: nv0 = n*v0, the part valuations and
        n*prec are ints."""
        n, p = self.ctx.n, self.ctx.p
        nprec = self._nprec()
        for j, parts in enumerate(coeffs, 1):
            least, ties = None, 0
            for m, x in parts:
                v = x.nval()
                if v is INF:
                    continue  # a zero factor
                if m != 1 and m != -1:
                    v += n * _vp(m, p)
                if least is None or v < least:
                    least, ties = v, 1
                elif v == least:
                    ties += 1
            if not ties or least + j * nprec > nv0:
                continue
            if ties == 1:
                return False  # a unique least part is val(q_j)
            c = self._sum(parts)
            if not c.is_zero() and c.nval() + j * nprec <= nv0:
                return False
        return True

    def _vanishes(self, q) -> bool:
        """Whether q(root) = 0: g divides q, or a common factor of g and q
        has a root in the handle's isolating disk."""
        ctx = self.ctx
        rem = ctx.ring.rem(q, self.g)
        if not rem:
            return True
        G = ctx.ring.gcd(self.g, rem)  # = gcd(g, q)
        return poly_deg(G) > 0 and count_roots_in_disk(
            newton_polygon(ctx, poly_shift(ctx, G, self.center)), self.prec,
            "closed") >= 1

    def direction_at(self, x) -> Union[rf.FqElement, Infinity]:
        """The tangent direction at the disk point x = zeta(c, s) that
        contains this root.  Once `distance_to_point` has refined the handle
        to prec > val(root - c), the center lies in the root's direction,
        so `TypeIIPoint.direction_of` reads it off the center."""
        self.distance_to_point(x.center)
        return x.direction_of(self.center)


def _val_diff(a: FieldElement, b: FieldElement) -> Fraction:
    d = a - b
    return INF if d.is_zero() else d.val()


# ---------------------------------------------------------------------------
# Isolation
# ---------------------------------------------------------------------------


@dataclass
class ClusterStub:
    """An unsplit cluster of conjugate roots: everything inside the closed
    disk of the stated radius around the center.  Produced instead of
    individual handles when splitting the cluster would need a field
    extension beyond the configured budget -- which can be unavoidable, since
    conjugate roots may generate a wildly ramified extension not contained in
    the completion of any pure uniformizer tower."""

    center: FieldElement
    radius: Fraction
    count: int

    def __repr__(self):
        return f"cluster(~{self.center!r}, radius={self.radius}, " \
               f"count={self.count})"


def isolate_roots(ctx: PrimeContext, g, budget=None) -> list:
    """Handles for every root of a squarefree polynomial g, each isolated in
    its own disk.  Rational-coefficient inputs are pre-split over the
    rationals so rational roots come out exact.  With budget = (n_max,
    k_max), clusters whose separation needs a larger extension are returned
    as ClusterStub entries instead of raising."""
    handles = []
    for factor_poly in _rational_split(ctx, g):
        if poly_deg(factor_poly) == 1:
            root = -factor_poly[0] / factor_poly[1]
            handles.append(RootHandle(ctx, factor_poly, root, INF))
        else:
            # poly_shift at the center 0 is factor_poly itself
            handles += _isolate_cluster(
                ctx, factor_poly, ctx.zero, NEG_INF, budget,
                (factor_poly, newton_polygon(ctx, factor_poly)))
    return handles


def _rational_split(ctx: PrimeContext, g) -> list:
    """Split g over the rationals when its coefficients are all rational;
    otherwise return it whole.  A rational g gives its linear factors
    b z - a (primitive, b > 0) sorted by (b, -a), then the cofactor whole,
    primitive with a positive leading coefficient, when it has degree >= 1.
    Raises CheckFailed when g is not squarefree."""
    if any(any(c.nums[1:]) for c in g):
        return [g]
    den = math.lcm(*(c.den for c in g))
    f = _primitive([c.nums[0] * (den // c.den) for c in g])
    if len(f) == 1:
        return []
    q = _auxiliary_prime(f)
    h, found = f, []
    if f[0] == 0:  # z divides g, once: f is squarefree mod q
        h, found = f[1:], [(0, 1)]
    d = len(h) - 1
    df = [i * c for i, c in enumerate(h)][1:]
    bound = 2 * abs(h[0] * h[-1])
    for r in range(q):
        if _eval_mod(h, r, q):
            continue
        m = q
        while m <= bound:  # Newton lift: a root mod m, then mod m^2
            m *= m
            r = (r - _eval_mod(h, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        s = h[-1] * r % m
        root = Fraction(s - m if 2 * s > m else s, h[-1])
        a, b = root.numerator, root.denominator
        if not sum(c * a ** i * b ** (d - i) for i, c in enumerate(h)):
            found.append((a, b))
    found.sort(key=lambda ab: (ab[1], -ab[0]))
    cofactor = f
    for a, b in found:
        cofactor = _divide_linear(cofactor, a, b)
    if len(found) + len(cofactor) != len(f):
        raise CheckFailed("rational split lost degree")
    out = [epoly(ctx, [-a, b]) for a, b in found]
    if len(cofactor) > 1:
        out.append(epoly(ctx, cofactor))
    return out


def _primitive(f: list) -> list:
    """f divided by its content, with a positive leading coefficient."""
    c = math.gcd(*f)
    if f[-1] < 0:
        c = -c
    return [x // c for x in f]


def _auxiliary_prime(f: list) -> int:
    """The least prime q that does not divide the leading coefficient a_d of
    the integer polynomial f and leaves f squarefree mod q.  Every prime
    that fails divides a_d * Res(f, f'), which is nonzero exactly when f is
    squarefree; once the product of the failed primes exceeds the Hadamard
    bound on it, f is not squarefree and CheckFailed is raised."""
    d = len(f) - 1
    bound = abs(f[-1]) * sum(map(abs, f)) ** (d - 1) \
        * sum(i * abs(c) for i, c in enumerate(f)) ** d
    failed, q = 1, 2
    while True:
        if f[-1] % q:
            K = rf._PrimeKernel(q)
            fq = [K._from_int(c) for c in f]  # trimmed: q does not divide a_d
            if len(K.gcd(fq, K.deriv(fq))) == 1:
                return q
        failed *= q
        if failed > bound:
            raise CheckFailed("rational split of a polynomial that is not "
                              "squarefree")
        q += 1
        while not _is_prime(q):
            q += 1


def _eval_mod(f: list, x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _divide_linear(f: list, a: int, b: int) -> list:
    """The exact quotient f / (b z - a) of integer polynomials; raises
    CheckFailed when the division leaves a remainder."""
    quo = [0] * (len(f) - 1)
    carry = 0
    for i in range(len(f) - 1, 0, -1):
        quo[i - 1], rem = divmod(f[i] + a * carry, b)
        carry = quo[i - 1]
        if rem:
            raise CheckFailed("inexact division by a rational root's factor")
    if f[0] + a * carry:
        raise CheckFailed("inexact division by a rational root's factor")
    return quo


def _residual_factors(ctx: PrimeContext, shifted, nv: int):
    """(u, factors) for the roots at distance exactly v = nv/n from a center
    c, given shifted = g(c + z): u = pi^nv, and `rf.factor` of the residual
    polynomial, the residue of g(c + u z) scaled to valuation 0.  The
    nonzero roots of a factor are the residue digits of those roots, and
    the root 0 stands for the roots deeper than v."""
    u = ctx.pi_pow(nv)
    h = poly_scale_arg(ctx, shifted, u)
    shift = min(c.nval() for c in h if not c.is_zero())
    hred = _trim([c.residue_shifted(shift) for c in h])
    return u, rf.factor(ctx.residue_field, hred)


def _isolate_cluster(ctx: PrimeContext, g, c: FieldElement, floor: Fraction,
                     budget, expansion) -> list:
    """Isolate the roots r of g with val(r - c) > floor.  When a split needs
    an extension beyond the budget, everything not yet placed is returned
    as a single ClusterStub (the stub's closed disk swallows the deeper
    levels and the exact center, so anchors never overlap).

    g is shifted to each center once: `expansion` is the pair
    (g(c + z), its root valuations `newton_polygon`), and at every child
    center one shift and its valuations serve the root count, the initial
    precision of an isolated root and the next level down."""
    handles: list = []
    shifted, vals = expansion
    above = [v for v in vals if v > floor]
    levels = Counter(v for v in above if v is not INF)
    placed_total = 0
    for v, count in sorted(levels.items()):
        nv = ctx.nval_of(v)
        if nv is None:
            need = math.lcm(ctx.n, v.denominator)
            # a separation radius with p in its denominator means the
            # conjugates generate a wildly ramified extension; a pure
            # uniformizer tower cannot split that cluster, so extending
            # the tower would only burn time
            wild = v.denominator % ctx.p == 0
            if budget is not None and (wild or need > budget[0]):
                handles.append(ClusterStub(c, v, len(above) - placed_total))
                return handles
            raise NeedsExtension(n=need,
                                 detail=f"root cluster at ramified radius {v}")
        u, factors = _residual_factors(ctx, shifted, nv)
        placed = 0
        for q, mult_dir in factors:
            if poly_deg(q) == 1 and (-q[0]).is_zero():
                continue  # deeper roots, handled at higher v or the center
            if poly_deg(q) > 1:
                need_k = ctx.k * poly_deg(q)
                if budget is not None and need_k > budget[1]:
                    handles.append(ClusterStub(
                        c, v, len(above) - placed_total - placed))
                    return handles
                raise NeedsExtension(k=need_k,
                                     detail="root direction in a residue extension")
            b = -q[0]
            c2 = c + u * ctx.lift(b)
            shifted2 = poly_shift(ctx, g, c2)
            vals2 = newton_polygon(ctx, shifted2)
            sub = count_roots_in_disk(vals2, v)
            if sub != mult_dir:
                raise CheckFailed(f"direction holds {sub} roots, its residue "
                                  f"factor has multiplicity {mult_dir}")
            placed += sub
            if sub == 1:
                handles.append(RootHandle(ctx, g, c2, _initial_prec(vals2, v)))
            else:
                handles += _isolate_cluster(ctx, g, c2, v, budget,
                                            (shifted2, vals2))
        if placed != count:
            raise CheckFailed(f"placed {placed} roots at radius {v}, the "
                              f"Newton polygon counts {count}")
        placed_total += placed
    if INF in vals:  # c itself is a (simple) root
        handles.append(RootHandle(ctx, g, c, INF))
    return handles


def _initial_prec(vals, floor) -> Fraction:
    """val(root - c) for the one root with val(root - c) > floor, read off
    `vals`, the root valuations of g(c + z): INF when c is the root."""
    above = [v for v in vals if v > floor]
    if len(above) != 1:
        raise CheckFailed(f"{len(above)} roots in an isolating disk")
    return above[0]
