"""Finite-field arithmetic, polynomial factorization, and fixed points of
rational maps over finite fields.

Fields are built as towers: the prime field Z/p at the bottom, and extensions
F_{q^m} = F_q[w]/(modulus) on top, so that a root of an irreducible polynomial
over F_q is directly representable as the generator of the extension it
defines.  Elements are immutable; all operations are pure.

Polynomials over a field are tuples of elements, low degree first, with no
trailing zeros (the zero polynomial is the empty tuple).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    IdentityMap,
    MultiplierOne,
    NotFixed,
    ZeroPolynomial,
)


class Infinity:
    """The point at infinity on the projective line (singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


INF_POINT = Infinity()


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

class Fq:
    """A finite field: either the prime field Z/p or an extension of another
    Fq by a monic irreducible modulus.

    Prime-field element reps are ints in [0, p); extension reps are tuples of
    base-field elements of fixed length equal to the extension degree.
    """

    def __init__(self, p: int, modulus=None, base: Optional["Fq"] = None):
        self.p = p
        self.base = base
        if base is None:
            assert modulus is None
            self.modulus = None
            self.deg_over_base = 1
            self.degree = 1
        else:
            assert modulus is not None and len(modulus) >= 3
            assert modulus[-1] == base.one
            self.modulus = tuple(modulus)
            self.deg_over_base = len(modulus) - 1
            self.degree = base.degree * self.deg_over_base
        self.order = p ** self.degree

    # -- construction -----------------------------------------------------

    @property
    def zero(self):
        if self.base is None:
            return FqElement(self, 0)
        return FqElement(self, (self.base.zero,) * self.deg_over_base)

    @property
    def one(self):
        if self.base is None:
            return FqElement(self, 1)
        rep = [self.base.zero] * self.deg_over_base
        rep[0] = self.base.one
        return FqElement(self, tuple(rep))

    @property
    def gen(self):
        """Image of w in F_q[w]/(modulus); only for proper extensions."""
        assert self.base is not None
        rep = [self.base.zero] * self.deg_over_base
        rep[1] = self.base.one
        return FqElement(self, tuple(rep))

    def from_int(self, c: int) -> "FqElement":
        if self.base is None:
            return FqElement(self, c % self.p)
        rep = [self.base.zero] * self.deg_over_base
        rep[0] = self.base.from_int(c)
        return FqElement(self, tuple(rep))

    def embed(self, elem: "FqElement") -> "FqElement":
        """Embed an element of the base field (constant embedding)."""
        if elem.field == self:
            return elem
        assert self.base is not None
        lifted = self.base.embed(elem) if elem.field != self.base else elem
        rep = [self.base.zero] * self.deg_over_base
        rep[0] = lifted
        return FqElement(self, tuple(rep))

    def elements(self):
        """Iterate over all field elements (small fields only)."""
        if self.base is None:
            for c in range(self.p):
                yield FqElement(self, c)
        else:
            import itertools
            base_elems = list(self.base.elements())
            for combo in itertools.product(base_elems, repeat=self.deg_over_base):
                yield FqElement(self, tuple(combo))

    # -- structural equality ----------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Fq):
            return NotImplemented
        return (self.p == other.p and self.base == other.base
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.degree,
                     None if self.modulus is None else tuple(m.rep for m in self.modulus)))

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"

    # -- arithmetic on raw reps -------------------------------------------

    def _add(self, a, b):
        if self.base is None:
            return (a + b) % self.p
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        if self.base is None:
            return (-a) % self.p
        return tuple(-x for x in a)

    def _mul(self, a, b):
        if self.base is None:
            return (a * b) % self.p
        m = self.deg_over_base
        base = self.base
        prod = [base.zero] * (2 * m - 1)
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                prod[i + j] = prod[i + j] + x * y
        # reduce by modulus: w^m = -(lower part of modulus)
        for t in range(2 * m - 2, m - 1, -1):
            c = prod[t]
            if c.is_zero():
                continue
            prod[t] = base.zero
            for i in range(m):
                prod[t - m + i] = prod[t - m + i] - self.modulus[i] * c
        return tuple(prod[:m])

    def _inv(self, a):
        if self.base is None:
            return pow(a, self.p - 2, self.p)
        # extended Euclid on (rep as poly over base, modulus)
        poly = _trim(tuple(a))
        if not poly:
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = _xgcd(self.base, poly, self.modulus)
        assert len(g) == 1
        inv_lead = g[0].inverse()
        rep = [c * inv_lead for c in s]
        rep += [self.base.zero] * (self.deg_over_base - len(rep))
        return tuple(rep[: self.deg_over_base])


class FqElement:
    """Element of a finite field; immutable value object."""

    __slots__ = ("field", "rep")

    def __init__(self, field: Fq, rep):
        self.field = field
        self.rep = rep

    def is_zero(self) -> bool:
        if self.field.base is None:
            return self.rep == 0
        return all(c.is_zero() for c in self.rep)

    def __add__(self, other):
        return FqElement(self.field, self.field._add(self.rep, other.rep))

    def __sub__(self, other):
        return FqElement(self.field, self.field._add(self.rep, self.field._neg(other.rep)))

    def __neg__(self):
        return FqElement(self.field, self.field._neg(self.rep))

    def __mul__(self, other):
        return FqElement(self.field, self.field._mul(self.rep, other.rep))

    def inverse(self):
        return FqElement(self.field, self.field._inv(self.rep))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self):
        """x -> x^p, the absolute Frobenius."""
        return self ** self.field.p

    def __eq__(self, other):
        if not isinstance(other, FqElement):
            return NotImplemented
        return self.field == other.field and self.rep == other.rep

    def __hash__(self):
        return hash((self.field.degree, _rep_key(self.rep)))

    def __repr__(self):
        return f"{_rep_str(self.rep)}"


def _rep_key(rep):
    if isinstance(rep, int):
        return rep
    return tuple(_rep_key(c.rep) for c in rep)


def _rep_str(rep):
    if isinstance(rep, int):
        return str(rep)
    return "(" + ",".join(_rep_str(c.rep) for c in rep) + ")"


# ---------------------------------------------------------------------------
# Polynomials over Fq (tuples of FqElement, low degree first, trimmed)
# ---------------------------------------------------------------------------

def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def poly(field: Fq, ints) -> tuple:
    """Build a polynomial from a list of integers."""
    return _trim(tuple(field.from_int(c) for c in ints))


def poly_deg(f) -> int:
    return len(f) - 1  # -1 for the zero polynomial


def poly_add(field, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else field.zero
        b = g[i] if i < len(g) else field.zero
        out.append(a + b)
    return _trim(out)


def poly_neg(field, f):
    return tuple(-c for c in f)


def poly_sub(field, f, g):
    return poly_add(field, f, poly_neg(field, g))


def poly_mul(field, f, g):
    if not f or not g:
        return ()
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return _trim(out)


def poly_scale(field, f, c):
    return _trim(tuple(a * c for a in f))


def poly_divmod(field, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [field.zero] * max(0, len(f) - len(g) + 1)
    inv_lead = g[-1].inverse()
    while len(f) >= len(g) and _trim(f):
        f = list(_trim(f))
        if len(f) < len(g):
            break
        coef = f[-1] * inv_lead
        shift = len(f) - len(g)
        q[shift] = coef
        for i, b in enumerate(g):
            f[shift + i] = f[shift + i] - coef * b
        f.pop()
    return _trim(q), _trim(f)


def poly_mod(field, f, g):
    return poly_divmod(field, f, g)[1]


def poly_monic(field, f):
    if not f:
        return f
    inv = f[-1].inverse()
    return poly_scale(field, f, inv)


def poly_gcd(field, f, g):
    while g:
        f, g = g, poly_mod(field, f, g)
    return poly_monic(field, f)


def _xgcd(field, f, g):
    """Extended gcd: returns (gcd, s, t) with s*f + t*g = gcd."""
    r0, r1 = tuple(f), tuple(g)
    s0, s1 = (field.one,), ()
    t0, t1 = (), (field.one,)
    while r1:
        q, r = poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(field, s0, poly_mul(field, q, s1))
        t0, t1 = t1, poly_sub(field, t0, poly_mul(field, q, t1))
    return r0, s0, t0


def poly_eval(field, f, x: FqElement) -> FqElement:
    result = field.zero
    for c in reversed(f):
        result = result * x + c
    return result


def poly_deriv(field, f):
    out = []
    for i in range(1, len(f)):
        out.append(f[i] * field.from_int(i))
    return _trim(out)


def poly_pow_mod(field, f, e: int, m):
    result = (field.one,)
    base = poly_mod(field, f, m)
    while e:
        if e & 1:
            result = poly_mod(field, poly_mul(field, result, base), m)
        base = poly_mod(field, poly_mul(field, base, base), m)
        e >>= 1
    return result


def poly_shift_coeffs(field, f, new_field: Fq):
    """Map coefficients into an extension field."""
    return _trim(tuple(new_field.embed(c) for c in f))


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

def _pth_root(field: Fq, a: FqElement) -> FqElement:
    # Frobenius is an automorphism, so the p-th root is a^(q/p).
    return a ** (field.order // field.p)


def squarefree_decomposition(field, f):
    """Return [(g, m)] with f = lc * prod g^m, each g monic squarefree,
    pairwise coprime, m distinct."""
    if not f:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    f = poly_monic(field, f)
    if poly_deg(f) == 0:
        return []
    p = field.p
    out = {}

    def absorb(g, mult):
        if poly_deg(g) > 0:
            out[mult] = poly_mul(field, out.get(mult, (field.one,)), g)

    def decompose(f, scale):
        df = poly_deriv(field, f)
        if not df:
            # f = h(w^p) = (pth-root coeffs of h)(w)^p
            root_coeffs = tuple(_pth_root(field, f[i]) for i in range(0, len(f), p))
            decompose(_trim(root_coeffs), scale * p)
            return
        c = poly_gcd(field, f, df)
        w = poly_divmod(field, f, c)[0]
        i = 1
        while poly_deg(w) > 0:
            y = poly_gcd(field, w, c)
            fac = poly_divmod(field, w, y)[0]
            absorb(fac, i * scale)
            w = y
            c = poly_divmod(field, c, y)[0]
            i += 1
        if poly_deg(c) > 0:
            decompose(c, scale)

    decompose(f, 1)
    return sorted(((g, m) for m, g in out.items()), key=lambda t: t[1])


def distinct_degree_split(field, f):
    """f monic squarefree -> [(product of irreducibles of degree d, d)]."""
    q = field.order
    out = []
    h = (field.zero, field.one)  # w
    g = f
    d = 0
    while poly_deg(g) > 0:
        d += 1
        if 2 * d > poly_deg(g):
            out.append((g, poly_deg(g)))
            break
        h = poly_pow_mod(field, h, q, g)
        gd = poly_gcd(field, g, poly_sub(field, h, (field.zero, field.one)))
        if poly_deg(gd) > 0:
            out.append((gd, d))
            g = poly_divmod(field, g, gd)[0]
            h = poly_mod(field, h, g)
    return out


def equal_degree_split(field, f, d, rng):
    """Cantor-Zassenhaus: f monic squarefree, all factors of degree d."""
    n = poly_deg(f)
    if n == d:
        return [f]
    q = field.order
    while True:
        r = _trim(tuple(_random_element(field, rng) for _ in range(n)))
        if poly_deg(r) < 1:
            continue
        if field.p == 2:
            # trace map over GF(2^(deg*d))
            t = r
            acc = r
            for _ in range(field.degree * d - 1):
                t = poly_mod(field, poly_mul(field, t, t), f)
                acc = poly_add(field, acc, t)
            g = poly_gcd(field, acc, f)
        else:
            e = (q ** d - 1) // 2
            rp = poly_pow_mod(field, r, e, f)
            g = poly_gcd(field, poly_sub(field, rp, (field.one,)), f)
        if 0 < poly_deg(g) < n:
            other = poly_divmod(field, f, g)[0]
            return equal_degree_split(field, g, d, rng) + \
                equal_degree_split(field, other, d, rng)


def _random_element(field: Fq, rng) -> FqElement:
    if field.base is None:
        return FqElement(field, rng.randrange(field.p))
    return FqElement(field, tuple(_random_element(field.base, rng)
                                  for _ in range(field.deg_over_base)))


def factor(field, f, seed: int = 0x5eed):
    """Full factorization: [(monic irreducible, multiplicity)].

    The random choices in equal-degree splitting use a deterministic seed so
    test logs are reproducible; correctness does not depend on the seed.
    """
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    rng = random.Random(seed)
    result = []
    for g, mult in squarefree_decomposition(field, f):
        for h, d in distinct_degree_split(field, g):
            for irr in equal_degree_split(field, h, d, rng):
                result.append((poly_monic(field, irr), mult))
    result.sort(key=lambda t: (poly_deg(t[0]), _poly_key(t[0])))
    return result


def _poly_key(f):
    return tuple(_rep_key(c.rep) for c in f)


def is_irreducible(field, f) -> bool:
    if poly_deg(f) < 1:
        return False
    facs = factor(field, f)
    return len(facs) == 1 and facs[0][1] == 1 and poly_deg(facs[0][0]) == poly_deg(f)


@functools.lru_cache(maxsize=None)
def find_irreducible(p: int, k: int) -> tuple:
    """Smallest monic degree-k integer polynomial irreducible mod p
    (deterministic search by coefficient order; memoized, since every tower
    E(p, n, k) built during an analysis asks again for the same pair).

    Each candidate f is tested by Ben-Or's criterion (FOCS 1981): f is
    irreducible iff gcd(f, w^(p^i) - w) = 1 for every i <= k/2, i.e. it has
    no factor of degree dividing some i <= k/2; a reducible f fails at the
    degree of its smallest factor, usually early."""
    field = Fq(p)
    w = (field.zero, field.one)
    import itertools
    for tail in itertools.product(range(p), repeat=k):
        coeffs = list(tail) + [1]
        f = poly(field, coeffs)
        frob = w
        for _ in range(k // 2):
            frob = poly_pow_mod(field, frob, p, f)
            if poly_deg(poly_gcd(field, f, poly_sub(field, frob, w))) > 0:
                break
        else:
            return tuple(coeffs)
    raise AssertionError("unreachable: irreducible polynomials exist in every degree")


def trace_to_base(elem: FqElement, base: Fq) -> FqElement:
    """Relative trace from elem's field down to `base` (a subfield)."""
    field = elem.field
    if field == base:
        return elem
    m = field.degree // base.degree
    assert field.degree % base.degree == 0
    q = base.order
    acc = field.zero
    t = elem
    for _ in range(m):
        acc = acc + t
        t = t ** q
    # result lies in the embedded base field; pull it down
    return _project_to_base(acc, base)


def _project_to_base(elem: FqElement, base: Fq) -> FqElement:
    field = elem.field
    if field == base:
        return elem
    assert field.base is not None
    rep = elem.rep
    for c in rep[1:]:
        assert c.is_zero(), "element does not lie in the base field"
    return _project_to_base(rep[0], base)


# ---------------------------------------------------------------------------
# Rational maps over a finite field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentFixedDirection:
    """One Galois orbit of fixed points of a tangent map.

    `location` is a point of P^1 over `field` (an extension of the base field
    when `minpoly` is nonlinear); all `orbit_size` conjugates share the same
    multiplicity, multiplier data, and critical flag.
    """

    location: Union[FqElement, Infinity]
    field: Fq
    minpoly: Optional[tuple]  # over the base field; None for the point oo
    orbit_size: int
    multiplicity: int
    multiplier: FqElement
    critically_fixed: bool

    def key(self):
        """Hashable direction identifier over the base field."""
        if isinstance(self.location, Infinity):
            return ("inf",)
        if self.orbit_size == 1:
            return ("pt", _rep_key(self.location.rep))
        return ("orbit", _poly_key(self.minpoly))


class FqRationalMap:
    """A rational map over a finite field, kept in normalized coprime form."""

    def __init__(self, field: Fq, num, den):
        num, den = _trim(num), _trim(den)
        if not num and not den:
            raise ZeroPolynomial("0/0 is not a rational map")
        # a vanishing numerator (or denominator) makes the map constant;
        # collapse the other side so degree/is_constant report that
        if not num:
            den = (field.one,)
        elif not den:
            num = (field.one,)
        g = poly_gcd(field, num, den) if num and den else ()
        if poly_deg(g) > 0:
            num = poly_divmod(field, num, g)[0]
            den = poly_divmod(field, den, g)[0]
        # scale so the denominator (or numerator if den == 0) is monic
        scale = (den[-1] if den else num[-1]).inverse()
        self.field = field
        self.num = poly_scale(field, num, scale)
        self.den = poly_scale(field, den, scale)

    @property
    def degree(self) -> int:
        return max(poly_deg(self.num), poly_deg(self.den))

    def is_identity(self) -> bool:
        return self.num == (self.field.zero, self.field.one) and \
            self.den == (self.field.one,)

    def is_constant(self) -> bool:
        return self.degree <= 0

    def __eq__(self, other):
        return (isinstance(other, FqRationalMap) and self.field == other.field
                and self.num == other.num and self.den == other.den)

    def __repr__(self):
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def flip(self) -> "FqRationalMap":
        """Conjugate by w -> 1/w."""
        d = self.degree
        rev_num = tuple(reversed(_pad(self.num, d + 1)))
        rev_den = tuple(reversed(_pad(self.den, d + 1)))
        return FqRationalMap(self.field, rev_den, rev_num)

    def lift_to(self, ext: Fq) -> "FqRationalMap":
        return FqRationalMap(ext, poly_shift_coeffs(self.field, self.num, ext),
                             poly_shift_coeffs(self.field, self.den, ext))

    def eval_at(self, x: FqElement):
        """Value at a finite point; returns INF_POINT when the denominator
        vanishes."""
        nv = poly_eval(x.field, poly_shift_coeffs(self.field, self.num, x.field), x)
        dv = poly_eval(x.field, poly_shift_coeffs(self.field, self.den, x.field), x)
        if dv.is_zero():
            return INF_POINT
        return nv / dv

    # -- fixed-point analysis --------------------------------------------

    def fixed_point_polynomial(self):
        """num(w) - w * den(w)."""
        F = self.field
        return poly_sub(F, self.num, poly_mul(F, (F.zero, F.one), self.den))

    def fixed_points(self, seed: int = 0x5eed):
        """All fixed points over the algebraic closure, grouped by Galois
        orbit, with multiplicities summing to degree + 1."""
        if self.is_identity():
            raise IdentityMap("the identity fixes everything")
        F = self.field
        P = self.fixed_point_polynomial()
        out = []
        if P:
            for q, mult in factor(F, P, seed=seed):
                m = poly_deg(q)
                if m == 1:
                    loc_field = F
                    loc = -q[0]
                else:
                    loc_field = Fq(F.p, modulus=q, base=F)
                    loc = loc_field.gen
                lam, crit = self._multiplier_and_critical(loc, loc_field, mult)
                out.append(TangentFixedDirection(
                    location=loc, field=loc_field, minpoly=q if m > 1 else None,
                    orbit_size=m, multiplicity=mult,
                    multiplier=lam, critically_fixed=crit))
        inf_mult = self.degree + 1 - sum(t.orbit_size * t.multiplicity for t in out)
        if inf_mult > 0:
            flipped = self.flip()
            lam, crit = flipped._multiplier_and_critical(F.zero, F, inf_mult)
            out.append(TangentFixedDirection(
                location=INF_POINT, field=F, minpoly=None, orbit_size=1,
                multiplicity=inf_mult, multiplier=lam, critically_fixed=crit))
        assert sum(t.orbit_size * t.multiplicity for t in out) == self.degree + 1
        return out

    def _multiplier_and_critical(self, loc: FqElement, loc_field: Fq, mult: int):
        m = self if loc_field == self.field else self.lift_to(loc_field)
        F = loc_field
        dv = poly_eval(F, m.den, loc)
        assert not dv.is_zero(), "coprime map cannot have a fixed pole"
        dnum = poly_sub(F, poly_mul(F, poly_deriv(F, m.num), m.den),
                       poly_mul(F, m.num, poly_deriv(F, m.den)))
        lam = poly_eval(F, dnum, loc) / (dv * dv)
        crit = lam.is_zero()
        # cross-check criticality: local degree at loc exceeds 1 iff
        # m(w) - m(loc) vanishes to order >= 2 at loc
        val_here = poly_eval(F, m.num, loc) / dv
        diff = poly_sub(F, m.num, poly_scale(F, m.den, val_here))
        order = _vanishing_order(F, diff, loc)
        assert (order >= 2) == crit, "criticality cross-check failed"
        if mult >= 2 and not self.is_identity():
            assert lam == F.one, "multiple fixed point must have multiplier 1"
        return lam, crit

    def multiplier(self, fp) -> FqElement:
        """Derivative at a fixed point (finite element or INF_POINT)."""
        if isinstance(fp, Infinity):
            if poly_deg(self.num) <= poly_deg(self.den):
                raise NotFixed("oo is not fixed")
            lam, _ = self.flip()._multiplier_and_critical(self.field.zero,
                                                          self.field, 1)
            return lam
        F = fp.field
        m = self if F == self.field else self.lift_to(F)
        if m.eval_at(fp) != fp:
            raise NotFixed(f"{fp} is not fixed")
        lam, _ = m._multiplier_and_critical(fp, F, 1)
        return lam

    def holomorphic_index_check(self, seed: int = 0x5eed) -> bool:
        """Verify sum of 1/(1 - lambda) over all fixed points equals 1.

        Requires every multiplier to differ from 1 (equivalently, all fixed
        points simple).  Conjugate orbits contribute through a relative trace.
        """
        if self.is_identity():
            raise IdentityMap("index sum undefined for the identity")
        total = self.field.zero
        for t in self.fixed_points(seed=seed):
            one = t.field.one
            if t.multiplier == one:
                raise MultiplierOne("fixed point with multiplier 1")
            term = (one - t.multiplier).inverse()
            total = total + trace_to_base(term, self.field)
        return total == self.field.one


def _pad(f, n):
    F_zero_needed = n - len(f)
    if F_zero_needed <= 0:
        return f
    # need a zero of the right field; empty polynomial has no field handle,
    # so callers only pad nonzero polynomials
    zero = f[0].field.zero if f else None
    assert zero is not None
    return tuple(f) + (zero,) * F_zero_needed


def _vanishing_order(field, f, loc) -> int:
    if not f:
        return 10 ** 9  # identically zero
    order = 0
    g = f
    while g and poly_eval(field, g, loc).is_zero():
        # synthetic division by (w - loc)
        g = _deflate(field, g, loc)
        order += 1
    return order


def _deflate(field, f, loc):
    """Divide f by (w - loc), assuming it divides exactly."""
    out = [field.zero] * (len(f) - 1)
    carry = field.zero
    for i in range(len(f) - 1, 0, -1):
        carry = f[i] + carry * loc if i < len(f) - 1 else f[i]
        out[i - 1] = carry
    carry = carry * loc + f[0]
    assert carry.is_zero()
    return _trim(out)


def _poly_str(f):
    if not f:
        return "0"
    parts = []
    for i, c in enumerate(f):
        if c.is_zero():
            continue
        if i == 0:
            parts.append(f"{c}")
        elif i == 1:
            parts.append(f"{c}*w")
        else:
            parts.append(f"{c}*w^{i}")
    return " + ".join(parts)
