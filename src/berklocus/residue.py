"""Finite-field arithmetic, polynomial factorization, and fixed points of
rational maps over finite fields.

Fields are built as towers: the prime field Z/p at the bottom, and extensions
F_{q^m} = F_q[w]/(modulus) on top, so that a root of an irreducible polynomial
over F_q is directly representable as the generator of the extension it
defines.  Elements are immutable; all operations are pure.

Polynomials over a field are sequences of elements, low degree first, with
no trailing zeros (the zero polynomial is empty).  Their arithmetic is
written once, in `_PolyRing`: add, sub, mul, divmod, rem, monic, gcd,
lowest_terms (the one reduction of a fraction), squarefree (the one
squarefree decomposition), deriv, inverse_mod and powmod, over any encoding
of a field's elements.  A `_Kernel` runs them on the int encodings below,
for factorization; an `_Elements` runs them on element objects, and each
`Fq` and each `field.PrimeContext` holds one as `ring`, which serves the
tangent maps and the squarefree parts that root isolation starts from.
They return lists, and a polynomial that is stored is made a tuple.  The
few helpers with no ring twin (`poly`, `poly_deg`, `poly_scale`,
`poly_eval`, `poly_reverse`, ...) take tuples or lists alike.
`RationalMap` builds on `ring` the one core of the maps over both fields
(`berkmap.RationalMapK` over the working field and `FqRationalMap` here):
degree, identity test, flip, fixed-point polynomial, multiplicity at
infinity, quotient-rule multiplier and printer.

Every field computes with one flat kernel of ints, which is also what
factorization (`factor`, Cantor-Zassenhaus) and the Ben-Or steps of
`find_irreducible` run on; an element's rep is the kernel's encoding:

- over F_p, an int in [0, p);
- over F_p[w]/(m), the tuple of its k coordinates in [0, p), and a
  product is a k x k convolution reduced by m, or, in a small working
  residue field, one lookup in Zech-log tables (`_TableKernel`);
- over a tower (an extension of an extension), the tuple of its base reps,
  and a product is the base kernel's polynomial product reduced by the
  modulus.

Zero is 0 or the tuple of zeros.  Every computation modulo a polynomial
over a field runs on that field's kernel: an inverse in F[w]/(m) is the
extended Euclid of F's kernel modulo m (`_Kernel.inverse_mod`), which
raises CheckFailed on a zero divisor when m is reducible, and the unit test
behind a valuation of `field` is the gcd of F_p's kernel.  `factor`
accepts the prime field and its one-level extensions, which is what every
`PrimeContext.residue_field` is; over a tower it raises ValueError.

`residue_field(p, k)` is the one builder of the residue field F_{p^k} of
every working context E(p, n, k) (`field.PrimeContext.residue_field`): one
object per (p, k) per process, F_p at k = 1 and otherwise
F_p[w]/(find_irreducible(p, k)), the modulus that `find_irreducible`'s
Ben-Or test proved irreducible.  It alone decides the kernel: log, antilog
and Zech tables of q - 1 entries each when the field has at most
TABLE_MAX_ORDER = 4096 elements (about 0.2 MB and 6 ms at 11^3), built with
the field.  Every other field, among them the Galois-orbit fields of
tangent fixed points, fields built directly as `Fq`, reducible moduli
included, and fields of more than 4096 elements, stores nothing per element
and multiplies by the convolution, so every p^k is served.  Both kernels
give the same reps.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    CheckFailed,
    IdentityMap,
    MultiplierOne,
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


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

class Fq:
    """A finite field: either the prime field Z/p or an extension of another
    Fq by a monic irreducible modulus.

    Its `kernel` does all the arithmetic of its elements, and an element's
    rep is the kernel's encoding: an int in [0, p) over F_p, the tuple of
    its k coordinates over F_p[w]/(m), and over a tower the tuple of its
    base reps.  A base that is itself a tower raises ValueError, since a
    tower's kernel has element operations only.  A reducible modulus is not
    refused, since testing it costs a factorization; in the ring it
    defines, the inverse of a zero divisor raises CheckFailed.  Polynomials
    over the field have two rings on the same algorithms (`_PolyRing`): the
    kernel, on reps, which `factor` uses, and `ring`, on elements, which the
    tangent maps use.
    """

    def __init__(self, p: int, modulus=None, base: Optional["Fq"] = None):
        self.p = p
        self.base = base
        if base is None:
            if modulus is not None:
                raise ValueError("a prime field takes no modulus")
            self.modulus = None
            self.deg_over_base = 1
            self.kernel = _PrimeKernel(p)
        else:
            if modulus is None or len(modulus) < 3 or modulus[-1] != base.one:
                raise ValueError("an extension needs a monic modulus of "
                                 "degree >= 2 over its base")
            if base.base is not None and base.base.base is not None:
                raise ValueError("the base of an extension is F_p or an "
                                 "extension of F_p, not a tower")
            self.modulus = tuple(modulus)
            self.deg_over_base = len(modulus) - 1
            reps = tuple(c.rep for c in modulus)
            self.kernel = _CoordKernel(p, reps) if base.base is None \
                else _TowerKernel(base.kernel, reps)
        self.degree = self.kernel.k
        self.order = self.kernel.q
        self.ring = _Elements(self)

    # -- construction -----------------------------------------------------

    @property
    def zero(self):
        return FqElement(self, self.kernel.zero)

    @property
    def one(self):
        return FqElement(self, self.kernel.one)

    @property
    def gen(self):
        """Image of w in F_q[w]/(modulus); only for proper extensions."""
        if self.base is None:
            raise ValueError("a prime field has no generator")
        return FqElement(self, (self.kernel.zero[0], self.base.kernel.one)
                         + self.kernel.zero[2:])

    def from_int(self, c: int) -> "FqElement":
        return FqElement(self, self.kernel._from_int(c))

    def embed(self, elem: "FqElement") -> "FqElement":
        """Embed an element of the base field (constant embedding)."""
        if elem.field == self:
            return elem
        if self.base is None:
            raise ValueError(f"{elem!r} is not in a subfield of F_{self.p}")
        return FqElement(self, (self.base.embed(elem).rep,)
                         + self.kernel.zero[1:])

    def elements(self):
        """Iterate over all field elements (small fields only)."""
        if self.base is None:
            reps = range(self.p)
        else:
            reps = itertools.product([e.rep for e in self.base.elements()],
                                     repeat=self.deg_over_base)
        for rep in reps:
            yield FqElement(self, rep)

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


class FqElement:
    """Element of a finite field; immutable value object."""

    __slots__ = ("field", "rep")

    def __init__(self, field: Fq, rep):
        self.field = field
        self.rep = rep

    def is_zero(self) -> bool:
        return self.rep == self.field.kernel.zero

    def __add__(self, other):
        return FqElement(self.field, self.field.kernel._add(self.rep, other.rep))

    def __sub__(self, other):
        return FqElement(self.field, self.field.kernel._sub(self.rep, other.rep))

    def __neg__(self):
        K = self.field.kernel
        return FqElement(self.field, K._sub(K.zero, self.rep))

    def __mul__(self, other):
        return FqElement(self.field, self.field.kernel._mul(self.rep, other.rep))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FqElement(self.field, self.field.kernel._inv(self.rep))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FqElement(self.field, self.field.kernel._pow(self.rep, e))

    def frobenius(self):
        """x -> x^p, the absolute Frobenius."""
        return self ** self.field.p

    def __eq__(self, other):
        if not isinstance(other, FqElement):
            return NotImplemented
        return self.field == other.field and self.rep == other.rep

    def __hash__(self):
        return hash((self.field.degree, self.rep))

    def __repr__(self):
        return _rep_str(self.rep)


def _rep_str(rep):
    if isinstance(rep, int):
        return str(rep)
    return "(" + ",".join(map(_rep_str, rep)) + ")"


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


def poly_scale(field, f, c):
    return _trim(tuple(a * c for a in f))


def poly_eval(field, f, x: FqElement) -> FqElement:
    result = field.zero
    for c in reversed(f):
        result = result * x + c
    return result


def poly_shift_coeffs(field, f, new_field: Fq):
    """Map coefficients into an extension field."""
    return _trim(tuple(new_field.embed(c) for c in f))


def poly_reverse(field, f, degree: int):
    """Coefficient reversal to the stated degree: z^degree * f(1/z)."""
    if degree < poly_deg(f):
        raise ValueError(f"cannot reverse a polynomial of degree "
                         f"{poly_deg(f)} to degree {degree}")
    return _trim((field.zero,) * (degree - poly_deg(f)) + tuple(f)[::-1])


def poly_str(f, var: str, paren: bool) -> str:
    """f as a sum of terms c*var^i, each coefficient but the constant one
    in parentheses when `paren` is set."""
    terms = []
    for i, c in enumerate(f):
        if c.is_zero():
            continue
        if i == 0:
            terms.append(f"{c}")
        else:
            power = var if i == 1 else f"{var}^{i}"
            terms.append(f"({c})*{power}" if paren else f"{c}*{power}")
    return " + ".join(terms) or "0"


# ---------------------------------------------------------------------------
# Rational maps over either field
# ---------------------------------------------------------------------------

class RationalMap:
    """The field-agnostic half of a rational map num/den over `ctx`, a
    finite field or a PrimeContext: both hold a polynomial ring `ring` over
    their own elements (`_Elements`).  A subclass fixes the normal
    form in its constructor `(ctx, num, den, _coprime=False)`, where
    `_coprime` says the pair is already coprime and skips the gcd, and the
    printing style `_PRINT`: (variable, parenthesised coefficients, slash)."""

    _PRINT = ("w", False, "/")

    @property
    def degree(self) -> int:
        return max(poly_deg(self.num), poly_deg(self.den))

    def is_identity(self) -> bool:
        return poly_deg(self.num) == 1 and poly_deg(self.den) == 0 and \
            self.num[0].is_zero() and self.num[1] == self.den[0]

    def __repr__(self):
        var, paren, slash = self._PRINT
        return (f"({poly_str(self.num, var, paren)}){slash}"
                f"({poly_str(self.den, var, paren)})")

    def flip(self):
        """Conjugate by z -> 1/z."""
        d, ctx = self.degree, self.ctx
        # reversal of a reduced pair is reduced: a common root w would pull
        # back to a common root 1/w (and w = 0 would need both leading
        # coefficients to vanish, contradicting d = max of the degrees)
        return type(self)(ctx, poly_reverse(ctx, self.den, d),
                          poly_reverse(ctx, self.num, d), _coprime=True)

    def fixed_point_polynomial(self):
        """P(z) = numerator - z * denominator; its roots are the finite
        classical fixed points."""
        R = self.ctx.ring
        return R.sub(self.num, [R.zero, *self.den])

    def infinity_multiplicity(self) -> int:
        """Fixed-point multiplicity of the point at infinity: d + 1 - deg P
        when infinity is fixed, else 0."""
        if poly_deg(self.num) <= poly_deg(self.den):
            return 0
        return self.degree + 1 - poly_deg(self.fixed_point_polynomial())

    def derivative_numerator(self):
        """N = num' den - num den', the numerator of f' = N / den^2 by the
        quotient rule."""
        R = self.ctx.ring
        return R.sub(R.mul(R.deriv(self.num), self.den),
                     R.mul(self.num, R.deriv(self.den)))


# ---------------------------------------------------------------------------
# Polynomial rings: one polynomial arithmetic over any field
# ---------------------------------------------------------------------------

class _PolyRing:
    """Polynomial arithmetic over one field, on lists of encodings of its
    elements, low degree first, with no trailing zero: the one copy of
    division with remainder, Euclid's algorithm and their kin in the package
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 2-3).  Results
    are lists.

    A subclass fixes the encoding: the attributes zero, one and neg_one, the
    product `_mul`, `_inv` (of a nonzero encoding), `_from_int` (the image of
    an int) and the fused `_axpy(out, off, c, terms)`: out[off + j] += c * b
    for every (j, b) in terms, in place.  Zero is tested with ==.  The int
    encodings of a `_Kernel` and the element objects of `_Elements` are the
    two kinds."""

    def _trim(self, f: list) -> list:
        while f and f[-1] == self.zero:
            f.pop()
        return f

    def add(self, f, g, c) -> list:
        """f + c * g (c = neg_one subtracts)."""
        out = list(f) + [self.zero] * (len(g) - len(f))
        self._axpy(out, 0, c, [(j, b) for j, b in enumerate(g)
                               if b != self.zero])
        return self._trim(out)

    def sub(self, f, g) -> list:
        return self.add(f, g, self.neg_one)

    def mul(self, f, g) -> list:
        if not f or not g:
            return []
        zero = self.zero
        terms = [(j, b) for j, b in enumerate(g) if b != zero]
        out = [zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a != zero:
                self._axpy(out, i, a, terms)
        return out  # the leading product is nonzero

    def divmod(self, f, g):
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        dg = len(g) - 1
        if len(f) <= dg:
            return [], list(f)
        zero = self.zero
        inv = self._inv(g[-1])
        neg = self._mul(inv, self.neg_one)
        terms = [(j, self._mul(b, neg)) for j, b in enumerate(g[:-1])
                 if b != zero]  # -g_j / lead(g)
        r = list(f)
        quo = [zero] * (len(f) - dg)
        for top in range(len(f) - 1, dg - 1, -1):
            c = r[top]
            if c != zero:
                quo[top - dg] = self._mul(c, inv)
                self._axpy(r, top - dg, c, terms)
        return quo, self._trim(r[:dg])

    def rem(self, f, g) -> list:
        return self.divmod(f, g)[1]

    def monic(self, f) -> list:
        if not f:
            return []
        inv = self._inv(f[-1])
        return [self._mul(a, inv) for a in f]

    def gcd(self, f, g) -> list:
        while g:
            f, g = g, self.rem(f, g)
        return self.monic(f)

    def inverse_mod(self, a, m) -> list:
        """The inverse of a modulo m, of degree below that of m, by the
        extended Euclidean algorithm: r_i = s_i a (mod m) at every step.
        Raises CheckFailed when gcd(a, m) != 1, as for a zero divisor of a
        reducible modulus."""
        r0, r1 = list(m), self._trim(list(a))
        s0, s1 = [], [self.one]
        while len(r1) > 1:
            quo, rem = self.divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, self.sub(s0, self.mul(quo, s1))
        if not r1:
            raise CheckFailed(f"{a} is not a unit modulo {m}: they share "
                              f"the factor {self.monic(r0)}")
        c = self._inv(r1[0])
        return [self._mul(x, c) for x in s1]

    def powmod(self, a, e: int, m) -> list:
        result = [self.one]
        base = self.rem(a, m)
        while e:
            if e & 1:
                result = self.rem(self.mul(result, base), m)
            e >>= 1
            if e:
                base = self.rem(self.mul(base, base), m)
        return result

    def lowest_terms(self, f, g):
        """(c, f / c, g / c) with c = gcd(f, g) monic: the one reduction of
        a fraction to lowest terms; f and g themselves when c is
        constant."""
        c = self.gcd(f, g)
        if len(c) < 2:
            return c, f, g
        return c, self.divmod(f, c)[0], self.divmod(g, c)[0]

    def squarefree(self, f):
        """The squarefree decomposition of a nonzero f: [(g, m)] with
        f = lc(f) * prod g^m, each g monic squarefree, pairwise coprime, the
        m distinct and ascending; [] for a constant (von zur Gathen &
        Gerhard, Modern Computer Algebra, section 14.6)."""
        out = {}

        def decompose(f, scale):
            df = self.deriv(f)
            if not df:
                # only over F_q, since f is not constant: f = h(w^p) = (h
                # with p-th roots of its coefficients)(w)^p, and Frobenius
                # is an automorphism: a^(1/p) = a^(q/p)
                p = self.p
                decompose([self._pow(a, self.q // p) for a in f[::p]],
                          scale * p)
                return
            c = self.gcd(f, df)
            w = self.divmod(f, c)[0]
            i = 1
            while len(w) > 1:
                y = self.gcd(w, c)
                fac = self.divmod(w, y)[0]
                if len(fac) > 1:
                    # i is prime to p, and the recursion finds multiples of
                    # p * scale only: each multiplicity is found once
                    out[i * scale] = fac
                w = y
                c = self.divmod(c, y)[0]
                i += 1
            if len(c) > 1:
                decompose(c, scale)

        f = self.monic(f)
        if len(f) > 1:
            decompose(f, 1)
        return sorted(((g, m) for m, g in out.items()), key=lambda t: t[1])

    def deriv(self, f) -> list:
        return self._trim([self._mul(a, self._from_int(i))
                           for i, a in enumerate(f)][1:])


class _Elements(_PolyRing):
    """The polynomial ring over a field whose encodings are the field's own
    element objects; each `PrimeContext` and each `Fq` holds one as
    `ring`, on which the maps over both fields compute.  Over an `Fq` it
    also names p, q and `_pow`, which the p-th roots of `squarefree` read;
    over the characteristic-0 working field nothing reads them."""

    _mul = operator.mul

    def __init__(self, field):
        self.zero, self.one = field.zero, field.one
        self.neg_one = -self.one
        self._from_int = field.from_int
        if isinstance(field, Fq):
            self.p, self.q, self._pow = field.p, field.order, operator.pow

    def _inv(self, a):
        return a.inverse()

    def _axpy(self, out, off, c, terms):
        for j, b in terms:
            out[off + j] = out[off + j] + c * b


class _Kernel(_PolyRing):
    """Arithmetic over one field F_q, q = p^k, on the int encodings that are
    the reps of its elements, and factorization of polynomials over it on
    the algorithms of `_PolyRing`.

    A subclass fixes the encoding: its attributes p, k, q, zero, one and
    neg_one, and the element operations `_add`, `_sub` and `_mul`.  The
    prime field defines `_inv` and `_from_int` itself; an extension
    F[w]/(m) names instead `base`, the kernel of F, and `modulus`, the base
    encodings of m, low degree first, and inherits both: an inverse is the
    base kernel's `inverse_mod` modulo m.  `_pow` serves the element powers
    and the p-th roots a^(q/p) of `squarefree`.  For polynomial arithmetic
    and factorization a subclass adds `_axpy` and `_random`."""

    def _inv(self, a):
        r = self.base.inverse_mod(a, self.modulus)
        return tuple(r) + self.zero[len(r):]

    def _from_int(self, i):
        return (self.base._from_int(i),) + self.zero[1:]

    def _pow(self, a, e: int):
        result = self.one
        while e:
            if e & 1:
                result = self._mul(result, a)
            a = self._mul(a, a)
            e >>= 1
        return result

    # -- factorization ----------------------------------------------------

    def distinct_degree(self, f):
        """f monic squarefree -> [(product of its irreducible factors of
        degree d, d)]."""
        x = [self.zero, self.one]
        out = []
        h, g, d = x, f, 0
        while len(g) > 1:
            d += 1
            if 2 * d > len(g) - 1:
                out.append((g, len(g) - 1))
                break
            h = self.powmod(h, self.q, g)
            gd = self.gcd(g, self.sub(h, x))
            if len(gd) > 1:
                out.append((gd, d))
                g = self.divmod(g, gd)[0]
                h = self.rem(h, g)
        return out

    def equal_degree(self, f, d: int, rng) -> list:
        """Cantor-Zassenhaus: f monic squarefree, every factor of degree d."""
        n = len(f) - 1
        if n == d:
            return [f]
        while True:
            r = self._trim([self._random(rng) for _ in range(n)])
            if len(r) < 2:
                continue
            if self.p == 2:
                # the trace of r from GF(2^(k d)) down to GF(2)
                t = acc = r
                for _ in range(self.k * d - 1):
                    t = self.rem(self.mul(t, t), f)
                    acc = self.add(acc, t, self.one)
                g = self.gcd(acc, f)
            else:
                rp = self.powmod(r, (self.q ** d - 1) // 2, f)
                g = self.gcd(self.sub(rp, [self.one]), f)
            if 1 < len(g) <= n:
                return self.equal_degree(g, d, rng) + \
                    self.equal_degree(self.divmod(f, g)[0], d, rng)


class _PrimeKernel(_Kernel):
    """F_p: an element is its value in [0, p)."""

    def __init__(self, p: int):
        self.p, self.k, self.q = p, 1, p
        self.zero, self.one, self.neg_one = 0, 1, p - 1

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _pow(self, a, e):
        return pow(a, e, self.p)

    def _from_int(self, i):
        return i % self.p

    def _random(self, rng):
        return rng.randrange(self.p)

    def _axpy(self, out, off, c, terms):
        p = self.p
        for j, b in terms:
            out[off + j] = (out[off + j] + c * b) % p


class _CoordKernel(_Kernel):
    """F_p[w]/(modulus), for a monic integer `modulus` of degree k >= 2,
    irreducible mod p: an element is the tuple of its k coordinates in the
    basis 1, w, ..., w^(k-1), each in [0, p).  A product costs O(k^2) int
    operations; this kernel stores nothing per field element, and it
    builds the tables of a `_TableKernel`."""

    def __init__(self, p: int, modulus: tuple):
        k = len(modulus) - 1
        self.p, self.k, self.q = p, k, p ** k
        self.base, self.modulus = _PrimeKernel(p), modulus
        self.zero = (0,) * k
        self.one = (1,) + self.zero[1:]
        self.neg_one = (p - 1,) + self.zero[1:]

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _rows(self, a):
        """The matrix of b -> a b: row t holds coordinate t of a w^i for
        i < k, so coordinate t of a b is sum_i row_t[i] b_i (mod p)."""
        p, m = self.p, self.modulus
        col, cols = list(a), []
        for _ in range(self.k):
            cols.append(col)
            top = col[-1]
            col = [0] + col[:-1]
            if top:
                col = [(c - top * mi) % p for c, mi in zip(col, m)]
        return list(zip(*cols))

    def _mul(self, a, b):
        """The convolution of the coordinates, reduced by the modulus."""
        p, k, m = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for t in range(2 * k - 2, k - 1, -1):
            c = prod[t] % p
            if c:
                for i in range(k):
                    prod[t - k + i] -= m[i] * c
        return tuple(c % p for c in prod[:k])

    def _random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def _axpy(self, out, off, c, terms):
        p = self.p
        rows = self._rows(c)
        for j, b in terms:
            i = off + j
            out[i] = tuple((x + sum(map(operator.mul, row, b))) % p
                           for x, row in zip(out[i], rows))


# The largest residue field F_p[w]/(m) whose kernel is a `_TableKernel`.  Its
# tables hold 3 (q - 1) entries over q - 1 shared coordinate tuples: about
# 0.2 MB, built in 6 ms, at 11^3, and 0.9 MB in 60 ms at 2^12, the largest
# (tracemalloc and wall time, 2 vCPUs, Python 3.11.7).
TABLE_MAX_ORDER = 4096


class _TableKernel(_CoordKernel):
    """F_p[w]/(modulus) with Zech-log tables (K. Huber, IEEE Trans. Inf.
    Theory 36, 1990): elements stay coordinate tuples, and for a primitive
    element g, `_exp[i]` is g^i (listed twice, so a sum of two logs needs no
    reduction), `_log` maps each nonzero tuple to its log, and `_zech[i]`
    is log(1 + g^i), None where 1 + g^i = 0.  A product, inverse or power is
    one lookup, and the fused multiply-add adds in log form,
    g^a + g^b = g^(a + Z(b - a)).  The tables are built by a convolution
    kernel of the same modulus (not by this kernel's own `_pow` and
    `_mul`, which would read the tables being built), and the inverse of
    zero falls back to the convolution's Euclid, which raises
    CheckFailed."""

    def __init__(self, p: int, modulus: tuple):
        super().__init__(p, modulus)
        conv = _CoordKernel(p, modulus)
        n = self._order = self.q - 1
        # g has order n iff g^(n/r) != 1 for each prime r | n; its walk then
        # checks that its n powers are distinct and nonzero, which also
        # certifies the modulus irreducible: every nonzero element is a
        # power of g, so a unit
        cofactors = [n // r for r in range(2, n + 1)
                     if n % r == 0 and _is_prime(r)]
        for g in itertools.product(range(p), repeat=self.k):
            if any(conv._pow(g, c) == self.one for c in cofactors):
                continue
            log, exp, x = {}, [], self.one
            while x != self.zero and x not in log:
                log[x] = len(exp)
                exp.append(x)
                x = conv._mul(x, g)
            if len(exp) == n:
                break
        else:
            raise CheckFailed(f"F_{p}[w]/{modulus} has no element whose "
                              f"{n} powers are distinct")
        self._log, self._exp = log, exp + exp
        self._zech = [log.get(self._add(self.one, e)) for e in exp]

    def _mul(self, a, b):
        log = self._log
        la, lb = log.get(a), log.get(b)
        if la is None or lb is None:
            return self.zero
        return self._exp[la + lb]

    def _inv(self, a):
        la = self._log.get(a)
        if la is None:
            return super()._inv(a)
        return self._exp[self._order - la]

    def _pow(self, a, e: int):
        if e == 0:
            return self.one
        la = self._log.get(a)
        return self.zero if la is None else self._exp[la * e % self._order]

    def _axpy(self, out, off, c, terms):
        log, exp, zech, n = self._log, self._exp, self._zech, self._order
        lc = log.get(c)
        if lc is None:
            return
        for j, b in terms:
            lb = log.get(b)
            if lb is None:
                continue
            i = off + j
            lo = log.get(out[i])
            if lo is None:
                out[i] = exp[lc + lb]
            else:
                z = zech[(lc + lb - lo) % n]
                out[i] = self.zero if z is None else exp[lo + z]


class _TowerKernel(_Kernel):
    """An extension of degree m of a proper extension F_{q0}, whose kernel
    is `base`, by a monic irreducible `modulus` given by its base encodings:
    an element is the tuple of its m coordinates, each a base encoding.  A
    product is the base kernel's polynomial product reduced by the modulus.
    Only the element operations: `factor` does not run over a tower."""

    def __init__(self, base: _Kernel, modulus: tuple):
        m = len(modulus) - 1
        self.base, self.modulus = base, list(modulus)
        self.p, self.k, self.q = base.p, base.k * m, base.q ** m
        self.zero = (base.zero,) * m
        self.one = (base.one,) + self.zero[1:]

    def _add(self, a, b):
        return tuple(map(self.base._add, a, b))

    def _sub(self, a, b):
        return tuple(map(self.base._sub, a, b))

    def _mul(self, a, b):
        B = self.base
        r = B.rem(B.mul(B._trim(list(a)), B._trim(list(b))), self.modulus)
        return tuple(r) + self.zero[len(r):]


def factor(field, f):
    """Full factorization: [(monic irreducible, multiplicity)], sorted by
    degree, then by the coefficient reps.

    `field` is a prime field or a one-level extension of one (a tower raises
    ValueError).  The random choices in equal-degree splitting use a fixed
    seed so test logs are reproducible; the result does not depend on it,
    since the factorization is unique.
    """
    K = field.kernel
    if isinstance(K, _TowerKernel):
        raise ValueError(f"{field!r} is a tower; factor works over the prime "
                         "field and its one-level extensions")
    g = K._trim([c.rep for c in f])
    if not g:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    rng = random.Random(0x5eed)
    parts = []
    for h, mult in K.squarefree(g):
        for part, d in K.distinct_degree(h):
            parts += [(irr, mult) for irr in K.equal_degree(part, d, rng)]
    parts.sort(key=lambda t: (len(t[0]), t[0]))
    return [(tuple(FqElement(field, a) for a in irr), mult)
            for irr, mult in parts]


def is_irreducible(field, f) -> bool:
    if poly_deg(f) < 1:
        return False
    facs = factor(field, f)
    return len(facs) == 1 and facs[0][1] == 1 and poly_deg(facs[0][0]) == poly_deg(f)


@functools.lru_cache(maxsize=None)
def find_irreducible(p: int, k: int) -> tuple:
    """Smallest monic degree-k integer polynomial irreducible mod p
    (deterministic search by coefficient order; memoized).

    Each candidate f is tested by Ben-Or's criterion (FOCS 1981): f is
    irreducible iff gcd(f, w^(p^i) - w) = 1 for every i <= k/2, i.e. it has
    no factor of degree dividing some i <= k/2; a reducible f fails at the
    degree of its smallest factor, usually early.  The steps run on the
    kernel of F_p."""
    K = _PrimeKernel(p)
    w = [K.zero, K.one]
    for tail in itertools.product(range(p), repeat=k):
        f = list(tail) + [K.one]
        frob = w
        for _ in range(k // 2):
            frob = K.powmod(frob, p, f)
            if len(K.gcd(f, K.sub(frob, w))) > 1:
                break
        else:
            return tuple(tail) + (1,)
    raise CheckFailed(f"no monic irreducible of degree {k} mod {p} found")


@functools.lru_cache(maxsize=None)
def residue_field(p: int, k: int) -> Fq:
    """F_{p^k}, the residue field of every working context E(p, n, k), one
    object per (p, k) per process: F_p at k = 1, and otherwise
    F_p[w]/(find_irreducible(p, k)), whose Ben-Or test is the proof that
    the modulus is irreducible.  Its kernel is a `_TableKernel` when it has
    at most TABLE_MAX_ORDER elements, and the convolution above."""
    F = Fq(p)
    if k == 1:
        return F
    E = Fq(p, modulus=poly(F, find_irreducible(p, k)), base=F)
    if E.order <= TABLE_MAX_ORDER:
        E.kernel = _TableKernel(p, E.kernel.modulus)
    return E


def trace_to_base(elem: FqElement, base: Fq) -> FqElement:
    """Relative trace from elem's field down to `base` (a subfield)."""
    field = elem.field
    if field == base:
        return elem
    m, r = divmod(field.degree, base.degree)
    if r:
        raise ValueError(f"F_{base.order} is not a subfield of "
                         f"F_{field.order}")
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
    if field.base is None:
        raise ValueError(f"F_{base.order} is not a subfield of F_{field.p}")
    rep = elem.rep
    if rep[1:] != field.kernel.zero[1:]:
        raise CheckFailed("element does not lie in the base field")
    return _project_to_base(FqElement(field.base, rep[0]), base)


# ---------------------------------------------------------------------------
# Rational maps over a finite field
# ---------------------------------------------------------------------------

def direction_key(d) -> tuple:
    """Hashable identifier of a tangent direction over the base field: of
    INF_POINT, of a point of the field, or of the Galois orbit of roots of
    a monic irreducible polynomial (a linear one names its root)."""
    if isinstance(d, Infinity):
        return ("inf",)
    if isinstance(d, tuple):
        if poly_deg(d) > 1:
            return ("orbit", tuple(c.rep for c in d))
        d = -d[0]
    return ("pt", d.rep)


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
        return direction_key(self.minpoly if self.orbit_size > 1
                             else self.location)


class FqRationalMap(RationalMap):
    """A rational map over a finite field, kept in coprime form with a
    monic denominator."""

    def __init__(self, ctx: Fq, num, den, _coprime: bool = False):
        num, den = _trim(num), _trim(den)
        if not num and not den:
            raise ZeroPolynomial("0/0 is not a rational map")
        # a vanishing numerator (or denominator) makes the map constant;
        # collapse the other side so degree/is_constant report that
        if not num:
            den = (ctx.one,)
        elif not den:
            num = (ctx.one,)
        elif not _coprime:
            _, num, den = ctx.ring.lowest_terms(num, den)
        # scale so the denominator (or numerator if den == 0) is monic
        scale = (den[-1] if den else num[-1]).inverse()
        self.ctx = ctx
        self.num = poly_scale(ctx, num, scale)
        self.den = poly_scale(ctx, den, scale)

    def is_constant(self) -> bool:
        return self.degree <= 0

    def __eq__(self, other):
        return (isinstance(other, FqRationalMap) and self.ctx == other.ctx
                and self.num == other.num and self.den == other.den)

    # -- fixed-point analysis --------------------------------------------

    def fixed_points(self):
        """All fixed points over the algebraic closure, grouped by Galois
        orbit, with multiplicities summing to degree + 1."""
        if self.is_identity():
            raise IdentityMap("the identity fixes everything")
        F = self.ctx
        P = self.fixed_point_polynomial()
        polys = (self.num, self.den, self.derivative_numerator())
        out = []
        if P:
            for q, mult in factor(F, P):
                m = poly_deg(q)
                if m == 1:
                    loc_field = F
                    loc = -q[0]
                else:
                    loc_field = Fq(F.p, modulus=q, base=F)
                    loc = loc_field.gen
                lam, crit = self._multiplier_and_critical(loc, loc_field, mult,
                                                          polys)
                out.append(TangentFixedDirection(
                    location=loc, field=loc_field, minpoly=q if m > 1 else None,
                    orbit_size=m, multiplicity=mult,
                    multiplier=lam, critically_fixed=crit))
        inf_mult = self.infinity_multiplicity()
        if inf_mult:
            g = self.flip()
            lam, crit = g._multiplier_and_critical(
                F.zero, F, inf_mult, (g.num, g.den, g.derivative_numerator()))
            out.append(TangentFixedDirection(
                location=INF_POINT, field=F, minpoly=None, orbit_size=1,
                multiplicity=inf_mult, multiplier=lam, critically_fixed=crit))
        total = sum(t.orbit_size * t.multiplicity for t in out)
        if total != self.degree + 1:
            raise CheckFailed(f"tangent map fixes {total} directions, "
                              f"expected {self.degree + 1}")
        return out

    def _multiplier_and_critical(self, loc: FqElement, loc_field: Fq,
                                 mult: int, polys):
        """(multiplier, critical flag) at the fixed point loc of loc_field,
        an extension of the map's field into which the coefficients embed.
        `polys` is (num, den, N) over the map's field, N the
        `derivative_numerator`, which the caller computes once for all its
        fixed points; they are embedded only when loc_field is a proper
        extension."""
        F = loc_field
        num, den, N = polys
        if F != self.ctx:
            num, den, N = (poly_shift_coeffs(self.ctx, f, F)
                           for f in (num, den, N))
        dv = poly_eval(F, den, loc)
        if dv.is_zero():
            raise CheckFailed("coprime map cannot have a fixed pole")
        lam = poly_eval(F, N, loc) / (dv * dv)
        crit = lam.is_zero()
        # cross-check criticality: the local degree at loc exceeds 1 iff
        # diff = num - m(loc) den, which vanishes at loc, vanishes there to
        # order >= 2; writing diff = (w - loc) q, that is q(loc) = diff'(loc)
        # = 0, in every characteristic
        val_here = poly_eval(F, num, loc) / dv
        diff = F.ring.add(num, den, -val_here)
        if poly_eval(F, F.ring.deriv(diff), loc).is_zero() != crit:
            raise CheckFailed("criticality cross-check failed")
        if mult >= 2 and not self.is_identity() and lam != F.one:
            raise CheckFailed("multiple fixed point must have multiplier 1")
        return lam, crit

    def holomorphic_index_check(self) -> bool:
        """Verify sum of 1/(1 - lambda) over all fixed points equals 1.

        Requires every multiplier to differ from 1 (equivalently, all fixed
        points simple).  Conjugate orbits contribute through a relative trace.
        """
        if self.is_identity():
            raise IdentityMap("index sum undefined for the identity")
        total = self.ctx.zero
        for t in self.fixed_points():
            one = t.field.one
            if t.multiplier == one:
                raise MultiplierOne("fixed point with multiplier 1")
            term = (one - t.multiplier).inverse()
            total = total + trace_to_base(term, self.ctx)
        return total == self.ctx.one
