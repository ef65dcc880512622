"""Exact arithmetic in a working field E(p, n, k): the p-adic rationals with a
ramified generator pi (pi^n = p) and an unramified generator x of degree k
adjoined.

An element is the rational combination of the monomials x^i * pi^j
(0 <= i < k, 0 <= j < n) whose coefficients are nums[i * n + j] / den: one
flat tuple of n * k ints over one positive common denominator.  A product is
an integer convolution reduced by the integer minimal polynomial of x, and an
inverse solves the integer multiplication matrix by fraction-free (Bareiss)
elimination, so every operation normalises by a single gcd instead of one per
coefficient.  The valuation is an exact rational in (1/n)*Z, read off the
coefficients and cross-checked against the norm by a unit test mod p.  An
element caches it as the int n * val (`nval`, INF at 0): Newton polygons,
perturbation bounds and normal forms compare those ints, and `val` forms
the Fraction from it only for the readers that want one.  The residue of
self / pi^m (`residue_shifted`, and so the leading digit `unit_residue`)
is read straight off the coefficient column of pi^(m mod n), with no
product and no second valuation.

Most elements of a run do not use the tower, and pay for it only where they
do.  A product with a rational operand (nums zero past index 0, as every
element of E(p, 1, 1)) scales the other operand's nums by one int; the
inverse of a monomial (c / den) pi^j is the monomial (den / c) pi^-j; and
the unit test decides a constant or linear residue without a polynomial
Euclid (see `_unram_val`).  Each short path computes the same value as the
general one, and since the representation is unique, the same nums and den.
Nothing here is approximate, and the exactness checks raise CheckFailed, so
they still run under `python -O`.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Optional, Sequence

from . import residue as rf
from .errors import CheckFailed, NegativeValuation
from .residue import _is_prime


class _Infinity:
    """One end of the extended rational line: the valuation of 0 and the
    unbounded ends of a ray.  `INF` is ordered above every rational and
    `NEG_INF` below, each is equal only to itself, `-INF is NEG_INF`, and
    no other arithmetic is defined, so a sum with one raises TypeError.
    Copies and pickles resolve to the same two objects."""

    __slots__ = ("_sign", "_name")

    def __init__(self, sign: int, name: str):
        self._sign, self._name = sign, name

    def _side(self, other) -> int:
        """The sign of self - other."""
        if other is self:
            return 0
        if isinstance(other, (_Infinity, numbers.Rational)):
            return self._sign
        raise TypeError(f"{self!r} compared with {other!r}")

    def __lt__(self, other):
        return self._side(other) < 0

    def __le__(self, other):
        return self._side(other) <= 0

    def __gt__(self, other):
        return self._side(other) > 0

    def __ge__(self, other):
        return self._side(other) >= 0

    def __neg__(self):
        return NEG_INF if self is INF else INF

    def __reduce__(self):
        return self._name

    def __repr__(self):
        return self._name


INF = _Infinity(1, "INF")  # val(0); compared with `is`
NEG_INF = _Infinity(-1, "NEG_INF")  # the unbounded ray end toward infinity


def _vp(c: int, p: int) -> int:
    """p-adic valuation of a nonzero int."""
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def vp(q: Fraction, p: int) -> Fraction:
    """p-adic valuation of a rational number (INF for 0)."""
    q = Fraction(q)
    if q == 0:
        return INF
    return Fraction(_vp(q.numerator, p) - _vp(q.denominator, p))


class PrimeContext:
    """The working field E(p, n, k), named by the prime p, the ramification
    index n and the unramified degree k alone.  Its residue field F_{p^k} is
    `residue.residue_field(p, k)`, one object shared by every context over
    (p, k), and `unram_min_poly`, the monic integer minimal polynomial of
    the unramified generator x, is read off that field's modulus (at k = 1,
    x = 0 and its minimal polynomial is w).  `ring` is the polynomial
    arithmetic over its elements (`residue._Elements`)."""

    def __init__(self, p: int, n: int = 1, k: int = 1):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if n < 1 or k < 1:
            raise ValueError("n and k must be >= 1")
        self.p = p
        self.n = n
        self.k = k
        F = self.residue_field = rf.residue_field(p, k)
        self.unram_min_poly = (0, 1) if k == 1 else \
            tuple(c.rep for c in F.modulus)
        self.ring = rf._Elements(self)

    # -- element constructors --------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * (self.n * self.k))

    @property
    def one(self) -> "FieldElement":
        return self.from_rational(1)

    @property
    def pi(self) -> "FieldElement":
        return self.pi_pow(1)

    @property
    def x_gen(self) -> "FieldElement":
        nums = [0] * (self.n * self.k)
        if self.k > 1:  # x = 0 at k = 1
            nums[self.n] = 1
        return FieldElement(self, nums)

    def from_rational(self, q) -> "FieldElement":
        q = Fraction(q)
        nums = [0] * (self.n * self.k)
        nums[0] = q.numerator
        return FieldElement(self, nums, q.denominator)

    # named as in a finite field, for the ring's derivative
    def from_int(self, c: int) -> "FieldElement":
        return self.from_rational(c)

    def pi_pow(self, m: int) -> "FieldElement":
        """pi^m for any integer m (negative powers divide by p)."""
        q, r = divmod(m, self.n)
        nums = [0] * (self.n * self.k)
        nums[r] = self.p ** max(q, 0)
        return FieldElement(self, nums, self.p ** max(-q, 0))

    def nval_of(self, s) -> Optional[int]:
        """n*s as an int when the rational s lies in the value group (1/n)Z
        of the working field, None otherwise: the one test of membership,
        and the one move from a valuation to a power of pi."""
        ns = s * self.n
        return ns.numerator if ns.denominator == 1 else None

    def element(self, coeffs) -> "FieldElement":
        """Build from coeffs[i][j] (rationals), i < k indexing x, j < n
        indexing pi."""
        qs = [Fraction(0)] * (self.n * self.k)
        for i, row in enumerate(coeffs[:self.k]):
            for j, c in enumerate(row[:self.n]):
                qs[i * self.n + j] = Fraction(c)
        den = math.lcm(*(q.denominator for q in qs))
        return FieldElement(self, [q.numerator * (den // q.denominator)
                                   for q in qs], den)

    def lift(self, e: rf.FqElement) -> "FieldElement":
        """Teichmueller-free lift of a residue-field element (coefficients
        lifted to integers)."""
        if e.field != self.residue_field:
            raise ValueError(f"{e!r} is not in the residue field of {self!r}")
        nums = [0] * (self.n * self.k)
        nums[::self.n] = (e.rep,) if self.k == 1 else e.rep
        return FieldElement(self, nums)

    # -- structural --------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PrimeContext):
            return NotImplemented
        return (self.p, self.n, self.k) == (other.p, other.n, other.k)

    def __hash__(self):
        return hash((self.p, self.n, self.k))

    def __repr__(self):
        return f"E(p={self.p}, n={self.n}, k={self.k})"

    def extend(self, n: Optional[int] = None, k: Optional[int] = None) -> "PrimeContext":
        """A context with larger ramification and/or unramified degree.

        The new n must be a multiple of the old.  Increasing k is supported
        only from a k = 1 base (a general relative embedding of unramified
        parts is out of scope).
        """
        new_n = n if n is not None else self.n
        new_k = k if k is not None else self.k
        if new_n % self.n != 0:
            raise ValueError("new ramification index must be a multiple")
        if new_k != self.k and self.k != 1:
            raise ValueError("unramified extension supported only from k = 1")
        if new_n == self.n and new_k == self.k:
            return self
        return PrimeContext(self.p, new_n, new_k)

    def embed(self, e: "FieldElement") -> "FieldElement":
        """Embed an element of a sub-context (same shape rules as extend)."""
        src = e.ctx
        if src == self:
            return e
        if self.n % src.n or src.k not in (1, self.k):
            raise ValueError(f"{src!r} is not a sub-context of {self!r}")
        step = self.n // src.n
        nums = [0] * (self.n * self.k)
        for idx, c in enumerate(e.nums):
            # constants of a k = 1 source land on the i = 0 row
            i, j = divmod(idx, src.n)
            nums[i * self.n + j * step] = c
        return FieldElement(self, nums, e.den)


class FieldElement:
    """An element of E(p, n, k); immutable, exact.

    `nums` is a tuple of n * k ints, the numerator of the coefficient of
    x^i * pi^j sitting at index i * n + j, and `den` is their common
    denominator, always > 0.  The constructor divides out gcd(den, *nums)
    (so zero is nums = (0, ...), den = 1), which makes the representation
    unique: equal elements have equal nums and den, and so equal hashes.
    The valuation is computed once per element, as `nval` and `val`.
    """

    __slots__ = ("ctx", "nums", "den", "_nv", "_val")

    def __init__(self, ctx: PrimeContext, nums: Sequence[int], den: int = 1):
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        self.ctx = ctx
        self.nums = tuple(nums)
        self.den = den
        self._nv = self._val = None

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, FieldElement) or (
                other.ctx is not self.ctx and other.ctx != self.ctx):
            raise TypeError("operands from different working fields")

    def __add__(self, other):
        self._check(other)
        a, b = self.den, other.den
        if a == b:
            return FieldElement(self.ctx, [x + y for x, y in
                                           zip(self.nums, other.nums)], a)
        return FieldElement(self.ctx, [x * b + y * a for x, y in
                                       zip(self.nums, other.nums)], a * b)

    def __sub__(self, other):
        self._check(other)
        a, b = self.den, other.den
        if a == b:
            return FieldElement(self.ctx, [x - y for x, y in
                                           zip(self.nums, other.nums)], a)
        return FieldElement(self.ctx, [x * b - y * a for x, y in
                                       zip(self.nums, other.nums)], a * b)

    def __neg__(self):
        return FieldElement(self.ctx, [-c for c in self.nums], self.den)

    def __mul__(self, other):
        self._check(other)
        a, b = self.nums, other.nums
        # a rational operand scales the other's nums by one int
        if not any(b[1:]):
            nums = [b[0] * c for c in a]
        elif not any(a[1:]):
            nums = [a[0] * c for c in b]
        else:
            nums = _product(self.ctx, a, b)
        return FieldElement(self.ctx, nums, self.den * other.den)

    def scale(self, q) -> "FieldElement":
        """q * self for an int or rational q, with no product in the
        field."""
        if isinstance(q, int):
            return FieldElement(self.ctx, [q * c for c in self.nums], self.den)
        q = Fraction(q)
        return FieldElement(self.ctx, [q.numerator * c for c in self.nums],
                            q.denominator * self.den)

    def inverse(self) -> "FieldElement":
        """The exact inverse.  A monomial (c / den) pi^j of the x^0 row
        inverts in closed form, as (den / c) pi^-j = den / (c p) pi^(n - j)
        for j > 0; the constructor's normalisation makes that the
        representation the solve gives.  Any other element solves its
        multiplication matrix by Bareiss elimination, which raises
        CheckFailed on a singular matrix or an inexact division."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        ctx = self.ctx
        nz = [j for j, c in enumerate(self.nums) if c]
        if len(nz) > 1 or nz[0] >= ctx.n:
            return self._solve_inverse()
        j = nz[0]
        c = self.nums[j] * (ctx.p if j else 1)
        nums = [0] * len(self.nums)
        nums[(ctx.n - j) % ctx.n] = self.den if c > 0 else -self.den
        return FieldElement(ctx, nums, abs(c))

    def _solve_inverse(self) -> "FieldElement":
        ctx = self.ctx
        dim = ctx.n * ctx.k
        # columns of the multiplication-by-nums matrix; self * y = 1 is
        # nums * y = den * (1, 0, ..., 0)
        cols = [_product(ctx, self.nums, [int(r == c) for r in range(dim)])
                for c in range(dim)]
        rows = [[col[r] for col in cols] + [self.den if r == 0 else 0]
                for r in range(dim)]
        sol, det = _bareiss_solve(rows)
        if det < 0:
            sol, det = [-s for s in sol], -det
        return FieldElement(ctx, sol, det)

    def __truediv__(self, other):
        return self * other.inverse()

    # -- valuation and residue --------------------------------------------

    def nval(self):
        """n * val(self) as an int, INF at 0: the valuation in units of
        1/n, which every hot reader compares without forming a Fraction."""
        nv = self._nv
        if nv is None:
            nv = self._nv = self._compute_nval()
        return nv

    def val(self) -> Fraction:
        """Exact valuation in (1/n)*Z, normalized so val(p) = 1; INF at 0."""
        if self._val is None:
            nv = self.nval()
            self._val = nv if nv is INF else Fraction(nv, self.ctx.n)
        return self._val

    def _compute_nval(self):
        n = self.ctx.n
        best = None
        for j in range(n):
            unram = self.nums[j::n]
            if any(unram):
                cand = n * self._unram_val(unram) + j
                if best is None or cand < best:
                    best = cand
        if best is None:
            return INF
        return best - n * _vp(self.den, self.ctx.p)

    def _unram_val(self, unram_nums) -> int:
        """Valuation of an integral element a of the unramified part: the
        minimum v of its coefficients' valuations, since the monomial basis is
        integral.  Cross-checked against the norm, mod p: v_p(Norm(a)) = k v
        iff Norm(a / p^v) is a p-unit, i.e. iff r = a / p^v mod p is a unit
        of F_p[x]/(m), m the minimal polynomial of x mod p: iff gcd(r, m) = 1.
        By the degree of r, which is not zero: a constant is a unit; a
        linear r = r1 (x - t) is one iff m(t) != 0 mod p (Horner on ints);
        otherwise the gcd runs on the kernel of F_p.  That is the same
        predicate for every monic m, reducible ones included."""
        ctx = self.ctx
        p = ctx.p
        vals = [_vp(c, p) if c else None for c in unram_nums]
        v = min(vc for vc in vals if vc is not None)
        if ctx.k == 1:
            return v
        K = ctx.residue_field.base.kernel
        a = K._trim([c // p ** v % p if vc == v else 0
                     for c, vc in zip(unram_nums, vals)])
        if len(a) == 1:
            return v
        if len(a) == 2:
            t = -a[0] * pow(a[1], -1, p)  # the root of r
            m_t = 0
            for c in reversed(ctx.unram_min_poly):
                m_t = (m_t * t + c) % p
            unit = m_t != 0
        else:
            unit = len(K.gcd(a, [c % p for c in ctx.unram_min_poly])) == 1
        if not unit:
            raise CheckFailed("norm valuation disagrees with integral-basis "
                              "minimum")
        return v

    def residue(self) -> rf.FqElement:
        """Image in the residue field F_{p^k}; requires val >= 0."""
        nv = self.nval()
        ctx = self.ctx
        F = ctx.residue_field
        if nv is INF or nv > 0:
            return F.zero
        if nv < 0:
            raise NegativeValuation(f"val = {self.val()} < 0")
        if self.den % ctx.p == 0:
            raise CheckFailed("denominator divisible by p at valuation 0")
        inv = pow(self.den, -1, ctx.p)
        digits = tuple(c * inv % ctx.p for c in self.nums[::ctx.n])
        return rf.FqElement(F, digits[0] if ctx.k == 1 else digits)

    def residue_shifted(self, m: int) -> rf.FqElement:
        """Residue of self / pi^m for an int m <= nval, with no product:
        zero for m < nval, and at m = nval the digits of column r = m mod n,
        the coefficient of pi^r, divided by p^v, v = m div n + v_p(den),
        times the inverse of den's p-free part mod p.  Raises
        NegativeValuation for m > nval, and CheckFailed when that column is
        not divisible by p^v or its digits vanish, either of which
        contradicts nval."""
        nv = self.nval()
        ctx = self.ctx
        if nv is INF or m < nv:
            return ctx.residue_field.zero
        if m > nv:
            raise NegativeValuation(
                f"val = {self.val()} < {Fraction(m, ctx.n)}")
        p = ctx.p
        q, r = divmod(m, ctx.n)
        e = _vp(self.den, p)
        v = q + e
        column = self.nums[r::ctx.n]
        pv = p ** max(v, 0)
        if v < 0 or any(c % pv for c in column):
            raise CheckFailed(f"the coefficient of pi^{r} is not divisible "
                              f"by p^{v} at n*val = {m}")
        inv = pow(self.den // p ** e, -1, p)
        digits = tuple(c // pv * inv % p for c in column)
        if not any(digits):
            raise CheckFailed(f"the leading digits vanish at n*val = {m}")
        return rf.FqElement(ctx.residue_field,
                            digits[0] if ctx.k == 1 else digits)

    def unit_residue(self) -> rf.FqElement:
        """Residue of self / pi^(n * val): the leading residue digit."""
        nv = self.nval()
        if nv is INF:
            raise ValueError("unit residue of zero")
        return self.residue_shifted(nv)

    def truncate(self, level) -> "FieldElement":
        """A congruent representative: val(self - result) >= level, with every
        rational coordinate reduced to a canonical small residue.  Keeps the
        digit expansion below `level` intact while discarding the unbounded
        tail exact arithmetic accumulates (Newton iteration, in particular,
        doubles coefficient heights per step without this).

        Coordinate a = c / den with vp(a) < m, m = ceil(level - j/n), becomes
        r / p^e: e is the p-exponent of a's reduced denominator and r the
        residue of a * p^e modulo p^(m + e)."""
        ctx = self.ctx
        n, p = ctx.n, ctx.p
        level = Fraction(level)
        den_v = _vp(self.den, p)
        unit = self.den // p ** den_v
        bounds = [math.ceil(level - Fraction(j, n)) for j in range(n)]
        parts = []  # (index, r, e)
        for idx, c in enumerate(self.nums):
            if c:
                v, m = _vp(c, p), bounds[idx % n]
                if v - den_v < m:
                    e = max(den_v - v, 0)
                    mod = p ** (m + e)
                    r = c // p ** min(v, den_v) * pow(unit, -1, mod) % mod
                    parts.append((idx, r, e))
        top = max((e for _, _, e in parts), default=0)
        nums = [0] * len(self.nums)
        for idx, r, e in parts:
            nums[idx] = r * p ** (top - e)
        out = FieldElement(ctx, nums, p ** top)
        diff = self - out
        if not (diff.is_zero() or diff.val() >= level):
            raise CheckFailed("truncation is not congruent to the element")
        return out

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.ctx == other.ctx and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.ctx, self.nums, self.den))

    def __repr__(self):
        parts = []
        for idx, c in enumerate(self.nums):
            if c == 0:
                continue
            i, j = divmod(idx, self.ctx.n)
            mono = []
            if i == 1:
                mono.append("x")
            elif i > 1:
                mono.append(f"x^{i}")
            if j == 1:
                mono.append("pi")
            elif j > 1:
                mono.append(f"pi^{j}")
            parts.append("*".join([str(Fraction(c, self.den))] + mono))
        return " + ".join(parts) if parts else "0"


def _product(ctx: PrimeContext, a: Sequence[int], b: Sequence[int]) -> list:
    """Numerators of the product of two numerator vectors: an integer
    convolution in x and pi, with pi^n = p, then x^k reduced by the minimal
    polynomial."""
    n, k, p = ctx.n, ctx.k, ctx.p
    prod = [0] * ((2 * k - 1) * n)
    terms = [(ib, ib % n, cb) for ib, cb in enumerate(b) if cb]
    for ia, ca in enumerate(a):
        if ca:
            ja = ia % n
            for ib, jb, cb in terms:
                if ja + jb < n:
                    prod[ia + ib] += ca * cb
                else:
                    prod[ia + ib - n] += p * ca * cb
    mp = ctx.unram_min_poly
    for i in range(2 * k - 2, k - 1, -1):
        top = prod[i * n:(i + 1) * n]
        if any(top):
            for t in range(k):
                if mp[t]:
                    base = (i - k + t) * n
                    for j, c in enumerate(top):
                        prod[base + j] -= mp[t] * c
    del prod[k * n:]
    return prod


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise CheckFailed("inexact division in the fraction-free solve")
    return q


def _bareiss_solve(m):
    """Solve a square integer system, given as rows [A | b], by fraction-free
    (Bareiss) elimination and back substitution.  Returns (X, d) with
    A (X / d) = b and d = +-det A; every division is exact, by Sylvester's
    identity for the elimination and Cramer's rule for X."""
    size = len(m)
    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            raise CheckFailed("singular multiplication matrix")
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        for row in m[col + 1:]:
            f = row[col]
            for c in range(col + 1, size + 1):
                row[c] = _exact_div(row[c] * top[col] - f * top[c], prev)
        prev = top[col]
    xs = [0] * size
    for r in range(size - 1, -1, -1):
        s = prev * m[r][size] - sum(m[r][c] * xs[c] for c in range(r + 1, size))
        xs[r] = _exact_div(s, m[r][r])
    return xs, prev
