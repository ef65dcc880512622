"""Exact arithmetic in a working field E(p, n, k): the p-adic rationals with a
ramified generator pi (pi^n = p) and an unramified generator x of degree k
adjoined.

Elements are stored as exact rational coefficients c_{ij} of the monomials
x^i * pi^j (0 <= i < k, 0 <= j < n), so every computation is symbolic and the
valuation is an exact rational in (1/n)*Z.  Nothing here is approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import residue as rf
from .errors import NegativeValuation

INF = Fraction(10 ** 9)  # sentinel for val(0); compares above any real valuation
NEG_INF = -INF  # sentinel for unbounded ray ends; compared with `is`


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def vp(q: Fraction, p: int) -> Fraction:
    """p-adic valuation of a rational number (INF for 0)."""
    q = Fraction(q)
    if q == 0:
        return INF
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return Fraction(v)


class PrimeContext:
    """Defining data of the working field: prime p, ramification index n,
    unramified degree k, and the monic integer minimal polynomial of the
    unramified generator (irreducible mod p)."""

    def __init__(self, p: int, n: int = 1, k: int = 1,
                 unram_min_poly: Optional[Sequence[int]] = None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if n < 1 or k < 1:
            raise ValueError("n and k must be >= 1")
        self.p = p
        self.n = n
        self.k = k
        prime_field = rf.Fq(p)
        if unram_min_poly is None:
            unram_min_poly = rf.find_irreducible(p, k) if k > 1 else (0, 1)
        unram_min_poly = tuple(int(c) for c in unram_min_poly)
        if len(unram_min_poly) != k + 1 or unram_min_poly[-1] != 1:
            raise ValueError("unram_min_poly must be monic of degree k")
        if k > 1:
            reduced = rf.poly(prime_field, unram_min_poly)
            if rf.poly_deg(reduced) != k or not rf.is_irreducible(prime_field, reduced):
                raise ValueError("unram_min_poly must be irreducible mod p")
            self.residue_field = rf.Fq(p, modulus=reduced, base=prime_field)
        else:
            self.residue_field = prime_field
        self.unram_min_poly = unram_min_poly

    # -- element constructors --------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, ((Fraction(0),) * self.n,) * self.k)

    @property
    def one(self) -> "FieldElement":
        return self.from_rational(1)

    @property
    def pi(self) -> "FieldElement":
        return self.pi_pow(1)

    @property
    def x_gen(self) -> "FieldElement":
        coeffs = [[Fraction(0)] * self.n for _ in range(self.k)]
        if self.k == 1:
            # the generator of a trivial extension is a root of w - c
            coeffs[0][0] = Fraction(-self.unram_min_poly[0])
        else:
            coeffs[1][0] = Fraction(1)
        return FieldElement(self, tuple(tuple(r) for r in coeffs))

    def from_rational(self, q) -> "FieldElement":
        coeffs = [[Fraction(0)] * self.n for _ in range(self.k)]
        coeffs[0][0] = Fraction(q)
        return FieldElement(self, tuple(tuple(r) for r in coeffs))

    # alias so the generic polynomial helpers accept a PrimeContext wherever
    # they accept a finite field
    def from_int(self, c: int) -> "FieldElement":
        return self.from_rational(c)

    def pi_pow(self, m: int) -> "FieldElement":
        """pi^m for any integer m (negative powers divide by p)."""
        q, r = divmod(m, self.n)
        coeffs = [[Fraction(0)] * self.n for _ in range(self.k)]
        coeffs[0][r] = Fraction(self.p) ** q
        return FieldElement(self, tuple(tuple(r_) for r_ in coeffs))

    def element(self, coeffs) -> "FieldElement":
        """Build from coeffs[i][j] (rationals), i < k indexing x, j < n
        indexing pi."""
        rows = []
        for i in range(self.k):
            row = coeffs[i] if i < len(coeffs) else ()
            rows.append(tuple(Fraction(row[j]) if j < len(row) else Fraction(0)
                              for j in range(self.n)))
        return FieldElement(self, tuple(rows))

    def lift(self, e: rf.FqElement) -> "FieldElement":
        """Teichmueller-free lift of a residue-field element (coefficients
        lifted to integers)."""
        assert e.field == self.residue_field
        coeffs = [[Fraction(0)] * self.n for _ in range(self.k)]
        if self.k == 1:
            coeffs[0][0] = Fraction(e.rep)
        else:
            for i, c in enumerate(e.rep):
                coeffs[i][0] = Fraction(c.rep)
        return FieldElement(self, tuple(tuple(r) for r in coeffs))

    # -- structural --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PrimeContext):
            return NotImplemented
        return (self.p, self.n, self.k, self.unram_min_poly) == \
            (other.p, other.n, other.k, other.unram_min_poly)

    def __hash__(self):
        return hash((self.p, self.n, self.k, self.unram_min_poly))

    def __repr__(self):
        return f"E(p={self.p}, n={self.n}, k={self.k})"

    def extend(self, n: Optional[int] = None, k: Optional[int] = None) -> "PrimeContext":
        """A context with larger ramification and/or unramified degree.

        The new n must be a multiple of the old.  Increasing k is supported
        only from a k = 1 base (a general relative embedding of unramified
        parts is out of scope); the new minimal polynomial is chosen by the
        deterministic search.
        """
        new_n = n if n is not None else self.n
        new_k = k if k is not None else self.k
        if new_n % self.n != 0:
            raise ValueError("new ramification index must be a multiple")
        if new_k != self.k and self.k != 1:
            raise ValueError("unramified extension supported only from k = 1")
        if new_k % self.k != 0:
            raise ValueError("new unramified degree must be a multiple")
        if new_n == self.n and new_k == self.k:
            return self
        poly_arg = self.unram_min_poly if new_k == self.k else None
        return PrimeContext(self.p, new_n, new_k, unram_min_poly=poly_arg)

    def embed(self, e: "FieldElement") -> "FieldElement":
        """Embed an element of a sub-context (same shape rules as extend)."""
        src = e.ctx
        if src == self:
            return e
        assert self.n % src.n == 0
        assert src.k == self.k and src.unram_min_poly == self.unram_min_poly \
            or src.k == 1
        step = self.n // src.n
        coeffs = [[Fraction(0)] * self.n for _ in range(self.k)]
        for i in range(src.k):
            for j in range(src.n):
                c = e.coeffs[i][j]
                if c:
                    if src.k == 1 and self.k > 1:
                        # constants embed on the i = 0 row
                        coeffs[0][j * step] += c
                    else:
                        coeffs[i][j * step] += c
        return FieldElement(self, tuple(tuple(r) for r in coeffs))


class FieldElement:
    """An element of E(p, n, k); immutable, exact."""

    __slots__ = ("ctx", "coeffs", "_val")

    def __init__(self, ctx: PrimeContext, coeffs: Tuple[Tuple[Fraction, ...], ...]):
        self.ctx = ctx
        self.coeffs = coeffs
        self._val = None

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.coeffs for c in row)

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        assert isinstance(other, FieldElement) and other.ctx == self.ctx, \
            "operands from different working fields"

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.ctx, tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.ctx, tuple(
            tuple(a - b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return FieldElement(self.ctx, tuple(
            tuple(-a for a in r) for r in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        n, k, p = ctx.n, ctx.k, ctx.p
        # multiply as polynomials in x over Q[pi]/(pi^n - p)
        prod = [[Fraction(0)] * n for _ in range(2 * k - 1)]
        for i1, r1 in enumerate(self.coeffs):
            for j1, c1 in enumerate(r1):
                if not c1:
                    continue
                for i2, r2 in enumerate(other.coeffs):
                    for j2, c2 in enumerate(r2):
                        if not c2:
                            continue
                        j = j1 + j2
                        c = c1 * c2
                        if j >= n:
                            j -= n
                            c *= p
                        prod[i1 + i2][j] += c
        # reduce x-degree by the minimal polynomial
        mp = ctx.unram_min_poly
        for i in range(2 * k - 2, k - 1, -1):
            row = prod[i]
            if all(c == 0 for c in row):
                continue
            for t in range(k):
                if mp[t]:
                    for j in range(n):
                        prod[i - k + t][j] -= mp[t] * row[j]
            prod[i] = [Fraction(0)] * n
        return FieldElement(ctx, tuple(tuple(r) for r in prod[:k]))

    def scale(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self.ctx, tuple(
            tuple(q * a for a in r) for r in self.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        ctx = self.ctx
        n, k = ctx.n, ctx.k
        dim = n * k
        basis = [_basis_elem(ctx, i, j) for i in range(k) for j in range(n)]
        # columns of the multiplication-by-self matrix
        cols = [self * b for b in basis]
        mat = [[cols[c].coeffs[idx // n][idx % n] for c in range(dim)]
               for idx in range(dim)]
        rhs = [Fraction(1)] + [Fraction(0)] * (dim - 1)
        sol = _solve_exact(mat, rhs)
        coeffs = [[sol[i * n + j] for j in range(n)] for i in range(k)]
        return FieldElement(ctx, tuple(tuple(r) for r in coeffs))

    def __truediv__(self, other):
        return self * other.inverse()

    # -- valuation and residue --------------------------------------------

    def val(self) -> Fraction:
        """Exact valuation in (1/n)*Z, normalized so val(p) = 1; INF at 0."""
        if self._val is None:
            self._val = self._compute_val()
        return self._val

    def _compute_val(self) -> Fraction:
        ctx = self.ctx
        best = INF
        for j in range(ctx.n):
            unram = [self.coeffs[i][j] for i in range(ctx.k)]
            v = self._unram_val(unram)
            if v is not INF:
                cand = v + Fraction(j, ctx.n)
                if cand < best:
                    best = cand
        return best

    def _unram_val(self, unram_coeffs) -> Fraction:
        """Valuation of an element a of the unramified part: the minimum v
        of its coefficients' valuations, since the monomial basis is
        integral.  Cross-checked against the norm, mod p: v_p(Norm(a)) = k v
        iff Norm(a / p^v) is a p-unit, i.e. iff the multiplication matrix of
        a / p^v has a nonzero determinant mod p."""
        ctx = self.ctx
        p = ctx.p
        vals = [vp(c, p) for c in unram_coeffs]
        v = min(vals)
        if v is INF or ctx.k == 1:
            return v
        # a / p^v mod p in the x-power basis, times x^0, ..., x^(k-1)
        mp = ctx.unram_min_poly
        col = [_unit_mod_p(c, p) if vc == v else 0
               for c, vc in zip(unram_coeffs, vals)]
        cols = []
        for _ in range(ctx.k):
            cols.append(col)
            lead = col[-1]
            col = [(c - lead * m) % p for c, m in zip([0] + col[:-1], mp)]
        assert _det_mod_p(cols, p) != 0, \
            "norm valuation disagrees with integral-basis minimum"
        return v

    def residue(self) -> rf.FqElement:
        """Image in the residue field F_{p^k}; requires val >= 0."""
        v = self.val()
        if v is not INF and v < 0:
            raise NegativeValuation(f"val = {v} < 0")
        ctx = self.ctx
        F = ctx.residue_field
        if v is INF or v > 0:
            return F.zero
        prime = rf.Fq(ctx.p)
        digits = []
        for i in range(ctx.k):
            c = self.coeffs[i][0]
            num = prime.from_int(c.numerator)
            den = prime.from_int(c.denominator)
            assert not den.is_zero(), "denominator divisible by p at valuation 0"
            digits.append(num / den)
        if ctx.k == 1:
            return digits[0]
        return rf.FqElement(F, tuple(digits))

    def unit_residue(self) -> rf.FqElement:
        """Residue of self / pi^(n * val): the leading residue digit."""
        v = self.val()
        assert v is not INF, "unit residue of zero"
        shift = self.ctx.pi_pow(-int(v * self.ctx.n))
        return (self * shift).residue()

    def truncate(self, level) -> "FieldElement":
        """A congruent representative: val(self - result) >= level, with every
        rational coordinate reduced to a canonical small residue.  Keeps the
        digit expansion below `level` intact while discarding the unbounded
        tail exact arithmetic accumulates (Newton iteration, in particular,
        doubles coefficient heights per step without this)."""
        import math
        ctx = self.ctx
        level = Fraction(level)
        rows = []
        for i in range(ctx.k):
            row = []
            for j in range(ctx.n):
                a = self.coeffs[i][j]
                m = math.ceil(level - Fraction(j, ctx.n))
                row.append(_rational_truncate(a, m, ctx.p))
            rows.append(tuple(row))
        out = FieldElement(ctx, tuple(rows))
        diff = self - out
        assert diff.is_zero() or diff.val() >= level
        return out

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        parts = []
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c == 0:
                    continue
                mono = []
                if i == 1:
                    mono.append("x")
                elif i > 1:
                    mono.append(f"x^{i}")
                if j == 1:
                    mono.append("pi")
                elif j > 1:
                    mono.append(f"pi^{j}")
                term = "*".join([str(c)] + mono) if mono else str(c)
                parts.append(term)
        return " + ".join(parts) if parts else "0"


def _rational_truncate(a: Fraction, m: int, p: int) -> Fraction:
    """A small rational a' with v_p(a - a') >= m: the canonical residue of a
    modulo p^m, scaled through the p-part of the denominator."""
    if a == 0:
        return a
    t = vp(a, p)
    if t >= m:
        return Fraction(0)
    e = 0
    den = a.denominator
    while den % p == 0:
        den //= p
        e += 1
    big = m + e
    assert big > 0
    mod = p ** big
    num_red = (a.numerator * pow(den, -1, mod)) % mod
    return Fraction(num_red, p ** e)


def _basis_elem(ctx: PrimeContext, i: int, j: int) -> FieldElement:
    coeffs = [[Fraction(0)] * ctx.n for _ in range(ctx.k)]
    coeffs[i][j] = Fraction(1)
    return FieldElement(ctx, tuple(tuple(r) for r in coeffs))


def _unit_mod_p(c: Fraction, p: int) -> int:
    """c / p^vp(c) mod p, for c != 0."""
    num, den = c.numerator, c.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    return num * pow(den, -1, p) % p


def _det_mod_p(rows, p: int) -> int:
    """Determinant mod p of a square int matrix, by Gaussian elimination."""
    m = [list(r) for r in rows]
    size = len(m)
    det = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, size):
            f = m[r][col] * inv % p
            if f:
                for c in range(col, size):
                    m[r][c] = (m[r][c] - f * m[col][c]) % p
    return det % p


def _solve_exact(mat, rhs):
    """Solve a square rational linear system exactly (Gaussian elimination)."""
    size = len(mat)
    m = [list(row) + [rhs[r]] for r, row in enumerate(mat)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        assert pivot is not None, "singular multiplication matrix"
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [c * inv for c in m[col]]
        for r in range(size):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][size] for r in range(size)]
