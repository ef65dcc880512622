"""Exception types shared across the engine.

Every error that a caller may want to branch on gets its own class; anything
raised from here signals a *usage* or *capability* problem, never a bug in the
arithmetic.  CheckFailed is the one exception: a certificate check raises it
when the computed structure contradicts a theorem, an exactness or counting
check (of the field arithmetic, the rational root split, root isolation or
the tangent map's fixed points) when a result fails its cross-check, and a
search or refinement loop that must end (`roots.RootHandle.ensure`,
`residue.find_irreducible`) when it does not.  An argument guard raises
ValueError or TypeError.  The package holds no `assert` statement and raises
no AssertionError, so every check still runs under `python -O`.  The CLI
exits 3 on CheckFailed.
"""


class BerklocusError(Exception):
    """Base class for all package errors."""


class ZeroPolynomial(BerklocusError):
    """Operation requires a nonzero polynomial."""


class ZeroDenominator(BerklocusError):
    """Rational map denominator is identically zero."""


class ConstantMap(BerklocusError):
    """Rational map must be nonconstant."""


class NegativeValuation(BerklocusError):
    """Residue requested for an element of negative valuation."""


class IdentityMap(BerklocusError):
    """Operation is undefined for the identity map."""


class MultiplierOne(BerklocusError):
    """A fixed point has multiplier exactly 1 where that is disallowed."""


class NeedsExtension(BerklocusError):
    """The computation leaves the working field tower.

    Attributes give the minimal (ramification, unramified-degree) pair that
    would make the computation representable.
    """

    def __init__(self, n=None, k=None, detail=""):
        self.n = n
        self.k = k
        self.detail = detail
        parts = []
        if n is not None:
            parts.append(f"n={n}")
        if k is not None:
            parts.append(f"k={k}")
        if detail:
            parts.append(detail)
        super().__init__("requires field extension: " + ", ".join(parts))


class CheckFailed(BerklocusError):
    """A certificate check found the computed structure inconsistent with a
    theorem it must satisfy."""


class ClassicalComponent(BerklocusError):
    """Operation applies only to non-classical components."""


class NotHyperbolic(BerklocusError):
    """Operation applies only to hyperbolic components."""


class NotIndifferent(BerklocusError):
    """Operation applies only to indifferent components."""


class NoTotallyRamifiedFixedPoint(BerklocusError):
    """Map has no totally ramified fixed point."""


class PreconditionViolated(BerklocusError):
    """A stated precondition (such as a residue characteristic bound) fails."""


class NotDegreeOne(BerklocusError):
    """Moebius classification requires a degree-1 map."""


class WrongCase(BerklocusError):
    """The requested quantity is undefined for this Moebius case."""


class ParseError(BerklocusError):
    """Malformed map description."""

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        loc = ""
        if line is not None:
            loc += f" (line {line})"
        if field is not None:
            loc += f" (field {field!r})"
        super().__init__(message + loc)
