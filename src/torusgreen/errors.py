"""Exception types shared across the package.

Each failure is a DomainError (CLI exit 2) or a ConsistencyError (exit 3),
except UnreducedModulus, which no caller should meet: a bug that propagates.
"""


class TorusGreenError(Exception):
    """Base class for all package-specific failures."""


class DomainError(TorusGreenError):
    """The input lies outside what the package can answer (CLI exit 2)."""


class ConsistencyError(TorusGreenError):
    """An internal cross check or convergence test failed (CLI exit 3)."""


class InvalidInput(DomainError, ValueError):
    """A user supplied argument (tolerance, grid, region, b) is out of range."""


class NonPositiveImaginaryPart(DomainError):
    """The torus modulus must lie in the open upper half plane."""


class PoleAtLattice(DomainError):
    """A quantity with a pole or zero at lattice points was requested there."""


class Unconverged(ConsistencyError):
    """A series lost too many digits to cancellation or hit its term cap."""


class HalfPeriodInput(DomainError):
    """The duplication identity degenerates where p'(z) vanishes."""


class CountViolation(ConsistencyError):
    """More critical points were found than the theory allows."""


class InconsistentComparison(ConsistencyError):
    """Independent routes to the half period values of G disagree."""


class NoExtraCriticalPoint(DomainError):
    """The torus carries no extra critical point pair, so no such solution."""


class ConstructionInconsistent(ConsistencyError):
    """An internal identity of the mean field construction failed numerically."""


class UnreducedModulus(TorusGreenError):
    """A theta series was asked for below Im tau = 1/2, outside any reduced frame."""
