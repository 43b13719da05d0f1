"""Exception types shared across the package."""


class TorusGreenError(Exception):
    """Base class for all package-specific failures."""


class InvalidInput(TorusGreenError, ValueError):
    """A user supplied argument (tolerance, grid, region, b) is out of range."""


class NonPositiveImaginaryPart(TorusGreenError):
    """The torus modulus must lie in the open upper half plane."""


class PoleAtLattice(TorusGreenError):
    """A quantity with a pole or zero at lattice points was requested there."""


class Unconverged(TorusGreenError):
    """A series lost too many digits to cancellation or hit its term cap."""


class HalfPeriodInput(TorusGreenError):
    """The duplication identity degenerates where p'(z) vanishes."""


class CountViolation(TorusGreenError):
    """More critical points were found than the theory allows."""


class InconsistentComparison(TorusGreenError):
    """Independent orderings of the half period values disagree."""


class NotACriticalPoint(TorusGreenError):
    """The developing map construction needs a genuine critical point."""


class HalfPeriodBranch(TorusGreenError):
    """Half periods are fixed by the sign flip and give no developing map."""


class NoExtraCriticalPoint(TorusGreenError):
    """The torus carries no extra critical point pair, so no such solution."""


class ConstructionInconsistent(TorusGreenError):
    """An internal identity of the mean field construction failed numerically."""


class UnreducedModulus(TorusGreenError):
    """A theta series was asked for below Im tau = 1/2, outside any reduced frame."""
