"""Numerical toolkit for Green functions of flat tori.

Builds the first Jacobi theta function into a Weierstrass layer, the torus
Green function and its derivatives, critical point finding and Morse
classification, moduli space scans for the three-versus-five critical point
count, and explicit mean field solutions at the two special strengths.
"""

from .critical import (
    CriticalPoint,
    CriticalSet,
    HalfPeriodComparison,
    Kind,
    Morse,
    compare_half_periods,
    find_critical_points,
    find_critical_sets,
)
from .errors import TorusGreenError
from .green import (
    GreenEval,
    Hessian2,
    evaluate,
    green_constant,
    green_rel,
)
from .lattice import LatticeCoords, Torus, make_torus, reduce_modulus
from .mfe import (
    MfeSolution,
    ResidualReport,
    developing_map_8pi,
    solution_4pi,
    solution_8pi,
    verify_solution,
)
from .moduli import (
    InequalityReport,
    Scan,
    ThresholdReport,
    flip_edges,
    functional_equation_residual,
    scan,
    thresholds,
    verify_fundamental_inequalities,
)

__all__ = [
    "CriticalPoint",
    "CriticalSet",
    "GreenEval",
    "HalfPeriodComparison",
    "Hessian2",
    "InequalityReport",
    "Kind",
    "LatticeCoords",
    "MfeSolution",
    "Morse",
    "ResidualReport",
    "Scan",
    "ThresholdReport",
    "Torus",
    "TorusGreenError",
    "compare_half_periods",
    "developing_map_8pi",
    "evaluate",
    "find_critical_points",
    "find_critical_sets",
    "flip_edges",
    "functional_equation_residual",
    "green_constant",
    "green_rel",
    "make_torus",
    "reduce_modulus",
    "scan",
    "solution_4pi",
    "solution_8pi",
    "thresholds",
    "verify_fundamental_inequalities",
    "verify_solution",
]

__version__ = "0.1.0"
