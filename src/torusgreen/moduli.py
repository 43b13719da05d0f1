"""Moduli space analysis along and around the rhombic line.

On tau = 1/2 + i b every quantity the paper's inequalities need is a
function of A_k = e_k + eta1 at the half periods, and one theta-null
sum (weier.invariants) gives them to relative precision: A_1 and A_3 are
-4 pi i d/dtau of log theta2(0) and log theta3(0) (the heat equation),
and their own tau derivatives follow from the A_k alone (_rhombic).
Thresholds b0 and b1 are the roots of A_1 and A_1 - 2 pi / b, found by
Newton from b = 1/2; between them the half period 1/2 is a local
minimum of the Green function and no extra pair exists.  The scan
classifies a rectangle of moduli into three point and five point tori,
with one batch solve of critical.find_critical_sets per chunk of
SCAN_CHUNK cells, so each theta series pass serves a whole chunk, and
reports the empirical boundary as the set of grid edges where the count
flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import critical, green, theta, weier
from .errors import InvalidInput, TorusGreenError, Unconverged
from .lattice import LatticeCoords, make_torus

SCAN_CHUNK = 1024      # cells per critical.find_critical_sets call of a scan
# ulps of |A_k| that bound each A_k = e_k + eta1, and so the products of
# their differences (_rhombic).  Calibrated against mpmath on 2500 moduli b
# in [0.002, 20]: the worst error is 4.1 units, of (log|theta3(0)|)_b at
# b = 0.29, and 2.6 units of the theta2 curvature, at b = 0.45.
C_RHOMBIC = 16.0
NEWTON_CAP = 16        # Newton steps per threshold before Unconverged
_EPS = float(np.finfo(float).eps)
_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class ThresholdReport:
    b0: float
    b1: float
    residual_b0: float
    residual_b1: float
    last_step: float                   # the larger of the two final Newton steps
    newton_steps: tuple[int, int]      # Newton steps to b0 and to b1


@dataclass(frozen=True)
class ScanCell:
    """One classified modulus and the critical point route that decided it.

    error holds "ExceptionName: message" if the cell could not be
    classified, in which case count is 0 and route is None.
    """

    tau: complex
    count: int
    extra_point: LatticeCoords | None
    route: str | None              # CriticalSet.route: "morse" or "seeds"
    error: str | None = None


@dataclass(frozen=True)
class FlipEdge:
    """A grid edge across which the critical point count changes."""

    tau_low: complex
    tau_high: complex
    midpoint: complex
    count_low: int
    count_high: int
    degenerate_half_period: int
    min_abs_det: float


@dataclass(frozen=True)
class InequalityRow:
    b: float
    curvature_theta2: float        # -4 pi (log|theta2(0)|)_bb, positive
    theta3_b: float                # (log|theta3(0)|)_b, negative
    theta3_bb: float               # (log|theta3(0)|)_bb, positive
    bounds: tuple[float, float, float]     # error bounds of the three (_rhombic)


@dataclass(frozen=True)
class InequalityReport:
    rows: tuple[InequalityRow, ...]
    violations: tuple[str, ...]
    undecided: tuple[str, ...]     # values inside their error bounds

    @property
    def ok(self) -> bool:
        return not (self.violations or self.undecided)


def _rhombic(b: float) -> tuple[float, float, float, float, tuple[float, float, float]]:
    """A_1 and the inequality quantities at tau = 1/2 + i b, closed form.

    With A_k = e_k + eta1 = -4 pi i d/dtau log theta_j(0) (theta2 for
    k = 1, theta3 for k = 3), the heat equation gives

        dA_k/dtau = (i / 4 pi) (2 A_k^2 - wp''(w_k)),
        wp''(w_k) = 2 (A_k - A_i)(A_k - A_j),

    and on this line d/db = i d/dtau.  So (log|theta2(0)|)_b =
    -Re A_1 / 4 pi, -4 pi (log|theta2(0)|)_bb = Re dA_1/db =
    2 Re(A_2 A_3 - A_1 (A_2 + A_3)) / 4 pi, (log|theta3(0)|)_b =
    -Re A_3 / 4 pi and (log|theta3(0)|)_bb = -Re dA_3/db / 4 pi, all
    from the A_k of one weier.invariants sum.  Returns (A_1, dA_1/db,
    (log|theta3(0)|)_b, (log|theta3(0)|)_bb, bounds); A_1 is real on
    this line.  Each A_k is good to a few ulps of |A_k|, so a product x y
    of their sums or differences is good to C_RHOMBIC eps (|x| |y|_A +
    |y| |x|_A), |x|_A the sum of the |A_k| in x: the three bounds.
    All three are e^(-2 pi b) against |A_2|, |A_3| = O(e^(-pi b)), and
    |A_2 + A_3| = O(e^(-2 pi b)), and fall inside their bounds past
    b = 10.8.  InvalidInput past theta.MAX_IM_TAU, inf included.
    """
    theta._check_im(b)
    a1, a2, a3 = weier.invariants(make_torus(complex(0.5, b))).a
    m1, m2, m3 = (C_RHOMBIC * _EPS) * np.abs([a1, a2, a3])
    da1 = 2.0 * (a2 * a3 - a1 * (a2 + a3)).real / _FOUR_PI
    da3 = (2.0 * (a3 - a1) * (a3 - a2) - 2.0 * a3 * a3).real / _FOUR_PI
    bounds = (2.0 * (abs(a3) * m2 + abs(a2) * m3 + abs(a2 + a3) * m1 + abs(a1) * (m2 + m3))
              / _FOUR_PI,
              m3 / _FOUR_PI,
              2.0 * (abs(a3 - a1) * (m3 + m2) + abs(a3 - a2) * (m3 + m1) + 2.0 * m3 * abs(a3))
              / _FOUR_PI ** 2)
    return a1.real, da1, -a3.real / _FOUR_PI, -da3 / _FOUR_PI, bounds


def _upper(b: float) -> tuple[float, float]:
    """A_1 - 2 pi / b and its b derivative: the root is b1."""
    a1, da1, *_ = _rhombic(b)
    return a1 - _TWO_PI / b, da1 + _TWO_PI / (b * b)


def _newton(fun, tol: float) -> tuple[float, float, int]:
    """Root of fun(b) -> (value, derivative) by Newton from b = 1/2:
    (root, last step, steps), stopping at the first step of at most tol."""
    b = 0.5
    for n in range(1, NEWTON_CAP + 1):
        value, slope = fun(b)
        step = value / slope
        b -= step
        if abs(step) <= tol:
            return b, abs(step), n
    raise Unconverged(f"Newton on the rhombic line took more than {NEWTON_CAP} steps")


def thresholds(tol: float = 1e-12) -> ThresholdReport:
    """Degeneracy thresholds on the rhombic line, by Newton.

    b0 is the root of b -> A_1 = e1 + eta1 and b1 the root of A_1 -
    2 pi / b; both run Newton from the self dual point b = 1/2 with the
    closed-form derivative of _rhombic, one null sum a step.  The
    frame maps b to 1/(4b), so b0 b1 = 1/4: a second route, checked here
    to tol (Unconverged otherwise).
    """
    if not 1e-12 <= tol <= 1e-6:
        raise InvalidInput(f"tol {tol} outside [1e-12, 1e-6]")
    b0, step0, n0 = _newton(lambda b: _rhombic(b)[:2], tol)
    b1, step1, n1 = _newton(_upper, tol)
    if not abs(b0 * b1 - 0.25) <= tol:
        raise Unconverged(f"thresholds b0 = {b0!r} and b1 = {b1!r} miss b0 b1 = 1/4 by "
                          f"{b0 * b1 - 0.25:.3e}")
    return ThresholdReport(
        b0=b0,
        b1=b1,
        residual_b0=abs(_rhombic(b0)[0]),
        residual_b1=abs(_upper(b1)[0]),
        last_step=max(step0, step1),
        newton_steps=(n0, n1),
    )


def verify_fundamental_inequalities(b_grid) -> InequalityReport:
    """Check the monotonicity and convexity package on the rhombic line.

    Per grid point, from one null sum (_rhombic): -4 pi
    (log|theta2(0)|)_bb must be positive, (log|theta3(0)|)_b negative and
    (log|theta3(0)|)_bb positive.  A value of the wrong sign beyond its
    error bound is a violation; a value inside its bound has no decided
    sign and is reported as undecided.  Neither is raised.
    """
    rows = []
    violations = []
    undecided = []
    for b in b_grid:
        if not b > 0.0:
            violations.append(f"b = {b}: not positive, skipped")
            continue
        _, curvature, t3_b, t3_bb, bounds = _rhombic(b)
        rows.append(InequalityRow(b=float(b), curvature_theta2=curvature, theta3_b=t3_b,
                                  theta3_bb=t3_bb, bounds=bounds))
        for name, value, sign, bound in (("-4pi (log|theta2|)_bb", curvature, 1.0, bounds[0]),
                                         ("(log|theta3|)_b", t3_b, -1.0, bounds[1]),
                                         ("(log|theta3|)_bb", t3_bb, 1.0, bounds[2])):
            if abs(value) <= bound:
                undecided.append(f"b = {b}: {name} = {value} inside its error bound "
                                 f"{bound:.1e}, sign not decided")
            elif not sign * value > 0.0:
                violations.append(f"b = {b}: {name} = {value} not "
                                  f"{'positive' if sign > 0.0 else 'negative'}")
    return InequalityReport(rows=tuple(rows), violations=tuple(violations),
                            undecided=tuple(undecided))


def functional_equation_residual(b: float) -> float:
    """|f(1/4b) + 2b + 4 b^2 f(b)| for f(b) = (log|theta2(0)|)_b = -A_1 / 4 pi.

    The identity lives on the rhombic line Re tau = 1/2 and couples each
    b with 1/(4b) across the self dual point b = 1/2.  The two moduli
    are one lattice, tau -> (tau - 1)/(2 tau - 1), so they reduce to one
    tau_r up to rounding (or to its translate on the edge Re tau_r =
    -1/2): the residual checks the frame law that carries e1 and eta1
    from there to each b.  Its real series form is a test oracle.
    """
    if not b > 0.0:
        raise InvalidInput(f"b = {b} must be positive")
    f_b = -_rhombic(b)[0] / _FOUR_PI
    f_dual = -_rhombic(1.0 / (4.0 * b))[0] / _FOUR_PI
    return abs(f_dual + 2.0 * b + 4.0 * b * b * f_b)


def scan(region: tuple[float, float, float, float], nx: int, ny: int) -> list[ScanCell]:
    """Classify an nx by ny grid of cell center moduli inside region.

    region is (re_min, im_min, re_max, im_max); cells are ordered row
    major from the bottom row up, left to right, so output is byte stable
    across runs.  The cells go to the batch solve of
    critical.find_critical_sets (critical._solve) in chunks of
    SCAN_CHUNK, so every theta pass serves a whole chunk, and each cell
    is built from its count, route and z0's coordinates, with no
    CriticalPoint, and records the route that decided it, with the same
    result as a find_critical_points call of its own.  The solve answers
    for every torus, so a package failure (TorusGreenError) lands in its
    own cell and the scan goes on; any exception it raises is a bug and
    propagates.
    """
    re0, im0, re1, im1 = region
    if not (all(map(math.isfinite, region)) and im0 > 0.0 and im1 > im0 and re1 > re0):
        raise InvalidInput(f"region {region} is not a rectangle in the upper half plane")
    if not (1 <= nx <= 512 and 1 <= ny <= 512):
        raise InvalidInput(f"grid {nx}x{ny} outside [1, 512]^2")
    dx = (re1 - re0) / nx
    dy = (im1 - im0) / ny
    tori = [make_torus(complex(re0 + (i + 0.5) * dx, im0 + (j + 0.5) * dy))
            for j in range(ny) for i in range(nx)]
    cells = []
    for lo in range(0, len(tori), SCAN_CHUNK):
        chunk = tori[lo:lo + SCAN_CHUNK]
        out, sets = critical._solve(chunk, critical.DEFAULT_TOL)
        for torus, x in zip(chunk, out):
            if isinstance(x, TorusGreenError):
                cells.append(ScanCell(tau=torus.tau, count=0, extra_point=None, route=None,
                                      error=f"{type(x).__name__}: {x}"))
            elif (e := sets.extra[x]) < 0:
                cells.append(ScanCell(tau=torus.tau, count=3, extra_point=None, route="morse"))
            else:
                cells.append(ScanCell(tau=torus.tau, count=5, route="seeds",
                                      extra_point=LatticeCoords(sets.t[e], sets.s[e])))
    return cells


def flip_edges(cells: list[ScanCell], nx: int, ny: int) -> list[FlipEdge]:
    """Grid edges where the count flips between 3 and 5.

    For each edge the nearly degenerate half period is identified at the
    edge midpoint as the one with the smallest Hessian determinant, which
    is the half period the extra pair merges into across the boundary.
    The half periods of every midpoint are evaluated in one null sum and
    carried back as the critical sets are (critical._carried).
    """
    pairs = []
    for j in range(ny):
        for i in range(nx):
            a = cells[j * nx + i]
            for (i2, j2) in ((i + 1, j), (i, j + 1)):
                if i2 >= nx or j2 >= ny:
                    continue
                bcell = cells[j2 * nx + i2]
                if a.count == 0 or bcell.count == 0 or a.count == bcell.count:
                    continue
                pairs.append((a, bcell))
    if not pairs:
        return []
    tori = [make_torus(0.5 * (a.tau + bcell.tau)) for a, bcell in pairs]
    at = critical._half_period_index(tori, np.arange(len(tori)))
    cols = critical._columns(green.half_period_rows(tori)[0])[:, at]
    d = np.abs(critical._carried(tori, cols, at // 3)[4]).reshape(-1, 3)
    return [FlipEdge(tau_low=a.tau, tau_high=bcell.tau, midpoint=torus.tau, count_low=a.count,
                     count_high=bcell.count, degenerate_half_period=k + 1, min_abs_det=dk)
            for (a, bcell), torus, k, dk in zip(pairs, tori, d.argmin(axis=1).tolist(),
                                                 d.min(axis=1).tolist())]
