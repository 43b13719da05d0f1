"""Moduli space analysis along and around the rhombic line.

Thresholds b0 and b1 are the roots of e1 + eta1 and e1 + eta1 - 2 pi / b
on tau = 1/2 + i b; between them the half period 1/2 is a local minimum
of the Green function and no extra pair exists.  The scan classifies a
rectangle of moduli into three point and five point tori, with one
critical.find_critical_sets call per chunk of SCAN_CHUNK cells, so each
theta series pass serves a whole chunk, and reports the empirical
boundary as the set of grid edges where the count flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import critical, green, theta, weier
from .errors import BracketFailure, InvalidInput, TorusGreenError
from .lattice import LatticeCoords, make_torus

BRACKET_LO = 0.05
BRACKET_HI = 2.0
SCAN_CHUNK = 1024      # cells per critical.find_critical_sets call of a scan
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ThresholdReport:
    b0: float
    b1: float
    residual_b0: float
    residual_b1: float
    bracket_width: float


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
    curvature_theta2: float        # -4 pi (log|theta2(0)|)_bb
    slope_fd: float                # finite difference d(e1 + eta1)/db
    theta3_b: float
    theta3_bb: float
    half_e1_minus_eta1: float
    bridge_gap_slope: float        # |curvature_theta2 - slope_fd|
    bridge_gap_theta3: float       # |4 pi theta3_b - (e1/2 - eta1)|


@dataclass(frozen=True)
class InequalityReport:
    rows: tuple[InequalityRow, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _q_lower(b: float) -> float:
    inv = weier.invariants(make_torus(complex(0.5, b)))
    return (inv.e1 + inv.eta1).real


def _q_upper(b: float) -> float:
    return _q_lower(b) - _TWO_PI / b


def _bisect(fun, lo: float, hi: float, tol: float) -> tuple[float, float]:
    flo = fun(lo)
    fhi = fun(hi)
    if flo == 0.0:
        return lo, 0.0
    if fhi == 0.0:
        return hi, 0.0
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketFailure(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if fm == 0.0:
            return mid, hi - lo
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi), hi - lo


def _bracket(fun, n: int = 100) -> tuple[float, float]:
    """First sign change of fun on a uniform n point sample of the search
    interval; BracketFailure when the sample never changes sign."""
    step = (BRACKET_HI - BRACKET_LO) / (n - 1)
    prev_b = BRACKET_LO
    prev_f = fun(prev_b)
    for k in range(1, n):
        b = BRACKET_LO + k * step
        f = fun(b)
        if prev_f == 0.0 or (prev_f > 0.0) != (f > 0.0):
            return prev_b, b
        prev_b, prev_f = b, f
    raise BracketFailure(
        f"no sign change found in [{BRACKET_LO}, {BRACKET_HI}] over {n} samples"
    )


def thresholds(tol: float = 1e-12) -> ThresholdReport:
    """Degeneracy thresholds on the rhombic line, by bracketed bisection.

    b0 is the root of b -> e1 + eta1 and b1 the root of the same quantity
    minus 2 pi / b; both functions are monotone through their roots, so
    bisection from a coarse sample bracket cannot miss.
    """
    if not 1e-12 <= tol <= 1e-6:
        raise InvalidInput(f"tol {tol} outside [1e-12, 1e-6]")
    width = 0.0
    roots = []
    for fun in (_q_lower, _q_upper):
        lo, hi = _bracket(fun)
        root, w = _bisect(fun, lo, hi, tol)
        roots.append(root)
        width = max(width, w)
    b0, b1 = roots
    return ThresholdReport(
        b0=b0,
        b1=b1,
        residual_b0=abs(_q_lower(b0)),
        residual_b1=abs(_q_upper(b1)),
        bracket_width=width,
    )


def verify_fundamental_inequalities(b_grid) -> InequalityReport:
    """Check the monotonicity and convexity package on the rhombic line.

    Per grid point: -4 pi (log|theta2(0)|)_bb must be positive and match a
    finite difference of d(e1 + eta1)/db to 1e-6; (log|theta3(0)|)_b must
    be negative with positive second derivative, and 4 pi (log|theta3(0)|)_b
    must equal e1/2 - eta1 to 1e-9.  Violations are collected, not raised.
    """
    rows = []
    violations = []
    for b in b_grid:
        if not b > 0.0:
            violations.append(f"b = {b}: not positive, skipped")
            continue
        _, t2_bb = theta.log_theta1_b_derivs(0.5, b)
        curvature = -4.0 * math.pi * t2_bb
        # five point stencil with a scale relative step: near b = 0.1 the
        # third derivative of e1 + eta1 is ~1e7 and a plain central
        # difference at fixed h cannot reach the 1e-6 bridge tolerance
        h = 1e-4 * b
        slope_fd = (-_q_lower(b + 2 * h) + 8.0 * _q_lower(b + h)
                    - 8.0 * _q_lower(b - h) + _q_lower(b - 2 * h)) / (12.0 * h)
        t3_b, t3_bb = theta.log_theta3_b_derivs(b)
        inv = weier.invariants(make_torus(complex(0.5, b)))
        half_gap = (0.5 * inv.e1 - inv.eta1).real
        gap_slope = abs(curvature - slope_fd)
        gap_theta3 = abs(4.0 * math.pi * t3_b - half_gap)
        rows.append(InequalityRow(
            b=float(b),
            curvature_theta2=curvature,
            slope_fd=slope_fd,
            theta3_b=t3_b,
            theta3_bb=t3_bb,
            half_e1_minus_eta1=half_gap,
            bridge_gap_slope=gap_slope,
            bridge_gap_theta3=gap_theta3,
        ))
        if not curvature > 0.0:
            violations.append(f"b = {b}: -4pi (log|theta2|)_bb = {curvature} not positive")
        if gap_slope > 1e-6:
            violations.append(f"b = {b}: slope bridge off by {gap_slope:.3e}")
        if not t3_b < 0.0:
            violations.append(f"b = {b}: (log|theta3|)_b = {t3_b} not negative")
        if not t3_bb > 0.0:
            violations.append(f"b = {b}: (log|theta3|)_bb = {t3_bb} not positive")
        if gap_theta3 > 1e-9:
            violations.append(f"b = {b}: theta3 bridge off by {gap_theta3:.3e}")
    return InequalityReport(rows=tuple(rows), violations=tuple(violations))


def functional_equation_residual(b: float) -> float:
    """|f(1/4b) + 2b + 4 b^2 f(b)| for f(b) = (log|theta1|)_b at z = 1/2.

    The identity lives on the rhombic line Re tau = 1/2 and couples each
    b with 1/(4b) across the self dual point b = 1/2.  Both sides come
    from the one real series of theta.log_theta1_b_derivs, which has no
    branch, so it checks that series at two moduli, not two routes.
    """
    if not b > 0.0:
        raise InvalidInput(f"b = {b} must be positive")
    f_b, _ = theta.log_theta1_b_derivs(0.5, b)
    f_dual, _ = theta.log_theta1_b_derivs(0.5, 1.0 / (4.0 * b))
    return abs(f_dual + 2.0 * b + 4.0 * b * b * f_b)


def scan(region: tuple[float, float, float, float], nx: int, ny: int) -> list[ScanCell]:
    """Classify an nx by ny grid of cell center moduli inside region.

    region is (re_min, im_min, re_max, im_max); cells are ordered row
    major from the bottom row up, left to right, so output is byte stable
    across runs.  The cells go to critical.find_critical_sets in chunks
    of SCAN_CHUNK, so every theta pass serves a whole chunk, and each
    cell records the route that decided it, with the same result as a
    find_critical_points call of its own.  A package failure
    (TorusGreenError) is recorded in its cell and the scan goes on; any
    other exception is a bug and propagates.
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
        try:
            sets = critical.find_critical_sets(chunk)
        except TorusGreenError:
            # a pass that serves the whole chunk failed: classify its cells
            # one by one, so the error lands in the cells it belongs to
            sets = [_alone(torus) for torus in chunk]
        cells += [_cell(torus, cs) for torus, cs in zip(chunk, sets)]
    return cells


def _alone(torus):
    try:
        return critical.find_critical_points(torus)
    except TorusGreenError as exc:
        return exc


def _cell(torus, cs) -> ScanCell:
    if isinstance(cs, TorusGreenError):
        return ScanCell(tau=torus.tau, count=0, extra_point=None, route=None,
                        error=f"{type(cs).__name__}: {cs}")
    coords = None if cs.extra is None else cs.extra.coords
    return ScanCell(tau=torus.tau, count=cs.total_count, extra_point=coords, route=cs.route)


def flip_edges(cells: list[ScanCell], nx: int, ny: int) -> list[FlipEdge]:
    """Grid edges where the count flips between 3 and 5.

    For each edge the nearly degenerate half period is identified at the
    edge midpoint as the one with the smallest Hessian determinant, which
    is the half period the extra pair merges into across the boundary.
    The half periods of every midpoint are evaluated in one pass.
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
    rows = critical._half_period_rows(tori, green.gather(tori))
    dets = np.abs([row[3] for row in rows]).reshape(-1, 3)
    out = []
    for (a, bcell), torus, d in zip(pairs, tori, dets):
        k = int(np.argmin(d))
        out.append(FlipEdge(
            tau_low=a.tau,
            tau_high=bcell.tau,
            midpoint=torus.tau,
            count_low=a.count,
            count_high=bcell.count,
            degenerate_half_period=k + 1,
            min_abs_det=float(d[k]),
        ))
    return out
