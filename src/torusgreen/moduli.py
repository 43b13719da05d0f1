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
returns its cells as columns (Scan); flip_edges reports the empirical
boundary, the grid edges where the count flips, by array comparisons, as
columns too (Flips), with each midpoint's smallest half-period |det|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import critical, green, theta, weier
from .errors import InvalidInput, TorusGreenError, Unconverged
from .lattice import make_torus

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
class Scan:
    """An nx by ny scan's cells as columns, row major from the bottom row up:
    count 0 (error "ExceptionName: message"), 3 (critical's morse route) or
    5 (its seeds route, extra point at extra_t, extra_s; NaN elsewhere)."""

    nx: int
    ny: int
    tau: np.ndarray                # complex
    count: np.ndarray              # int
    extra_t: np.ndarray
    extra_s: np.ndarray
    error: list[str | None]


@dataclass(frozen=True)
class Flips:
    """A scan's flip edges as columns, an edge an entry: the flat cells low
    and high of the Scan that it joins, its midpoint, and the half period
    (1 for 1/2, 2 for tau/2, 3 for (1+tau)/2) of the smallest |det| there."""

    low: np.ndarray                # int
    high: np.ndarray               # int
    midpoint: np.ndarray           # complex
    half_period: np.ndarray        # int, 1 to 3
    min_abs_det: np.ndarray


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


def scan(region: tuple[float, float, float, float], nx: int, ny: int) -> Scan:
    """Classify an nx by ny grid of cell center moduli inside region.

    region is (re_min, im_min, re_max, im_max); the Scan's columns run row
    major from the bottom row up, left to right, so output is byte stable
    across runs.  The cells go to the batch solve of
    critical.find_critical_sets (critical._solve) in chunks of
    SCAN_CHUNK, so every theta pass serves a whole chunk, and each cell's
    count and extra point are read off the solve's sets, with no
    CriticalPoint, with the same result as a find_critical_points call of
    its own.  The solve answers for every torus, so a package failure
    (TorusGreenError) lands in its own cell and the scan goes on; any
    exception it raises is a bug and propagates.
    """
    re0, im0, re1, im1 = region
    if not (all(map(math.isfinite, region)) and im0 > 0.0 and im1 > im0 and re1 > re0):
        raise InvalidInput(f"region {region} is not a rectangle in the upper half plane")
    if not (1 <= nx <= 512 and 1 <= ny <= 512):
        raise InvalidInput(f"grid {nx}x{ny} outside [1, 512]^2")
    n = nx * ny
    tau = np.empty(n, dtype=complex)
    tau.real = np.tile(re0 + (np.arange(nx) + 0.5) * ((re1 - re0) / nx), ny)
    tau.imag = np.repeat(im0 + (np.arange(ny) + 0.5) * ((im1 - im0) / ny), nx)
    tori = [make_torus(t) for t in tau.tolist()]
    count, extra_t, extra_s = [0] * n, [math.nan] * n, [math.nan] * n
    error = [None] * n
    for lo in range(0, n, SCAN_CHUNK):
        out, sets = critical._solve(tori[lo:lo + SCAN_CHUNK], critical.DEFAULT_TOL)
        for k, x in enumerate(out, lo):
            if isinstance(x, TorusGreenError):
                error[k] = f"{type(x).__name__}: {x}"
            elif (e := sets.extra[x]) < 0:
                count[k] = 3
            else:
                count[k], extra_t[k], extra_s[k] = 5, sets.t[e], sets.s[e]
    return Scan(nx=nx, ny=ny, tau=tau, count=np.array(count), extra_t=np.array(extra_t),
                extra_s=np.array(extra_s), error=error)


def _flip_pairs(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) flat cells of each edge of an ny by nx count grid across
    which 3 meets 5, row major by the low cell, right neighbour first:
    counts are 0, 3 or 5, so only those multiply to 15, and edge[j, i]
    holds the right and the upper edge of cell (i, j) in that order."""
    ny, nx = count.shape
    edge = np.zeros((ny, nx, 2), dtype=bool)
    edge[:, :-1, 0] = count[:, :-1] * count[:, 1:] == 15
    edge[:-1, :, 1] = count[:-1] * count[1:] == 15
    low, upper = np.divmod(np.flatnonzero(edge), 2)
    return low, low + np.where(upper, nx, 1)


def flip_edges(scan: Scan) -> Flips:
    """Grid edges where the count flips between 3 and 5.

    For each edge the nearly degenerate half period is identified at the
    edge midpoint as the one with the smallest Hessian |det|, which is the
    half period the extra pair merges into across the boundary.  The half
    periods of every midpoint are summed in one null sum on its reduced
    torus (green.half_period_rows), put in its own order by its matrix
    (Torus.half_period_perm) and carried back by the one law of
    green.carried that |det| needs, division by |lam|^4.
    """
    low, high = _flip_pairs(scan.count.reshape(scan.ny, scan.nx))
    midpoint = 0.5 * (scan.tau[low] + scan.tau[high])
    if not low.size:
        return Flips(low, high, midpoint, np.zeros(0, dtype=int), np.zeros(0))
    tori = [make_torus(tau) for tau in midpoint.tolist()]
    det = green.half_period_rows(tori)[0].hessian.det.reshape(-1, 3)
    perm = np.array([torus.half_period_perm for torus in tori])
    lam4 = np.array([abs(torus.lam) ** 4 for torus in tori])
    d = np.abs(np.take_along_axis(det, perm, axis=1)) / lam4[:, None]
    return Flips(low, high, midpoint, d.argmin(axis=1) + 1, d.min(axis=1))
