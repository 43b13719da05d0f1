"""Critical points of the torus Green function.

The critical equation is the vanishing of the residual
r(t, s) = zeta(t + s*tau) - t*eta1 - s*eta2, which collapses to
(log theta1)_z + 2 pi i s, so the multi start Newton iteration below needs
one theta series pass per step for the whole seed batch.  Every torus has
the three half periods as critical points; at most one extra pair +-z0 can
appear (Lin and Wang), so the census only has to pick one orbit out of
the converged roots.  One array pass does it: roots near a half period
are dropped, the rest are folded modulo z ~ -z, sorted, and merged at the
single tolerance EXTRA_MERGE_TOL.  More than one surviving orbit is
reported as CountViolation because it can only mean an evaluation bug.
The damped Newton kernel here also polishes the seed of the 8 pi mean
field construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import green, weier
from .errors import (
    CountViolation,
    InconsistentComparison,
    InvalidInput,
    NoConvergence,
    NotInExtraRegime,
    Unconverged,
)
from .green import Hessian2
from .lattice import LatticeCoords, Torus, lattice_gap, make_torus, wrap_unit

EXCLUSION_RADIUS = 0.05   # seed free disk around the lattice point
HP_MERGE_TOL = 1e-5       # roots this close to a half period collapse into it;
                          # near a degeneracy threshold the residual vanishes
                          # quadratically, so spurious roots can sit ~1e-6 out
EXTRA_MERGE_TOL = 1e-6    # the one merge tolerance among extra roots: right at
                          # a threshold the residual valley is flat enough that
                          # machine precision roots of one point can spread
                          # wider than 1e-8
PLATEAU_MIN_DET = 1e-9    # in units of (1/b)^2: an extra root only counts when
                          # its Hessian determinant clears this bar; on extreme
                          # aspect ratios the gradient has e^(-pi b') plateaus
                          # whose every point passes the residual test, but
                          # those fake roots carry determinants ~1e-12 while
                          # genuine extras sit at O(1)
DEGENERACY_EPS = 1e-8     # default scale factor for the Morse tie band
DEFAULT_TOL = 1e-12       # census gradient tolerance, shared by extra_from_seed
_HP_COORDS = ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5))


class Kind(Enum):
    HALF_PERIOD_1 = "HalfPeriod1"
    HALF_PERIOD_2 = "HalfPeriod2"
    HALF_PERIOD_3 = "HalfPeriod3"
    EXTRA_PAIR = "ExtraPair"


class Morse(Enum):
    MIN = "Min"
    SADDLE = "Saddle"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point; extra pairs are stored through one representative."""

    coords: LatticeCoords
    z: complex
    kind: Kind
    morse: Morse
    hessian: Hessian2
    g_rel: float


@dataclass(frozen=True)
class CriticalSet:
    """All critical points of one torus.

    points holds one entry per orbit under z ~ -z (half periods are their
    own mirror); total_count counts both members of an extra pair, so it
    is 3 or 5.
    """

    points: tuple[CriticalPoint, ...]
    total_count: int

    @property
    def extra(self) -> CriticalPoint | None:
        for p in self.points:
            if p.kind is Kind.EXTRA_PAIR:
                return p
        return None


def damped_newton(t, s, torus: Torus, r_stop: float):
    """Damped Newton on the critical residual from the seeds (t, s).

    Each step is halved up to 12 times until it lowers |r|; a seed that
    cannot improve even then is retired, and a seed stops once |r| <= r_stop.
    Returns the final (t, s, |r|) arrays, unwrapped; lattice hits show up
    as non finite |r|.
    """
    t = np.array(t, dtype=float)
    s = np.array(s, dtype=float)
    r, rt, rs = green.residual_and_jacobian(t, s, torus)
    rn = np.abs(r)
    active = np.isfinite(rn)
    for _ in range(60):
        live = np.flatnonzero(active & (rn > r_stop))
        if live.size == 0:
            break
        det = rt.real[live] * rs.imag[live] - rs.real[live] * rt.imag[live]
        bad = ~np.isfinite(det) | (np.abs(det) < 1e-300)
        det = np.where(bad, 1.0, det)
        dt = np.where(bad, 0.0, (r.real[live] * rs.imag[live] - rs.real[live] * r.imag[live]) / det)
        ds = np.where(bad, 0.0, (rt.real[live] * r.imag[live] - r.real[live] * rt.imag[live]) / det)
        step = np.ones(live.size)
        pending = np.ones(live.size, dtype=bool)
        for _halving in range(12):
            # evaluate only the seeds still waiting for an accepted step
            sub = np.flatnonzero(pending)
            if sub.size == 0:
                break
            idx = live[sub]
            t_try = t[idx] - step[sub] * dt[sub]
            s_try = s[idx] - step[sub] * ds[sub]
            r2, rt2, rs2 = green.residual_and_jacobian(t_try, s_try, torus)
            rn2 = np.abs(r2)
            ok = np.isfinite(rn2) & (rn2 <= rn[idx] * (1.0 - 1e-4) + 1e-300)
            good = idx[ok]
            t[good] = t_try[ok]
            s[good] = s_try[ok]
            r[good] = r2[ok]
            rt[good] = rt2[ok]
            rs[good] = rs2[ok]
            rn[good] = rn2[ok]
            pending[sub[ok]] = False
            step[sub[~ok]] *= 0.5
        # seeds that could not improve even at the smallest step are stuck
        # on a ridge; retire them so they stop costing evaluations (final
        # convergence is judged from rn alone, so nothing is lost)
        active[live[pending]] = False
    return t, s, rn


def _newton_sweep(torus: Torus, n_grid: int, r_target: float):
    """Damped Newton from an n_grid^2 seed lattice; returns (t, s, failures).

    t and s hold the wrapped coordinates of the converged roots in seed
    order, failures the number of seeds that neither converged nor were
    pruned by the exclusion disk.
    """
    tau = torus.tau
    g = (np.arange(n_grid) + 0.5) / n_grid - 0.5
    t, s = [a.ravel() for a in np.meshgrid(g, g)]
    # prune seeds within the exclusion radius of a lattice point
    keep = lattice_gap(t + s * tau, tau) > EXCLUSION_RADIUS
    # polish three decades past the acceptance target: near a degeneracy
    # threshold the residual valley is flat enough that stopping exactly at
    # the target scatters one root across several merge cells
    t, s, rn = damped_newton(t[keep], s[keep], torus, r_target * 1e-3)
    converged = np.isfinite(rn) & (rn <= r_target)
    tw, _ = wrap_unit(t[converged])
    sw, _ = wrap_unit(s[converged])
    return tw, sw, int(np.count_nonzero(~converged))


def _orbit_reps(t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One representative per extra orbit {z, -z} among the wrapped roots.

    Roots within HP_MERGE_TOL of a half period are dropped.  The rest are
    folded onto the half cell s > 0 (t >= 0 on the lines s = 0 and
    s = 1/2, which z -> -z maps to themselves), sorted by (t, s) and merged
    greedily: the first root stands for every root within EXTRA_MERGE_TOL
    of it in both wrapped coordinates.
    """
    def gap(a, b):
        return np.abs(wrap_unit(a - b)[0])

    near_hp = np.zeros(t.shape, dtype=bool)
    for tc, sc in _HP_COORDS:
        near_hp |= (gap(t, tc) < HP_MERGE_TOL) & (gap(s, sc) < HP_MERGE_TOL)
    t, s = t[~near_hp], s[~near_hp]
    tol = EXTRA_MERGE_TOL
    on_line = (np.abs(s) <= tol) | (gap(s, 0.5) <= tol)
    flip = np.where(on_line, t < -tol, s < 0.0)
    t = np.where(flip, wrap_unit(-t)[0], t)
    s = np.where(flip, wrap_unit(-s)[0], s)
    order = np.lexsort((s, t))
    t, s = t[order], s[order]
    reps_t, reps_s = [], []
    while t.size:
        reps_t.append(t[0])
        reps_s.append(s[0])
        rest = (gap(t, t[0]) >= tol) | (gap(s, s[0]) >= tol)
        t, s = t[rest], s[rest]
    return np.array(reps_t), np.array(reps_s)


def _classify_hessian(h: Hessian2, b: float, degeneracy_eps: float) -> Morse:
    eps = degeneracy_eps / (b * b)
    if abs(h.det) <= eps:
        return Morse.DEGENERATE
    if h.det > 0.0:
        # trace is 1/b > 0, so a positive determinant always means a minimum
        return Morse.MIN
    return Morse.SADDLE


def classify(point: CriticalPoint, degeneracy_eps: float = DEGENERACY_EPS) -> Morse:
    """Morse class from the stored Hessian with the scale aware tie band
    |det| <= degeneracy_eps / b^2."""
    # the Hessian carries the torus scale through its exact trace 1/b
    b = 1.0 / point.hessian.trace
    return _classify_hessian(point.hessian, b, degeneracy_eps)


def _build_point(torus: Torus, t: float, s: float, kind: Kind) -> CriticalPoint:
    z = t + s * torus.tau
    h = green.green_hessian(z, torus)
    return CriticalPoint(
        coords=LatticeCoords(t, s),
        z=z,
        kind=kind,
        morse=_classify_hessian(h, torus.b, DEGENERACY_EPS),
        hessian=h,
        g_rel=float(green.green_rel(z, torus)),
    )


def _extra_reps(t: np.ndarray, s: np.ndarray, torus: Torus):
    """_orbit_reps of the wrapped roots, minus the gradient plateau roots."""
    t, s = _orbit_reps(t, s)
    if t.size:
        det = green.green_hessian(t + s * torus.tau, torus).det
        keep = np.abs(det) > PLATEAU_MIN_DET / (torus.b * torus.b)
        t, s = t[keep], s[keep]
    return t, s


def _solve(torus: Torus, tol: float, n_grid: int):
    """Representatives (t, s) of the extra orbits, plus the failed seed count."""
    r_target = np.pi * tol   # |grad G| = |r| / (2 pi), kept at half of tol
    t, s, failures = _newton_sweep(torus, n_grid, r_target)
    t, s = _extra_reps(t, s, torus)
    return t, s, failures


def extra_from_seed(torus: Torus, t: float, s: float) -> LatticeCoords | None:
    """The extra orbit representative that damped Newton reaches from (t, s).

    One seed under the default census convention (target pi * DEFAULT_TOL,
    polished three decades past it), folded by the same array pass, so a
    root the census would report comes back as the same representative.
    None when the seed does not converge or lands on a half period or a
    plateau.
    """
    r_target = np.pi * DEFAULT_TOL
    t, s, rn = damped_newton([t], [s], torus, r_target * 1e-3)
    if not (np.isfinite(rn[0]) and rn[0] <= r_target):
        return None
    t, s = _extra_reps(wrap_unit(t)[0], wrap_unit(s)[0], torus)
    if not t.size:
        return None
    return LatticeCoords(float(t[0]), float(s[0]))


def find_critical_points(torus: Torus, tol: float = DEFAULT_TOL) -> CriticalSet:
    """All critical points: the three half periods plus any extra pair.

    Multi start damped Newton on a 24x24 seed grid (minus the exclusion
    disk around the lattice point).  The half periods are known critical
    points, so one array pass reduces the converged roots to the extra
    orbits: roots near a half period go, the rest are folded modulo
    z ~ -z and merged at the single tolerance EXTRA_MERGE_TOL.  More than
    five distinct points raises CountViolation.  A failed seed alone is
    tolerated; NoConvergence fires only when a verification sweep at 48x48
    also disagrees on the count.
    """
    if not 1e-14 <= tol <= 1e-6:
        raise InvalidInput(f"tol {tol} outside [1e-14, 1e-6]")
    ts, ss, failures = _solve(torus, tol, 24)
    if failures:
        ts_fine, _, _ = _solve(torus, tol, 48)
        if ts_fine.size != ts.size:
            raise NoConvergence(
                f"{failures} seeds failed and the 24/48 sweeps disagree "
                f"({ts.size} vs {ts_fine.size} extra orbits) at tau = {torus.tau}"
            )
    total = 3 + 2 * ts.size
    if total > 5:
        raise CountViolation(
            f"{total} critical points survived dedup at tau = {torus.tau}; "
            "more than five is impossible and indicates an evaluation bug"
        )
    points = [
        _build_point(torus, tc, sc, kind)
        for (tc, sc), kind in zip(
            _HP_COORDS, (Kind.HALF_PERIOD_1, Kind.HALF_PERIOD_2, Kind.HALF_PERIOD_3)
        )
    ]
    for s, t in sorted(zip(ss.tolist(), ts.tolist())):
        points.append(_build_point(torus, t, s, Kind.EXTRA_PAIR))
    return CriticalSet(points=tuple(points), total_count=total)


# ---------------------------------------------------------------------------
# critical value comparison


@dataclass(frozen=True)
class HalfPeriodComparison:
    """Total order of G over the half periods, cross checked three ways.

    ranking lists half period indices (0, 1, 2) from largest G downward,
    grouped so that tied points share a group: ((0,), (1, 2)) means
    G(w1/2) > G(w2/2) = G(w3/2).
    """

    values: tuple[float, float, float]
    wp_moduli: tuple[float, float, float]
    ranking: tuple[tuple[int, ...], ...]
    ties: tuple[tuple[int, int], ...]
    max_formula_deviation: float
    tie_tol: float


def _sign_with_tie(x: float, tol: float) -> int:
    if abs(x) <= tol:
        return 0
    return 1 if x > 0 else -1


def compare_half_periods(torus: Torus, tie_tol: float = 1e-9) -> HalfPeriodComparison:
    """Order G over the three half periods, three independent ways.

    (a) direct green_rel values, (b) the closed form pairwise differences
    (1/8 pi) log of cross ratios of e_i gaps, (c) the ordering of |wp| at
    the half periods.  Disagreement beyond the tie tolerance raises
    InconsistentComparison.
    """
    inv = weier.invariants(torus)
    g = tuple(float(green.green_rel(h, torus)) for h in torus.half_periods)
    e = (inv.e1, inv.e2, inv.e3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if e[i] - e[j] == 0.0:
            # near the cusp two roots can agree to every float64 digit; the
            # cross ratios below would then divide by zero or take log(0)
            raise Unconverged(
                f"e{i + 1} - e{j + 1} is exactly 0.0 in float64 at tau = {torus.tau}; "
                "the log-ratio formula cannot order the half periods"
            )
    formula = {
        (0, 2): math.log(abs((e[0] - e[1]) / (e[2] - e[1]))) / (8 * math.pi),
        (1, 2): math.log(abs((e[1] - e[0]) / (e[2] - e[0]))) / (8 * math.pi),
        (0, 1): math.log(abs((e[0] - e[2]) / (e[1] - e[2]))) / (8 * math.pi),
    }
    m = tuple(abs(x) for x in e)
    scale = max(m)
    dev = 0.0
    for (i, j), f in formula.items():
        direct = g[i] - g[j]
        dev = max(dev, abs(direct - f))
        sd = _sign_with_tie(direct, tie_tol)
        sf = _sign_with_tie(f, tie_tol)
        sw = _sign_with_tie(m[i] - m[j], tie_tol * max(1.0, scale))
        for other, name in ((sf, "log-ratio formula"), (sw, "|wp| criterion")):
            if sd != other and sd != 0 and other != 0:
                raise InconsistentComparison(
                    f"half periods {i + 1} vs {j + 1} at tau = {torus.tau}: direct "
                    f"difference {direct:.3e} disagrees with the {name}"
                )
            if (sd == 0) != (other == 0) and abs(direct) > 10 * tie_tol:
                raise InconsistentComparison(
                    f"half periods {i + 1} vs {j + 1} at tau = {torus.tau}: tie "
                    f"status disagrees with the {name}"
                )
    order = sorted(range(3), key=lambda k: -g[k])
    ranking: list[tuple[int, ...]] = [(order[0],)]
    ties = []
    for k in order[1:]:
        head = ranking[-1][-1]
        if abs(g[head] - g[k]) <= tie_tol:
            ranking[-1] = ranking[-1] + (k,)
            ties.append((head, k))
        else:
            ranking.append((k,))
    return HalfPeriodComparison(
        values=g,
        wp_moduli=m,
        ranking=tuple(ranking),
        ties=tuple(ties),
        max_formula_deviation=dev,
        tie_tol=tie_tol,
    )


# ---------------------------------------------------------------------------
# the extra pair on the rhombic line


def _newton_1d(fun, x0: float, lo: float, hi: float, tol: float):
    """Damped scalar Newton for fun(x) = (value, derivative) on (lo, hi)."""
    x = x0
    f, df = fun(x)
    for _ in range(80):
        if abs(f) <= tol:
            return x
        if df == 0.0 or not math.isfinite(df):
            return None
        step = f / df
        while True:
            xn = x - step
            if lo < xn < hi:
                fn, dfn = fun(xn)
                if abs(fn) < abs(f):
                    x, f, df = xn, fn, dfn
                    break
            step /= 2.0
            if abs(step) < 1e-17:
                return x if abs(f) <= tol else None
    return x if abs(f) <= tol else None


def locate_z0_on_rhombus_line(b: float, tol: float = 1e-12) -> CriticalPoint:
    """The extra critical point z0 on tau = 1/2 + i b, when it exists.

    For b above the upper threshold z0 sits on the vertical segment
    Re z = 1/2 with 0 < Im z0 < b/2 and is found by scalar Newton on G_y
    along that segment.  For b below the lower threshold the search runs
    along the real axis (the empirically observed locus); whatever point
    is found is returned without asserting more structure than that.
    Inside the two thresholds NotInExtraRegime is raised.
    """
    torus = make_torus(complex(0.5, b))
    inv = weier.invariants(torus)
    q = (inv.e1 + inv.eta1).real
    below, above = q < 0.0, q > 2.0 * math.pi / b
    if not (below or above):
        raise NotInExtraRegime(
            f"b = {b} lies between the degeneracy thresholds; e1 + eta1 = {q:.6f}"
        )
    grad_target = 0.5 * tol
    if above:
        def fy(y):
            z = 0.5 + 1j * y
            _, gy = green.green_grad(z, torus)
            return gy, green.green_hessian(z, torus).yy

        roots = []
        for frac in (0.12, 0.2, 0.3, 0.38, 0.46):
            r = _newton_1d(fy, frac * b, 1e-6, b / 2 - 1e-9, grad_target)
            if r is not None and all(abs(r - other) > 1e-7 for other in roots):
                roots.append(r)
        if not roots:
            raise NoConvergence(f"no root of G_y on Re z = 1/2 for b = {b}")
        y0 = min(roots)
        s = y0 / b
        t = 0.5 - 0.5 * s
    else:
        def fx(x):
            z = complex(x, 0.0)
            gx, _ = green.green_grad(z, torus)
            return gx, green.green_hessian(z, torus).xx

        roots = []
        for frac in (0.1, 0.2, 0.3, 0.4, 0.45):
            r = _newton_1d(fx, frac, EXCLUSION_RADIUS, 0.5 - 1e-9, grad_target)
            if r is not None and all(abs(r - other) > 1e-7 for other in roots):
                roots.append(r)
        if not roots:
            raise NoConvergence(f"no root of G_x on the real axis for b = {b}")
        t, s = min(roots), 0.0
    point = _build_point(torus, t, s, Kind.EXTRA_PAIR)
    gx, gy = green.green_grad(point.z, torus)
    if math.hypot(gx, gy) > tol:
        raise NoConvergence(f"rhombus line root did not meet tol at b = {b}")
    return point
