"""Critical points of the torus Green function.

The critical equation is the vanishing of the residual
r(t, s) = zeta(t + s*tau) - t*eta1 - s*eta2, which collapses to
(log theta1)_z + 2 pi i s, so the multi start Newton iteration below needs
one theta series pass per step for the whole seed batch.  Every torus has
the three half periods as critical points; at most one extra pair +-z0 can
appear, and more than that is reported as CountViolation because it can
only mean an evaluation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import green, theta, weier
from .errors import CountViolation, InconsistentComparison, NoConvergence, NotInExtraRegime
from .green import Hessian2
from .lattice import LatticeCoords, Torus, lattice_gap, make_torus, wrap_unit

EXCLUSION_RADIUS = 0.05   # seed free disk around the lattice point
DEDUP_TOL = 1e-8
HP_MERGE_TOL = 1e-5       # roots this close to a half period collapse into it;
                          # near a degeneracy threshold the residual vanishes
                          # quadratically, so spurious roots can sit ~1e-6 out
EXTRA_MERGE_TOL = 1e-6    # second stage merge among extra roots: right at a
                          # threshold the residual valley is flat enough that
                          # machine precision roots spread wider than DEDUP_TOL
PLATEAU_MIN_DET = 1e-9    # in units of (1/b)^2: an extra root only counts when
                          # its Hessian determinant clears this bar; on extreme
                          # aspect ratios the gradient has e^(-pi b') plateaus
                          # whose every point passes the residual test, but
                          # those fake roots carry determinants ~1e-12 while
                          # genuine extras sit at O(1)
DEGENERACY_EPS = 1e-8     # default scale factor for the Morse tie band
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


def _toroidal_gap(a, b):
    d, _ = wrap_unit(a - b)
    return d


def _newton_sweep(torus: Torus, n_grid: int, r_target: float):
    """Damped Newton from an n_grid^2 seed lattice; returns (roots, failures).

    roots is a list of wrapped (t, s) pairs, failures the number of seeds
    that neither converged nor were pruned by the exclusion disk.
    """
    tau = torus.tau
    g = (np.arange(n_grid) + 0.5) / n_grid - 0.5
    t, s = [a.ravel() for a in np.meshgrid(g, g)]
    # prune seeds within the exclusion radius of a lattice point
    keep = lattice_gap(t + s * tau, tau) > EXCLUSION_RADIUS
    t, s = t[keep], s[keep]

    r, rt, rs = green.residual_and_jacobian(t, s, torus)
    rn = np.abs(r)
    active = np.isfinite(rn)
    # polish three decades past the acceptance target: near a degeneracy
    # threshold the residual valley is flat enough that stopping exactly at
    # the target scatters one root across several dedup cells
    r_polish = r_target * 1e-3
    for _ in range(60):
        live = np.flatnonzero(active & (rn > r_polish))
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
    converged = np.isfinite(rn) & (rn <= r_target)
    failures = int(np.count_nonzero(~converged))
    tw, _ = wrap_unit(t[converged])
    sw, _ = wrap_unit(s[converged])
    return list(zip(tw.tolist(), sw.tolist())), failures


def _mirror_rep(t: float, s: float) -> tuple[float, float]:
    """Canonical representative of the orbit {(t,s), (-t,-s)} mod 1."""
    tn, _ = wrap_unit(-t)
    sn, _ = wrap_unit(-s)
    for cand in ((t, s), (float(tn), float(sn))):
        if cand[1] > DEDUP_TOL or (abs(cand[1]) <= DEDUP_TOL and cand[0] >= -DEDUP_TOL):
            return cand
    return (t, s)


def _dedup(pairs: list[tuple[float, float]], tol: float = DEDUP_TOL) -> list[tuple[float, float]]:
    reps = [_mirror_rep(t, s) for t, s in pairs]
    reps.sort()
    out: list[tuple[float, float]] = []
    for t, s in reps:
        for u, v in out:
            if abs(_toroidal_gap(t, u)) < tol and abs(_toroidal_gap(s, v)) < tol:
                break
        else:
            out.append((t, s))
    return out


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


def _build_point(torus: Torus, t: float, s: float, kind: Kind,
                 degeneracy_eps: float) -> CriticalPoint:
    z = t + s * torus.tau
    h = green.green_hessian(z, torus)
    return CriticalPoint(
        coords=LatticeCoords(t, s),
        z=z,
        kind=kind,
        morse=_classify_hessian(h, torus.b, degeneracy_eps),
        hessian=h,
        g_rel=float(green.green_rel(z, torus)),
    )


def _solve(torus: Torus, tol: float, n_grid: int):
    r_target = np.pi * tol   # |grad G| = |r| / (2 pi), kept at half of tol
    roots, failures = _newton_sweep(torus, n_grid, r_target)
    # the half periods are critical for every torus; pin them exactly so a
    # solver miss can never drop them
    for tc, sc in _HP_COORDS:
        roots.append((tc, sc))
    extras = []
    for t, s in _dedup(roots):
        for tc, sc in _HP_COORDS:
            if (abs(_toroidal_gap(t, tc)) < HP_MERGE_TOL
                    and abs(_toroidal_gap(s, sc)) < HP_MERGE_TOL):
                break
        else:
            extras.append((t, s))
    extras = _dedup(extras, EXTRA_MERGE_TOL)
    if extras:
        ts = np.array([p[0] for p in extras])
        ss = np.array([p[1] for p in extras])
        _, L2 = theta.theta1_logderivs(ts + ss * torus.tau, torus)
        pole = np.pi / torus.b
        det = -(np.abs(L2 + pole) ** 2 - pole * pole) / (4.0 * np.pi ** 2)
        floor = PLATEAU_MIN_DET / (torus.b * torus.b)
        extras = [p for p, d in zip(extras, np.abs(det)) if d > floor]
    return extras, failures


def find_critical_points(torus: Torus, tol: float = 1e-12) -> CriticalSet:
    """All critical points: the three half periods plus any extra pair.

    Multi start damped Newton on a 24x24 seed grid (minus the exclusion
    disk around the lattice point), deduplicated modulo the lattice and
    modulo z ~ -z.  More than five distinct points raises CountViolation.
    A failed seed alone is tolerated; NoConvergence fires only when a
    verification sweep at 48x48 also disagrees on the count.
    """
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"tol {tol} outside [1e-14, 1e-6]")
    extras, failures = _solve(torus, tol, 24)
    if failures:
        extras_fine, _ = _solve(torus, tol, 48)
        if len(extras_fine) != len(extras):
            raise NoConvergence(
                f"{failures} seeds failed and the 24/48 sweeps disagree "
                f"({len(extras)} vs {len(extras_fine)} extra orbits) at tau = {torus.tau}"
            )
    total = 3 + 2 * len(extras)
    if total > 5:
        raise CountViolation(
            f"{total} critical points survived dedup at tau = {torus.tau}; "
            "more than five is impossible and indicates an evaluation bug"
        )
    points = [
        _build_point(torus, tc, sc, kind, DEGENERACY_EPS)
        for (tc, sc), kind in zip(
            _HP_COORDS, (Kind.HALF_PERIOD_1, Kind.HALF_PERIOD_2, Kind.HALF_PERIOD_3)
        )
    ]
    for t, s in sorted(extras, key=lambda p: (p[1], p[0])):
        points.append(_build_point(torus, t, s, Kind.EXTRA_PAIR, DEGENERACY_EPS))
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
    point = _build_point(torus, t, s, Kind.EXTRA_PAIR, DEGENERACY_EPS)
    gx, gy = green.green_grad(point.z, torus)
    if math.hypot(gx, gy) > tol:
        raise NoConvergence(f"rhombus line root did not meet tol at b = {b}")
    return point
