"""Critical points of the torus Green function.

Every torus has the three half periods as critical points and at most one
extra pair +-z0 (Lin and Wang); the pair are minima and
#min - #saddle = -1, so there are five points exactly when all three half
periods are saddles.  find_critical_sets evaluates G at the three half
periods of every torus in one theta series pass (green.evaluate), builds
their points from that result, and lets the signs of their Hessian
determinants decide the count.  Each det comes with its error bound
(green.C_DET), and only a sign outside the bound counts:

- some det is positive: three points, no Newton (route "morse");
- all three dets are negative: five points; damped Newton from the 55
  fixed seeds below, and from a 24x24 grid where they miss, locates z0
  (route "seeds"), and a count other than five is a CountViolation;
- one det lies inside its bound and none is positive: z0 has merged into
  that half period, which is labelled Degenerate, and the torus has
  three points (route "morse");
- two or more dets lie inside their bounds: the signs cannot decide, and
  the torus is Unconverged.

A point's Morse label follows the same rule: Degenerate inside the bound,
else Min or Saddle by the sign.

The critical residual r(t, s) = zeta(t + s*tau) - t*eta1 - s*eta2
collapses to (log theta1)_z + 2 pi i s, so a Newton step is one theta
series pass for all seeds of every torus in a round.  Each round of the
seeds route (_solve) is a damped Newton run and one plateau pass whose
rows are the extra points.  The half-period pass serves every route, and
the residual check is one more pass, at the exact half period
coordinates through residual_and_jacobian, a second route to the
gradient.  So a morse torus costs two passes, and a seeds torus adds the
passes of its rounds.  compare_half_periods reads G(w_k/2) from the half
period points of a CriticalSet, so the critical command adds only the
theta null pass of weier.invariants.

A torus gets the same bits in a batch as alone: the kernel sums each
point at its own tau, the reduced frame constants are formed per torus
and then gathered (green.Frame), and each Newton seed keeps its own
count of steps.  find_critical_points is the batch of one torus.

One array pass reduces the converged roots to extra orbits: roots near a
half period go, the rest are folded modulo z ~ -z and merged at
EXTRA_MERGE_TOL.  CountViolation marks an evaluation bug: other than one
extra orbit where the signs force five, or unbalanced Morse labels, where
a Degenerate half period has index +1 (a saddle merged with the pair of
minima).  The damped Newton kernel also polishes the seed of the 8 pi
mean field construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import green, theta, weier
from .errors import (
    CountViolation,
    InconsistentComparison,
    InvalidInput,
    TorusGreenError,
    Unconverged,
)
from .green import Hessian2
from .lattice import LatticeCoords, Torus, lattice_gap, wrap_unit

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
DEFAULT_TOL = 1e-12       # default gradient tolerance of the seeds route
TIE_TOL = 1e-9            # G values of half periods this close are tied
NEWTON_SEEDS = 1 << 16    # seeds per damped Newton run, about 1 KB each at its
                          # first pass; the fixed seeds of a full scan chunk fit
_HP_COORDS = ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5))
# seeds route: the hexagonal z0 and its images, the midpoints between half
# periods, and offsets of 0.05 and 0.15 along the axes and diagonals around
# each half period, where z0 is born
_AROUND = [(dt, ds) for dt in (-1, 0, 1) for ds in (-1, 0, 1) if dt or ds]
_SEED_T, _SEED_S = np.array(
    [(1 / 3, 1 / 3), (2 / 3, 1 / 3), (1 / 3, 2 / 3),
     (0.25, 0.5), (0.5, 0.25), (0.75, 0.5), (0.5, 0.75)]
    + [(tc + r * dt, sc + r * ds)
       for tc, sc in _HP_COORDS for r in (0.05, 0.15) for dt, ds in _AROUND]
).T


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
    route: str                     # "morse" (signs alone) or "seeds" (Newton)

    @property
    def extra(self) -> CriticalPoint | None:
        for p in self.points:
            if p.kind is Kind.EXTRA_PAIR:
                return p
        return None


def damped_newton(t, s, torus: Torus | green.Frame, r_stop: float):
    """Damped Newton on the critical residual from the seeds (t, s).

    torus is a Torus or a Frame, one entry per seed for seeds on several
    tori (green.take).  Each step is halved up to 12 times until it
    lowers |r|; a seed that cannot improve even then is retired, and a
    seed stops once |r| <= r_stop or after 60 steps.  Every seed keeps
    its own count of steps and halvings, and one residual pass serves the
    next trial point of every seed, so a seed's path does not depend on
    the others and the passes are as many as the trials of the longest
    path.  Returns the final (t, s, |r|) arrays, unwrapped; lattice hits
    show up as non finite |r|.
    """
    t = np.array(t, dtype=float)
    s = np.array(s, dtype=float)
    r, rt, rs = green.residual_and_jacobian(t, s, torus)
    rn = np.abs(r)
    live = np.isfinite(rn)
    steps = np.zeros(t.size, dtype=int)      # Newton steps begun
    tries = np.zeros(t.size, dtype=int)      # rejected trials of the current step
    scale = np.ones(t.size)
    dt = np.zeros(t.size)
    ds = np.zeros(t.size)
    due = np.flatnonzero(live)               # seeds due a new Newton direction
    while True:
        stop = (rn[due] <= r_stop) | (steps[due] == 60)
        live[due[stop]] = False
        due = due[~stop]
        det = rt.real[due] * rs.imag[due] - rs.real[due] * rt.imag[due]
        bad = ~np.isfinite(det) | (np.abs(det) < 1e-300)
        det = np.where(bad, 1.0, det)
        dt[due] = np.where(bad, 0.0, (r.real[due] * rs.imag[due] - rs.real[due] * r.imag[due]) / det)
        ds[due] = np.where(bad, 0.0, (rt.real[due] * r.imag[due] - r.real[due] * rt.imag[due]) / det)
        scale[due] = 1.0
        tries[due] = 0
        steps[due] += 1
        idx = np.flatnonzero(live)
        t_try = t[idx] - scale[idx] * dt[idx]
        s_try = s[idx] - scale[idx] * ds[idx]
        # a step under the float spacing cannot lower |r|: the seed is stuck
        # on a ridge, and convergence is judged from rn alone
        moved = (t_try != t[idx]) | (s_try != s[idx])
        live[idx[~moved]] = False
        idx, t_try, s_try = idx[moved], t_try[moved], s_try[moved]
        if idx.size == 0:
            return t, s, rn
        r2, rt2, rs2 = green.residual_and_jacobian(t_try, s_try, green.take(torus, idx))
        rn2 = np.abs(r2)
        ok = np.isfinite(rn2) & (rn2 <= rn[idx] * (1.0 - 1e-4) + 1e-300)
        due = idx[ok]
        t[due] = t_try[ok]
        s[due] = s_try[ok]
        r[due] = r2[ok]
        rt[due] = rt2[ok]
        rs[due] = rs2[ok]
        rn[due] = rn2[ok]
        poor = idx[~ok]
        scale[poor] *= 0.5
        tries[poor] += 1
        live[poor[tries[poor] == 12]] = False


def _grid_seeds(n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    g = (np.arange(n_grid) + 0.5) / n_grid - 0.5
    t, s = np.meshgrid(g, g)
    return t.ravel(), s.ravel()


# seeds route: the 24x24 grid where the fixed seeds miss
_GRID_SEEDS = _grid_seeds(24)


def _solve(tori: list[Torus], t: np.ndarray, s: np.ndarray, tol: float):
    """Extra orbit representatives of each torus, reached from the seeds
    (t, s), which serve every torus of tori.

    One damped Newton run serves every seed and one evaluate pass applies
    the plateau filter to every torus.  Returns, per torus, (ts, ss, rows,
    failures): the representatives kept, their _rows from that pass, and
    the seeds that neither converged nor were pruned.
    """
    if not tori:
        return []
    batch = green.gather(tori)
    cell = np.repeat(np.arange(len(tori)), t.size)
    t, s = np.tile(t, len(tori)), np.tile(s, len(tori))
    on = green.take(batch, cell)
    keep = lattice_gap(t + s * on.tau, on.tau) > EXCLUSION_RADIUS
    t, s, cell, on = t[keep], s[keep], cell[keep], green.take(on, keep)
    r_target = np.pi * tol   # |grad G| = |r| / (2 pi), kept at half of tol
    # polish three decades past the acceptance target: near a degeneracy
    # threshold the residual valley is flat enough that stopping exactly at
    # the target scatters one root across several merge cells; runs of at
    # most NEWTON_SEEDS seeds bound the memory of a pass
    runs = [damped_newton(t[lo:lo + NEWTON_SEEDS], s[lo:lo + NEWTON_SEEDS],
                          green.take(on, slice(lo, lo + NEWTON_SEEDS)), r_target * 1e-3)
            for lo in range(0, max(t.size, 1), NEWTON_SEEDS)]
    t, s, rn = (np.concatenate(x) for x in zip(*runs))
    converged = np.isfinite(rn) & (rn <= r_target)
    failures = np.bincount(cell[~converged], minlength=len(tori))
    bounds = np.searchsorted(cell[converged], np.arange(len(tori) + 1))
    tw, sw = wrap_unit(t[converged])[0], wrap_unit(s[converged])[0]
    reps = [_orbit_reps(tw[lo:hi], sw[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    # drop the gradient plateau roots; the pass's rows serve the points kept
    rcell = np.repeat(np.arange(len(tori)), [ts.size for ts, _ in reps])
    rt = np.concatenate([ts for ts, _ in reps])
    rs = np.concatenate([ss for _, ss in reps])
    keep = np.ones(rt.size, dtype=bool)
    rows = []
    if rt.size:
        on = green.take(batch, rcell)
        ev = green.evaluate(rt + rs * on.tau, on)
        floor = np.array([PLATEAU_MIN_DET / (torus.b * torus.b) for torus in tori])
        keep = np.abs(ev.hessian.det) > floor[rcell]
        rows = _rows(ev)
    out = []
    for k, failed in enumerate(failures.tolist()):
        mine = np.flatnonzero((rcell == k) & keep)
        out.append((rt[mine], rs[mine], [rows[j] for j in mine.tolist()], failed))
    return out


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


def _morse(det: float, bound: float) -> Morse:
    if abs(det) <= bound:
        return Morse.DEGENERATE
    # trace is 1/b > 0, so a positive determinant always means a minimum
    return Morse.MIN if det > 0.0 else Morse.SADDLE


def _rows(ev: green.GreenEval) -> list[tuple[float, ...]]:
    """(xx, xy, yy, det, value, det_bound) per point of an evaluate over a
    1-D array."""
    h = ev.hessian
    return list(zip(h.xx.tolist(), h.xy.tolist(), h.yy.tolist(), h.det.tolist(),
                    ev.value_rel.tolist(), ev.det_bound.tolist()))


def _points(torus: Torus, coords, kinds, rows) -> list[CriticalPoint]:
    """The critical points at coords, classified from their _rows."""
    out = []
    for (t, s), kind, (xx, xy, yy, det, g, bound) in zip(coords, kinds, rows):
        out.append(CriticalPoint(coords=LatticeCoords(t, s), z=t + s * torus.tau, kind=kind,
                                 morse=_morse(det, bound), hessian=Hessian2(xx, xy, yy, det),
                                 g_rel=g))
    return out


def _half_period_rows(tori: list[Torus], batch) -> list[tuple[float, ...]]:
    """The _rows of the three half periods of every torus, from one pass."""
    z = np.array([h for torus in tori for h in torus.half_periods])
    return _rows(green.evaluate(z, green.take(batch, np.repeat(np.arange(len(tori)), 3))))


def _critical_sets(tori: list[Torus], hp, found) -> list[CriticalSet]:
    """The CriticalSet of each (k, route, ts, ss, rows) in found: the half
    periods of tori[k], whose _rows are hp[3k:3k + 3], plus the extra
    orbits (ts, ss) with their _rows from the plateau pass of _solve."""
    kinds = (Kind.HALF_PERIOD_1, Kind.HALF_PERIOD_2, Kind.HALF_PERIOD_3)
    out = []
    for k, route, ts, ss, rows in found:
        torus = tori[k]
        extras = list(zip(ts.tolist(), ss.tolist()))
        points = _points(torus, _HP_COORDS, kinds, hp[3 * k:3 * k + 3])
        points += _points(torus, extras, [Kind.EXTRA_PAIR] * len(extras), rows)
        out.append(CriticalSet(points=tuple(points), total_count=3 + 2 * len(extras),
                               route=route))
    return out


def _checked(cs: CriticalSet, torus: Torus, r: np.ndarray, tol: float):
    """cs, or the error it fails with, given r = |residual| at its points:
    it passes once |grad G| <= tol at each point and #min - #saddle = -1."""
    grad = float(np.max(r)) / (2.0 * np.pi)
    if not grad <= tol:
        return Unconverged(f"|grad G| = {grad:.3e} above tol {tol} on the "
                           f"{cs.route} route at tau = {torus.tau}")
    # a Degenerate point is a saddle merged with the pair of minima: index +1
    balance = sum((2 if p.kind is Kind.EXTRA_PAIR else 1)
                  * (1 - 2 * (p.morse is Morse.SADDLE)) for p in cs.points)
    if balance != -1:
        return CountViolation(
            f"#min - #saddle = {balance} among the {cs.total_count} critical points "
            f"of the {cs.route} route at tau = {torus.tau}; the Euler count forces -1"
        )
    return cs


def find_critical_sets(tori, tol: float = DEFAULT_TOL) -> list[CriticalSet | TorusGreenError]:
    """The critical set of every torus in tori, or the error it fails with.

    A torus reduced past theta.MAX_IM_TAU gets the InvalidInput of
    theta._check_im and joins no pass.  The others each take their own
    route (see the module docstring), and every pass serves all of them.
    One half-period pass decides the routes and gives the half period
    points of all of them.  Two _solve rounds follow: the 55 fixed seeds
    of every seeds torus, then the 24x24 grid of each one whose seeds did
    not leave exactly one extra orbit.  Last, one residual pass checks
    |grad G| <= tol at every point, next to the Morse balance.  A torus
    gets the same result, to the bit, as alone.  Only a bad tol raises.
    """
    if not 1e-14 <= tol <= 1e-6:
        raise InvalidInput(f"tol {tol} outside [1e-14, 1e-6]")
    out: list = []
    for torus in tori:
        try:
            theta._check_im(torus.tau_r.imag)
        except InvalidInput as exc:
            out.append(exc)
        else:
            out.append(torus)
    # the tori the passes serve: out[live[k]] answers for tori[k]
    live = [k for k, x in enumerate(out) if isinstance(x, Torus)]
    tori = [out[k] for k in live]
    if not tori:
        return out
    batch = green.gather(tori)
    hp = _half_period_rows(tori, batch)
    det = np.array([row[3] for row in hp]).reshape(-1, 3)
    inside = np.abs(det) <= np.array([row[5] for row in hp]).reshape(-1, 3)
    n_inside = inside.sum(axis=1)
    morse = ((det > 0.0) & ~inside).any(axis=1) | (n_inside == 1)
    for k in np.flatnonzero(~morse & (n_inside > 1)).tolist():
        out[live[k]] = Unconverged(f"{n_inside[k]} half-period Hessian determinants lie "
                                   f"within their error bounds at tau = {tori[k].tau}; "
                                   "their signs cannot decide the count")
    empty = np.zeros(0)
    found = [(k, "morse", empty, empty, []) for k in np.flatnonzero(morse).tolist()]
    todo = np.flatnonzero(~morse & (n_inside == 0)).tolist()
    for seed_t, seed_s in ((_SEED_T, _SEED_S), _GRID_SEEDS):
        missed = {}
        for k, (ts, ss, rows, _) in zip(todo, _solve([tori[k] for k in todo], seed_t, seed_s, tol)):
            if ts.size == 1:
                found.append((k, "seeds", ts, ss, rows))
            else:
                missed[k] = ts.size
        todo = list(missed)
    for k, n in missed.items():
        out[live[k]] = CountViolation(
            f"the seeds found {3 + 2 * n} critical points at tau = {tori[k].tau}, but "
            "all three half periods are saddles, which forces 5"
        )
    sets = _critical_sets(tori, hp, found)
    cell = np.repeat([k for k, *_ in found], [len(cs.points) for cs in sets])
    t = np.array([p.coords.t for cs in sets for p in cs.points])
    s = np.array([p.coords.s for cs in sets for p in cs.points])
    r = np.abs(green.residual_and_jacobian(t, s, green.take(batch, cell))[0]) if t.size else t
    start = 0
    for (k, *_), cs in zip(found, sets):
        stop = start + len(cs.points)
        out[live[k]] = _checked(cs, tori[k], r[start:stop], tol)
        start = stop
    return out


def find_critical_points(torus: Torus, tol: float = DEFAULT_TOL) -> CriticalSet:
    """All critical points: the three half periods plus any extra pair.

    find_critical_sets for one torus: the route (see the module
    docstring) is recorded in the result.  |grad G| <= tol at every point
    and the Morse balance are checked; where all three half periods are
    saddles, a count other than five raises CountViolation, and where the
    determinant signs cannot decide, Unconverged.
    """
    cs, = find_critical_sets([torus], tol)
    if isinstance(cs, TorusGreenError):
        raise cs
    return cs


# ---------------------------------------------------------------------------
# critical value comparison


@dataclass(frozen=True)
class HalfPeriodComparison:
    """Total order of G over the half periods, cross checked three ways.

    ranking lists half period indices (0, 1, 2) from largest G downward,
    grouped so that tied points share a group, in index order:
    ((0,), (1, 2)) means G(w1/2) > G(w2/2) = G(w3/2).  ties holds the
    consecutive pairs of each group.
    """

    values: tuple[float, float, float]
    ranking: tuple[tuple[int, ...], ...]
    ties: tuple[tuple[int, int], ...]
    max_formula_deviation: float


def _sign_with_tie(x: float, tol: float) -> int:
    if abs(x) <= tol:
        return 0
    return 1 if x > 0 else -1


def compare_half_periods(torus: Torus, cs: CriticalSet) -> HalfPeriodComparison:
    """Order G over the three half periods, three independent ways.

    (a) direct green_rel values, (b) the closed form pairwise differences
    G(w_i/2) - G(w_j/2) = (log|theta_j(0)| - log|theta_i(0)|) / 2 pi of
    the theta nulls that belong to the half periods, which Jacobi's gap
    identities make the (1/8 pi) log of cross ratios of e gaps, (c) the
    ordering of |wp| at the half periods.  The nulls are summed in log
    form, so (b) keeps its relative precision at the cusp, where two
    roots e_k agree to every float64 digit.  Disagreement beyond TIE_TOL
    raises InconsistentComparison.

    The direct values are the g_rel of the half-period points of cs, the
    critical set of torus, so no Green pass runs here.  The theta nulls
    come from weier.invariants.
    """
    inv = weier.invariants(torus)
    g = tuple(p.g_rel for p in cs.points[:3])
    e = (inv.e1, inv.e2, inv.e3)
    nulls = inv.log_abs_nulls
    formula = {(i, j): (nulls[j] - nulls[i]) / (2 * math.pi)
               for i, j in ((0, 2), (1, 2), (0, 1))}
    m = tuple(abs(x) for x in e)
    scale = max(m)
    dev = 0.0
    for (i, j), f in formula.items():
        direct = g[i] - g[j]
        dev = max(dev, abs(direct - f))
        sd = _sign_with_tie(direct, TIE_TOL)
        sf = _sign_with_tie(f, TIE_TOL)
        sw = _sign_with_tie(m[i] - m[j], TIE_TOL * max(1.0, scale))
        for other, name in ((sf, "log-ratio formula"), (sw, "|wp| criterion")):
            if sd != other and sd != 0 and other != 0:
                raise InconsistentComparison(
                    f"half periods {i + 1} vs {j + 1} at tau = {torus.tau}: direct "
                    f"difference {direct:.3e} disagrees with the {name}"
                )
            if (sd == 0) != (other == 0) and abs(direct) > 10 * TIE_TOL:
                raise InconsistentComparison(
                    f"half periods {i + 1} vs {j + 1} at tau = {torus.tau}: tie "
                    f"status disagrees with the {name}"
                )
    order = sorted(range(3), key=lambda k: -g[k])
    groups = [[order[0]]]
    for k in order[1:]:
        if abs(g[groups[-1][-1]] - g[k]) <= TIE_TOL:
            groups[-1].append(k)
        else:
            groups.append([k])
    # a tie group in index order, so roundoff inside it cannot reorder it
    ranking = tuple(tuple(sorted(grp)) for grp in groups)
    return HalfPeriodComparison(
        values=g,
        ranking=ranking,
        ties=tuple(pair for grp in ranking for pair in zip(grp, grp[1:])),
        max_formula_deviation=dev,
    )
