"""Critical points of the torus Green function.

Every torus has the three half periods as critical points and at most one
extra pair +-z0 (Lin and Wang); the pair are minima and
#min - #saddle = -1, so there are five points exactly when all three half
periods are saddles.  find_critical_sets evaluates G at the three half
periods of every torus in one theta series pass (weier.half_periods),
builds their points from that result, and lets the signs of their Hessian
determinants decide the count.  Each det comes with its error bound
(green.C_DET), and only a sign outside the bound counts:

- some det is positive: three points, no Newton (route "morse");
- all three dets are negative: five points; damped Newton from one
  pitchfork seed locates z0 (route "seeds");
- one det lies inside its bound and none is positive: z0 has merged into
  that half period, which is labelled Degenerate, and the torus has
  three points (route "morse");
- two or more dets lie inside their bounds: the signs cannot decide, and
  the torus is Unconverged.

A point's Morse label follows the same rule: Degenerate inside the bound,
else Min or Saddle by the sign.

The pair is born at a half period, in a pitchfork, as that half period's
determinant crosses zero (Lin and Wang's deformation argument).  So the
seeds route takes the half period with the largest determinant and reads
the normal form of that pitchfork from its Hessian row and the other two
(_pitchfork_seed): no theta pass.  The critical residual
r(t, s) = zeta(t + s*tau) - t*eta1 - s*eta2 collapses to
(log theta1)_z + 2 pi i s, so a Newton step is one theta series pass for
the seeds of every torus of a batch, and one more pass gives the points
at the roots.  The half-period pass serves every route and gives the
Weierstrass invariants too, which a lone torus keeps in the
weier.invariants cache; the residual check is one more pass, at the
exact half period coordinates through residual_and_jacobian, a second
route to the gradient.  So a morse torus costs two passes, and a seeds
torus adds its Newton trials and the pass at z0; compare_half_periods
and the 8 pi developing map find the invariants cached.

A torus gets the same bits in a batch as alone: the kernel sums each
point at its own tau, the reduced frame constants are formed per torus
and then gathered (green.Frame), a seed is formed from its torus's rows
alone, and each Newton seed keeps its own count of steps.
find_critical_points is the batch of one torus.

Failures stay typed.  Unconverged: the half-period pass misses Jacobi's
gap identities, no seed (G_vvvv <= 0), or Newton misses the residual
target from it.  CountViolation marks an evaluation bug: Newton reaches
a half period where the signs force five, z0 is not a Min outside its
bound, or unbalanced Morse labels, where a Degenerate half period has
index +1 (a saddle merged with the pair of minima).
"""

from __future__ import annotations

import cmath
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
from .lattice import LatticeCoords, Torus, wrap_unit

HP_MERGE_TOL = 1e-5       # a root this close to a half period, in both
                          # coordinates, is that half period
LINE_TOL = 1e-6           # a root this close to the lines s = 0 and s = 1/2,
                          # which z -> -z maps to themselves, lies on them:
                          # below b0 on Re tau = 1/2 z0 is real, and Newton
                          # leaves it up to ~3e-8 off the axis
DEFAULT_TOL = 1e-12       # default bound on |grad G| on the reduced torus
TIE_TOL = 1e-9            # G values of half periods this close are tied
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
    route: str                     # "morse" (signs alone) or "seeds" (Newton)

    @property
    def extra(self) -> CriticalPoint | None:
        for p in self.points:
            if p.kind is Kind.EXTRA_PAIR:
                return p
        return None


def damped_newton(t, s, torus: Torus | green.Frame, r_stop):
    """Damped Newton on the critical residual from the seeds (t, s).

    torus is a Torus or a Frame, one entry per seed for seeds on several
    tori (green.take).  Each step is halved up to 12 times until it
    lowers |r|; a seed that cannot improve even then is retired, and a
    seed stops once |r| <= r_stop (scalar, or per seed) or after 60
    steps.  Every seed keeps its own count of steps and halvings, and one
    residual pass serves the next trial point of every seed, so a seed's
    path does not depend on the others and the passes are as many as the
    trials of the longest path.  Returns the final (t, s, |r|) arrays,
    unwrapped; lattice hits show up as non finite |r|.
    """
    t = np.array(t, dtype=float)
    s = np.array(s, dtype=float)
    r_stop = np.broadcast_to(r_stop, t.shape)
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
        stop = (rn[due] <= r_stop[due]) | (steps[due] == 60)
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


def _critical_set(torus: Torus, hp_rows, route: str, extra=None) -> CriticalSet:
    """The CriticalSet of the half periods of torus, whose _rows are
    hp_rows, plus the extra orbit extra = ((t, s), row), if any."""
    kinds = (Kind.HALF_PERIOD_1, Kind.HALF_PERIOD_2, Kind.HALF_PERIOD_3)
    points = _points(torus, _HP_COORDS, kinds, hp_rows)
    if extra is not None:
        points += _points(torus, [extra[0]], [Kind.EXTRA_PAIR], [extra[1]])
    return CriticalSet(points=tuple(points), total_count=3 + 2 * (extra is not None),
                       route=route)


def _pitchfork_seed(torus: Torus, hp_rows) -> tuple[float, float, int]:
    """The seed (t, s) of z0 on a torus whose three half periods are
    saddles, from their _rows, and the index m of the half period it
    leaves: the one with the largest determinant, where the extra pair is
    born as that determinant crosses zero.

    Along the unit eigenvector v of the negative Hessian eigenvalue lam at
    w_m, G is even about w_m, so its slope at w_m + eps v is
    lam eps + G_vvvv eps^3 / 6 + O(eps^5), where
    G_vvvv = Re(wp''(w_m) v^4) / 2 pi because the fourth derivative of
    log theta1 is -wp''.  c_k = pi (G_xx - G_yy - 2i G_xy) at w_k is e_k
    plus a constant of the torus, so wp''(w_m) = 2 (c_m - c_i)(c_m - c_j)
    needs no theta pass; v^2 = -conj(c_m) / |c_m|, and
    lam = det / (trace / 2 + |c_m| / 2 pi) keeps the precision of det.
    The seed is w_m + eps v with eps = sqrt(-6 lam / G_vvvv).  Raises
    Unconverged where G_vvvv <= 0, which leaves no seed.
    """
    m = max(range(3), key=lambda k: hp_rows[k][3])
    c = [math.pi * complex(xx - yy, -2.0 * xy) for xx, xy, yy, *_ in hp_rows]
    i, j = (k for k in range(3) if k != m)
    xx, _, yy, det = hp_rows[m][:4]
    size = abs(c[m])
    lam = det / ((xx + yy) / 2.0 + size / (2.0 * math.pi))
    v2 = -c[m].conjugate() / size
    g4 = (2.0 * (c[m] - c[i]) * (c[m] - c[j]) * v2 * v2).real / (2.0 * math.pi)
    if not g4 > 0.0:
        raise Unconverged(f"no pitchfork seed at half period {m + 1}: G_vvvv = {g4:.3e} "
                          f"is not positive at tau = {torus.tau}")
    dz = math.sqrt(-6.0 * lam / g4) * cmath.sqrt(v2)
    ds = dz.imag / torus.tau.imag
    tc, sc = _HP_COORDS[m]
    t, s = wrap_unit([tc + dz.real - ds * torus.tau.real, sc + ds])[0].tolist()
    return t, s, m


def _extra_points(tori: list[Torus], batch, seeds, tol: float) -> list:
    """z0 of each (k, t, s, m) in seeds, the pitchfork seed (t, s) of
    tori[k] at half period m: one damped Newton run serves every seed and
    one evaluate pass every root.  Returns, per seed, ((t, s), row) with
    the root folded to the representative of its orbit {z, -z} and row
    its _rows, or the error: Unconverged where Newton misses reduced-frame
    |grad G| <= tol / 2, CountViolation where it reaches a half period.
    """
    if not seeds:
        return []
    k, t0, s0, m = (np.array(x) for x in zip(*seeds))
    # |grad G| = |r| / (2 pi |lam|), kept at half of tol on the reduced torus
    r_target = np.pi * tol / np.abs([tori[j].lam for j in k])
    # polish three decades past the target, so that z0 is a root to
    # rounding and not anywhere inside the tolerance
    t, s, rn = damped_newton(t0, s0, green.take(batch, k), r_target * 1e-3)
    t, s = _fold(wrap_unit(t)[0], wrap_unit(s)[0])
    at_hp = np.full(t.size, -1)
    for h, (tc, sc) in enumerate(_HP_COORDS):
        at_hp[(np.abs(wrap_unit(t - tc)[0]) < HP_MERGE_TOL)
              & (np.abs(wrap_unit(s - sc)[0]) < HP_MERGE_TOL)] = h
    ok = np.isfinite(rn) & (rn <= r_target) & (at_hp < 0)
    on = green.take(batch, k[ok])
    rows = iter(_rows(green.evaluate(t[ok] + s[ok] * on.tau, on)) if ok.any() else [])
    out = []
    for j, seed in enumerate(seeds):
        torus = tori[seed[0]]
        name = f"the pitchfork seed (t, s) = ({t0[j]:.6f}, {s0[j]:.6f}) at half period {m[j] + 1}"
        if ok[j]:
            out.append(((float(t[j]), float(s[j])), next(rows)))
        elif at_hp[j] < 0:
            out.append(Unconverged(f"Newton from {name} ended at reduced-frame |grad G| = "
                                   f"{rn[j] * abs(torus.lam) / (2.0 * np.pi):.3e}, above "
                                   f"tol {tol} / 2, at tau = {torus.tau}"))
        else:
            out.append(CountViolation(
                f"Newton from {name} reached half period {at_hp[j] + 1}, so 3 critical "
                f"points at tau = {torus.tau}, but all three half periods are saddles, "
                "which forces 5"))
    return out


def _fold(t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The representative of the orbit {z, -z} of each wrapped root: on the
    half cell s > 0, and t >= 0 on the lines s = 0 and s = 1/2 (LINE_TOL),
    which z -> -z maps to themselves."""
    on_line = (np.abs(s) <= LINE_TOL) | (np.abs(wrap_unit(s - 0.5)[0]) <= LINE_TOL)
    flip = np.where(on_line, t < -LINE_TOL, s < 0.0)
    return np.where(flip, wrap_unit(-t)[0], t), np.where(flip, wrap_unit(-s)[0], s)


def _checked(cs: CriticalSet, torus: Torus, r: np.ndarray, tol: float):
    """cs, or the error it fails with, given r = |residual| at its points:
    it passes once |grad G| <= tol at each point on the reduced torus,
    #min - #saddle = -1 and its extra pair, if any, are minima."""
    grad = float(np.max(r)) * abs(torus.lam) / (2.0 * np.pi)
    if not grad <= tol:
        return Unconverged(f"reduced-frame |grad G| = {grad:.3e} above tol {tol} on the "
                           f"{cs.route} route at tau = {torus.tau}")
    # a Degenerate point is a saddle merged with the pair of minima: index +1
    balance = sum((2 if p.kind is Kind.EXTRA_PAIR else 1)
                  * (1 - 2 * (p.morse is Morse.SADDLE)) for p in cs.points)
    if balance != -1:
        return CountViolation(
            f"#min - #saddle = {balance} among the {cs.total_count} critical points "
            f"of the {cs.route} route at tau = {torus.tau}; the Euler count forces -1"
        )
    # the balance counts a Degenerate pair +1 each, as it would two minima
    if cs.extra is not None and cs.extra.morse is not Morse.MIN:
        return CountViolation(f"the extra point z0 = {cs.extra.z} is {cs.extra.morse.value}, "
                              f"not a Min outside its det_bound, at tau = {torus.tau}")
    return cs


def find_critical_sets(tori, tol: float = DEFAULT_TOL) -> list[CriticalSet | TorusGreenError]:
    """The critical set of every torus in tori, or the error it fails with.

    A torus reduced past theta.MAX_IM_TAU gets the InvalidInput of
    theta._check_im and joins no pass.  The others each take their own
    route (see the module docstring), and every pass serves all of them.
    One half-period pass decides the routes and gives the half period
    points of all of them, or a torus its Unconverged off the gap
    identities.  Every seeds torus then gets its pitchfork
    seed, and _extra_points runs one Newton for all the seeds and one pass
    at their roots.  Last, one residual pass checks |grad G| <= tol on
    the reduced torus at every point, next to the Morse balance.  A torus
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
    ev, failed = weier.half_periods(tori, batch)
    hp = _rows(ev)
    det = ev.hessian.det.reshape(-1, 3)
    inside = np.abs(det) <= ev.det_bound.reshape(-1, 3)
    n_inside = inside.sum(axis=1)
    morse = ((det > 0.0) & ~inside).any(axis=1) | (n_inside == 1)
    ok = np.ones(len(tori), dtype=bool)
    for k, exc in failed.items():
        out[live[k]] = exc
        ok[k] = False
    for k in np.flatnonzero(ok & ~morse & (n_inside > 1)).tolist():
        out[live[k]] = Unconverged(f"{n_inside[k]} half-period Hessian determinants lie "
                                   f"within their error bounds at tau = {tori[k].tau}; "
                                   "their signs cannot decide the count")
    sets = {k: _critical_set(tori[k], hp[3 * k:3 * k + 3], "morse")
            for k in np.flatnonzero(ok & morse).tolist()}
    seeds = []
    for k in np.flatnonzero(ok & ~morse & (n_inside == 0)).tolist():
        try:
            seeds.append((k, *_pitchfork_seed(tori[k], hp[3 * k:3 * k + 3])))
        except Unconverged as exc:
            out[live[k]] = exc
    for (k, *_), extra in zip(seeds, _extra_points(tori, batch, seeds, tol)):
        if isinstance(extra, TorusGreenError):
            out[live[k]] = extra
        else:
            sets[k] = _critical_set(tori[k], hp[3 * k:3 * k + 3], "seeds", extra)
    cell = np.repeat(list(sets), [len(cs.points) for cs in sets.values()])
    t = np.array([p.coords.t for cs in sets.values() for p in cs.points])
    s = np.array([p.coords.s for cs in sets.values() for p in cs.points])
    r = np.abs(green.residual_and_jacobian(t, s, green.take(batch, cell))[0]) if t.size else t
    start = 0
    for k, cs in sets.items():
        stop = start + len(cs.points)
        out[live[k]] = _checked(cs, tori[k], r[start:stop], tol)
        start = stop
    return out


def find_critical_points(torus: Torus, tol: float = DEFAULT_TOL) -> CriticalSet:
    """All critical points: the three half periods plus any extra pair.

    find_critical_sets for one torus: the route (see the module
    docstring) is recorded in the result.  |grad G| <= tol (reduced torus)
    at every point and the Morse balance are checked; where all three half
    periods are saddles, a count other than five raises CountViolation,
    and where the determinant signs cannot decide, Unconverged.
    """
    cs, = find_critical_sets([torus], tol)
    if isinstance(cs, TorusGreenError):
        raise cs
    return cs


# ---------------------------------------------------------------------------
# critical value comparison


@dataclass(frozen=True)
class HalfPeriodComparison:
    """Total order of G over the half periods, from one pass read three ways.

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
    """Order G over the three half periods: one pass, read three ways.

    (a) the direct green_rel values, (b) the closed form differences
    G(w_i/2) - G(w_j/2) = (log|theta_j(0)| - log|theta_i(0)|) / 2 pi of
    the half periods' theta nulls, summed in log form to keep relative
    precision at the cusp, and (c) the order of |wp| at the half periods.
    (a) and (b) read the log|theta1| of the same pass, so they check the
    frame algebra only; e_i + e_j + e_k = 0 and Jacobi's gaps |e_i - e_k|
    = pi^2 |theta|^4, which that pass checks, make (c) the order of (b).
    Disagreement beyond TIE_TOL raises InconsistentComparison.

    The direct values are the g_rel of the half-period points of cs, the
    critical set of torus, and the theta nulls come from weier.invariants,
    cached by the pass that gave cs its half periods.
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
