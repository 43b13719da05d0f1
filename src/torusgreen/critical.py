"""Critical points of the torus Green function.

Every torus has the three half periods as critical points and at most one
extra pair +-z0 (Lin and Wang); the pair are minima and
#min - #saddle = -1, so there are five points exactly when all three half
periods are saddles.  find_critical_sets writes G at the three half
periods of every torus in closed form from one theta-null sum
(green.half_period_rows), builds their points from it, and lets the
signs of their Hessian determinants decide the count.  Each det comes
with its error bound (green.C_DET), and only a sign outside it counts:

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
(_pitchfork_seeds, array expressions over the rows of every seeds torus
of a batch): no theta pass.  The critical residual
r(t, s) = zeta(t + s*tau) - t*eta1 - s*eta2 collapses to
(log theta1)_z + 2 pi i s, so a Newton trial is one theta series pass for
the seeds of every torus of a batch, and the L3 of that pass makes the
step third order (damped_newton).  One final pass, through
residual_and_jacobian, sums the half periods at their exact coordinates
and each root at t + s tau_r, where evaluate sums it: it gives z0's row,
|grad G| = |r| / (2 pi) at every point, and a second route at the half
periods, theta1's z-series against the null sum.  Its determinants,
from dr_dt = L2, must agree in sign with the null sum's outside both
bounds, and its G - C must give the pairwise differences
G(w_i/2) - G(w_j/2) of the null sum's closed form,
(log|theta_j(0)| - log|theta_i(0)|) / 2 pi, to TIE_TOL; the largest
disagreement is the set's route_deviation.  Both comparisons run on the
reduced torus, where the carry-back shift of G cancels in the
differences.  So a morse torus costs one pass, and a seeds torus adds
its Newton trials.

Every pass runs on the reduced tori (Torus.reduced).  A batch is
finished as arrays (_solve): the rows are carried back to their tori
(_carried, by green.carried), the half periods relabelled by an index
array, and the Morse labels and checks read from columns; only the
messages of failing tori and z0's exact map on a torus with a matrix
stay per torus.  find_critical_sets builds CriticalSets from the
columns, and moduli.scan its columns.  A torus gets the same bits in a
batch as alone: each point is summed at its own tau_r, a seed is formed
from its torus's rows alone, and each Newton seed keeps its own count of
steps.  find_critical_points is the batch of one torus.

Failures stay typed.  Unconverged: the null sum misses Jacobi's gap
identities, the two routes to a determinant's sign disagree, no seed
(G_vvvv <= 0), Newton misses the residual target from it, or a point
misses |grad G| <= tol in the final pass.  InconsistentComparison: the
two routes to the half-period differences of G disagree past TIE_TOL.
CountViolation marks an evaluation bug: Newton reaches a half period
where the signs force five, z0 is not a Min outside its bound, or
unbalanced Morse labels, where a Degenerate half period has index +1 (a
saddle merged with the pair of minima).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import green, theta
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
POLISH = 1e-3             # Newton polishes z0 to |r| <= POLISH times its target
_HP_COORDS = ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5))
_HP_T, _HP_S = np.array(_HP_COORDS).T
_TURNS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])   # a half period, then the others
_IDENTITY = ((1, 0), (0, 1))


class Kind(Enum):
    HALF_PERIOD_1 = "HalfPeriod1"
    HALF_PERIOD_2 = "HalfPeriod2"
    HALF_PERIOD_3 = "HalfPeriod3"
    EXTRA_PAIR = "ExtraPair"


class Morse(Enum):
    MIN = "Min"
    SADDLE = "Saddle"
    DEGENERATE = "Degenerate"


_KINDS = (Kind.HALF_PERIOD_1, Kind.HALF_PERIOD_2, Kind.HALF_PERIOD_3)
_MORSE = (Morse.MIN, Morse.SADDLE, Morse.DEGENERATE)


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
    route_deviation: float         # the final pass against the null sum (module docstring)

    @property
    def extra(self) -> CriticalPoint | None:
        for p in self.points:
            if p.kind is Kind.EXTRA_PAIR:
                return p
        return None


def damped_newton(t, s, tau_r, r_stop):
    """Damped Newton on the critical residual from the seeds (t, s) on
    reduced tori of modulus tau_r, one for every seed or one per seed.

    The steps are third order where they can be.  Every residual pass
    sums L3 as well (green.residual_and_jacobian), and
    r's second derivative along a step (dt, ds) is L3 dz^2, with
    dz = dt + tau_r ds.  So the Newton step d = -J^-1 r takes the
    correction -J^-1 (L3 dz^2 / 2) (Chebyshev's method) where that
    correction is at most _CUBIC_SHARE of d in the plane.  Elsewhere the
    quadratic model of r does not hold, and the step is the Newton step d
    alone (_newton_step).  A step is halved up to 12 times until it
    lowers |r|; a seed that cannot improve even then is retired, and a
    seed stops once |r| <= r_stop (scalar, or per seed) or after 60
    steps.  Every seed keeps its own step, scale and counts, and one
    residual pass serves the next trial point of every live seed, so a
    seed's path does not depend on the others and the passes are as many
    as the trials of the longest path.  The loop holds the live seeds
    alone, each point (t, s) and step as one complex number t + i s, and
    compacts them as seeds retire.  Returns the final (t, s, |r|) arrays,
    unwrapped; lattice hits show up as non finite |r|.
    """
    t = np.array(t, dtype=float)
    s = np.array(s, dtype=float)
    r, l2, l3, _ = green.residual_and_jacobian(t, s, tau_r)
    rn = np.abs(r)
    # each seed's last accepted point t + i s and |r|
    out = t + 1j * s, rn
    live = [np.arange(t.size), out[0], rn, r, l2, l3]
    # what the steps read of the seeds' tori (_newton_step), and r_stop
    frame = tau_r, 2.0 * np.pi / tau_r.imag + 0j, (1j - tau_r.real) / tau_r.imag, r_stop
    begun = np.isfinite(rn) & (rn > r_stop)
    if np.count_nonzero(begun) < t.size:
        live, frame = _retire(~begun, live, frame, out)
        if not live[0].size:
            return t, s, out[1]
    idx, p, rn, r, l2, l3 = live
    # the live seeds' rows: index, point, |r|, step and steps taken, and
    # once a trial fails, scale and failed trials of the current step
    live = [idx, p, rn, _newton_step(r, l2, l3, frame), np.zeros(idx.size, dtype=int)]
    for trial in itertools.count(1):
        idx, p, rn, q, steps, *damped = live
        p_try = p - damped[0] * q if damped else p - q
        # a step under the float spacing cannot lower |r|: the seed is
        # stuck, and convergence is judged from rn alone
        moved = p_try != p
        if np.count_nonzero(moved) < idx.size:
            live, frame = _retire(~moved, live, frame, out)
            if not live[0].size:
                break
            p_try = p_try[moved]
            idx, p, rn, q, steps, *damped = live
        r, l2, l3, _ = green.residual_and_jacobian(p_try.real, p_try.imag, frame[0])
        rn_try = np.abs(r)
        ok = rn_try <= rn * (1.0 - 1e-4)
        steps = steps + ok
        held = np.count_nonzero(ok) == idx.size
        if held:
            live = [idx, p_try, rn_try, q, steps]
            done = rn_try <= frame[-1]
        else:
            scale, tries = damped or (np.ones(idx.size), np.zeros(idx.size, dtype=int))
            live = [idx, np.where(ok, p_try, p), np.where(ok, rn_try, rn), q, steps,
                    np.where(ok, 1.0, 0.5 * scale), np.where(ok, 0, tries + 1)]
            done = (live[2] <= frame[-1]) | (live[6] == 12)
        if trial >= 60:
            done |= steps == 60
        if np.count_nonzero(done):
            live, frame = _retire(done, live + [ok, r, l2, l3], frame, out)
            if not live[0].size:
                break
            *live, ok, r, l2, l3 = live
        # the next steps of the seeds that go on, where their trial held
        # (a failed trial may sit on a lattice point, where r is not finite)
        if held:
            live[3] = _newton_step(r, l2, l3, frame)
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                live[3] = np.where(ok, _newton_step(r, l2, l3, frame), live[3])
    return out[0].real.copy(), out[0].imag.copy(), out[1]


def _retire(gone, live, frame, out):
    """damped_newton's rows live and frame less the seeds gone, whose
    points and |r| go to out."""
    idx, p, rn = live[:3]
    out[0][idx[gone]] = p[gone]
    out[1][idx[gone]] = rn[gone]
    keep = ~gone
    return [x[keep] for x in live], tuple(x[keep] if getattr(x, "ndim", 0) else x for x in frame)


# the share of a Newton step up to which its third-order correction is taken
_CUBIC_SHARE = 0.5


def _newton_step(r, l2, l3, frame):
    """The step dt + i ds that damped_newton subtracts, from r, L2 and L3
    at points of reduced tori of modulus tau_r; frame holds tau_r,
    2 c = 2 pi / Im tau_r (complex) and k = (i - Re tau_r) / Im tau_r.
    In the plane, r's Jacobian takes u = dt + tau_r ds to
    L2 u + 2 pi i ds = L2 u + c (u - conj(u)), whose inverse is
    w -> (conj(L2) w + 2 c Re w) / det, det = Re(L2 conj(L2 + 2 c)): a
    sum free of the cancellation of |L2 + c|^2 - c^2 where the Hessian of
    G degenerates.  The step solves J u = r, and J u = r + L3 u^2 / 2
    where that correction is at most _CUBIC_SHARE of u, and it is
    dt + i ds = Re u + k Im u.
    """
    _, c2, k, _ = frame
    l2_bar = np.conj(l2)
    det = (l2 * np.conj(l2 + c2)).real
    u = (l2_bar * r + c2 * r.real) / det
    w = (0.5 * l3) * (u * u)
    du = (l2_bar * w + c2 * w.real) / det
    np.add(u, du, out=u, where=np.abs(du) <= _CUBIC_SHARE * np.abs(u))
    return u.real + k * u.imag


def _at(tau_r, index):
    """The moduli of points on the tori index of tau_r, or a lone torus's."""
    return tau_r if np.ndim(tau_r) == 0 else tau_r[index]


def _pitchfork_seeds(rows: green.GreenEval, at: np.ndarray, tau_r):
    """The seeds (t, s) of z0 on reduced tori of modulus tau_r (one per
    entry of at, or one for all) whose three half periods are saddles,
    rows 3 at to 3 at + 2 of rows (green.half_period_rows), the index m of
    the half period each leaves, the one with the largest determinant,
    where the extra pair is born as that determinant crosses zero, and
    G_vvvv there: one set of array expressions for every torus.

    Along the unit eigenvector v of the negative Hessian eigenvalue mu at
    w_m, G is even about w_m, so its slope at w_m + eps v is
    mu eps + G_vvvv eps^3 / 6 + O(eps^5), where
    G_vvvv = Re(wp''(w_m) v^4) / 2 pi because the fourth derivative of
    log theta1 is -wp''.  c_k = pi (G_xx - G_yy - 2i G_xy) at w_k is e_k
    plus a constant of the torus, so wp''(w_m) = 2 (c_m - c_i)(c_m - c_j)
    needs no theta pass; v^2 = -conj(c_m) / |c_m|, and
    mu = det / (trace / 2 + |c_m| / 2 pi) keeps the precision of det.
    The seed is w_m + eps v with eps = sqrt(-6 mu / G_vvvv), wrapped, so
    that Newton works in the ulps of coordinates of size 1/2 at most.
    Below, d_k = c_k / pi.  Where G_vvvv <= 0 there is no seed: its
    (t, s) is NaN, and the caller fails that torus Unconverged.
    """
    h = rows.hessian
    m = h.det.reshape(-1, 3)[at].argmax(1)
    # the Hessian rows (xx, xy, yy, det) at w_m and the two others
    xx, xy, yy, det = np.array([h.xx, h.xy, h.yy, h.det])[:, 3 * at + _TURNS[m].T]
    d = np.empty(xx.shape, dtype=complex)
    d.real = xx - yy
    d.imag = -2.0 * xy
    dm, di, dj = d
    size = np.abs(dm)
    half_mu = det[0] / (xx[0] + yy[0] + size)
    v2 = -np.conj(dm) / size
    g4 = np.pi * ((dm - di) * (dm - dj) * v2 * v2).real
    dz = np.sqrt(v2 * (-12.0 * half_mu / np.where(g4 > 0.0, g4, np.nan)))
    ds = dz.imag / tau_r.imag
    t, s = wrap_unit(np.array([_HP_T[m] + dz.real - ds * tau_r.real, _HP_S[m] + ds]))[0]
    return t, s, m, g4


def _extra_roots(tori: list[Torus], tau_r, k, t0, s0, m, tol: float):
    """z0 of the reduced torus of tori[j], of modulus _at(tau_r, j), for
    each j in k, from the pitchfork seeds (t0, s0) at their half periods
    m: one damped Newton run serves every seed.  Returns the roots (t, s)
    on the reduced tori, folded to the representative of their orbit
    {z, -z}, and per seed None or the error: Unconverged where Newton
    misses |grad G| <= tol / 2, CountViolation where it reaches a half
    period.
    """
    # |grad G| = |r| / (2 pi), kept at half of tol; polish three decades
    # past the target, so that z0 is a root to rounding and not anywhere
    # inside the tolerance: toward the rhombic cusp r is flat along Re z,
    # and a stop at 1e-2 of the target left z0 at 0.5+9.32i 3.5e-3 off
    # its line Re z = 1/2 (1.0e-6 at 1e-3)
    r_target = np.pi * tol
    t, s, rn = damped_newton(t0, s0, _at(tau_r, k), r_target * POLISH)
    t, s = _fold(wrap_unit(t)[0], wrap_unit(s)[0])
    at_hp = np.full(t.size, -1)
    for h, (tc, sc) in enumerate(_HP_COORDS):
        at_hp[(np.abs(wrap_unit(t - tc)[0]) < HP_MERGE_TOL)
              & (np.abs(wrap_unit(s - sc)[0]) < HP_MERGE_TOL)] = h
    errors: list = [None] * t.size
    for j in np.flatnonzero(~(np.isfinite(rn) & (rn <= r_target) & (at_hp < 0))).tolist():
        torus = tori[k[j]]
        name = (f"the pitchfork seed (t, s) = ({t0[j]:.6f}, {s0[j]:.6f}) at half period "
                f"{m[j] + 1} of the reduced torus tau_r = {torus.tau_r}")
        if at_hp[j] < 0:
            errors[j] = Unconverged(f"Newton from {name} ended at |grad G| = "
                                    f"{rn[j] / (2.0 * np.pi):.3e}, above tol {tol} / 2, "
                                    f"at tau = {torus.tau}")
        else:
            errors[j] = CountViolation(
                f"Newton from {name} reached half period {at_hp[j] + 1}, so 3 critical "
                f"points at tau = {torus.tau}, but all three half periods are saddles, "
                "which forces 5")
    return t, s, errors


def _fold(t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The representative of the orbit {z, -z} of each wrapped root: on the
    half cell s > 0, and t >= 0 on the lines s = 0 and s = 1/2 (LINE_TOL),
    which z -> -z maps to themselves (0 - x, so that a 0 stays +0)."""
    on_line = (np.abs(s) <= LINE_TOL) | (np.abs(wrap_unit(s - 0.5)[0]) <= LINE_TOL)
    flip = np.where(on_line, t < -LINE_TOL, s < 0.0)
    return np.where(flip, wrap_unit(0.0 - t)[0], t), np.where(flip, wrap_unit(0.0 - s)[0], s)


def _columns(ev: green.GreenEval) -> np.ndarray:
    """What a critical point keeps of an evaluate over a 1-D array, G - C,
    the Hessian (xx, xy, yy, det) and det_bound: the six rows of one
    array.  Its gradient is 0 to rounding."""
    h = ev.hessian
    return np.array([ev.value_rel, h.xx, h.xy, h.yy, h.det, ev.det_bound])


def _carried(tori: list[Torus], cols: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """cols (_columns), points on reduced tori, at the points of the tori
    themselves: column i lies on tori[cell[i]], and green.carried takes it
    back unless that torus is its own reduced torus, whose columns keep
    their bits."""
    moved = [torus.mat != _IDENTITY for torus in tori]
    if not any(moved):
        return cols
    g, xx, xy, yy, det, bound = cols
    ev = green.GreenEval(g, (0.0, 0.0), Hessian2(xx, xy, yy, det), bound)
    back = _columns(green.carried(ev, tori[0]) if len(tori) == 1 else green.carried(ev, tori, cell))
    return back if all(moved) else np.where(np.array(moved)[cell], back, cols)


def _half_period_index(tori: list[Torus], at) -> np.ndarray:
    """The rows of a half_period_rows pass that hold the half periods 1/2,
    tau/2 and (1+tau)/2 of each torus, tori[i] summed at rows 3 at[i] to
    3 at[i] + 2: each matrix permutes them mod 2 (half_period_perm)."""
    perm = np.array([torus.half_period_perm for torus in tori])
    return (3 * np.asarray(at)[:, None] + perm).ravel()


def _z0_carried(torus: Torus, t: float, s: float) -> tuple[float, float]:
    """The coordinates of the root (t, s) of torus.reduced on torus, by
    the inverse of the matrix, t = d t' + b s' and s = c t' + a s',
    wrapped.  They are mapped in exact arithmetic and rounded once, so
    the inverse map takes them back to the root to a few ulps of the
    matrix entries (rounded in floats, the sums of entries near 1000 left
    it 1e-10 off, where the determinant moves at first order)."""
    (a, b), (c, d) = torus.mat
    # integers over one power-of-two denominator q; int / int rounds once
    (nt, qt), (ns, qs) = t.as_integer_ratio(), s.as_integer_ratio()
    q = max(qt, qs)
    return tuple((i * nt * (q // qt) + j * ns * (q // qs)) % q / q for i, j in ((d, b), (c, a)))


@dataclass(frozen=True)
class _Sets:
    """The critical sets of a batch of tori as arrays (_solve).  The half
    periods 1/2, tau/2 and (1+tau)/2 of set j are columns 3j to 3j + 2 of
    cols and morse, and its extra orbit, where extra[j] = e is not -1, is
    column 3 len(extra) + e, at (t[e], s[e])."""

    extra: list[int]
    t: list[float]
    s: list[float]
    cols: np.ndarray               # _columns in the given frame, a column a point
    morse: np.ndarray              # index into _MORSE of each point
    deviation: np.ndarray          # CriticalSet.route_deviation of each set


def _solve(tori: list[Torus], tol: float) -> tuple[list, _Sets | None]:
    """The critical sets of tori, or the errors they fail with: out[k] is
    the TorusGreenError of tori[k], or the number of its set in the
    _Sets (None where no torus got one).  See find_critical_sets."""
    if not 1e-14 <= tol <= 1e-6:
        raise InvalidInput(f"tol {tol} outside [1e-14, 1e-6]")
    out: list = []
    for torus in tori:
        try:
            theta._check_im(torus.tau_r.imag)
        except InvalidInput as exc:
            out.append(exc)
        else:
            out.append(None)
    # the tori the passes serve: out[live[k]] answers for tori[k]
    live = [k for k, x in enumerate(out) if x is None]
    tori = [tori[k] for k in live]
    if not tori:
        return out, None
    tau_r = tori[0].tau_r if len(tori) == 1 else np.array([torus.tau_r for torus in tori])
    hp, failed = green.half_period_rows(tori)
    det = hp.hessian.det.reshape(-1, 3)
    inside = np.abs(det) <= hp.det_bound.reshape(-1, 3)
    n_inside = inside.sum(axis=1)
    morse = ((det > 0.0) & ~inside).any(axis=1) | (n_inside == 1)
    ok = np.ones(len(tori), dtype=bool)
    for k, exc in failed.items():
        out[live[k]] = exc
        ok[k] = False
    for k in (ok & ~morse & (n_inside > 1)).nonzero()[0].tolist():
        out[live[k]] = Unconverged(f"{n_inside[k]} half-period Hessian determinants lie "
                                   f"within their error bounds at tau = {tori[k].tau}; "
                                   "their signs cannot decide the count")
    # the tori with a set, in order: the morse ones and the seeds ones
    # whose Newton found z0 on the reduced torus, at (zt, zs)
    found = (ok & morse).nonzero()[0]
    k = (ok & ~morse & (n_inside == 0)).nonzero()[0]
    if k.size:
        t0, s0, m, g4 = _pitchfork_seeds(hp, k, _at(tau_r, k))
        seeded = g4 > 0.0
        for j in (~seeded).nonzero()[0].tolist():
            out[live[k[j]]] = Unconverged(
                f"no pitchfork seed at half period {m[j] + 1}: G_vvvv = {g4[j]:.3e} is not "
                f"positive on the reduced torus tau_r = {tori[k[j]].tau_r}")
        k, t0, s0, m = k[seeded], t0[seeded], s0[seeded], m[seeded]
    if k.size:
        zt, zs, errors = _extra_roots(tori, tau_r, k, t0, s0, m, tol)
        for j, exc in zip(k.tolist(), errors):
            if exc is not None:
                out[live[j]] = exc
        fine = np.array([exc is None for exc in errors])
        zt, zs = zt[fine], zs[fine]
        found = np.sort(np.concatenate([found, k[fine]]))
    n = found.size
    if not n:
        return out, None
    at_z0 = (~morse[found]).nonzero()[0]
    m = at_z0.size
    # one pass: the half periods of every set at their exact coordinates,
    # and z0 at t + s tau_r, where evaluate sums it
    cell, kind = np.divmod(np.arange(3 * n), 3)
    t, s = _HP_T[kind], _HP_S[kind]
    if m:
        cell = np.concatenate([cell, at_z0])
        on_z0 = _at(tau_r, found[at_z0])
        tz, sz = green._split(zt + zs * on_z0, on_z0)
        t, s = np.concatenate([t, tz]), np.concatenate([s, sz])
    on = _at(tau_r, found[cell])
    r, l2, _, value = green.residual_and_jacobian(t, s, on)
    # |grad G| = |r| / (2 pi), and the Hessian from dr_dt = L2, evaluate's,
    # which at the half periods is a second route to the determinants: a
    # sign opposite to the null sum's outside both bounds fails the torus
    hessian, bound = green._hessian(-l2, np.imag(on))
    det2 = hessian.det[:3 * n].reshape(-1, 3)
    split = ((np.abs(det2) > bound[:3 * n].reshape(-1, 3)) & ~inside[found]
             & ((det2 > 0.0) != (det[found] > 0.0))).any(axis=1)
    # and to G - C: the differences of the pairs (1, 3), (2, 3) and (1, 2)
    # against the null sum's, past TIE_TOL an InconsistentComparison
    gap = value[:3 * n].reshape(-1, 3) - hp.value_rel.reshape(-1, 3)[found]
    deviation = np.abs(gap[:, [0, 1, 0]] - gap[:, [2, 2, 1]]).max(axis=1)
    # the sets on their own tori: rows, Morse labels and z0's coordinates
    set_tori = [tori[k] for k in found.tolist()]
    cols = _columns(hp)[:, _half_period_index(set_tori, found)]
    extra = [-1] * n
    zt, zs = (zt.tolist(), zs.tolist()) if m else ([], [])
    if m:
        z0 = green.GreenEval(value, (0.0, 0.0), hessian, bound)
        cols = np.concatenate([cols, _columns(z0)[:, 3 * n:]], axis=1)
        for e, j in enumerate(at_z0.tolist()):
            extra[j] = e
        moved = [e for e, j in enumerate(at_z0.tolist()) if set_tori[j].mat != _IDENTITY]
        if moved:
            mt, ms = np.array([_z0_carried(set_tori[at_z0[e]], zt[e], zs[e]) for e in moved]).T
            mt, ms = _fold(wrap_unit(mt)[0], wrap_unit(ms)[0])
            for e, te, se in zip(moved, mt.tolist(), ms.tolist()):
                zt[e], zs[e] = te, se
    cols = _carried(set_tori, cols, cell)
    # Degenerate inside the bound; the trace is 1/b > 0, so a positive
    # determinant always means a minimum
    code = np.where(np.abs(cols[4]) <= cols[5], 2, ~(cols[4] > 0.0))
    # per set: the largest |grad G| on the reduced torus, the Euler
    # balance, where a Degenerate point is a saddle merged with the pair
    # of minima (index +1), and whether z0 is other than a Min
    is_z0 = np.arange(cell.size) >= 3 * n
    rn = np.abs(r) / (2.0 * np.pi)
    worst = rn[:3 * n].reshape(-1, 3).max(axis=1)
    worst[at_z0] = np.maximum(worst[at_z0], rn[3 * n:])
    balance = np.bincount(cell, (1 + is_z0) * (1 - 2 * (code == 1)), n).astype(int)
    not_min = np.bincount(cell, is_z0 & (code != 0), n) > 0
    for j, k in enumerate(found.tolist()):
        out[live[k]] = j
    bad = split | ~(worst <= tol) | ~(deviation <= TIE_TOL) | (balance != -1) | not_min
    for j in bad.nonzero()[0].tolist():
        torus, e = set_tori[j], extra[j]
        route = "morse" if e < 0 else "seeds"
        if split[j]:
            exc = Unconverged("the null sum and the final pass give a half-period Hessian "
                              "determinant opposite signs outside their bounds at "
                              f"tau = {torus.tau}")
        elif not worst[j] <= tol:
            exc = Unconverged(f"reduced-frame |grad G| = {worst[j]:.3e} above tol {tol} on the "
                              f"{route} route at tau = {torus.tau}")
        elif not deviation[j] <= TIE_TOL:
            exc = InconsistentComparison(
                f"the final pass and the null sum give differences of G between half periods "
                f"{deviation[j]:.3e} apart, above TIE_TOL {TIE_TOL}, at tau = {torus.tau}")
        elif balance[j] != -1:
            exc = CountViolation(
                f"#min - #saddle = {balance[j]} among the {3 if e < 0 else 5} critical points "
                f"of the {route} route at tau = {torus.tau}; the Euler count forces -1")
        else:
            # the balance counts a Degenerate pair +1 each, as it would two minima
            exc = CountViolation(
                f"the extra point z0 = {zt[e] + zs[e] * torus.tau} is "
                f"{_MORSE[code[3 * n + e]].value}, not a Min outside its det_bound, at "
                f"tau = {torus.tau}")
        out[live[found[j]]] = exc
    return out, _Sets(extra, zt, zs, cols, code, deviation)


def find_critical_sets(tori, tol: float = DEFAULT_TOL) -> list[CriticalSet | TorusGreenError]:
    """The critical set of every torus in tori, or the error it fails with.

    A torus reduced past theta.MAX_IM_TAU gets the InvalidInput of
    theta._check_im and joins no pass.  The others each take their own
    route (see the module docstring) on their reduced tori, and every
    pass serves all of them.  One null sum decides the routes and gives
    the half period rows of all of them, or a torus its Unconverged off
    the gap identities.  The pitchfork seeds of every seeds torus are
    then one set of array expressions, and one Newton runs for all the
    seeds.  Last, one pass over the half periods and z0 of every set
    gives z0's row and checks |grad G| <= tol at every point, and the
    half-period det signs and differences of G against the null sum's,
    and the sets, carried back to their tori (_carried) as arrays, are
    checked for the Morse balance.  A torus gets the same result, to the
    bit, as alone.  Only a bad tol raises.
    """
    out, sets = _solve(tori, tol)
    if sets is None:
        return out
    n = len(sets.extra)
    g, xx, xy, yy, det = sets.cols[:5].tolist()
    code = sets.morse.tolist()
    deviation = sets.deviation.tolist()

    def point(i, t, s, kind, torus):
        return CriticalPoint(coords=LatticeCoords(t, s), z=t + s * torus.tau, kind=kind,
                             morse=_MORSE[code[i]], hessian=Hessian2(xx[i], xy[i], yy[i], det[i]),
                             g_rel=g[i])

    def critical_set(torus, j):
        e = sets.extra[j]
        points = [point(3 * j + i, t, s, kind, torus)
                  for i, ((t, s), kind) in enumerate(zip(_HP_COORDS, _KINDS))]
        if e >= 0:
            points.append(point(3 * n + e, sets.t[e], sets.s[e], Kind.EXTRA_PAIR, torus))
        return CriticalSet(points=tuple(points), total_count=3 + 2 * (e >= 0),
                           route="morse" if e < 0 else "seeds", route_deviation=deviation[j])

    return [critical_set(torus, x) if isinstance(x, int) else x for torus, x in zip(tori, out)]


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
    """Total order of G over the half periods of a critical set.

    ranking lists half period indices (0, 1, 2) from largest G downward,
    grouped so that tied points share a group, in index order:
    ((0,), (1, 2)) means G(w1/2) > G(w2/2) = G(w3/2).  ties holds the
    consecutive pairs of each group.  max_formula_deviation is the set's
    route_deviation: the two routes to the differences of G were
    compared when the set was found.
    """

    values: tuple[float, float, float]
    ranking: tuple[tuple[int, ...], ...]
    ties: tuple[tuple[int, int], ...]
    max_formula_deviation: float


def compare_half_periods(cs: CriticalSet) -> HalfPeriodComparison:
    """Order G over the three half periods of the critical set cs, by the
    g_rel of its half-period points; values within TIE_TOL are tied.  The
    order needs no check of its own: find_critical_sets held the null
    sum's differences of G against the final pass's to TIE_TOL."""
    g = tuple(p.g_rel for p in cs.points[:3])
    order = sorted(range(3), key=g.__getitem__, reverse=True)
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
        max_formula_deviation=cs.route_deviation,
    )
