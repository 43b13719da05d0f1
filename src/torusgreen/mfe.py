"""Explicit mean field equation solutions on the torus.

Delta u + rho e^u = rho delta_0 admits closed form solutions through a
developing map f: u = c1 + log(|f'|^2 / (1 + |f|^2)^2) with rho e^{c1} = 8.
At rho = 8 pi the map is built from an extra (non half period) critical
point z0 of the Green function and carries the one parameter scaling
family f -> e^lambda f.  At rho = 4 pi the map lives on the doubled torus
C/(Z + 2 tau Z) and the solution is unique, with no free parameter.

The equation depends on the lattice only: u_r on the reduced torus
(lattice.Torus) gives u(z) = u_r(z / lam) - 2 log|lam| on the given one
(MfeSolution.evaluator), so the constructions and verify_solution work
on the reduced torus alone.

All u evaluators work in log magnitudes end to end so the zeros and poles
of f never overflow.  Evaluators do not wrap their argument: the formulas
are evaluated as written, which makes the double periodicity of u a
measurable property instead of an artifact of reduction.  u(z) is -inf on
the source lattice and finite elsewhere.

The 8 pi map takes z0 from the critical set and makes one Weierstrass
pass more, at z0 and 2 z0; the 4 pi map makes one, over the nodes of the
period integral of g and the probes of the multipliers, after the null
sum of the doubled torus's invariants.  A u call makes one Weierstrass
pass over the point sets it needs: sigma(z - (1/2 + tau)), sigma(z + 1/2)
and the two zetas on the doubled torus at 4 pi, sigma(z0 -+ z) and
sigma(z) at 8 pi, where f'/f = wp'(z0) / (wp(z) - wp(z0)) is read as
sigma(2 z0) sigma(z)^2 / (sigma(z0)^2 sigma(z0 + z) sigma(z - z0)): the
difference of wp values cancels toward the rhombic cusp.  u at z + 1
and z + tau comes off the same pass: sigma(w + lam) = +-e^(eta_lam
(w + lam/2)) sigma(w) and zeta(w + lam) = zeta(w) + eta_lam (Legendre's
law, weier.translate) move each sigma set by its lattice translate, and
on the doubled torus z + tau swaps the two sets (z + tau - bp = (z - a)
- 1, z + tau - a = (z - bp) + 1 + 2 tau).
verify_solution makes one pass a block of _BLOCK_ROWS grid rows, 4 on
64^2: u at every grid point, with the stencil neighbours of each
(theta._eval's offsets) and its period shifts as rows, and the
compensated field v from the log|theta1| rows of the same pass, which
sums only what u reads.  Its report is one reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import critical, theta, weier
from .errors import ConstructionInconsistent, InvalidInput, NoExtraCriticalPoint
from .lattice import Torus, lattice_gap, make_torus, near_lattice, wrap_unit

RHO_8PI = 8.0 * math.pi
RHO_4PI = 4.0 * math.pi
_LATTICE_HIT_TOL = 1e-11
# grid rows per block of verify_solution: a row adds about 0.07 MB to
# the peak memory of an 8 pi check on 64^2 (tracemalloc, 8 to 32 rows),
# and at 16 rows the fixed cost of a call is small; the peak at 16 rows
# is 1.34 MB at 8 pi and 1.45 MB at 4 pi on -0.368 + 0.916i
_BLOCK_ROWS = 16
MAX_GRID_N = 1024      # largest grid_n: a block then takes about 18 MB, 0.07 MB per 64 points
# |total_mass / rho - 1| allowed: 4 x K_1(x) at x = 2 pi, 0.0248, is the midpoint
# rule's miss (k = 2 pi / H aliased onto 0 four times) on a bubble 8 d^2 / (d^2 +
# |z|^2)^2, of mass transform k d K_1(k d), as wide as the grid step (d = H).
# lambda = 0 reads at most 1.7e-3 (0.5 + 10i at 64^2); a missed bubble reads 1
_MASS_TOL = 0.025
# the lattice coordinates (m, n) of the periods 1 and tau, a row each
_PERIOD_M, _PERIOD_N = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])


def _polar(log_mag: float, arg: float) -> complex:
    return math.exp(log_mag) * complex(math.cos(arg), math.sin(arg))


@dataclass(frozen=True)
class DevelopingMap8pi:
    """The map f(z) = e^{2 zeta(z0) z} sigma(z0 - z) / sigma(z0 + z).

    f(0) = 1, f has zeros on z0 + lattice and poles on -z0 + lattice, and
    picks up the multipliers multiplier_1 and multiplier_tau across the
    two periods; at a critical z0 both are unit modulus, which makes |f|
    (and u) doubly periodic.  torus is reduced; z0 is branch / lam up to a period.
    """

    torus: Torus
    z0: complex
    branch: complex
    zeta_z0: complex
    log_abs_sigma_z0: float
    log_abs_sigma_2z0: float
    multiplier_1: complex
    multiplier_tau: complex


def developing_map_8pi(torus: Torus) -> DevelopingMap8pi:
    """Developing map at the extra critical point z0 of the Green function.

    z0 (branch) is the representative of the pair +-z0 in the torus's
    critical set, or NoExtraCriticalPoint where it has only the three half
    periods; the map sits on torus.reduced at z0 / lam, wrapped into the
    cell.  The other sign gives the same family with lambda -> -lambda.
    zeta and sigma there and sigma at twice it come from one pass.
    """
    extra = critical.find_critical_points(torus).extra
    if extra is None:
        raise NoExtraCriticalPoint(
            f"tau = {torus.tau} has only the three half period critical points"
        )
    reduced = torus.reduced
    (a, b), (c, d) = torus.mat
    t, s = extra.coords.t, extra.coords.s
    t, s = wrap_unit([a * t - b * s, d * s - c * t])[0].tolist()
    z0 = t + s * reduced.tau
    ev = weier.evaluate(np.array([z0, 2.0 * z0]), reduced)
    zeta_z0 = complex(ev.zeta[0])
    inv = weier.invariants(reduced)
    # quasi period combinations 2(zeta(z0) - eta_j z0); purely imaginary
    # exactly when z0 is critical, so the multipliers land on the circle
    f1 = 2.0 * (zeta_z0 - inv.eta1 * z0)
    f2 = 2.0 * (reduced.tau * zeta_z0 - inv.eta2 * z0)
    return DevelopingMap8pi(
        torus=reduced,
        z0=z0,
        branch=extra.z,
        zeta_z0=zeta_z0,
        log_abs_sigma_z0=float(ev.sigma.log_mag[0]),
        log_abs_sigma_2z0=float(ev.sigma.log_mag[1]),
        multiplier_1=complex(np.exp(f1)),
        multiplier_tau=complex(np.exp(f2)),
    )


@dataclass(frozen=True)
class MfeSolution:
    """A constructed solution u of Delta u + rho e^u = rho delta_0.

    lam is the scaling parameter (serialized under the key "lambda");
    branch holds z0 for the 8 pi family and None at 4 pi.
    reduced_evaluator maps z (scalar or array) to u_r(z), the solution on
    torus.reduced, and returns -inf on the source lattice.
    """

    rho: float
    torus: Torus
    branch: complex | None
    lam: float
    c1: float
    reduced_evaluator: Callable

    def evaluator(self, z):
        """u(z) = u_r(z / torus.lam) - 2 log|torus.lam| (Torus.reduced_point)."""
        if self.torus.mat == ((1, 0), (0, 1)):
            return self.reduced_evaluator(z)
        w = self.torus.reduced_point(np.asarray(z, dtype=complex))
        return self.reduced_evaluator(w) - 2.0 * math.log(abs(self.torus.lam))


def _u_from_logs(c1: float, lam: float, log_abs_fp, log_abs_f) -> np.ndarray:
    return (c1 + 2.0 * lam + 2.0 * np.asarray(log_abs_fp)
            - 2.0 * np.logaddexp(0.0, 2.0 * lam + 2.0 * np.asarray(log_abs_f)))


def _rows(flat, stencil):
    """flat, and with a stencil flat + stencil[j - 1] as rows (theta._eval's offsets)."""
    return flat if stencil is None else np.concatenate([flat[None], flat + stencil[:, None]])


def _evaluator(core, special, tau):
    """u(z), z scalar or array, from one core call (u by the formulas at a
    flat array).  special(flat) gives the mask where the formulas are not
    used as written, the points core evaluates for it, and the rule that
    turns core's values there into u on the mask.  With a stencil array
    (theta._eval's offsets) it returns rows on a leading axis: u at z,
    z + stencil[j - 1], z + 1 and z + tau (by Legendre's law), row 0 with
    the bits of a plain call, and v (verify_solution) at z and
    z + stencil[j - 1].  A point with a special point among its rows of u
    takes every row of u as a plain value: those points join the same
    core call as centres, whose row 0 is read; v needs no rule."""
    def evaluator(z, stencil=None):
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        pts = flat[None] if stencil is None else np.concatenate(
            [_rows(flat, stencil), [flat + 1.0, flat + tau]])
        alone = special(pts.ravel())[0].reshape(pts.shape).any(axis=0)
        lone = pts[:, alone].ravel()
        hit, extra, rule = special(lone)
        centres = np.concatenate([flat, lone, extra])
        with np.errstate(divide="ignore", invalid="ignore"):
            vals, v = core(centres, stencil)
        n, m = flat.size, centres.size - extra.size
        u, plain = vals[:, :n], vals[0, n:m]
        plain[hit] = rule(vals[0, m:])
        u[:, alone] = plain.reshape(pts.shape[0], -1)
        if stencil is None:
            return float(u[0, 0]) if z.ndim == 0 else u[0].reshape(z.shape)
        return u.reshape(pts.shape[:1] + z.shape), v[:, :n].reshape(v.shape[:1] + z.shape)

    return evaluator


def solution_8pi(torus: Torus, lam: float = 0.0) -> MfeSolution:
    """The scaling family member u_lambda for rho = 8 pi.

    c1 = log(8 / rho) = -log(pi).  u blows up like 4 log|z| at the source
    and, as lam grows, concentrates its mass near z0 while staying exactly
    doubly periodic for every lam.  InvalidInput unless 2 lam is finite.
    """
    if not math.isfinite(2.0 * lam):
        raise InvalidInput(f"lambda {lam} does not have a finite 2 lambda")
    dm = developing_map_8pi(torus)
    c1 = math.log(8.0 / RHO_8PI)
    z0 = dm.z0
    tau = dm.torus.tau
    # log|f'/f| as a sigma product (see the module docstring), less its z part
    la_gamma0 = dm.log_abs_sigma_2z0 - 2.0 * dm.log_abs_sigma_z0
    # u on the branch lattice (z = +-z0, where f has its zero or pole):
    # log|f| and log|gamma| diverge oppositely but f' stays finite at the
    # zero, f'(z0) = -e^{2 zeta(z0) z0} / sigma(2 z0), and f(-z) = 1 / f(z)
    # makes u_lam(-z) = u_-lam(z), so u(-z0) = u(z0) - 4 lam
    u_branch = (c1 + 2.0 * lam
                + 2.0 * (2.0 * (dm.zeta_z0 * z0).real - dm.log_abs_sigma_2z0))
    # v's linear term (verify_solution): 2 Re(zeta(z0) z) less the eta1 terms
    c_v = 2.0 * (dm.zeta_z0 - weier.invariants(dm.torus).eta1 * z0)

    def u_at(zs, minus, plus, at_z):
        # u from log|sigma| at z0 - z, z0 + z and z
        la_f = 2.0 * (dm.zeta_z0 * zs).real + minus - plus
        la_gamma = la_gamma0 + 2.0 * at_z - minus - plus
        return _u_from_logs(c1, lam, la_gamma + la_f, la_f)

    def core(flat, stencil=None):
        # one Weierstrass pass over sigma(z0 - z), sigma(z0 + z) and sigma(z);
        # on rows (d, -d, ...), sigma(z0 - z) at z + d is the row of -d
        n = flat.size
        w = np.concatenate([z0 - flat, z0 + flat, flat])
        ev = weier.evaluate(w, dm.torus, theta.LOG_MAG, stencil)
        lm, lt, zs = ev.sigma.log_mag, ev.log_abs_theta1, _rows(flat, stencil)
        if stencil is None:
            return u_at(zs, lm[:n], lm[n:2 * n], lm[2 * n:])[None], None
        swap, d = np.r_[0, 1 + (np.arange(stencil.size) ^ 1)], (c_v * zs).real
        u = u_at(zs, lm[swap, :n], lm[:, n:2 * n], lm[:, 2 * n:])
        # at z + lam, sigma(z0 - z) moves by -lam and the other two by lam
        moved = (weier.translate(lm[0, k], None, w[k], sign * _PERIOD_M, sign * _PERIOD_N,
                                 dm.torus)[0]
                 for k, sign in ((np.s_[:n], -1.0), (np.s_[n:2 * n], 1.0), (np.s_[2 * n:], 1.0)))
        return (np.concatenate([u, u_at(np.array([flat + 1.0, flat + tau]), *moved)]),
                -2.0 * np.logaddexp(2.0 * lt[:, n:2 * n] - d, 2.0 * (lam + lt[swap, :n]) + d))

    def special(flat):
        at_zero, at_pole = (near_lattice(flat - w, tau, 1e-9) for w in (z0, -z0))
        hit = near_lattice(flat, tau, _LATTICE_HIT_TOL) | at_zero | at_pole
        return hit, flat[:0], lambda _: np.select(
            [at_zero[hit], at_pole[hit]], [u_branch, u_branch - 4.0 * lam], -np.inf)

    return MfeSolution(rho=RHO_8PI, torus=torus, branch=dm.branch, lam=float(lam),
                       c1=c1, reduced_evaluator=_evaluator(core, special, tau))


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)    # imports numpy.polynomial on first use


def _period_path(radius: float):
    """Gauss nodes of the integral of g from 0 to 1, which detours over the
    pole at 1/2 along a semicircle of the given radius through the upper
    half plane, and the sum of g at them that gives the integral."""
    x, w = _leggauss(48)
    ends = ((0.0, 0.5 - radius), (0.5 + radius, 1.0))
    mid = [0.5 * (a + b) for a, b in ends]
    half = [0.5 * (b - a) for a, b in ends]
    xa, wa = _leggauss(64)
    ang = 0.5 * math.pi * (1.0 - xa)    # [-1, 1] -> [pi, 0]
    dz = -0.5 * math.pi * radius * 1j * np.exp(1j * ang)
    nodes = np.concatenate([mid[0] + half[0] * x, 0.5 + radius * np.exp(1j * ang),
                            mid[1] + half[1] * x])

    def integral(g) -> complex:
        # each segment's own sum, the three added in path order
        return (complex(half[0] * np.sum(w * g[:48])) + complex(np.sum(wa * g[48:112] * dz))
                + complex(half[1] * np.sum(w * g[112:])))

    return nodes, integral


@dataclass(frozen=True)
class FourPiDiagnostics:
    """Cross check values from the rho = 4 pi construction.

    period_integral is the contour integral of g over one horizontal
    period (must be +-pi i); c_prime is the period-1 multiplier of f
    computed independently from sigma shifts (must be -1); c_tau is the
    tau multiplier after normalization (unit modulus).
    """

    period_integral: complex
    c_prime: complex
    c_tau: complex


def solution_4pi(torus: Torus) -> tuple[MfeSolution, FourPiDiagnostics]:
    """The unique solution at rho = 4 pi, via the doubled torus, with the
    cross check values of its construction.

    With tau = tau_r, on C/(Z + 2 tau Z) the logarithmic derivative g of
    the map is a difference of two zeta functions with residues -1 at
    a = -1/2 and +1 at b = 1/2 + tau, shifted by the constant kappa that
    makes f change sign across the period 1.  Three internal cross checks
    guard the construction: the period integral of g must be +-pi i, the
    period-1 multiplier computed independently from sigma shifts must be
    exactly -1, and the tau multiplier must be constant in z (its modulus
    is then normalized to 1, which is what makes u doubly periodic).
    """
    tau = torus.tau_r
    doubled = make_torus(2.0 * tau)
    a = -0.5
    bp = 0.5 + tau
    inv_d = weier.invariants(doubled)
    kappa = inv_d.eta1 + 0.5 * inv_d.eta2

    def parts(z, reads=theta.ALL, stencil=None):
        """(log|f|, arg f) before the f0 normalization, g, and log|theta1| of
        the two sets, at a flat array z (with a stencil, on its rows, and
        log|f| and g at z + 1 and z + tau too) from one Weierstrass pass
        over z - bp and z - a; arg f is None unless the pass reads ALL."""
        n = z.size
        w = np.concatenate([z - bp, z - a])
        ev = weier.evaluate(w, doubled, reads, stencil)
        lm, ar, zt = ev.sigma.log_mag, ev.sigma.arg, ev.zeta
        log_mag = (kappa * _rows(z, stencil)).real + lm[..., :n] - lm[..., n:]
        arg = None if ar is None else (kappa * z).imag + ar[:n] - ar[n:]
        g = -zt[..., n:] + zt[..., :n] + kappa
        if stencil is not None:
            # z + 1 moves both sets by 1 on the doubled lattice; z + tau takes
            # z - bp to (z - a) - 1 and z - a to (z - bp) + 1 + 2 tau
            sets = [x[0].reshape(2, n) for x in (lm, zt)] + [w.reshape(2, n)]
            (lm_b, zt_b), (lm_a, zt_a) = (
                weier.translate(*sets, _PERIOD_M - _PERIOD_N, 0.0, doubled),
                weier.translate(*(x[::-1] for x in sets), 1.0, _PERIOD_N, doubled))
            log_mag = np.concatenate([log_mag, (
                kappa * np.array([z + 1.0, z + tau])).real + lm_b - lm_a])
            g = np.concatenate([g, -zt_a + zt_b + kappa])
        return log_mag, arg, g, ev.log_abs_theta1

    # Im tau >= sqrt(3) / 2 keeps the semicircle 0.6 from the pole at 1/2 + tau
    nodes, integral = _period_path(0.25)
    probe = 0.231 + 0.413 * tau
    probe2 = -0.127 + 0.291 * tau
    lm, ar, g, _ = parts(np.concatenate(
        [[probe, probe + tau, probe2, probe2 + tau, probe + 1.0], nodes]))
    period_integral = integral(g[5:])
    dev = min(abs(period_integral - 1j * math.pi), abs(period_integral + 1j * math.pi))
    if dev > 1e-8:
        raise ConstructionInconsistent(
            f"integral of g over one period is {period_integral}, not +-pi i "
            f"(off by {dev:.3e}) at tau_r = {tau}"
        )

    # normalize the tau multiplier c = f(z + tau) f(z) to the unit circle at
    # one probe, check that c is z independent at a second, and take the
    # period-1 multiplier (independent of f0) from sigma shifts
    log_f0 = -0.5 * float(lm[0] + lm[1])
    c_mult = _polar(float(lm[0] + lm[1]) + 2.0 * log_f0, float(ar[0] + ar[1]))
    c_check = _polar(float(lm[2] + lm[3]) + 2.0 * log_f0, float(ar[2] + ar[3]))
    if abs(c_mult - c_check) > 1e-9:
        raise ConstructionInconsistent(
            f"tau multiplier is not constant in z: {c_mult} vs {c_check} at tau_r = {tau}"
        )
    c_prime = _polar(float(lm[4] - lm[0]), float(ar[4] - ar[0]))
    if abs(c_prime + 1.0) > 1e-10:
        raise ConstructionInconsistent(
            f"period-1 multiplier is {c_prime}, not -1, at tau_r = {tau}"
        )

    c1 = math.log(8.0 / RHO_4PI)
    pole_classes = (a, bp)

    # v's linear term (verify_solution): Re(kappa z) + log f0 and the eta1 terms
    c_v = inv_d.eta1 * (a - bp) + kappa
    d_v = log_f0 - 0.5 * (inv_d.eta1 * (a - bp) * (a + bp)).real

    def core(flat, stencil=None):
        la_f, _, gv, lt = parts(flat, theta.LOG_MAG_L1, stencil)
        la_f = la_f + log_f0
        u = _u_from_logs(c1, 0.0, np.log(np.abs(gv)) + la_f, la_f)
        if stencil is None:
            return u[None], None
        d, n = (c_v * _rows(flat, stencil)).real + d_v, flat.size
        return u, -2.0 * np.logaddexp(2.0 * lt[:, n:] - d, 2.0 * lt[:, :n] + d)

    def special(flat):
        # exact hits on the pole and zero classes of f (both lie over the
        # half period omega_1/2 of the base torus, where u is smooth) are
        # displaced symmetrically; the average cancels the linear term
        hit = np.zeros(flat.shape, dtype=bool)
        for cls in pole_classes:
            hit |= near_lattice(flat - cls, 2.0 * tau, _LATTICE_HIT_TOL)
        delta = 1e-7
        k = int(np.count_nonzero(hit))
        return (hit, np.concatenate([flat[hit] + delta, flat[hit] - delta]),
                lambda v: 0.5 * (v[:k] + v[k:]))

    sol = MfeSolution(rho=RHO_4PI, torus=torus, branch=None, lam=0.0,
                      c1=c1, reduced_evaluator=_evaluator(core, special, tau))
    diag = FourPiDiagnostics(period_integral=period_integral, c_prime=c_prime,
                             c_tau=c_mult)
    return sol, diag


@dataclass(frozen=True)
class ResidualReport:
    """Numerical verification of one solution on a grid.

    max_residual and mean_residual use the compensated stencil described
    in verify_solution; literal_max_residual is the raw five point
    stencil on u itself, reported as a diagnostic of how much the log
    singularity pollutes a naive check.
    """

    max_residual: float
    mean_residual: float
    literal_max_residual: float
    periodicity_1: float
    periodicity_tau: float
    total_mass: float
    grid_n: int
    h: float
    excl_radius: float
    n_points: int


def verify_solution(sol: MfeSolution, grid_n: int = 64,
                    excl_radius: float = 0.05) -> ResidualReport:
    """Five point stencil check of Delta u_r + rho e^u_r = 0 away from 0 on
    the reduced torus, so that no field of the report depends on the frame.

    The PDE residual is evaluated in compensated form: the stencil is
    applied to v = -2 log(|D|^2 + e^(2 lam) |N|^2), f = N / D: u + rho G_rel
    less rho y^2 / 2b and a harmonic quadratic, as the log|theta1(z)| in
    u's log|f'/f| cancels that of rho G.  So v is smooth, with Laplacian
    -rho e^u, and the truncation error involves its fourth derivatives
    instead of those of the singular u.  log|N| and log|D| are the u
    pass's log|theta1| rows at the zero and pole sets of f, plus and minus
    half a real linear term; log|sigma| rows would add Re(eta1 w^2 / 2),
    about 240 at 0.5 + 8i, and round v past the residual there.  The
    literal stencil on u is reported alongside; inside a few h of the
    exclusion disks it is dominated by the log singularity.

    Periodicity deviations are honest measurements: the evaluators never
    wrap, so u(z + 1) - u(z) and u(z + tau) - u(z) probe the multiplier
    structure of the developing map rather than any reduction code.  u at
    z + lam takes the centre's sigma values moved by Legendre's law
    together with the formula's own terms at z + lam (2 Re(zeta(z0) z) at
    8 pi, kappa z at 4 pi), so a multiplier off the unit circle shows as
    it would from a pass at z + lam, and the two agree to rounding.
    Total mass integrates rho e^u over the full cell by the midpoint rule
    (the integrand vanishes polynomially at the source, so no exclusion
    is needed); off rho by more than _MASS_TOL of rho, the grid misses u's
    bubble (a large lambda) and InvalidInput names lambda and the grid.
    """
    if not 32 <= grid_n <= MAX_GRID_N:
        raise InvalidInput(f"grid_n {grid_n} outside [32, {MAX_GRID_N}]")
    if not (math.isfinite(excl_radius) and excl_radius >= 0.02):
        raise InvalidInput(f"excl_radius {excl_radius} is not a finite radius of at least 0.02")
    tau = sol.torus.tau_r
    rho = sol.rho
    u = sol.reduced_evaluator
    h = 1.0 / (64.0 * grid_n)
    gg = (np.arange(grid_n) + 0.5) / grid_n - 0.5

    stencil = np.array([h, -h, 1j * h, -1j * h])
    res, lit, per, mass = [], [], [], []
    for r0 in range(0, grid_n, _BLOCK_ROWS):
        grid = (gg + gg[r0:r0 + _BLOCK_ROWS, None] * tau).ravel()
        keep = lattice_gap(grid, tau) > excl_radius
        rows, v = u(grid, stencil)
        mass.append(np.exp(rows[0]))
        if np.any(keep):
            us = rows[:5, keep]
            for out, x in ((res, v[:, keep]), (lit, us)):
                out.append(np.abs((np.sum(x[1:], axis=0) - 4.0 * x[0]) / (h * h)
                                  + rho * np.exp(us[0])))
            per.append(np.abs(rows[5:, keep] - us[0]))
    if not res:
        raise InvalidInput(f"excl_radius {excl_radius} leaves no grid point to check")
    res = np.concatenate(res)
    per = np.concatenate(per, axis=1)
    cell = tau.imag / (grid_n * grid_n)
    total_mass = rho * cell * float(np.sum(np.concatenate(mass)))
    if not abs(total_mass / rho - 1.0) <= _MASS_TOL:
        raise InvalidInput(f"total mass {total_mass:.6e} is off rho = {rho:.6e} by over {_MASS_TOL}"
                           f" of it: the {grid_n}x{grid_n} grid misses u at lambda = {sol.lam!r}")
    return ResidualReport(
        max_residual=float(np.max(res)),
        mean_residual=float(np.sum(res)) / res.size,
        literal_max_residual=float(np.max(np.concatenate(lit))),
        periodicity_1=float(np.max(per[0])),
        periodicity_tau=float(np.max(per[1])),
        total_mass=total_mass,
        grid_n=grid_n,
        h=h,
        excl_radius=excl_radius,
        n_points=res.size,
    )
