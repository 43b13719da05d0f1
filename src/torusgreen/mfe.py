"""Explicit mean field equation solutions on the torus.

Delta u + rho e^u = rho delta_0 admits closed form solutions through a
developing map f: u = c1 + log(|f'|^2 / (1 + |f|^2)^2) with rho e^{c1} = 8.
At rho = 8 pi the map is built from an extra (non half period) critical
point z0 of the Green function and carries the one parameter scaling
family f -> e^lambda f.  At rho = 4 pi the map lives on the doubled torus
C/(Z + 2 tau Z) and the solution is unique, with no free parameter.

All u evaluators work in log magnitudes end to end so the zeros and poles
of f never overflow.  Evaluators do not wrap their argument: the formulas
are evaluated as written, which makes the double periodicity of u a
measurable property instead of an artifact of reduction.  u(z) is -inf on
the source lattice and finite elsewhere.

The 8 pi map takes z0 from the critical set and makes one Weierstrass
pass more, at z0 and 2 z0.  The 4 pi map makes two: the doubled torus's
invariants (its eta1, eta2), and one over the nodes of the period
integral of g and the probes of the multipliers.  A u call makes one
Weierstrass pass (weier.evaluate) over the concatenation of the point
sets it needs: sigma(z - (1/2 + tau)), sigma(z + 1/2) and the two zetas
on the doubled torus at 4 pi, and sigma(z0 - z), sigma(z0 + z) and p(z)
at 8 pi.  verify_solution hands u a block of _BLOCK_ROWS grid rows,
their stencil offsets and their period shifts as one array, so a block
costs two theta passes, one for u and one for the Green function, and a
64^2 grid 32 of them.  Its report is one reduction over the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import critical, green, weier
from .errors import ConstructionInconsistent, InvalidInput, NoExtraCriticalPoint
from .lattice import Torus, lattice_gap, make_torus, near_lattice

RHO_8PI = 8.0 * math.pi
RHO_4PI = 4.0 * math.pi
_LATTICE_HIT_TOL = 1e-11
# grid rows per u call of verify_solution: a row adds about 0.3 MB to the
# peak memory of an 8 pi check on 64^2, and past 4 rows the fixed cost of
# a call is already small against its points
_BLOCK_ROWS = 4


def _log_abs(values) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


def _polar(log_mag: float, arg: float) -> complex:
    return math.exp(log_mag) * complex(math.cos(arg), math.sin(arg))


@dataclass(frozen=True)
class DevelopingMap8pi:
    """The map f(z) = e^{2 zeta(z0) z} sigma(z0 - z) / sigma(z0 + z).

    f(0) = 1, f has zeros on z0 + lattice and poles on -z0 + lattice, and
    picks up the multipliers multiplier_1 and multiplier_tau across the
    two periods.  At a critical z0 both multipliers are unit modulus,
    which is exactly what makes |f| (and hence u) doubly periodic.
    """

    torus: Torus
    z0: complex
    zeta_z0: complex
    wp_z0: complex
    wp_prime_z0: complex
    log_abs_sigma_2z0: float
    multiplier_1: complex
    multiplier_tau: complex

    def log_abs_f_and_wp(self, z):
        """log|f(z)| and p(z) for a flat array z from one Weierstrass pass
        over sigma(z0 - z), sigma(z0 + z) and p(z)."""
        n = z.size
        ev = weier.evaluate(np.concatenate([self.z0 - z, self.z0 + z, z]), self.torus)
        lm = ev.sigma.log_mag
        return 2.0 * (self.zeta_z0 * z).real + lm[:n] - lm[n:2 * n], ev.p[2 * n:]


def developing_map_8pi(torus: Torus) -> DevelopingMap8pi:
    """Developing map at the extra critical point z0 of the Green function.

    z0 is the representative of the pair +-z0 in the torus's critical set,
    or NoExtraCriticalPoint where the torus has only the three half
    periods.  The other sign gives the same family with lambda -> -lambda.
    zeta, p and p' at z0 and sigma at 2 z0 come from one Weierstrass pass.
    """
    extra = critical.find_critical_points(torus).extra
    if extra is None:
        raise NoExtraCriticalPoint(
            f"tau = {torus.tau} has only the three half period critical points"
        )
    z0 = extra.z
    ev = weier.evaluate(np.array([z0, 2.0 * z0]), torus)
    zeta_z0 = complex(ev.zeta[0])
    inv = weier.invariants(torus)
    # quasi period combinations 2(zeta(z0) - eta_j z0); purely imaginary
    # exactly when z0 is critical, so the multipliers land on the circle
    f1 = 2.0 * (zeta_z0 - inv.eta1 * z0)
    f2 = 2.0 * (torus.tau * zeta_z0 - inv.eta2 * z0)
    return DevelopingMap8pi(
        torus=torus,
        z0=z0,
        zeta_z0=zeta_z0,
        wp_z0=complex(ev.p[0]),
        wp_prime_z0=complex(ev.p_prime[0]),
        log_abs_sigma_2z0=float(ev.sigma.log_mag[1]),
        multiplier_1=complex(np.exp(f1)),
        multiplier_tau=complex(np.exp(f2)),
    )


@dataclass(frozen=True)
class MfeSolution:
    """A constructed solution u of Delta u + rho e^u = rho delta_0.

    lam is the scaling parameter (serialized under the key "lambda");
    branch holds z0 for the 8 pi family and None at 4 pi.  evaluator maps
    z (scalar or array) to u(z) and returns -inf on the source lattice.
    """

    rho: float
    torus: Torus
    branch: complex | None
    lam: float
    c1: float
    evaluator: Callable


def _u_from_logs(c1: float, lam: float, log_abs_fp, log_abs_f) -> np.ndarray:
    return (c1 + 2.0 * lam + 2.0 * np.asarray(log_abs_fp)
            - 2.0 * np.logaddexp(0.0, 2.0 * lam + 2.0 * np.asarray(log_abs_f)))


def _evaluator(core, special):
    """u(z), z scalar or array, from one core call (u by the formulas at a
    flat array).  special(flat) gives the mask where the formulas are not
    used as written, the points core evaluates for it, and the rule that
    turns core's values there into u on the mask."""
    def evaluator(z):
        z = np.asarray(z, dtype=complex)
        flat = np.atleast_1d(z).ravel()
        hit, extra, rule = special(flat)
        pts = np.concatenate([flat[~hit], extra])
        vals = core(pts) if pts.size else pts.real
        u = np.empty(flat.shape, dtype=float)
        u[~hit] = vals[:pts.size - extra.size]
        u[hit] = rule(vals[pts.size - extra.size:])
        u = u.reshape(np.atleast_1d(z).shape)
        return float(u[0]) if z.ndim == 0 else u

    return evaluator


def solution_8pi(torus: Torus, lam: float = 0.0) -> MfeSolution:
    """The scaling family member u_lambda for rho = 8 pi.

    c1 = log(8 / rho) = -log(pi).  u blows up like 4 log|z| at the source
    and, as lam grows, concentrates its mass near z0 while staying exactly
    doubly periodic for every lam.  A non-finite lam is InvalidInput.
    """
    if not math.isfinite(lam):
        raise InvalidInput(f"lambda {lam} is not finite")
    dm = developing_map_8pi(torus)
    c1 = math.log(8.0 / RHO_8PI)
    z0 = dm.z0
    tau = torus.tau
    log_wp_prime = math.log(abs(dm.wp_prime_z0))
    # u on the branch lattice (z = +-z0, where f has its zero or pole):
    # log|f| and log|gamma| diverge oppositely but f' stays finite at the
    # zero, f'(z0) = -e^{2 zeta(z0) z0} / sigma(2 z0), and evenness of u
    # transfers the value to -z0
    u_branch = (c1 + 2.0 * lam
                + 2.0 * (2.0 * (dm.zeta_z0 * z0).real - dm.log_abs_sigma_2z0))

    def core(flat):
        la_f, p = dm.log_abs_f_and_wp(flat)
        la_gamma = log_wp_prime - _log_abs(p - dm.wp_z0)
        return _u_from_logs(c1, lam, la_gamma + la_f, la_f)

    def special(flat):
        on_branch = near_lattice(flat - z0, tau, 1e-9) | near_lattice(flat + z0, tau, 1e-9)
        hit = near_lattice(flat, tau, _LATTICE_HIT_TOL) | on_branch
        return hit, flat[:0], lambda _: np.where(on_branch[hit], u_branch, -np.inf)

    return MfeSolution(rho=RHO_8PI, torus=torus, branch=z0, lam=float(lam),
                       c1=c1, evaluator=_evaluator(core, special))


def _period_path(radius: float):
    """Gauss nodes of the integral of g from 0 to 1, which detours over the
    pole at 1/2 along a semicircle of the given radius through the upper
    half plane, and the sum of g at them that gives the integral."""
    x, w = np.polynomial.legendre.leggauss(48)
    ends = ((0.0, 0.5 - radius), (0.5 + radius, 1.0))
    mid = [0.5 * (a + b) for a, b in ends]
    half = [0.5 * (b - a) for a, b in ends]
    xa, wa = np.polynomial.legendre.leggauss(64)
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

    On C/(Z + 2 tau Z) the logarithmic derivative g of the map is a
    difference of two zeta functions with residues -1 at a = -1/2 and +1
    at b = 1/2 + tau, shifted by the constant kappa that makes f change
    sign across the period 1.  Three internal cross checks guard the
    construction: the period integral of g must be +-pi i, the period-1
    multiplier computed independently from sigma shifts must be exactly
    -1, and the tau multiplier must be constant in z (its modulus is then
    normalized to 1, which is what makes u doubly periodic).
    """
    tau = torus.tau
    doubled = make_torus(2.0 * tau)
    a = -0.5
    bp = 0.5 + tau
    inv_d = weier.invariants(doubled)
    kappa = inv_d.eta1 + 0.5 * inv_d.eta2

    def parts(z):
        """(log|f|, arg f) before the f0 normalization, and g, at a flat
        array z from one Weierstrass pass over z - bp and z - a."""
        n = z.size
        ev = weier.evaluate(np.concatenate([z - bp, z - a]), doubled)
        lm, ar = ev.sigma.log_mag, ev.sigma.arg
        log_mag = (kappa * z).real + lm[:n] - lm[n:]
        arg = (kappa * z).imag + ar[:n] - ar[n:]
        return log_mag, arg, -ev.zeta[n:] + ev.zeta[:n] + kappa

    # a radius of at most Im tau / 3 keeps the semicircle at least
    # 2 Im tau / 3 from the pole at 1/2 + tau
    nodes, integral = _period_path(min(0.25, tau.imag / 3.0))
    probe = 0.231 + 0.413 * tau
    probe2 = -0.127 + 0.291 * tau
    lm, ar, g = parts(np.concatenate(
        [[probe, probe + tau, probe2, probe2 + tau, probe + 1.0], nodes]))
    period_integral = integral(g[5:])
    dev = min(abs(period_integral - 1j * math.pi), abs(period_integral + 1j * math.pi))
    if dev > 1e-8:
        raise ConstructionInconsistent(
            f"integral of g over one period is {period_integral}, not +-pi i "
            f"(off by {dev:.3e}) at tau = {tau}"
        )

    # normalize the tau multiplier c = f(z + tau) f(z) to the unit circle at
    # one probe, check that c is z independent at a second, and take the
    # period-1 multiplier (independent of f0) from sigma shifts
    log_f0 = -0.5 * float(lm[0] + lm[1])
    c_mult = _polar(float(lm[0] + lm[1]) + 2.0 * log_f0, float(ar[0] + ar[1]))
    c_check = _polar(float(lm[2] + lm[3]) + 2.0 * log_f0, float(ar[2] + ar[3]))
    if abs(c_mult - c_check) > 1e-9:
        raise ConstructionInconsistent(
            f"tau multiplier is not constant in z: {c_mult} vs {c_check} at tau = {tau}"
        )
    c_prime = _polar(float(lm[4] - lm[0]), float(ar[4] - ar[0]))
    if abs(c_prime + 1.0) > 1e-10:
        raise ConstructionInconsistent(
            f"period-1 multiplier is {c_prime}, not -1, at tau = {tau}"
        )

    c1 = math.log(8.0 / RHO_4PI)
    pole_classes = (a, bp)

    def core(flat):
        la_f, _, gv = parts(flat)
        la_f = la_f + log_f0
        la_fp = _log_abs(gv) + la_f
        return _u_from_logs(c1, 0.0, la_fp, la_f)

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
                      c1=c1, evaluator=_evaluator(core, special))
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
    """Five point stencil check of Delta u + rho e^u = 0 away from 0.

    The PDE residual is evaluated in compensated form: the stencil is
    applied to w = u + rho G_rel, whose Laplacian away from the lattice
    is exactly rho/area - rho e^u, so the truncation error involves the
    fourth derivatives of the smooth field w instead of those of the
    singular u.  The literal stencil on u is reported alongside; inside
    a few h of the exclusion disks it is dominated by the log singularity.

    Periodicity deviations are honest measurements: the evaluators never
    wrap, so u(z + 1) - u(z) and u(z + tau) - u(z) probe the multiplier
    structure of the developing map rather than any reduction code.
    Total mass integrates rho e^u over the full cell by the midpoint rule
    (the integrand vanishes polynomially at the source, so no exclusion
    is needed) and should come out near rho.
    """
    if grid_n < 32:
        raise InvalidInput(f"grid_n {grid_n} below 32")
    if not (math.isfinite(excl_radius) and excl_radius >= 0.02):
        raise InvalidInput(f"excl_radius {excl_radius} is not a finite radius of at least 0.02")
    torus = sol.torus
    tau = torus.tau
    area = torus.area
    rho = sol.rho
    u = sol.evaluator
    h = 1.0 / (64.0 * grid_n)
    gg = (np.arange(grid_n) + 0.5) / grid_n - 0.5

    res, lit, per, mass = [], [], [], []
    for r0 in range(0, grid_n, _BLOCK_ROWS):
        grid = gg + gg[r0:r0 + _BLOCK_ROWS, None] * tau
        keep = lattice_gap(grid, tau) > excl_radius
        z = grid[keep]
        offsets = np.concatenate([z + h, z - h, z + 1j * h, z - 1j * h])
        u_all = u(np.concatenate([grid.ravel(), offsets, z + 1.0, z + tau]))
        n, m = grid.size, z.size
        mass.append(np.exp(u_all[:n]))
        if m:
            uc = u_all[:n][keep.ravel()]
            u_off = u_all[n:n + 4 * m].reshape(4, m)
            g = green.green_rel(np.concatenate([offsets, z]), torus).reshape(5, m)
            w_off = u_off + rho * g[:4]
            w_c = uc + rho * g[4]
            lap_w = (np.sum(w_off, axis=0) - 4.0 * w_c) / (h * h)
            res.append(np.abs(lap_w - rho / area + rho * np.exp(uc)))
            lap_u = (np.sum(u_off, axis=0) - 4.0 * uc) / (h * h)
            lit.append(np.abs(lap_u + rho * np.exp(uc)))
            per.append(np.abs(u_all[n + 4 * m:].reshape(2, m) - uc))
    if not res:
        raise InvalidInput(f"excl_radius {excl_radius} leaves no grid point to check")
    res = np.concatenate(res)
    per = np.concatenate(per, axis=1)
    cell = area / (grid_n * grid_n)
    return ResidualReport(
        max_residual=float(np.max(res)),
        mean_residual=float(np.sum(res)) / res.size,
        literal_max_residual=float(np.max(np.concatenate(lit))),
        periodicity_1=float(np.max(per[0])),
        periodicity_tau=float(np.max(per[1])),
        total_mass=rho * cell * float(np.sum(np.concatenate(mass))),
        grid_n=grid_n,
        h=h,
        excl_radius=excl_radius,
        n_points=res.size,
    )
