"""Green function of the flat torus.

The mean zero Green function of -Laplace on C/(Z + Z tau) splits as

    G(z) = -(1/2 pi) log|theta1(z)| + y^2/(2 b) + C(tau),

with y the height of the canonical cell representative and b = Im tau.
This module evaluates the z dependent part (green_rel), its gradient and
Hessian, the critical point residual used by the solver, the period
integrals attached to a point, and the constant C(tau).

C(tau) has the closed form (1/2 pi) log|eta(tau)| (Kronecker limit
formula), with eta the Dedekind eta function.  It is summed at the
SL(2, Z) reduced modulus, so it holds on all of the upper half plane,
the cusp included.

Everything is expressed through logarithmic derivatives of theta1: with
L1 = (log theta1)_z and L2 = (log theta1)_zz at the canonical
representative z = t + s*tau,

    2 pi G_x = -Re L1            2 pi G_y = Im L1 + 2 pi s
    2 pi G_xx = -Re L2           2 pi G_xy = Im L2
    2 pi G_yy = Re L2 + 2 pi/b

and the critical point residual zeta(z) - t eta1 - s eta2 collapses to
L1 + 2 pi i s by the Legendre relation, so no quasi period values are
needed in the solver loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theta, weier
from .errors import PoleAtLattice
from .lattice import Torus, reduce_modulus, split_coords, wrap_unit


@dataclass(frozen=True)
class Hessian2:
    """Symmetric Hessian of G in Cartesian (x, y) coordinates."""

    xx: float
    xy: float
    yy: float
    det: float

    @property
    def trace(self) -> float:
        return self.xx + self.yy


@dataclass(frozen=True)
class GreenEval:
    """Value, gradient and Hessian of G - C(tau) at one point."""

    value_rel: float
    grad: tuple[float, float]
    hessian: Hessian2

    @property
    def det_hessian(self) -> float:
        return self.hessian.det


def _canonical(z, tau: complex):
    t, s, _, _ = split_coords(z, tau)
    return t + s * tau, t, s


def green_rel(z, torus: Torus):
    """G(z) - C(tau), doubly periodic by construction.

    Both log|theta1| and the y^2/(2b) term are taken at the canonical cell
    representative, so translates of z give bitwise identical values.
    """
    zc, _, s = _canonical(z, torus.tau)
    lc = theta.theta1(zc, torus)
    if np.any(lc.is_zero):
        raise PoleAtLattice("Green function diverges at lattice points")
    b = torus.b
    out = -np.asarray(lc.log_mag) / (2.0 * np.pi) + np.asarray(s) ** 2 * (b / 2.0)
    return theta._scalarize(out)


def green_grad(z, torus: Torus):
    """(G_x, G_y) at z; zero exactly at critical points."""
    zc, _, s = _canonical(z, torus.tau)
    L1 = theta.theta1_logderiv_z(zc, torus, 1)
    L1 = np.asarray(L1)
    gx = -L1.real / (2.0 * np.pi)
    gy = L1.imag / (2.0 * np.pi) + s
    return theta._scalarize(gx), theta._scalarize(gy)


def green_hessian(z, torus: Torus) -> Hessian2:
    """Hessian entries and determinant from (log theta1)_zz.

    The determinant uses the closed form
        4 pi^2 det = -(|L2 + pi/b|^2 - (pi/b)^2),
    algebraically identical to xx*yy - xy^2 but cheaper and stabler.
    """
    zc, _, _ = _canonical(z, torus.tau)
    L2 = np.asarray(theta.theta1_logderiv_z(zc, torus, 2))
    b = torus.b
    gxx = -L2.real / (2.0 * np.pi)
    gxy = L2.imag / (2.0 * np.pi)
    gyy = L2.real / (2.0 * np.pi) + 1.0 / b
    pb = np.pi / b
    det = -(np.abs(L2 + pb) ** 2 - pb * pb) / (4.0 * np.pi**2)
    s = theta._scalarize
    return Hessian2(s(gxx), s(gxy), s(gyy), s(det))


def critical_residual(t, s, torus: Torus):
    """zeta(t + s tau) - t eta1 - s eta2; zero iff (t, s) is critical.

    The residual of residual_and_jacobian, with PoleAtLattice where it is
    not finite (at a lattice point).
    """
    r, _, _ = residual_and_jacobian(t, s, torus)
    if not np.all(np.isfinite(r)):
        raise PoleAtLattice("critical residual requested at a lattice point")
    return theta._scalarize(r)


def residual_and_jacobian(t, s, torus: Torus):
    """Vectorized critical residual plus its (t, s) Jacobian.

    The residual is invariant under integer shifts of (t, s), so both
    arguments are wrapped first; it equals (log theta1)_z + 2 pi i s on
    the canonical cell.  Returns (r, dr_dt, dr_ds) with dr_dt = L2 and
    dr_ds = L2*tau + 2 pi i.  Lattice hits yield non finite entries rather than an exception; the
    Newton driver treats those as rejected steps.
    """
    tw, _ = wrap_unit(t)
    sw, _ = wrap_unit(s)
    z = tw + sw * torus.tau
    L1, L2 = theta.theta1_logderivs(z, torus)
    L1 = np.asarray(L1)
    L2 = np.asarray(L2)
    r = L1 + (2j * np.pi) * sw
    return r, L2, L2 * torus.tau + 2j * np.pi


def period_integrals(z, torus: Torus):
    """The pair F1 = 2(zeta(z) - eta1 z), F2 = 2(tau zeta(z) - eta2 z).

    Evaluated at the canonical representative; at a critical point t + s*tau
    they collapse to F1 = -4 pi i s and F2 = 4 pi i t, both purely imaginary.
    """
    zc, _, _ = _canonical(z, torus.tau)
    inv = weier.invariants(torus)
    zv = weier.zeta(zc, torus)
    f1 = 2.0 * (zv - inv.eta1 * zc)
    f2 = 2.0 * (torus.tau * zv - inv.eta2 * zc)
    return f1, f2


def evaluate(z, torus: Torus) -> GreenEval:
    """Bundle of value, gradient and Hessian at one point."""
    return GreenEval(
        value_rel=float(green_rel(z, torus)),
        grad=green_grad(z, torus),
        hessian=green_hessian(z, torus),
    )


# ---------------------------------------------------------------------------
# the additive constant C(tau)


def green_constant(torus: Torus) -> float:
    """C(tau) = (1/2 pi) log|eta(tau)|, which makes the cell average of G vanish.

    In the product form of theta1 every factor that depends on z averages
    to zero over the cell except prod(1 - q^2n), which is the Kronecker
    limit formula.  The eta product is summed at the reduced modulus
    tau_r = (a tau + b) / (c tau + d), where |q_r^2| <= e^(-pi sqrt 3), and
    carried back by the weight 1/2 law |eta(tau_r)| = |c tau + d|^(1/2) |eta(tau)|.
    """
    tau_r, (_, (c, d)) = reduce_modulus(torus.tau)
    q2n = np.exp(2j * np.pi * tau_r * np.arange(1, 9))    # |q2n[-1]| < 1e-18
    # log|1 - w| = (1/2) log1p(|w|^2 - 2 Re w), exact to rounding for tiny w
    tail = 0.5 * np.sum(np.log1p(np.abs(q2n) ** 2 - 2.0 * q2n.real))
    log_eta = -np.pi * tau_r.imag / 12.0 + tail - 0.5 * math.log(abs(c * torus.tau + d))
    return float(log_eta) / (2.0 * np.pi)
