"""Green function of the flat torus.

The mean zero Green function of -Laplace on C/(Z + Z tau) splits as

    G(z) = -(1/2 pi) log|theta1(z)| + y^2/(2 b) + C(tau),

with y the height of the canonical cell representative and b = Im tau.
evaluate gives G - C(tau), its gradient and its Hessian from one theta
series pass (green_rel is its value); the module also holds the critical
point residual of the solver and the constant C(tau) = (1/2 pi)
log|eta(tau)| (Kronecker limit formula).

G depends on the lattice only: with the reduced frame of lattice.Torus,
G_tau(z) = G_tau_r(z / lam), and z = t + s tau sits at z / lam =
t' + s' tau_r.  So every pass runs at tau_r.  With L1, L2 the log
derivatives of theta1 there and A1 = L1 + 2 pi i s',

    G - C(tau) = (G_r - C(tau_r)) + log|lam| / (4 pi),
    2 pi (G_x - i G_y) = -A1 / lam,   G_xx + G_yy = 1/b,
    2 pi (G_xx - G_yy - 2 i G_xy) = -2 (L2 + pi/b_r) / lam^2,
    det = det_r / |lam|^4,   4 pi^2 det_r = 2 (pi/b_r) Re(-L2) - |L2|^2,

the last form free of cancellation where L2 is small (half periods near
the cusp).  By the Legendre relation the critical residual
zeta(z) - t eta1 - s eta2 is A1 / lam, so the solver needs no quasi
periods.  C(tau) is summed at tau_r and carried back by the weight 1/2
law of eta, so everything holds on all of the upper half plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theta
from .errors import PoleAtLattice
from .lattice import Torus, wrap_unit


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
    """Value, gradient and Hessian of G - C(tau); floats for one point,
    arrays shaped like z for a batch."""

    value_rel: float
    grad: tuple[float, float]
    hessian: Hessian2


def _reduced_pass(t, s, torus: Torus):
    """s' and (log|theta1|, L1, L2) at z / lam on tau_r, z = t + s tau."""
    (a, b), (c, d) = torus.mat
    tr, _ = wrap_unit(a * t - b * s)
    sr, _ = wrap_unit(d * s - c * t)
    lm, _, L1, L2, _ = theta._eval(tr + sr * torus.tau_r, torus.tau_r)
    return sr, lm, L1, L2


def evaluate(z, torus: Torus) -> GreenEval:
    """G - C(tau), its gradient and its Hessian at z from one theta pass.

    Everything is taken at the canonical cell representative of the
    reduced frame and computed on a flat array, so a point gives the same
    bits alone as inside a batch.  The gradient and Hessian are those of
    log|theta1| (L1 / lam, L2 / lam^2) plus those of y_r^2 / (2 b_r),
    y_r = Im(z / lam), so where lam = 1 they are the identity frame
    formulas bit for bit.  Raises PoleAtLattice at lattice points.
    """
    z = np.asarray(z, dtype=complex)
    s = z.imag.reshape(-1) / torus.b
    sr, lm, L1, L2 = _reduced_pass(z.real.reshape(-1) - s * torus.tau.real, s, torus)
    if np.isneginf(lm).any():
        raise PoleAtLattice("Green function diverges at lattice points")
    lam, b, b_r = torus.lam, torus.b, torus.tau_r.imag
    k1 = 1.0 / lam
    rot1 = L1 * k1
    rot = L2 * (k1 * k1)
    # y_r^2 / (2 b_r) has gradient s' grad y_r, grad y_r = (Im k1, Re k1),
    # and Hessian grad y_r grad y_r^T / b_r
    scale = 1.0 / (b * abs(lam) ** 2)
    q_xx, q_xy, q_yy = lam.imag ** 2 * scale, -lam.real * lam.imag * scale, lam.real ** 2 * scale
    det_r = -L2.real * (2.0 * np.pi / b_r) - (L2.real ** 2 + L2.imag ** 2)

    def out(x):
        return theta._scalarize(x.reshape(z.shape))

    return GreenEval(
        value_rel=out(-lm / (2.0 * np.pi) + sr ** 2 * (b_r / 2.0)
                      + math.log(abs(lam)) / (4.0 * np.pi)),
        grad=(out(-rot1.real / (2.0 * np.pi) + sr * k1.imag),
              out(rot1.imag / (2.0 * np.pi) + sr * k1.real)),
        hessian=Hessian2(
            xx=out(q_xx - rot.real / (2.0 * np.pi)),
            xy=out(rot.imag / (2.0 * np.pi) + q_xy),
            yy=out(q_yy + rot.real / (2.0 * np.pi)),
            det=out(det_r / (4.0 * np.pi ** 2 * abs(lam) ** 4)),
        ),
    )


def green_rel(z, torus: Torus):
    """G(z) - C(tau), doubly periodic by construction; the value of evaluate."""
    return evaluate(z, torus).value_rel


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

    The residual is invariant under integer shifts of (t, s), so the
    reduced coordinates are wrapped first; it equals A1 / lam with
    A1 = L1 + 2 pi i s' in the reduced frame.  Returns (r, dr_dt, dr_ds)
    with dr_dt = L2 / lam^2 - 2 pi i c / lam and
    dr_ds = tau L2 / lam^2 + 2 pi i d / lam.  Lattice hits yield non
    finite entries rather than an exception; the Newton loop treats
    those as rejected steps.
    """
    sr, _, L1, L2 = _reduced_pass(t, s, torus)
    (_, _), (c, d) = torus.mat
    k1 = 1.0 / torus.lam
    rot = L2 * (k1 * k1)
    return ((L1 + (2j * np.pi) * sr) * k1, rot - (2j * np.pi * c) * k1,
            rot * torus.tau + (2j * np.pi * d) * k1)


# ---------------------------------------------------------------------------
# the additive constant C(tau)


def green_constant(torus: Torus) -> float:
    """C(tau) = (1/2 pi) log|eta(tau)|, which makes the cell average of G vanish.

    In the product form of theta1 every factor that depends on z averages
    to zero over the cell except prod(1 - q^2n), which is the Kronecker
    limit formula.  The eta product is summed at the reduced modulus
    tau_r = (a tau + b) / (c tau + d), where |q_r^2| <= e^(-pi sqrt 3), and
    carried back by the weight 1/2 law |eta(tau_r)| = |lam|^(1/2) |eta(tau)|.
    """
    tau_r = torus.tau_r
    q2n = np.exp(2j * np.pi * tau_r * np.arange(1, 9))    # |q2n[-1]| < 1e-18
    # log|1 - w| = (1/2) log1p(|w|^2 - 2 Re w), exact to rounding for tiny w
    tail = 0.5 * np.sum(np.log1p(np.abs(q2n) ** 2 - 2.0 * q2n.real))
    log_eta = -np.pi * tau_r.imag / 12.0 + tail - 0.5 * math.log(abs(torus.lam))
    return float(log_eta) / (2.0 * np.pi)
