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
the cusp).  Where its two terms cancel instead (a degenerate critical
point), det carries an absolute error of a few ulps of their sum;
evaluate returns that bound, C_DET eps ((2 pi/b_r)|L2| + |L2|^2) /
(4 pi^2 |lam|^4), next to det, so a caller trusts the sign of det only
outside it.  By the Legendre relation the critical residual
zeta(z) - t eta1 - s eta2 is A1 / lam, so the solver needs no quasi
periods.  C(tau) is summed at tau_r and carried back by the weight 1/2
law of eta, so everything holds on all of the upper half plane.

evaluate carries its pass back to a Torus, with scalars read from it;
given moduli tau_r instead, one per point, it works on reduced tori
(lam = 1), where residual_and_jacobian works, and a batch on several
tori shares one pass; carried takes a Hessian and value back.
evaluate_pass also hands back the theta values of its pass, from which
the Weierstrass layer reads its constants at the half periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theta
from .errors import PoleAtLattice
from .lattice import Torus, wrap_unit

# The error of det Hess G in units of eps ((2 pi/b_r)|L2| + |L2|^2) /
# (4 pi^2 |lam|^4), the rounding scale of its two terms.  Measured against
# mpmath (test_determinant_error_stays_within_its_bound, the same errors at
# 120 and 200 digits) over Re tau = 0 and 1/2 at b in [0.02, 0.1] and
# [2.5, 6], the Farey moduli 1/3+0.003i, 1/4+0.004i and 2/5+0.002i, and
# the cells next to the flip edges of the 40x40 criterion 7 scan: the
# worst ratio is 5858, at 2/5+0.002i, where lam = 5 tau - 2 is small;
# 1/3+0.003i reads 1587.  At 0.5+0.02i the tau/2 determinant reads
# -2.6e-25 against -4.7e-27, an error of 336 units with the sign right
# only by luck, and its 342 units of |det| must fall inside the bound.
# C_DET = 2^13 covers the sweep.
C_DET = 8192.0
_EPS = float(np.finfo(float).eps)


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
    det_bound: float       # |hessian.det - det Hess G| stays below this


def _reduced_pass(t, s, tau_r):
    """s' and (log|theta1|, arg theta1, L1, L2) at (t, s) on Z + tau_r Z, wrapped."""
    tr, _ = wrap_unit(t)
    sr, _ = wrap_unit(s)
    lm, ar, L1, L2, _ = theta._eval(tr + sr * tau_r, tau_r)
    return sr, lm, ar, L1, L2


def _frame(torus):
    """tau, tau_r, mat and lam of a Torus, or of reduced tori of moduli torus."""
    if isinstance(torus, Torus):
        return torus.tau, torus.tau_r, torus.mat, torus.lam
    tau = np.asarray(torus) if np.ndim(torus) else torus
    return tau, tau, ((1, 0), (0, 1)), 1.0 + 0.0j


def _value_pass(z, torus):
    """G - C(tau) shaped like z, and flat (s', log|theta1|, arg, L1, L2)
    at z / lam on tau_r."""
    tau, tau_r, ((a, b), (c, d)), lam = _frame(torus)
    z = np.asarray(z, dtype=complex)
    s = z.imag.reshape(-1) / tau.imag
    t = z.real.reshape(-1) - s * tau.real
    sr, lm, ar, L1, L2 = _reduced_pass(a * t - b * s, d * s - c * t, tau_r)
    if np.isneginf(lm).any():
        raise PoleAtLattice("Green function diverges at lattice points")
    value = -lm / (2.0 * np.pi) + sr ** 2 * (tau_r.imag / 2.0) + math.log(abs(lam)) / (4.0 * np.pi)
    return value.reshape(z.shape), (sr, lm, ar, L1, L2)


def evaluate(z, torus) -> GreenEval:
    """G - C(tau), its gradient and its Hessian at z from one theta pass.

    torus is a Torus, or the modulus tau_r of points on reduced tori
    (lam = 1), one for all of z or one per point (_frame).  Everything is
    taken at the canonical cell representative of the reduced frame and
    computed on a flat array, so a point gives the same bits alone as
    inside a batch.  The gradient and Hessian are those of log|theta1|
    (L1 / lam, L2 / lam^2) plus those of y_r^2 / (2 b_r), y_r = Im(z /
    lam), so where lam = 1 they are the identity frame formulas bit for
    bit.  det_bound is the error bound of the determinant (C_DET).
    Raises PoleAtLattice at lattice points.
    """
    return evaluate_pass(z, torus)[0]


def evaluate_pass(z, torus):
    """evaluate, and the flat arrays log|theta1|, arg theta1 and L2 at the
    points z / lam on tau_r where its theta pass summed."""
    value, (sr, lm, ar, L1, L2) = _value_pass(z, torus)
    tau, tau_r, _, lam = _frame(torus)
    b_r = tau_r.imag
    k1 = 1.0 / lam
    rot1 = L1 * k1
    rot = L2 * (k1 * k1)
    # y_r^2 / (2 b_r) has gradient s' grad y_r, grad y_r = (Im k1, Re k1),
    # and Hessian grad y_r grad y_r^T / b_r
    scale = 1.0 / (tau.imag * abs(lam) ** 2)
    q_xx, q_xy, q_yy = lam.imag ** 2 * scale, -lam.real * lam.imag * scale, lam.real ** 2 * scale
    det_scale = 4.0 * np.pi ** 2 * abs(lam) ** 4
    det_r = -L2.real * (2.0 * np.pi / b_r) - (L2.real ** 2 + L2.imag ** 2)
    abs_l2 = np.abs(L2)
    det_err = (C_DET * _EPS) * ((2.0 * np.pi / b_r) * abs_l2 + abs_l2 ** 2)

    def out(x):
        return theta._scalarize(x.reshape(value.shape))

    return GreenEval(
        value_rel=out(value),
        grad=(out(-rot1.real / (2.0 * np.pi) + sr * k1.imag),
              out(rot1.imag / (2.0 * np.pi) + sr * k1.real)),
        hessian=Hessian2(
            xx=out(q_xx - rot.real / (2.0 * np.pi)),
            xy=out(rot.imag / (2.0 * np.pi) + q_xy),
            yy=out(q_yy + rot.real / (2.0 * np.pi)),
            det=out(det_r / det_scale),
        ),
        det_bound=out(det_err / det_scale),
    ), (lm, ar, L2)


def green_rel(z, torus: Torus):
    """G(z) - C(tau), doubly periodic by construction: evaluate's value alone."""
    return theta._scalarize(_value_pass(z, torus)[0])


def carried(row, torus: Torus) -> tuple[float, ...]:
    """A point's (G_xx, G_xy, G_yy, det, G - C, det_bound) on the reduced
    torus, at the same point of torus: G_xx - G_yy - 2i G_xy turns with
    1/lam^2, the trace scales by 1/|lam|^2, det and det_bound by
    1/|lam|^4, and G - C shifts by log|lam| / (4 pi)."""
    xx, xy, yy, det, value, bound = row
    lam = torus.lam
    c = complex(xx - yy, -2.0 * xy) / (lam * lam)
    trace = (xx + yy) / abs(lam) ** 2
    scale = abs(lam) ** 4
    return ((trace + c.real) / 2.0, -c.imag / 2.0, (trace - c.real) / 2.0, det / scale,
            value + math.log(abs(lam)) / (4.0 * np.pi), bound / scale)


def residual_and_jacobian(t, s, tau_r):
    """Vectorized critical residual plus its (t, s) Jacobian on a reduced
    torus.

    (t, s) are coordinates on Z + tau_r Z, with tau_r one modulus or one
    per point.  The residual is invariant under integer shifts of (t, s),
    so the coordinates are wrapped first; it is A1 = L1 + 2 pi i s.
    Returns (r, dr_dt, dr_ds) with dr_dt = L2 and dr_ds = tau_r L2 +
    2 pi i.  Lattice hits yield non finite entries rather than an
    exception; the Newton loop treats those as rejected steps.
    """
    sr, _, _, L1, L2 = _reduced_pass(t, s, tau_r)
    return L1 + (2j * np.pi) * sr, L2, L2 * tau_r + 2j * np.pi


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
