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

evaluate and residual_and_jacobian take a Torus, or a Frame: the
constants of these laws for one torus, or gathered per point for a batch
on several tori, which then shares one theta pass.  evaluate_pass also
hands back the theta values of its pass, from which the Weierstrass
layer reads its constants at the half periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


class Frame(NamedTuple):
    """The reduced frame of evaluate and residual_and_jacobian.

    frame(torus) holds one torus's constants as Python scalars; gather
    stacks those of several tori into arrays, and take puts them next to
    the points of a batch, one entry per point.  Python's complex products
    round differently from numpy's, so the constants are formed per torus
    first and only then gathered: a point gets the same bits in a batch
    of tori as with its own torus alone.
    """

    tau: complex
    tau_r: complex
    a: int                 # mat = ((a, b), (c, d)), lam = c tau + d
    b: int
    c: int
    d: int
    k1: complex            # 1 / lam
    k2: complex            # (1 / lam)^2
    c_term: complex        # 2 pi i c / lam
    d_term: complex        # 2 pi i d / lam
    q_xx: float            # grad y_r grad y_r^T / b_r
    q_xy: float
    q_yy: float
    det_scale: float       # 4 pi^2 |lam|^4
    shift: float           # log|lam| / (4 pi)


@lru_cache(maxsize=256)
def frame(torus: Torus) -> Frame:
    """The reduced frame constants of one torus, formed once per torus:
    every pass on a Torus reads them."""
    (a, b), (c, d) = torus.mat
    lam = torus.lam
    k1 = 1.0 / lam
    scale = 1.0 / (torus.b * abs(lam) ** 2)
    return Frame(torus.tau, torus.tau_r, a, b, c, d, k1, k1 * k1,
                 (2j * np.pi * c) * k1, (2j * np.pi * d) * k1,
                 lam.imag ** 2 * scale, -lam.real * lam.imag * scale, lam.real ** 2 * scale,
                 4.0 * np.pi ** 2 * abs(lam) ** 4, math.log(abs(lam)) / (4.0 * np.pi))


def gather(tori: list[Torus]) -> Torus | Frame:
    """The frames of tori as one Frame of arrays, entry k for tori[k];
    a single torus stands for itself."""
    if len(tori) == 1:
        return tori[0]
    return Frame._make(np.array(col) for col in zip(*map(frame, tori)))


def take(batch: Torus | Frame, index) -> Torus | Frame:
    """The frame of points that lie on the tori index[j] of batch (gather);
    a torus, or the frame of one, serves every point as it is."""
    return batch if np.ndim(batch.tau) == 0 else Frame._make(x[index] for x in batch)


def _as_frame(torus: Torus | Frame) -> Frame:
    return torus if isinstance(torus, Frame) else frame(torus)


def _reduced_pass(t, s, fr: Frame):
    """s' and (log|theta1|, arg theta1, L1, L2) at z / lam on tau_r,
    z = t + s tau."""
    tr, _ = wrap_unit(fr.a * t - fr.b * s)
    sr, _ = wrap_unit(fr.d * s - fr.c * t)
    lm, ar, L1, L2, _ = theta._eval(tr + sr * fr.tau_r, fr.tau_r)
    return sr, lm, ar, L1, L2


def evaluate(z, torus: Torus | Frame) -> GreenEval:
    """G - C(tau), its gradient and its Hessian at z from one theta pass.

    torus is a Torus or a Frame, with one entry per point of z for a
    batch on several tori (take).  Everything is taken at the canonical cell representative
    of the reduced frame and computed on a flat array, so a point gives
    the same bits alone as inside a batch.  The gradient and Hessian are
    those of log|theta1| (L1 / lam, L2 / lam^2) plus those of
    y_r^2 / (2 b_r), y_r = Im(z / lam), so where lam = 1 they are the
    identity frame formulas bit for bit.  det_bound is the error bound
    of the determinant (C_DET).  Raises PoleAtLattice at lattice points.
    """
    return evaluate_pass(z, torus)[0]


def _value_pass(z, torus: Torus | Frame):
    """Frame, G - C(tau) shaped like z, and flat (s', log|theta1|, arg, L1, L2)."""
    fr = _as_frame(torus)
    z = np.asarray(z, dtype=complex)
    s = z.imag.reshape(-1) / fr.tau.imag
    sr, lm, ar, L1, L2 = _reduced_pass(z.real.reshape(-1) - s * fr.tau.real, s, fr)
    if np.isneginf(lm).any():
        raise PoleAtLattice("Green function diverges at lattice points")
    value = -lm / (2.0 * np.pi) + sr ** 2 * (fr.tau_r.imag / 2.0) + fr.shift
    return fr, value.reshape(z.shape), (sr, lm, ar, L1, L2)


def evaluate_pass(z, torus: Torus | Frame):
    """evaluate, and the flat arrays log|theta1|, arg theta1 and L2 at the
    points z / lam on tau_r where its theta pass summed."""
    fr, value, (sr, lm, ar, L1, L2) = _value_pass(z, torus)
    b_r = fr.tau_r.imag
    rot1 = L1 * fr.k1
    rot = L2 * fr.k2
    # y_r^2 / (2 b_r) has gradient s' grad y_r, grad y_r = (Im k1, Re k1),
    # and Hessian grad y_r grad y_r^T / b_r
    det_r = -L2.real * (2.0 * np.pi / b_r) - (L2.real ** 2 + L2.imag ** 2)
    abs_l2 = np.abs(L2)
    det_err = (C_DET * _EPS) * ((2.0 * np.pi / b_r) * abs_l2 + abs_l2 ** 2)

    def out(x):
        return theta._scalarize(x.reshape(value.shape))

    return GreenEval(
        value_rel=out(value),
        grad=(out(-rot1.real / (2.0 * np.pi) + sr * fr.k1.imag),
              out(rot1.imag / (2.0 * np.pi) + sr * fr.k1.real)),
        hessian=Hessian2(
            xx=out(fr.q_xx - rot.real / (2.0 * np.pi)),
            xy=out(rot.imag / (2.0 * np.pi) + fr.q_xy),
            yy=out(fr.q_yy + rot.real / (2.0 * np.pi)),
            det=out(det_r / fr.det_scale),
        ),
        det_bound=out(det_err / fr.det_scale),
    ), (lm, ar, L2)


def green_rel(z, torus: Torus):
    """G(z) - C(tau), doubly periodic by construction: evaluate's value alone."""
    return theta._scalarize(_value_pass(z, torus)[1])


def residual_and_jacobian(t, s, torus: Torus | Frame):
    """Vectorized critical residual plus its (t, s) Jacobian.

    torus is a Torus or the Frame of a batch, as in evaluate.  The
    residual is invariant under integer shifts of (t, s), so the reduced
    coordinates are wrapped first; it equals A1 / lam with
    A1 = L1 + 2 pi i s' in the reduced frame.  Returns (r, dr_dt, dr_ds)
    with dr_dt = L2 / lam^2 - 2 pi i c / lam and
    dr_ds = tau L2 / lam^2 + 2 pi i d / lam.  Lattice hits yield non
    finite entries rather than an exception; the Newton loop treats
    those as rejected steps.
    """
    fr = _as_frame(torus)
    sr, _, _, L1, L2 = _reduced_pass(t, s, fr)
    rot = L2 * fr.k2
    return ((L1 + (2j * np.pi) * sr) * fr.k1, rot - fr.c_term, rot * fr.tau + fr.d_term)


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
