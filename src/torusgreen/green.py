"""Green function of the flat torus.

The mean zero Green function of -Laplace on C/(Z + Z tau) splits as

    G(z) = -(1/2 pi) log|theta1(z)| + y^2/(2 b) + C(tau),

with y the height of the canonical cell representative and b = Im tau.
evaluate gives G - C(tau), its gradient and its Hessian from one theta
series pass (green_rel is its value, from a pass that sums log|theta1|
alone, and the test oracle of mfe.verify_solution's closed form); the
module also holds the critical point residual of the solver and the
constant C(tau) = (1/2 pi) log|eta(tau)| (Kronecker limit formula).

G depends on the lattice only: with the reduced frame of lattice.Torus,
G_tau(z) = G_tau_r(z / lam).  So every pass runs on a reduced torus
(lam = 1), at z / lam = t' + s' tau_r, and evaluate sums there alone.
With L1, L2 the log derivatives of theta1 and A1 = L1 + 2 pi i s',

    2 pi (G_x - i G_y) = -A1,   G_xx + G_yy = 1/b_r,
    2 pi (G_xx - G_yy - 2 i G_xy) = -2 (L2 + pi/b_r),
    4 pi^2 det = 2 (pi/b_r) Re(-L2) - |L2|^2,

the last form free of cancellation where L2 is small (half periods near
the cusp).  Where its two terms cancel instead (a degenerate critical
point), det carries an absolute error of a few ulps of their sum;
evaluate returns that bound, C_DET eps ((2 pi/b_r)|L2| + |L2|^2) /
(4 pi^2), next to det, so a caller trusts the sign of det only outside
it.  By the Legendre relation the critical residual zeta(z) - t eta1 -
s eta2 is A1, so the solver (residual_and_jacobian) needs no quasi
periods.  carried, where the covariance laws of G are written, takes a
pass back to any other torus; moduli.flip_edges, which needs |det| alone,
divides it by |lam|^4 itself.  C(tau) is summed at
tau_r and carried back by the weight 1/2 law of eta, so everything holds
on all of the upper half plane.  A batch on several reduced tori shares
one pass; half_period_rows writes the half-period rows in closed form
from the theta-null sum, where L2 = -A_k = theta_j''(0) / theta_j(0); a
lone torus reads that sum from the weier.invariants record of its
reduced torus, so that the Weierstrass passes there (the 8 pi
developing map, which runs on the reduced torus) share it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import theta, weier
from .errors import PoleAtLattice, Unconverged
from .lattice import Torus, wrap_unit

# The error of det Hess G in units of eps ((2 pi/b_r)|L2| + |L2|^2) /
# (4 pi^2 |lam|^4), the rounding scale of its two terms carried back.  Measured against
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


def _reduced_pass(t, s, tau_r, reads=theta.ALL):
    """s' and (log|theta1|, L1, L2, L3) at (t, s) on Z + tau_r Z, wrapped,
    from a theta._eval pass that reads reads (None where it does not)."""
    tr, _ = wrap_unit(t)
    sr, _ = wrap_unit(s)
    lm, _, L1, L2, L3 = theta._eval(tr + sr * tau_r, tau_r, reads)
    return sr, lm, L1, L2, L3


def _value(lm, sr, b_r):
    """G - C = -log|theta1| / 2 pi + y^2 / 2 b_r from log|theta1| = lm at
    y = sr b_r on reduced tori of Im tau_r = b_r."""
    return -lm / (2.0 * np.pi) + sr ** 2 * (b_r / 2.0)


def _split(z, tau_r) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates (t, s) of the points z of reduced tori of modulus
    tau_r, flat: where evaluate sums them."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    s = z.imag / np.imag(tau_r)
    return z.real - s * np.real(tau_r), s


def _pass(z, torus: Torus, reads):
    """The pass of evaluate at z, on the reduced torus at z / lam
    (Torus.reduced_point): whether that moves z, b_r, G - C there, s' and
    (L1, L2).  Raises PoleAtLattice at lattice points."""
    moved = torus.mat != ((1, 0), (0, 1))
    tau_r = torus.tau_r
    t, s = _split(torus.reduced_point(z) if moved else z, tau_r)
    sr, lm, L1, L2, _ = _reduced_pass(t, s, tau_r, reads)
    if np.isneginf(lm).any():
        raise PoleAtLattice("Green function diverges at lattice points")
    return moved, tau_r.imag, _value(lm, sr, tau_r.imag), sr, L1, L2


def evaluate(z, torus: Torus) -> GreenEval:
    """G - C(tau), its gradient and its Hessian at z from one theta pass.

    The pass sums on the reduced torus at z / lam (Torus.reduced_point),
    and carried takes it back.  Everything is taken at the canonical cell
    representative and computed on a flat array, so a point gives the same
    bits alone as inside a batch.  det_bound is the error bound of the
    determinant (C_DET).  Raises PoleAtLattice at lattice points.
    """
    moved, b_r, value, sr, L1, L2 = _pass(z, torus, theta.ALL)

    def out(x):
        return theta._scalarize(x.reshape(np.shape(z)))

    hessian, bound = _hessian(-L2, b_r, out)
    ev = GreenEval(
        value_rel=out(value),
        grad=(out(-L1.real / (2.0 * np.pi)), out(L1.imag / (2.0 * np.pi) + sr)),
        hessian=hessian,
        det_bound=bound,
    )
    return carried(ev, torus) if moved else ev


def _hessian(a, b_r, out=np.asarray) -> tuple[Hessian2, np.ndarray]:
    """The Hessian of G and its det_bound (C_DET) where -(log theta1)'' = a
    on reduced tori of Im tau_r = b_r."""
    det = a.real * (2.0 * np.pi / b_r) - (a.real ** 2 + a.imag ** 2)
    abs_a = np.abs(a)
    det_err = (C_DET * _EPS) * ((2.0 * np.pi / b_r) * abs_a + abs_a ** 2)
    return Hessian2(xx=out(a.real / (2.0 * np.pi)), xy=out(-a.imag / (2.0 * np.pi)),
                    yy=out(1.0 / b_r - a.real / (2.0 * np.pi)),
                    det=out(det / (4.0 * np.pi ** 2))), out(det_err / (4.0 * np.pi ** 2))


def half_period_rows(tori: list[Torus]) -> tuple[GreenEval, dict]:
    """evaluate at the half periods 1/2, tau_r/2 and (1+tau_r)/2 of the
    reduced torus of every torus, torus after torus, in closed form from
    one null sum, and the gap failures of weier.reduced_nulls.  G is even
    about each half period, so its gradient is 0; G - C is -log|theta_j(0)|
    / 2 pi (j = 2, 4, 3), |q|^(-1/4) of |theta1| cancelling y^2 / 2 b_r.
    A lone torus reads its sum from the weier.invariants record of its
    reduced torus, which its Weierstrass passes read again (module
    docstring), so that one sum serves both; where that record fails, the
    batch sum gives the same failure."""
    inv = None
    if len(tori) == 1:
        with contextlib.suppress(Unconverged):
            inv = weier.invariants(tori[0].reduced)
    if inv is None:
        a_r, log_nulls, failed = weier.reduced_nulls(tori)
        a_r, log_abs = a_r.ravel(), log_nulls.real.ravel()
    else:
        a_r, log_abs, failed = np.array(inv.a_r), np.array(inv.log_abs_nulls_r), {}
    b_r = np.repeat([torus.tau_r.imag for torus in tori], 3)
    zero = np.zeros(b_r.shape)
    hessian, bound = _hessian(a_r, b_r)
    return GreenEval(-log_abs / (2.0 * np.pi), (zero, zero), hessian, bound), failed


def green_rel(z, torus: Torus):
    """G(z) - C(tau), doubly periodic by construction: evaluate's value,
    to the bit, from a pass that reads log|theta1| alone."""
    moved, _, value, *_ = _pass(z, torus, theta.LOG_MAG)
    value = theta._scalarize(value.reshape(np.shape(z)))
    return value + _factors(torus.lam)[-1] if moved else value


def carried(ev: GreenEval, torus, index=None) -> GreenEval:
    """ev, an evaluate on torus.reduced at z / lam, at the points z of torus:
    2 pi (G_x - i G_y) turns with 1/lam, G_xx - G_yy - 2i G_xy with
    1/lam^2, the trace scales by 1/|lam|^2, det and det_bound by 1/|lam|^4
    and G - C shifts by log|lam| / (4 pi).  torus may also be a list of
    tori, entry i of ev's arrays lying on torus[index[i]]; the factors of
    each lam are formed once (_factors), and the laws are real arithmetic
    on them, so floats and arrays get the same bits."""
    if index is None:
        kr, ki, k2r, k2i, a2, a4, shift = _factors(torus.lam)
    else:
        kr, ki, k2r, k2i, a2, a4, shift = np.array([_factors(t.lam) for t in torus]).T[:, index]
    (gx, gy), h = ev.grad, ev.hessian
    diff, trace = h.xx - h.yy, (h.xx + h.yy) / a2
    c = diff * k2r + 2.0 * h.xy * k2i
    return GreenEval(ev.value_rel + shift, (gx * kr + gy * ki, gy * kr - gx * ki),
                     Hessian2((trace + c) / 2.0, h.xy * k2r - diff * k2i / 2.0,
                              (trace - c) / 2.0, h.det / a4), ev.det_bound / a4)


def _factors(lam: complex) -> tuple[float, ...]:
    """carried's factors of lam: 1/lam and 1/lam^2 (real and imaginary
    parts), |lam|^2, |lam|^4 and log|lam| / (4 pi), in Python's complex
    arithmetic, whose division rounds unlike numpy's."""
    k, k2, m = 1.0 / lam, 1.0 / (lam * lam), abs(lam)
    return k.real, k.imag, k2.real, k2.imag, m ** 2, m ** 4, math.log(m) / (4.0 * math.pi)


def residual_and_jacobian(t, s, tau_r):
    """Vectorized critical residual, its derivatives and G - C on a
    reduced torus, from one theta pass.

    (t, s) are coordinates on Z + tau_r Z, with tau_r one modulus or one
    per point.  The residual is invariant under integer shifts of (t, s),
    so the coordinates are wrapped first; it is A1 = L1 + 2 pi i s.
    Returns (r, L2, L3, G - C): dr_dt = L2, dr_ds = tau_r L2 + 2 pi i,
    r's second derivative along (dt, ds) is L3 (dt + tau_r ds)^2 (the
    third-order step of critical.damped_newton), and G - C is evaluate's
    value to the bit at the same (t, s) (critical's final pass).  Lattice
    hits yield non finite entries rather than an exception; the Newton
    loop treats those as rejected steps.
    """
    sr, lm, L1, L2, L3 = _reduced_pass(t, s, tau_r)
    return L1 + (2j * np.pi) * sr, L2, L3, _value(lm, sr, np.imag(tau_r))


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
