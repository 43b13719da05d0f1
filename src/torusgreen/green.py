"""Green function of the flat torus.

The mean zero Green function of -Laplace on C/(Z + Z tau) splits as

    G(z) = -(1/2 pi) log|theta1(z)| + y^2/(2 b) + C(tau),

with y the height of the canonical cell representative and b = Im tau.
evaluate gives the z dependent part G - C(tau), its gradient and its
Hessian from one theta series pass (green_rel is its value).  The module
also holds the critical point residual used by the solver, the period
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
    """Value, gradient and Hessian of G - C(tau); floats for one point,
    arrays shaped like z for a batch."""

    value_rel: float
    grad: tuple[float, float]
    hessian: Hessian2


def evaluate(z, torus: Torus) -> GreenEval:
    """G - C(tau), its gradient and its Hessian at z from one theta pass.

    Everything is taken at the canonical cell representative, so
    translates of z give bitwise identical values, and is computed on a
    flat array, so a point gives the same bits alone as inside a batch.
    The determinant uses the closed form
        4 pi^2 det = -(|L2 + pi/b|^2 - (pi/b)^2),
    algebraically identical to xx*yy - xy^2 but cheaper and stabler.
    Raises PoleAtLattice at lattice points.
    """
    z = np.asarray(z, dtype=complex)
    b = torus.b
    t, s, _, _ = split_coords(z.reshape(-1), torus.tau)
    lm, _, L1, L2, _ = theta._eval(t + s * torus.tau, torus.tau)
    if np.any(np.isneginf(lm)):
        raise PoleAtLattice("Green function diverges at lattice points")
    pb = np.pi / b

    def out(x):
        return theta._scalarize(x.reshape(z.shape))

    return GreenEval(
        value_rel=out(-lm / (2.0 * np.pi) + s ** 2 * (b / 2.0)),
        grad=(out(-L1.real / (2.0 * np.pi)), out(L1.imag / (2.0 * np.pi) + s)),
        hessian=Hessian2(
            xx=out(-L2.real / (2.0 * np.pi)),
            xy=out(L2.imag / (2.0 * np.pi)),
            yy=out(L2.real / (2.0 * np.pi) + 1.0 / b),
            det=out(-(np.abs(L2 + pb) ** 2 - pb * pb) / (4.0 * np.pi**2)),
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

    The residual is invariant under integer shifts of (t, s), so both
    arguments are wrapped first; it equals (log theta1)_z + 2 pi i s on
    the canonical cell.  Returns (r, dr_dt, dr_ds) with dr_dt = L2 and
    dr_ds = L2*tau + 2 pi i.  Lattice hits yield non finite entries rather than an exception; the
    Newton driver treats those as rejected steps.
    """
    tw, _ = wrap_unit(t)
    sw, _ = wrap_unit(s)
    _, _, L1, L2, _ = theta._eval(tw + sw * torus.tau, torus.tau)
    r = L1 + (2j * np.pi) * sw
    return r, L2, L2 * torus.tau + 2j * np.pi


def period_integrals(z, torus: Torus):
    """The pair F1 = 2(zeta(z) - eta1 z), F2 = 2(tau zeta(z) - eta2 z).

    Evaluated at the canonical representative; at a critical point t + s*tau
    they collapse to F1 = -4 pi i s and F2 = 4 pi i t, both purely imaginary.
    """
    t, s, _, _ = split_coords(z, torus.tau)
    zc = t + s * torus.tau
    inv = weier.invariants(torus)
    zv = weier.zeta(zc, torus)
    f1 = 2.0 * (zv - inv.eta1 * zc)
    f2 = 2.0 * (torus.tau * zv - inv.eta2 * zc)
    return f1, f2


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
