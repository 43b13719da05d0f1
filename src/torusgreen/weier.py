"""Weierstrass layer, derived entirely from theta series.

Every theta pass runs in the reduced frame of lattice.Torus,
Z + tau Z = lam (Z + tau_r Z), and is carried back by homogeneity:
sigma = lam sigma_r(z / lam), zeta = zeta_r / lam, p = p_r / lam^2 and
p' = p'_r / lam^3, with r marking the lattice Z + tau_r Z.

The constants come from one sum of the theta-null q-series of the
reduced torus (theta.nulls, reduced_nulls for a batch): log theta_j(0)
and A_k = -theta_j''(0) / theta_j(0) = e_k + eta1 at the half periods
1/2, tau_r/2 and (1+tau_r)/2 (j = 2, 4, 3), as (log theta1)'' = -wp - eta1.
e1 + e2 + e3 = 0 makes eta1 the mean of the A_k, theta1'(0) = pi
theta2(0) theta3(0) theta4(0) normalizes sigma_r, and Jacobi's gap
identities, e1 - e2 = pi^2 theta3(0)^4 and its two companions, check the
sum at run time.  invariants carries them back, cached per torus: the
roots as e_r / lam^2, permuted as the matrix permutes the half periods
mod 2 (Torus.half_period_perm), and eta1 by linearity of the quasi
period map; eta2 is the Legendre relation.  The record keeps the reduced
sum as well, from which a lone torus's critical set writes its
half-period rows, reading the record of its reduced torus, so the set
and the Weierstrass passes there (the 8 pi map) share one sum.

evaluate gives sigma, zeta, p and p' from one theta1 series pass, or
only those its caller reads (log|sigma| alone, or with zeta); sigma,
zeta and wp read from it, and zeta and wp raise PoleAtLattice where it
has a pole.  translate moves log|sigma| and zeta to a lattice translate
of their argument by Legendre's law, with no pass.  The classical
lattice sum is kept out of the library on purpose: at the accuracy this
package works to it converges hopelessly slowly, and it survives only as
an independent oracle in the test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HalfPeriodInput, PoleAtLattice, Unconverged
from .lattice import Torus
from .theta import ALL, LogComplex, _eval, _scalarize, nulls

TWO_PI_I = 2j * np.pi


@dataclass(frozen=True)
class EllipticInvariants:
    """Half period values, quasi periods and derived invariants.

    log_theta1_prime is log theta1'(0) at the reduced modulus tau_r, the
    normalization of sigma_r; its imaginary part is not reduced mod 2 pi.
    a holds A_k = e_k + eta1 in the order of the half periods 1/2, tau/2
    and (1+tau)/2.  a_r is the same at tau_r, in the order of 1/2,
    tau_r/2 and (1+tau_r)/2, and log_abs_nulls_r holds log|theta2(0)|,
    log|theta4(0)| and log|theta3(0)| there, as the null sum gave them:
    the half-period rows of a lone torus's critical set, read from its
    reduced torus's record (green.half_period_rows).
    """

    e1: complex
    e2: complex
    e3: complex
    eta1: complex
    eta2: complex
    g2: complex
    g3: complex
    log_theta1_prime: complex
    a: tuple[complex, complex, complex]
    a_r: tuple[complex, complex, complex]
    log_abs_nulls_r: tuple[float, float, float]


def reduced_nulls(tori: list[Torus]) -> tuple[np.ndarray, np.ndarray, dict]:
    """A_k and log theta_j(0) of the reduced tori of tori, (N, 3) arrays
    in the order of the half periods 1/2, tau_r/2 and (1+tau_r)/2, from one
    theta.nulls sum, and the Unconverged of each torus whose sums miss
    Jacobi's gap identities, keyed by its index."""
    log_nulls, a_r = nulls(np.array([torus.tau_r for torus in tori]))
    e_r = a_r - (a_r.sum(axis=1) / 3.0)[:, None]
    # e1 - e2 = pi^2 theta3(0)^4, e1 - e3 = pi^2 theta4(0)^4, e3 - e2 = pi^2 theta2(0)^4
    th_4 = (math.pi * math.pi) * np.exp(4.0 * log_nulls[:, ::-1])
    gap = np.abs(e_r[:, [0, 0, 2]] - e_r[:, [1, 2, 1]] - th_4).max(axis=1)
    scale = np.abs(e_r).max(axis=1)
    failures = {k: Unconverged(
        f"half period values at tau_r = {tori[k].tau_r} (tau = {tori[k].tau}) miss Jacobi's "
        f"gap identities: {gap[k]:.3e} vs scale {scale[k]:.3e}")
        for k in np.flatnonzero(gap > 1e-11 * scale).tolist()}
    return a_r, log_nulls, failures


@lru_cache(maxsize=512)
def _invariants_cached(torus: Torus) -> EllipticInvariants:
    """The null sum of the reduced torus, carried back to torus as the
    matrix permutes the half periods mod 2."""
    a_r, log_nulls, failures = reduced_nulls([torus])
    if failures:
        raise failures[0]
    a_r, log_nulls = a_r[0], log_nulls[0]
    eta1_r = complex(a_r.sum() / 3.0)
    (a, _), (c, _) = torus.mat
    lam = torus.lam
    perm = list(torus.half_period_perm)
    e1, e2, e3 = ((a_r - eta1_r)[perm] / (lam * lam)).tolist()
    eta1 = (a * eta1_r - c * (eta1_r * torus.tau_r - TWO_PI_I)) / lam
    eta2 = eta1 * torus.tau - TWO_PI_I
    g2 = -4.0 * (e1 * e2 + e2 * e3 + e3 * e1)
    g3 = 4.0 * e1 * e2 * e3
    # A_k from the null sum alone keeps its relative precision
    a_k = a_r[perm] / (lam * lam) + TWO_PI_I * c / lam
    return EllipticInvariants(e1, e2, e3, eta1, eta2, g2, g3,
                              complex(math.log(math.pi) + log_nulls.sum()),
                              tuple(a_k.tolist()), tuple(a_r.tolist()), tuple(log_nulls.real.tolist()))


def invariants(torus: Torus) -> EllipticInvariants:
    """Invariants of the torus, cached per torus."""
    return _invariants_cached(torus)


@dataclass(frozen=True)
class WeierEval:
    """sigma (log form), zeta, p and p' at z, and the log|theta1| they come
    from; scalars for one point, arrays shaped like z for a batch.  A pass
    that reads less leaves the rest None (evaluate)."""

    sigma: LogComplex
    zeta: complex | None
    p: complex | None
    p_prime: complex | None
    log_abs_theta1: float


def evaluate(z, torus: Torus, reads: int = ALL, offsets=None) -> WeierEval:
    """sigma, zeta, p and p' at z from one theta series pass.

    With Lk the k-th log derivative of theta1 at w = z / lam on tau_r and
    eta1_r = lam^2 eta1 - 2 pi i c lam the eta1 of Z + tau_r Z,

        sigma(z) = lam e^(eta1_r w^2 / 2) theta1(w) / theta1'(0),
        zeta(z) = (L1 + eta1_r w) / lam,   p(z) = -(L2 + eta1_r) / lam^2,
        p'(z) = -L3 / lam^3.

    These identities carry the right quasi periods, so they hold for
    unreduced z as well.  reads is the theta._eval reads of the pass:
    LOG_MAG gives log|sigma| alone (sigma.arg None), LOG_MAG_L1 log|sigma|
    and zeta, ALL everything, and what is left out is None, never formed,
    while what is read has the bits of ALL.  Everything is computed on a
    flat array, so a point gives the same bits alone as inside a batch.
    Where z / lam is exactly a lattice point sigma is the log_mag = -inf
    sentinel and the rest is NaN; the single-quantity readers below raise
    PoleAtLattice there instead.  offsets (theta._eval's once over lam)
    adds rows z + offsets[j - 1] on a leading axis, each at its own w.
    """
    inv = invariants(torus)
    lam = torus.lam
    k1 = 1.0 / lam
    eta1_r = lam * (lam * inv.eta1 - TWO_PI_I * torus.mat[1][0])
    z = np.asarray(z, dtype=complex)
    w = z.reshape(-1) * k1
    d = None if offsets is None else np.asarray(offsets, dtype=complex).reshape(-1, 1) * k1
    lm, ar, L1, L2, L3 = _eval(w, torus.tau_r, reads, d)
    if d is not None:
        w = np.concatenate([w[None], w + d])
    quad = 0.5 * eta1_r * w * w
    lp = inv.log_theta1_prime - cmath.log(lam)

    def out(x):
        return _scalarize(x.reshape(x.shape[:-1] + z.shape))

    return WeierEval(
        sigma=LogComplex(out(lm + quad.real - lp.real), None if ar is None else out(
            np.where(np.isneginf(lm), 0.0, ar) + quad.imag - lp.imag)),
        zeta=None if L1 is None else out((L1 + eta1_r * w) * k1),
        p=None if L2 is None else out((-L2 - eta1_r) * (k1 * k1)),
        p_prime=None if L3 is None else out(-L3 * (k1 * k1 * k1)),
        log_abs_theta1=out(lm),
    )


def translate(log_abs_sigma, zeta, w, m, n, torus: Torus):
    """log|sigma| and zeta at w + lam, lam = m + n tau, from their values
    at w, by Legendre's law: sigma(w + lam) = +-e^(eta_lam (w + lam/2))
    sigma(w) and zeta(w + lam) = zeta(w) + eta_lam, eta_lam = m eta1 +
    n eta2.  m and n broadcast against w; zeta may be None (then None).
    No series is summed: a lattice translate costs a few products."""
    inv = invariants(torus)
    eta = m * inv.eta1 + n * inv.eta2
    log_abs_sigma = log_abs_sigma + (eta * (w + 0.5 * (m + n * torus.tau))).real
    return log_abs_sigma, None if zeta is None else zeta + eta


def _guarded(z, torus: Torus, what: str) -> WeierEval:
    ev = evaluate(z, torus)
    if np.any(ev.sigma.is_zero):
        raise PoleAtLattice(f"{what} requested at a lattice point")
    return ev


def zeta(z, torus: Torus):
    """Weierstrass zeta; the zeta of evaluate."""
    return _guarded(z, torus, "zeta").zeta


def wp(z, torus: Torus, order: int = 0):
    """Weierstrass p (order 0), p' (order 1) or p'' (order 2)."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    ev = _guarded(z, torus, "wp")
    if order == 0:
        return ev.p
    if order == 1:
        return ev.p_prime
    return 6.0 * ev.p * ev.p - invariants(torus).g2 / 2.0


def sigma(z, torus: Torus) -> LogComplex:
    """Weierstrass sigma in log form; the sigma of evaluate.

    Zeros at lattice points surface as the log_mag = -inf sentinel.
    """
    return evaluate(z, torus).sigma


def addition_zeta_residual(z, torus: Torus) -> float:
    """|zeta(2z) - 2 zeta(z) - p''(z) / (2 p'(z))|, the duplication check.

    Rejects inputs too close to half periods, where p' vanishes and the
    quotient blows up.
    """
    z = complex(z)
    pz = wp(z, torus, order=0)
    p1 = wp(z, torus, order=1)
    if abs(p1) < 1e-8 * (1.0 + abs(pz) ** 1.5):
        raise HalfPeriodInput(f"p'({z}) is numerically zero; duplication degenerates")
    p2 = wp(z, torus, order=2)
    return float(abs(zeta(2.0 * z, torus) - 2.0 * zeta(z, torus) - p2 / (2.0 * p1)))
