"""Cross-module identity checks over randomized inputs.

Every analytic building block in this package satisfies classical exact
identities.  This module evaluates each of them over a deterministic
random sample of (z, tau) pairs and reports the worst deviation against
a frozen tolerance.  The CLI `selftest` subcommand and the conformance
acceptance test both run `run_all`; a failure here means a numerical
kernel broke, not that an input was unusual.

Tolerances are calibrated against measured headroom: each bound sits at
least two orders of magnitude above the worst deviation seen across the
sample sizes used in CI, while staying far below anything a genuine bug
would produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import green, theta, weier
from .errors import InvalidInput
from .lattice import Torus, make_torus, random_tori, split_coords

SEED = 20260822   # seeds the random sample of run_all
MAX_SAMPLES = 100_000   # run_all builds n_samples // 8 tori one by one


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    n_samples: int

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class SelftestReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _sample_points(torus: Torus, rng, count: int) -> np.ndarray:
    """Random z in the cell, kept away from lattice points and the cut
    structure so that log magnitude comparisons stay well conditioned."""
    t = rng.uniform(-0.45, 0.45, count)
    s = rng.uniform(0.05, 0.45, count) * np.where(rng.uniform(size=count) < 0.5, 1.0, -1.0)
    return t + s * torus.tau


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return np.angle(np.exp(1j * np.asarray(a)))


def legendre_residual(torus: Torus) -> float:
    """|eta1 tau - eta2 - 2 pi i| with eta2 = 2 zeta(tau/2) from its definition.

    The invariants define eta2 through this very relation, so their eta2
    would make the check an identity.
    """
    inv = weier.invariants(torus)
    eta2 = 2.0 * weier.zeta(torus.tau / 2.0, torus)
    return abs(inv.eta1 * torus.tau - eta2 - 2j * math.pi)


def eta1_lambert(tau: complex) -> complex:
    """eta1 = (pi^2 / 3) E2(tau) from the Lambert series of E2 in q^2,
    q = e^(i pi tau); it never reads a theta value."""
    n = np.arange(1, math.ceil(7.0 / tau.imag) + 2)
    x = np.exp((2j * math.pi * tau) * n)
    return complex(math.pi ** 2 / 3.0 * (1.0 - 24.0 * np.sum(n * x / (1.0 - x))))


def e_sum_residual(torus: Torus) -> float:
    """|e1 + e2 + e3| relative to the largest root, with eta1 from E2.

    The invariants take eta1 as the mean of the A_k of the theta-null sum,
    so their own roots sum to zero by construction.  The roots e_k + eta1 -
    eta1_lambert keep the series values and swap in the independent eta1;
    they must sum to zero and equal the reported e_k.
    """
    inv = weier.invariants(torus)
    shift = inv.eta1 - eta1_lambert(torus.tau)
    roots = np.array([inv.e1, inv.e2, inv.e3]) + shift
    scale = max(np.max(np.abs(roots)), 1.0)
    return max(abs(roots.sum()), abs(shift)) / scale


def wp_de_residual(z, torus: Torus) -> np.ndarray:
    """|wp'^2 - (4 wp^3 - g2 wp - g3)| / scale, the defining equation."""
    inv = weier.invariants(torus)
    p = weier.wp(z, torus)
    pp = weier.wp(z, torus, order=1)
    lhs = pp * pp
    rhs = 4.0 * p ** 3 - inv.g2 * p - inv.g3
    scale = np.maximum(np.abs(lhs), 1.0)
    return np.abs(lhs - rhs) / scale


def heat_equation_residual(z, torus: Torus) -> np.ndarray:
    """theta1_zz / theta1 = 4 pi i (d/dtau log theta1), by central FD.

    Checked where the package sums theta, at (z / lam, tau_r).  The z side
    comes from the series ((log theta)'' + ((log theta)')^2); the tau side
    is a finite difference of the log, with the argument difference wrapped.
    """
    tau = torus.tau_r
    z = np.asarray(z) / torus.lam
    lm0, ar0, L1, L2, _ = theta._eval(z, tau)
    lhs = L2 + L1 * L1
    h = 1e-5
    lm_p, ar_p, *_ = theta._eval(z, tau + h)
    lm_m, ar_m, *_ = theta._eval(z, tau - h)
    dlog = (lm_p - lm_m + 1j * _wrap_angle(ar_p - ar_m)) / (2.0 * h)
    rhs = 4j * math.pi * dlog
    return np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)


def triple_product_residual(z, torus: Torus) -> np.ndarray:
    """theta1 against 2 q^{1/4} sin(pi z) prod (1-q^{2n})(1-q^{2n}e^{2 pi i z})(1-q^{2n}e^{-2 pi i z}).

    Checked where the package sums theta, at (z / lam, tau_r).  Compared in
    log form: magnitude difference plus wrapped phase difference, so the
    check is meaningful even where theta1 underflows as a plain float.
    """
    tau = torus.tau_r
    z = np.asarray(z, dtype=complex) / torus.lam
    q = np.exp(1j * math.pi * tau)
    nterms = max(8, int(40.0 / tau.imag) + 4)
    n = np.arange(1, nterms + 1)
    q2n = q ** (2 * n)
    e_plus = np.exp(2j * math.pi * z)[..., None]
    log_prod = (np.sum(np.log1p(-q2n), axis=-1)
                + np.sum(np.log1p(-q2n * e_plus), axis=-1)
                + np.sum(np.log1p(-q2n / e_plus), axis=-1))
    log_sin = np.log(np.sin(math.pi * z))
    log_rhs = math.log(2.0) + 1j * math.pi * tau / 4.0 + log_sin + log_prod
    lm, ar, *_ = theta._eval(z, tau)
    d_mag = lm - log_rhs.real
    d_arg = _wrap_angle(ar - log_rhs.imag)
    return np.abs(d_mag) + np.abs(d_arg)


def frame_cross_residual(z, torus: Torus) -> np.ndarray:
    """green.evaluate, carried back from the reduced frame, against the
    identity frame formulas on the direct series at tau (Im tau >= 1/2).

    The worst difference among value, gradient, Hessian and determinant,
    each relative to max(1, |direct value|).
    """
    tau, b, k = torus.tau, torus.b, 0.5 / np.pi
    t, s, _, _ = split_coords(z, tau)
    lm, _, L1, L2, _ = theta._eval(t + s * tau, tau)
    xx, xy, yy = -k * L2.real, k * L2.imag, k * L2.real + 1.0 / b
    direct = (-k * lm + s * s * (b / 2.0), -k * L1.real, k * L1.imag + s,
              xx, xy, yy, xx * yy - xy * xy)
    ev = green.evaluate(z, torus)
    h = ev.hessian
    carried = (ev.value_rel, *ev.grad, h.xx, h.xy, h.yy, h.det)
    return np.max([np.abs(c - d) / np.maximum(np.abs(d), 1.0)
                   for c, d in zip(carried, direct)], axis=0)


def zeta_addition_residual(z, torus: Torus) -> np.ndarray:
    """The duplication identity zeta(2z) - 2 zeta(z) = wp''/(2 wp')."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.array([weier.addition_zeta_residual(zz, torus) for zz in z])


# (name, tolerance, kind, residual): a "torus" check takes a torus, a
# "point" check sample points and their torus, a "frame" check the same
# on the frame tori outside the fundamental domain
_CHECKS = (
    ("legendre_relation", 1e-11, "torus", legendre_residual),
    ("e_sum", 1e-11, "torus", e_sum_residual),
    ("wp_differential_equation", 1e-8, "point", wp_de_residual),
    ("zeta_addition", 1e-8, "point", zeta_addition_residual),
    ("heat_equation", 1e-6, "point", heat_equation_residual),
    ("triple_product", 1e-9, "point", triple_product_residual),
    ("reduced_frame_cross", 1e-9, "frame", frame_cross_residual),
)


def run_all(n_samples: int = 200) -> SelftestReport:
    """Evaluate every identity over n_samples randomized (z, tau)."""
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise InvalidInput(f"sample count {n_samples} outside [1, {MAX_SAMPLES}]")
    n_tori = max(8, n_samples // 8)
    tori = random_tori(n_tori, SEED)
    # the frame check runs outside the fundamental domain: at -1/tau_r where
    # its Im = Im tau_r / |tau_r|^2 is at least 1/2, else at tau_r + 2
    frame_tori = [make_torus(-1.0 / T.tau_r if abs(T.tau_r) ** 2 <= 2.0 * T.tau_r.imag
                             else T.tau_r + 2.0) for T in tori]
    frame_tori += [make_torus(3.2 + 0.9j), make_torus(0.5 + 0.8j)]
    rng = np.random.default_rng(SEED + 1)
    per_torus = max(1, n_samples // n_tori)
    results = []
    for name, tol, kind, fun in _CHECKS:
        worst = 0.0
        count = 0
        if kind == "torus":
            for torus in tori:
                worst = max(worst, float(fun(torus)))
                count += 1
        else:
            for torus in (frame_tori if kind == "frame" else tori):
                z = _sample_points(torus, rng, per_torus)
                vals = np.atleast_1d(fun(z, torus))
                worst = max(worst, float(np.max(vals)))
                count += vals.size
        results.append(CheckResult(name=name, max_residual=worst,
                                   tolerance=tol, n_samples=count))
    return SelftestReport(checks=tuple(results))
