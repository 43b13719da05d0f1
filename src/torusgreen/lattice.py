"""Flat torus bookkeeping.

A torus is the quotient of the plane by the lattice spanned by 1 and a
modulus tau in the upper half plane.  Points are tracked either as complex
numbers or as lattice coordinates (t, s) with z = t + s*tau; the canonical
cell is the half open square [-1/2, 1/2)^2 in (t, s).  make_torus also
fixes the reduced frame in which every theta pass runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveImaginaryPart


@dataclass(frozen=True)
class Torus:
    """Flat torus with periods 1 and tau, and its reduced frame (make_torus).

    tau_r = (a tau + b) / lam in the fundamental domain, with
    mat = ((a, b), (c, d)) and lam = c tau + d: Z + tau Z = lam (Z + tau_r Z),
    and z = t + s tau is z / lam = t' + s' tau_r, t' = a t - b s, s' = d s - c t.
    """

    tau: complex
    tau_r: complex
    mat: tuple[tuple[int, int], tuple[int, int]]
    lam: complex

    @property
    def b(self) -> float:
        return self.tau.imag

    @property
    def half_periods(self) -> tuple[complex, complex, complex]:
        return (0.5, self.tau / 2.0, (1.0 + self.tau) / 2.0)

    @property
    def reduced(self) -> Torus:
        """Z + tau_r Z in its own frame (lam = 1), where critical passes run."""
        return Torus(self.tau_r, self.tau_r, ((1, 0), (0, 1)), 1.0 + 0.0j)

    def reduced_point(self, z):
        """z / lam = t' + s' tau_r, the point z = t + s tau mapped by the matrix."""
        s = np.imag(z) / self.tau.imag
        t = np.real(z) - s * self.tau.real
        (a, b), (c, d) = self.mat
        return (a * t - b * s) + (d * s - c * t) * self.tau_r

    @property
    def half_period_perm(self) -> tuple[int, int, int]:
        """The index on the reduced torus of 1/2, tau/2 and (1+tau)/2: the
        parities (1, 0), (0, 1), (1, 1) of their (t', s') index 1/2,
        tau_r/2 and (1+tau_r)/2."""
        (a, b), (c, d) = self.mat
        return a % 2 + 2 * (c % 2) - 1, b % 2 + 2 * (d % 2) - 1, (a + b) % 2 + 2 * ((c + d) % 2) - 1


@dataclass(frozen=True)
class LatticeCoords:
    """Coordinates (t, s) of a point z = t + s*tau, each in [-1/2, 1/2)."""

    t: float
    s: float


def make_torus(tau: complex) -> Torus:
    tau = complex(tau)
    if not (tau.imag > 0.0) or not math.isfinite(tau.imag) or not math.isfinite(tau.real):
        raise NonPositiveImaginaryPart(f"modulus {tau!r} is not in the upper half plane")
    tau_r, mat = reduce_modulus(tau)
    (_, _), (c, d) = mat
    return Torus(tau, tau_r, mat, c * tau + d)


def wrap_unit(x):
    """Wrap real values into [-1/2, 1/2); also returns the integer part removed."""
    x = np.asarray(x, dtype=float)
    k = np.floor(x + 0.5)
    return x - k, k


def split_coords(z, tau: complex):
    """Decompose z = (t + s*tau) + (m + n*tau) with t, s in [-1/2, 1/2).

    Vectorized; returns (t, s, m, n) as float arrays (m, n integral).
    """
    z = np.asarray(z, dtype=complex)
    s_raw = z.imag / tau.imag
    t_raw = z.real - s_raw * tau.real
    t, m = wrap_unit(t_raw)
    s, n = wrap_unit(s_raw)
    return t, s, m, n


def lattice_gap(z, tau: complex) -> np.ndarray:
    """Euclidean distance from z to the nearest point of Z + tau Z.

    Vectorized; the nearest point to a canonical cell representative is
    among the 3x3 block of lattice points around the origin.
    """
    t, s, _, _ = split_coords(z, tau)
    zc = t + s * tau
    d = np.full(zc.shape, np.inf)
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            d = np.minimum(d, np.abs(zc - (m + n * tau)))
    return d


def near_lattice(z, tau: complex, tol: float) -> np.ndarray:
    """Whether z lies within tol of Z + tau Z, from one split per point.

    Tests |t + s tau| < tol at the cell coordinates (t, s) of z.  The
    offset of a cell point from any lattice point but 0 has a coordinate
    of size at least 1/2, so it is at least half a height of the cell
    (Im tau / 2 or Im tau / (2 |tau|)) long: for tol below that, this is
    the mask lattice_gap(z, tau) < tol.
    """
    t, s, _, _ = split_coords(z, tau)
    return np.abs(t + s * tau) < tol


def reduce_modulus(tau: complex) -> tuple[complex, tuple[tuple[int, int], tuple[int, int]]]:
    """Map tau to the standard fundamental domain |Re| <= 1/2, |tau| >= 1.

    Returns the reduced modulus and the unimodular matrix ((a, b), (c, d)),
    meaning tau_reduced = (a*tau + b) / (c*tau + d).  Boundary ties are
    broken toward Re in [0, 1/2].
    """
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise NonPositiveImaginaryPart(f"modulus {tau!r} is not in the upper half plane")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(512):
        n = math.floor(tau.real + 0.5)
        if n != 0:
            tau -= n
            a, b = a - n * c, b - n * d
        if abs(tau) < 1.0 - 1e-15:
            tau = -1.0 / tau
            a, b, c, d = -c, -d, a, b
        else:
            break
    else:  # pragma: no cover - the generator walk always terminates
        raise RuntimeError("modulus reduction did not terminate")
    # tie breaking on the boundary of the domain
    if tau.real < -0.5 + 1e-15:
        tau += 1.0
        a, b = a + c, b + d
    if abs(abs(tau) - 1.0) < 1e-15 and tau.real < -1e-15:
        tau = -1.0 / tau
        a, b, c, d = -c, -d, a, b
    assert a * d - b * c == 1
    return tau, ((a, b), (c, d))


def random_tori(count: int, seed: int) -> list[Torus]:
    """Deterministic sample of tori with Re tau in [-1/2, 1/2) and Im tau
    log-uniform in [0.3, 2.5]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = rng.uniform(-0.5, 0.5)
        b = math.exp(rng.uniform(math.log(0.3), math.log(2.5)))
        out.append(make_torus(complex(a, b)))
    return out
