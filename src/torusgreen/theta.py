"""First Jacobi theta function and companions, overflow safe.

Everything downstream (Weierstrass layer, Green function, mean field
solutions) funnels through the evaluations here.  Values travel as
LogComplex, a (log magnitude, argument) pair, because the quasi period
factors overflow doubles long before the geometry gets interesting.

theta1 is summed in exponential form,

    theta1(z; tau) = -i * sum_n (-1)^n q^((n+1/2)^2) e^((2n+1) pi i z),
    q = e^(pi i tau),

after reducing z modulo the lattice so |Im z| <= Im(tau)/2; the discarded
translation comes back as an exact log space factor.  The terms n >= 0
and n < 0 are two running products of ratios, so a point costs four
complex exps whatever the number of terms; no factor that can overflow
(e^(i pi z) itself) is ever formed, and no value built exceeds
e^(pi Im tau / 4).  Derivative series are weighted sums over the same
terms, taken about the log derivative i pi of the largest term, so the
second and third logarithmic derivatives keep their relative precision
where that term dominates (the half periods tau/2 and (1+tau)/2 at large
Im tau, where L2 is O(e^(-pi Im tau))).

The series is summed only for 1/2 <= Im tau <= MAX_IM_TAU (at most 8
terms a side); below that _eval raises UnreducedModulus, above it
InvalidInput.  The Green function and the Weierstrass layer run every
pass in the reduced frame of lattice.Torus, at Im tau_r >= sqrt(3)/2 (6
or 7 terms), and carry the results back by exact laws.  theta1 is not a function of the lattice alone, so
theta1(z, torus) sums at the torus's own tau.

One kernel, _eval, returns log|theta1|, arg theta1 and the logarithmic z
derivatives L1, L2, L3 from one series pass; theta1, the Weierstrass
layer and the Green function (green.evaluate, green.residual_and_jacobian)
all read from it.  It always sums a flat array, so a point gives the same
bits alone as inside a batch, and sums it in runs of at most _RUN points,
so the series of a pass of any size works in about half a megabyte.  A
batch may carry one tau per point (the tori of a moduli scan): it runs
to the largest term count among them, each point's terms past its own
count are exact zeros, and the powers of q are formed once per distinct
tau, so a point still gets the bits of a pass at its own tau.  For a
single modulus they are cached (_q_powers), as every pass on one torus
sums at its tau_r.  There is no separate series for the theta nulls:
theta2, theta3 and theta4 at 0 are theta1 at the half periods up to
exact factors, and the one pass there that serves the Green function
gives them, theta1'(0), eta1 and the e_k too (weier._half_period_pass).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInput, UnreducedModulus
from .lattice import Torus, split_coords

# past this Im tau the first term e^(i pi (z0 + tau/4)) of a real z0, of
# size e^(-pi Im tau / 4), leaves the normal float64 range (at about 902)
MAX_IM_TAU = 900.0
# points per run of the series in one pass of _eval
_RUN = 1024


def _check_im(b: float) -> None:
    """InvalidInput past MAX_IM_TAU (NaN included), where the series
    underflows and its log magnitudes and ratios go wrong."""
    if not b <= MAX_IM_TAU:
        raise InvalidInput(f"theta series asked for at Im tau = {b}, above {MAX_IM_TAU}, "
                           "where its terms leave the float64 range")


def _term_count_z(b: float) -> int:
    """Terms needed by the z series at the worst reduced argument |Im z| = b/2."""
    n = math.sqrt(0.25 + 43.8 / (math.pi * b)) + 0.5
    return max(6, math.ceil(n) + 2)


# exponents of u_0, d_0 and the first ratios of both halves, per z0 and tau
_LEAD_Z = (1j * np.pi) * np.array([[1.0], [-1.0], [2.0], [-2.0]])
_LEAD_TAU = (1j * np.pi) * np.array([[0.25], [0.25], [2.0], [2.0]])
# the term count at Im tau = 1/2 (8) bounds every pass of _eval
_K = np.arange(_term_count_z(0.5))
# real weights (half, moment, k) of the moments about i pi: the term n = k
# has z derivative factor i pi (2k + 1), i pi + 2 pi i k; the term n = -1-k,
# which enters the sum as -d_k, has -i pi (2k + 1), i pi - pi i (2k + 2)
_U = 2.0 * np.pi * _K
_D = np.pi * (2.0 * _K + 2.0)
_WEIGHTS = np.array([[np.ones(_K.size), _U, _U ** 2, _U ** 3],
                     [-np.ones(_K.size), _D, -_D ** 2, _D ** 3]])
# the powers of i that the real weights leave out, times the -i of theta1
_PHASES = np.array([[-1j], [1.0], [1j], [-1.0]])


@dataclass(frozen=True)
class LogComplex:
    """A complex value exp(log_mag + i*arg); arg is not normalized.

    log_mag == -inf is the sentinel for an exact zero (theta1 at a lattice
    point, sigma at a lattice point); both fields are finite otherwise.
    """

    log_mag: float
    arg: float

    @property
    def value(self) -> complex:
        return cmath.exp(complex(self.log_mag, 0.0)) * cmath.exp(1j * self.arg) \
            if np.isscalar(self.log_mag) or np.ndim(self.log_mag) == 0 \
            else np.exp(self.log_mag + 1j * np.asarray(self.arg))

    @property
    def is_zero(self):
        return np.isneginf(self.log_mag)


@lru_cache(maxsize=256)
def _q_powers(tau: complex, nterms: int) -> np.ndarray:
    """-q^(2k) for k < nterms - 1 at one modulus, formed once per modulus
    (read only): every pass on a torus sums at the same tau_r."""
    q2k = -np.exp((2j * np.pi * tau) * _K[:nterms - 1, None])
    q2k.flags.writeable = False
    return q2k


def _series(z0, tau, nterms: int):
    """theta1 at reduced arguments and its z derivative moments about i pi.

    z0 is a 1-D array with |Im z0| <= Im(tau)/2, tau one modulus or one
    per point.  With one per point, nterms is the largest term count of
    the batch, and the terms of a point past its own count
    (_term_count_z of its Im tau) are exact zeros, so it gets the same
    sums as in a pass at its own tau alone.  Returns the rows
    (th0, s1, s2, s3) of one array: th0 = theta1(z0) and
    sj = e^(i pi z) d^j/dz^j (e^(-i pi z) theta1(z)) at z0, the termwise
    sums -i sum_n a_n ((2n+1) pi i - pi i)^j.  The term n = 0, the largest
    wherever Im z0 <= 0, drops out of every sj, so the logarithmic
    derivatives built from them do not cancel it against itself: at
    tau/2, where L2 is O(e^(-pi Im tau)), th2/th0 - (th1/th0)^2 from plain
    derivatives is a difference of two O(1) numbers.

    With m = 2k + 1 the terms n = k and n = -1-k of the sum are u_k and
    -d_k, where u_k = (-1)^k q^((k+1/2)^2) e^(i pi m z0) and d_k is u_k
    at -z0.  Each half is a running product of ratios:

        u_0 = e^(i pi (z0 + tau/4)),   u_(k+1) = u_k r q^(2k),
        r = -e^(2 i pi (tau + z0)),

    and likewise for d with -z0, so a point costs four exps.  Neither
    e^(i pi z0) nor its square is formed on its own (they overflow near
    Im tau = 450 and 225): |r q^(2k)| <= e^(-pi Im tau) and no value
    built exceeds e^(pi Im tau / 4), the bound of the terms themselves.
    The terms sit as (half, k, point) and the products run along k in
    order; the moments are summed over both halves and k with signed
    real weights on the float view (half, k, 2 point).  Every product and
    sum keeps its order for every point, so a point gives the same bits
    alone as inside a batch.
    """
    z0 = np.asarray(z0, dtype=complex)
    # u_0, d_0 and the first ratios of both halves, from one exp call
    lead = np.exp(_LEAD_Z * z0 + _LEAD_TAU * tau)
    terms = np.empty((2, nterms, z0.size), dtype=complex)
    terms[:, 0] = lead[:2]
    if np.ndim(tau):
        # the powers of q and the term count once per distinct modulus
        taus, inv = np.unique(tau, return_inverse=True)
        counts = np.array([_term_count_z(x.imag) for x in taus.tolist()])[inv]
        q2k = -np.exp((2j * np.pi * taus) * _K[:nterms - 1, None])[:, inv]
    else:
        q2k = _q_powers(complex(tau), nterms)
    np.multiply(lead[2:, None], q2k, out=terms[:, 1:])
    np.multiply.accumulate(terms, axis=1, out=terms)
    if np.ndim(tau) and counts.min(initial=nterms) < nterms:
        terms[:, _K[:nterms, None] >= counts] = 0.0
    # np.einsum without optimize runs its own loops, never BLAS, and
    # accumulates along k in order for every point
    moments = np.einsum("hik,hkj->ij", _WEIGHTS[:, :, :nterms], terms.view(float))
    return moments.view(complex) * _PHASES


def _series_in_runs(z0, tau, nterms: int):
    """_series over at most _RUN points at a time, into one array.

    A run's terms and moments, about 420 bytes a point, bound the working
    set of a pass whatever its size; a point gets the same bits in any
    run.
    """
    if z0.size <= _RUN:
        return _series(z0, tau, nterms)
    th = np.empty((4, z0.size), dtype=complex)
    for a in range(0, z0.size, _RUN):
        run = slice(a, a + _RUN)
        th[:, run] = _series(z0[run], tau[run] if np.ndim(tau) else tau, nterms)
    return th


def _eval(z, tau):
    """Wrap z, run the series, reattach the translation factor in log space.

    tau is one modulus, or one per point of z (same shape): each point
    then gets the same bits as in a pass at its own tau.  Returns
    (log_mag, arg, L1, L2, L3) where Lk is the k-th logarithmic z
    derivative of theta1 at z; arrays follow the shape of z.  Raises
    UnreducedModulus for Im tau < 1/2: callers sum in a reduced frame.
    """
    # always evaluate a 1-D array: numpy's scalar complex products round
    # differently from its array loops, and a point must give the same bits
    # alone as inside a batch
    shape = np.shape(z)
    low = high = tau
    if np.ndim(tau):
        tau = np.reshape(tau, -1)
        # the term count falls with Im tau, so the lowest point sets it
        low, high = (tau[tau.imag.argmin()], tau[tau.imag.argmax()]) if tau.size else (1j, 1j)
    if not low.imag >= 0.5:
        raise UnreducedModulus(f"theta series asked for at tau = {low}, below Im tau = 1/2")
    _check_im(high.imag)
    t, s, m, n = split_coords(np.reshape(z, -1), tau)
    z0 = t + s * tau
    # theta1 is odd: sum at -z0 where Im z0 > 0, so the largest term of the
    # series at the summed point is always n = 0
    flip = s > 0.0
    th = _series_in_runs(np.where(flip, -z0, z0), tau, _term_count_z(low.imag))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r1, r2, r3 = th[1:] / th[0]
        L2 = r2 - r1 * r1
        L3 = r3 - r1 * (r2 + 2.0 * L2)
        L1 = r1 + 1j * np.pi
        L1 = np.where(flip, -L1, L1)
        L3 = np.where(flip, -L3, L3)
        log_mag = np.log(np.abs(th[0]))
        arg = np.angle(th[0]) + np.pi * (m + flip)
    if n.any():
        # the translation factor; where n == 0 it adds exact zeros, so a
        # point gets the same bits whichever branch its batch takes
        log_mag = log_mag + (np.pi * tau.imag) * n * (n + 2.0 * s)
        arg = arg + np.pi * (n - n * (tau.real * n + 2.0 * z0.real))
        L1 = L1 - (2j * np.pi) * n
    hit = z0 == 0.0
    if hit.any():
        # exactly reduced lattice points: the sum is an exact zero in theory
        # but roundoff leaves ~1e-16 debris, so snap to the sentinel
        log_mag = np.where(hit, -np.inf, log_mag)
        arg = np.where(hit, 0.0, arg)
        L1 = np.where(hit, complex(np.nan, np.nan), L1)
        L2 = np.where(hit, complex(np.nan, np.nan), L2)
        L3 = np.where(hit, complex(np.nan, np.nan), L3)
    return tuple(out.reshape(shape) for out in (log_mag, arg, L1, L2, L3))


def _scalarize(x):
    arr = np.asarray(x)
    return arr.item() if arr.ndim == 0 else arr


def theta1(z, torus: Torus) -> LogComplex:
    """theta1(z; tau) in log form at the torus's own tau (Im tau >= 1/2);
    exact zeros become the -inf sentinel."""
    lm, ar, *_ = _eval(z, torus.tau)
    return LogComplex(_scalarize(lm), _scalarize(np.where(np.isneginf(lm), 0.0, ar)))
