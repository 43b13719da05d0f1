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
and n < 0 are two running products of ratios from four leads, so a
point costs four real exps, one cos and one sin whatever the number of
terms: the leads' phases are e^(i pi Re z) and its square, their
conjugates, and phases of the modulus; no factor that can overflow
(e^(i pi z) itself) is ever formed, and no value built exceeds
e^(pi Im tau / 4).  Derivative series are
weighted sums over the same terms, taken about the log derivative i pi
of the largest term, so the second and third logarithmic derivatives
keep their relative precision where that term dominates (the half
periods tau/2 and (1+tau)/2 at large Im tau, where L2 is
O(e^(-pi Im tau))).

The series is summed only for 1/2 <= Im tau <= MAX_IM_TAU (at most 8
terms a side); below that _eval raises UnreducedModulus, above it
InvalidInput.  The Green function and the Weierstrass layer run every
pass in the reduced frame of lattice.Torus, at Im tau_r >= sqrt(3)/2 (6
or 7 terms), and carry the results back by exact laws.  theta1 is not a
function of the lattice alone, so theta1(z, torus) sums at its own tau.

One kernel, _eval, returns log|theta1|, arg theta1 and the logarithmic z
derivatives L1, L2, L3 from one series pass; theta1, the Weierstrass
layer and the Green function (green.evaluate, green.residual_and_jacobian)
all read from it.  A caller that reads less says so (reads: LOG_MAG for
log|theta1| alone, as green_rel and mfe's 8 pi u and v do, LOG_MAG_L1
for it and L1, as the 4 pi ones do), and the pass sums only the moments
those need and gets their bits of a full pass.  It always sums a flat
array, so a point gives the same bits alone as inside a batch, and sums
it in runs of at most _RUN points, each finished into its outputs before
the next, so the series of a pass of any size works in about half a
megabyte.  A pass can add the values at a stencil's offsets of every
point: the term n at z + d is the term at z times e^((2n+1) pi i d), so
a neighbour is a weighted sum over the terms of its centre's pass.  A
batch may carry one tau per point (the tori of a moduli scan): it runs
to the largest term count among them, each point's terms past its own
count are exact zeros, and its factors in tau alone are formed per point
by the arithmetic of a pass at its own tau, so it still gets that pass's
bits.  For a single modulus they are cached (_q_powers), as every pass
on one torus sums at its tau_r.  The theta nulls have a series of their
own in q alone, nulls, from which the Weierstrass constants and the Green
function at the half periods follow in closed form, with no _eval pass.
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


def _term_count_z(b):
    """Terms needed at the worst reduced argument |Im z| = b/2, b a float or an array."""
    if isinstance(b, np.ndarray):
        return np.maximum(6, np.ceil(np.sqrt(0.25 + 43.8 / (np.pi * b)) + 0.5) + 2)
    return max(6, math.ceil(math.sqrt(0.25 + 43.8 / (math.pi * b)) + 0.5) + 2)


# the leads (ratio, first term) x (u half, d half) of _series: the
# coefficients of Im z0 in their real exponents, and their exponents' parts
# in tau, formed once per modulus (_modulus_rows)
_LEAD_Y = -np.pi * np.array([[[2.0], [-2.0]], [[1.0], [-1.0]]])
_LEAD_TAU = (1j * np.pi) * np.array([[[2.0], [2.0]], [[0.25], [0.25]]])
# what a pass of _eval returns, by the moments its series sums:
# log|theta1| alone, log|theta1| and L1, or all five outputs
LOG_MAG, LOG_MAG_L1, ALL = 1, 2, 4
# the term count at Im tau = 1/2 (8) bounds every pass of _eval
_K = np.arange(_term_count_z(0.5))
# real weights (moment, (k, half)) of the moments about i pi per term count:
# the term n = k has z derivative factor i pi (2k + 1), i pi + 2 pi i k; the
# term n = -1-k, which enters as -d_k, has -i pi (2k + 1), i pi - pi i (2k + 2)
_U = 2.0 * np.pi * _K
_D = np.pi * (2.0 * _K + 2.0)
_WEIGHTS = np.array([[np.ones(_K.size), _U, _U ** 2, _U ** 3],
                     [-np.ones(_K.size), _D, -_D ** 2, _D ** 3]]).transpose(1, 2, 0)
# indexed [term count][reads]: the first reads moments
_WEIGHTS = [[_WEIGHTS[:, :n].reshape(4, 2 * n)[:r] for r in range(5)] for n in range(_K.size + 1)]
# the powers of i that the real weights leave out, times the -i of theta1
_PHASES = [np.array([[-1j], [1.0], [1j], [-1.0]])[:r] for r in range(5)]


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


def _modulus_rows(taus: np.ndarray, nterms: int):
    """The factors of _series in tau alone, a column per entry of taus: the
    tau parts of the real lead exponents, the phases e^(2 pi i Re tau) of
    the ratios and e^(i pi Re tau / 4) of the first terms, and -q^(2k) for
    k < nterms - 1 by a product along k of flat rows (numpy rounds (1, 1)
    rows another way)."""
    ratio = np.full((nterms - 1, 1, taus.size), -1.0, dtype=complex)
    q2 = np.exp((2j * np.pi) * taus)
    for prev, row in zip(ratio[:, 0], ratio[1:, 0]):
        np.multiply(prev, q2, row)
    lead_tau = _LEAD_TAU * taus
    # the u and d halves share their phases
    return lead_tau.real, np.exp(1j * lead_tau.imag[:, :1]), ratio


@lru_cache(maxsize=256)
def _q_powers(tau: complex, nterms: int):
    """_modulus_rows of one modulus, once per modulus, as a torus sums at its tau_r."""
    rows = _modulus_rows(np.array([tau]), nterms)
    for row in rows:
        row.flags.writeable = False
    return rows


def _series(z0, tau, nterms: int, reads: int = ALL, turns=None):
    """theta1 at reduced arguments and its z derivative moments about i pi.

    z0 is a 1-D array with -Im(tau)/2 <= Im z0 <= 0, tau one modulus or an
    array with one per point; then nterms is the largest term count of
    the batch, and the terms of a point past its own count are exact
    zeros, so it gets the sums of a pass at its own tau alone.  Returns
    the first reads rows of (th0, s1, s2, s3), one array: th0 = theta1(z0) and
    sj = e^(i pi z) d^j/dz^j (e^(-i pi z) theta1(z)) at z0, the termwise
    sums -i sum_n a_n ((2n+1) pi i - pi i)^j.  The term n = 0, the largest
    wherever Im z0 <= 0, drops out of every sj, so the logarithmic
    derivatives built from them do not cancel it against itself: at
    tau/2, where L2 is O(e^(-pi Im tau)), th2/th0 - (th1/th0)^2 from plain
    derivatives is a difference of two O(1) numbers.

    The terms n = k and n = -1-k are u_k and -d_k, u_k = (-1)^k
    q^((k+1/2)^2) e^((2k+1) pi i z0) and d_k that at -z0, and each half
    is a running product, u_(k+1) = u_k r q^(2k), from the leads
    u_0 = e^(i pi (z0 + tau/4)) and r = -e^(2 pi i (tau + z0)), and
    likewise for d with -z0.  A lead is its exponent's complex exp split by
    hand: the real exp of the real part, times a phase built from one cos
    and one sin a point, E = e^(i pi Re z0), as E (u_0), E^2 (the ratio of
    u), their conjugates (the d half) and the phases of the modulus (numpy's
    complex exp is a scalar loop, its real exp a vector one, and its cos
    and sin cost a dozen real exps each).  So a point costs four real exps,
    one cos and one sin.  The phases in tau turn the leads, not the sums:
    multiplied into the sums afterwards, they round th0 and the sj apart
    and double the typical error of the small real part of L2 at
    (1+tau)/2 on Re tau = 1/2.  e^(i pi z0), which overflows near
    Im tau = 450, is never formed: no lead exceeds e^(pi Im tau / 4), the
    bound of the terms.  The terms sit as (k, half, point) after the
    ratios, so each product of the recurrence multiplies contiguous rows,
    and the moments are one weighted sum over (k, half) on the float view;
    the rows past reads are not summed.  Every product and sum keeps its
    order for every point and every reads, so a point gives the same bits
    alone as inside a batch, and a row the same bits whatever rows follow.
    With the weights turns of _neighbour_rows it also returns their even
    and odd sums over the same terms, each (reads, pair, point).
    """
    z0 = np.asarray(z0, dtype=complex)
    if isinstance(tau, np.ndarray):
        lead_tau, phase, ratio = _modulus_rows(tau, nterms)
        ratio[:, 0][_K[1:nterms, None] >= _term_count_z(tau.imag)] = 0.0
    else:
        lead_tau, phase, ratio = _q_powers(complex(tau), nterms)
    # row 0: the ratios of both halves; rows 1 to nterms: the terms
    terms = np.empty((nterms + 1, 2, z0.size), dtype=complex)
    # E = e^(i pi Re z0) in u_0's place and E^2 in the ratio's of u, their
    # conjugates in d's, each turned by its phase in tau and scaled by the
    # real exp of its exponent's real part
    unit = terms[1, 0]
    arc = np.pi * z0.real
    np.cos(arc, unit.real)
    np.sin(arc, unit.imag)
    np.multiply(unit, unit, terms[0, 0])
    np.conjugate(terms[:2, 0], terms[:2, 1])
    terms[:2] *= phase
    lead = terms[:2].view(float).reshape(2, 2, z0.size, 2)
    lead *= np.exp(_LEAD_Y * z0.imag + lead_tau)[..., None]
    np.multiply(terms[0], ratio, terms[2:])
    for prev, row in zip(terms[1:], terms[2:]):
        np.multiply(prev, row, row)
    # np.einsum without optimize runs its own loops, never BLAS, and
    # accumulates along (k, half) in order for every point
    flat = terms[1:].view(float).reshape(2 * nterms, -1)
    sums = np.einsum("ik,kj->ij", _WEIGHTS[nterms][reads], flat).view(complex) * _PHASES[reads]
    if turns is None:
        return sums
    pairs = np.einsum("ik,kj->ij", turns, flat).view(complex).reshape(reads, 2, -1, z0.size)
    pairs *= _PHASES[reads][:, :, None, None]
    return sums, pairs[:, 0], pairs[:, 1]


def _run(z, tau, nterms: int, reads: int, rows=None):
    """_eval's outputs at a flat run z of at most _RUN points, tau one
    modulus or one per point of the run, and rows (_neighbour_rows)."""
    t, s, m, n = split_coords(z, tau)
    # theta1 is odd: sum at -z0 where Im z0 > 0, so the largest term of the
    # series at the summed point is always n = 0; L1 and L3 are odd too
    flip = s > 0.0
    z0 = t + s * tau
    np.negative(z0, z0, where=flip)
    if rows is None:
        th = _series(z0, tau, nterms, reads)
    else:
        weights, factor, shift = rows
        centre, even, odd = _series(z0, tau, nterms, reads, weights)
        # a flipped point's neighbour at z + d is -theta1 at z0 - d, E - i O
        np.negative(odd, odd, where=flip)
        th = np.empty((reads, 1 + 2 * factor.size, z0.size), dtype=complex)
        th[:, 0] = centre
        np.multiply(odd, factor, th[:, 1::2])
        np.subtract(even, th[:, 1::2], th[:, 2::2])
        th[:, 1::2] += even
        s = s + shift
    arg = L1 = L2 = L3 = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_mag = np.log(np.abs(th[0]))
        if reads > LOG_MAG:
            r1, *r23 = th[1:] / th[0]
            # L1 and, where reads is ALL, L3 in one array, negated at once
            odd = np.empty((1 + (reads == ALL),) + r1.shape, dtype=complex)
            L1 = np.add(r1, 1j * np.pi, odd[0])
        if reads == ALL:
            r2, r3 = r23
            L2 = r2 - r1 * r1
            L3 = np.subtract(r3, r1 * (r2 + (L2 + L2)), odd[1])
            arg = np.arctan2(th[0].imag, th[0].real) + np.pi * (m + flip)
    if reads > LOG_MAG:
        np.negative(odd, odd, where=flip)
    if np.count_nonzero(n):
        # the translation factor (a neighbour's at its s); where n == 0 it
        # adds exact zeros, so a point gets the same bits in either branch
        log_mag = log_mag + (np.pi * np.imag(tau)) * n * (n + 2.0 * s)
        if arg is not None:
            arg = arg + np.pi * (n - n * (np.real(tau) * n + 2.0 * (t + s * np.real(tau))))
        if L1 is not None:
            L1 = L1 - (2j * np.pi) * n
    out = (log_mag, arg, L1, L2, L3)
    hit = z0 == 0.0
    if np.count_nonzero(hit):
        # exactly reduced lattice points: the sum is an exact zero in theory
        # but roundoff leaves ~1e-16 debris, so snap centres to the sentinel
        if rows is not None:
            hit = hit & (np.arange(th.shape[1]) == 0)[:, None]
        nan = complex(np.nan, np.nan)
        out = tuple(None if x is None else np.where(hit, v, x)
                    for v, x in zip((-np.inf, 0.0, nan, nan, nan), out))
    return out


def _eval(z, tau, reads: int = ALL, offsets=None):
    """Wrap z, run the series, reattach the translation factor in log space.

    tau is one modulus, or one per point of z (same shape): each point
    then gets the same bits as in a pass at its own tau.  Returns
    (log_mag, arg, L1, L2, L3) where Lk is the k-th logarithmic z
    derivative of theta1 at z; arrays follow the shape of z.  reads names
    what the caller reads: LOG_MAG (log_mag), LOG_MAG_L1 (log_mag and L1)
    or ALL; the outputs it leaves out are None and are never summed, and
    those it names get the bits of a pass that reads ALL.  Raises
    UnreducedModulus for Im tau < 1/2: callers sum in a reduced frame.

    offsets (d1, -d1, d2, -d2, ...), each real or imaginary, adds rows on
    one modulus for LOG_MAG or LOG_MAG_L1: a leading axis, row 0 the centre
    with the bits of a pass without offsets, row j z + offsets[j - 1], a
    weighted sum over the centre's terms (_neighbour_rows) translated at
    its own s.  The first term left out, e^(-pi b (K^2 + K) + 2 pi K y) of
    n = 0 at |Im z0| = y with K terms a side, is at most e^(-pi b K^2 +
    2 pi K |Im d|) there; _term_count_z spares two terms, pi b (K'^2 - K')
    >= 43.8 at K' = K - 2, and K^2 - K/2 - (K'^2 - K') = 9K/2 - 6 > 0, so
    |Im d| <= b/4, checked, keeps that below e^(-43.8).
    """
    # always evaluate a 1-D array: numpy's scalar complex products round
    # differently from its array loops, and a point must give the same bits
    # alone as inside a batch
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    per_point = isinstance(tau, np.ndarray) and tau.ndim
    if per_point:
        tau = tau.reshape(-1)
        # the term count falls with Im tau, so the lowest point sets it
        low, high = (tau[tau.imag.argmin()], tau[tau.imag.argmax()]) if tau.size else (1j, 1j)
    else:
        low = high = tau = complex(tau)
    if not low.imag >= 0.5:
        raise UnreducedModulus(f"theta series asked for at tau = {low}, below Im tau = 1/2")
    _check_im(high.imag)
    nterms = _term_count_z(low.imag)
    rows = None if offsets is None else _neighbour_rows(offsets, tau, nterms, reads, per_point)
    z = z.reshape(-1)
    # runs of at most _RUN points, each taken from z to its outputs before
    # the next, bound the working set of a pass whatever its size; a point
    # gets the same bits in any run
    runs = [_run(z[a:a + _RUN], tau[a:a + _RUN] if per_point else tau, nterms, reads, rows)
            for a in range(0, max(z.size, 1), _RUN)]
    out = runs[0] if len(runs) == 1 else tuple(
        None if x[0] is None else np.concatenate(x, axis=-1) for x in zip(*runs))
    return out if len(shape) == 1 and rows is None else tuple(
        None if x is None else x.reshape(x.shape[:-1] + shape) for x in out)


def _neighbour_rows(offsets, tau, nterms: int, reads: int, per_point):
    """_run's weights, O factors and s shifts for _eval's offsets: theta1
    at z0 +- d is E +- i O, the series at z0 with the terms n = k and -1-k
    weighted by cos((2k+1) pi d) and +-sin((2k+1) pi d), real for a real d
    and real or i times real for an imaginary one (O's factor i or -1), so
    a pair +-d costs two real weighted sums on the float view."""
    d = np.asarray(offsets, dtype=complex).reshape(-1)
    pairs = d[::2]
    if per_point or reads > LOG_MAG_L1 or not np.array_equal(d[1::2], -pairs) \
            or np.any(d.real * d.imag) or not np.abs(d.imag).max(initial=0.0) <= tau.imag / 4.0:
        raise ValueError(f"neighbour rows take one modulus, reads up to LOG_MAG_L1 and offsets "
                         f"(d1, -d1, ...), real or imaginary, |Im| <= Im tau / 4: {offsets}")
    arc = np.pi * (2.0 * _K[:nterms] + 1.0) * pairs[:, None]
    sin = np.sin(arc)
    even_odd = np.repeat([np.cos(arc).real, sin.real + sin.imag], 2, axis=2)
    # the term n = -1-k turns by e^(-(2k+1) pi i d)
    even_odd[1, :, 1::2] *= -1.0
    weights = (_WEIGHTS[nterms][reads][:, None, None] * even_odd).reshape(-1, 2 * nterms)
    return (weights, np.where(pairs.imag == 0.0, 1j, -1.0)[:, None],
            np.concatenate([[0.0], d.imag / tau.imag])[:, None])


# the null series sum q^(m^2/4) e^(i pi m z) over odd m (theta2) and even m
# (theta3; theta4 with (-1)^(m/2)); row k of nulls is q^(floor(k^2/4)), the
# term m = k less q^(1/4) where m is odd, and no row past 13 reaches eps of
# its sum from Im tau = 1/2 up
_NULL_K = np.arange(14)
_EVEN = np.where(_NULL_K % 2, 0.0, np.where(_NULL_K, 2.0, 1.0))
_NULL_C = np.array([_NULL_K % 2, _EVEN * (-1.0) ** (_NULL_K // 2), _EVEN])
_NULL_WEIGHTS = np.concatenate([_NULL_C, _NULL_C * (np.pi * _NULL_K) ** 2])
# pi - float(pi), and float(pi) in two halves of 26 bits (Dekker)
_PI_LO = 1.2246467991473532e-16
_PI_HI, _PI_MID = 3.1415926814079285, -2.781813535079891e-08


def nulls(tau: np.ndarray):
    """log theta_j(0) and A_k = -theta_j''(0) / theta_j(0), (k, j) = (1, 2),
    (2, 4), (3, 3), at a 1-D array of moduli, Im tau >= 1/2: two (N, 3)
    arrays in the order of the half periods 1/2, tau/2 and (1+tau)/2.

    The rows are one running product along k, and theta2(0) / 2 q^(1/4),
    theta4(0), theta3(0) and their moments sum (pi m)^2 q^(m^2/4) =
    -theta_j''(0) one weighted sum over k (np.einsum, in order, without
    BLAS), so a modulus gets the same bits alone as in a batch.  A_2 and
    A_3, -+8 pi^2 q and more, keep their relative precision until q
    leaves the float64 range (Im tau of about 226), |q| with the rounding
    of pi Im tau taken back in (Dekker's product; pi Im tau / 2 ulps).
    """
    b = tau.imag
    x = np.pi * b
    c = 134217729.0 * b
    high = c - (c - b)
    # pi b - x exactly, and (pi - float(pi)) b
    x_lo = (((_PI_HI * high - x) + _PI_HI * (b - high) + _PI_MID * high) + _PI_MID * (b - high)
            + _PI_LO * b)
    # cos(pi Re tau) as sin(pi (1/2 - |Re tau|)): q = +-i |q| exactly on
    # Re tau = +-1/2, where Re A_2 and Re A_3 are O(|q|^2)
    q = np.exp(-x) * (1.0 - x_lo) * (np.sin(np.pi * (0.5 - np.abs(tau.real)))
                                     + 1j * np.sin(np.pi * tau.real))
    rows = np.ones((_NULL_K.size, tau.size), dtype=complex)
    ratio = rows[0]
    for k in range(1, _NULL_K.size):
        # row k is row k - 1 times q^ceil((k - 1)/2)
        np.multiply(rows[k - 1], ratio, rows[k])
        ratio = ratio * q if k % 2 else ratio
    sums = np.einsum("ik,kj->ij", _NULL_WEIGHTS, rows.view(float)).view(complex)
    # np.log of a complex near 1 takes a slow careful path; |theta_j(0)| is
    # within 0.14 of 1 at Im tau >= sqrt(3)/2, where eps absolute serves
    log_nulls = np.log(np.abs(sums[:3])) + 1j * np.angle(sums[:3])
    log_nulls[0] += math.log(2.0) + (0.25j * np.pi) * tau
    return log_nulls.T, (sums[3:] / sums[:3]).T


def _scalarize(x):
    arr = np.asarray(x)
    return arr.item() if arr.ndim == 0 else arr


def theta1(z, torus: Torus) -> LogComplex:
    """theta1(z; tau) in log form at the torus's own tau (Im tau >= 1/2);
    exact zeros become the -inf sentinel."""
    lm, ar, *_ = _eval(z, torus.tau)
    return LogComplex(_scalarize(lm), _scalarize(np.where(np.isneginf(lm), 0.0, ar)))
