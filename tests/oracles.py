"""Independent reference implementations used to freeze expected values.

Most references here never import the package's theta or Weierstrass
kernels: the theta reference goes through mpmath at 40 digits (its log
derivatives only up to Im tau = 20, past which they lose the half-period
values), the theta nulls and their A_k are their q-series summed term by
term at 200 digits, the wp reference is a row grouped lattice sum over
cotangent rows, the Kronecker limit reference for C(tau) is mpmath's eta
product, and the theta series with one exp per term is the package's
kernel before its term recurrence.  Four routes do call the package, to
check it by a different method: the two Green constant quadratures
average the package's G over the cell (one splits off log|sin|, the
other patches a disk over the singularity), the developing map reference
integrates the package's wp along an adaptive contour, and the rhombus
line route finds the extra critical point by scalar Newton on the
package's G along its locus.  Tests compare the fast float kernels
against these and against values frozen from them.  The CLI's canonical
JSON has a reference too: the plain recursive serializer that the
package's single-join one replaced.  Routes that left the package live
here for the tests that compare with them: the developing map f and f'
of the 8 pi construction from sigma and wp; the census of one torus,
multi-start Newton from a seed grid with a second-order damped Newton of
its own (the package's before its third-order step), the second route
to the count and to z0, against which the sign rule and
the pitchfork seed are checked; the mean field check one grid row at a
time, which the package's walk in blocks of rows must equal field for
field; the Weierstrass invariants from a theta pass of their own at the
reduced half periods, before the theta-null sum gave them; and, on the
rhombic line, the two real theta series, the five point stencil of
e1 + eta1 and the bracketed bisection for b0 and b1, the second route of
moduli's closed form; and a scan report's rows as dicts, and its flip
edges from a loop over the grid, which the CLI's row formats and
moduli's array comparisons replaced.  The oracles raise their own error
types.
"""

from __future__ import annotations

import cmath
import io
import math

import mpmath as mp
import numpy as np

from torusgreen import weier
from torusgreen.errors import NonPositiveImaginaryPart, Unconverged
from torusgreen.lattice import make_torus
from torusgreen.theta import _check_im, _term_count_z

mp.mp.dps = 40


# the oracles' own failures; the package raises none of them
class BracketFailure(Exception):
    """A root bracket did not enclose a sign change."""


class NoConvergence(Exception):
    """An oracle's Newton sweeps or searches did not settle."""


class NotInExtraRegime(Exception):
    """The rhombic torus has only the three half period critical points."""


class PrecisionLost(Exception):
    """An mpmath route was asked for where it loses the values it gives."""


# past this Im tau mpmath's jtheta derivatives at 40 digits lose the
# O(e^(-pi Im tau)) log derivatives at the half periods: (log theta1)'' at
# tau/2 is off by 1.7e-15 relative at 20i, 1.8e-8 at 25i and 7e-3 at 30i
# (at 100i it reads 4.68e-135 where the sum gives 2.88e-135)
MP_LOGDERIV_MAX_IM_TAU = 20.0


def _mp_logderiv_domain(tau) -> None:
    if not mp.im(mp.mpc(tau)) <= MP_LOGDERIV_MAX_IM_TAU:
        raise PrecisionLost(f"mpmath theta log derivatives asked for at Im tau = "
                            f"{float(mp.im(mp.mpc(tau)))}, above {MP_LOGDERIV_MAX_IM_TAU}")


def mp_theta1(z: complex, tau: complex):
    """theta1(z; tau) as an mpmath complex, same convention as the package:
    2 sum (-1)^n q^{(n+1/2)^2} sin((2n+1) pi z) with q = e^{i pi tau}."""
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    return mp.jtheta(1, mp.pi * mp.mpc(z), q)


def mp_theta1_dz(z: complex, tau: complex, order: int = 1):
    """d^k/dz^k theta1(z; tau); mpmath differentiates in w = pi z."""
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    return mp.jtheta(1, mp.pi * mp.mpc(z), q, derivative=order) * mp.pi ** order


def mp_log_theta1(z: complex, tau: complex) -> tuple[float, float]:
    """(log|theta1|, arg theta1) via mpmath."""
    v = mp_theta1(z, tau)
    return float(mp.log(abs(v))), float(mp.arg(v))


def _mp_log_theta1_dz2(z, tau):
    """(log theta1)''(z; tau) as an mpmath complex, at full working
    precision; PrecisionLost past MP_LOGDERIV_MAX_IM_TAU."""
    _mp_logderiv_domain(tau)
    t0 = mp_theta1(z, tau)
    t1 = mp_theta1_dz(z, tau, 1)
    t2 = mp_theta1_dz(z, tau, 2)
    return t2 / t0 - (t1 / t0) ** 2


def mp_theta1_logderiv2_series(z: complex, tau: complex, dps: int = 0):
    """(log theta1)''(z; tau) as an mpmath complex from the exp-per-term sum,
    at a working precision that resolves its O(e^(-pi Im tau)) values at the
    half periods, or at dps digits; mpmath's theta derivatives lose those
    past Im tau of about 30 (at 100i they read 4.68e-135 where the sum
    gives 2.88e-135 = 8 pi^2 q)."""
    with mp.workdps(dps or int(math.pi * tau.imag / math.log(10)) + 40):
        z, tau = mp.mpc(z), mp.mpc(tau)
        sums = [mp.mpc(0)] * 3
        for n in range(-12, 12):
            w = (2 * n + 1) * mp.pi * 1j
            term = (-1) ** n * mp.exp(1j * mp.pi * tau * (n + mp.mpf(1) / 2) ** 2 + w * z)
            sums = [acc + term * w ** j for j, acc in enumerate(sums)]
        return sums[2] / sums[0] - (sums[1] / sums[0]) ** 2


def mp_theta1_logderiv(z: complex, tau: complex, order: int = 1) -> complex:
    """(log theta1)' or (log theta1)'' at z, from mpmath derivatives;
    PrecisionLost past MP_LOGDERIV_MAX_IM_TAU."""
    _mp_logderiv_domain(tau)
    if order == 1:
        return complex(mp_theta1_dz(z, tau, 1) / mp_theta1(z, tau))
    return complex(_mp_log_theta1_dz2(z, tau))


def mp_hessian_det(z: complex, tau: complex, dps: int = 60) -> float:
    """det Hess G at z from mpmath theta at dps digits, with no reduction:
    4 pi^2 det = (pi/b)^2 - |L2 + pi/b|^2, L2 = (log theta1)''(z; tau),
    where the working precision absorbs the cancellation of the two terms."""
    with mp.workdps(dps):
        pb = mp.pi / mp.mpf(tau.imag)
        L2 = _mp_log_theta1_dz2(z, tau)
        return float((pb ** 2 - abs(L2 + pb) ** 2) / (4 * mp.pi ** 2))


def mp_eta1(tau: complex) -> complex:
    """Quasi period eta1 = -theta1'''(0) / (3 theta1'(0)), mpmath route."""
    return complex(-mp_theta1_dz(0.0, tau, 3) / (3 * mp_theta1_dz(0.0, tau, 1)))


def mp_rhombic_b1():
    """Upper degeneracy threshold b1 on the rhombic line tau = 1/2 + ib.

    With A(b) = -(log theta1)''(1/2; tau), which is real on this line and
    equals e1 + eta1, the Green function
    G = -(1/2pi) log|theta1(z)| + (Im z)^2 / (2b) + C has
        det Hess G(1/2) = (A / 2pi) (1/b - A / 2pi).
    The half period 1/2 degenerates where A = 0 (the lower threshold b0)
    or where A = 2 pi / b (the upper threshold b1).  b1 is the root of
    A(b) - 2 pi / b, found by mp.findroot from b = 0.7 on mpmath theta
    values; at 40 digits b1 = 0.70476158133245364540562471077735127861...
    """
    def upper(b):
        return mp.re(-_mp_log_theta1_dz2(0.5, mp.mpc(0.5, b))) - 2 * mp.pi / b

    return mp.findroot(upper, mp.mpf("0.7"))


def mp_root_ratio(b):
    """Root ratio |e2/e1|^2 on tau = 1/2 + ib, with e1 = p(1/2) and
    e2 = p(tau/2) from p(z) = -(log theta1)''(z) - eta1 on mpmath theta."""
    tau = mp.mpc(0.5, b)
    eta1 = -mp_theta1_dz(0, tau, 3) / (3 * mp_theta1_dz(0, tau, 1))
    e1 = -_mp_log_theta1_dz2(0.5, tau) - eta1
    e2 = -_mp_log_theta1_dz2(tau / 2, tau) - eta1
    return abs(e2 / e1) ** 2


def mp_theta_nulls(tau: complex, dps: int = 200):
    """(A_k, log theta_j(0)) for (k, j) = (1, 2), (2, 4), (3, 3), two tuples
    of mpmath complexes at dps digits, from the q-series of the nulls summed
    term by term, A_k = -theta_j''(0) / theta_j(0) with the second
    derivative taken termwise: no jtheta and no derivative of mpmath's."""
    with mp.workdps(dps):
        t = mp.mpc(tau.real, tau.imag)
        q = mp.exp(1j * mp.pi * t)
        # |q|^(n^2) under 10^(-dps) from here on
        n_max = int(math.sqrt(dps * math.log(10) / (math.pi * tau.imag))) + 3
        sums = [[mp.mpc(0), mp.mpc(0)] for _ in range(3)]
        for m in range(-2 * n_max - 1, 2 * n_max + 2):
            # q^(m^2/4) e^(i pi m z) at z = 0: theta2 for odd m (q^(1/4) kept
            # apart), theta4 with (-1)^(m/2) and theta3 for even m
            if m % 2:
                terms = [(0, q ** ((m * m - 1) // 4))]
            else:
                term = q ** ((m * m) // 4)
                terms = [(1, (-1) ** (m // 2) * term), (2, term)]
            for j, term in terms:
                sums[j][0] += term
                sums[j][1] += (mp.pi * m) ** 2 * term
        a = tuple(s1 / s0 for s0, s1 in sums)
        logs = (1j * mp.pi * t / 4 + mp.log(sums[0][0]), mp.log(sums[1][0]), mp.log(sums[2][0]))
        return a, logs


def invariants_at_reduced_half_periods(torus) -> dict:
    """The Weierstrass invariants from a theta pass of their own at 1/2,
    tau_r/2 and (1+tau_r)/2, as weier computed them before the theta-null
    sum (from a pass at the points where the Green function summed its
    half periods); the keys are EllipticInvariants fields."""
    from torusgreen.theta import _eval

    tau_r = torus.tau_r
    zs = np.array((0.5, tau_r / 2.0, (1.0 + tau_r) / 2.0), dtype=complex)
    lm, ar, _, L2, _ = _eval(zs, tau_r)
    eta1_r = complex(-L2.sum() / 3.0)
    e_r = -L2 - eta1_r
    quarter = 0.25j * math.pi * tau_r
    log_nulls = lm + 1j * ar + np.array([0.0, quarter - 0.5j * math.pi, quarter])
    (a, b), (c, d) = torus.mat
    lam = torus.lam
    perm = [pt + 2 * ps - 1 for pt, ps in ((a % 2, c % 2), (b % 2, d % 2),
                                           ((a + b) % 2, (c + d) % 2))]
    e1, e2, e3 = (e_r[perm] / (lam * lam)).tolist()
    eta1 = (a * eta1_r - c * (eta1_r * tau_r - 2j * math.pi)) / lam
    return {"e1": e1, "e2": e2, "e3": e3, "eta1": eta1,
            "eta2": eta1 * torus.tau - 2j * math.pi,
            "log_theta1_prime": complex(math.log(math.pi) + log_nulls.sum()),
            "log_abs_nulls_r": tuple(log_nulls.real.tolist())}


# ---------------------------------------------------------------------------
# the rhombic line Re tau = 1/2: the real series, the stencil and the
# bisection that moduli's closed form replaced, kept as its second route


def _term_count_null(b: float) -> int:
    """Terms needed by the q-only series at z = 0."""
    n = math.sqrt(43.8 / (math.pi * b))
    return max(6, math.ceil(n) + 2)


def log_theta1_b_derivs(z: float, b: float) -> tuple[float, float]:
    """d/db and d^2/db^2 of log |theta1(z; 1/2 + i b)| for real z.

    On the rhombic line Re tau = 1/2 the function e^(-i pi/8) theta1(z) is
    real for real z, with the fast real series

        T(z, b) = 2 sum_n (-1)^(n + n(n+1)/2) e^(-pi b (n+1/2)^2) sin((2n+1) pi z),

    so both b derivatives are termwise.  Raises Unconverged when the
    alternating sum cancels too catastrophically, which happens only for
    b far below anything the moduli scans touch.
    """
    if not b > 0.0:
        raise NonPositiveImaginaryPart(f"b = {b} must be positive")
    _check_im(b)
    z = float(z)
    nt = _term_count_z(b) + 4
    n = np.arange(nt)
    tri = (n * (n + 1)) // 2
    sgn = np.where((n + tri) & 1, -1.0, 1.0)
    lam = np.pi * (n + 0.5) ** 2
    p = np.exp(-b * lam)
    sin = np.sin((2 * n + 1) * np.pi * z)
    terms = 2.0 * sgn * p * sin
    total = terms.sum()
    gross = np.abs(terms).sum()
    if total == 0.0 or gross > 1e12 * abs(total):
        raise Unconverged(f"cancellation too severe at z = {z}, b = {b}")
    d1 = (-lam * terms).sum() / total
    d2 = (lam * lam * terms).sum() / total - d1 * d1
    return float(d1), float(d2)


def log_theta3_b_derivs(b: float) -> tuple[float, float]:
    """d/db and d^2/db^2 of log |theta3(0; 1/2 + i b)|.

    On the rhombic line theta3(0) = A + iB with A the even-index and B the
    odd-index part of the null series in r = e^(-pi b); |theta3|^2 = A^2 + B^2
    differentiates termwise.
    """
    if not b > 0.0:
        raise NonPositiveImaginaryPart(f"b = {b} must be positive")
    _check_im(b)
    nt = _term_count_null(b) + 4
    j = np.arange(1, nt)
    ja = 4.0 * j * j            # exponents of the even part
    a_t = np.exp(-np.pi * b * ja)
    k = np.arange(0, nt)
    kb = (2.0 * k + 1.0) ** 2   # exponents of the odd part
    b_t = np.exp(-np.pi * b * kb)
    A = 1.0 + 2.0 * a_t.sum()
    A1 = 2.0 * (-np.pi * ja * a_t).sum()
    A2 = 2.0 * ((np.pi * ja) ** 2 * a_t).sum()
    B = 2.0 * b_t.sum()
    B1 = 2.0 * (-np.pi * kb * b_t).sum()
    B2 = 2.0 * ((np.pi * kb) ** 2 * b_t).sum()
    sq = A * A + B * B
    d1 = (A * A1 + B * B1) / sq
    d2 = (A1 * A1 + A * A2 + B1 * B1 + B * B2) / sq - 2.0 * d1 * d1
    return float(d1), float(d2)


def _q_lower(b: float) -> float:
    inv = weier.invariants(make_torus(complex(0.5, b)))
    return (inv.e1 + inv.eta1).real


def _q_upper(b: float) -> float:
    return _q_lower(b) - 2.0 * math.pi / b


def slope_fd(b: float) -> float:
    """d(e1 + eta1)/db on tau = 1/2 + i b by a five point stencil.

    The step is relative: near b = 0.1 the third derivative of e1 + eta1
    is ~1e7 and a plain central difference at fixed h cannot reach the
    1e-6 bridge tolerance.
    """
    h = 1e-4 * b
    return (-_q_lower(b + 2 * h) + 8.0 * _q_lower(b + h)
            - 8.0 * _q_lower(b - h) + _q_lower(b - 2 * h)) / (12.0 * h)


BRACKET_LO = 0.05
BRACKET_HI = 2.0


def _bisect(fun, lo: float, hi: float, tol: float) -> tuple[float, float]:
    flo = fun(lo)
    fhi = fun(hi)
    if flo == 0.0:
        return lo, 0.0
    if fhi == 0.0:
        return hi, 0.0
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketFailure(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if fm == 0.0:
            return mid, hi - lo
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi), hi - lo


def _bracket(fun, n: int = 100) -> tuple[float, float]:
    """First sign change of fun on a uniform n point sample of the search
    interval; BracketFailure when the sample never changes sign."""
    step = (BRACKET_HI - BRACKET_LO) / (n - 1)
    prev_b = BRACKET_LO
    prev_f = fun(prev_b)
    for k in range(1, n):
        b = BRACKET_LO + k * step
        f = fun(b)
        if prev_f == 0.0 or (prev_f > 0.0) != (f > 0.0):
            return prev_b, b
        prev_b, prev_f = b, f
    raise BracketFailure(
        f"no sign change found in [{BRACKET_LO}, {BRACKET_HI}] over {n} samples"
    )


def thresholds_by_bisection(tol: float = 1e-12) -> tuple[float, float]:
    """b0 and b1, the roots of e1 + eta1 and e1 + eta1 - 2 pi / b, by
    bisection from a 100 sample bracket of [0.05, 2]."""
    return tuple(_bisect(fun, *_bracket(fun), tol)[0] for fun in (_q_lower, _q_upper))


def functional_equation_residual_series(b: float) -> float:
    """|f(1/4b) + 2b + 4 b^2 f(b)| for f(b) = (log|theta1|)_b at z = 1/2,
    from the real series at both moduli."""
    f_b, _ = log_theta1_b_derivs(0.5, b)
    f_dual, _ = log_theta1_b_derivs(0.5, 1.0 / (4.0 * b))
    return abs(f_dual + 2.0 * b + 4.0 * b * b * f_b)


def mp_rhombic_b_derivs(b: float, dps: int = 90) -> tuple[float, float, float]:
    """(-4 pi (log|theta2(0)|)_bb, (log|theta3(0)|)_b, (log|theta3(0)|)_bb)
    on tau = 1/2 + i b, by mpmath differentiation of mpmath theta nulls at
    dps digits, enough to resolve the e^(-2 pi b) values of large b."""
    with mp.workdps(dps):
        def log_null(j, x):
            return mp.log(abs(mp.jtheta(j, 0, mp.exp(1j * mp.pi * mp.mpc(0.5, x)))))

        x = mp.mpf(b)
        return (float(-4 * mp.pi * mp.diff(lambda y: log_null(2, y), x, 2)),
                float(mp.diff(lambda y: log_null(3, y), x)),
                float(mp.diff(lambda y: log_null(3, y), x, 2)))


def _theta_terms(z0, tau: complex, nterms: int):
    """Terms -i (-1)^n q^((n+1/2)^2) e^((2n+1) pi i z0), n = -K .. K-1, one
    complex exp each, and their z derivative factors (2n+1) pi i."""
    n = np.arange(-nterms, nterms)
    half = n + 0.5
    w = (2 * n + 1) * (1j * np.pi)
    z0 = np.asarray(z0, dtype=complex)
    expo = (1j * np.pi * tau) * half * half + w * z0[..., None]
    amp = np.exp(expo)
    amp *= np.where(n & 1, -1.0, 1.0)
    return -1j * amp, w


def theta_series_exp_per_term(z0, tau: complex, nterms: int, center: complex = 0.0):
    """theta1 and the moments of its terms about center at reduced
    arguments z0, with one complex exp per term of

        theta1(z) = -i sum_{n=-K}^{K-1} (-1)^n q^((n+1/2)^2) e^((2n+1) pi i z):

    (th0, s1, s2, s3) with sj = -i sum (-1)^n q^(..) e^(..) ((2n+1) pi i - center)^j.
    At center 0 these are theta1 and its first three z derivatives, which
    the package's series kernel returned before its term recurrence; it
    now returns them at center i pi.  Kept to check that kernel: every term
    exponent assembled before exponentiation, nothing shared between terms.
    """
    amp, w = _theta_terms(z0, tau, nterms)
    w = w - center
    th0 = amp.sum(axis=-1)
    amp = amp * w
    s1 = amp.sum(axis=-1)
    amp = amp * w
    s2 = amp.sum(axis=-1)
    amp = amp * w
    s3 = amp.sum(axis=-1)
    return th0, s1, s2, s3


def theta_series_gross(z0, tau: complex, nterms: int, center: complex = 0.0):
    """sum |term| |(2n+1) pi i - center|^j for j = 0..3, the scale of the
    rounding in each of the four sums of theta_series_exp_per_term."""
    amp, w = _theta_terms(z0, tau, nterms)
    mag = np.abs(amp)
    return tuple((mag * np.abs(w - center) ** j).sum(axis=-1) for j in range(4))


def wp_rowsum(z: complex, tau: complex, n_rows: int = 0) -> complex:
    """Weierstrass p by row grouped lattice summation.

    Each horizontal lattice row sums in closed form to pi^2/sin^2, so
    p(z) = pi^2/sin^2(pi z) - pi^2/3
           + sum_{n != 0} [pi^2/sin^2(pi(z - n tau)) - pi^2/sin^2(pi n tau)].
    The tail decays like e^{-2 pi b |n|}; no theta function involved.
    """
    b = tau.imag
    if n_rows == 0:
        n_rows = max(6, int(40.0 / (2.0 * math.pi * b)) + 3)
    pi = mp.pi
    zz = mp.mpc(z)
    tt = mp.mpc(tau)

    def row(w):
        s = mp.sin(pi * w)
        return pi ** 2 / (s * s)

    total = row(zz) - pi ** 2 / 3
    for n in range(1, n_rows + 1):
        total += row(zz - n * tt) - row(n * tt)
        total += row(zz + n * tt) - row(-n * tt)
    return complex(total)


def wp_prime_rowsum(z: complex, tau: complex, h: float = 1e-6) -> complex:
    """p'(z) by high order central differences of the row sum."""
    vals = [wp_rowsum(z + k * h, tau) for k in (-2, -1, 1, 2)]
    return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)


def green_value_slow(z: complex, tau: complex) -> float:
    """G(z) - C up to the additive constant: -(1/2pi) log|theta1| + b s^2 / 2,
    computed through mpmath so the fast kernel has a second opinion."""
    b = tau.imag
    s = z.imag / b
    s -= math.floor(s + 0.5)
    t = z.real - (z.imag / b) * tau.real
    t -= math.floor(t + 0.5)
    zc = t + s * tau
    lm, _ = mp_log_theta1(zc, tau)
    return -lm / (2.0 * math.pi) + b * s * s / 2.0


def mp_green_constant(tau: complex, dps: int = 30) -> float:
    """C(tau) = (1/2pi) log|eta(tau)| from mpmath's q-Pochhammer product,
    eta(tau) = e^{i pi tau / 12} prod_{n >= 1} (1 - e^{2 pi i n tau}), with
    no modular reduction."""
    with mp.workdps(dps):
        t = mp.mpc(tau)
        q = mp.exp(2j * mp.pi * t)
        log_eta = -mp.pi * mp.im(t) / 12 + mp.log(abs(mp.qp(q)))
        return float(log_eta / (2 * mp.pi))


def _log_abs_sin_pi(z):
    """log |sin(pi z)|, overflow safe for any |Im z|."""
    x = np.asarray(z).real
    y = np.asarray(z).imag
    w = np.pi * np.abs(y)
    u = np.exp(-2.0 * w)
    return w - math.log(2.0) + 0.5 * np.log1p(u * (u - 2.0 * np.cos(2.0 * np.pi * x)))


def green_constant_smooth_split(tau: complex, n: int = 256) -> float:
    """C(tau) by tensor Gauss-Legendre quadrature of the smooth part.

    psi = -(1/2pi) log|theta1(z) / sin(pi z)| has neither zeros nor poles
    on the closed cell, so its cell mean converges geometrically in n.
    The split off pieces average in closed form:
        mean(-(1/2pi) log|sin pi z|) = -(1/2pi)(pi b/4 - log 2), from
        int_0^1 log|sin pi(t + i c)| dt = pi |c| - log 2 averaged in s;
        mean(b s^2 / 2) = b/24;
    so C = -mean(psi) + b/12 - log 2 / (2 pi).  -(1/2pi) log|theta1| is
    read as G - C - b s^2 / 2 from the package's green_rel, which sums it
    in the reduced frame and carries it back, so below Im tau = 1/2 this
    checks the carried value against C.  Accurate to ~1e-16 at n = 256
    for Im tau in [0.3, 2.5]; near the cusp it loses digits (the n = 128
    and n = 256 values differ by 4e-10 at tau = 0.05i).
    """
    from torusgreen import green, lattice

    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * x
    w = 0.5 * w
    zz = x[:, None] + x[None, :] * tau
    psi = (green.green_rel(zz, lattice.make_torus(tau)) - tau.imag * x[None, :] ** 2 / 2.0
           + _log_abs_sin_pi(zz) / (2.0 * np.pi))
    return -float(w @ psi @ w) + tau.imag / 12.0 - math.log(2.0) / (2.0 * np.pi)


def green_constant_quadrature(tau: complex, n: int = 400, r_disk: float = 0.05) -> float:
    """C(tau) = -mean of G_rel over the cell, by midpoint quadrature with
    an analytic patch over the log singularity.

    Inside the disk |z| < r the singular part -(1/2pi) log|z| integrates
    to (r^2/2)(1/2 - log r); the smooth remainder of G_rel is extended
    by its average over the disk boundary.  Accuracy is a few times 1e-4
    at the default resolution, plenty to pin the sign and magnitude.
    """
    from torusgreen import green, lattice

    torus = lattice.make_torus(tau)
    b = tau.imag
    area = b
    gg = (np.arange(n) + 0.5) / n - 0.5
    total = 0.0
    n_disk = 0
    disk_smooth = []
    for s in gg:
        zrow = gg + s * tau
        d = np.abs(zrow)
        for mm in (-1, 1):
            d = np.minimum(d, np.abs(zrow + mm))
            d = np.minimum(d, np.abs(zrow + mm * tau))
        d = np.minimum(d, np.abs(zrow + 1 + tau))
        d = np.minimum(d, np.abs(zrow - 1 - tau))
        inside = d < r_disk
        out = ~inside
        vals = np.asarray(green.green_rel(zrow[out], torus))
        total += float(np.sum(vals))
        n_disk += int(np.sum(inside))
    cell = area / (n * n)
    # analytic integral of the singular part over the disk, plus the
    # smooth remainder sampled on a ring of radius r/2
    ring = r_disk * 0.5 * np.exp(2j * math.pi * (np.arange(64) + 0.5) / 64)
    smooth_ring = (np.asarray(green.green_rel(ring, torus))
                   + np.log(np.abs(ring)) / (2.0 * math.pi))
    smooth_avg = float(np.mean(smooth_ring))
    disk_area = math.pi * r_disk ** 2
    sing_int = (r_disk ** 2 / 2.0) * (0.5 - math.log(r_disk)) * 2.0 * math.pi / (2.0 * math.pi)
    integral = total * cell + sing_int + smooth_avg * disk_area
    return -integral / area


def contour_developing_map(z: complex, z0: complex, tau: complex, torus) -> complex:
    """f(z) = exp(integral_0^z gamma) with gamma = wp'(z0)/(wp(w) - wp(z0)),
    integrated along an adaptive polyline that detours around the poles
    of gamma at +-z0 (mod lattice).

    Independent of the sigma route: only the package's wp enters, at z0
    too, and the normalization f(0) = 1 is automatic.
    """
    from torusgreen import weier

    wp_z0, wp_prime_z0 = weier.wp(z0, torus), weier.wp(z0, torus, order=1)

    def gamma(w):
        return wp_prime_z0 / (np.asarray(weier.wp(w, torus)) - wp_z0)

    def too_close(a, b_):
        """Does segment a -> b_ pass near a pole of gamma?"""
        for mm in range(-2, 3):
            for nn in range(-2, 3):
                for sign in (1.0, -1.0):
                    p = sign * z0 + mm + nn * tau
                    ab = b_ - a
                    denom = abs(ab) ** 2
                    if denom == 0.0:
                        continue
                    u = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
                    u = min(1.0, max(0.0, u))
                    if abs(a + u * ab - p) < 0.08:
                        return p
        return None

    def gauss(a, b_, nn=32):
        x, w = np.polynomial.legendre.leggauss(nn)
        mid = 0.5 * (a + b_)
        half = 0.5 * (b_ - a)
        return complex(half * np.sum(w * gamma(mid + half * x)))

    def integrate(a, b_, depth=0):
        pole = too_close(a, b_)
        if pole is not None and depth < 8:
            # push the midpoint away from the pole, perpendicular offset
            mid = 0.5 * (a + b_)
            away = mid - pole
            if abs(away) < 1e-9:
                away = 1j * (b_ - a)
            away = away / abs(away) * 0.18
            via = pole + away
            return integrate(a, via, depth + 1) + integrate(via, b_, depth + 1)
        coarse = gauss(a, b_, 32)
        fine = gauss(a, 0.5 * (a + b_), 32) + gauss(0.5 * (a + b_), b_, 32)
        if abs(coarse - fine) > 1e-12 and depth < 12:
            return (integrate(a, 0.5 * (a + b_), depth + 1)
                    + integrate(0.5 * (a + b_), b_, depth + 1))
        return fine

    return cmath.exp(integrate(0.0 + 0.0j, complex(z)))


def developing_map_f(dm, z):
    """f(z) = e^(2 zeta(z0) z) sigma(z0 - z) / sigma(z0 + z) of the
    mfe.DevelopingMap8pi dm, from the package's sigma (the route that the
    contour reference checks); the u evaluators read only log|f|."""
    from torusgreen import weier

    z = np.asarray(z, dtype=complex)
    s = weier.evaluate(np.stack([dm.z0 - z, dm.z0 + z]), dm.torus).sigma
    log_mag = 2.0 * (dm.zeta_z0 * z).real + s.log_mag[0] - s.log_mag[1]
    arg = 2.0 * (dm.zeta_z0 * z).imag + s.arg[0] - s.arg[1]
    out = np.exp(log_mag + 1j * arg)
    return complex(out) if out.ndim == 0 else out


def developing_map_gamma(dm, z):
    """f'/f = wp'(z0) / (wp(z) - wp(z0)) of dm, from the package's wp; 0 on
    the lattice of 0, where wp has its pole, with poles on the lattices of
    +-z0."""
    from torusgreen import weier
    from torusgreen.lattice import lattice_gap

    z = np.asarray(z, dtype=complex)
    flat = np.atleast_1d(z).ravel()
    on_lattice = lattice_gap(flat, dm.torus.tau) < 1e-11
    out = np.zeros(flat.shape, dtype=complex)
    if np.any(~on_lattice):
        p = np.atleast_1d(weier.wp(flat[~on_lattice], dm.torus))
        with np.errstate(divide="ignore", invalid="ignore"):
            out[~on_lattice] = weier.wp(dm.z0, dm.torus, order=1) / (p - weier.wp(dm.z0, dm.torus))
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def developing_map_f_prime(dm, z):
    """f'(z) = gamma(z) f(z) of dm."""
    return developing_map_gamma(dm, z) * developing_map_f(dm, z)


# ---------------------------------------------------------------------------
# the field check of a mean field solution, one grid row at a time


def verify_solution_by_rows(sol, grid_n: int = 64, excl_radius: float = 0.05,
                            given_cell: bool = False):
    """mfe.verify_solution walking its grid one row at a time: one u call
    on a row, its stencil offsets and its period shifts, and one green_rel
    call on the row's kept points, per row; the rows' arrays are then
    concatenated and reduced once.  The package puts a block of rows into
    each call, and u and green_rel give a point the same bits alone as in
    a batch, so every field of the ResidualReport must agree.

    Like the package it checks u_r on the cell of the reduced torus; with
    given_cell it checks the carried-back u (sol.evaluator) on the cell
    of sol.torus instead, the frame the package checked in before."""
    from torusgreen import green, mfe
    from torusgreen.errors import InvalidInput
    from torusgreen.lattice import lattice_gap

    if grid_n < 32:
        raise InvalidInput(f"grid_n {grid_n} below 32")
    if not (math.isfinite(excl_radius) and excl_radius >= 0.02):
        raise InvalidInput(f"excl_radius {excl_radius} is not a finite radius of at least 0.02")
    torus = sol.torus if given_cell else sol.torus.reduced
    tau = torus.tau
    area = torus.b
    rho = sol.rho
    u = sol.evaluator if given_cell else sol.reduced_evaluator
    h = 1.0 / (64.0 * grid_n)
    gg = (np.arange(grid_n) + 0.5) / grid_n - 0.5

    res, lit, per1, pert, mass = [], [], [], [], []
    for s in gg:
        row_z = gg + s * tau
        keep = lattice_gap(row_z, tau) > excl_radius
        z = row_z[keep]
        offsets = np.concatenate([z + h, z - h, z + 1j * h, z - 1j * h])
        u_all = u(np.concatenate([row_z, offsets, z + 1.0, z + tau]))
        n, m = row_z.size, z.size
        mass.append(np.exp(u_all[:n]))
        if m == 0:
            continue
        uc = u_all[:n][keep]
        u_off = u_all[n:n + 4 * m].reshape(4, m)
        shifted = u_all[n + 4 * m:].reshape(2, m)
        g = green.green_rel(np.concatenate([offsets, z]), torus).reshape(5, z.size)
        w_off = u_off + rho * g[:4]
        w_c = uc + rho * g[4]
        lap_w = (np.sum(w_off, axis=0) - 4.0 * w_c) / (h * h)
        res.append(np.abs(lap_w - rho / area + rho * np.exp(uc)))
        lap_u = (np.sum(u_off, axis=0) - 4.0 * uc) / (h * h)
        lit.append(np.abs(lap_u + rho * np.exp(uc)))
        per1.append(np.abs(shifted[0] - uc))
        pert.append(np.abs(shifted[1] - uc))
    if not res:
        raise InvalidInput(f"excl_radius {excl_radius} leaves no grid point to check")
    res = np.concatenate(res)
    cell = area / (grid_n * grid_n)
    return mfe.ResidualReport(
        max_residual=float(np.max(res)),
        mean_residual=float(np.sum(res)) / res.size,
        literal_max_residual=float(np.max(np.concatenate(lit))),
        periodicity_1=float(np.max(np.concatenate(per1))),
        periodicity_tau=float(np.max(np.concatenate(pert))),
        total_mass=rho * cell * float(np.sum(np.concatenate(mass))),
        grid_n=grid_n,
        h=h,
        excl_radius=excl_radius,
        n_points=int(res.size),
    )


# ---------------------------------------------------------------------------
# the census: one torus, its seed grids alone


EXCLUSION_RADIUS = 0.05   # seed free disk around the lattice point
EXTRA_MERGE_TOL = 1e-6    # the one merge tolerance among extra roots: right at
                          # a threshold the residual valley is flat enough that
                          # machine precision roots of one point can spread
                          # wider than 1e-8
PLATEAU_MIN_DET = 1e-9    # in units of (1/b)^2: an extra root only counts when
                          # its Hessian determinant clears this bar; on extreme
                          # aspect ratios the gradient has e^(-pi b') plateaus
                          # whose every point passes the residual test, but
                          # those fake roots carry determinants ~1e-12 while
                          # genuine extras sit at O(1)


def rows(ev) -> list:
    """Each point's own GreenEval, of floats, from an evaluate (or a
    green.half_period_rows) over a 1-D array."""
    from torusgreen import green

    h = ev.hessian
    cols = (c.tolist() for c in (ev.value_rel, *ev.grad, h.xx, h.xy, h.yy, h.det, ev.det_bound))
    return [green.GreenEval(g, (gx, gy), green.Hessian2(xx, xy, yy, det), bound)
            for g, gx, gy, xx, xy, yy, det, bound in zip(*cols)]


def critical_point(torus, coords, kind, row):
    """The critical point of torus at coords = (t, s), of that kind and
    with that row of rows: Degenerate inside its det_bound, else Min or
    Saddle by the sign of the determinant."""
    from torusgreen import critical
    from torusgreen.lattice import LatticeCoords

    det = row.hessian.det
    morse = (critical.Morse.DEGENERATE if abs(det) <= row.det_bound
             else critical.Morse.MIN if det > 0.0 else critical.Morse.SADDLE)
    t, s = coords
    return critical.CriticalPoint(coords=LatticeCoords(t, s), z=t + s * torus.tau, kind=kind,
                                  morse=morse, hessian=row.hessian, g_rel=row.value_rel)


def _grid_seeds(n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    g = (np.arange(n_grid) + 0.5) / n_grid - 0.5
    t, s = np.meshgrid(g, g)
    return t.ravel(), s.ravel()


def _orbit_reps(t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One representative per extra orbit {z, -z} among the wrapped roots.

    Roots within critical.HP_MERGE_TOL of a half period are dropped.  The
    rest are folded onto the half cell s > 0 (t >= 0 on the lines s = 0
    and s = 1/2, which z -> -z maps to themselves), sorted by (t, s) and
    merged greedily: the first root stands for every root within
    EXTRA_MERGE_TOL of it in both wrapped coordinates.
    """
    from torusgreen.critical import HP_MERGE_TOL
    from torusgreen.lattice import wrap_unit

    def gap(a, b):
        return np.abs(wrap_unit(a - b)[0])

    near_hp = np.zeros(t.shape, dtype=bool)
    for tc, sc in ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
        near_hp |= (gap(t, tc) < HP_MERGE_TOL) & (gap(s, sc) < HP_MERGE_TOL)
    t, s = t[~near_hp], s[~near_hp]
    tol = EXTRA_MERGE_TOL
    on_line = (np.abs(s) <= tol) | (gap(s, 0.5) <= tol)
    flip = np.where(on_line, t < -tol, s < 0.0)
    t = np.where(flip, wrap_unit(-t)[0], t)
    s = np.where(flip, wrap_unit(-s)[0], s)
    order = np.lexsort((s, t))
    t, s = t[order], s[order]
    reps_t, reps_s = [], []
    while t.size:
        reps_t.append(t[0])
        reps_s.append(s[0])
        rest = (gap(t, t[0]) >= tol) | (gap(s, s[0]) >= tol)
        t, s = t[rest], s[rest]
    return np.array(reps_t), np.array(reps_s)


def damped_newton(t, s, tau_r, r_stop):
    """Second-order damped Newton on the critical residual from the seeds
    (t, s) on reduced tori of modulus tau_r, one for every seed or one per
    seed: the census's own solver, so that the census does not share the
    package's third-order one that it checks.

    Each step is halved up to 12 times until it lowers |r|; a seed that
    cannot improve even then is retired, and a seed stops once
    |r| <= r_stop (scalar, or per seed) or after 60 steps.  Every seed
    keeps its own count of steps and halvings, and one residual pass
    serves the next trial point of every seed.  Returns the final
    (t, s, |r|) arrays, unwrapped; lattice hits show up as non finite |r|.
    """
    from torusgreen import green

    def at(index):
        return tau_r if np.ndim(tau_r) == 0 else tau_r[index]

    t = np.array(t, dtype=float)
    s = np.array(s, dtype=float)
    r_stop = np.broadcast_to(r_stop, t.shape)
    r, rt, _, _ = green.residual_and_jacobian(t, s, tau_r)
    rs = tau_r * rt + 2j * np.pi
    rn = np.abs(r)
    live = np.isfinite(rn)
    steps = np.zeros(t.size, dtype=int)      # Newton steps begun
    tries = np.zeros(t.size, dtype=int)      # rejected trials of the current step
    scale = np.ones(t.size)
    dt = np.zeros(t.size)
    ds = np.zeros(t.size)
    due = np.flatnonzero(live)               # seeds due a new Newton direction
    while True:
        stop = (rn[due] <= r_stop[due]) | (steps[due] == 60)
        live[due[stop]] = False
        due = due[~stop]
        det = rt.real[due] * rs.imag[due] - rs.real[due] * rt.imag[due]
        bad = ~np.isfinite(det) | (np.abs(det) < 1e-300)
        det = np.where(bad, 1.0, det)
        dt[due] = np.where(bad, 0.0, (r.real[due] * rs.imag[due] - rs.real[due] * r.imag[due]) / det)
        ds[due] = np.where(bad, 0.0, (rt.real[due] * r.imag[due] - r.real[due] * rt.imag[due]) / det)
        scale[due] = 1.0
        tries[due] = 0
        steps[due] += 1
        idx = np.flatnonzero(live)
        t_try = t[idx] - scale[idx] * dt[idx]
        s_try = s[idx] - scale[idx] * ds[idx]
        # a step under the float spacing cannot lower |r|: the seed is stuck
        moved = (t_try != t[idx]) | (s_try != s[idx])
        live[idx[~moved]] = False
        idx, t_try, s_try = idx[moved], t_try[moved], s_try[moved]
        if idx.size == 0:
            return t, s, rn
        r2, rt2, _, _ = green.residual_and_jacobian(t_try, s_try, at(idx))
        rs2 = at(idx) * rt2 + 2j * np.pi
        rn2 = np.abs(r2)
        ok = np.isfinite(rn2) & (rn2 <= rn[idx] * (1.0 - 1e-4) + 1e-300)
        due = idx[ok]
        t[due] = t_try[ok]
        s[due] = s_try[ok]
        r[due] = r2[ok]
        rt[due] = rt2[ok]
        rs[due] = rs2[ok]
        rn[due] = rn2[ok]
        poor = idx[~ok]
        scale[poor] *= 0.5
        tries[poor] += 1
        live[poor[tries[poor] == 12]] = False


def _multi_start(torus, n_grid: int, tol: float):
    """The extra orbit representatives that damped_newton reaches on the
    reduced torus from an n_grid x n_grid seed grid outside
    EXCLUSION_RADIUS of the lattice point, carried to the (t, s) of torus
    through z = lam (t' + s' tau_r), their _rows from one evaluate pass on
    torus, less the gradient plateau roots, and the number of seeds that
    did not converge."""
    from torusgreen import green
    from torusgreen.lattice import lattice_gap, split_coords

    tau_r = torus.tau_r
    t, s = _grid_seeds(n_grid)
    keep = lattice_gap(t + s * tau_r, tau_r) > EXCLUSION_RADIUS
    r_target = np.pi * tol   # |grad G| = |r| / (2 pi), kept at half of tol
    # polish three decades past the acceptance target: near a degeneracy
    # threshold the residual valley is flat enough that stopping exactly at
    # the target scatters one root across several merge cells
    t, s, rn = damped_newton(t[keep], s[keep], tau_r, r_target * 1e-3)
    converged = np.isfinite(rn) & (rn <= r_target)
    # to the given basis through the plane, not through the frame matrix
    z = torus.lam * (t[converged] + s[converged] * tau_r)
    ts, ss = _orbit_reps(*split_coords(z, torus.tau)[:2])
    if not ts.size:
        return ts, ss, [], int(np.sum(~converged))
    ev = green.evaluate(ts + ss * torus.tau, torus)
    keep = np.abs(ev.hessian.det) > PLATEAU_MIN_DET / (torus.b * torus.b)
    kept = [row for row, k in zip(rows(ev), keep.tolist()) if k]
    return ts[keep], ss[keep], kept, int(np.sum(~converged))


def census(torus, tol: float = 1e-12):
    """The critical set of torus from a 24x24 seed grid, and a 48x48 check
    grid where a seed failed: the count's second route, which counts the
    extra orbits multi-start Newton finds instead of reading the
    half-period signs, run with damped_newton on the reduced torus and a
    half-period pass of its own on torus.  Grids that disagree raise
    NoConvergence, more than one extra orbit CountViolation."""
    from torusgreen import critical, green
    from torusgreen.errors import CountViolation

    ts, ss, extra_rows, failures = _multi_start(torus, 24, tol)
    if failures and _multi_start(torus, 48, tol)[0].size != ts.size:
        raise NoConvergence(f"24/48 sweeps disagree at tau = {torus.tau}")
    if ts.size > 1:
        raise CountViolation(f"{3 + 2 * ts.size} critical points at tau = {torus.tau}")
    hp = rows(green.evaluate(np.array(torus.half_periods), torus))
    points = [critical_point(torus, coords, kind, row)
              for coords, kind, row in zip(critical._HP_COORDS, critical._KINDS, hp)]
    if ts.size:
        points.append(critical_point(torus, (ts[0].item(), ss[0].item()),
                                     critical.Kind.EXTRA_PAIR, extra_rows[0]))
    # one route to the half-period values: none to compare it with
    return critical.CriticalSet(points=tuple(points), total_count=3 + 2 * ts.size,
                                route="census", route_deviation=math.nan)


def fd_gradient(fun, x: float, y: float, h: float = 1e-6) -> tuple[float, float]:
    gx = (fun(x + h, y) - fun(x - h, y)) / (2 * h)
    gy = (fun(x, y + h) - fun(x, y - h)) / (2 * h)
    return gx, gy


def fd_hessian(fun, x: float, y: float, h: float = 1e-4):
    fxx = (fun(x + h, y) - 2 * fun(x, y) + fun(x - h, y)) / (h * h)
    fyy = (fun(x, y + h) - 2 * fun(x, y) + fun(x, y - h)) / (h * h)
    fxy = (fun(x + h, y + h) - fun(x + h, y - h)
           - fun(x - h, y + h) + fun(x - h, y - h)) / (4 * h * h)
    return fxx, fxy, fyy


# ---------------------------------------------------------------------------
# the extra pair on the rhombic line, by scalar Newton along its locus


def _newton_1d(fun, x0: float, lo: float, hi: float, tol: float):
    """Damped scalar Newton for fun(x) = (value, derivative) on (lo, hi)."""
    x = x0
    f, df = fun(x)
    for _ in range(80):
        if abs(f) <= tol:
            return x
        if df == 0.0 or not math.isfinite(df):
            return None
        step = f / df
        while True:
            xn = x - step
            if lo < xn < hi:
                fn, dfn = fun(xn)
                if abs(fn) < abs(f):
                    x, f, df = xn, fn, dfn
                    break
            step /= 2.0
            if abs(step) < 1e-17:
                return x if abs(f) <= tol else None
    return x if abs(f) <= tol else None


def locate_z0_on_rhombus_line(b: float, tol: float = 1e-12):
    """The extra critical point z0 on tau = 1/2 + i b, when it exists, as a
    critical.CriticalPoint; a one-dimensional route to compare with the
    two-dimensional Newton of critical.find_critical_points.

    For b above the upper threshold z0 sits on the vertical segment
    Re z = 1/2 with 0 < Im z0 < b/2 and is found by scalar Newton on G_y
    along that segment.  For b below the lower threshold the search runs
    along the real axis (the empirically observed locus); whatever point
    is found is returned without asserting more structure than that.
    Inside the two thresholds NotInExtraRegime is raised.
    """
    from torusgreen import critical, green

    torus = make_torus(complex(0.5, b))
    inv = weier.invariants(torus)
    q = (inv.e1 + inv.eta1).real
    below, above = q < 0.0, q > 2.0 * math.pi / b
    if not (below or above):
        raise NotInExtraRegime(
            f"b = {b} lies between the degeneracy thresholds; e1 + eta1 = {q:.6f}"
        )
    grad_target = 0.5 * tol
    if above:
        def fy(y):
            ev = green.evaluate(0.5 + 1j * y, torus)
            return ev.grad[1], ev.hessian.yy

        roots = []
        for frac in (0.12, 0.2, 0.3, 0.38, 0.46):
            r = _newton_1d(fy, frac * b, 1e-6, b / 2 - 1e-9, grad_target)
            if r is not None and all(abs(r - other) > 1e-7 for other in roots):
                roots.append(r)
        if not roots:
            raise NoConvergence(f"no root of G_y on Re z = 1/2 for b = {b}")
        y0 = min(roots)
        s = y0 / b
        t = 0.5 - 0.5 * s
    else:
        def fx(x):
            ev = green.evaluate(complex(x, 0.0), torus)
            return ev.grad[0], ev.hessian.xx

        roots = []
        for frac in (0.1, 0.2, 0.3, 0.4, 0.45):
            r = _newton_1d(fx, frac, EXCLUSION_RADIUS, 0.5 - 1e-9, grad_target)
            if r is not None and all(abs(r - other) > 1e-7 for other in roots):
                roots.append(r)
        if not roots:
            raise NoConvergence(f"no root of G_x on the real axis for b = {b}")
        t, s = min(roots), 0.0
    ev = green.evaluate(np.array([t + s * torus.tau]), torus)
    if np.hypot(*ev.grad).item() > tol:
        raise NoConvergence(f"rhombus line root did not meet tol at b = {b}")
    return critical_point(torus, (t, s), critical.Kind.EXTRA_PAIR, rows(ev)[0])


# ---------------------------------------------------------------------------
# canonical JSON of the CLI, one isinstance test per value


def _fmt_float_reference(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.16e}"


# JSON's two-character escapes; the other controls U+0000-U+001F are \u00XX
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
                 "\r": "\\r", "\t": "\\t"}


def _fmt_str_reference(text: str) -> str:
    return '"' + "".join(_JSON_ESCAPES.get(c, f"\\u{ord(c):04x}" if c < " " else c)
                         for c in text) + '"'


def _canonical_reference(obj, out: io.StringIO) -> None:
    if obj is None:
        out.write("null")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(_fmt_float_reference(obj))
    elif isinstance(obj, complex):
        _canonical_reference({"re": obj.real, "im": obj.imag}, out)
    elif isinstance(obj, str):
        out.write(_fmt_str_reference(obj))
    elif isinstance(obj, dict):
        out.write("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.write(",")
            _canonical_reference(str(key), out)
            out.write(":")
            _canonical_reference(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, item in enumerate(obj):
            if i:
                out.write(",")
            _canonical_reference(item, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json_reference(obj) -> str:
    """The CLI's canonical JSON, written to a buffer value by value."""
    buf = io.StringIO()
    _canonical_reference(obj, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# scan reports: a dict per cell and per flip edge, and the grid loop of
# the flip edges


def scan_rows_reference(scan, edges) -> tuple[list, list]:
    """The "cells" and "flip_edges" lists of a scan report as one dict a
    row, built from the columns of the Scan and of its moduli.Flips, for
    canonical JSON to write: the CLI's builder while cells and edges were
    objects."""
    cells = [{"tau": tau, "count": count,
              "extra_t": None if math.isnan(t) else t,
              "extra_s": None if math.isnan(s) else s,
              "error": error}
             for tau, count, t, s, error in zip(scan.tau.tolist(), scan.count.tolist(),
                                                scan.extra_t.tolist(), scan.extra_s.tolist(),
                                                scan.error)]
    tau, count = scan.tau.tolist(), scan.count.tolist()
    rows = [{"tau_low": tau[low], "tau_high": tau[high], "midpoint": mid,
             "count_low": count[low], "count_high": count[high],
             "degenerate_half_period": k, "min_abs_det": det}
            for low, high, mid, k, det in zip(edges.low.tolist(), edges.high.tolist(),
                                              edges.midpoint.tolist(), edges.half_period.tolist(),
                                              edges.min_abs_det.tolist())]
    return cells, rows


def flip_pairs_reference(count, nx: int, ny: int) -> list[tuple[int, int]]:
    """The (low, high) cells of each grid edge whose counts differ, neither
    0, of a row major grid: the scan's loop over the cells, each with its
    right neighbour and then its upper one."""
    pairs = []
    for j in range(ny):
        for i in range(nx):
            a = count[j * nx + i]
            for i2, j2 in ((i + 1, j), (i, j + 1)):
                if i2 >= nx or j2 >= ny:
                    continue
                b = count[j2 * nx + i2]
                if a == 0 or b == 0 or a == b:
                    continue
                pairs.append((j * nx + i, j2 * nx + i2))
    return pairs
