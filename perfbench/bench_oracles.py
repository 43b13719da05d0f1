"""Independent correctness oracles for the benchmark.

Nothing here imports torusgreen: every reference value is recomputed in
mpmath from the classical formulas, so a bug in the package cannot hide
in its own check.

Conventions match the package: the torus is C/(Z + Z tau), q = e^(i pi tau),
theta1(z) = mpmath.jtheta(1, pi z, q), and with L1, L2 the first two
logarithmic z derivatives of theta1,

    2 pi G_x = -Re L1,   2 pi G_y = Im L1 + 2 pi s      (z = t + s tau)
    4 pi^2 det Hess G = -(|L2 + pi/b|^2 - (pi/b)^2),    b = Im tau.

The theorems the checks rest on (Lin & Wang, Ann. of Math. 172 (2010),
arXiv math/0608358):

* G has 3 or 5 critical points: the half periods, plus at most one pair.
* No interior maxima and chi(punctured torus) = -1, so #min - #saddle = -1.
* On Re tau = 0 the count is 3; on Re tau = 1/2 it is 5 exactly when
  b lies outside [b0, b1], with b0 * b1 = 1/4 by the modular duality
  tau -> (tau - 1) / (2 tau - 1).
* When the extra pair exists it consists of minima, so the count is 5
  exactly when all three half periods are saddles.  This decides the count
  off the two lines (the region boundary is the degeneracy curve of Chen,
  Kuo, Lin & Wang, J. Differential Geom. 2018).
* The mean field equation at rho = 8 pi has a solution exactly when the
  count is 5; at rho = 4 pi it always has one.
* C(tau) = (1 / 2 pi) log|eta(tau)| (Kronecker's limit formula in the
  package's normalization, G averaging to zero over the cell).
"""

from __future__ import annotations

import math

import mpmath

GRAD_TOL = 1e-10
CONSTANT_TOL = 1e-10
RESIDUAL_TOL = 1e-4          # criteria 8 and 9, compensated stencil at 64^2
PERIODICITY_TOL = 1e-9       # criterion 8
MASS_REL_TOL = 1e-9
PERIOD_INTEGRAL_TOL = 1e-9   # criterion 9: integral of g over a period is +-pi i
C_PRIME_TOL = 1e-10          # criterion 9: period-1 multiplier is -1
DUALITY_TOL = 1e-12


def _nome(tau: complex):
    return mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))


def _log_derivs(z, q):
    """(L1, L2) of theta1 at z (package convention, period 1)."""
    w = mpmath.pi * z
    th = mpmath.jtheta(1, w, q)
    d1 = mpmath.jtheta(1, w, q, 1) / th
    d2 = mpmath.jtheta(1, w, q, 2) / th
    return mpmath.pi * d1, mpmath.pi ** 2 * (d2 - d1 * d1)


def gradient_norm(tau: complex, t: float, s: float) -> float:
    """|grad G| at z = t + s tau, with (t, s) in the canonical cell."""
    with mpmath.workdps(30):
        q = _nome(tau)
        z = mpmath.mpf(t) + mpmath.mpf(s) * mpmath.mpc(tau.real, tau.imag)
        l1, _ = _log_derivs(z, q)
        gx = -l1.real / (2 * mpmath.pi)
        gy = l1.imag / (2 * mpmath.pi) + s
        return float(mpmath.hypot(gx, gy))


def half_period_dets(tau: complex) -> tuple[float, float, float]:
    """Hessian determinants of G at 1/2, tau/2, (1 + tau)/2 (times 4 pi^2).

    Toward either cusp the small determinants shrink like e^(-pi b) (or
    e^(-pi / 4b)) and cancel against O(1) terms, so the precision grows.
    """
    with mpmath.workdps(30 if 0.25 <= tau.imag <= 4.0 else 60):
        t = mpmath.mpc(tau.real, tau.imag)
        q = _nome(tau)
        pb = mpmath.pi / t.imag
        out = []
        for z in (mpmath.mpf(1) / 2, t / 2, (1 + t) / 2):
            _, l2 = _log_derivs(z, q)
            out.append(float(-(abs(l2 + pb) ** 2 - pb * pb)))
        return tuple(out)


def morse_count(tau: complex) -> int:
    """The critical point count predicted from the half period Hessians."""
    return 5 if all(d < 0.0 for d in half_period_dets(tau)) else 3


def _rhombic_l2(b):
    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(mpmath.mpf(1) / 2, b))
    _, l2 = _log_derivs(mpmath.mpf(1) / 2, q)
    return l2.real


def rhombic_thresholds() -> tuple[float, float]:
    """b0 and b1 on Re tau = 1/2 from mpmath, checked against b0 * b1 = 1/4.

    The half period 1/2 is a local minimum of G exactly when
    -2 pi / b < L2(1/2) < 0; b0 and b1 are the two ends of that window.
    """
    with mpmath.workdps(30):
        b0 = mpmath.findroot(_rhombic_l2, (0.3, 0.4), solver="anderson")
        b1 = mpmath.findroot(lambda b: _rhombic_l2(b) + 2 * mpmath.pi / b,
                             (0.6, 0.8), solver="anderson")
        if abs(b0 * b1 - mpmath.mpf(1) / 4) > DUALITY_TOL:
            raise ArithmeticError(f"threshold duality broken: b0 * b1 = {b0 * b1}")
        return float(b0), float(b1)


def expected_count(tau: complex, thresholds: tuple[float, float]) -> int:
    """3 or 5 from the theorems: the two lines first, else the Morse rule."""
    if tau.real == 0.0:
        return 3
    if abs(tau.real) == 0.5:
        b0, b1 = thresholds
        return 5 if (tau.imag < b0 or tau.imag > b1) else 3
    return morse_count(tau)


def kronecker_constant(tau: complex) -> float:
    """C(tau) = (1 / 2 pi) log|eta(tau)| through the q-Pochhammer product."""
    with mpmath.workdps(30):
        t = mpmath.mpc(tau.real, tau.imag)
        q2 = mpmath.exp(2j * mpmath.pi * t)
        log_eta = -mpmath.pi * t.imag / 12 + mpmath.log(abs(mpmath.qp(q2)))
        return float(log_eta / (2 * mpmath.pi))


# ---------------------------------------------------------------------------
# checks on CLI documents; each returns a list of failure kinds (empty = pass)


def _z(obj) -> complex:
    return complex(float(obj["re"]), float(obj["im"]))


def check_critical(doc: dict, tau: complex, expected: int) -> list[str]:
    res = doc["results"]
    count = res["count"]
    fails = []
    if count not in (3, 5):
        fails.append("count_not_3_or_5")
    elif count != expected:
        fails.append(f"count_{count}_expected_{expected}")
    n_min = n_saddle = n_other = 0
    for p in res["points"]:
        mult = 2 if p["kind"] == "ExtraPair" else 1
        if p["morse"] == "Min":
            n_min += mult
        elif p["morse"] == "Saddle":
            n_saddle += mult
        else:
            n_other += mult
        if gradient_norm(tau, float(p["t"]), float(p["s"])) >= GRAD_TOL:
            fails.append("gradient")
    if n_other or n_min - n_saddle != -1:
        fails.append("euler_characteristic")
    return sorted(set(fails))


def check_scan(doc: dict, region, nx: int, ny: int) -> list[str]:
    """Every cell is classified, at the requested center, with the Morse count."""
    re0, im0, re1, im1 = region
    dx, dy = (re1 - re0) / nx, (im1 - im0) / ny
    cells = doc["results"]["cells"]
    if len(cells) != nx * ny:
        return ["cell_count"]
    fails = []
    for k, cell in enumerate(cells):
        j, i = divmod(k, nx)
        tau = complex(re0 + (i + 0.5) * dx, im0 + (j + 0.5) * dy)
        if abs(_z(cell["tau"]) - tau) > 1e-12:
            fails.append("cell_position")
        elif cell["error"] is not None:
            fails.append("cell_error")
        elif cell["count"] != morse_count(tau):
            fails.append("cell_count_wrong")
    return sorted(set(fails))


def check_eval(doc: dict, tau: complex) -> list[str]:
    c = float(doc["results"]["constant"])
    return [] if abs(c - kronecker_constant(tau)) < CONSTANT_TOL else ["constant"]


def check_mfe(doc: dict, rho: float) -> list[str]:
    res = doc["results"]
    fails = []
    if abs(float(res["rho"]) - rho) > 1e-12 * rho:
        fails.append("rho")
    if not float(res["max_residual"]) < RESIDUAL_TOL:
        fails.append("residual")
    if not max(float(res["periodicity_1"]), float(res["periodicity_tau"])) < PERIODICITY_TOL:
        fails.append("periodicity")
    if not abs(float(res["total_mass"]) / rho - 1.0) < MASS_REL_TOL:
        fails.append("mass")
    diag = doc["diagnostics"]
    if "period_integral_g" in diag:
        pi_g = _z(diag["period_integral_g"])
        if min(abs(pi_g - 1j * math.pi), abs(pi_g + 1j * math.pi)) >= PERIOD_INTEGRAL_TOL:
            fails.append("period_integral")
        if abs(_z(diag["c_prime"]) + 1.0) >= C_PRIME_TOL:
            fails.append("c_prime")
    return fails
