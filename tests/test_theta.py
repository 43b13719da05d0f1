import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import oracles
from torusgreen import green, lattice, moduli, theta, weier
from torusgreen.errors import (
    InvalidInput,
    NonPositiveImaginaryPart,
    PoleAtLattice,
    UnreducedModulus,
)

# the series is summed only for Im tau >= 1/2, so 0.2 + 0.35i enters as its
# reduced modulus; test_small_imag_tau_routes_accurately checks the values
# carried back to such a modulus against mpmath
TAUS = [1j, 0.5 + 0.5 * math.sqrt(3) * 1j, 0.5 + 0.8j, 0.13 + 0.92j, -0.31 + 1.7j,
        lattice.reduce_modulus(0.2 + 0.35j)[0]]


def _sample(rng, n=6):
    return rng.uniform(-0.45, 0.45, n) + 1j * rng.uniform(-0.45, 0.45, n)


def test_theta1_matches_mpmath():
    rng = np.random.default_rng(11)
    worst = 0.0
    for tau in TAUS:
        T = lattice.make_torus(tau)
        for z in _sample(rng):
            z = complex(z)
            got = theta.theta1(z, T)
            lm_ref, ar_ref = oracles.mp_log_theta1(z, tau)
            worst = max(worst, abs(got.log_mag - lm_ref))
            phase = abs(cmath.exp(1j * (got.arg - ar_ref)) - 1.0)
            worst = max(worst, phase)
    assert worst < 5e-13


def test_theta1_large_translation_stays_finite_in_log_form():
    T = lattice.make_torus(0.3 + 1.2j)
    z = 0.17 + 40.0 * T.tau
    got = theta.theta1(z, T)
    assert math.isfinite(got.log_mag) and math.isfinite(got.arg)
    # |theta1| grows like e^(pi b n^2); the double range would have overflowed
    assert got.log_mag > 1000.0
    lm_ref, ar_ref = oracles.mp_log_theta1(z, T.tau)
    assert abs(got.log_mag - lm_ref) < 1e-10 * abs(lm_ref)
    assert abs(cmath.exp(1j * (got.arg - ar_ref)) - 1.0) < 1e-10


def test_theta1_zero_sentinel_on_lattice():
    T = lattice.make_torus(0.5 + 0.8j)
    # hits whose reduction to the base cell is exact in floating point
    for z in (0.0, 1.0, -1.0, T.tau, 1.0 + T.tau, -2.0 + T.tau):
        got = theta.theta1(z, T)
        assert got.is_zero
        assert got.arg == 0.0
    # a compound translate that rounds off the lattice stays finite but deep
    got = theta.theta1(2 + 3 * T.tau, T)
    assert not got.is_zero
    assert got.log_mag < -10.0


def test_theta1_is_odd():
    T = lattice.make_torus(0.13 + 0.92j)
    rng = np.random.default_rng(5)
    for z in _sample(rng):
        a = theta.theta1(complex(z), T)
        b = theta.theta1(-complex(z), T)
        assert abs(a.value + b.value) < 1e-14 * abs(a.value)


def test_theta1_quasi_periodicity():
    rng = np.random.default_rng(23)
    for tau in TAUS:
        T = lattice.make_torus(tau)
        for z in _sample(rng, 3):
            z = complex(z)
            base = theta.theta1(z, T)
            # theta1(z + 1) = -theta1(z)
            sh1 = theta.theta1(z + 1.0, T)
            assert abs(sh1.log_mag - base.log_mag) < 5e-13 * max(1.0, abs(base.log_mag))
            assert abs(cmath.exp(1j * (sh1.arg - base.arg)) + 1.0) < 1e-12
            # theta1(z + tau) = -exp(-i pi tau - 2 pi i z) theta1(z)
            sht = theta.theta1(z + tau, T)
            fac = complex(-1j * cmath.pi * tau - 2j * cmath.pi * z)
            assert abs((sht.log_mag - base.log_mag) - fac.real) < 5e-12
            assert abs(cmath.exp(1j * (sht.arg - base.arg - fac.imag)) + 1.0) < 1e-11


def test_logderivs_match_mpmath():
    rng = np.random.default_rng(17)
    for tau in TAUS:
        T = lattice.make_torus(tau)
        for z in _sample(rng, 4):
            z = complex(z)
            _, _, L1, L2, _ = theta._eval(z, T.tau)
            r1 = oracles.mp_theta1_logderiv(z, tau, 1)
            r2 = oracles.mp_theta1_logderiv(z, tau, 2)
            assert abs(L1 - r1) < 1e-11 * max(1.0, abs(r1))
            assert abs(L2 - r2) < 1e-11 * max(1.0, abs(r2))


def test_logderiv2_keeps_relative_precision_at_the_half_periods():
    # at tau/2 and (1+tau)/2 the leading term dominates and L2 is
    # O(e^(-pi Im tau)); summed from plain derivatives it cancelled to
    # relative errors of 1 at 12i and 4e-6 at 0.5+8i.  Past Im tau of about
    # 226 it leaves the float64 range there, and the kernel must give the
    # float value of the exact one, zero, not rounding debris.  The same
    # points in one batch with a modulus per point give the same bits
    taus = (2j, 0.5 + 3j, 0.5 + 8j, 12j, 100j, 0.3 + 100j, 0.25 + 450j, 899j, 0.5 + 899j)
    points = [(h, tau) for tau in taus for h in lattice.make_torus(tau).half_periods]
    batch = theta._eval(np.array([h for h, _ in points]), np.array([t for _, t in points]))[3]
    for k, tau in enumerate(taus):
        T = lattice.make_torus(tau)
        L2 = theta._eval(np.array(T.half_periods), tau)[3]
        for j, (got, h) in enumerate(zip(L2, T.half_periods)):
            assert batch[3 * k + j] == got, (tau, h)
            ref = oracles.mp_theta1_logderiv2_series(h, tau)
            if abs(ref) > np.finfo(float).tiny:
                assert abs(got - ref) < 1e-13 * abs(ref), (tau, h)
            else:
                assert got == 0.0, (tau, h, got)


def test_the_real_part_of_l2_at_the_rhombic_half_period_keeps_its_error():
    # on Re tau = 1/2, L2 at (1+tau)/2 is nearly imaginary, and its small
    # real part is where rounding the phases in tau into the sums instead
    # of the leads doubled the typical error; measured against a 200-digit
    # sum over b in [1, 10] the leads built from one cos and sin a point
    # read 2.5e-16 |L2| at most and 7.3e-17 on average, as the four cos and
    # sin a point before them (2.9e-16 and 7.3e-17)
    errs = []
    for b in np.linspace(1.0, 10.0, 91):
        tau = complex(0.5, b)
        h = (1.0 + tau) / 2.0
        got = theta._eval(np.array([h]), tau)[3][0]
        ref = oracles.mp_theta1_logderiv2_series(h, tau, dps=200)
        errs.append(abs(got.real - float(ref.real)) / abs(complex(ref)))
    assert max(errs) < 3e-16 and np.mean(errs) < 1e-16


@pytest.mark.parametrize("n", [1, 1023, 1025, 5000])
def test_a_pass_that_reads_less_gives_the_bits_of_a_full_pass(n):
    # LOG_MAG and LOG_MAG_L1 sum fewer moments and finish fewer outputs;
    # what they return is what a pass reading ALL returns, to the bit, on
    # one modulus and on one of 64 per point, across runs of _RUN points
    rng = np.random.default_rng(n)
    z = rng.uniform(-1.5, 1.5, n) + rng.uniform(-1.5, 1.5, n) * 1.07j
    z[0] = 0.0
    moduli = np.array([T.tau_r for T in lattice.random_tori(64, 7)])[np.arange(n) % 64]
    for tau in (0.31 + 1.07j, moduli):
        full = theta._eval(z, tau)
        for reads, kept in ((theta.LOG_MAG, (0,)), (theta.LOG_MAG_L1, (0, 2))):
            got = theta._eval(z, tau, reads)
            for k, (g, f) in enumerate(zip(got, full)):
                if k in kept:
                    np.testing.assert_array_equal(g, f)
                else:
                    assert g is None
    T = lattice.make_torus(-0.31 + 0.42j)
    full = weier.evaluate(z, T)
    for reads in (theta.LOG_MAG, theta.LOG_MAG_L1):
        ev = weier.evaluate(z, T, reads)
        np.testing.assert_array_equal(ev.sigma.log_mag, full.sigma.log_mag)
        assert ev.sigma.arg is None and ev.p is None and ev.p_prime is None
        assert ev.zeta is None if reads == theta.LOG_MAG else np.array_equal(
            ev.zeta, full.zeta, equal_nan=True)


def test_the_mpmath_log_derivatives_refuse_past_im_tau_20():
    # mpmath's jtheta derivatives lose the O(e^(-pi Im tau)) values at the
    # half periods from about Im tau = 20 (3e-2 relative at (1+tau)/2 on
    # 0.5+30i), so that oracle refuses past 20; at 20 it still agrees with
    # the exp-per-term sum
    for tau in (20j, 0.5 + 20j):
        h = (1.0 + tau) / 2.0
        ref = complex(oracles.mp_theta1_logderiv2_series(h, tau))
        assert abs(oracles.mp_theta1_logderiv(h, tau, 2) - ref) < 1e-14 * abs(ref)
    for order in (1, 2):
        with pytest.raises(oracles.PrecisionLost, match="Im tau = 30.0,"):
            oracles.mp_theta1_logderiv(0.5 + 15j, 0.5 + 30j, order)
    with pytest.raises(oracles.PrecisionLost):
        oracles.mp_hessian_det(0.5, 0.5 + 21j)


def test_eval_at_max_im_tau_stays_inside_the_float64_range():
    # at Im tau = MAX_IM_TAU the largest lead of the series, u_0 at
    # Im z0 = -b/2, is e^(pi b / 4) = e^706.9 against the float64 limit
    # e^709.8; a lead formed as e^(i pi z0) would be e^1413.7.  No lead,
    # product, moment or log derivative may overflow there, at |Im z0| = b/2
    # and at the half periods, on one modulus or with one per point
    b = theta.MAX_IM_TAU
    for a in (0.0, 0.5, -0.3):
        tau = complex(a, b)
        edge = np.linspace(-0.5, 0.5, 9)
        z = np.concatenate([edge + 0.5 * tau, edge - 0.5 * tau, [0.5, tau / 2, (1 + tau) / 2]])
        with np.errstate(over="raise"):
            for out in (theta._eval(z, tau), theta._eval(z, np.full(z.size, tau))):
                assert all(np.all(np.isfinite(x)) for x in out), tau
                # log|theta1| at Im z0 = -b/2 is that of its lead, pi b / 4
                assert out[0][9:18] == pytest.approx(np.pi * b / 4, rel=1e-12)


def test_logderiv_order3_consistent_with_order2():
    T = lattice.make_torus(0.5 + 0.8j)
    z = 0.21 + 0.13j
    h = 1e-5
    L3 = theta._eval(z, T.tau)[4]
    fd = (theta._eval(z + h, T.tau)[3] - theta._eval(z - h, T.tau)[3]) / (2 * h)
    assert abs(L3 - fd) < 1e-6 * max(1.0, abs(L3))


def test_logderiv_raises_on_lattice_point():
    # the kernel marks the log derivatives non finite; green.evaluate, which
    # reads its gradient and Hessian from them, raises
    T = lattice.make_torus(1j)
    for z in (0.0, 2.0 + 3.0 * T.tau):
        lm, _, L1, L2, L3 = theta._eval(z, T.tau)
        assert np.isneginf(lm)
        assert not np.isfinite(L1) and not np.isfinite(L2) and not np.isfinite(L3)
        with pytest.raises(PoleAtLattice):
            green.evaluate(z, T)


def test_eval_gives_the_same_bits_whatever_the_batch_shape():
    # numpy rounds scalar complex products differently from its array loops,
    # and reduces and multiplies along the contiguous term axis of a batch of
    # one point with other loops than across a batch; the half periods run
    # at the reduced moduli the package sums at, and 0.31 + 1.07i and
    # 0.2 + 0.55i at 6 and 8 terms
    for T in lattice.random_tori(300, 11):
        hp = (0.5, T.tau_r / 2.0, (1.0 + T.tau_r) / 2.0)
        batched = theta._eval(np.array(hp), T.tau_r)
        for k, h in enumerate(hp):
            for b, s in zip(batched, theta._eval(h, T.tau_r)):
                assert b[k] == s, (T.tau_r, k)
    rng = np.random.default_rng(41)
    for tau in (0.31 + 1.07j, 0.2 + 0.55j):
        z = rng.uniform(-1.5, 1.5, 1000) + rng.uniform(-1.5, 1.5, 1000) * tau
        whole = theta._eval(z, tau)
        for size in (1, 2, 3, 7, 8, 9, 55):
            for start in range(0, z.size - size + 1, size):
                part = theta._eval(z[start:start + size], tau)
                for w, p in zip(whole, part):
                    assert np.array_equal(w[start:start + size], p), (tau, size, start)


def test_eval_with_a_modulus_per_point_gives_each_point_its_own_bits():
    # a batch of several tori sums to the largest term count among them; the
    # terms past a point's own count must be exact zeros.  The moduli sit on
    # both sides of the 6/7 term boundary near Im tau = 1.15 and at 8 terms,
    # and the points include lattice hits and far translates
    taus = [0.1 + 1.14j, -0.2 + 1.16j, 0.5 + 0.5 * math.sqrt(3) * 1j, 0.3 + 2.5j, 0.45 + 0.6j]
    assert {theta._term_count_z(t.imag) for t in taus} == {6, 7, 8}
    # a batch reads the counts of its moduli from the array form of the count
    bs = np.concatenate([np.geomspace(0.5, theta.MAX_IM_TAU, 4001), [t.imag for t in taus]])
    assert theta._term_count_z(bs).tolist() == [theta._term_count_z(b) for b in bs.tolist()]
    rng = np.random.default_rng(23)
    z, tau = [], []
    for t in taus:
        pts = list(rng.uniform(-1.5, 1.5, 9) + rng.uniform(-1.5, 1.5, 9) * t) + [0.0, 1.0 + t, t / 2]
        z += pts
        tau += [t] * len(pts)
    order = rng.permutation(len(z))
    z, tau = np.array(z)[order], np.array(tau)[order]
    batch = theta._eval(z, tau)
    for j in range(z.size):
        alone = theta._eval(z[j], complex(tau[j]))
        for b, a in zip(batch, alone):
            assert b[j] == a or (np.isnan(b[j]) and np.isnan(a)), (z[j], tau[j])


def test_eval_gives_the_same_bits_in_runs_of_any_length(monkeypatch):
    # _eval sums its series over at most _RUN points at a time; runs of 1,
    # 7 and 64 points, on one modulus and on one per point, must give the
    # bits of a single run
    rng = np.random.default_rng(47)
    taus = [0.1 + 1.14j, -0.2 + 1.16j, 0.45 + 0.6j, 0.3 + 2.5j]
    z = rng.uniform(-1.5, 1.5, 300) + rng.uniform(-1.5, 1.5, 300) * 1.07j
    z[:3] = (0.0, 1.0, 0.5)
    per_point = np.array(taus)[rng.integers(0, len(taus), z.size)]
    monkeypatch.setattr(theta, "_RUN", z.size)
    whole = [theta._eval(z, 0.31 + 1.07j), theta._eval(z, per_point)]
    for run in (1, 7, 64):
        monkeypatch.setattr(theta, "_RUN", run)
        for want, got in zip(whole, [theta._eval(z, 0.31 + 1.07j), theta._eval(z, per_point)]):
            for w, g in zip(want, got):
                np.testing.assert_array_equal(w, g)


def test_series_matches_the_exp_per_term_oracle(monkeypatch):
    # every call _eval makes to the term recurrence is checked against the
    # exp-per-term sum, to 1e-13 of the sum of the moduli of its terms: a
    # sum that cancels, as theta1 does near a lattice point, has no
    # relative error to hold it to
    series = theta._series
    checked = []

    def compared(z0, tau, nterms, reads):
        out = series(z0, tau, nterms, reads)
        assert len(out) == reads
        ref = oracles.theta_series_exp_per_term(z0, tau, nterms, center=1j * np.pi)
        gross = oracles.theta_series_gross(z0, tau, nterms, center=1j * np.pi)
        for j, (a, r, g) in enumerate(zip(out, ref, gross)):
            assert np.all(np.isfinite(a)), (tau, j)
            assert np.all(np.abs(a - r) <= 1e-13 * g), (tau, j)
        checked.append(tau)
        return out

    monkeypatch.setattr(theta, "_series", compared)
    rng = np.random.default_rng(43)
    # every modulus is summed at its reduced frame, as the package does;
    # 1/3 + 0.01i reduces to about -1/3 + 11.1i, and 0.2 + 0.5i is the
    # smallest Im tau the series takes, at 8 terms
    taus = [T.tau_r for T in lattice.random_tori(300, 11)] + [
        lattice.reduce_modulus(tau)[0] for tau in (0.5 + 8j, 12j, 100j, 0.3 + 600j, 1 / 3 + 0.01j)
    ] + [0.2 + 0.5j]
    for tau in taus:
        z = rng.uniform(-0.5, 0.5, 6) + rng.uniform(-0.5, 0.5, 6) * tau
        z = np.concatenate([[0.5, tau / 2, (1 + tau) / 2], z, [0.3 + 0.5 * tau, 3.1 - 2.5 * tau]])
        for reads in (theta.ALL, theta.LOG_MAG, theta.LOG_MAG_L1):
            for out in theta._eval(z, tau, reads):
                assert out is None or np.all(np.isfinite(out)), tau
    assert checked == [tau for tau in taus for _ in range(3)]
    assert taus[-2].imag > 11.0 and theta._term_count_z(taus[-1].imag) == 8


def test_small_imag_tau_routes_accurately():
    # below Im tau = 1/2 the series is summed at the reduced modulus only;
    # the Green function and zeta carried back from there must still match
    # mpmath's theta at tau itself
    tau = 0.1 + 0.08j
    T = lattice.make_torus(tau)
    eta1 = oracles.mp_eta1(tau)
    for z in (0.23 + 0.017j, -0.41 + 0.02j, 0.05 - 0.03j):
        ref = oracles.green_value_slow(z, tau)
        assert abs(green.green_rel(z, T) - ref) < 1e-11 * max(1.0, abs(ref))
        ref = oracles.mp_theta1_logderiv(z, tau, 1) + eta1 * z
        assert abs(weier.zeta(z, T) - ref) < 1e-11 * max(1.0, abs(ref))


def test_rhombic_line_b_derivs_match_mpmath():
    def logmag(z, b):
        return mp.log(abs(oracles.mp_theta1(z, mp.mpc(0.5, b))))

    for z, b in [(0.31, 0.7), (0.11, 0.45), (0.47, 1.3), (1.0 / 3.0, 0.8660254)]:
        d1, d2 = oracles.log_theta1_b_derivs(z, b)
        r1 = float(mp.diff(lambda bb: logmag(z, bb), mp.mpf(b)))
        r2 = float(mp.diff(lambda bb: logmag(z, bb), mp.mpf(b), 2))
        assert abs(d1 - r1) < 1e-9 * max(1.0, abs(r1))
        assert abs(d2 - r2) < 1e-7 * max(1.0, abs(r2))


def test_theta3_b_derivs_match_mpmath():
    def logmag(b):
        q = mp.exp(1j * mp.pi * mp.mpc(0.5, b))
        return mp.log(abs(mp.jtheta(3, 0, q)))

    for b in (0.5, 0.8660254, 1.6):
        d1, d2 = oracles.log_theta3_b_derivs(b)
        r1 = float(mp.diff(logmag, mp.mpf(b)))
        r2 = float(mp.diff(logmag, mp.mpf(b), 2))
        assert abs(d1 - r1) < 1e-10 * max(1.0, abs(r1))
        assert abs(d2 - r2) < 1e-8 * max(1.0, abs(d2))


def test_bad_modulus_rejected():
    with pytest.raises(UnreducedModulus):
        theta._eval(0.2, 1.0 - 0.5j)
    with pytest.raises(NonPositiveImaginaryPart):
        oracles.log_theta1_b_derivs(0.2, -0.3)
    with pytest.raises(NonPositiveImaginaryPart):
        oracles.log_theta3_b_derivs(0.0)


def test_eval_below_half_raises_unreduced_modulus():
    # the direct series was never trusted below Im tau = 1/2; the Green
    # function and the Weierstrass layer sum at the reduced modulus instead
    with pytest.raises(UnreducedModulus):
        theta._eval(0.2, 0.2 + 0.35j)
    with pytest.raises(UnreducedModulus):
        theta.theta1(0.2, lattice.make_torus(0.2 + 0.4999j))
    assert np.isfinite(theta._eval(0.2, 0.2 + 0.5j)[0])
    assert np.isfinite(green.green_rel(0.2, lattice.make_torus(0.2 + 0.35j)))


def test_series_past_max_im_tau_raise_invalid_input():
    # e^(-pi Im tau / 4) leaves the normal float64 range at about Im tau =
    # 902; at the bound the series still gives its cusp limits, among them
    # (log|theta2(0)|)_b = -A_1 / 4 pi = -pi / 4 on the rhombic line
    b = theta.MAX_IM_TAU
    assert -moduli._rhombic(b)[0] / (4 * math.pi) == pytest.approx(-math.pi / 4, rel=1e-14)
    L1 = theta._eval(0.3, 0.3 + 1j * b)[2]
    assert L1 == pytest.approx(math.pi / math.tan(0.3 * math.pi), rel=1e-14)
    above = np.nextafter(b, math.inf)
    for call in (lambda: theta._eval(0.3, 0.3 + 1j * above),
                 # a batch is checked at its highest modulus
                 lambda: theta._eval(np.array([0.3, 0.3]), np.array([1j, 0.3 + 1j * above])),
                 lambda: moduli.functional_equation_residual(above),
                 lambda: moduli.verify_fundamental_inequalities([math.inf])):
        with pytest.raises(InvalidInput, match=f"above {b}"):
            call()


# the stencil of mfe.verify_solution at 64^2, and moduli from the
# hexagonal torus to Im tau = 40 with the doubled hexagonal torus of the
# 4 pi solution
STENCIL_H = 1.0 / 4096.0
STENCIL = np.array([STENCIL_H, -STENCIL_H, 1j * STENCIL_H, -1j * STENCIL_H])
STENCIL_TAUS = (0.5 + 0.5 * math.sqrt(3) * 1j, 1j, 0.31 + 1.07j, -0.2 + 2.5j, 0.5 + 5j,
                -0.2 + 40j, 1.0 + math.sqrt(3) * 1j)


def _stencil_points(tau, rng):
    """Points in the cell on both sides of s = 0 (flipped and not), within
    2h of s = 0 and of the cell edges s, t = +-1/2, and translates of all of
    them by up to 3 periods; none near a lattice point, where theta1's
    relative error is eps over its size on either route."""
    h = 2.0 * STENCIL_H / tau.imag
    t = rng.uniform(-0.5, 0.5, 40)
    s = rng.uniform(-0.5, 0.5, 40)
    s_near = np.array([-h, -h / 4, -0.0, 0.0, h / 3, h, 0.5 - h, 0.5 - h / 5, -0.5, -0.5 + h])
    t_near = rng.uniform(0.1, 0.4, s_near.size) * rng.choice([-1.0, 1.0], s_near.size)
    t_edge = np.array([-0.5, -0.5 + h / 2, 0.5 - h, 0.5 - h / 7])
    s_edge = rng.uniform(0.1, 0.4, 4)
    cell = np.concatenate([t + s * tau, t_near + s_near * tau, t_edge + s_edge * tau])
    return np.concatenate([cell, cell + 3.0 * tau - 2.0, cell - tau + 1.0, -cell + 2.0 * tau])


@pytest.mark.parametrize("tau", STENCIL_TAUS)
def test_neighbour_rows_match_direct_passes(tau):
    # row j of a pass with offsets is theta1 at z + offsets[j - 1], as a pass
    # of its own there gives it, to 1e-14 (log|theta1|) and 2e-13 (L1) of
    # max(1, |x|); row 0 is the pass without offsets to the bit
    z = _stencil_points(tau, np.random.default_rng(53))
    for reads in (theta.LOG_MAG, theta.LOG_MAG_L1):
        rows = theta._eval(z, tau, reads, STENCIL)
        centre = theta._eval(z, tau, reads)
        for got, want in zip(rows, centre):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.shape == (5,) + z.shape
                np.testing.assert_array_equal(got[0], want)
        for j, d in enumerate(STENCIL):
            direct = theta._eval(z + d, tau, reads)
            # log|theta1| (output 0) and L1 (output 2)
            for k, bound in ((0, 1e-14), (2, 2e-13)):
                if direct[k] is not None:
                    err = np.abs(rows[k][j + 1] - direct[k])
                    assert np.all(err <= bound * np.maximum(1.0, np.abs(direct[k]))), (d, k)


def test_neighbour_rows_of_a_lattice_point_are_its_neighbours():
    # the centre snaps to the -inf sentinel, its neighbours do not: theta1
    # there cancels to O(h), so both routes hold eps / h relative
    tau = 0.31 + 1.07j
    z = np.array([0.0, 1.0 + tau, -2.0 * tau])
    lm, _, L1, *_ = theta._eval(z, tau, theta.LOG_MAG_L1, STENCIL)
    assert np.isneginf(lm[0]).all() and np.isnan(L1[0]).all()
    for j, d in enumerate(STENCIL):
        direct = theta._eval(z + d, tau, theta.LOG_MAG_L1)
        np.testing.assert_allclose(lm[j + 1], direct[0], rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(L1[j + 1], direct[2], rtol=1e-11)


def test_neighbour_rows_give_the_same_bits_alone_and_in_a_batch(monkeypatch):
    # the neighbour sums run over the terms in one order for every point,
    # in runs of any length, like the centre's
    tau = 0.31 + 1.07j
    z = _stencil_points(tau, np.random.default_rng(59))
    whole = theta._eval(z, tau, theta.LOG_MAG_L1, STENCIL)
    for k in (0, 7, 45, z.size - 1):
        alone = theta._eval(z[k], tau, theta.LOG_MAG_L1, STENCIL)
        assert alone[0].shape == (5,)
        np.testing.assert_array_equal(alone[0], whole[0][:, k])
        np.testing.assert_array_equal(alone[2], whole[2][:, k])
    monkeypatch.setattr(theta, "_RUN", 7)
    for w, g in zip(whole, theta._eval(z, tau, theta.LOG_MAG_L1, STENCIL)):
        np.testing.assert_array_equal(w, g)


def test_neighbour_rows_refuse_what_their_tail_bound_does_not_cover():
    # one modulus, the moments of L1 at most, offsets in pairs (d, -d), each
    # real or imaginary, and |Im d| <= Im tau / 4, where the spare terms of
    # the count bound the tail
    tau = 1j
    assert np.isfinite(theta._eval(0.2, tau, theta.LOG_MAG, [0.25j, -0.25j])[0]).all()
    for call in (lambda: theta._eval(0.2, tau, theta.LOG_MAG, [0.26j, -0.26j]),
                 lambda: theta._eval(0.2, tau, theta.ALL, STENCIL),
                 lambda: theta._eval(0.2, tau, theta.LOG_MAG, [1e-3 + 1e-3j, -1e-3 - 1e-3j]),
                 lambda: theta._eval(0.2, tau, theta.LOG_MAG, STENCIL[[0, 2, 1, 3]]),
                 lambda: theta._eval(np.array([0.2]), np.array([tau]), theta.LOG_MAG, STENCIL)):
        with pytest.raises(ValueError, match="neighbour rows"):
            call()
