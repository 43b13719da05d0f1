import cmath
import math

import numpy as np
import pytest

import oracles
from torusgreen import green, lattice, moduli, theta, weier
from torusgreen.errors import HalfPeriodInput, PoleAtLattice, Unconverged

TAUS = [1j, 0.5 + 0.5 * math.sqrt(3) * 1j, 0.5 + 0.8j, 0.13 + 0.92j, 0.2 + 0.35j]
# near the cusp on Re tau = 0 and Re tau = 1/2, on both sides of Im tau = 1
CUSP_TAUS = [0.05j, 0.02j, 0.065j, 0.5 + 0.03j, 0.5 + 8j, 12j]


def test_invariants_sum_and_symmetric_functions():
    for tau in TAUS:
        T = lattice.make_torus(tau)
        inv = weier.invariants(T)
        scale = max(abs(inv.e1), abs(inv.e2), abs(inv.e3))
        assert abs(inv.e1 + inv.e2 + inv.e3) < 1e-12 * scale
        # e_i are exactly the roots of 4x^3 - g2 x - g3
        for e in (inv.e1, inv.e2, inv.e3):
            val = 4.0 * e ** 3 - inv.g2 * e - inv.g3
            assert abs(val) < 1e-11 * max(1.0, scale ** 3)


def test_legendre_relation():
    for tau in TAUS:
        inv = weier.invariants(lattice.make_torus(tau))
        assert abs(inv.eta1 * tau - inv.eta2 - 2j * np.pi) < 1e-13


def _modular_lambda(inv):
    return (inv.e3 - inv.e2) / (inv.e1 - inv.e2)


def test_square_torus_closed_forms():
    inv = weier.invariants(lattice.make_torus(1j))
    # eta1(i) = pi and the modular lambda (e3 - e2) / (e1 - e2) sends i to 1/2
    assert abs(inv.eta1 - np.pi) < 1e-13
    assert abs(_modular_lambda(inv) - 0.5) < 1e-13
    assert abs(inv.g3) < 1e-13 * abs(inv.g2)
    # e2 = -e1 on the square torus, e3 = 0 in this labeling
    assert abs(inv.e3) < 1e-13 * abs(inv.e1)


def test_hex_torus_lambda_satisfies_sextic_fixed_point():
    inv = weier.invariants(lattice.make_torus(complex(0.5, math.sqrt(3) / 2)))
    # j = 0 forces lam^2 - lam + 1 = 0, whichever of the two roots shows up
    lam = _modular_lambda(inv)
    assert abs(lam ** 2 - lam + 1.0) < 1e-12
    assert abs(inv.g2) < 1e-12 * abs(inv.g3) ** (2.0 / 3.0)


def test_eta1_matches_mpmath():
    for tau in TAUS + CUSP_TAUS:
        inv = weier.invariants(lattice.make_torus(tau))
        ref = oracles.mp_eta1(tau)
        assert abs(inv.eta1 - ref) < 1e-12 * max(1.0, abs(ref))
        # theta1'(0) at the reduced modulus, phase included, from the nulls
        # of the same pass
        th1p = complex(oracles.mp_theta1_dz(0.0, lattice.reduce_modulus(tau)[0], 1))
        assert abs(cmath.exp(inv.log_theta1_prime) - th1p) < 1e-12 * abs(th1p)
        # log|theta2(0)|, log|theta4(0)|, log|theta3(0)| at the reduced
        # modulus, which give the half-period values of G
        tau_r = lattice.make_torus(tau).tau_r
        q = oracles.mp.exp(1j * oracles.mp.pi * oracles.mp.mpc(tau_r))
        for got, j in zip(inv.log_abs_nulls_r, (2, 4, 3)):
            ref = float(oracles.mp.log(abs(oracles.mp.jtheta(j, 0, q))))
            assert abs(got - ref) < 1e-13 * max(1.0, abs(ref)), (tau, j)


def test_gap_check_catches_a_corrupted_half_period(monkeypatch):
    # e1 + e2 + e3 = 0 holds by construction, so only the gap identities
    # e1 - e2 = pi^2 theta3(0)^4 etc. can see a wrong A_k of the null sum
    real = weier.nulls

    def corrupted(tau):
        log_nulls, a = real(tau)
        return log_nulls, a * np.array([1.0, 1.0 + 1e-9, 1.0])

    monkeypatch.setattr(weier, "nulls", corrupted)
    weier._invariants_cached.cache_clear()
    try:
        with pytest.raises(Unconverged, match="gap identities"):
            weier.invariants(lattice.make_torus(0.13 + 0.92j))
    finally:
        weier._invariants_cached.cache_clear()


def _record_tori():
    # random moduli, both cusp lines from b = 0.002 to 250, and the
    # selftest frame tori, one outside the fundamental domain
    cusp = [complex(re, b) for re in (0.0, 0.5) for b in np.geomspace(0.002, 250.0, 30)]
    return lattice.random_tori(200, 3) + [lattice.make_torus(tau) for tau in
                                          cusp + [3.2 + 0.9j, 0.5 + 0.8j]]


def test_the_half_period_record_matches_its_two_references():
    # the null sum's closed-form rows on the reduced torus against
    # green.evaluate's pass at its half periods: det within det_bound and
    # of the same sign outside it, the values and the other Hessian entries
    # to a few ulps of their scale; and the invariants against a theta
    # pass of their own at the reduced half periods, the route the null
    # sum replaced, arg theta1'(0) mod 2 pi
    eps = np.finfo(float).eps
    for T in _record_tori():
        rows, failed = green.half_period_rows([T])
        ev = green.evaluate(np.array(T.reduced.half_periods), T.reduced)
        assert failed == {} and np.array_equal(rows.grad, np.zeros((2, 3)))
        assert np.all(np.abs(rows.hessian.det - ev.hessian.det) <= ev.det_bound), T.tau
        decided = np.abs(rows.hessian.det) > rows.det_bound
        assert np.all(((rows.hessian.det > 0) == (ev.hessian.det > 0)) | ~decided), T.tau
        scale = np.abs(ev.hessian.xx) + np.abs(ev.hessian.yy)
        for f in ("xx", "xy", "yy"):
            got, want = getattr(rows.hessian, f), getattr(ev.hessian, f)
            assert np.all(np.abs(got - want) <= 8 * eps * scale), (T.tau, f)
        # green's value at tau_r/2 is -log|theta1| / 2 pi + Im tau_r / 8 from
        # two terms of size Im tau_r / 8
        assert np.all(np.abs(rows.value_rel - ev.value_rel)
                      <= 4 * eps * (1.0 + T.tau_r.imag)), T.tau
        inv = weier.invariants(T)
        ref = oracles.invariants_at_reduced_half_periods(T)
        scale = max(abs(inv.e1), abs(inv.e2), abs(inv.e3))
        for key in ("e1", "e2", "e3", "eta1"):
            assert abs(getattr(inv, key) - ref[key]) <= 16 * eps * scale, (T.tau, key)
        assert np.allclose(inv.log_abs_nulls_r, ref["log_abs_nulls_r"], rtol=0,
                           atol=8 * eps * (1.0 + math.pi * T.tau_r.imag))
        lp, ref_lp = inv.log_theta1_prime, ref["log_theta1_prime"]
        # the pass's log|theta1| at tau_r/2 and (1+tau_r)/2 is pi Im tau_r / 4
        # in size before its factor |q|^(1/4) takes that back
        assert abs(lp.real - ref_lp.real) <= 8 * eps * (1.0 + math.pi * T.tau_r.imag), T.tau
        turns = (lp.imag - ref_lp.imag) / (2 * math.pi)
        assert abs(turns - round(turns)) < 1e-14, T.tau
        # A_k from the null sum alone is e_k + eta1 up to the rounding of
        # e_k and of eta1's frame law, 16 ulps of the largest of them
        scale = max(abs(x) for x in (*inv.a, inv.e1, inv.e2, inv.e3, inv.eta1))
        for a, e in zip(inv.a, (inv.e1, inv.e2, inv.e3)):
            assert abs(a - (e + inv.eta1)) <= 64 * eps * scale, T.tau


def _null_tori():
    # the three lines Re tau = 0, 1/4 and 1/2 toward both cusps; b = 1e-3
    # on Re tau = 0 reduces past MAX_IM_TAU, and sums nothing
    taus = [complex(re, b) for re in (0.0, 0.25, 0.5)
            for b in (*np.geomspace(1e-3, 0.05, 12), *np.geomspace(5.0, 250.0, 12))]
    return [T for T in map(lattice.make_torus, taus) if T.tau_r.imag <= theta.MAX_IM_TAU]


def test_the_null_sum_matches_its_q_series_at_200_digits():
    # A_k to a few ulps while |A_k| is a normal float (Im tau_r up to about
    # 226), the rounding of the subnormal q past it; next to Re tau_r =
    # +-1/2, where q is nearly +-i |q| and Re A_2, Re A_3 are O(|q|^2),
    # Re A_k to C_RHOMBIC ulps of |A_k|; log theta_j(0) to a few ulps; and
    # the determinants of the closed-form rows to their bounds
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    tori = _null_tori()
    log_nulls, a = theta.nulls(np.array([T.tau_r for T in tori]))
    rows = green.half_period_rows(tori)[0]
    det, bound = rows.hessian.det.reshape(-1, 3), rows.det_bound.reshape(-1, 3)
    rhombic = 0
    for T, got_logs, got_a, d, b in zip(tori, log_nulls, a, det, bound):
        ref_a, ref_logs = oracles.mp_theta_nulls(T.tau_r)
        for k in range(3):
            want = complex(ref_a[k])
            assert abs(got_a[k] - want) <= 4 * eps * abs(want) + 64 * tiny * eps, (T.tau, k)
            if abs(T.tau_r.real) > 0.49:
                rhombic += 1
                err = abs(got_a[k].real - want.real)
                assert err <= moduli.C_RHOMBIC * eps * abs(want), (T.tau, k)
            want = complex(ref_logs[k])
            assert abs(got_logs[k] - want) <= 4 * eps * max(1.0, abs(want)), (T.tau, k)
            pb = oracles.mp.pi / T.tau_r.imag
            ref_det = float((2 * pb * ref_a[k].real - abs(ref_a[k]) ** 2) / (4 * oracles.mp.pi ** 2))
            assert abs(d[k] - ref_det) <= b[k], (T.tau, k)
            assert abs(d[k]) <= b[k] or (d[k] > 0) == (ref_det > 0), (T.tau, k)
    assert rhombic == 3 * 24


def test_a_modulus_gets_the_same_bits_alone_as_in_a_batch(monkeypatch):
    # 1024 reduced tori from Im tau_r = sqrt(3)/2 to 900, whose terms
    # underflow at different rows of the sum: A_k, the log nulls, the
    # closed-form rows and the gap Unconverged (A_1 off by 1e-9 on every
    # seventh modulus) are each modulus's own bits
    tori = lattice.random_tori(1000, 11) + [
        lattice.make_torus(complex(re, b)) for re in (0.0, 0.5, -0.31)
        for b in np.geomspace(1.0, 900.0, 8)]
    assert len(tori) == 1024
    off = [T.tau_r for T in tori[::7]]
    real = weier.nulls

    def corrupted(tau):
        log_nulls, a = real(tau)
        return log_nulls, a * np.where(np.isin(tau, off)[:, None], [1.0 + 1e-9, 1.0, 1.0], 1.0)

    batch_logs, batch_a = theta.nulls(np.array([T.tau_r for T in tori]))
    batch_rows = oracles.rows(green.half_period_rows(tori)[0])
    monkeypatch.setattr(weier, "nulls", corrupted)
    failed = weier.reduced_nulls(tori)[2]
    assert set(failed) == set(range(0, 1024, 7))
    monkeypatch.setattr(weier, "nulls", real)
    for k, T in enumerate(tori):
        logs, a = theta.nulls(np.array([T.tau_r]))
        assert np.array_equal(logs[0], batch_logs[k]) and np.array_equal(a[0], batch_a[k])
        assert oracles.rows(green.half_period_rows([T])[0]) == batch_rows[3 * k:3 * k + 3]
    monkeypatch.setattr(weier, "nulls", corrupted)
    for k in range(0, 1024, 7):
        assert str(weier.reduced_nulls([tori[k]])[2][0]) == str(failed[k])


def test_wp_matches_lattice_row_sum():
    rng = np.random.default_rng(41)
    for tau in (1j, 0.5 + 0.8j, 0.13 + 0.92j):
        T = lattice.make_torus(tau)
        for _ in range(2):
            z = complex(rng.uniform(0.05, 0.45), rng.uniform(0.02, 0.3))
            got = weier.wp(z, T)
            ref = oracles.wp_rowsum(z, tau)
            assert abs(got - ref) < 1e-11 * max(1.0, abs(ref))


def test_wp_prime_matches_difference_quotient():
    T = lattice.make_torus(0.5 + 0.8j)
    for z in (0.21 + 0.13j, -0.32 + 0.27j):
        got = weier.wp(z, T, order=1)
        ref = oracles.wp_prime_rowsum(z, T.tau)
        assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))


def test_wp_second_derivative_consistent():
    T = lattice.make_torus(0.13 + 0.92j)
    z = 0.17 + 0.29j
    h = 1e-5
    got = weier.wp(z, T, order=2)
    fd = (weier.wp(z + h, T, 1) - weier.wp(z - h, T, 1)) / (2.0 * h)
    assert abs(got - fd) < 1e-5 * max(1.0, abs(got))
    with pytest.raises(ValueError):
        weier.wp(z, T, order=3)


def test_wp_differential_equation():
    rng = np.random.default_rng(43)
    for tau in TAUS:
        T = lattice.make_torus(tau)
        inv = weier.invariants(T)
        z = complex(rng.uniform(0.05, 0.4), rng.uniform(0.02, 0.25))
        p = weier.wp(z, T)
        p1 = weier.wp(z, T, order=1)
        lhs = p1 * p1
        rhs = 4.0 * p ** 3 - inv.g2 * p - inv.g3
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_wp_even_zeta_odd():
    T = lattice.make_torus(0.5 + 0.8j)
    z = 0.23 + 0.11j
    assert abs(weier.wp(z, T) - weier.wp(-z, T)) < 1e-12 * abs(weier.wp(z, T))
    assert abs(weier.zeta(z, T) + weier.zeta(-z, T)) < 1e-12 * abs(weier.zeta(z, T))


def test_zeta_matches_theta_route_from_mpmath():
    for tau in (1j, 0.13 + 0.92j):
        T = lattice.make_torus(tau)
        z = 0.19 + 0.07j
        got = weier.zeta(z, T)
        ref = oracles.mp_theta1_logderiv(z, tau, 1) + oracles.mp_eta1(tau) * z
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_zeta_quasi_periods():
    for tau in TAUS:
        T = lattice.make_torus(tau)
        inv = weier.invariants(T)
        z = 0.13 + 0.21j
        assert abs(weier.zeta(z + 1.0, T) - weier.zeta(z, T) - inv.eta1) < 1e-11
        assert abs(weier.zeta(z + tau, T) - weier.zeta(z, T) - inv.eta2) < 1e-11
        assert abs(weier.zeta(0.5, T) - inv.eta1 / 2.0) < 1e-12 * max(1.0, abs(inv.eta1))


def test_zeta_simple_pole_at_origin():
    T = lattice.make_torus(0.5 + 0.8j)
    for eps in (1e-4, 1e-4j, 1e-4 * (1 + 1j)):
        val = weier.zeta(eps, T)
        assert abs(eps * val - 1.0) < 1e-6


def test_sigma_behaves_like_z_at_origin():
    for tau in [0.13 + 0.92j] + CUSP_TAUS:
        T = lattice.make_torus(tau)
        z = 1e-5 + 2e-5j
        s = weier.sigma(z, T)
        assert abs(s.value / z - 1.0) < 1e-8
        assert weier.sigma(0.0, T).is_zero


def test_sigma_quasi_periodicity():
    for tau in (1j, 0.5 + 0.8j):
        T = lattice.make_torus(tau)
        inv = weier.invariants(T)
        z = 0.17 + 0.09j
        lhs = weier.sigma(z + 1.0, T)
        factor = -cmath.exp(inv.eta1 * (z + 0.5))
        rhs = weier.sigma(z, T).value * factor
        assert abs(lhs.value - rhs) < 1e-12 * abs(rhs)


@pytest.mark.parametrize("tau", [complex(0.5, math.sqrt(3) / 2), 0.5 + 0.3j,
                                 2.0 * lattice.make_torus(-0.31 + 0.42j).tau_r, 0.5 + 8j])
def test_translate_matches_evaluate_at_the_translate(tau):
    # Legendre's law from the values at w against a pass at w + m + n tau:
    # log|sigma| to 1e-14 of the law's term eta_lam (w + lam/2) (at least 1),
    # zeta to 1e-13 of max(1, |zeta|); an unreduced torus, the doubled
    # lattice of a 4 pi map and one toward the rhombic cusp among them
    T = lattice.make_torus(tau)
    inv = weier.invariants(T)
    rng = np.random.default_rng(5)
    w = rng.uniform(-0.5, 0.5, 50) + rng.uniform(-0.5, 0.5, 50) * tau
    ev = weier.evaluate(w, T, theta.LOG_MAG_L1)
    for m, n in ((1, 0), (0, 1), (-1, 0), (1, 1), (-2, 3)):
        log_abs, zeta = weier.translate(ev.sigma.log_mag, ev.zeta, w, m, n, T)
        want = weier.evaluate(w + m + n * tau, T)
        term = np.abs((m * inv.eta1 + n * inv.eta2) * (w + 0.5 * (m + n * tau)))
        assert np.all(np.abs(log_abs - want.sigma.log_mag) <= 1e-14 * np.maximum(1.0, term))
        assert np.all(np.abs(zeta - want.zeta) <= 1e-13 * np.maximum(1.0, np.abs(want.zeta)))
    assert weier.translate(ev.sigma.log_mag, None, w, 1, 0, T)[1] is None


def test_sigma_is_odd():
    T = lattice.make_torus(0.5 + 0.8j)
    z = 0.31 - 0.12j
    a = weier.sigma(z, T)
    b = weier.sigma(-z, T)
    assert abs(a.log_mag - b.log_mag) < 1e-13 * max(1.0, abs(a.log_mag))
    assert abs(cmath.exp(1j * (a.arg - b.arg)) + 1.0) < 1e-12


def test_zeta_duplication_residual():
    T = lattice.make_torus(0.13 + 0.92j)
    for z in (0.21 + 0.17j, -0.11 + 0.28j):
        assert weier.addition_zeta_residual(z, T) < 1e-8
    with pytest.raises(HalfPeriodInput):
        weier.addition_zeta_residual(0.5, T)


def test_pole_guards():
    T = lattice.make_torus(0.5 + 0.8j)
    with pytest.raises(PoleAtLattice):
        weier.zeta(0.0, T)
    with pytest.raises(PoleAtLattice):
        weier.wp(1.0 + T.tau, T)


def test_wp_vectorized_matches_scalar():
    T = lattice.make_torus(0.13 + 0.92j)
    zs = np.array([0.21 + 0.13j, -0.32 + 0.27j, 0.05 - 0.41j])
    vec = weier.wp(zs, T)
    for k, z in enumerate(zs):
        one = weier.wp(complex(z), T)
        assert abs(vec[k] - one) < 1e-14 * abs(one)


@pytest.mark.parametrize("tau", [0.13 + 0.92j, 0.2 + 0.35j], ids=["direct", "jacobi"])
def test_evaluate_matches_the_single_quantity_readers_bitwise(tau):
    T = lattice.make_torus(tau)
    zs = np.array([0.21 + 0.13j, -0.32 + 0.27j, 1.05 - 0.41j, 0.5, 2.3 + 1.7 * tau])
    ev = weier.evaluate(zs, T)
    np.testing.assert_array_equal(ev.sigma.log_mag, weier.sigma(zs, T).log_mag)
    np.testing.assert_array_equal(ev.sigma.arg, weier.sigma(zs, T).arg)
    np.testing.assert_array_equal(ev.zeta, weier.zeta(zs, T))
    np.testing.assert_array_equal(ev.p, weier.wp(zs, T, order=0))
    np.testing.assert_array_equal(ev.p_prime, weier.wp(zs, T, order=1))
    # a point alone gives the same bits as inside the batch
    for k, z in enumerate(zs):
        one = weier.evaluate(complex(z), T)
        assert (one.sigma.log_mag, one.sigma.arg, one.zeta, one.p, one.p_prime) == (
            ev.sigma.log_mag[k], ev.sigma.arg[k], ev.zeta[k], ev.p[k], ev.p_prime[k])


def test_evaluate_keeps_the_lattice_sentinel():
    T = lattice.make_torus(0.5 + 0.8j)
    ev = weier.evaluate(np.array([0.0, 1.0 + T.tau, 0.3]), T)
    assert ev.sigma.log_mag[0] == -math.inf
    assert ev.sigma.log_mag[1] == -math.inf
    assert np.isnan(ev.p[:2]).all() and np.isfinite(ev.p[2])
