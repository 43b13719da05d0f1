import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from torusgreen import green, lattice, weier
from torusgreen.errors import PoleAtLattice
from torusgreen.green import Hessian2

# C(i) = (1/2 pi) log eta(i) with eta(i) = Gamma(1/4) / (2 pi^(3/4)); the
# smooth split quadrature (oracles.green_constant_smooth_split) reproduces it
# to ~1e-17 and the disk patch quadrature (green_constant_quadrature, n = 400,
# r = 0.05) to ~2e-5
GREEN_CONSTANT_SQUARE = -0.04196471333538877

grid64 = st.integers(min_value=-31, max_value=31)
shift = st.integers(min_value=-3, max_value=3)


def test_green_rel_matches_slow_route():
    rng = np.random.default_rng(31)
    for tau in (1j, 0.5 + 0.8j, 0.13 + 0.92j, 0.2 + 0.35j):
        T = lattice.make_torus(tau)
        for _ in range(3):
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.02, 0.4))
            got = green.green_rel(z, T)
            ref = oracles.green_value_slow(z, tau)
            assert abs(got - ref) < 1e-13 * max(1.0, abs(ref))


def test_green_rel_is_the_value_of_evaluate_bit_for_bit():
    # green_rel skips the gradient and Hessian but shares evaluate's value
    # formula, so the two agree to the last bit, alone and in batches
    rng = np.random.default_rng(37)
    for T in lattice.random_tori(50, 3):
        z = rng.uniform(-1.5, 1.5, 7) + rng.uniform(-1.5, 1.5, 7) * T.tau
        assert green.green_rel(complex(z[0]), T) == green.evaluate(complex(z[0]), T).value_rel
        assert np.array_equal(green.green_rel(z, T), green.evaluate(z, T).value_rel)
        grid = z.reshape(1, 7)
        assert np.array_equal(green.green_rel(grid, T), green.evaluate(grid, T).value_rel)


@given(ti=grid64, si=grid64, m=shift, n=shift)
def test_green_rel_bitwise_periodic(ti, si, m, n):
    # dyadic coordinates on a dyadic modulus translate without rounding, so
    # the canonical cell reduction makes translates literally identical
    T = lattice.make_torus(0.25 + 1.25j)
    if ti == 0 and si == 0:
        return
    t, s = ti / 64.0, si / 64.0
    z = t + s * T.tau
    base = green.green_rel(z, T)
    shifted = green.green_rel(z + m + n * T.tau, T)
    assert shifted == base


def test_green_rel_periodic_generic_modulus():
    T = lattice.make_torus(0.31 + 1.07j)
    for z in (0.21 + 0.13j, -0.32 + 0.27j, 0.05 - 0.41j):
        base = green.green_rel(z, T)
        for m, n in ((1, 0), (0, 1), (-2, 3)):
            shifted = green.green_rel(z + m + n * T.tau, T)
            assert abs(shifted - base) < 1e-11


def test_green_rel_even():
    T = lattice.make_torus(0.13 + 0.92j)
    for z in (0.21 + 0.13j, -0.32 + 0.27j, 0.05 - 0.41j):
        assert abs(green.green_rel(z, T) - green.green_rel(-z, T)) < 1e-14


def test_pole_at_lattice_raises():
    T = lattice.make_torus(0.5 + 0.8j)
    with pytest.raises(PoleAtLattice):
        green.green_rel(0.0, T)
    with pytest.raises(PoleAtLattice):
        green.green_rel(1.0 + T.tau, T)


def test_gradient_matches_difference_quotient():
    for tau in (1j, 0.5 + 0.8j):
        T = lattice.make_torus(tau)
        for z in (0.21 + 0.13j, -0.17 + 0.31j):
            gx, gy = green.evaluate(z, T).grad
            fx, fy = oracles.fd_gradient(
                lambda x, y: green.green_rel(complex(x, y), T), z.real, z.imag
            )
            assert abs(gx - fx) < 2e-9
            assert abs(gy - fy) < 2e-9


def test_hessian_matches_difference_quotient():
    T = lattice.make_torus(0.5 + 0.8j)
    z = 0.23 + 0.11j
    h = green.evaluate(z, T).hessian
    fxx, fxy, fyy = oracles.fd_hessian(
        lambda x, y: green.green_rel(complex(x, y), T), z.real, z.imag
    )
    assert abs(h.xx - fxx) < 1e-6
    assert abs(h.xy - fxy) < 1e-6
    assert abs(h.yy - fyy) < 1e-6
    assert abs(h.det - (h.xx * h.yy - h.xy ** 2)) < 1e-12 * max(1.0, abs(h.det))


def test_hessian_trace_is_inverse_area():
    # away from the source, -Laplace G = -1/area exactly
    for tau in (1j, 0.5 + 0.8j, 0.13 + 0.92j):
        T = lattice.make_torus(tau)
        for z in (0.21 + 0.13j, 0.4 - 0.22j):
            h = green.evaluate(z, T).hessian
            assert abs(h.trace - 1.0 / T.b) < 1e-13 / T.b


def test_critical_residual_consistent_with_gradient():
    # 2 pi (G_x + i G_y) picks up the residual through L1 + 2 pi i s; the two
    # vanish together, so compare them directly at a generic point; the
    # residual sits on the reduced torus,
    # at (t', s') = (a t - b s, d s - c t), where it is lam times the
    # given frame's -2 pi (G_x - i G_y)
    T = lattice.make_torus(0.13 + 0.92j)
    (a, b), (c, d) = T.mat
    t, s = 0.27, 0.31
    r = green.residual_and_jacobian(a * t - b * s, d * s - c * t, T.tau_r)[0]
    gx, gy = green.evaluate(t + s * T.tau, T).grad
    rebuilt = T.lam * complex(-2.0 * np.pi * gx, 2.0 * np.pi * gy)
    assert abs(r - rebuilt) < 1e-12


def test_residual_and_jacobian_matches_difference_quotient():
    tau_r = lattice.make_torus(0.5 + 0.8j).tau_r
    t, s = 0.17, 0.23
    r, drdt, _, _ = green.residual_and_jacobian(t, s, tau_r)
    drds = tau_r * drdt + 2j * np.pi
    h = 1e-6
    rp = green.residual_and_jacobian(t + h, s, tau_r)[0]
    rm = green.residual_and_jacobian(t - h, s, tau_r)[0]
    assert abs((rp - rm) / (2 * h) - drdt) < 1e-5 * max(1.0, abs(drdt))
    rp = green.residual_and_jacobian(t, s + h, tau_r)[0]
    rm = green.residual_and_jacobian(t, s - h, tau_r)[0]
    assert abs((rp - rm) / (2 * h) - drds) < 1e-5 * max(1.0, abs(drds))


def test_period_integrals_at_critical_point_are_imaginary():
    T = lattice.make_torus(complex(0.5, math.sqrt(3) / 2))
    from torusgreen import critical

    cs = critical.find_critical_points(T)
    p = cs.extra
    # F1 = 2(zeta(z) - eta1 z) and F2 = 2(tau zeta(z) - eta2 z) at the
    # canonical representative
    t, s, _, _ = lattice.split_coords(p.z, T.tau)
    zc = complex(t + s * T.tau)
    inv = weier.invariants(T)
    zv = weier.zeta(zc, T)
    f1 = 2.0 * (zv - inv.eta1 * zc)
    f2 = 2.0 * (T.tau * zv - inv.eta2 * zc)
    assert abs(f1.real) < 1e-10 and abs(f2.real) < 1e-10
    assert abs(f1 - (-4j * np.pi * p.coords.s)) < 1e-10
    assert abs(f2 - (4j * np.pi * p.coords.t)) < 1e-10


@pytest.mark.parametrize("tau", [0.5 + 8j, 12j, 0.0608j, 1 / 3 + 0.01j, 0.5 + 3j])
def test_half_period_determinants_match_mpmath(tau):
    # near the cusp two of the determinants are O(e^(-pi b_r)); the form
    # 2 (pi/b_r) Re(-L2) - |L2|^2 keeps them, where -(|L2 + pi/b|^2 - (pi/b)^2)
    # cancelled to -0.0 at 0.5 + 8i and to 3e-14 of the wrong sign at 0.0608i
    T = lattice.make_torus(tau)
    got = green.evaluate(np.array(T.half_periods), T).hessian.det
    for g, h in zip(got, T.half_periods):
        ref = oracles.mp_hessian_det(h, tau)
        assert g * ref > 0.0, (tau, h, g, ref)
        assert abs(g - ref) <= 1e-6 * abs(ref), (tau, h, g, ref)


def test_green_constant_square_torus_frozen():
    c = green.green_constant(lattice.make_torus(1j))
    assert abs(c - GREEN_CONSTANT_SQUARE) < 1e-12
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    eta_i = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    assert abs(c - math.log(eta_i) / (2.0 * math.pi)) < 1e-15


@pytest.mark.parametrize("tau", [0.3j, 0.1 + 0.45j, 0.5 + 0.8660254037844386j,
                                 -0.37 + 1.3j, 0.21 + 2.5j])
def test_green_constant_matches_smooth_split_quadrature(tau):
    got = green.green_constant(lattice.make_torus(tau))
    assert abs(got - oracles.green_constant_smooth_split(tau)) < 1e-12


@pytest.mark.parametrize("tau", [0.05j, 0.5 + 0.03j, 0.5 + 8j, 3.2 + 0.2j])
def test_green_constant_matches_mpmath_eta(tau):
    # near the cusp and far from the fundamental domain: 3.2 + 0.2i reduces
    # through a matrix with c != 0, so the weight 1/2 factor is exercised
    got = green.green_constant(lattice.make_torus(tau))
    assert abs(got - oracles.mp_green_constant(tau)) < 1e-13


def test_green_constant_matches_disk_patch_quadrature():
    for tau in (1j, 0.5 + 0.8j):
        T = lattice.make_torus(tau)
        got = green.green_constant(T)
        ref = oracles.green_constant_quadrature(tau)
        assert abs(got - ref) < 2e-4


def test_green_constant_modular_invariant_under_t_shift():
    # C depends on the lattice, not the marking, so tau and tau + 1 agree
    a = green.green_constant(lattice.make_torus(0.13 + 0.92j))
    b = green.green_constant(lattice.make_torus(1.13 + 0.92j))
    assert abs(a - b) < 1e-12


def test_evaluate_bundles_fields():
    # a point gives the same bits alone as inside a batch, on the direct
    # (Im tau >= 1/2) and on the Jacobi branch
    zs = np.array([0.21 + 0.13j, -0.32 + 0.27j, 0.05 - 0.41j])
    for tau in (0.5 + 0.8j, 0.2 + 0.35j):
        T = lattice.make_torus(tau)
        batch = green.evaluate(zs, T)
        hb = batch.hessian
        for k, z in enumerate(zs):
            ev = green.evaluate(z, T)
            assert ev.value_rel == batch.value_rel[k] == green.green_rel(z, T)
            assert ev.grad == (batch.grad[0][k], batch.grad[1][k])
            assert ev.hessian == Hessian2(hb.xx[k], hb.xy[k], hb.yy[k], hb.det[k])
