import cmath
import math

import numpy as np
import pytest

import oracles
from torusgreen import critical, lattice, mfe, theta, weier
from torusgreen.errors import InvalidInput, NoExtraCriticalPoint

# f, f'/f and f' of a developing map, from the reference routes
f, gamma = oracles.developing_map_f, oracles.developing_map_gamma
f_prime = oracles.developing_map_f_prime
HEX_TAU = complex(0.5, math.sqrt(3) / 2)
RHO_8PI = 8.0 * math.pi
RHO_4PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def hex_map():
    T = lattice.make_torus(HEX_TAU)
    return T, mfe.developing_map_8pi(T)


@pytest.fixture(scope="module")
def hex_solution(hex_map):
    T, _ = hex_map
    return mfe.solution_8pi(T)


def test_multipliers_have_unit_modulus(hex_map):
    _, dm = hex_map
    assert abs(abs(dm.multiplier_1) - 1.0) < 1e-14
    assert abs(abs(dm.multiplier_tau) - 1.0) < 1e-14


def test_multipliers_match_critical_coordinates(hex_map):
    T, dm = hex_map
    t, s, _, _ = lattice.split_coords(dm.z0, T.tau)
    assert abs(dm.multiplier_1 - cmath.exp(-4j * math.pi * float(s))) < 1e-12
    assert abs(dm.multiplier_tau - cmath.exp(4j * math.pi * float(t))) < 1e-12


def test_f_normalization_and_inversion(hex_map):
    _, dm = hex_map
    assert f(dm, 0.0) == 1.0 + 0.0j
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        assert abs(f(dm, z) * f(dm, -z) - 1.0) < 1e-12


def test_f_periods_pick_up_multipliers(hex_map):
    T, dm = hex_map
    for z in (0.11 + 0.07j, -0.23 + 0.19j):
        fz = f(dm, z)
        assert abs(f(dm, z + 1.0) - dm.multiplier_1 * fz) < 1e-12 * abs(fz)
        assert abs(f(dm, z + T.tau) - dm.multiplier_tau * fz) < 1e-12 * abs(fz)


def test_f_zero_and_pole_on_branch_lattice(hex_map):
    _, dm = hex_map
    assert f(dm, dm.z0) == 0.0
    assert np.isinf(abs(f(dm, -dm.z0)))


def test_f_prime_matches_difference_quotient(hex_map):
    _, dm = hex_map
    h = 1e-6
    for z in (0.13 + 0.06j, -0.21 + 0.17j):
        got = f_prime(dm, z)
        fd = (f(dm, z + h) - f(dm, z - h)) / (2.0 * h)
        assert abs(got - fd) < 1e-6 * max(1.0, abs(got))


def test_gamma_vanishes_on_source_lattice(hex_map):
    T, dm = hex_map
    assert gamma(dm, 0.0) == 0.0
    assert gamma(dm, 1.0 + T.tau) == 0.0


def test_f_matches_contour_integration_oracle(hex_map):
    T, dm = hex_map
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.4, 0.4))
        direct = f(dm, z)
        ref = oracles.contour_developing_map(z, dm.z0, T.tau, dm.wp_z0,
                                             dm.wp_prime_z0, T)
        worst = max(worst, abs(direct - ref) / max(1.0, abs(ref)))
    assert worst < 1e-8


def test_the_map_sits_at_the_extra_point_of_the_critical_set(hex_map):
    T, dm = hex_map
    assert dm.z0 == critical.find_critical_points(T).extra.z


def test_solution_8pi_costs_the_critical_set_and_one_pass(theta_passes):
    # the critical set of the hexagonal torus makes 9 passes (its
    # invariants among them); the map adds one, at z0 and 2 z0
    T = lattice.make_torus(HEX_TAU)
    critical.find_critical_points(T)
    critical_set = len(theta_passes)
    weier._invariants_cached.cache_clear()
    theta_passes.clear()
    mfe.solution_8pi(T)
    assert (critical_set, len(theta_passes), theta_passes[-1]) == (9, 10, 2)


def test_solution_4pi_costs_two_passes(theta_passes):
    # the doubled torus's invariants at its 3 half periods, then one pass
    # over the 160 nodes of the period path and the 5 probes, each at
    # z - (1/2 + tau) and z + 1/2
    mfe.solution_4pi(lattice.make_torus(1j))
    assert theta_passes == [3, 330]


def test_extra_branch_point_absent_on_square():
    # the square torus has only the three half periods, so there is no
    # developing map and no 8 pi solution, never a spurious one
    T = lattice.make_torus(1j)
    with pytest.raises(NoExtraCriticalPoint):
        mfe.developing_map_8pi(T)
    with pytest.raises(NoExtraCriticalPoint):
        mfe.solution_8pi(T)


def test_u_even_and_periodic(hex_solution):
    sol = hex_solution
    T = sol.torus
    u = sol.evaluator
    rng = np.random.default_rng(13)
    for _ in range(6):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.35, 0.35))
        assert abs(u(z) - u(-z)) < 1e-12 * max(1.0, abs(u(z)))
        assert abs(u(z + 1.0) - u(z)) < 1e-12 * max(1.0, abs(u(z)))
        assert abs(u(z + T.tau) - u(z)) < 1e-12 * max(1.0, abs(u(z)))


def test_u_diverges_at_source_and_is_finite_on_branch(hex_solution):
    sol = hex_solution
    u = sol.evaluator
    assert u(0.0) == -math.inf
    assert u(1.0 + sol.torus.tau) == -math.inf
    ub = u(sol.branch)
    assert math.isfinite(ub)
    assert abs(u(-sol.branch) - ub) < 1e-12
    # continuity across the branch point special case
    assert abs(u(sol.branch + 1e-5) - ub) < 1e-6


def test_u_blows_up_like_four_log_r(hex_solution):
    u = hex_solution.evaluator
    r1, r2 = 1e-3, 1e-4
    slope = (u(r1) - u(r2)) / (math.log(r1) - math.log(r2))
    assert abs(slope - 4.0) < 1e-2


def test_rho_8pi_residual_and_mass(hex_solution):
    rep = mfe.verify_solution(hex_solution, grid_n=64)
    assert rep.max_residual < 1e-4
    assert rep.mean_residual <= rep.max_residual
    assert rep.literal_max_residual > 1e-3
    assert rep.periodicity_1 < 1e-12
    assert rep.periodicity_tau < 1e-12
    assert abs(rep.total_mass - RHO_8PI) < 1e-8
    assert rep.h == 1.0 / (64.0 * 64.0)
    assert rep.n_points > 0


def test_verification_detects_corrupted_solution(hex_solution):
    sol = hex_solution
    bad = mfe.MfeSolution(
        rho=sol.rho, torus=sol.torus, branch=sol.branch, lam=sol.lam,
        c1=sol.c1, evaluator=lambda z: sol.evaluator(z) + 0.01,
    )
    rep = mfe.verify_solution(bad, grid_n=32)
    assert rep.max_residual > 1e-3


def test_scaling_family_shifts_peak_value_linearly(hex_map):
    T, dm = hex_map
    u0 = mfe.solution_8pi(T, lam=0.0)
    u2 = mfe.solution_8pi(T, lam=2.0)
    assert abs((u2.evaluator(dm.z0) - u0.evaluator(dm.z0)) - 4.0) < 1e-12
    # the family stays periodic for every lam
    z = 0.17 + 0.11j
    assert abs(u2.evaluator(z + 1.0) - u2.evaluator(z)) < 1e-11


def test_scaling_family_keeps_mass(hex_map):
    T, _ = hex_map
    sol = mfe.solution_8pi(T, lam=1.0)
    rep = mfe.verify_solution(sol, grid_n=64)
    assert abs(rep.total_mass - RHO_8PI) < 1e-6
    assert rep.max_residual < 1e-2


def test_verify_solution_validates_inputs(hex_solution):
    with pytest.raises(ValueError):
        mfe.verify_solution(hex_solution, grid_n=16)
    with pytest.raises(ValueError):
        mfe.verify_solution(hex_solution, excl_radius=0.001)


@pytest.mark.parametrize("tau", [1j, HEX_TAU, 0.5 + 0.8j])
def test_rho_4pi_residual_and_mass(tau):
    T = lattice.make_torus(tau)
    sol, _ = mfe.solution_4pi(T)
    assert sol.rho == RHO_4PI
    assert sol.branch is None
    assert sol.c1 == math.log(2.0 / math.pi)
    rep = mfe.verify_solution(sol, grid_n=64)
    assert rep.max_residual < 1e-4
    assert rep.periodicity_1 < 1e-12
    assert rep.periodicity_tau < 1e-12
    assert abs(rep.total_mass - RHO_4PI) < 1e-8


def test_rho_4pi_diagnostics():
    for tau in (1j, 0.5 + 0.8j):
        _, diag = mfe.solution_4pi(lattice.make_torus(tau))
        dev = min(abs(diag.period_integral - 1j * math.pi),
                  abs(diag.period_integral + 1j * math.pi))
        assert dev < 1e-10
        assert abs(diag.c_prime + 1.0) < 1e-12
        assert abs(abs(diag.c_tau) - 1.0) < 1e-12


@pytest.mark.parametrize("tau", [0.02 + 0.2j, 0.02 + 0.3j])
def test_rho_4pi_contour_clears_the_pole_at_half_plus_tau(tau):
    # on these tori a radius-0.25 semicircle passes within 0.05 of the pole
    # at 1/2 + tau and its period integral misses pi i by 1e-7 to 2e-6
    _, diag = mfe.solution_4pi(lattice.make_torus(tau))
    dev = min(abs(diag.period_integral - 1j * math.pi),
              abs(diag.period_integral + 1j * math.pi))
    assert dev < 1e-13
    assert abs(diag.c_prime + 1.0) < 1e-12


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_scaling_parameter_must_be_finite(lam):
    T = lattice.make_torus(HEX_TAU)
    with pytest.raises(InvalidInput):
        mfe.solution_8pi(T, lam=lam)


def test_rho_4pi_u_properties():
    T = lattice.make_torus(1j)
    sol, _ = mfe.solution_4pi(T)
    u = sol.evaluator
    # two log singularity at the source instead of four
    r1, r2 = 1e-3, 1e-4
    slope = (u(r1) - u(r2)) / (math.log(r1) - math.log(r2))
    assert abs(slope - 2.0) < 1e-2
    # smooth and even across the half period where f has its zero and pole
    assert math.isfinite(u(0.5))
    z = 0.21 + 0.13j
    assert abs(u(z) - u(-z)) < 1e-12
    assert abs(u(0.5 + 1e-4) + u(0.5 - 1e-4) - 2.0 * u(0.5)) < 1e-5


def test_evaluator_accepts_arrays(hex_solution):
    u = hex_solution.evaluator
    zs = np.array([[0.1 + 0.05j, 0.2 + 0.1j], [0.0 + 0.0j, -0.3 + 0.2j]])
    vals = u(zs)
    assert vals.shape == zs.shape
    assert vals[1, 0] == -math.inf
    assert vals[0, 1] == u(0.2 + 0.1j)


def _solution(rho, tau):
    T = lattice.make_torus(tau)
    if rho == "4pi":
        return mfe.solution_4pi(T)[0]
    return mfe.solution_8pi(T)


# 0.5 + 0.2i and 0.5 + 0.3i lie outside the fundamental domain, so their
# passes sum at a reduced modulus tau_r in a frame with lam != 1; at 4 pi
# the kernel runs on the doubled torus 2 tau
@pytest.mark.parametrize("rho,tau", [
    ("4pi", 0.13 + 0.92j), ("4pi", 0.5 + 0.2j), ("8pi", HEX_TAU), ("8pi", 0.5 + 0.3j),
], ids=["4pi-direct", "4pi-reduced", "8pi-direct", "8pi-reduced"])
def test_evaluator_gives_the_same_bits_inside_a_batch(rho, tau):
    sol = _solution(rho, tau)
    rng = np.random.default_rng(17)
    pieces = [rng.uniform(-0.5, 0.5, n) + tau * rng.uniform(-0.5, 0.5, n) for n in (1, 7, 30)]
    pieces.append(np.array([0.0, 1.0 + tau, 0.5, 0.5 + 1e-3j]))
    if sol.branch is not None:
        pieces.append(np.array([sol.branch, -sol.branch + tau]))
    whole = sol.evaluator(np.concatenate(pieces))
    np.testing.assert_array_equal(whole, np.concatenate([sol.evaluator(p) for p in pieces]))
    assert sol.evaluator(complex(pieces[1][3])) == whole[4]


@pytest.mark.parametrize("rho,tau", [("4pi", 1j), ("8pi", HEX_TAU)])
def test_verification_costs_two_theta_passes_per_block(monkeypatch, rho, tau):
    # one u call and one green_rel call per block of rows; 37 rows leave a
    # last block of one row
    sol = _solution(rho, tau)
    passes = []

    def counted(kernel):
        def wrapper(*args, **kwargs):
            passes.append(1)
            return kernel(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(theta, "_eval", counted(theta._eval))
    monkeypatch.setattr(weier, "_eval", counted(weier._eval))
    assert mfe._BLOCK_ROWS == 4
    for grid_n, blocks in ((32, 8), (37, 10)):
        passes.clear()
        mfe.verify_solution(sol, grid_n=grid_n)
        assert len(passes) == 2 * blocks


# 0.5 + 0.3i and -0.31 + 0.42i lie outside the fundamental domain; only the
# first has the extra critical points an 8 pi solution needs
@pytest.mark.parametrize("rho,tau", [
    ("4pi", 1j), ("4pi", -0.31 + 0.42j), ("8pi", HEX_TAU), ("8pi", 0.5 + 0.3j),
])
@pytest.mark.parametrize("grid_n", [32, 37, 64])
def test_block_walk_equals_the_row_by_row_reference(rho, tau, grid_n):
    sol = _solution(rho, tau)
    assert mfe.verify_solution(sol, grid_n) == oracles.verify_solution_by_rows(sol, grid_n)


@pytest.mark.parametrize("rho,tau", [("4pi", 0.5 + 0.3j), ("8pi", 0.5 + 0.3j)])
def test_block_walk_keeps_rows_that_the_exclusion_empties(rho, tau):
    # at radius 0.29 the rows next to s = 0 lie inside the exclusion disks
    # (the m == 0 rows), while other rows of their blocks keep points
    sol = _solution(rho, tau)
    grid_n, radius = 37, 0.29
    gg = (np.arange(grid_n) + 0.5) / grid_n - 0.5
    kept = [int(np.sum(lattice.lattice_gap(gg + s * tau, tau) > radius)) for s in gg]
    empty = [i for i, k in enumerate(kept) if k == 0]
    assert empty and any(kept[i - i % mfe._BLOCK_ROWS:i - i % mfe._BLOCK_ROWS + mfe._BLOCK_ROWS]
                         for i in empty)
    rep = mfe.verify_solution(sol, grid_n, radius)
    assert rep == oracles.verify_solution_by_rows(sol, grid_n, radius)
    assert rep.n_points == sum(kept)


def test_block_walk_rejects_an_exclusion_that_leaves_no_point(hex_solution):
    for verify in (mfe.verify_solution, oracles.verify_solution_by_rows):
        with pytest.raises(InvalidInput, match="leaves no grid point to check"):
            verify(hex_solution, 32, 5.0)


_HIT_MOVES = (0.0, 1e-12, 5e-12, 2e-11, 1e-10, 5e-10, 2e-9, 1e-8)


def _hit_inputs(tau, centre):
    """The lattice points m + n tau (|m|, |n| <= 2) shifted to centre and
    moved by each of _HIT_MOVES in eight directions, with the move of
    each point."""
    m, n = np.meshgrid(np.arange(-2, 3), np.arange(-2, 3))
    pts = (m + n * tau).ravel() + centre
    dirs = np.exp(0.25j * np.pi * np.arange(8))
    z = pts[None, :, None] + np.multiply.outer(_HIT_MOVES, dirs)[:, None, :]
    return z.ravel(), np.repeat(_HIT_MOVES, pts.size * dirs.size)


# tori inside (i, the hexagonal one) and outside (0.5 + 0.3i, -0.31 + 0.42i,
# 2.7 + 0.4i) the fundamental domain, on the lattices of tau and of 2 tau
@pytest.mark.parametrize("tau", [1j, HEX_TAU, 0.5 + 0.3j, -0.31 + 0.42j, 2.7 + 0.4j])
def test_near_lattice_is_the_lattice_gap_mask(tau):
    for lattice_tau in (tau, 2.0 * tau):
        z, move = _hit_inputs(lattice_tau, 0.0)
        for tol in (1e-11, 1e-9):
            want = lattice.lattice_gap(z, lattice_tau) < tol
            np.testing.assert_array_equal(lattice.near_lattice(z, lattice_tau, tol), want)
            np.testing.assert_array_equal(want, move < tol)


# the pole and zero classes of the 4 pi map on the doubled torus, and the
# branch classes +-z0 + lattice of the 8 pi map, as the evaluators test them
@pytest.mark.parametrize("rho,tau", [
    ("4pi", 1j), ("4pi", -0.31 + 0.42j), ("8pi", HEX_TAU), ("8pi", 0.5 + 0.3j),
])
def test_evaluator_hit_tests_are_the_lattice_gap_masks(rho, tau):
    if rho == "4pi":
        lattice_tau, tol = 2.0 * tau, mfe._LATTICE_HIT_TOL
        classes = (-0.5, 0.5 + tau)
    else:
        lattice_tau, tol = tau, 1e-9
        z0 = _solution(rho, tau).branch
        classes = (z0, -z0)
    for a in classes:
        for b in classes:
            # the points of class a, tested against class b
            z = _hit_inputs(lattice_tau, a)[0] - b
            np.testing.assert_array_equal(lattice.near_lattice(z, lattice_tau, tol),
                                          lattice.lattice_gap(z, lattice_tau) < tol)
