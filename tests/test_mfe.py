import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from torusgreen import cli, critical, green, lattice, mfe, theta, weier
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
        ref = oracles.contour_developing_map(z, dm.z0, T.tau, T)
        worst = max(worst, abs(direct - ref) / max(1.0, abs(ref)))
    assert worst < 1e-8


def test_the_map_sits_at_the_extra_point_of_the_critical_set(hex_map):
    T, dm = hex_map
    assert dm.z0 == critical.find_critical_points(T).extra.z


def test_solution_8pi_costs_the_critical_set_and_one_pass(theta_passes):
    # the critical set of the hexagonal torus makes 5 passes (9 while a
    # pass at the half periods gave its invariants, 8 while z0 had a pass
    # of its own, 7 while Newton's steps were second order); the map adds
    # one, at z0 and 2 z0
    T = lattice.make_torus(HEX_TAU)
    critical.find_critical_points(T)
    critical_set = len(theta_passes)
    weier._invariants_cached.cache_clear()
    theta_passes.clear()
    mfe.solution_8pi(T)
    assert (critical_set, len(theta_passes), theta_passes[-1]) == (5, 6, 2)


def test_solution_4pi_costs_one_pass(theta_passes):
    # one pass over the 160 nodes of the period path and the 5 probes, each
    # at z - (1/2 + tau) and z + 1/2; the doubled torus's invariants are a
    # null sum (a pass at its 3 half periods before them)
    mfe.solution_4pi(lattice.make_torus(1j))
    assert theta_passes == [330]


def test_period_path_forms_its_gauss_rules_once_per_process():
    # the 48 and 64 point Gauss-Legendre rules are formed on first use, not
    # at import, and every later 4 pi construction reads them back
    mfe._leggauss.cache_clear()
    first = mfe._period_path(0.1)[0]
    second = mfe._period_path(0.1)[0]
    info = mfe._leggauss.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    assert np.array_equal(first, second)


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


@pytest.mark.parametrize("b", [6.0, 8.0, 10.0])
def test_rho_8pi_passes_its_check_toward_the_rhombic_cusp(b):
    # u reads f'/f as a sigma product; as wp'(z0) / (wp(z) - wp(z0)) it was
    # a ratio of two O(e^(-pi b)) differences of O(pi^2) values in the band
    # Im z ~ b/2, and max_residual read 0.19, 64 and 2.7e4 at b = 6, 8, 10.
    # The mass is a 64^2 midpoint number there (1 - 1.8e-4 at b = 8)
    rep = mfe.verify_solution(mfe.solution_8pi(lattice.make_torus(complex(0.5, b))), 64)
    assert rep.max_residual < 1e-4
    assert rep.periodicity_1 <= 1e-9 and rep.periodicity_tau <= 1e-9


@pytest.mark.parametrize("rho,bound", [("4pi", 1e-5), ("8pi", 2e-5)])
def test_the_check_reads_its_residual_toward_the_rhombic_cusp(rho, bound):
    # v from log|theta1| rows carries no term of the size of eta1 z^2 / 2;
    # u + rho G read 4.69e-5 (4 pi) and 4.30e-5 (8 pi) at 128^2, where this
    # reads 3.87e-6 and 8.82e-6
    rep = mfe.verify_solution(_solution(rho, 0.5 + 10j), 128)
    assert rep.max_residual <= bound


def test_verification_detects_corrupted_solution(hex_solution):
    # the stand-in shifts u by 0.01 on every route, its stencil and period
    # rows too, and leaves the rows of v as they are
    sol = hex_solution

    def shifted(z, stencil=None):
        if stencil is None:
            return sol.reduced_evaluator(z) + 0.01
        rows, v = sol.reduced_evaluator(z, stencil)
        return rows + 0.01, v

    bad = mfe.MfeSolution(rho=sol.rho, torus=sol.torus, branch=sol.branch, lam=sol.lam,
                          c1=sol.c1, reduced_evaluator=shifted)
    rep = mfe.verify_solution(bad, grid_n=32)
    assert rep.max_residual > 1e-3


# the hexagonal torus in its own frame, and two five-point tori outside the
# fundamental domain, built on their reduced tori and carried back; the
# other torus of the frame tests below, -0.31 + 0.42i, has only the three
# half periods, so -0.3 + 0.8i, whose lam is tau as there, stands in for it
SCALING_TORI = (HEX_TAU, 0.5 + 0.3j, -0.3 + 0.8j)


def test_scaling_family_shifts_peak_value_linearly():
    for tau in SCALING_TORI:
        T = lattice.make_torus(tau)
        u0 = mfe.solution_8pi(T, lam=0.0)
        u2 = mfe.solution_8pi(T, lam=2.0)
        z0 = u0.branch
        assert z0 == critical.find_critical_points(T).extra.z
        # f(-z) = 1 / f(z): lam raises u by 2 lam at z0 and lowers it by as
        # much at -z0, on the branch points and next to them, so a map
        # built at -z0 / lam would swap the two
        for w, shift in ((z0, 4.0), (-z0, -4.0)):
            assert abs((u2.evaluator(w) - u0.evaluator(w)) - shift) < 1e-12
            near = w + 1e-4
            assert abs((u2.evaluator(near) - u0.evaluator(near)) - shift) < 1e-3
        # the family stays periodic for every lam
        z = 0.17 + 0.11j
        assert abs(u2.evaluator(z + 1.0) - u2.evaluator(z)) < 1e-11
        assert abs(u2.evaluator(z + tau) - u2.evaluator(z)) < 1e-11


def test_scaling_family_keeps_mass():
    for tau in SCALING_TORI:
        sol = mfe.solution_8pi(lattice.make_torus(tau), lam=1.0)
        rep = mfe.verify_solution(sol, grid_n=64)
        assert abs(rep.total_mass - RHO_8PI) < 1e-6
        assert rep.max_residual < 1e-2


# tau_hex / (k tau_hex + 1) is the hexagonal lattice seen from further and
# further out of the fundamental domain (Im tau = 0.12, 0.028 and 0.0021
# at k = 2, 5 and 20).  The check runs on the reduced torus, so it reads the
# hexagonal torus's own residual; in the given frame it grew to 1.0e-3,
# 2.0e-2 and 3.8 (8 pi) and 1.1e-4, 2.2e-3 and 0.39 (4 pi)
@pytest.mark.parametrize("rho", ["8pi", "4pi"])
def test_the_check_reads_the_same_on_every_image_of_a_torus(rho):
    base = mfe.verify_solution(_solution(rho, HEX_TAU), grid_n=64)
    for k in (2, 5, 20):
        sol = _solution(rho, HEX_TAU / (k * HEX_TAU + 1.0))
        rep = mfe.verify_solution(sol, grid_n=64)
        assert abs(rep.max_residual / base.max_residual - 1.0) < 0.05, k
        assert abs(rep.total_mass / sol.rho - 1.0) < 1e-9, k


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


# 2 lambda overflows at +-1e308, and u read NaN there
@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 1e308, -1e308])
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
def test_verification_costs_one_theta_pass_per_block(monkeypatch, rho, tau):
    # per block of 16 rows, one u call on every grid point with the
    # stencil's neighbour rows and the period rows, whose log|theta1| rows
    # give v as well (2 while a green_rel call on the kept points with the
    # neighbour rows gave G; 3 while the excluded points and the period
    # shifts took a plain u call of their own; 2 while u and green_rel each
    # took the neighbours as points of their passes; 8 and 10 blocks of 4
    # rows before); 37 rows leave a last block of five
    sol = _solution(rho, tau)
    passes = []

    def counted(kernel):
        def wrapper(*args, **kwargs):
            passes.append(1)
            return kernel(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(theta, "_eval", counted(theta._eval))
    monkeypatch.setattr(weier, "_eval", counted(weier._eval))
    assert mfe._BLOCK_ROWS == 16
    for grid_n, blocks in ((32, 2), (37, 3)):
        passes.clear()
        mfe.verify_solution(sol, grid_n=grid_n)
        assert len(passes) == blocks


# 0.5 + 0.3i and -0.31 + 0.42i lie outside the fundamental domain; only the
# first has the extra critical points an 8 pi solution needs
@pytest.mark.parametrize("rho,tau", [
    ("4pi", 1j), ("4pi", -0.31 + 0.42j), ("8pi", HEX_TAU), ("8pi", 0.5 + 0.3j),
])
@pytest.mark.parametrize("grid_n", [32, 37, 64])
def test_block_walk_equals_the_row_by_row_reference(rho, tau, grid_n):
    sol = _solution(rho, tau)
    _assert_report_matches(mfe.verify_solution(sol, grid_n),
                           oracles.verify_solution_by_rows(sol, grid_n), sol)


def _assert_report_matches(rep, ref, sol):
    """rep, the block walk, against ref, the row-by-row reference, which
    sums u and G at every stencil point and u at both period shifts by a
    pass of its own.  The centres and the whole grid share their bits with
    it, so the count and the mass agree exactly.  The four neighbours of a
    point come off the terms of its centre's pass instead, so the literal
    residual moves by rounding alone: with each value within 8 ulps of
    max|w|, w = |u| + rho |G|, on either route, a Laplacian (four
    neighbours over h^2) moves by at most 4 * 2 * 8 eps max|w| / h^2.  The
    block walk's compensated field v is u + rho G less quadratics the
    stencil annihilates, in closed form, so its residual differs from
    u + rho G's by rounding alone as well: the same 64 eps max|w| / h^2
    counts the centre's weight 4 with the neighbours' and 4 ulps of max|w|
    a value on either route.  Over the block-walk tori, the 24 random ones,
    0.5 + 3i and 0.5 + 8i, the largest gap is 0.44 of it, at 0.5 + 8i at
    4 pi on 64^2, where the reference's sigma rows round the most.  The
    period shifts come off the centre's sigma values by Legendre's law, so
    the periodicity moves by rounding alone too (_period_row_bound)."""
    exact = ("n_points", "total_mass", "grid_n", "h", "excl_radius")
    assert [getattr(rep, k) for k in exact] == [getattr(ref, k) for k in exact]
    tau = sol.torus.tau_r
    gg = (np.arange(rep.grid_n) + 0.5) / rep.grid_n - 0.5
    grid = (gg + gg[:, None] * tau).ravel()
    z = grid[lattice.lattice_gap(grid, tau) > rep.excl_radius]
    w = np.abs(sol.reduced_evaluator(z)) + sol.rho * np.abs(green.green_rel(z, sol.torus.reduced))
    bound = 64.0 * np.finfo(float).eps * np.max(w) / rep.h ** 2
    for k in ("max_residual", "mean_residual", "literal_max_residual"):
        assert abs(getattr(rep, k) - getattr(ref, k)) <= bound, k
    for k in ("periodicity_1", "periodicity_tau"):
        assert abs(getattr(rep, k) - getattr(ref, k)) <= _period_row_bound(sol), k


def _period_row_bound(sol):
    """How far u at z + 1 and z + tau, from the centre's sigma values by
    Legendre's law, may lie from u summed there directly.  With tau
    reduced (|tau| >= 1) and eta that of the map's lattice (the doubled one
    at 4 pi), every sigma argument at z + lam, lam = 1 or tau, has
    |eta| |w|^2 / 2 below S = 2 max|eta| (1 + |tau|)^2, and so have the
    translation factor and Legendre's term |eta_lam| |w + lam/2| that
    either route adds to its log|sigma|.  With each log|sigma| within 8
    ulps of S on either route, and u a sum of log|sigma| (and of log|g| at
    4 pi, off differences of zetas below S) with coefficients of total at
    most 16, u moves by at most 2 * 16 * 8 eps S."""
    tau = sol.torus.tau_r
    inv = weier.invariants(lattice.make_torus(2.0 * tau) if sol.rho == RHO_4PI
                           else sol.torus.reduced)
    scale = 2.0 * max(abs(inv.eta1), abs(inv.eta2)) * (1.0 + abs(tau)) ** 2
    return 256.0 * np.finfo(float).eps * scale


def test_the_given_cell_check_keeps_its_old_numbers():
    # by rows on the cell of the given torus, on the carried-back u: the
    # frame verify_solution checked in before, whose max_residual the golden
    # file held (1.62e-5 at 4 pi on -0.31 + 0.42i, 5.58e-4 at 8 pi on
    # 0.5 + 0.3i at 37^2); the reduced cell reads 2.2e-6 and 6.5e-5
    for rho, tau, grid_n, old in (("4pi", -0.31 + 0.42j, 64, 1.62e-5),
                                  ("8pi", 0.5 + 0.3j, 37, 5.58e-4)):
        sol = _solution(rho, tau)
        rep = oracles.verify_solution_by_rows(sol, grid_n, given_cell=True)
        assert abs(rep.max_residual / old - 1.0) < 0.1
        assert max(rep.periodicity_1, rep.periodicity_tau) <= 1e-12
        assert abs(rep.total_mass / sol.rho - 1.0) < 1e-9
        assert mfe.verify_solution(sol, grid_n).max_residual < rep.max_residual / 5.0


@pytest.mark.parametrize("rho,tau", [("4pi", 0.5 + 0.3j), ("8pi", 0.5 + 0.3j)])
def test_block_walk_keeps_rows_that_the_exclusion_empties(rho, tau):
    # the check walks the cell of the reduced torus, 0.4706 + 0.8824i; at
    # radius 0.5 rows next to s = 0 lie inside the exclusion disks (the
    # m == 0 rows), while other rows of their blocks keep points
    sol = _solution(rho, tau)
    grid_n, radius, tau_r = 37, 0.5, sol.torus.tau_r
    gg = (np.arange(grid_n) + 0.5) / grid_n - 0.5
    kept = [int(np.sum(lattice.lattice_gap(gg + s * tau_r, tau_r) > radius)) for s in gg]
    empty = [i for i, k in enumerate(kept) if k == 0]
    assert empty and any(kept[i - i % mfe._BLOCK_ROWS:i - i % mfe._BLOCK_ROWS + mfe._BLOCK_ROWS]
                         for i in empty)
    rep = mfe.verify_solution(sol, grid_n, radius)
    _assert_report_matches(rep, oracles.verify_solution_by_rows(sol, grid_n, radius), sol)
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


def test_the_check_keeps_every_verdict_of_the_direct_route():
    # both solutions over 20 random tori (24 of them; 8 pi residuals of
    # 9.96e-5 and 4.3e-3 among them): the block walk, whose neighbours come
    # off their centres' passes, and the row-by-row reference, which sums
    # every stencil point directly, agree on every max_residual <= 1e-4
    # verdict
    verdicts = []
    for torus in lattice.random_tori(20, 29):
        sols = [mfe.solution_4pi(torus)[0]]
        if critical.find_critical_points(torus).extra is not None:
            sols.append(mfe.solution_8pi(torus))
        for sol in sols:
            rep, ref = mfe.verify_solution(sol), oracles.verify_solution_by_rows(sol)
            _assert_report_matches(rep, ref, sol)
            verdicts.append((rep.max_residual <= 1e-4, ref.max_residual <= 1e-4))
    assert len(verdicts) == 24 and all(a == b for a, b in verdicts)
    assert verdicts.count((False, False)) == 1


@pytest.mark.parametrize("rho,tau", [("4pi", 1j), ("4pi", -0.31 + 0.42j), ("8pi", HEX_TAU),
                                     ("8pi", 0.5 + 0.3j)])
def test_u_stencil_rows_match_plain_calls(rho, tau):
    # row 0 of a stencil call is the plain call to the bit and row j the
    # plain call at z + d_j to 1e-12 of max(1, |u|): the kernel's 1e-14 on
    # each of the up to six log|sigma| that u sums, each up to ~10 |u| on
    # translated points.  A point with a stencil point at a special point
    # (within 1e-9 of z0 at 8 pi, 1e-11 of a pole class at 4 pi) takes
    # every row from plain calls, to the bit
    sol = _solution(rho, tau)
    u, tau_r = sol.reduced_evaluator, sol.torus.tau_r
    h = 1.0 / 4096.0
    stencil = np.array([h, -h, 1j * h, -1j * h])
    rng = np.random.default_rng(61)
    z = rng.uniform(-0.5, 0.5, 60) + rng.uniform(-0.5, 0.5, 60) * tau_r
    z = np.concatenate([z, z + 1.0 - 2.0 * tau_r])
    if rho == "8pi":
        # z + h lies 5e-10 from z0, where u takes its branch-point rule
        special = mfe.developing_map_8pi(sol.torus).z0 - h + 5e-10
    else:
        # z + h lies 4e-12 from the pole class of -1/2 on the doubled torus
        special = -0.5 - h + 4e-12
    z = np.concatenate([z, [special]])
    rows, v = u(z, stencil)
    assert rows.shape == (7,) + z.shape and v.shape == (5,) + z.shape
    np.testing.assert_array_equal(rows[0], u(z))
    for j, d in enumerate(stencil):
        plain = u(z + d)
        assert np.all(np.abs(rows[j + 1] - plain) <= 1e-12 * np.maximum(1.0, np.abs(plain))), d
    np.testing.assert_array_equal(rows[:5, -1], [u(z[-1])] + [u(z[-1] + d) for d in stencil])
    both = u(z[:3].reshape(3, 1), stencil)
    np.testing.assert_array_equal(both[0], rows[:, :3, None])
    np.testing.assert_array_equal(both[1], v[:, :3, None])


@pytest.mark.parametrize("rho,tau", [
    ("4pi", 1j), ("4pi", -0.31 + 0.42j), ("4pi", 0.5 + 8j), ("8pi", HEX_TAU),
    ("8pi", 0.5 + 0.3j), ("8pi", 0.5 + 8j),
])
def test_v_rows_are_u_plus_rho_g_less_its_quadratics(rho, tau):
    # v = -2 log(|D|^2 + e^(2 lambda) |N|^2) is u + rho G_rel less
    # rho y^2 / 2b and a harmonic quadratic, which the stencil annihilates
    # (a constant at 8 pi, a constant and 2 pi y at 4 pi): a fit of 1, x,
    # y, x^2 - y^2 and xy to v + rho y^2 / 2b - u - rho G takes it up to
    # rounding, at every row of the stencil call
    sol = _solution(rho, tau)
    tau_r = sol.torus.tau_r
    rng = np.random.default_rng(71)
    z = rng.uniform(-0.45, 0.45, 300) + rng.uniform(-0.45, 0.45, 300) * tau_r
    z = z[lattice.lattice_gap(z, tau_r) > 0.1]
    h = 1.0 / 4096.0
    stencil = np.array([h, -h, 1j * h, -1j * h])
    rows, v = sol.reduced_evaluator(z, stencil)
    zs = np.concatenate([z[None], z + stencil[:, None]])
    g = sol.rho * green.green_rel(zs, sol.torus.reduced)
    quad = sol.rho * zs.imag ** 2 / (2.0 * tau_r.imag)
    diff = (v + quad - rows[:5] - g).ravel()
    x, y = zs.real.ravel(), zs.imag.ravel()
    basis = np.stack([np.ones(x.size), x, y, x * x - y * y, x * y], axis=1)
    fit = basis @ np.linalg.lstsq(basis, diff, rcond=None)[0]
    scale = np.max(np.abs(v) + quad + np.abs(rows[:5]) + np.abs(g))
    assert np.max(np.abs(fit - diff)) <= 64.0 * np.finfo(float).eps * scale


@pytest.mark.parametrize("rho,lam", [("4pi", 0.0), ("8pi", 0.0), ("8pi", 1.5)])
def test_v_rows_are_finite_at_the_special_points(rho, lam):
    # |D|^2 + e^(2 lambda) |N|^2 has no zero: v needs no rule at the zero
    # and pole of f (+-z0 at 8 pi, a = -1/2 and bp = 1/2 + tau on the
    # doubled torus at 4 pi) or at the lattice, and is continuous there
    T = lattice.make_torus(HEX_TAU)
    sol = mfe.solution_4pi(T)[0] if rho == "4pi" else mfe.solution_8pi(T, lam)
    if rho == "8pi":
        z0 = mfe.developing_map_8pi(T).z0
        special = np.array([z0, -z0, 0.0])
    else:
        special = np.array([-0.5, 0.5 + HEX_TAU, 0.0])
    h = 1.0 / 4096.0
    stencil = np.array([h, -h, 1j * h, -1j * h])
    v = sol.reduced_evaluator(special, stencil)[1]
    assert np.all(np.isfinite(v))
    near = sol.reduced_evaluator(special + 1e-7, stencil)[1]
    assert np.max(np.abs(v - near)) <= 1e-5


# the hexagonal torus, one unreduced five-point torus, one unreduced
# three-point torus (4 pi only) and one toward the rhombic cusp, where the
# eta_lam (w + lam/2) of Legendre's law reach ~100
PERIOD_ROW_TORI = [("4pi", HEX_TAU), ("4pi", 0.5 + 0.3j), ("4pi", -0.31 + 0.42j),
                   ("4pi", 0.5 + 8j), ("8pi", HEX_TAU), ("8pi", 0.5 + 0.3j), ("8pi", 0.5 + 8j)]


@pytest.mark.parametrize("rho,tau", PERIOD_ROW_TORI)
def test_u_period_rows_match_plain_calls(rho, tau):
    # the period rows sum no series at z + 1 and z + tau: they come off the
    # centre's sigma values (and zetas at 4 pi) by Legendre's law, within
    # rounding of the plain calls there, the last two rows of u of the
    # stencil call
    sol = _solution(rho, tau)
    u, tau_r = sol.reduced_evaluator, sol.torus.tau_r
    rng = np.random.default_rng(67)
    z = rng.uniform(-0.5, 0.5, 80) + rng.uniform(-0.5, 0.5, 80) * tau_r
    h = 1.0 / 4096.0
    stencil = np.array([h, -h, 1j * h, -1j * h])
    rows = u(z, stencil)[0]
    assert rows.shape == (7,) + z.shape
    np.testing.assert_array_equal(rows[0], u(z))
    bound = _period_row_bound(sol)
    for row, lam in zip(rows[5:], (1.0, tau_r)):
        assert np.max(np.abs(row - u(z + lam))) <= bound, lam
    np.testing.assert_array_equal(u(z[:3].reshape(3, 1), stencil)[0], rows[:, :3, None])


@pytest.mark.parametrize("rho,tau", [("4pi", 1j), ("4pi", -0.31 + 0.42j), ("8pi", HEX_TAU),
                                     ("8pi", 0.5 + 0.3j)])
def test_a_special_point_takes_the_plain_route_for_its_period_rows(rho, tau):
    # a stencil point within 1e-9 of z0 (8 pi) or 1e-11 of a pole class
    # (4 pi), and centres whose z + 1 and z + tau come as near them, take
    # every row, the period rows too, from plain calls, to the bit
    sol = _solution(rho, tau)
    u, tau_r = sol.reduced_evaluator, sol.torus.tau_r
    h = 1.0 / 4096.0
    stencil = np.array([h, -h, 1j * h, -1j * h])
    if rho == "8pi":
        z0 = mfe.developing_map_8pi(sol.torus).z0
        special = [z0 - h + 5e-10, -z0 - 1.0 + 3e-10, z0 - tau_r - 4e-10j]
    else:
        special = [-0.5 - h + 4e-12, 0.5 + tau_r - 1.0 + 3e-12, 0.5 + 2e-12j]
    z = np.concatenate([[0.1 + 0.2j, -0.3 + 0.1 * tau_r], special])
    rows, v = u(z, stencil)
    for k in range(2, z.size):
        want = [u(z[k])] + [u(z[k] + d) for d in stencil] + [u(z[k] + 1.0), u(z[k] + tau_r)]
        np.testing.assert_array_equal(rows[:, k], want)
        # v needs no rule: its rows are the pass's rows, as at any point
        plain = np.array([u(z[k] + d, stencil)[1][0] for d in (0.0, *stencil)])
        assert np.all(np.abs(v[:, k] - plain) <= 1e-12 * np.maximum(1.0, np.abs(plain)))
    assert np.all(np.isfinite(rows[:, :2])) and np.all(np.isfinite(v))


def test_periodicity_sees_a_broken_multiplier(monkeypatch):
    # z0 moved 1e-6 off the critical point: f then picks up multipliers of
    # modulus e^(eps_lam), eps_lam = -2 Re(eta_lam 1e-6), across the periods,
    # and u(z + lam) - u(z) = 2 eps_lam (1 - |F|^2) / (1 + |F|^2), F = e^lam f,
    # which nears 2 |eps_lam| where |f| is small, by z0.  Both routes read
    # it, and agree to rounding
    T = lattice.make_torus(HEX_TAU)
    real = mfe.developing_map_8pi(T)
    monkeypatch.setattr(mfe, "developing_map_8pi",
                        lambda torus: dataclasses.replace(real, z0=real.z0 + 1e-6))
    sol = mfe.solution_8pi(T)
    inv = weier.invariants(T)
    rep, ref = mfe.verify_solution(sol), oracles.verify_solution_by_rows(sol)
    for k, eta in (("periodicity_1", inv.eta1), ("periodicity_tau", inv.eta2)):
        want = 4.0 * abs(eta.real) * 1e-6
        assert 0.9 * want <= getattr(rep, k) <= want * (1.0 + 1e-6), k
        assert abs(getattr(rep, k) - getattr(ref, k)) <= _period_row_bound(sol), k


@pytest.mark.parametrize("rho,peak_mb", [("4pi", 1.44), ("8pi", 1.33)])
def test_a_64_check_stays_in_its_memory(rho, peak_mb):
    # tracemalloc's peak over a 64^2 check, caches warm: the period rows
    # add rows of u, never theta-level rows, and hold it within 10 % of
    # its 1.44 and 1.33 MB while the period shifts were points of a pass
    sol = _solution(rho, -0.368 + 0.916j)
    mfe.verify_solution(sol, 64)
    tracemalloc.start()
    try:
        mfe.verify_solution(sol, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * peak_mb * 1e6


def test_an_unreduced_torus_sums_its_nulls_once_for_8pi(monkeypatch, capsys):
    # the critical set's half-period rows read the invariants record of the
    # reduced torus, where the developing map reads it again (2 sums while
    # the rows read the record of the given torus)
    sums = []
    real = weier.nulls

    def counted(tau):
        sums.append(tau.size)
        return real(tau)

    monkeypatch.setattr(weier, "nulls", counted)
    weier._invariants_cached.cache_clear()
    assert cli.run(["mfe", "--rho=8pi", "--tau=0.5+0.3i", "--grid=32x32"]) == 0
    assert sums == [1]
