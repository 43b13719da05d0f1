import math

import numpy as np
import pytest

import oracles
from torusgreen import critical, green, lattice, moduli, theta, weier
from torusgreen.errors import InvalidInput, TorusGreenError, Unconverged

# frozen from the bisection route at tol = 1e-12, cross checked against the
# hessian determinant degeneracy of the half period 1/2 on the rhombic line
B0_FROZEN = 0.35472989252248
B1_FROZEN = 0.70476158133267


def test_thresholds_frozen_digits():
    rep = moduli.thresholds(tol=1e-12)
    assert abs(rep.b0 - B0_FROZEN) < 1e-11
    assert abs(rep.b1 - B1_FROZEN) < 1e-11
    assert rep.residual_b0 < 1e-9
    assert rep.residual_b1 < 1e-9
    assert rep.last_step <= 1e-12


def test_thresholds_by_newton_match_mpmath_and_the_bisection(monkeypatch):
    # Newton from b = 1/2 with the closed-form derivative: b1 to 1e-12 of
    # mpmath and b0 to 1e-12 of 1/(4 b1), against 107 passes of the
    # bisection route that is now the oracle.  A step is one null sum and
    # no theta series pass (one pass a step while the half periods had one)
    passes, sums = [], []
    real, real_sum = theta._eval, weier.nulls

    def counted(z, *args):
        passes.append(np.size(z))
        return real(z, *args)

    def counted_sum(tau):
        sums.append(np.size(tau))
        return real_sum(tau)

    weier._invariants_cached.cache_clear()
    monkeypatch.setattr(theta, "_eval", counted)
    monkeypatch.setattr(weier, "nulls", counted_sum)
    rep = moduli.thresholds(tol=1e-12)
    assert passes == []
    assert len(sums) <= 16 and set(sums) == {1}
    assert sum(rep.newton_steps) <= 15
    b1_mp = float(oracles.mp_rhombic_b1())
    assert abs(rep.b1 - b1_mp) < 1e-12
    assert abs(rep.b0 - 0.25 / b1_mp) < 1e-12
    b0_bis, b1_bis = oracles.thresholds_by_bisection(1e-12)
    assert abs(rep.b0 - b0_bis) < 1e-11
    assert abs(rep.b1 - b1_bis) < 1e-11


def test_thresholds_raise_unconverged_off_the_duality_or_past_the_step_cap(monkeypatch):
    real = moduli._upper
    monkeypatch.setattr(moduli, "_upper", lambda b: (real(b)[0] - 1e-3, real(b)[1]))
    with pytest.raises(Unconverged, match="miss b0 b1 = 1/4"):
        moduli.thresholds()
    monkeypatch.setattr(moduli, "_upper", real)
    monkeypatch.setattr(moduli, "NEWTON_CAP", 3)
    with pytest.raises(Unconverged, match="more than 3 steps"):
        moduli.thresholds()


def test_thresholds_ordering_invariants():
    rep = moduli.thresholds()
    # b0 < 1/2 < b1 < sqrt(3)/2: the middle band contains the self dual
    # rhombus and excludes the hexagonal one
    assert rep.b0 < 0.5 < rep.b1 < math.sqrt(3) / 2


def test_thresholds_tol_floor():
    with pytest.raises(ValueError):
        moduli.thresholds(tol=1e-13)


def test_threshold_defining_quantities_change_sign():
    rep = moduli.thresholds()
    eps = 1e-6

    def q(b):
        inv = weier.invariants(lattice.make_torus(complex(0.5, b)))
        return (inv.e1 + inv.eta1).real

    assert q(rep.b0 - eps) * q(rep.b0 + eps) < 0.0
    assert (q(rep.b1 - eps) - 2 * math.pi / (rep.b1 - eps)) \
        * (q(rep.b1 + eps) - 2 * math.pi / (rep.b1 + eps)) < 0.0


def test_inequalities_hold_on_coarse_grid():
    grid = [0.15, 0.25, 0.4, 0.5, 0.7, 0.9, 1.3, 1.8, 2.4]
    rep = moduli.verify_fundamental_inequalities(grid)
    assert rep.ok, rep.violations
    assert len(rep.rows) == len(grid)
    for row in rep.rows:
        assert row.curvature_theta2 > 0.0
        assert row.theta3_b < 0.0
        assert row.theta3_bb > 0.0


def test_inequalities_collect_bad_grid_points():
    rep = moduli.verify_fundamental_inequalities([0.5, -1.0, 0.0])
    assert not rep.ok
    assert len(rep.rows) == 1
    assert len(rep.violations) == 2


# rhombic moduli where every sign is decided, and where rounding decides some
SMALL_B = (0.004, 0.01, 0.02, 0.05, 3.0)
LARGE_B = (6.0, 7.0, 8.0, 10.0)


def _against_mpmath(row):
    """(value, mpmath value, error bound) of the row's three signed values."""
    ref = oracles.mp_rhombic_b_derivs(row.b)
    return list(zip((row.curvature_theta2, row.theta3_b, row.theta3_bb), ref, row.bounds))


@pytest.mark.parametrize("b", SMALL_B)
def test_small_b_derivatives_match_mpmath(b):
    # the real series lost 8e-8 at b = 0.01 and raised Unconverged at
    # 0.004; the closed form reads the reduced frame's half-period pass
    rep = moduli.verify_fundamental_inequalities([b])
    assert rep.ok, (rep.violations, rep.undecided)
    (row,) = rep.rows
    for value, ref, bound in _against_mpmath(row):
        assert abs(value - ref) <= bound, (b, value, ref, bound)
        # at b = 3 the values are e^(-2 pi b) and keep 1e-9 of it
        assert abs(value - ref) <= (1e-13 if b < 1.0 else 1e-9) * abs(ref), (b, value, ref)
    if b == 0.01:
        assert row.curvature_theta2 == pytest.approx(4871970.347472883, rel=1e-13)
    if b == 0.004:
        assert row.theta3_bb == pytest.approx(31250.0, rel=1e-13)


@pytest.mark.parametrize("b", LARGE_B)
def test_large_b_signs_inside_their_bounds_are_not_decided(b):
    # past b = 6 the three values are e^(-2 pi b): inside its bound a value
    # is undecided, outside it has mpmath's sign; never a false violation.
    # The curvature's cancellation-free form keeps all three outside their
    # bounds to b = 10.8 (its heat-equation form fell inside from b = 5.6),
    # and 6 further out all three are inside
    for b_row, decided in ((b, True), (b + 6.0, False)):
        rep = moduli.verify_fundamental_inequalities([b_row])
        (row,) = rep.rows
        triples = _against_mpmath(row)
        for value, ref, bound in triples:
            assert abs(value - ref) <= bound, (b_row, value, ref, bound)
            assert abs(value) <= bound or (value > 0) == (ref > 0), (b_row, value, ref)
        assert rep.violations == ()
        assert len(rep.undecided) == sum(abs(value) <= bound for value, _, bound in triples)
        assert all("sign not decided" in u for u in rep.undecided)
        assert len(rep.undecided) == (0 if decided else 3), (b_row, rep.undecided)
        assert rep.ok == decided


@pytest.mark.parametrize("b", LARGE_B)
def test_large_b_theta3_signs_are_decided(b):
    # A_3 comes from (log theta1)'' at (1+tau)/2 to relative precision, so
    # the theta3 values, e^(-2 pi b) against |A_3| = O(e^(-pi b)), keep
    # their signs to b = 10.8 (from b = 6.5 when A_3 was e3 + eta1); at
    # b = 8 they are 1.4e-6 and 2.3e-6 off mpmath
    (row,) = moduli.verify_fundamental_inequalities([b]).rows
    for value, ref, bound in _against_mpmath(row)[1:]:
        assert abs(value) > bound and (value > 0) == (ref > 0), (b, value, ref, bound)
        assert abs(value - ref) <= (1e-5 if b <= 8 else 1e-3) * abs(ref), (b, value, ref)


def test_rhombic_error_bounds_hold_against_mpmath():
    # C_RHOMBIC against mpmath: the worst error over this sweep is 2.6
    # units of eps |A_k| over the A_k of a value, of the theta2 curvature
    # at b = 0.34 (3.3 in its heat-equation form)
    grid = sorted(set(np.geomspace(0.002, 20.0, 150).tolist()) | set(SMALL_B + LARGE_B))
    worst = 0.0
    for row in moduli.verify_fundamental_inequalities(grid).rows:
        for value, ref, bound in _against_mpmath(row):
            assert abs(value - ref) <= bound, (row.b, value, ref, bound)
            assert abs(value) <= bound or (value > 0) == (ref > 0), (row.b, value, ref)
            worst = max(worst, abs(value - ref) / bound * moduli.C_RHOMBIC)
    assert worst > 1.0


def test_functional_equation_residual():
    # the closed form and its real series oracle
    for b in (0.3, 0.5, 0.85, 1.4):
        assert moduli.functional_equation_residual(b) < 1e-9
        assert oracles.functional_equation_residual_series(b) < 1e-9
    with pytest.raises(ValueError):
        moduli.functional_equation_residual(0.0)


def test_functional_equation_self_dual_point():
    # at b = 1/2 the identity collapses to f(1/2) = -1/2 on the nose, that
    # is A_1 = 2 pi, in the closed form and in the real series
    assert abs(-moduli._rhombic(0.5)[0] / (4 * math.pi) + 0.5) < 1e-12
    assert abs(oracles.log_theta1_b_derivs(0.5, 0.5)[0] + 0.5) < 1e-12


def test_lambda_circle_residual_on_and_off_the_line():
    # | |lambda - 1| - 1 | with lambda = (e3 - e2) / (e1 - e2) vanishes
    # exactly on the rhombic line Re tau = 1/2
    def residual(tau):
        inv = weier.invariants(lattice.make_torus(tau))
        lam = (inv.e3 - inv.e2) / (inv.e1 - inv.e2)
        return abs(abs(lam - 1.0) - 1.0)

    for b in (0.4, 0.8660254, 1.3):
        assert residual(complex(0.5, b)) < 1e-10
    assert residual(0.3 + 0.9j) > 1e-3
    assert residual(1j) > 0.4


def test_scan_classifies_rhombic_strip():
    # a 1 x 6 column along Re tau = 1/2 crossing both thresholds
    scan = moduli.scan((0.4995, 0.25, 0.5005, 0.85), 1, 6)
    assert (scan.nx, scan.ny) == (1, 6)
    assert all(len(col) == 6 for col in (scan.tau, scan.count, scan.extra_t, scan.extra_s,
                                         scan.error))
    # centers at b = 0.3, ..., 0.8; only 0.3 is below b0 and only 0.8 above b1
    assert scan.count.tolist() == [5, 3, 3, 3, 3, 5]
    assert scan.error == [None] * 6
    # a 5-cell has its extra point, and the others NaN
    for col in (scan.extra_t, scan.extra_s):
        assert np.isfinite(col).tolist() == (scan.count == 5).tolist()


def test_scan_is_deterministic_and_ordered():
    region = (0.1, 0.6, 0.45, 1.0)
    a = moduli.scan(region, 3, 2)
    b = moduli.scan(region, 3, 2)
    assert a.tau.tolist() == b.tau.tolist()
    assert a.count.tolist() == b.count.tolist()
    # row major from the bottom row up
    assert a.tau[0].imag == a.tau[1].imag == a.tau[2].imag < a.tau[3].imag
    assert a.tau[0].real < a.tau[1].real < a.tau[2].real


def test_scan_validates_inputs():
    with pytest.raises(ValueError):
        moduli.scan((0.0, 0.5, 0.4, 0.2), 4, 4)
    with pytest.raises(ValueError):
        moduli.scan((0.0, -0.1, 0.4, 0.5), 4, 4)
    with pytest.raises(ValueError):
        moduli.scan((0.0, 0.1, 0.4, 0.5), 0, 4)
    with pytest.raises(ValueError):
        moduli.scan((0.0, 0.1, 0.4, 0.5), 4, 1024)


@pytest.mark.parametrize("call", [
    lambda: moduli.thresholds(tol=1e-13),
    lambda: moduli.functional_equation_residual(0.0),
    lambda: moduli.scan((0.0, 0.5, 0.4, 0.2), 4, 4),
    lambda: moduli.scan((0.0, 0.1, 0.4, 0.5), 0, 4),
], ids=["thresholds tol", "functional equation b", "scan region", "scan grid"])
def test_input_checks_raise_invalid_input(call):
    # a typed domain error that is still a ValueError for older callers
    with pytest.raises(InvalidInput) as info:
        call()
    assert isinstance(info.value, TorusGreenError)
    assert isinstance(info.value, ValueError)


def test_flip_edges_straddle_thresholds():
    scan = moduli.scan((0.4995, 0.25, 0.5005, 0.85), 1, 6)
    edges = moduli.flip_edges(scan)
    assert edges.low.size == 2
    mids = sorted(edges.midpoint.imag.tolist())
    assert abs(mids[0] - B0_FROZEN) < 0.1
    assert abs(mids[1] - B1_FROZEN) < 0.1
    for low, high in zip(edges.low, edges.high):
        assert {scan.count[low], scan.count[high]} == {3, 5}
    # on the rhombic line the merge always happens at the half period 1/2
    assert edges.half_period.tolist() == [1, 1]
    # refining toward the threshold drives the midpoint determinant down
    fine_edges = moduli.flip_edges(moduli.scan((0.4995, B0_FROZEN - 0.01, 0.5005,
                                                B0_FROZEN + 0.01), 1, 2))
    assert fine_edges.low.size == 1
    assert fine_edges.min_abs_det[0] < 0.02


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 5), (12, 12)])
def test_flip_pairs_are_the_pairs_of_the_grid_loop(nx, ny):
    # random count grids of {0, 3, 5}: the array comparisons give the
    # loop's pairs in its order, row major by the low cell, the right
    # neighbour before the upper one
    rng = np.random.default_rng(10 * nx + ny)
    for _ in range(25):
        count = rng.choice([0, 3, 5], size=nx * ny, p=rng.dirichlet([1.0, 1.0, 1.0]))
        low, high = moduli._flip_pairs(count.reshape(ny, nx))
        assert (list(zip(low.tolist(), high.tolist()))
                == oracles.flip_pairs_reference(count.tolist(), nx, ny))


def test_flip_edges_of_criterion_7_follow_the_grid_loop():
    scan = moduli.scan((0.0, 0.1, 0.5, 2.0), 40, 40)
    pairs = oracles.flip_pairs_reference(scan.count.tolist(), 40, 40)
    assert len(pairs) > 40
    edges = moduli.flip_edges(scan)
    assert list(zip(edges.low.tolist(), edges.high.tolist())) == pairs
    assert edges.midpoint.tolist() == [0.5 * (scan.tau[a] + scan.tau[b]) for a, b in pairs]


def test_scan_records_package_errors_and_raises_bugs(monkeypatch):
    # near the cusp at 1/8 the first two cells reduce to Im tau_r = 1250,
    # past theta.MAX_IM_TAU: their InvalidInput stays in their own cells,
    # and the two cells beside them come out as they do alone
    scan = moduli.scan((0.12499, 2e-6, 0.12503, 3e-6), 4, 1)
    for k in range(2):
        assert (scan.count[k], _extra(scan, k)) == (0, None)
        error = scan.error[k]
        assert error.startswith("InvalidInput: theta series asked for at Im tau = 12"), error
    for k in range(2, 4):
        assert scan.count[k] == 3
        assert _same_cell(scan, k, critical.find_critical_points(lattice.make_torus(scan.tau[k])))

    def bug(t, s, tau_r):
        return 1 / 0

    # the final pass, which every cell with a set makes
    monkeypatch.setattr(green, "residual_and_jacobian", bug)
    with pytest.raises(ZeroDivisionError):
        moduli.scan((0.1, 0.6, 0.45, 1.0), 2, 1)


@pytest.mark.parametrize("region, nx, ny", [
    ((0.0, 0.1, 0.5, 2.0), 12, 12),
    ((0.4995, 0.2, 0.5005, 0.9), 1, 14),     # the rhombic column across b0 and b1
], ids=["criterion 7 rectangle 12x12", "rhombic column"])
def test_scan_agrees_with_the_census_in_every_cell(region, nx, ny):
    scan = moduli.scan(region, nx, ny)
    for k, tau in enumerate(scan.tau.tolist()):
        torus = lattice.make_torus(tau)
        cs = oracles.census(torus)
        assert scan.error[k] is None
        assert scan.count[k] == cs.total_count, tau
        if cs.extra is None:
            assert _extra(scan, k) is None
            continue
        t, s = _extra(scan, k)
        assert abs(t - cs.extra.coords.t) <= 1e-12, tau
        assert abs(s - cs.extra.coords.s) <= 1e-12, tau
        gx, gy = green.evaluate(t + s * tau, torus).grad
        assert math.hypot(gx, gy) <= 1e-12
    assert set(scan.count.tolist()) == {3, 5}


# the first scan of the benchmark's seed 21: cells at Re tau_r < 0 and one whose
# smallest half-period |det| * b^2 is under 1e-6
SHIFTED_REGION = (-0.01477138761073364, 0.072105648501117, 0.48522861238926634, 1.972105648501117)


def _extra(scan, k):
    """The extra point (t, s) of cell k of a scan, or None."""
    t, s = scan.extra_t[k], scan.extra_s[k]
    return None if math.isnan(t) and math.isnan(s) else (t, s)


def _cells(scan, keep):
    """The cells of a scan where keep is true, each as a tuple of its columns."""
    return [(scan.tau[k], scan.count[k], _extra(scan, k), scan.error[k])
            for k in np.flatnonzero(keep)]


def _same_cell(scan, k, cs):
    """Cell k of a scan equals the critical set of its torus, found alone."""
    if isinstance(cs, TorusGreenError):
        return (scan.count[k], scan.error[k]) == (0, f"{type(cs).__name__}: {cs}")
    extra = cs.extra
    return (scan.error[k] is None and scan.count[k] == cs.total_count
            and cs.route == {3: "morse", 5: "seeds"}[cs.total_count]
            and _extra(scan, k) == (None if extra is None else (extra.coords.t, extra.coords.s)))


def _alone(tau):
    try:
        return critical.find_critical_points(lattice.make_torus(tau))
    except TorusGreenError as exc:
        return exc


@pytest.mark.parametrize("region, nx, ny", [
    ((0.0, 0.1, 0.5, 2.0), 12, 12),
    ((0.4995, 0.2, 0.5005, 0.9), 1, 14),
    (SHIFTED_REGION, 8, 8),
    # near the real axis: five-point cells whose matrices have entries in
    # the hundreds, carried back as arrays
    ((0.1, 1e-5, 0.2, 1e-4), 8, 8),
], ids=["criterion 7 rectangle 12x12", "rhombic column", "shifted 8x8", "near-axis 8x8"])
def test_scan_cells_equal_the_tori_classified_one_by_one(region, nx, ny):
    # a scan classifies its cells together, one theta pass serving all of
    # them; every cell must still be bit for bit the torus alone
    scan = moduli.scan(region, nx, ny)
    for k, tau in enumerate(scan.tau.tolist()):
        assert _same_cell(scan, k, _alone(tau)), tau
    assert set(scan.count.tolist()) == {3, 5}
    if region[1] < 1e-3:
        assert max(max(abs(x) for row in lattice.make_torus(tau).mat for x in row)
                   for tau in scan.tau[scan.count == 5].tolist()) > 100


def test_a_cell_that_fails_inside_a_scan_fails_as_it_does_alone(monkeypatch):
    # NaN residuals at one seeds cell's torus, inside the batched Newton run
    # and the final pass; its error must be its own, and every other
    # cell must come out as before
    before = moduli.scan(SHIFTED_REGION, 8, 8)
    target = before.tau[before.count.tolist().index(5)]
    real = green.residual_and_jacobian

    target_r = lattice.make_torus(target).tau_r

    def broken(t, s, tau_r):
        r, *rest = real(t, s, tau_r)
        return np.where(tau_r == target_r, np.nan, r), *rest

    monkeypatch.setattr(green, "residual_and_jacobian", broken)
    scan = moduli.scan(SHIFTED_REGION, 8, 8)
    failed = [k for k, error in enumerate(scan.error) if error is not None]
    assert scan.tau[failed].tolist() == [target]
    assert _same_cell(scan, failed[0], _alone(target))
    assert _cells(scan, scan.tau != target) == _cells(before, before.tau != target)


def test_a_cell_whose_final_pass_leaves_the_null_sum_fails_alone(monkeypatch):
    # G - C 1e-6 off at half period 1/2 of one seeds cell's reduced torus,
    # in the final pass that every cell of the scan shares: that cell
    # fails with InconsistentComparison, as alone, and the others come out
    # as before
    before = moduli.scan(SHIFTED_REGION, 8, 8)
    target = before.tau[before.count.tolist().index(5)]
    target_r = lattice.make_torus(target).tau_r
    real = green.residual_and_jacobian

    def off(t, s, tau_r):
        r, l2, l3, value = real(t, s, tau_r)
        at = (np.asarray(tau_r) == target_r) & (np.asarray(t) == 0.5) & (np.asarray(s) == 0.0)
        return r, l2, l3, value + 1e-6 * at

    monkeypatch.setattr(green, "residual_and_jacobian", off)
    scan = moduli.scan(SHIFTED_REGION, 8, 8)
    failed = [k for k, error in enumerate(scan.error) if error is not None]
    assert scan.tau[failed].tolist() == [target]
    assert scan.error[failed[0]].startswith(
        "InconsistentComparison: the final pass and the null sum")
    assert _same_cell(scan, failed[0], _alone(target))
    assert _cells(scan, scan.tau != target) == _cells(before, before.tau != target)


def test_an_8x8_scan_makes_at_most_64_theta_passes(monkeypatch):
    # the cells share every pass: the half periods, each Newton trial of the
    # seeds cells, the plateau filter, the extra points and the residual
    # check, then the flip edge midpoints (356 passes one cell at a time)
    passes = []
    real = theta._eval

    def counted(z, *args):
        passes.append(np.size(z))
        return real(z, *args)

    monkeypatch.setattr(theta, "_eval", counted)
    scan = moduli.scan((0.0, 0.1, 0.5, 2.0), 8, 8)
    edges = moduli.flip_edges(scan)
    assert edges.low.size and set(scan.count.tolist()) == {3, 5}
    assert len(passes) <= 64


def test_a_rhombic_column_scan_shares_its_census_passes(monkeypatch):
    # below b0 all three half periods are saddles, so every cell there
    # counts 5, down to b = 0.0345 (the dual of b = 7.2), and the seeds of
    # its 5-cells share one Newton run: 20 passes in all (6645 with the
    # old multi-start census one cell at a time, 1480 with it batched,
    # where the three lowest cells failed with CountViolation)
    b0 = moduli.thresholds().b0
    passes = []
    real = theta._eval

    def counted(z, *args):
        passes.append(np.size(z))
        return real(z, *args)

    monkeypatch.setattr(theta, "_eval", counted)
    scan = moduli.scan((0.4995, 0.03, 0.5005, 0.3), 1, 30)
    low = np.flatnonzero(scan.tau.imag < b0)
    assert len(low) == 30 and scan.tau[0].imag == pytest.approx(0.0345)
    assert all((scan.count[k], scan.error[k]) == (5, None) for k in low)
    assert len(passes) <= 20


def test_scan_routes_on_the_rhombic_column():
    # b = 0.3 is below b0, so all half periods are saddles and the seeds
    # locate z0; b = 0.4 and b = 0.6 sit between the thresholds, where the
    # signs decide 3
    scan = moduli.scan((0.4995, 0.25, 0.5005, 0.65), 1, 4)
    assert scan.count.tolist() == [5, 3, 3, 3]
    # a 5-cell is its torus's seeds route and a 3-cell its morse route
    assert ([critical.find_critical_points(lattice.make_torus(tau)).route
             for tau in scan.tau.tolist()] == ["seeds", "morse", "morse", "morse"])


def test_a_five_cell_whose_newton_misses_fails_alone(monkeypatch):
    # no seed converges: the hexagonal torus, whose half periods are all
    # saddles, is Unconverged, and the error names its seed
    def no_root(t, s, torus, r_stop):
        return t, s, np.full(np.shape(t), np.inf)

    hex_tau = complex(0.5, math.sqrt(3) / 2)
    monkeypatch.setattr(critical, "damped_newton", no_root)
    with pytest.raises(Unconverged, match="Newton from the pitchfork seed") as info:
        critical.find_critical_points(lattice.make_torus(hex_tau))
    # a scan of two cells, classified in one batch: the failure reaches the
    # hexagonal cell and not the 3-cell below it (b0 < b < b1)
    scan = moduli.scan((0.4995, hex_tau.imag - 0.3, 0.5005, hex_tau.imag + 0.1), 1, 2)
    assert (scan.count[0], scan.error[0]) == (3, None)
    assert scan.count[1] == 0
    assert scan.error[1] == f"Unconverged: {info.value}"


def test_flip_edges_batched_determinants_match_scalar_calls():
    # the second scan's midpoints reach |lam| = 0.30, carried back by
    # 1/|lam|^4 = 120
    for region, n, lam_min in (((0.0, 0.1, 0.5, 2.0), 6, 0.49), (SHIFTED_REGION, 8, 0.30)):
        edges = moduli.flip_edges(moduli.scan(region, n, n))
        tori = [lattice.make_torus(mid) for mid in edges.midpoint.tolist()]
        assert tori and round(min(abs(torus.lam) for torus in tori), 2) == lam_min
        for torus, k, det in zip(tori, edges.half_period.tolist(), edges.min_abs_det.tolist()):
            _assert_flip_determinant(torus, k, det)


def _assert_flip_determinant(torus, k, det):
    """An edge's half period k and min_abs_det det at its midpoint's torus."""
    # the midpoint's null sum alone, its reduced torus's rows carried back
    # by the law of the critical sets, det / |lam|^4
    rows = oracles.rows(green.half_period_rows([torus])[0])
    dets = [abs(rows[j].hessian.det) / abs(torus.lam) ** 4 for j in torus.half_period_perm]
    assert k == 1 + min(range(3), key=dets.__getitem__)
    assert det == dets[k - 1]
    # and the given frame's own pass at each of the three half periods,
    # within its error bound: k's |det| is det, and none is below it
    evs = [green.evaluate(hp, torus) for hp in torus.half_periods]
    assert abs(det - abs(evs[k - 1].hessian.det)) <= evs[k - 1].det_bound
    assert all(abs(ev.hessian.det) + ev.det_bound >= det for ev in evs)
