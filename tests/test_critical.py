import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from torusgreen import cli, critical, green, lattice, moduli, theta, weier
from torusgreen.critical import Kind, Morse
from torusgreen.errors import (
    CountViolation,
    InconsistentComparison,
    InvalidInput,
    TorusGreenError,
    Unconverged,
)
from torusgreen.green import Hessian2

# frozen threshold digits (see test_moduli.py for their defining equations)
B_LOWER = 0.35472989252248
B_UPPER = 0.70476158133267

RANDOM_TORI = lattice.random_tori(30, seed=9)


def _grad_norm(p, torus):
    gx, gy = green.evaluate(p.z, torus).grad
    return math.hypot(gx, gy)


def test_square_torus_has_three_points():
    T = lattice.make_torus(1j)
    cs = critical.find_critical_points(T)
    assert cs.total_count == 3
    assert len(cs.points) == 3
    assert cs.extra is None
    kinds = [p.kind for p in cs.points]
    assert kinds == [Kind.HALF_PERIOD_1, Kind.HALF_PERIOD_2, Kind.HALF_PERIOD_3]
    # the corner (1 + tau)/2 is the minimum, the edge midpoints are saddles
    morse = {p.kind: p.morse for p in cs.points}
    assert morse[Kind.HALF_PERIOD_3] is Morse.MIN
    assert morse[Kind.HALF_PERIOD_1] is Morse.SADDLE
    assert morse[Kind.HALF_PERIOD_2] is Morse.SADDLE


def test_hex_torus_has_five_points_with_extra_at_third():
    T = lattice.make_torus(complex(0.5, math.sqrt(3) / 2))
    cs = critical.find_critical_points(T)
    assert cs.total_count == 5
    assert len(cs.points) == 4
    p = cs.extra
    assert p is not None
    # the extra orbit sits at (t, s) = +-(1/3, 1/3)
    assert min(abs(abs(p.coords.t) - 1.0 / 3.0), abs(abs(p.coords.t) - 1.0 / 3.0)) < 1e-9
    assert abs(abs(p.coords.s) - 1.0 / 3.0) < 1e-9
    assert p.morse is Morse.MIN
    for q in cs.points:
        if q.kind is not Kind.EXTRA_PAIR:
            assert q.morse is Morse.SADDLE


def test_rectangular_tori_have_three_points():
    for b in (0.45, 0.8, 1.6, 2.4):
        cs = critical.find_critical_points(lattice.make_torus(1j * b))
        assert cs.total_count == 3, f"b = {b}"


def test_rhombic_line_counts_follow_thresholds():
    for b, expected in ((0.30, 5), (0.34, 5), (0.40, 3), (0.55, 3), (0.68, 3),
                        (0.72, 5), (0.75, 5), (1.2, 5)):
        cs = critical.find_critical_points(lattice.make_torus(complex(0.5, b)))
        assert cs.total_count == expected, f"b = {b}"


def test_all_reported_points_are_critical():
    for T in RANDOM_TORI[:10]:
        cs = critical.find_critical_points(T)
        for p in cs.points:
            assert _grad_norm(p, T) < 1e-10
        if cs.extra is not None:
            # the mirror -z0 is critical too; the set stores one representative
            gx, gy = green.evaluate(-cs.extra.z, T).grad
            assert math.hypot(gx, gy) < 1e-10


@given(T=st.sampled_from(RANDOM_TORI))
def test_count_is_three_or_five_and_morse_balances(T):
    cs = critical.find_critical_points(T)
    assert cs.total_count in (3, 5)
    morse = [p.morse for p in cs.points]
    if Morse.DEGENERATE in morse:
        return
    minima = sum(1 for p in cs.points if p.morse is Morse.MIN)
    saddles = sum(1 for p in cs.points if p.morse is Morse.SADDLE)
    if cs.extra is not None:
        # both members of the extra orbit carry the same Morse class
        if cs.extra.morse is Morse.MIN:
            minima += 1
        else:
            saddles += 1
    # Euler count on the torus with the blow up maximum at the source
    assert minima - saddles + 1 == 0


def _moebius(tau, gamma):
    (a, b), (c, d) = gamma
    return (a * tau + b) / (c * tau + d)


def test_count_is_invariant_under_sl2z():
    # the count belongs to the lattice, not to the basis chosen for it;
    # ((1, -1), (2, -1)) maps 1/2 + ib to 1/2 + i/(4b)
    rng = np.random.default_rng(5)
    gammas = []
    while len(gammas) < 12:
        a, b, c, d = (int(v) for v in rng.integers(-3, 4, 4))
        if a * d - b * c == 1:
            gammas.append(((a, b), (c, d)))
    dual = ((1, -1), (2, -1))
    pairs = [(T, gammas[k % 12]) for k, T in enumerate(lattice.random_tori(24, seed=17))]
    # on Re tau = 1/2 from b = 0.36 to 2.8, clear of b0 and b1 on both sides
    pairs += [(lattice.make_torus(complex(0.5, b)), dual)
              for b in (0.3, 0.4, 0.8, *np.geomspace(0.36, 2.8, 12))]
    for T, gamma in pairs:
        image = lattice.make_torus(_moebius(T.tau, gamma))
        assert (critical.find_critical_points(image).total_count
                == critical.find_critical_points(T).total_count), (T.tau, gamma)
    assert abs(_moebius(0.5 + 0.8j, dual) - (0.5 + 1j / 3.2)) < 1e-15


def test_small_imag_sample_counts_at_the_reduced_modulus():
    # Im tau log uniform in [0.001, 0.01]: the one S inversion of the old
    # route left a nome near 1 here and failed on 2 of these 150 tori
    rng = np.random.default_rng(7)
    for _ in range(150):
        a = rng.uniform(-0.5, 0.5)
        b = math.exp(rng.uniform(math.log(0.001), math.log(0.01)))
        T = lattice.make_torus(complex(a, b))
        count = critical.find_critical_points(T).total_count
        assert count == critical.find_critical_points(
            lattice.make_torus(T.tau_r)).total_count, T.tau


def test_classify_matches_stored_class(monkeypatch):
    # a point's Morse label is the sign of its determinant outside the
    # determinant's error bound, and Degenerate inside it
    for T in RANDOM_TORI[:8]:
        for p in critical.find_critical_points(T).points:
            ev = green.evaluate(p.z, T)
            det = ev.hessian.det
            sign = Morse.MIN if det > 0.0 else Morse.SADDLE
            assert p.morse is (Morse.DEGENERATE if abs(det) <= ev.det_bound else sign)
    # a bound that swallows every determinant leaves no sign to count by;
    # the invariants cache holds the half-period rows with their bounds
    monkeypatch.setattr(green, "C_DET", 1e30)
    weier._invariants_cached.cache_clear()
    try:
        with pytest.raises(Unconverged, match="error bounds"):
            critical.find_critical_points(lattice.make_torus(1j))
    finally:
        weier._invariants_cached.cache_clear()


def _calibration_tori():
    # both cusp lines, the Farey moduli, and the cells of criterion 7's
    # 40x40 scan next to its flip edges (the near-degenerate ones)
    cusp = [complex(re, b) for re in (0.0, 0.5)
            for b in (*np.linspace(0.02, 0.1, 5), *np.linspace(2.5, 6.0, 5))]
    farey = [1 / 3 + 0.003j, 0.25 + 0.004j, 0.4 + 0.002j]
    cells = moduli.scan((0.0, 0.1, 0.5, 2.0), 40, 40)
    edges = {tau for e in moduli.flip_edges(cells, 40, 40) for tau in (e.tau_low, e.tau_high)}
    # 120 digits absorb the cancellation of mp_hessian_det down to b = 0.002;
    # 200 give the same errors
    return [(tau, 120) for tau in cusp + farey] + [(tau, 40) for tau in sorted(
        edges, key=lambda tau: (tau.imag, tau.real))]


def test_determinant_error_stays_within_its_bound():
    # the bound of green.evaluate against mpmath at every half period; a
    # determinant outside its bound has mpmath's sign.  The worst error,
    # 5858 eps units at 2/5+0.002i, sets green.C_DET; at 0.5+0.02i the
    # tau/2 determinant is noise (-2.6e-25 against -4.7e-27) and inside
    for tau, dps in _calibration_tori():
        torus = lattice.make_torus(tau)
        ev = green.evaluate(np.array(torus.half_periods), torus)
        for h, det, bound in zip(torus.half_periods, ev.hessian.det, ev.det_bound):
            ref = oracles.mp_hessian_det(h, tau, dps=dps)
            assert abs(det - ref) <= bound, (tau, h, det, ref, bound)
            assert abs(det) <= bound or (det > 0) == (ref > 0), (tau, h)
    torus = lattice.make_torus(0.5 + 0.02j)
    ev = green.evaluate(torus.half_periods[1], torus)
    assert abs(ev.hessian.det) <= ev.det_bound


def test_the_rhombic_threshold_b1_is_one_degenerate_half_period(monkeypatch):
    # at b1 the extra pair has merged into 1/2: three points, found by the
    # signs alone, and the balance counts the Degenerate point as +1
    def no_newton(*args):
        raise AssertionError("Newton ran on a degenerate torus")

    monkeypatch.setattr(critical, "damped_newton", no_newton)
    cs = critical.find_critical_points(lattice.make_torus(complex(0.5, moduli.thresholds().b1)))
    assert (cs.total_count, cs.route) == (3, "morse")
    assert [p.morse for p in cs.points] == [Morse.DEGENERATE, Morse.SADDLE, Morse.SADDLE]


def test_two_determinants_inside_their_bounds_are_unconverged():
    # 0.5+0.02i: below b0 all three half periods are saddles, but float64
    # resolves neither tau/2 nor (1+tau)/2, so no count is given
    with pytest.raises(Unconverged, match="2 half-period Hessian determinants"):
        critical.find_critical_points(lattice.make_torus(0.5 + 0.02j))


def test_tol_validation():
    T = lattice.make_torus(1j)
    with pytest.raises(ValueError):
        critical.find_critical_points(T, tol=1e-3)
    with pytest.raises(ValueError):
        critical.find_critical_points(T, tol=1e-15)


_E = oracles.EXTRA_MERGE_TOL
ORBIT_CASES = {
    "mirror pair": ([(-0.21, -0.13), (0.21, 0.13)], [(0.21, 0.13)]),
    "real axis mirror": ([(0.3, 1e-9), (-0.3, -1e-9), (-0.3, 2e-9)], [(0.3, -2e-9)]),
    "t seam": ([(0.5 - 1e-9, 0.2), (-0.5 + 1e-9, 0.2)], [(-0.5 + 1e-9, 0.2)]),
    "s seam": ([(0.3, 0.5 - 1e-9), (0.3, -0.5 + 1e-9), (-0.3, 0.5 - 1e-9)],
               [(0.3, -0.5 + 1e-9)]),
    "5e-7 apart": ([(0.1 + 5e-7, 0.3), (0.1, 0.3)], [(0.1, 0.3)]),
    "2e-6 apart": ([(0.1, 0.3 + 2 * _E), (0.1, 0.3)], [(0.1, 0.3), (0.1, 0.3 + 2 * _E)]),
    "near the half periods": (
        [(0.5 - 5e-6, 3e-6), (-0.5, -4e-6), (2e-6, 0.5 - 4e-6),
         (-3e-6, -0.5 + 1e-6), (0.5 - 9e-6, 0.5 - 9e-6), (-0.5 + 2e-6, -0.5)], []),
    "just outside a half period": ([(0.5 - 2e-5, 0.0)], [(0.5 - 2e-5, 0.0)]),
}


@pytest.mark.parametrize("roots, reps", ORBIT_CASES.values(), ids=ORBIT_CASES.keys())
def test_orbit_reps_on_synthetic_roots(roots, reps):
    # the census oracle's merge: one representative per orbit {z, -z}, the
    # first of its cluster in (t, s) order; roots near a half period are
    # not extras
    t, s = (np.array(c, dtype=float) for c in zip(*roots))
    rt, rs = oracles._orbit_reps(t, s)
    assert list(zip(rt.tolist(), rs.tolist())) == reps


def test_rhombic_census_near_the_cusp_merges_across_the_real_axis():
    # below b0 the extra pair sits on the real axis; Newton leaves z0 off
    # it by rounding (up to 3e-8 in the census), and the fold keeps t > 0
    # on either side of it
    cs = critical.find_critical_points(lattice.make_torus(0.5 + 0.06j))
    assert cs.total_count == 5
    assert abs(cs.extra.coords.s) < critical.LINE_TOL and cs.extra.coords.t > 0.0
    t, s = critical._fold(np.array([0.3, -0.3, -0.3]), np.array([1e-9, -1e-9, -0.2]))
    assert (t.tolist(), s.tolist()) == ([0.3, 0.3, 0.3], [1e-9, 1e-9, 0.2])


def test_find_critical_points_routes_on_the_square_and_hex_tori(hex_torus, square_torus):
    cs = critical.find_critical_points(hex_torus)
    assert cs.route == "seeds"
    z0 = oracles.census(hex_torus).extra.coords
    assert abs(cs.extra.coords.t - z0.t) <= 1e-12
    assert abs(cs.extra.coords.s - z0.s) <= 1e-12
    assert critical.find_critical_points(square_torus).route == "morse"


def test_find_critical_points_matches_the_census_on_random_tori():
    # the census is the count's second route; on the two cusp lines it is
    # trusted for b in [0.1, 4], where z0 on Re tau = 1/2 sits in a valley
    # too flat for the two routes to agree on its position to 1e-12
    for T in (lattice.make_torus(complex(re, b)) for re in (0.0, 0.5)
              for b in np.geomspace(0.1, 4.0, 16)):
        assert critical.find_critical_points(T).total_count == oracles.census(T).total_count, T.tau
    routes = set()
    for T in lattice.random_tori(60, seed=11):
        cs = critical.find_critical_points(T)
        ref = oracles.census(T)
        routes.add(cs.route)
        assert cs.total_count == ref.total_count, T.tau
        if ref.extra is None:
            assert cs.extra is None
            continue
        assert abs(cs.extra.coords.t - ref.extra.coords.t) <= 1e-12, T.tau
        assert abs(cs.extra.coords.s - ref.extra.coords.s) <= 1e-12, T.tau
    assert {"morse", "seeds"} <= routes


def test_the_seeds_route_evaluates_each_point_once(hex_torus, monkeypatch):
    # one pass at the half periods, the invariants', decides the route and
    # gives their points, and one pass at the Newton root gives z0's; the
    # residual check is residual_and_jacobian's
    z0 = oracles.census(hex_torus).extra.coords
    calls = []
    real, real_pass = green.evaluate, weier._half_period_pass

    def spy(z, on):
        calls.append(np.ravel(z).tolist())
        return real(z, on)

    def spy_pass(tori, batch):
        calls.append(tori)
        return real_pass(tori, batch)

    monkeypatch.setattr(green, "evaluate", spy)
    monkeypatch.setattr(weier, "_half_period_pass", spy_pass)
    weier._invariants_cached.cache_clear()
    cs = critical.find_critical_points(hex_torus)
    assert (cs.total_count, cs.route) == (5, "seeds")
    assert calls == [[hex_torus], [cs.extra.z]]
    assert abs(cs.extra.coords.t - z0.t) <= 1e-12 and abs(cs.extra.coords.s - z0.s) <= 1e-12


@pytest.fixture(scope="module")
def criterion_7_census_tori():
    # the cells of criterion 7's 40x40 scan whose smallest half-period
    # |det| * b^2 is under 1e-6, the absolute margin that once sent them
    # to the census
    tori = [lattice.make_torus(c.tau) for c in moduli.scan((0.0, 0.1, 0.5, 2.0), 40, 40)]
    det = weier.half_periods(tori, green.gather(tori))[0].hessian.det
    near = np.abs(det).reshape(-1, 3).min(axis=1) * np.array([T.b ** 2 for T in tori]) < 1e-6
    return [T for T, n in zip(tori, near) if n]


@pytest.mark.parametrize("run", [65536, 1000])
def test_a_batch_of_census_tori_equals_each_torus_alone(run, monkeypatch, hex_torus,
                                                       criterion_7_census_tori):
    # the signs decide all ten tori, with the census's counts; with the
    # hexagonal torus, whose seed runs Newton, the eleven share every pass
    # and each gets the bits it gets alone, forty copies of them too, whose
    # passes of over 1000 points the theta series sums in runs of run points
    tori = criterion_7_census_tori + [hex_torus]
    assert len(tori) == 11
    alone = [critical.find_critical_points(torus) for torus in tori]
    assert [cs.route for cs in alone] == ["morse"] * 10 + ["seeds"]
    assert [cs.total_count for cs in alone] == [oracles.census(T).total_count for T in tori]
    monkeypatch.setattr(theta, "_RUN", run)
    assert critical.find_critical_sets(tori) == alone
    assert critical.find_critical_sets(tori[::-1]) == alone[::-1]
    assert critical.find_critical_sets(tori * 40) == alone * 40


def test_a_chunk_fails_each_torus_as_it_fails_alone(monkeypatch):
    # a scan chunk of tori that count, tori whose determinants cannot
    # decide (the cusp at 250i and 1/2 + 11i), and tori whose half-period
    # pass misses Jacobi's gap identities (L2 off by 1e-9 relative at the
    # hexagonal torus and at 0.3+0.8i): each torus gets its own result or
    # error, the same as alone, where it reads the invariants cache
    taus = [1j, 250j, 0.5 + 0.8660254037844386j, 0.13 + 0.92j, 0.5 + 11j, 0.3 + 0.8j,
            0.5 + 0.3j]
    tori = [lattice.make_torus(tau) for tau in taus]
    off = {tori[2].tau_r, tori[5].tau_r}
    real = theta._eval

    def corrupted(z, tau):
        lm, ar, L1, L2, L3 = real(z, tau)
        return lm, ar, L1, L2 * np.where(np.isin(tau, list(off)), 1.0 + 1e-9, 1.0), L3

    def alone(torus):
        try:
            return critical.find_critical_points(torus)
        except TorusGreenError as exc:
            return exc

    monkeypatch.setattr(theta, "_eval", corrupted)
    weier._invariants_cached.cache_clear()
    try:
        single = [alone(torus) for torus in tori]
        chunk = critical.find_critical_sets(tori)
    finally:
        weier._invariants_cached.cache_clear()
    assert [type(x).__name__ for x in chunk] == [
        "CriticalSet", "Unconverged", "Unconverged", "CriticalSet", "Unconverged",
        "Unconverged", "CriticalSet"]
    for k in (2, 5):
        assert "gap identities" in str(chunk[k])
    for k in (1, 4):
        assert "within their error bounds" in str(chunk[k])
    for got, want in zip(chunk, single):
        assert type(got) is type(want)
        assert got == want if isinstance(got, critical.CriticalSet) else str(got) == str(want)


def test_a_torus_past_max_im_tau_fails_alone_in_its_batch():
    # the torus the series cannot sum gets its own InvalidInput, the text
    # theta._check_im gives, and joins no pass; the square torus beside it
    # gets its solo critical set, in either order
    square, high = lattice.make_torus(1j), lattice.make_torus(0.3 + 1000j)
    with pytest.raises(InvalidInput) as info:
        theta._check_im(high.tau_r.imag)
    assert "Im tau = 1000.0," in str(info.value)
    alone = critical.find_critical_points(square)
    cs, err = critical.find_critical_sets([square, high])
    assert cs == alone
    assert type(err) is InvalidInput and str(err) == str(info.value)
    err, cs = critical.find_critical_sets([high, square])
    assert cs == alone and str(err) == str(info.value)
    assert [str(x) for x in critical.find_critical_sets([high, high])] == [str(info.value)] * 2
    with pytest.raises(InvalidInput, match="Im tau = 1000.0,"):
        critical.find_critical_points(high)


@pytest.mark.parametrize("tau, at_half_periods",
                         [(1j, True), (complex(0.5, math.sqrt(3) / 2), False)],
                         ids=["morse", "seeds"])
def test_a_wrong_hessian_sign_is_a_count_violation(tau, at_half_periods, monkeypatch):
    # wrong determinant signs: at the three half periods on the square
    # torus (the morse route then reads two minima), or at z0 on the
    # hexagonal one (seeds route, a saddle pair)
    def flipped(ev):
        h = ev.hessian
        return dataclasses.replace(ev, hessian=Hessian2(h.xx, h.xy, h.yy, -h.det))

    if at_half_periods:
        real = weier.half_periods
        monkeypatch.setattr(weier, "half_periods",
                            lambda tori, batch: (flipped(real(tori, batch)[0]), {}))
    else:
        real = green.evaluate
        monkeypatch.setattr(green, "evaluate", lambda z, torus: flipped(real(z, torus)))
    with pytest.raises(CountViolation, match="the Euler count forces -1"):
        critical.find_critical_points(lattice.make_torus(tau))


def test_a_point_off_the_critical_equation_is_unconverged(square_torus, monkeypatch):
    real = green.residual_and_jacobian

    def off(t, s, torus):
        r, rt, rs = real(t, s, torus)
        return r + 1e-9, rt, rs

    monkeypatch.setattr(green, "residual_and_jacobian", off)
    with pytest.raises(Unconverged, match="grad G"):
        critical.find_critical_points(square_torus)


def test_a_seed_without_a_positive_quartic_term_is_unconverged(monkeypatch):
    # a quarter turn of the Hessian at tau/2 keeps its trace and its
    # determinant, so the route and the seed's half period 1/2 stay, but
    # moves c_2 so that G_vvvv at 1/2 turns negative: eps has no real value
    real = weier.half_periods

    def turned(tori, batch):
        ev, failed = real(tori, batch)
        h = ev.hessian
        xx, xy, yy = h.xx.copy(), h.xy.copy(), h.yy.copy()
        xx[1], xy[1], yy[1] = h.yy[1], -h.xy[1], h.xx[1]
        return dataclasses.replace(ev, hessian=Hessian2(xx, xy, yy, h.det)), failed

    monkeypatch.setattr(weier, "half_periods", turned)
    with pytest.raises(Unconverged, match=r"no pitchfork seed at half period 1: G_vvvv = -2\.01"):
        critical.find_critical_points(lattice.make_torus(0.5 + 0.3j))


def _newton_ends_at(monkeypatch, t, s, rn):
    def fixed(t0, s0, torus, r_stop):
        shape = np.shape(t0)
        return np.full(shape, t), np.full(shape, s), np.full(shape, rn)

    monkeypatch.setattr(critical, "damped_newton", fixed)


def test_a_seed_whose_newton_misses_is_unconverged(monkeypatch):
    T = lattice.make_torus(0.5 + 0.3j)
    t, s, m = critical._pitchfork_seed(T, critical._rows(weier.invariants(T).green))
    _newton_ends_at(monkeypatch, t, s, 1e-10)
    with pytest.raises(Unconverged) as info:
        critical.find_critical_points(T)
    assert str(info.value) == (
        f"Newton from the pitchfork seed (t, s) = ({t:.6f}, {s:.6f}) at half period {m + 1} "
        f"ended at reduced-frame |grad G| = {1e-10 * abs(T.lam) / (2 * math.pi):.3e}, "
        f"above tol 1e-12 / 2, at tau = {T.tau}")


def test_a_root_at_a_half_period_is_a_count_violation(monkeypatch):
    # all three half periods are saddles, so a root there leaves 3 points
    _newton_ends_at(monkeypatch, -0.5, 0.5 + 1e-7, 0.0)
    with pytest.raises(CountViolation, match="reached half period 3, so 3 critical points"):
        critical.find_critical_points(lattice.make_torus(0.5 + 0.3j))


def test_a_degenerate_extra_point_is_a_count_violation(monkeypatch):
    # z0 must be a Min outside its det_bound; a Degenerate pair of minima
    # would pass the Euler balance, which counts it +1 like a half period
    real = green.evaluate

    def flattened(z, torus):
        ev = real(z, torus)
        if np.size(z) == 3:
            return ev
        h = ev.hessian
        return dataclasses.replace(ev, hessian=Hessian2(h.xx, h.xy, h.yy, 0.0 * h.det))

    monkeypatch.setattr(green, "evaluate", flattened)
    with pytest.raises(CountViolation, match="is Degenerate, not a Min"):
        critical.find_critical_points(lattice.make_torus(0.5 + 0.3j))


@pytest.mark.parametrize("dual", [False, True], ids=["b", "1/(4b)"])
@pytest.mark.parametrize("b", [4.5, 5.0, 6.0])
def test_the_rhombic_cusp_has_five_points(b, dual):
    # above b1 on Re tau = 1/2 the pair sits on Re z = 1/2 just below the
    # height b/2 of the half periods, z0 = 1/2 + i (b/2 - 2 b e^(-pi b))
    # up to O(b e^(-2 pi b)); 1/2 + i/(4b) is the same lattice scaled by
    # mu = 1/(2ib).  The seeds' multi-start Newton ran 699 passes on the
    # gradient plateau here and found no z0 (CountViolation)
    tau, mu = (complex(0.5, 1 / (4 * b)), 1 / (2j * b)) if dual else (complex(0.5, b), 1.0)
    cs = critical.find_critical_points(lattice.make_torus(tau))
    assert (cs.total_count, cs.route, cs.extra.morse) == (5, "seeds", Morse.MIN)
    z0 = mu * complex(0.5, b / 2 - 2 * b * math.exp(-math.pi * b))
    assert min(lattice.lattice_gap(cs.extra.z - z0, tau),
               lattice.lattice_gap(cs.extra.z + z0, tau)) <= 1e-10
    assert cs.extra.hessian.det > 0.0 and oracles.mp_hessian_det(cs.extra.z, tau) > 0.0


def _compare(T):
    return critical.compare_half_periods(T, critical.find_critical_points(T))


def test_compare_half_periods_square():
    cmpr = _compare(lattice.make_torus(1j))
    # G(w1/2) = G(w2/2) > G(w3/2) by the quarter turn symmetry
    assert set(cmpr.ranking[0]) == {0, 1}
    assert cmpr.ranking[1] == (2,)
    assert cmpr.ties and set(cmpr.ties[0]) == {0, 1}
    assert cmpr.max_formula_deviation < 1e-11


def test_compare_half_periods_hex_all_tie():
    cmpr = _compare(lattice.make_torus(complex(0.5, math.sqrt(3) / 2)))
    assert len(cmpr.ranking) == 1
    assert set(cmpr.ranking[0]) == {0, 1, 2}


def test_compare_half_periods_rhombic_above_upper_threshold():
    cmpr = _compare(lattice.make_torus(0.5 + 0.75j))
    # the two slanted half periods tie by the rhombic reflection; both beat w1/2
    assert set(cmpr.ranking[0]) == {1, 2}
    assert cmpr.ranking[1] == (0,)


@pytest.mark.parametrize("tau", [0.5 + 0.3j, 0.5 + 0.5j])
def test_compare_half_periods_lists_a_tie_in_index_order(tau):
    # on Re tau = 1/2, G(tau/2) = G((1+tau)/2) exactly; roundoff decides
    # which of the two reads larger, and must not reorder the output
    for im in (tau.imag, np.nextafter(tau.imag, 1.0), np.nextafter(tau.imag, 0.0)):
        cmp = _compare(lattice.make_torus(complex(0.5, im)))
        assert (1, 2) in cmp.ranking and cmp.ties == ((1, 2),), (im, cmp.ranking)


def test_compare_half_periods_formula_agreement_random():
    for T in RANDOM_TORI[:12]:
        cmpr = _compare(T)
        assert cmpr.max_formula_deviation < 1e-10
        flat = tuple(i for grp in cmpr.ranking for i in grp)
        assert sorted(flat) == [0, 1, 2]
        vals = cmpr.values
        for a, b in zip(flat, flat[1:]):
            assert vals[a] >= vals[b] - critical.TIE_TOL


def test_compare_half_periods_catches_a_wrong_direct_value():
    # the direct G values and the theta null differences are two routes; a
    # direct value moved at one half period must break the comparison
    torus = lattice.make_torus(0.13 + 0.92j)
    cs = critical.find_critical_points(torus)
    points = list(cs.points)
    points[1] = dataclasses.replace(points[1], g_rel=points[1].g_rel - 0.05)
    with pytest.raises(InconsistentComparison, match="log-ratio formula"):
        critical.compare_half_periods(torus, dataclasses.replace(cs, points=tuple(points)))


@pytest.mark.parametrize("tau", [1j, complex(0.5, math.sqrt(3) / 2), 0.13 + 0.92j, 0.5 + 0.75j])
def test_compare_half_periods_reads_the_critical_set(tau, monkeypatch):
    # the direct values are the g_rel of the critical set's half periods
    T = lattice.make_torus(tau)
    cs = critical.find_critical_points(T)
    calls = []
    real = green.evaluate

    def counted(z, torus):
        calls.append(z)
        return real(z, torus)

    monkeypatch.setattr(green, "evaluate", counted)
    cmpr = critical.compare_half_periods(T, cs)
    assert calls == []
    assert cmpr.values == tuple(p.g_rel for p in cs.points[:3])


@pytest.mark.parametrize("tau, route, budget", [
    # half periods with the invariants, residual check (3 passes while
    # the invariants summed the half periods again)
    ("i", "morse", 2),
    # plus 6 Newton trials from the one seed and the pass at z0 (13 passes
    # over 290 points from the 55 fixed seeds, then 10)
    ("0.5+0.8660254037844386i", "seeds", 9),
], ids=["square", "hex"])
def test_critical_command_pass_budget(tau, route, budget, theta_passes, capsys):
    assert cli.run(["critical", f"--tau={tau}"]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["route"] == route
    assert len(theta_passes) == budget


def test_locate_z0_matches_full_solver_above():
    for b in (0.75, 0.9, 1.4):
        p = oracles.locate_z0_on_rhombus_line(b)
        T = lattice.make_torus(complex(0.5, b))
        cs = critical.find_critical_points(T)
        q = cs.extra
        assert q is not None
        # same orbit: p equals q or its mirror
        d1 = abs(p.z - q.z)
        d2 = abs(p.z + q.z - (1.0 + T.tau) * round((p.z + q.z).real))
        gap_t = min(abs(p.coords.t - q.coords.t), abs(abs(p.coords.t) - abs(q.coords.t)))
        gap_s = min(abs(p.coords.s - q.coords.s), abs(abs(p.coords.s) - abs(q.coords.s)))
        assert gap_t < 1e-8 and gap_s < 1e-8, (b, d1, d2)
        # on the vertical segment Re z = 1/2
        assert abs(p.z.real - 0.5) < 1e-12


def test_locate_z0_matches_full_solver_below():
    for b in (0.30, 0.34):
        p = oracles.locate_z0_on_rhombus_line(b)
        T = lattice.make_torus(complex(0.5, b))
        q = critical.find_critical_points(T).extra
        assert q is not None
        gap_t = min(abs(p.coords.t - q.coords.t), abs(abs(p.coords.t) - abs(q.coords.t)))
        gap_s = min(abs(p.coords.s - q.coords.s), abs(abs(p.coords.s) - abs(q.coords.s)))
        assert gap_t < 1e-8 and gap_s < 1e-8
        assert _grad_norm(p, T) < 1e-12


def test_locate_z0_rejects_middle_band():
    for b in (B_LOWER + 1e-3, 0.5, B_UPPER - 1e-3):
        with pytest.raises(oracles.NotInExtraRegime):
            oracles.locate_z0_on_rhombus_line(b)


def test_g_rel_field_matches_green():
    T = lattice.make_torus(0.5 + 0.75j)
    for p in critical.find_critical_points(T).points:
        assert p.g_rel == green.green_rel(p.z, T)


# cusp defects of the half-period determinants, which need A_k summed to
# relative precision and the determinant kept as a sign and log|det|; the
# marks are strict, so the change that mends them must drop them
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the tau/2 and (1+tau)/2 determinants at 0.5+0.0035i are "
                          "rounding noise outside their bounds and read 3 points")
def test_the_rhombic_line_far_below_b0_has_five_points(capsys):
    assert cli.run(["critical", "--tau=0.5+0.0035i"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["count"] == 5


@pytest.mark.xfail(strict=True, raises=Unconverged,
                   reason="two half-period determinants fall inside their error bounds")
@pytest.mark.parametrize("tau, count", [(0.5 + 11j, 5), (250j, 3)], ids=["rhombic", "square"])
def test_the_cusp_far_out_is_counted(tau, count):
    assert critical.find_critical_points(lattice.make_torus(tau)).total_count == count


# near the real axis |lam| is small and |grad G| = |A1| / (2 pi |lam|) in the
# given frame, so tol bounds the gradient on the reduced torus: the half
# periods pass their check, and the seeds route reaches z0
def test_a_near_axis_morse_torus_passes_its_residual_check(capsys):
    assert cli.run(["critical", "--tau=0.10363651676141528+1.1292021196875275e-07i"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["count"] == 3


def test_a_near_axis_seeds_torus_finds_the_reduced_torus_z0():
    T = lattice.make_torus(-0.162702494251301 + 4.641008703885093e-06j)
    cs = critical.find_critical_points(T)
    assert cs.total_count == 5
    (a, b), (c, d) = T.mat
    t, s = cs.extra.coords.t, cs.extra.coords.s
    ref = critical.find_critical_points(lattice.make_torus(T.tau_r)).extra.coords

    def gap(x):
        return abs(float(lattice.wrap_unit(x)[0]))

    # z / lam = t' + s' tau_r with t' = a t - b s, s' = d s - c t, up to z -> -z
    assert min(max(gap(sign * (a * t - b * s) - ref.t), gap(sign * (d * s - c * t) - ref.s))
               for sign in (1, -1)) < 1e-10


@pytest.mark.xfail(strict=True, raises=Unconverged,
                   reason="Newton in the given (t, s) stalls at a reduced-frame |grad G| of "
                          "8.7e-13, above tol / 2; a solver in the reduced frame would reach z0")
def test_the_near_axis_five_point_torus_is_counted():
    tau = 0.17668935183106604 + 2.3164145156627625e-07j
    assert critical.find_critical_points(lattice.make_torus(tau)).total_count == 5
