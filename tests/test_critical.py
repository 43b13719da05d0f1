import dataclasses
import fractions
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
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


def _unimodular(c: int, d: int, k: int):
    """((a, b), (c, d)) in SL(2, Z) for coprime c, d, shifted by k (c, d)."""
    # extended Euclid: a d - b c = 1
    r0, r1, x0, x1, y0, y1 = d, c, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
    a, b = x0 * r0, -y0 * r0          # r0 = +-1, so a d - b c = r0^2
    return (a + k * c, b + k * d), (c, d)


def _hp_index(t2: int, s2: int) -> int:
    """0, 1, 2 for the half period (t2, s2) / 2 mod 1 = 1/2, tau/2, (1+tau)/2."""
    return t2 % 2 + 2 * (s2 % 2) - 1


def _solver_point(coords, T) -> complex:
    """The point of T.reduced that coords of T name, where the solver
    evaluated it: t' = a t - b s and s' = d s - c t in exact integer
    arithmetic, rounded once (in floats, the entries near 1000 of T.mat
    leave the point 1e-10 off the root)."""
    (a, b), (c, d) = T.mat
    t, s = fractions.Fraction(coords.t), fractions.Fraction(coords.s)
    tr, sr = (float(x - math.floor(x)) for x in (a * t - b * s, d * s - c * t))
    return tr + sr * T.tau_r


# no explain phase: on a failure it reran this test for two minutes
@settings(max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(x=st.floats(-0.5, 0.5, exclude_max=True), y=st.floats(0.0, 1.0),
       c=st.integers(-1000, 1000), d=st.integers(-1000, 1000), k=st.integers(-1, 1))
# tau' = 1.184147814743314+1.8429730470490425e-06i, T.mat entries near 1000:
# the second route read 11.6 against a bound of 10.1 while z0 reached it
# through its given-frame z and Torus.reduced_point in floats
@example(x=0.49999999999999994, y=0.25, c=-429, d=-391, k=1)
def test_the_critical_set_is_covariant_under_sl2z(x, y, c, d, k):
    # tau' = gamma tau for tau in the fundamental domain with Im tau <= 5:
    # Z + tau' Z = (Z + tau Z) / mu, mu = c tau + d, so z' = t' + s' tau'
    # sits at mu z' = (d t' + b s') + (c t' + a s') tau, G' - C' = G - C -
    # log|mu| / 4 pi there, and Hessians turn with mu^2 and scale by |mu|^2
    assume(math.gcd(c, d) == 1)
    tau = complex(x, math.sqrt(1.0 - x * x) + y * (5.0 - math.sqrt(1.0 - x * x)))
    (a, b), _ = gamma = _unimodular(c, d, k)
    mu = c * tau + d
    assume(tau.imag / abs(mu) ** 2 >= 1e-7)
    base = lattice.make_torus(tau)
    cs = critical.find_critical_points(base)
    # clear of degenerate points, whose signs a rounding of tau' could move,
    # and of flat valleys (z0 near the rhombic cusp), where the root's
    # position is known only to |r| over the small Hessian eigenvalue
    assume(all(abs(p.hessian.det) > 1e-3 * p.hessian.trace ** 2 for p in cs.points))
    T = lattice.make_torus(_moebius(tau, gamma))
    got = critical.find_critical_points(T)
    assert (got.total_count, got.route) == (cs.total_count, cs.route)
    images = [_hp_index(d * t2 + b * s2, c * t2 + a * s2) for t2, s2 in ((1, 0), (0, 1), (1, 1))]
    pairs = [(p, cs.points[j]) for p, j in zip(got.points[:3], images)]
    if got.extra is not None:
        t, s = got.extra.coords.t, got.extra.coords.s
        image = (d * t + b * s, c * t + a * s)
        ref = cs.extra.coords

        def gap(u, v):
            return abs(float(lattice.wrap_unit(u - v)[0]))

        assert min(max(gap(sign * image[0], ref.t), gap(sign * image[1], ref.s))
                   for sign in (1, -1)) < 1e-8
        # z0's coordinates in T's frame, mapped back exactly, give the root
        # the solver found on T.reduced to the rounding of one coordinate
        # times the matrix entries
        root = critical.find_critical_points(T.reduced).extra.z
        here = _solver_point(got.extra.coords, T)
        (ma, mb), (mc, md) = T.mat
        ulps = (abs(ma) + abs(mb) + 2 + (abs(mc) + abs(md) + 2) * abs(T.tau_r)) * 2.0 ** -52
        assert min(lattice.lattice_gap(here - sign * root, T.tau_r) for sign in (1, -1)) <= ulps
        pairs.append((got.extra, cs.extra))
    for p, q in pairs:
        assert p.morse is q.morse
        h, g = p.hessian, q.hessian
        scale = abs(g.xx) + abs(g.yy) + abs(g.xy)
        assert abs(p.g_rel - (q.g_rel - math.log(abs(mu)) / (4 * math.pi))) < 1e-9
        assert abs(complex(h.xx - h.yy, -2 * h.xy) - mu * mu * complex(g.xx - g.yy, -2 * g.xy)) \
            < 1e-8 * abs(mu) ** 2 * scale
        assert abs(h.trace - abs(mu) ** 2 * g.trace) < 1e-8 * abs(mu) ** 2 * scale
        assert abs(h.det - abs(mu) ** 4 * g.det) < 1e-8 * abs(mu) ** 4 * scale ** 2
        # the second route: green.evaluate at the solver's own point of
        # T.reduced, carried back to T
        ev = green.carried(green.evaluate(_solver_point(p.coords, T), T.reduced), T)
        e = ev.hessian
        assert abs(ev.value_rel - p.g_rel) < 1e-9
        assert max(abs(e.xx - h.xx), abs(e.xy - h.xy), abs(e.yy - h.yy)) \
            < 1e-8 * abs(mu) ** 2 * scale
        assert abs(e.det - h.det) <= ev.det_bound + 1e-8 * abs(h.det)


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
    # a bound that swallows every determinant leaves no sign to count by
    monkeypatch.setattr(green, "C_DET", 1e30)
    with pytest.raises(Unconverged, match="error bounds"):
        critical.find_critical_points(lattice.make_torus(1j))


def _calibration_tori():
    # both cusp lines, the Farey moduli, and the cells of criterion 7's
    # 40x40 scan next to its flip edges (the near-degenerate ones)
    cusp = [complex(re, b) for re in (0.0, 0.5)
            for b in (*np.linspace(0.02, 0.1, 5), *np.linspace(2.5, 6.0, 5))]
    farey = [1 / 3 + 0.003j, 0.25 + 0.004j, 0.4 + 0.002j]
    scan = moduli.scan((0.0, 0.1, 0.5, 2.0), 40, 40)
    flips = moduli.flip_edges(scan)
    edges = set(scan.tau[np.concatenate([flips.low, flips.high])].tolist())
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
    # one null sum decides the route and gives the half-period points in
    # closed form, and one final pass over the three half periods, at
    # their exact coordinates, and the Newton root gives z0's row and
    # checks every point
    z0 = oracles.census(hex_torus).extra.coords
    calls = []
    real, real_rows = green.residual_and_jacobian, green.half_period_rows

    passes = []

    def spy(t, s, on):
        passes.append(list(zip(np.ravel(t).tolist(), np.ravel(s).tolist())))
        return real(t, s, on)

    def spy_rows(tori):
        calls.append(tori)
        return real_rows(tori)

    monkeypatch.setattr(green, "residual_and_jacobian", spy)
    monkeypatch.setattr(green, "half_period_rows", spy_rows)
    monkeypatch.setattr(green, "evaluate", lambda z, torus: calls.append("evaluate"))
    cs = critical.find_critical_points(hex_torus)
    assert (cs.total_count, cs.route) == (5, "seeds")
    # the hexagonal torus is its own reduced torus; z0 is summed where
    # evaluate sums it, at t + s tau_r; the final pass is the last after
    # Newton's trials
    assert hex_torus.mat == ((1, 0), (0, 1))
    z0_at = [tuple(float(x[0]) for x in green._split(cs.extra.z, hex_torus.tau_r))]
    assert calls == [[hex_torus]]
    assert passes[-1] == [(0.5, 0.0), (0.0, 0.5), (0.5, 0.5), *z0_at]
    assert all(len(p) == 1 for p in passes[:-1])
    assert abs(cs.extra.coords.t - z0.t) <= 1e-12 and abs(cs.extra.coords.s - z0.s) <= 1e-12


def _second_order_step(t, s, tau_r):
    """The Newton step (dt, ds) at (t, s) by the 2x2 solve of the (t, s)
    Jacobian that the steps were made of while they were second order, its
    third-order correction (dct, dcs), the same solve applied to
    L3 dz^2 / 2 with dz = dt + tau_r ds, and the size of that correction
    against the step in the plane."""
    r, rt, l3, _ = green.residual_and_jacobian(np.array([t]), np.array([s]), tau_r)
    rs = tau_r * rt + 2j * np.pi
    det = rt.real * rs.imag - rs.real * rt.imag

    def solve(w):
        return ((w.real * rs.imag - rs.real * w.imag) / det,
                (rt.real * w.imag - w.real * rt.imag) / det)

    dt, ds = solve(r)
    dz = dt + tau_r * ds
    dct, dcs = solve(0.5 * l3 * dz * dz)
    return dt[0], ds[0], dct[0], dcs[0], abs(dct[0] + tau_r * dcs[0]) / abs(dz[0])


@pytest.mark.parametrize("far", [True, False], ids=["far seed", "pitchfork seed"])
def test_a_step_takes_its_correction_only_where_it_is_small(far, hex_torus, monkeypatch):
    # next to the lattice point the quadratic model of r fails and the
    # correction is most of the step: the first trial is the Newton step
    # alone, t - dt, which it was when every step was second order; from
    # the hexagonal torus's pitchfork seed the correction is small, and
    # the trial is t - dt - dct, to rounding
    tau = hex_torus.tau_r
    if far:
        t0, s0 = 0.1, 0.05
    else:
        (t0,), (s0,), _, _ = critical._pitchfork_seeds(
            green.half_period_rows([hex_torus])[0], np.array([0]), tau)
    dt, ds, dct, dcs, share = _second_order_step(t0, s0, tau)
    assert (share > critical._CUBIC_SHARE) == far
    assert min(abs(dct), abs(dcs)) > 1e-3
    trials = []
    real = green.residual_and_jacobian

    def spy(t, s, on):
        trials.append((float(np.ravel(t)[0]), float(np.ravel(s)[0])))
        return real(t, s, on)

    monkeypatch.setattr(green, "residual_and_jacobian", spy)
    critical.damped_newton(np.array([t0]), np.array([s0]), tau, 1e-3)
    want = (t0 - dt, s0 - ds) if far else (t0 - dt - dct, s0 - ds - dcs)
    assert trials[0] == (t0, s0)
    assert abs(trials[1][0] - want[0]) <= 1e-15 and abs(trials[1][1] - want[1]) <= 1e-15


def test_every_newton_root_meets_the_polish_target(hex_torus, monkeypatch):
    # one Newton run serves the seeds of the criterion 7 8x8 scan's 5-cells,
    # of 200 random tori, of the hexagonal torus and of five-point tori at
    # the rhombic cusp and near the real axis: it ends every seed at
    # |r| <= POLISH times its target pi tol, not merely inside the tolerance
    tori = [lattice.make_torus(tau) for tau in moduli.scan((0.0, 0.1, 0.5, 2.0), 8, 8).tau.tolist()]
    tori += list(lattice.random_tori(200, seed=31)) + [hex_torus] + [
        lattice.make_torus(tau) for tau in (0.3 + 0.8j, 0.5 + 5j, 0.5 + 8j,
                                            0.17668935183106604 + 2.3164145156627625e-07j)]
    runs = []
    real = critical.damped_newton

    def kept(t, s, tau_r, r_stop):
        out = real(t, s, tau_r, r_stop)
        runs.append((out[2], r_stop))
        return out

    monkeypatch.setattr(critical, "damped_newton", kept)
    sets = critical.find_critical_sets(tori)
    (rn, r_stop), = runs
    assert r_stop == math.pi * critical.DEFAULT_TOL * critical.POLISH
    assert rn.size == sum(cs.route == "seeds" for cs in sets) > 20
    assert np.all(rn <= r_stop)


def test_the_hexagonal_z0_is_a_third_to_a_few_ulps(hex_torus):
    # z0 of the hexagonal torus is (1 + tau)/3, at t = s = 1/3
    p = critical.find_critical_points(hex_torus).extra
    assert max(abs(p.coords.t - 1 / 3), abs(p.coords.s - 1 / 3)) <= 4 * math.ulp(1 / 3)


@pytest.fixture(scope="module")
def criterion_7_census_tori():
    # the cells of criterion 7's 40x40 scan whose smallest half-period
    # |det| * b^2 is under 1e-6, the absolute margin that once sent them
    # to the census; det * b^2 is the same on the reduced torus
    tori = [lattice.make_torus(tau)
            for tau in moduli.scan((0.0, 0.1, 0.5, 2.0), 40, 40).tau.tolist()]
    det = green.half_period_rows(tori)[0].hessian.det
    b_r = np.array([T.tau_r.imag for T in tori])
    near = np.abs(det).reshape(-1, 3).min(axis=1) * b_r ** 2 < 1e-6
    return [T for T, n in zip(tori, near) if n]


@pytest.mark.parametrize("run", [65536, 1000])
def test_a_batch_of_census_tori_equals_each_torus_alone(run, monkeypatch, hex_torus,
                                                       criterion_7_census_tori):
    # the signs decide all ten tori, with the census's counts; with the
    # hexagonal torus and a five-point torus near the real axis, whose
    # matrix entries run to the hundreds and whose z0 is carried back in
    # exact arithmetic, the seeds run Newton, the twelve share every pass
    # and each gets the bits it gets alone, forty copies of them too, whose
    # passes of over 1000 points the theta series sums in runs of run points
    near_axis = lattice.make_torus(0.17668935183106604 + 2.3164145156627625e-07j)
    assert max(abs(x) for row in near_axis.mat for x in row) > 100
    tori = criterion_7_census_tori + [hex_torus, near_axis]
    assert len(tori) == 12
    alone = [critical.find_critical_points(torus) for torus in tori]
    assert [cs.route for cs in alone] == ["morse"] * 10 + ["seeds"] * 2
    assert [cs.total_count for cs in alone] == [oracles.census(T).total_count for T in tori]
    # the sets compare their route_deviation too, which the two routes put
    # at rounding, not at 0 throughout
    assert max(cs.route_deviation for cs in alone) <= 1e-15
    assert any(cs.route_deviation > 0.0 for cs in alone)
    monkeypatch.setattr(theta, "_RUN", run)
    assert critical.find_critical_sets(tori) == alone
    assert critical.find_critical_sets(tori[::-1]) == alone[::-1]
    assert critical.find_critical_sets(tori * 40) == alone * 40


def test_a_chunk_fails_each_torus_as_it_fails_alone(monkeypatch):
    # a scan chunk of tori that count, tori whose determinants cannot
    # decide (the cusp at 250i and 1/2 + 11i), and tori whose null sum
    # misses Jacobi's gap identities (A_2 off by 1e-9 relative at the
    # hexagonal torus and at 0.3+0.8i): each torus gets its own result or
    # error, the same as alone
    taus = [1j, 250j, 0.5 + 0.8660254037844386j, 0.13 + 0.92j, 0.5 + 11j, 0.3 + 0.8j,
            0.5 + 0.3j]
    tori = [lattice.make_torus(tau) for tau in taus]
    off = [tori[2].tau_r, tori[5].tau_r]
    real = weier.nulls

    def corrupted(tau):
        log_nulls, a = real(tau)
        return log_nulls, a * np.where(np.isin(tau, off)[:, None], [1.0, 1.0 + 1e-9, 1.0], 1.0)

    def alone(torus):
        try:
            return critical.find_critical_points(torus)
        except TorusGreenError as exc:
            return exc

    # a lone torus reads its sum from the invariants record: empty the
    # cache, so that the alone runs sum the corrupted series, and again
    # after them, so that no corrupted record outlives the test
    monkeypatch.setattr(weier, "nulls", corrupted)
    weier._invariants_cached.cache_clear()
    try:
        single = [alone(torus) for torus in tori]
    finally:
        weier._invariants_cached.cache_clear()
    chunk = critical.find_critical_sets(tori)
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
    # torus, in the null sum's rows and in the final pass's second route
    # alike (the morse route then reads two minima), or at z0 on the
    # hexagonal one (seeds route, a saddle pair), the final pass's fourth
    # point alone
    real = green._hessian

    def flipped(a, b_r, out=np.asarray):
        h, bound = real(a, b_r, out)
        at = np.arange(np.size(h.det)) == 3
        return Hessian2(h.xx, h.xy, h.yy, np.where(at_half_periods | at, -h.det, h.det)), bound

    monkeypatch.setattr(green, "_hessian", flipped)
    with pytest.raises(CountViolation, match="the Euler count forces -1"):
        critical.find_critical_points(lattice.make_torus(tau))


@pytest.mark.parametrize("tau", [1j, complex(0.5, math.sqrt(3) / 2)], ids=["morse", "seeds"])
def test_a_half_period_sign_against_the_residual_pass_is_unconverged(tau, monkeypatch):
    # the residual pass at the half periods reads their determinants from
    # dr_dt = L2, a second route to the signs of the null sum's rows: one
    # flipped there alone fails the torus, on either route
    real = green.half_period_rows

    def flipped(tori):
        ev, failed = real(tori)
        h = ev.hessian
        det = h.det.copy()
        det[0] = -det[0]
        return dataclasses.replace(ev, hessian=Hessian2(h.xx, h.xy, h.yy, det)), failed

    monkeypatch.setattr(green, "half_period_rows", flipped)
    with pytest.raises(Unconverged, match="opposite signs outside their bounds"):
        critical.find_critical_points(lattice.make_torus(tau))


def test_a_point_off_the_critical_equation_is_unconverged(square_torus, monkeypatch):
    # the final pass reads |grad G| = |r| / (2 pi) at every point
    real = green.residual_and_jacobian

    def off(t, s, torus):
        r, *rest = real(t, s, torus)
        return r + 1e-9, *rest

    monkeypatch.setattr(green, "residual_and_jacobian", off)
    with pytest.raises(Unconverged, match="grad G"):
        critical.find_critical_points(square_torus)


def test_a_z0_off_the_root_fails_its_gradient_check(monkeypatch):
    # Newton reports a converged |r| at a point 1e-7 off the hexagonal z0:
    # the final pass, not Newton's own residual, reads |grad G| there
    T = lattice.make_torus(complex(0.5, math.sqrt(3) / 2))
    z0 = critical.find_critical_points(T).extra.coords
    _newton_ends_at(monkeypatch, z0.t + 1e-7, z0.s, 0.0)
    with pytest.raises(Unconverged, match=r"reduced-frame \|grad G\| = [0-9.]+e-0[78] above tol "
                                          r"1e-12 on the seeds route"):
        critical.find_critical_points(T)


def test_a_seed_without_a_positive_quartic_term_is_unconverged(monkeypatch):
    # a quarter turn of the Hessian at tau/2 keeps its trace and its
    # determinant, so the route and the seed's half period 1/2 stay, but
    # moves c_2 so that G_vvvv at 1/2 turns negative: eps has no real value.
    # The rows are the reduced torus's, where 1/2 and tau/2 of 0.5+0.3i
    # are (1+tau_r)/2 and tau_r/2, and G_vvvv is |lam|^4 times its -20.1
    T = lattice.make_torus(0.5 + 0.3j)
    assert T.half_period_perm[:2] == (2, 1)
    real = green.half_period_rows

    def turned(tori):
        ev, failed = real(tori)
        h = ev.hessian
        xx, xy, yy = h.xx.copy(), h.xy.copy(), h.yy.copy()
        xx[1], xy[1], yy[1] = h.yy[1], -h.xy[1], h.xx[1]
        return dataclasses.replace(ev, hessian=Hessian2(xx, xy, yy, h.det)), failed

    monkeypatch.setattr(green, "half_period_rows", turned)
    with pytest.raises(Unconverged, match=r"no pitchfork seed at half period 3: G_vvvv = -2\.326"):
        critical.find_critical_points(T)


def _newton_ends_at(monkeypatch, t, s, rn):
    def fixed(t0, s0, torus, r_stop):
        shape = np.shape(t0)
        return np.full(shape, t), np.full(shape, s), np.full(shape, rn)

    monkeypatch.setattr(critical, "damped_newton", fixed)


def test_a_seed_whose_newton_misses_is_unconverged(monkeypatch):
    # the seed, Newton and the message live on the reduced torus
    T = lattice.make_torus(0.5 + 0.3j)
    t, s, m, _ = critical._pitchfork_seeds(green.half_period_rows([T])[0], np.array([0]), T.tau_r)
    (t,), (s,), (m,) = t, s, m
    _newton_ends_at(monkeypatch, t, s, 1e-10)
    with pytest.raises(Unconverged) as info:
        critical.find_critical_points(T)
    assert str(info.value) == (
        f"Newton from the pitchfork seed (t, s) = ({t:.6f}, {s:.6f}) at half period {m + 1} "
        f"of the reduced torus tau_r = {T.tau_r} ended at |grad G| = "
        f"{1e-10 / (2 * math.pi):.3e}, above tol 1e-12 / 2, at tau = {T.tau}")


def test_a_root_at_a_half_period_is_a_count_violation(monkeypatch):
    # all three half periods are saddles, so a root there leaves 3 points
    _newton_ends_at(monkeypatch, -0.5, 0.5 + 1e-7, 0.0)
    with pytest.raises(CountViolation, match="reached half period 3, so 3 critical points"):
        critical.find_critical_points(lattice.make_torus(0.5 + 0.3j))


def test_a_degenerate_extra_point_is_a_count_violation(monkeypatch):
    # z0 must be a Min outside its det_bound; a Degenerate pair of minima
    # would pass the Euler balance, which counts it +1 like a half period.
    # The final pass's Hessian at z0, its fourth point, is flattened alone
    real = green._hessian

    def flattened(a, b_r, out=np.asarray):
        h, bound = real(a, b_r, out)
        det = np.where(np.arange(np.size(h.det)) == 3, 0.0 * h.det, h.det)
        return Hessian2(h.xx, h.xy, h.yy, det), bound

    monkeypatch.setattr(green, "_hessian", flattened)
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
    return critical.compare_half_periods(critical.find_critical_points(T))


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


def test_a_final_pass_off_the_null_sum_is_an_inconsistent_comparison(capsys, monkeypatch):
    # G - C of the final pass at the half period tau_r/2, moved by 1e-6,
    # disagrees with the null sum's closed form in two of the three
    # differences; the critical command exits 3 with the typed error.
    # Only the final pass reads G - C
    torus = lattice.make_torus(0.13 + 0.92j)
    real = green.residual_and_jacobian

    def off(t, s, on):
        r, l2, l3, value = real(t, s, on)
        return r, l2, l3, value + 1e-6 * ((np.asarray(t) == 0.0) & (np.asarray(s) == 0.5))

    monkeypatch.setattr(green, "residual_and_jacobian", off)
    with pytest.raises(InconsistentComparison, match="1.000e-06 apart, above TIE_TOL"):
        critical.find_critical_points(torus)
    assert cli.run(["critical", "--tau=0.13+0.92i"]) == 3
    assert "InconsistentComparison" in capsys.readouterr().err


def _sign_with_tie(x, tol):
    return 0 if abs(x) <= tol else (1 if x > 0 else -1)


@pytest.mark.parametrize("tau", [T.tau for T in RANDOM_TORI] + [
    0.5 + 5j, 0.5 + 8j, 200j,
    # the critical lines of scripts/cli_snapshot.py
    1j, complex(0.5, math.sqrt(3) / 2), 0.5 + 0.3j, 0.5 + 0.5j, 0.5 + 0.8j, 0.13 + 0.92j,
    0.3333333333333333 + 0.003j, 0.089j, 0.5 + 0.7047615813326655j,
    0.17668935183106604 + 2.3164145156627625e-07j])
def test_the_ranking_is_the_order_of_abs_wp_at_the_half_periods(tau):
    # e_i + e_j + e_k = 0 and Jacobi's gaps |e_i - e_k| = pi^2 |theta|^4
    # make the order of G at the half periods the order of |wp| there, a
    # third route to the ranking; ties within TIE_TOL for G and within
    # TIE_TOL max(1, max |e_k|) for |e_k| decide nothing, and a tie on one
    # route only is allowed up to 10 TIE_TOL in G
    T = lattice.make_torus(tau)
    g = _compare(T).values
    inv = weier.invariants(T)
    m = (abs(inv.e1), abs(inv.e2), abs(inv.e3))
    scale = max(m)
    for i, j in ((0, 2), (1, 2), (0, 1)):
        direct = _sign_with_tie(g[i] - g[j], critical.TIE_TOL)
        by_wp = _sign_with_tie(m[i] - m[j], critical.TIE_TOL * max(1.0, scale))
        assert direct == by_wp or 0 in (direct, by_wp), (tau, i, j)
        assert (direct == 0) == (by_wp == 0) or abs(g[i] - g[j]) <= 10 * critical.TIE_TOL, \
            (tau, i, j)


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
    cmpr = critical.compare_half_periods(cs)
    assert calls == []
    assert cmpr.values == tuple(p.g_rel for p in cs.points[:3])


@pytest.mark.parametrize("tau, route, budget", [
    # the final pass alone: the half periods are the null sum's closed
    # form (2 passes while a pass at the half periods gave them, 3 while the
    # invariants summed the half periods again)
    ("i", "morse", 1),
    # plus 4 Newton passes from the one seed, the final pass taking in z0
    # (13 passes over 290 points from the 55 fixed seeds, then 10, then 9
    # with the half-period pass, then 8 with a pass of its own at z0, then
    # 7 while the steps were second order)
    ("0.5+0.8660254037844386i", "seeds", 5),
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
    # z0's pass is green's own; the half periods' values are the null sum's
    # closed form, a few ulps from green's pass there
    T = lattice.make_torus(0.5 + 0.75j)
    points = critical.find_critical_points(T).points
    assert points[3].g_rel == green.green_rel(points[3].z, T)
    for p in points[:3]:
        assert abs(p.g_rel - green.green_rel(p.z, T)) <= 4 * np.finfo(float).eps, p.kind


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


# near the real axis |lam| is small and the frame matrix has entries in the
# hundreds or thousands; every critical pass runs on the reduced torus, so
# tol bounds the gradient there, the half periods pass their check, and the
# seeds route reaches z0
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


def test_the_near_axis_five_point_torus_is_counted():
    # Newton in the given (t, s) stalled here at a reduced-frame |grad G| of
    # 8.7e-13, above tol / 2
    tau = 0.17668935183106604 + 2.3164145156627625e-07j
    assert critical.find_critical_points(lattice.make_torus(tau)).total_count == 5


# tori of the near-axis sweep (scripts/near_axis_sweep.py) that ended
# Unconverged while the solver worked in the given frame: Newton stalls on
# five-point tori, and half-period passes through the given frame that
# missed Jacobi's gap identities on three-point ones
@pytest.mark.parametrize("tau, count", [
    (-0.4314771846322346 + 1.770489224654953e-07j, 5),
    (0.3627189961473636 + 2.4956205296128086e-07j, 5),
    (-0.4020846990491125 + 1.4721097906027757e-07j, 5),
    (-0.37123970242648896 + 3.56951176806552e-07j, 5),
    (-0.42952437257417475 + 6.138770058331709e-07j, 5),
    (-0.20805609178402862 + 1.1253433281842959e-07j, 5),
    (0.4553312668018795 + 1.8452599221126232e-07j, 3),
    (0.016529297027556233 + 2.652669706518741e-07j, 3),
    (0.04105531248555805 + 2.848428841828458e-07j, 3),
])
def test_near_axis_tori_count_on_their_reduced_torus(tau, count):
    T = lattice.make_torus(tau)
    cs = critical.find_critical_points(T)
    assert cs.total_count == count
    assert cs.total_count == critical.find_critical_points(lattice.make_torus(T.tau_r)).total_count
