"""End to end acceptance checks, one test per headline claim.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
numbers (visible in the captured output when a criterion fails, and under
pytest -rA).  Tolerances are hard coded to the advertised contract, not to
what the implementation happens to achieve today.
"""

import json
import math
import time

import numpy as np

import oracles
from torusgreen import cli, critical, green, lattice, mfe, moduli, selftest, weier
from torusgreen.errors import NoExtraCriticalPoint

HEX_TAU_TEXT = "0.5+0.8660254i"
HEX_TAU = complex(0.5, 0.8660254)


def _line(n: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _run_json(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if code == 0 else None)


def test_criterion_01_square_torus_three_points(capsys):
    start = time.perf_counter()
    code, doc = _run_json(capsys, "critical", "--tau", "i")
    elapsed = time.perf_counter() - start
    T = lattice.make_torus(1j)
    grads = []
    if doc is not None:
        for p in doc["results"]["points"]:
            gx, gy = green.evaluate(complex(p["z"]["re"], p["z"]["im"]), T).grad
            grads.append(math.hypot(gx, gy))
    ok = (
        code == 0
        and doc["results"]["count"] == 3
        and len(doc["results"]["points"]) == 3
        and all(g < 1e-10 for g in grads)
        and elapsed < 1.0
    )
    assert _line(1, ok,
                 f"count={doc['results']['count']}, max |grad| = "
                 f"{max(grads):.2e}, {elapsed:.2f}s")


def test_criterion_02_hex_torus_five_points(capsys):
    start = time.perf_counter()
    code, doc = _run_json(capsys, "critical", "--tau", HEX_TAU_TEXT)
    elapsed = time.perf_counter() - start
    extra = [p for p in doc["results"]["points"] if p["kind"] == "ExtraPair"]
    ok = code == 0 and doc["results"]["count"] == 5 and len(extra) == 1
    t_ok = s_ok = min_ok = False
    wp0 = wppp = g2 = float("nan")
    if ok:
        p = extra[0]
        t_ok = abs(abs(p["t"]) - 1.0 / 3.0) < 1e-8
        s_ok = abs(abs(p["s"]) - 1.0 / 3.0) < 1e-8
        min_ok = p["morse"] == "Min"
        # the conformance clause (z0 is a zero of wp and wp'', g2 = 0) is a
        # statement about the hexagonal torus itself; the 8 digit tau above
        # shifts g2 to ~3e-6, so evaluate it at Im tau = sqrt(3)/2 exactly
        T_exact = lattice.make_torus(complex(0.5, math.sqrt(3) / 2))
        z0 = critical.find_critical_points(T_exact).extra.z
        wp0 = abs(weier.wp(z0, T_exact))
        wppp = abs(weier.wp(z0, T_exact, order=2))
        g2 = abs(weier.invariants(T_exact).g2)
    ok = ok and t_ok and s_ok and min_ok and wp0 < 1e-8 and wppp < 1e-8 \
        and g2 < 1e-8 and elapsed < 1.0
    assert _line(2, ok,
                 f"count={doc['results']['count']}, extra at "
                 f"(|t|,|s|)=(1/3,1/3)+-1e-8: {t_ok and s_ok}, Min: {min_ok}, "
                 f"|wp(z0)|={wp0:.1e}, |wp''(z0)|={wppp:.1e}, |g2|={g2:.1e}, "
                 f"{elapsed:.2f}s")


def test_criterion_03_thresholds_and_gap_ratio():
    start = time.perf_counter()
    rep = moduli.thresholds(tol=1e-12)
    inv = weier.invariants(lattice.make_torus(complex(0.5, rep.b1)))
    ratio = abs(inv.e2 / inv.e1) ** 2
    elapsed = time.perf_counter() - start
    b1_mp = oracles.mp_rhombic_b1()
    ratio_ref = float(oracles.mp_root_ratio(b1_mp))
    b1_ref = float(b1_mp)
    b0_ok = 0.34 <= rep.b0 <= 0.36
    b1_ok = 0.70 <= rep.b1 <= 0.72
    res_ok = rep.residual_b0 < 1e-10 and rep.residual_b1 < 1e-10
    b1_ref_ok = abs(rep.b1 - b1_ref) < 1e-10
    ratio_ok = abs(ratio - ratio_ref) < 1e-9 * ratio_ref
    dual_ok = abs(rep.b0 * rep.b1 - 0.25) < 1e-10
    ok = (b0_ok and b1_ok and res_ok and b1_ref_ok and ratio_ok and dual_ok
          and elapsed < 5.0)
    assert _line(3, ok,
                 f"b0={rep.b0:.12f} (in [0.34,0.36]: {b0_ok}), "
                 f"b1={rep.b1:.12f} (in [0.70,0.72]: {b1_ok}; mpmath "
                 f"{b1_ref:.12f} to 1e-10: {b1_ref_ok}), "
                 f"residuals ok: {res_ok}, b0*b1 - 1/4 = "
                 f"{rep.b0 * rep.b1 - 0.25:.1e} (1e-10: {dual_ok}), "
                 f"|e2/e1|^2 at b1 = {ratio:.10f} (mpmath {ratio_ref:.10f} "
                 f"to 1e-9 rel: {ratio_ok}), {elapsed:.2f}s")


def test_criterion_04_fundamental_inequalities():
    start = time.perf_counter()
    grid = [0.1 + 0.05 * k for k in range(59)]
    rep = moduli.verify_fundamental_inequalities(grid)
    elapsed = time.perf_counter() - start
    # the bridges hold the closed form to its second routes: the theta2
    # curvature to the real series and to the five point stencil of
    # e1 + eta1, and 4 pi times the theta3 slope and curvature to the
    # theta3 real series
    max_slope = max_t3 = 0.0
    for r in rep.rows:
        _, t2_bb = oracles.log_theta1_b_derivs(0.5, r.b)
        t3_b, t3_bb = oracles.log_theta3_b_derivs(r.b)
        max_slope = max(max_slope, abs(r.curvature_theta2 + 4.0 * math.pi * t2_bb),
                        abs(r.curvature_theta2 - oracles.slope_fd(r.b)))
        max_t3 = max(max_t3, 4.0 * math.pi * abs(r.theta3_b - t3_b),
                     4.0 * math.pi * abs(r.theta3_bb - t3_bb))
    ok = rep.ok and len(rep.rows) == 59 and max_slope <= 1e-6 \
        and max_t3 <= 1e-9 and elapsed < 5.0
    assert _line(4, ok,
                 f"{len(rep.rows)} grid points, violations={len(rep.violations)}, "
                 f"max slope bridge {max_slope:.2e} (tol 1e-6), max theta3 "
                 f"bridge {max_t3:.2e} (tol 1e-9), {elapsed:.2f}s")


def test_criterion_05_functional_equation():
    start = time.perf_counter()
    grid = [0.1 + 0.05 * k for k in range(39)]
    worst = max(moduli.functional_equation_residual(b) for b in grid)
    f_half = -moduli._rhombic(0.5)[0] / (4.0 * math.pi)
    elapsed = time.perf_counter() - start
    half_ok = abs(f_half + 0.5) < 1e-10
    ok = worst < 1e-9 and half_ok and elapsed < 2.0
    assert _line(5, ok,
                 f"max residual over b in [0.1,2.0] = {worst:.2e} (tol 1e-9), "
                 f"f(1/2) = {f_half:.12f} (-1/2 +- 1e-10: {half_ok}), "
                 f"{elapsed:.2f}s")


def test_criterion_06_three_way_comparison():
    start = time.perf_counter()
    tori = lattice.random_tori(100, seed=20260822)
    # exact tie lines: the unit circle and the rhombic line
    tori += [lattice.make_torus(t) for t in
             (1j, complex(0.5, math.sqrt(3) / 2), 0.5 + 0.75j, 0.5 + 0.4j,
              complex(math.cos(1.2), math.sin(1.2)))]
    worst_dev = 0.0
    ties_seen = 0
    for T in tori:
        cmpr = critical.compare_half_periods(critical.find_critical_points(T))
        worst_dev = max(worst_dev, cmpr.max_formula_deviation)
        ties_seen += len(cmpr.ties)
        flat = sorted(i for grp in cmpr.ranking for i in grp)
        assert flat == [0, 1, 2]
    elapsed = time.perf_counter() - start
    ok = worst_dev < 1e-9 and ties_seen >= 5 and elapsed < 10.0
    assert _line(6, ok,
                 f"{len(tori)} tori compared without route disagreement, max "
                 f"formula deviation {worst_dev:.2e}, {ties_seen} ties on the "
                 f"symmetry lines, {elapsed:.2f}s")


def test_criterion_07_moduli_scan():
    start = time.perf_counter()
    region = (0.0, 0.1, 0.5, 2.0)
    nx = ny = 40
    scan = moduli.scan(region, nx, ny)
    edges = moduli.flip_edges(scan)
    elapsed = time.perf_counter() - start
    counts = set(scan.count.tolist())
    all_ok = counts <= {3, 5}

    dx = 0.5 / nx
    dy = 1.9 / ny

    def count_of(tau):
        i = min(nx - 1, int((tau.real - 0.0) / dx))
        j = min(ny - 1, int((tau.imag - 0.1) / dy))
        return scan.count[j * nx + i]

    hex_count = count_of(complex(0.5, math.sqrt(3) / 2))
    mid_count = count_of(0.5 + 0.5j)
    thr = moduli.thresholds()
    # flips on the rightmost column, compared with the threshold heights
    right = [mid for mid, low, high in zip(edges.midpoint.tolist(), scan.tau[edges.low].tolist(),
                                           scan.tau[edges.high].tolist())
             if abs(mid.real - (0.5 - dx / 2)) < 1e-12 and abs(low.real - high.real) < 1e-12]
    near_b0 = any(abs(mid.imag - thr.b0) <= dy for mid in right)
    near_b1 = any(abs(mid.imag - thr.b1) <= dy for mid in right)
    ok = (all_ok and hex_count == 5 and mid_count == 3
          and near_b0 and near_b1 and elapsed < 120.0)
    assert _line(7, ok,
                 f"1600 cells in {elapsed:.1f}s on one core (budget 120s), "
                 f"counts seen {sorted(counts)}, hex cell count "
                 f"{hex_count}, (1+i)/2 cell count {mid_count}, "
                 f"rhombic flips within one cell of b0/b1: {near_b0}/{near_b1}")


def test_criterion_08_mfe_8pi():
    start = time.perf_counter()
    T = lattice.make_torus(HEX_TAU)
    sol = mfe.solution_8pi(T)
    rep = mfe.verify_solution(sol, grid_n=64)
    dm = mfe.developing_map_8pi(T)
    rng = np.random.default_rng(8)
    worst_f = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.4, 0.4))
        ref = oracles.contour_developing_map(z, dm.z0, dm.torus.tau, dm.torus)
        direct = oracles.developing_map_f(dm, z)
        worst_f = max(worst_f, abs(direct - ref) / max(1.0, abs(ref)))
    square_fails = False
    try:
        mfe.solution_8pi(lattice.make_torus(1j))
    except NoExtraCriticalPoint:
        square_fails = True
    elapsed = time.perf_counter() - start
    per = max(rep.periodicity_1, rep.periodicity_tau)
    ok = (rep.max_residual < 1e-4 and per < 1e-9 and worst_f < 1e-8
          and square_fails and elapsed < 10.0)
    assert _line(8, ok,
                 f"max residual {rep.max_residual:.2e} (tol 1e-4), "
                 f"periodicity {per:.2e} (tol 1e-9), contour oracle gap "
                 f"{worst_f:.2e} (tol 1e-8), square torus refusal: "
                 f"{square_fails}, {elapsed:.1f}s")


def test_criterion_09_mfe_4pi():
    start = time.perf_counter()
    details = []
    ok = True
    for tau in (1j, 0.5 + 0.9j, 0.5 + 0.4j):
        T = lattice.make_torus(tau)
        sol, diag = mfe.solution_4pi(T)
        rep = mfe.verify_solution(sol, grid_n=64)
        period_dev = min(abs(diag.period_integral - 1j * math.pi),
                         abs(diag.period_integral + 1j * math.pi))
        rng = np.random.default_rng(9)
        even_dev = 0.0
        for _ in range(8):
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.4, 0.4))
            even_dev = max(even_dev, abs(sol.evaluator(z) - sol.evaluator(-z)))
        this_ok = (period_dev < 1e-9 and abs(diag.c_prime + 1.0) < 1e-10
                   and even_dev < 1e-10 and rep.max_residual < 1e-4)
        ok = ok and this_ok
        details.append(f"tau={tau}: res {rep.max_residual:.1e}, "
                       f"int g dev {period_dev:.1e}, c' dev "
                       f"{abs(diag.c_prime + 1.0):.1e}, even {even_dev:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert _line(9, ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_10_special_function_conformance():
    start = time.perf_counter()
    rep = selftest.run_all(n_samples=200)
    elapsed = time.perf_counter() - start
    worst = {c.name: c.max_residual for c in rep.checks}
    ok = rep.ok and len(rep.checks) == 7 and elapsed < 10.0
    assert _line(10, ok,
                 f"7 identity families over 200 samples, all within module "
                 f"tolerances: {rep.ok}, worst heat equation residual "
                 f"{worst['heat_equation']:.2e}, {elapsed:.2f}s")
