#!/usr/bin/env python3
"""Recompute the headline numbers from the library in one pass.

Prints the rhombic thresholds, the root gap ratio at the upper threshold,
the critical point census on the square and hexagonal tori, a half period
comparison sample, and the PDE residuals for both explicit solutions.
Everything is recomputed from scratch; nothing is read from disk.
"""

import argparse
import math
import time

from torusgreen import critical, lattice, mfe, moduli, selftest, weier


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="smaller verification grids (32^2 instead of 64^2)")
    args = ap.parse_args()
    grid_n = 32 if args.quick else 64
    t0 = time.perf_counter()

    section("Rhombic thresholds (tau = 1/2 + ib)")
    thr = moduli.thresholds()
    print(f"b0 = {thr.b0:.12f}   (residual {thr.residual_b0:.1e})")
    print(f"b1 = {thr.b1:.12f}   (residual {thr.residual_b1:.1e})")
    inv = weier.invariants(lattice.make_torus(complex(0.5, thr.b1)))
    print(f"|e2/e1|^2 at b1 = {abs(inv.e2 / inv.e1) ** 2:.6f}")

    section("Critical points, square torus (tau = i)")
    for p in critical.find_critical_points(lattice.make_torus(1j)).points:
        print(f"  ({p.coords.t:+.6f}, {p.coords.s:+.6f})  {p.kind.value:12s} {p.morse.value}")

    section("Critical points, hexagonal torus (tau = e^{i pi/3})")
    T_hex = lattice.make_torus(complex(0.5, math.sqrt(3) / 2))
    cs = critical.find_critical_points(T_hex)
    for p in cs.points:
        print(f"  ({p.coords.t:+.6f}, {p.coords.s:+.6f})  {p.kind.value:12s} {p.morse.value}")
    print(f"  total count (pair counted twice): {cs.total_count}")
    z0 = cs.extra.z
    print(f"  extra point z0 = {z0:.12f}")
    print(f"  |wp(z0)| = {abs(weier.wp(z0, T_hex)):.1e}, "
          f"|wp''(z0)| = {abs(weier.wp(z0, T_hex, order=2)):.1e}, "
          f"|g2| = {abs(weier.invariants(T_hex).g2):.1e}")

    section("Half period comparison (final pass against the null sum)")
    for tau in (1j, 0.5 + 0.75j, 0.5 + 0.3j, 0.13 + 0.92j):
        T = lattice.make_torus(tau)
        cmpr = critical.compare_half_periods(critical.find_critical_points(T))
        rank = " > ".join("=".join(str(i + 1) for i in grp)
                          for grp in cmpr.ranking)
        print(f"  tau = {tau}:  G ordering {rank}  "
              f"(route deviation {cmpr.max_formula_deviation:.1e})")

    section(f"Mean field equation at rho = 8 pi (hexagonal, {grid_n}^2 grid)")
    rep = mfe.verify_solution(mfe.solution_8pi(T_hex), grid_n=grid_n)
    print(f"  max |Delta u + 8 pi e^u| = {rep.max_residual:.2e}")
    print(f"  periodicity deviation    = "
          f"{max(rep.periodicity_1, rep.periodicity_tau):.2e}")
    print(f"  total mass / 8 pi        = {rep.total_mass / (8 * math.pi):.12f}")

    section(f"Mean field equation at rho = 4 pi ({grid_n}^2 grid)")
    for tau in (1j, 0.5 + 0.9j, 0.5 + 0.4j):
        T = lattice.make_torus(tau)
        sol, diag = mfe.solution_4pi(T)
        rep = mfe.verify_solution(sol, grid_n=grid_n)
        print(f"  tau = {tau}: residual {rep.max_residual:.2e}, "
              f"integral of g = {diag.period_integral:.6f}, "
              f"c' = {diag.c_prime:.6f}")

    section("Special function identity battery")
    st = selftest.run_all(n_samples=120)
    for c in st.checks:
        print(f"  {c.name:24s} max residual {c.max_residual:.2e} "
              f"(tol {c.tolerance:.0e})")

    print()
    print(f"done in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
