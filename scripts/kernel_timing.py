#!/usr/bin/env python3
"""Time the theta series kernel, theta._eval, and the theta-null sum.

For each batch size N and each reader kind (reads: LOG_MAG, the value
log|theta1| alone; LOG_MAG_L1, the value and L1; ALL, every output) the
kernel is called on N points of one modulus and on N points that carry
one of 64 moduli each (as a moduli scan does); the null sum,
theta.nulls, on 1 modulus (a lone torus's half periods) and on 1024 (a
scan chunk's).  A rep times every cell once, with enough calls to sum at
least 1024 points, and the reps follow one another, so a cell's fastest
rep comes from the whole run rather than from one stretch of it; the
table gives that rep's mean time per call, in microseconds, and per
point or modulus, in nanoseconds.  Beside them it gives the minor page
faults of the process (resource.getrusage ru_minflt) per 1024 points,
over all reps of the kernel's cells with one modulus: faults that the
heap takes again each time the allocator has given memory back between
calls.  A third table sets 1024 points with the four neighbours of
mfe.verify_solution's stencil (offsets, 5120 values from the series of
1024 points) beside 5120 plain points, for the value and for the value
and L1.  The inputs are fixed, so two checkouts can be compared on one
host:

    python3 scripts/kernel_timing.py --reps 9
    python3 scripts/kernel_timing.py >> "$GITHUB_STEP_SUMMARY"

Prints a Markdown table.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from torusgreen import lattice, theta  # noqa: E402

SIZES = (1, 3, 14, 192, 1024, 4096)
READS = (("value", theta.LOG_MAG), ("value, L1", theta.LOG_MAG_L1), ("full", theta.ALL))
NULL_SIZES = (1, 1024)
# the hexagonal torus, which the package sums at as it stands
TAU = 0.5 + 0.8660254037844386j
# the stencil of mfe.verify_solution at 64^2, on 1024 points against 5120
STENCIL = np.array([1.0, -1.0, 1j, -1j]) / 4096.0
STENCIL_POINTS = 1024


def inputs(n: int):
    """n points of the canonical cell, where the Green function and the
    Weierstrass layer sum, on one modulus and each on one of 64 reduced
    moduli."""
    rng = np.random.default_rng(5)
    t, s = rng.uniform(-0.5, 0.5, (2, n))
    taus = np.array([T.tau_r for T in lattice.random_tori(64, 7)])[np.arange(n) % 64]
    return (t + s * TAU, TAU), (t + s * taus, taus)


def timed_calls(fn, *args) -> tuple[float, int]:
    """Mean seconds per call of fn over calls that sum at least 1024 points,
    and the minor page faults those calls took."""
    calls = max(1, 1024 // args[0].size)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    seconds = (time.perf_counter() - start) / calls
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=7, help="reps over all cells (default 7)")
    args = parser.parse_args(argv)
    cells = [(theta._eval, *case, reads) for n in SIZES for _, reads in READS for case in inputs(n)]
    cells += [(theta.nulls, inputs(n)[1][1]) for n in NULL_SIZES]
    stencil_reads = READS[:2]
    centres = inputs(STENCIL_POINTS)[0][0]
    cells += [cell for _, reads in stencil_reads for cell in (
        (theta._eval, inputs(STENCIL_POINTS * (1 + STENCIL.size))[0][0], TAU, reads),
        (theta._eval, centres, TAU, reads, STENCIL))]
    for fn, *case in cells:
        fn(*case)
    best = [float("inf")] * len(cells)
    faults = [0] * len(cells)
    for _ in range(args.reps):
        for k, (fn, *case) in enumerate(cells):
            seconds, taken = timed_calls(fn, *case)
            best[k] = min(best[k], seconds)
            faults[k] += taken
    print(f"### theta._eval time per call (fastest of {args.reps} reps)")
    print()
    print("| N | reads | one modulus us/call | one modulus ns/point | 64 moduli us/call "
          "| 64 moduli ns/point | minor faults per 1024 points |")
    print("|---:|---|---:|---:|---:|---:|---:|")
    rows = [(n, name) for n in SIZES for name, _ in READS]
    for k, (n, name) in enumerate(rows):
        points = args.reps * max(1, 1024 // n) * n
        cols = [f"{s * 1e6:.1f} | {s * 1e9 / n:.0f}" for s in best[2 * k:2 * k + 2]]
        print(f"| {n} | {name} | " + " | ".join(cols) + f" | {faults[2 * k] * 1024 / points:.2f} |")
    print()
    print(f"### theta.nulls time per call (fastest of {args.reps} reps)")
    print()
    print("| moduli | us/call | ns/modulus |")
    print("|---:|---:|---:|")
    for n, s in zip(NULL_SIZES, best[2 * len(rows):]):
        print(f"| {n} | {s * 1e6:.1f} | {s * 1e9 / n:.0f} |")
    print()
    print(f"### theta._eval with neighbour rows (fastest of {args.reps} reps)")
    print()
    print("| values | points | reads | us/call | ns/value |")
    print("|---:|---|---|---:|---:|")
    values = STENCIL_POINTS * (1 + STENCIL.size)
    stencil_best = iter(best[2 * len(rows) + len(NULL_SIZES):])
    for name, _ in stencil_reads:
        for points in (f"{values} plain", f"{STENCIL_POINTS} + {STENCIL.size} neighbours each"):
            s = next(stencil_best)
            print(f"| {values} | {points} | {name} | {s * 1e6:.1f} | {s * 1e9 / values:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
