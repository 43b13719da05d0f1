#!/usr/bin/env python3
"""Scan a rectangle of moduli, classify each cell by critical point count,
and report the edges where the count flips.

Example:
    python3 scripts/run_moduli_scan.py --region 0.0 0.1 0.5 2.0 \
        --nx 40 --ny 40 --csv scan.csv
"""

import argparse
import csv
import sys
import time

from torusgreen import moduli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--region", nargs=4, type=float, required=True,
                    metavar=("RE_MIN", "IM_MIN", "RE_MAX", "IM_MAX"),
                    help="rectangle in the tau plane")
    ap.add_argument("--nx", type=int, default=20)
    ap.add_argument("--ny", type=int, default=20)
    ap.add_argument("--csv", type=str, default=None,
                    help="write per-cell rows to this file")
    args = ap.parse_args()

    t0 = time.perf_counter()
    cells = moduli.scan(tuple(args.region), args.nx, args.ny)
    edges = moduli.flip_edges(cells, args.nx, args.ny)
    elapsed = time.perf_counter() - t0

    counts, routes = {}, {}
    errors = [c for c in cells if c.error is not None]
    for c in cells:
        counts[c.count] = counts.get(c.count, 0) + 1
        if c.error is None:
            routes[c.route] = routes.get(c.route, 0) + 1
    print(f"{len(cells)} cells in {elapsed:.1f}s; counts {counts}; "
          f"routes {routes}; {len(errors)} errors")
    if errors:
        print(f"WARNING: {len(errors)} cells failed to classify", file=sys.stderr)
        for c in errors[:5]:
            print(f"  tau = {c.tau}: {c.error}", file=sys.stderr)

    print(f"{len(edges)} flip edges:")
    for e in edges:
        print(f"  {e.count_low} -> {e.count_high} near tau = "
              f"{e.midpoint.real:.4f}+{e.midpoint.imag:.4f}i  "
              f"(degenerate half period {e.degenerate_half_period}, "
              f"min |det H| = {e.min_abs_det:.3e})")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["re_tau", "im_tau", "count", "extra_t", "extra_s"])
            for c in cells:
                extra = c.extra_point
                w.writerow([f"{c.tau.real:.10f}", f"{c.tau.imag:.10f}", c.count,
                            "" if extra is None else f"{extra.t:.10f}",
                            "" if extra is None else f"{extra.s:.10f}"])
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
