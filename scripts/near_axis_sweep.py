#!/usr/bin/env python3
"""Count the critical points of tori near the real axis, by outcome.

Samples --count tori with numpy seed 5: Re tau uniform in [-1/2, 1/2) and
Im tau log-uniform in [1e-7, 0.1], where the matrix of the reduced frame
has entries in the hundreds or thousands.  All of them go through
critical.find_critical_sets, and the script prints a Markdown table with
one row per outcome (3 points, 5 points, or an error type), its number of
tori and the range of Im tau_r among them, e.g. for a CI step summary:

    python3 scripts/near_axis_sweep.py --count 3000 >> "$GITHUB_STEP_SUMMARY"
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from torusgreen import critical, lattice  # noqa: E402
from torusgreen.errors import TorusGreenError  # noqa: E402

SEED = 5
IM_RANGE = (1e-7, 0.1)
CHUNK = 1024           # tori per find_critical_sets call


def sample(count: int) -> list[complex]:
    rng = np.random.default_rng(SEED)
    re = rng.uniform(-0.5, 0.5, count)
    im = np.exp(rng.uniform(math.log(IM_RANGE[0]), math.log(IM_RANGE[1]), count))
    return (re + 1j * im).tolist()


def outcomes(taus: list[complex]) -> dict[str, list[float]]:
    """The Im tau_r of the tori of each outcome: "3 points", "5 points" or
    the name of the error type."""
    tori = [lattice.make_torus(tau) for tau in taus]
    out: dict[str, list[float]] = {}
    for lo in range(0, len(tori), CHUNK):
        chunk = tori[lo:lo + CHUNK]
        for torus, cs in zip(chunk, critical.find_critical_sets(chunk)):
            key = (type(cs).__name__ if isinstance(cs, TorusGreenError)
                   else f"{cs.total_count} points")
            out.setdefault(key, []).append(torus.tau_r.imag)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=3000, help="tori to sample (default 3000)")
    args = ap.parse_args()
    if args.count < 1:
        ap.error("--count must be at least 1")
    found = outcomes(sample(args.count))
    print(f"### Near-axis sweep: {args.count} tori, Im tau in [{IM_RANGE[0]:g}, {IM_RANGE[1]:g}]")
    print()
    print("| outcome | tori | min Im tau_r | max Im tau_r |")
    print("|---|---:|---:|---:|")
    for key in sorted(found, key=lambda k: (not k.endswith("points"), k)):
        im = found[key]
        print(f"| {key} | {len(im)} | {min(im):.4g} | {max(im):.4g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
