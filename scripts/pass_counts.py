#!/usr/bin/env python3
"""Count the theta series passes and null sums of a fixed list of CLI calls.

Every theta series pass goes through theta._eval, and every sum of the
theta-null series (the half-period constants and rows) through
theta.nulls; weier binds both by import, so wrapping both bindings of
each counts the passes and the points they sum, the neighbour rows they
add (a point times its offsets, each a weighted sum over the terms of
its point's series), and the null sums and the moduli they sum at.  Each call runs in-process with the invariants
cache emptied first, so the counts depend on the code alone, never on
the machine or the order of the calls.  Prints a Markdown table, e.g.
for a CI step summary:

    python3 scripts/pass_counts.py >> "$GITHUB_STEP_SUMMARY"

Exits 1 when a call exits non-zero.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from torusgreen import cli, theta, weier  # noqa: E402

CALLS = (
    ("critical", "--tau=i"),                          # morse route
    ("critical", "--tau=0.5+0.8660254037844386i"),    # seeds route
    ("critical", "--tau=0.3+0.8i"),
    ("critical", "--tau=0.0608i"),                    # morse route, near the cusp
    ("critical", "--tau=0.5+0.7047615813326655i"),            # morse route, degenerate at b1
    ("critical", "--tau=0.5+5i"),                     # seeds route, at the rhombic cusp
    ("critical", "--tau=0.17668935183106604+2.3164145156627625e-07i"),  # seeds, near the axis
    ("scan", "--region=0.0,0.1,0.5,2.0", "--grid=8x8"),
    ("scan", "--region=0.0,0.1,0.5,2.0", "--grid=40x40"),  # criterion 7
    ("mfe", "--rho=4pi", "--tau=i", "--grid=32x32"),
    ("mfe", "--rho=4pi", "--tau=-0.31+0.42i"),       # built and checked on its reduced torus
    ("mfe", "--rho=8pi", "--tau=0.5+0.8660254037844386i", "--grid=32x32"),
    ("thresholds",),                                  # Newton from b = 1/2, both roots
    ("inequalities", "--b=0.7"),
)


def count_passes(argv) -> tuple[int, int, int, int, int, int]:
    """(exit code, theta passes, points summed, neighbour rows, null sums,
    moduli summed) of one CLI call."""
    sizes = {"_eval": [], "nulls": []}
    rows = []
    originals = [(module, name, getattr(module, name))
                 for module in (theta, weier) for name in sizes]

    def counting(real, name):
        def wrapper(*args, **kwargs):
            sizes[name].append(np.size(args[0]))
            offsets = args[3] if len(args) > 3 else kwargs.get("offsets")
            rows.append(0 if offsets is None else np.size(args[0]) * np.size(offsets))
            return real(*args, **kwargs)
        return wrapper

    weier._invariants_cached.cache_clear()
    for module, name, real in originals:
        setattr(module, name, counting(real, name))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(argv))
    finally:
        for module, name, real in originals:
            setattr(module, name, real)
    return (code, len(sizes["_eval"]), sum(sizes["_eval"]), sum(rows),
            len(sizes["nulls"]), sum(sizes["nulls"]))


def main() -> int:
    print("### Theta series passes and null sums per CLI call")
    print()
    print("| call | exit | passes | points (+ neighbour rows) | null sums | moduli |")
    print("|---|---:|---:|---:|---:|---:|")
    worst = 0
    for argv in CALLS:
        code, passes, points, rows, *nulls = count_passes(argv)
        worst = max(worst, code)
        points = f"{points} + {rows}" if rows else str(points)
        print(f"| `{' '.join(argv)}` | {code} | {passes} | {points} | "
              + " | ".join(map(str, nulls)) + " |")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
