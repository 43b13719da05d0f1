#!/usr/bin/env python3
"""Time one 8x8 `scan` and one seeds-route `critical` call by stage.

Each call runs in-process through torusgreen.cli.run, with the
invariants cache emptied first, as a new torus finds it.  Wrappers
around the package's functions split its time into stages, each taking
the time spent in its functions less that of the stages they call:

- null sum: green.half_period_rows, the theta-null sum and the
  half-period rows in closed form;
- pitchfork seeds: critical._pitchfork_seeds, the seed of every seeds
  torus from its half-period rows;
- Newton: critical.damped_newton, every residual pass of the seeds;
- final pass: green.residual_and_jacobian outside Newton, the one pass
  over the half periods and z0 of every set;
- finishing: critical._solve and its readers (moduli.scan reads its
  columns off the sets, critical.find_critical_sets builds its
  CriticalSets): routes, seeds, the carry back, the Morse labels and the
  checks;
- flip edges: moduli.flip_edges, the make_torus calls of the edge
  midpoints and their one null sum, read as |det| / |lam|^4 with no
  carry back of the other rows;
- JSON: cli.canonical_json, and cli._scan_rows, which writes a scan's
  cell and edge rows;
- rest: the remainder of cli.run (argument parsing, the tori of the
  scan's grid, the half-period ranking of `critical`).

The reps follow one another, and the table gives the rep with the
smallest total: microseconds per call, per scan cell, and the share of
each stage.  The inputs are fixed, so two checkouts can be compared on
one host:

    python3 scripts/stage_timing.py --reps 50
    python3 scripts/stage_timing.py >> "$GITHUB_STEP_SUMMARY"

Prints a Markdown table.  Exits 1 when a call exits non-zero.
"""

import argparse
import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from torusgreen import cli, critical, green, moduli, weier  # noqa: E402

CALLS = (
    ("scan", "--region=0.0,0.1,0.5,2.0", "--grid=8x8"),
    ("critical", "--tau=0.5+0.8660254037844386i"),
)
CELLS = 64                         # cells of the scan
STAGES = ("null sum", "pitchfork seeds", "Newton", "final pass", "finishing", "flip edges", "JSON",
          "rest")
# (module, function, stage); the stages in OPAQUE keep the time of
# everything they call
WRAPPED = (
    (green, "half_period_rows", "null sum"),
    (critical, "_pitchfork_seeds", "pitchfork seeds"),
    (critical, "damped_newton", "Newton"),
    (green, "residual_and_jacobian", "final pass"),
    (critical, "_solve", "finishing"),
    (critical, "find_critical_sets", "finishing"),
    (moduli, "scan", "finishing"),
    (moduli, "make_torus", "rest"),
    (moduli, "flip_edges", "flip edges"),
    (cli, "canonical_json", "JSON"),
    (cli, "_scan_rows", "JSON"),
    (cli, "run", "rest"),
)
OPAQUE = {"Newton", "flip edges", "JSON"}


def timed_call(argv) -> tuple[int, dict[str, float]]:
    """(exit code, seconds per stage) of one CLI call."""
    seconds = dict.fromkeys(STAGES, 0.0)
    stack = []              # [stage, seconds of the stages it called]
    originals = [(module, name, getattr(module, name)) for module, name, _ in WRAPPED]

    def wrap(real, stage):
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] in OPAQUE:
                return real(*args, **kwargs)
            stack.append([stage, 0.0])
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                _, inner = stack.pop()
                seconds[stage] += spent - inner
                if stack:
                    stack[-1][1] += spent
        return wrapper

    for module, name, stage in WRAPPED:
        setattr(module, name, wrap(getattr(module, name), stage))
    weier._invariants_cached.cache_clear()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(argv))
    finally:
        for module, name, real in originals:
            setattr(module, name, real)
    return code, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=20, help="reps of each call (default 20)")
    args = parser.parse_args(argv)
    best = []
    worst_code = 0
    for call in CALLS:
        timed_call(call)
        reps = []
        for _ in range(args.reps):
            code, seconds = timed_call(call)
            worst_code = max(worst_code, code)
            reps.append(seconds)
        best.append(min(reps, key=lambda s: sum(s.values())))
    print(f"### Stage time per CLI call (the fastest of {args.reps} reps)")
    print()
    print(f"| stage | `{' '.join(CALLS[0])}` us | us/cell | share "
          f"| `{' '.join(CALLS[1])}` us | share |")
    print("|---|---:|---:|---:|---:|---:|")
    totals = [sum(s.values()) for s in best]
    for stage in (*STAGES, "total"):
        a, b = ((sum(s.values()) if stage == "total" else s[stage]) for s in best)
        print(f"| {stage} | {a * 1e6:.1f} | {a * 1e6 / CELLS:.2f} | {a / totals[0]:.1%} "
              f"| {b * 1e6:.1f} | {b / totals[1]:.1%} |")
    return 1 if worst_code else 0


if __name__ == "__main__":
    sys.exit(main())
