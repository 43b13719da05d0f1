"""torusgreen benchmark: drive the CLI the way its users do and check every answer.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Workloads are census, scan, field and cusp (see README.md next to this
file), or `all` to run the four in turn.  One process, one client, closed
loop: each item is one or more `torusgreen.cli.run([...])` calls made
in-process, timed, and its captured output checked against the mpmath
oracles in bench_oracles.py.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced items and reports the per-layer metrics
from the traced ones, plus the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Exits 2 without a result when
the package source is not under ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bench_oracles as oracles
import bench_spans as spans
import known_defects
from bench_speed import IMPORT_REFERENCE_S, REFERENCE_S, SpeedLog, probe
from bench_workloads import SCAN_GRID, WORKLOADS, Item, blocks, blocks_per_run

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 5
# stop starting new items this long after the loop began, even inside a
# block, so that a run on a much slower program or host still ends inside
# its time limit; such a run prints how many items it left out
HARD_STOP_S = 130.0
# item_s_tail percentile, fixed per workload so that runs compare like with
# like; README.md gives the sample counts behind each choice
TAIL_PERCENTILE = {"census": 98, "scan": 75, "field": 90, "cusp": 75}

cli = None   # torusgreen.cli, imported from ./src by load_package
_ERROR_TYPE = re.compile(r"\((\w+)\)")


@dataclass
class ItemResult:
    """Raw CLI wall and CPU seconds of one item; scale converts them to the
    reference machine speed (bench_speed.py)."""

    item: Item
    start: float
    wall: float
    cpu: float
    fails: list[str]
    traced: bool = False
    scale: float = 1.0


@dataclass
class Run:
    workload: str
    results: list[ItemResult] = field(default_factory=list)
    speed: SpeedLog = field(default_factory=SpeedLog)
    tracer: spans.Tracer = field(default_factory=spans.Tracer)
    cache_calls: dict = field(default_factory=dict)
    skipped: int = 0   # items left out at the hard stop


def _fail_setup(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def load_package() -> None:
    """Import torusgreen from the checkout's src, never from elsewhere."""
    global cli
    src = ROOT / "src"
    if not (src / "torusgreen" / "__init__.py").is_file():
        _fail_setup(f"no torusgreen source under {src}; run from the repository root")
    os.environ.pop("TORUS_GREEN_THREADS", None)   # measure the defaults users get
    sys.path.insert(0, str(src))
    from torusgreen import cli as package_cli
    if not Path(package_cli.__file__).resolve().is_relative_to(src.resolve()):
        _fail_setup(f"torusgreen was imported from {package_cli.__file__}, not {src}")
    cli = package_cli


def call_cli(argv) -> tuple[object, str, str, float, float]:
    """One in-process CLI call: (exit code, stdout, stderr, wall s, cpu s).

    An exception escaping cli.run is the program crashing; it becomes the
    exit code "crash:<type>" so the item fails and the run goes on.
    """
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except Exception as exc:  # noqa: BLE001 - the item records the crash
        code = f"crash:{type(exc).__name__}"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0, time.process_time() - c0


def _exit_kind(code, err: str) -> str:
    if isinstance(code, str):
        return code
    m = _ERROR_TYPE.search(err)
    return f"exit{code}:{m.group(1) if m else 'unknown'}"


def check(item: Item, calls, thresholds) -> list[str]:
    """Failure kinds of one item from its (argv, code, stdout, stderr) calls."""
    fails = []
    for argv, code, out, err in calls:
        cmd = argv[0] if argv[0] != "mfe" else "mfe" + argv[1].split("=")[1]
        if cmd == "mfe8pi" and oracles.expected_count(item.tau, thresholds) == 3:
            # no solution exists on a three point torus: refusing is correct
            if not (code == 2 and "NoExtraCriticalPoint" in err):
                fails.append(f"{cmd}:" + ("solution_on_3_point_torus" if code == 0
                                          else _exit_kind(code, err)))
            continue
        if code != 0:
            fails.append(f"{cmd}:{_exit_kind(code, err)}")
            continue
        doc = json.loads(out)
        if cmd == "critical":
            kinds = oracles.check_critical(doc, item.tau, oracles.expected_count(item.tau, thresholds))
        elif cmd == "scan":
            kinds = oracles.check_scan(doc, item.region, *SCAN_GRID)
        elif cmd == "eval":
            kinds = oracles.check_eval(doc, item.tau)
        else:
            kinds = oracles.check_mfe(doc, (8.0 if cmd == "mfe8pi" else 4.0) * math.pi)
        fails.extend(f"{cmd}:{k}" for k in kinds)
    return fails


def run_item(item: Item, thresholds) -> tuple[float, float, list[str]]:
    wall = cpu = 0.0
    calls = []
    for argv in item.calls:
        code, out, err, w, c = call_cli(argv)
        wall += w
        cpu += c
        calls.append((argv, code, out, err))
    return wall, cpu, check(item, calls, thresholds)


def measure(workload: str, seed: int, seconds: float, traced: bool, thresholds) -> Run:
    """The closed loop over the run's fixed number of blocks.

    With traced set, every second item runs inside spans.instrument.
    """
    run = Run(workload)
    hard_stop = time.perf_counter() + HARD_STOP_S
    k = 0
    for block in itertools.islice(blocks(workload, seed), blocks_per_run(workload, seconds)):
        for item in block:
            if time.perf_counter() > hard_stop:
                run.skipped += 1
                continue
            run.speed.maybe_probe()
            on = traced and k % 2 == 1
            k += 1
            item_start = time.perf_counter()
            if on:
                with spans.instrument(run.tracer) as cache_delta:
                    wall, cpu, fails = run_item(item, thresholds)
                for name, (hits, misses) in cache_delta.items():
                    h, m = run.cache_calls.get(name, (0, 0))
                    run.cache_calls[name] = (h + hits, m + misses)
            else:
                wall, cpu, fails = run_item(item, thresholds)
            run.results.append(ItemResult(item, item_start, wall, cpu, fails, on))
    run.speed.add(time.perf_counter(), probe())
    for r in run.results:
        r.scale = run.speed.factor(r.start, r.start + r.wall)
    return run


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median cold start over fresh interpreters (import plus first item),
    at reference machine speed and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            _fail_setup(f"set-up probe failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(out["import_s"] + out["item_s"])
        scaled.append(out["import_s"] * IMPORT_REFERENCE_S / out["import_probe_s"]
                      + out["item_s"] * REFERENCE_S / out["probe_s"])
    return statistics.median(scaled), statistics.median(raw)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


TIMING_UNITS = {"items_per_s": "1/s", "item_s_p50": "s", "item_s_tail": "s", "cpu_s_per_item": "s"}


def _timings(res: list[ItemResult], pct: float, scaled: bool) -> dict[str, float]:
    scale = [r.scale if scaled else 1.0 for r in res]
    size = sum(r.item.size for r in res)
    per_item = np.array([r.wall * f / r.item.size for r, f in zip(res, scale)])
    return {
        "items_per_s": size / sum(r.wall * f for r, f in zip(res, scale)),
        "item_s_p50": float(np.median(per_item)),
        "item_s_tail": float(np.percentile(per_item, pct)),
        "cpu_s_per_item": sum(r.cpu * f for r, f in zip(res, scale)) / size,
    }


def end_to_end(run: Run, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    """Timings at reference machine speed, with the raw ones alongside."""
    res = [r for r in run.results if not r.traced]
    pct = TAIL_PERCENTILE[run.workload]
    scaled, raw = _timings(res, pct, True), _timings(res, pct, False)
    scaled["setup_s"], raw["setup_s"] = setup
    metrics = {"setup_s": _metric(setup[0], "s")}
    metrics.update({k: _metric(scaled[k], unit) for k, unit in TIMING_UNITS.items()})
    metrics["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    size = sum(r.item.size for r in res)
    samples = "scan calls" if run.workload == "scan" else "tori"
    beyond = sum(1 for r in res if r.wall * r.scale / r.item.size > scaled["item_s_tail"])
    notes = {
        "items_per_s": f"{size} {'cells' if run.workload == 'scan' else 'tori'} in {len(res)} items",
        "item_s_p50": f"median over {len(res)} {samples}",
        "item_s_tail": f"p{pct} over {len(res)} {samples}, {beyond} beyond",
    }
    lines = []
    for name, m in metrics.items():
        raw_note = f"raw {raw[name]:.6g}; " if name in raw else ""
        lines.append(f"{name:<16} {m['value']:<14.6g} {m['unit']:<6} {raw_note}{notes.get(name, '')}")
    n_failed = sum(1 for r in res if r.fails)
    lines.append(f"{'failed_share':<16} {n_failed / len(res):<14.6g} {'share':<6} "
                 f"{n_failed} of {len(res)} items")
    probes = run.speed.values
    lines.append(f"# speed probe: median {statistics.median(probes) * 1e3:.3f} ms over "
                 f"{len(probes)} samples, reference {REFERENCE_S * 1e3:.3f} ms; timings above are "
                 f"scaled to the reference, raw ones shown beside them")
    return metrics, lines


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


# per-layer metrics read from spans: (span name, statistic), per traced item
SPAN_METRICS = (
    ("theta._eval", "calls"), ("theta._eval", "points"), ("theta._eval", "self_s"),
    ("weier.invariants", "self_s"), ("weier.sigma", "points"), ("weier.wp", "points"),
    ("mfe.verify_solution", "self_s"), ("mfe.construct", "self_s"),
    ("green.green_constant", "self_s"), ("green.green_rel", "points"),
    ("green.green_rel", "self_s"), ("green.residual_and_jacobian", "calls"),
    ("green.residual_and_jacobian", "points"), ("green.residual_and_jacobian", "self_s"),
    ("critical.find_critical_points", "self_s"), ("critical.compare_half_periods", "self_s"),
    ("moduli.scan", "self_s"), ("moduli.flip_edges", "self_s"), ("cli.run", "self_s"),
)
CACHE_METRICS = ("theta.theta_specials", "weier.invariants", "green.green_constant")


def per_layer(run: Run) -> tuple[dict, list[str]]:
    traced = [r for r in run.results if r.traced]
    plain = [r for r in run.results if not r.traced]
    n = sum(r.item.size for r in traced)
    all_spans = run.tracer.spans
    own = spans.self_times(all_spans)
    stats = {"calls": defaultdict(int), "points": defaultdict(int), "self_s": defaultdict(float)}
    for sp in all_spans:
        stats["calls"][sp.name] += 1
        stats["points"][sp.name] += sp.points
        stats["self_s"][sp.name] += own[sp.sid]
    counts = run.tracer.counts()

    def rate(rs):   # at reference machine speed, so the gap is not machine noise
        return _per(sum(r.item.size for r in rs), sum(r.wall * r.scale for r in rs))

    values = {f"{name}.{stat}": (_per(stats[stat][name], n), "s/item" if stat == "self_s" else "1/item")
              for name, stat in SPAN_METRICS}
    for name in CACHE_METRICS:
        hits, misses = run.cache_calls.get(name, (0, 0))
        values[f"{name}.miss_ratio"] = (_per(misses, hits + misses), "ratio")
    weier_self = sum(v for k, v in stats["self_s"].items() if k.startswith("weier."))
    values.update({
        "theta._eval.terms": (_per(counts.get("theta._eval.terms", 0), n), "1/item"),
        "weier.self_s": (_per(weier_self, n), "s/item"),
        "lattice.wrap_unit.calls": (_per(counts.get("lattice.wrap_unit.calls", 0), n), "1/item"),
        "critical.residual_points_per_census":
            (_per(stats["points"]["green.residual_and_jacobian"],
                  stats["calls"]["critical.find_critical_points"]), "1/census"),
        "trace.items_per_s_gap": (1.0 - _per(rate(traced), rate(plain)), "share"),
    })
    metrics = {name: _metric(v, unit) for name, (v, unit) in values.items()}
    threads = len({sp.thread for sp in all_spans})
    lines = [f"{name:<40} {m['value']:<14.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"# traced {len(traced)} of {len(run.results)} loop items ({n} items per layer "
                 f"metric), {len(all_spans)} spans on {threads} threads; items per second "
                 f"untraced {rate(plain):.4g}, traced {rate(traced):.4g}")
    return metrics, lines


def provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "torus_green_threads": "unset (package default)",
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, traced: bool, thresholds) -> dict:
    print(f"# workload={workload} seed={seed} seconds={seconds:g} trace={int(traced)}")
    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    print(f"# oracle thresholds (mpmath, b0 * b1 = 1/4): b0={thresholds[0]!r} b1={thresholds[1]!r}")
    setup = None if traced else setup_seconds(workload)
    run = measure(workload, seed, seconds, traced, thresholds)
    if traced:
        metrics, lines = per_layer(run)
    else:
        metrics, lines = end_to_end(run, setup)
    for line in lines:
        print(line)
    if run.skipped:
        print(f"# hard stop after {HARD_STOP_S:g} s: {run.skipped} items of this seed left out")
    verdict = known_defects.classify(workload, run.results)
    for line in verdict.lines:
        print(line)
    failed = sum(1 for r in run.results if r.fails)
    return {"correct": verdict.correct, "attempted": len(run.results),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    thresholds = oracles.rhombic_thresholds()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), thresholds)
               for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
