"""The scripts under scripts/ run against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ("reproduce_headline_numbers.py", "--quick"),
], ids=lambda argv: argv[0])
def test_script_exits_0(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_kernel_timing_prints_one_row_per_batch_size():
    # the kernel's table, a row per batch size and reader kind with the
    # minor page faults per 1024 points last, then the null sum's at 1 and
    # at 1024 moduli, then 5120 plain points beside 1024 points with four
    # neighbour rows each, for the value and for the value and L1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "kernel_timing.py"), "--reps", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    kernel, nulls, stencil = ([line.split("|")[1:-1] for line in table.splitlines()
                               if line.startswith("| ") and line[2].isdigit()]
                              for table in proc.stdout.split("###")[1:])
    assert [(int(row[0]), row[1].strip()) for row in kernel] == [
        (n, reads) for n in (1, 3, 14, 192, 1024, 4096) for reads in ("value", "value, L1", "full")]
    assert [int(row[0]) for row in nulls] == [1, 1024]
    assert all(len(row) == 7 for row in kernel) and all(len(row) == 3 for row in nulls)
    assert all(float(cell) > 0.0 for row in kernel for cell in row[2:6])
    assert all(float(row[6]) >= 0.0 for row in kernel)
    assert all(float(cell) > 0.0 for row in nulls for cell in row[1:])
    assert [(int(row[0]), row[1].strip(), row[2].strip()) for row in stencil] == [
        (5120, points, reads) for reads in ("value", "value, L1")
        for points in ("5120 plain", "1024 + 4 neighbours each")]
    assert all(float(cell) > 0.0 for row in stencil for cell in row[3:])


def test_stage_timing_prints_one_row_per_stage():
    # a row per stage of the scan and of the critical call, then the total
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "stage_timing.py"), "--reps", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("|")[1:-1] for line in proc.stdout.splitlines()
            if line.startswith("| ") and not line.startswith("| stage")]
    assert [row[0].strip() for row in rows] == [
        "null sum", "pitchfork seeds", "Newton", "final pass", "finishing", "flip edges", "JSON",
        "rest", "total"]
    assert all(len(row) == 6 for row in rows)
    # the scan makes every stage; the critical call has no flip edges
    assert all(float(row[1]) > 0.0 for row in rows)
    assert [float(row[4]) > 0.0 for row in rows] == [True] * 5 + [False] + [True] * 3
    assert rows[-1][3].strip() == rows[-1][5].strip() == "100.0%"


def test_pass_counts_prints_one_row_per_call():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "pass_counts.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("| `")]
    assert len(rows) == 14
    # the square torus takes the morse route: the null sum writes the half
    # periods in closed form, the final pass is the one pass, and the
    # ranking reads the same sum from the invariants record (2 passes while
    # a pass at the half periods gave them, 3 while the invariants summed
    # them again; 2 null sums while the ranking summed its own)
    assert rows[0] == "| `critical --tau=i` | 0 | 1 | 3 | 1 | 1 |"
    # the seeds route adds Newton from one pitchfork seed, and the final
    # pass takes in z0: 5 passes on the hexagonal torus (13 over 290 points
    # from the 55 fixed seeds, then 10, then 9 with the half-period pass,
    # then 8 with a pass of its own at z0, then 7 with second-order steps),
    # 5 at 0.3+0.8i, whose second trial ends at |r| = 4.7e-15, just above the
    # polish target 3.1e-15
    assert rows[1] == "| `critical --tau=0.5+0.8660254037844386i` | 0 | 5 | 8 | 1 | 1 |"
    assert rows[2] == "| `critical --tau=0.3+0.8i` | 0 | 5 | 8 | 1 | 1 |"
    # near the cusp and at the degenerate torus of b1 the signs decide as
    # well (0.0608i made 8 passes with the census's 24x24 grid, then 3, then 2)
    assert rows[3] == "| `critical --tau=0.0608i` | 0 | 1 | 3 | 1 | 1 |"
    assert rows[4] == "| `critical --tau=0.5+0.7047615813326655i` | 0 | 1 | 3 | 1 | 1 |"
    # at the rhombic cusp, where the multi-start grid's 699 Newton passes
    # ended in CountViolation (exit 3), then 9 passes, then 8, then 7, then
    # 6 with second-order steps
    assert rows[5] == "| `critical --tau=0.5+5i` | 0 | 5 | 8 | 1 | 1 |"
    # a five-point torus near the real axis, whose Newton in the given
    # frame's (t, s) stalled (exit 3); on its reduced torus, 5 passes (7
    # while z0 had a pass of its own, 6 with second-order steps)
    assert rows[6] == ("| `critical --tau=0.17668935183106604+2.3164145156627625e-07i` "
                       "| 0 | 5 | 8 | 1 | 1 |")
    # the scan's 64 cells and its flip edges' 14 midpoints each take one
    # null sum for their half periods (10 passes over 492 points while a
    # pass at the half periods did, 8 over 258 while z0 had a pass of its
    # own, 7 over 248 with second-order steps)
    assert rows[7] == "| `scan --region=0.0,0.1,0.5,2.0 --grid=8x8` | 0 | 5 | 237 | 2 | 78 |"
    # criterion 7's scan: two chunks of cells, each with its Newton run and
    # final pass (14 passes over 6250 points with second-order steps)
    assert rows[8] == "| `scan --region=0.0,0.1,0.5,2.0 --grid=40x40` | 0 | 10 | 6002 | 3 | 1739 |"
    # the 4 pi construction (1 pass: its period path and probes together,
    # after the doubled torus's null sum; 5 while the path's three segments,
    # the probes and the invariants each had a pass) and verify_solution's 32
    # rows in 2 blocks of 1 call: u on every grid point with the stencil's
    # neighbour rows (the period shifts come off the centres' sigma and zeta
    # values by Legendre's law, no series point), whose log|theta1| rows give
    # the compensated field v in closed form.  The neighbours are weighted
    # sums over their centres' terms, 4 rows a point, no series points of
    # their own (5 passes over 3390 points while a green_rel call on the
    # kept points with the neighbour rows gave G; 7 passes over 7438 points
    # while the excluded points and the period shifts had a plain u call a
    # block; 5 passes over 19582 points while the neighbours were points; 70
    # passes by rows, 17 in blocks of 4 rows)
    assert rows[9] == "| `mfe --rho=4pi --tau=i --grid=32x32` | 0 | 3 | 2378 + 8192 | 1 | 1 |"
    # a torus outside the fundamental domain, built and checked on its
    # reduced torus: the same construction pass and 4 blocks of 1 at 64^2
    # (9 passes over 12598 points while green_rel gave G; 13 passes over
    # 28902 points while the period shifts were points of a
    # pass; 9 passes over 77814 points while the neighbours were points; 76797
    # points on the given cell, whose exclusion disks cut more; 33 passes
    # in blocks of 4 rows)
    assert rows[10] == "| `mfe --rho=4pi --tau=-0.31+0.42i` | 0 | 5 | 8522 + 32768 | 1 | 1 |"
    # the critical set's 5 passes, one at z0 and 2 z0 and 2 blocks of 1
    # (10 passes over 4096 points while green_rel gave G; 12 passes over
    # 10180 points while the period shifts were points of a
    # pass; 10 passes over 26404 points while the neighbours were points; 29
    # while the map took z0 as an argument, checked its residual, polished
    # it by Newton and summed sigma(2 z0) alone; 25 in blocks of 4 rows; 13
    # while the critical set had a pass of its own at z0; 12 over 26406
    # points while Newton's steps were second order); the map's invariants
    # are the critical set's null sum (2 sums while the half-period rows
    # summed their own)
    assert rows[11] == ("| `mfe --rho=8pi --tau=0.5+0.8660254037844386i --grid=32x32` "
                       "| 0 | 8 | 3082 + 12288 | 1 | 1 |")
    # Newton from b = 1/2 to both thresholds, one null sum a step and no
    # pass (107 passes by bracket and bisection, then one pass a step); one
    # null sum at b = 0.7 and one at b = 1/2 for the functional equation
    # (5 passes and 2 real series calls, then 2 passes)
    assert rows[12].startswith("| `thresholds` | 0 | 0 | 0 | ")
    assert int(rows[12].split("|")[5]) <= 16
    assert rows[13] == "| `inequalities --b=0.7` | 0 | 0 | 0 | 2 | 2 |"
    assert all(row.split("|")[2].strip() == "0" for row in rows)


def test_near_axis_sweep_prints_one_row_per_outcome():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "near_axis_sweep.py"),
                           "--count", "200"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("|")[1:-1] for line in proc.stdout.splitlines() if line.startswith("| ")]
    rows = {row[0].strip(): [float(x) for x in row[1:]] for row in rows if row[1].strip().isdigit()}
    assert sum(n for n, _, _ in rows.values()) == 200
    assert {"3 points", "5 points"} <= set(rows)
    # what fails sits far up the cusp, where the half-period determinants
    # underflow float64 (from Im tau_r of about 237)
    assert all(low >= 200.0 for key, (_, low, _) in rows.items() if not key.endswith("points"))


def _snapshot_diff(tmp_path, old, new):
    paths = []
    for name, text in (("old.jsonl", old), ("new.jsonl", new)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths.append(str(tmp_path / name))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "snapshot_diff.py"), *paths],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)


def test_snapshot_diff_is_silent_on_identical_files(tmp_path):
    line = '{"command":"mfe","results":{"total_mass":2.5e+01,"ok":true}}\n'
    proc = _snapshot_diff(tmp_path, line, line)
    assert (proc.returncode, proc.stdout) == (0, "")


def test_snapshot_diff_names_a_changed_float_and_a_missing_line(tmp_path):
    old = ('{"results":{"points":[{"t":5.0e-01}],"count":3}}\n'
           '{"results":{"count":3}}\n')
    new = '{"results":{"points":[{"t":5.0000000000000011e-01}],"count":3}}\n'
    proc = _snapshot_diff(tmp_path, old, new)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[0] == "line 1 critical --tau=i"
    assert lines[1] == "  results.points[0].t: 0.5 -> 0.5000000000000001 (change 1.11e-16)"
    assert lines[2] == ("line 2 critical --tau=0.5+0.8660254037844386i: "
                        f"only in {tmp_path / 'old.jsonl'}")
