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


def test_pass_counts_prints_one_row_per_call():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "pass_counts.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("| `")]
    assert len(rows) == 11
    # the square torus takes the morse route: the half periods, whose pass
    # gives the invariants too, and the residual check (3 passes while the
    # invariants summed the half periods again)
    assert rows[0] == "| `critical --tau=i` | 0 | 2 | 6 |"
    # the seeds route adds Newton from one pitchfork seed and the pass at
    # z0: 9 passes on the hexagonal torus (13 over 290 points from the 55
    # fixed seeds, then 10), 7 at 0.3+0.8i (18 over 335, then 8)
    assert rows[1] == "| `critical --tau=0.5+0.8660254037844386i` | 0 | 9 | 14 |"
    assert rows[2] == "| `critical --tau=0.3+0.8i` | 0 | 7 | 12 |"
    # near the cusp and at the degenerate torus of b1 the signs decide as
    # well (0.0608i made 8 passes with the census's 24x24 grid, then 3)
    assert rows[3] == "| `critical --tau=0.0608i` | 0 | 2 | 6 |"
    assert rows[4] == "| `critical --tau=0.5+0.7047615813326655i` | 0 | 2 | 6 |"
    # at the rhombic cusp, where the multi-start grid's 699 Newton passes
    # ended in CountViolation (exit 3), then 9 passes
    assert rows[5] == "| `critical --tau=0.5+5i` | 0 | 8 | 13 |"
    # the 4 pi construction (2 passes: the doubled torus's invariants, then
    # its period path and probes together; 5 while the path's three
    # segments and the probes each had a pass) and verify_solution's 32
    # rows in 8 blocks of one u call and one green_rel call each (70
    # passes by rows)
    assert rows[7] == "| `mfe --rho=4pi --tau=i --grid=32x32` | 0 | 18 | 19585 |"
    # the critical set's 9 passes and one at z0 and 2 z0 (29 while the map
    # took z0 as an argument, checked its residual, polished it by Newton
    # and summed sigma(2 z0) alone)
    assert rows[8] == ("| `mfe --rho=8pi --tau=0.5+0.8660254037844386i --grid=32x32` "
                       "| 0 | 26 | 26410 |")
    # Newton from b = 1/2 to both thresholds, one pass a step (107 passes
    # by bracket and bisection); one pass at b = 0.7 and one at b = 1/2 for
    # the functional equation (5 passes and 2 real series calls before)
    assert rows[9].startswith("| `thresholds` | 0 | ")
    assert int(rows[9].split("|")[3]) <= 16
    assert rows[10] == "| `inequalities --b=0.7` | 0 | 2 | 6 |"
    assert all(row.split("|")[2].strip() == "0" for row in rows)


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
