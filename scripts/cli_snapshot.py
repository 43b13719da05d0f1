#!/usr/bin/env python3
"""Run a fixed list of CLI calls in-process and write their canonical JSON.

Each call contributes one line to the output file: the document the CLI
printed, or, when the call exited non-zero, a canonical JSON object with
its argv, exit code and stderr lines.  The package is imported from the src
directory of the checkout this script sits in, so a refactor is checked
by running the script in two checkouts and diffing the files:

    python3 scripts/cli_snapshot.py before.jsonl     # in the old checkout
    python3 scripts/cli_snapshot.py after.jsonl      # in the new checkout
    diff before.jsonl after.jsonl
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from torusgreen import cli  # noqa: E402

HEX = "0.5+0.8660254037844386i"

CALLS = (
    # critical: square, hex, rhombic below b0, between b0 and b1, above b1,
    # a generic modulus, one near the cusp at 1/3, reduced by a matrix
    # with c = 3, one near the cusp at 0 with determinants of +-8.3e-12,
    # the degenerate torus at b1 (tau = 1/2 + i b1, thresholds' b1), the
    # rhombic cusp at b = 5, z0 = 1/2 + i (b/2 - 2 b e^(-pi b)), and a
    # five-point torus near the real axis, far outside the fundamental
    # domain, whose z0 Newton finds on the reduced torus
    ("critical", "--tau=i"),
    ("critical", f"--tau={HEX}"),
    ("critical", "--tau=0.5+0.3i"),
    ("critical", "--tau=0.5+0.5i"),
    ("critical", "--tau=0.5+0.8i"),
    ("critical", "--tau=0.13+0.92i"),
    ("critical", "--tau=0.3333333333333333+0.003i"),
    ("critical", "--tau=0.0890i"),
    ("critical", "--tau=0.5+0.7047615813326655i"),
    ("critical", "--tau=0.5+5i"),
    ("critical", "--tau=0.17668935183106604+2.3164145156627625e-07i"),
    ("eval", "--tau=i", "--z=0.21+0.13i"),
    ("eval", f"--tau={HEX}", "--z=0.1+0.2i"),
    ("eval", "--tau=0.5+0.8i", "--z=0.3+0.2i"),
    ("eval", "--tau=0.13+0.92i", "--z=-0.32+0.27i"),
    ("eval", "--tau=3.2+0.9i", "--z=0.3+0.2i"),
    ("scan", "--region=0,0.1,0.5,2.0", "--grid=8x8"),
    # a shifted scan with cells at Re tau < 0, and one whose smallest
    # half-period |det| * b^2 is under 1e-6
    ("scan", "--region=-0.01477138761073364,0.072105648501117,"
     "0.48522861238926634,1.972105648501117", "--grid=8x8"),
    # a scan near the cusp at 1/8 whose first two cells reduce past
    # theta.MAX_IM_TAU and fail with InvalidInput, next to two that count 3
    ("scan", "--region=0.12499,2e-6,0.12503,3e-6", "--grid=4x1"),
    ("mfe", "--rho=8pi", f"--tau={HEX}", "--grid=32x32"),
    ("mfe", "--rho=4pi", "--tau=i", "--grid=32x32"),
    # verify_solution's row blocks: tori outside the fundamental domain, the
    # default 64^2 grid and a grid of 37 rows, not a multiple of the block
    ("mfe", "--rho=4pi", "--tau=-0.31+0.42i"),
    ("mfe", "--rho=8pi", "--tau=0.5+0.3i", "--grid=37x37"),
    ("thresholds",),
    ("inequalities", "--b=0.7"),
    # small b, where the closed form reads the reduced frame's half periods
    ("inequalities", "--b=0.01"),
    # large b, where the theta3 signs are e^(-2 pi b) and decided, and the
    # theta2 curvature is not
    ("inequalities", "--b=8"),
    ("selftest", "--samples=40"),
)


def snapshot_line(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    if code == cli.EXIT_OK:
        return out.getvalue()
    return cli.canonical_json({"argv": list(argv), "exit_code": code,
                               "stderr": err.getvalue().splitlines()}) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", help="file to write, one JSON document per line")
    args = ap.parse_args()
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for argv in CALLS:
            fh.write(snapshot_line(argv))


if __name__ == "__main__":
    main()
