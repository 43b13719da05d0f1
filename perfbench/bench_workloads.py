"""Benchmark inputs, a pure function of (workload, seed).

Each workload is an endless sequence of blocks.  A block is a stratified
sample of the workload's input distribution in shuffled order, and a run
does whole blocks, so every run sees the whole distribution in the same
proportions and the seed only moves the points inside their strata.  This
keeps the spread between seeds small without leaving any part of the
distribution out.

How many blocks a run does depends on --seconds only, never on how fast
the host is while it runs: the same (workload, seed, seconds) always gives
the same items, so two runs of the same code attempt the same items and
fail on the same ones.

The program receives only the generated CLI arguments.  Moduli are passed
as `--tau=<re>+<im>i`: the two-token form `--tau -0.3+0.8i` is read by
argparse as an unknown option and exits 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

WORKLOADS = ("census", "scan", "field", "cusp")

IM_RANGE = (0.3, 2.5)             # census and field: log-uniform Im tau
CENSUS_STRATA = 12                # general tori per census block
SPECIAL_PER_BLOCK = 2             # census block: tori on Re = 1/2 and on |tau| = 1
FIELD_STRATA = 6                  # general tori per field block, plus one of each special
SCAN_REGION = (0.0, 0.1, 0.5, 2.0)  # criterion 7's rectangle
SCAN_GRID = (8, 8)
SCAN_CALLS = 4                    # scan calls per block
CUSP_BANDS = ((0.04, 0.1), (2.5, 6.0))  # Im tau toward the two cusps
CUSP_STRATA = 2                   # strata per band and line
FIELD_Z_MIN = 0.1                 # eval points keep this far from the lattice in (t, s)
# Nominal seconds per block: a run of --seconds s does
# round(seconds / BLOCK_S) blocks.  At --seconds 25 a run of torusgreen
# 0.1.0 takes 25-45 s on the 2-core host the benchmark was built on, set-up
# and oracle checks included; scan gets more blocks than its time would
# give because its thread pool makes its calls the noisiest.
BLOCK_S = {"census": 0.75, "scan": 6.25, "field": 4.0, "cusp": 8.0}


@dataclass(frozen=True)
class Item:
    """One unit of work: a torus (census, field, cusp) or a grid (scan).

    calls holds the CLI argument lists run for the item, in order; line is
    "re0" or "re_half" when tau lies on a line where the count is a
    theorem, "circle" on |tau| = 1, and None otherwise.
    """

    calls: tuple[tuple[str, ...], ...]
    tau: complex | None = None
    line: str | None = None
    region: tuple[float, float, float, float] | None = None

    @property
    def size(self) -> int:
        """Items in the workload's unit: grid cells for a scan, else 1."""
        return SCAN_GRID[0] * SCAN_GRID[1] if self.region is not None else 1


def fmt_complex(w: complex) -> str:
    """`a+bi` or `a-bi` for the CLI, each part at full precision."""
    sign = "-" if w.imag < 0 else "+"
    return f"{w.real!r}{sign}{abs(w.imag)!r}i"


def _log_uniform(rng, lo: float, hi: float, u0: float, u1: float) -> float:
    """A log-uniform draw restricted to the quantile stratum [u0, u1)."""
    u = rng.uniform(u0, u1)
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _strata_taus(rng, n_general: int, n_special: int) -> list[tuple[complex, str | None]]:
    """Census distribution: Re uniform in [-1/2, 1/2), Im log-uniform in
    IM_RANGE, plus n_special tori on Re = 1/2 and n_special on |tau| = 1."""
    out = []
    # Latin hypercube: one torus per Im stratum and one per Re stratum
    re_strata = rng.permutation(n_general)
    for k in range(n_general):
        b = _log_uniform(rng, *IM_RANGE, k / n_general, (k + 1) / n_general)
        a = -0.5 + rng.uniform(re_strata[k], re_strata[k] + 1) / n_general
        out.append((complex(a, b), None))
    for k in range(n_special):
        b = _log_uniform(rng, *IM_RANGE, k / n_special, (k + 1) / n_special)
        out.append((complex(0.5, b), "re_half"))
    for k in range(n_special):
        a = rng.uniform(-0.5 + k / n_special, -0.5 + (k + 1) / n_special)
        out.append((complex(a, math.sqrt(1.0 - a * a)), "circle"))
    return out


def _critical(tau: complex, line: str | None) -> Item:
    return Item(calls=(("critical", f"--tau={fmt_complex(tau)}"),), tau=tau, line=line)


def _census_block(rng) -> list[Item]:
    return [_critical(t, line) for t, line in
            _strata_taus(rng, CENSUS_STRATA, SPECIAL_PER_BLOCK)]


def _field_block(rng) -> list[Item]:
    items = []
    for tau, line in _strata_taus(rng, FIELD_STRATA, 1):
        while True:
            t, s = rng.uniform(-0.45, 0.45, size=2)
            if max(abs(t), abs(s)) >= FIELD_Z_MIN:
                break
        z = complex(t + s * tau.real, s * tau.imag)
        tau_arg = f"--tau={fmt_complex(tau)}"
        items.append(Item(
            calls=(("eval", tau_arg, f"--z={fmt_complex(z)}"),
                   ("mfe", "--rho=4pi", tau_arg),
                   ("mfe", "--rho=8pi", tau_arg)),
            tau=tau, line=line))
    return items


def _scan_block(rng) -> list[Item]:
    """SCAN_CALLS grids, each shifted by under half a cell; the vertical
    shifts are stratified because the slow low-Im rows depend on them."""
    nx, ny = SCAN_GRID
    re0, im0, re1, im1 = SCAN_REGION
    items = []
    for k in range(SCAN_CALLS):
        # at most 0.4 cells, so the rectangle stays in the upper half plane
        ox = rng.uniform(-0.4, 0.4) * (re1 - re0) / nx
        oy = (-0.4 + 0.8 * rng.uniform(k, k + 1) / SCAN_CALLS) * (im1 - im0) / ny
        region = (re0 + ox, im0 + oy, re1 + ox, im1 + oy)
        text = ",".join(repr(v) for v in region)
        items.append(Item(calls=(("scan", f"--region={text}", f"--grid={nx}x{ny}"),),
                          region=region))
    return items


def _cusp_block(rng) -> list[Item]:
    items = []
    for lo, hi in CUSP_BANDS:
        for k in range(CUSP_STRATA):
            for re, line in ((0.0, "re0"), (0.5, "re_half")):
                b = _log_uniform(rng, lo, hi, k / CUSP_STRATA, (k + 1) / CUSP_STRATA)
                items.append(_critical(complex(re, b), line))
    return items


HEX_TAU = "--tau=0.5+0.8660254037844386i"

# The first item's cold start, on a fixed input so that set-up time does not
# depend on the seed: the same commands as the workload's items.
SETUP_CALLS = {
    "census": (("critical", HEX_TAU),),
    "scan": (("scan", "--region=0.0,0.1,0.5,2.0", "--grid=2x2"),),
    "field": (("eval", HEX_TAU, "--z=0.1+0.2i"), ("mfe", "--rho=4pi", HEX_TAU),
              ("mfe", "--rho=8pi", HEX_TAU)),
    "cusp": (("critical", "--tau=0.5+3.0i"),),
}

_BLOCKS = {
    "census": _census_block,
    "scan": _scan_block,
    "field": _field_block,
    "cusp": _cusp_block,
}


def blocks_per_run(workload: str, seconds: float) -> int:
    """Blocks a run of this many seconds does: at least one."""
    return max(1, round(seconds / BLOCK_S[workload]))


def blocks(workload: str, seed: int) -> Iterator[list[Item]]:
    """The workload's blocks for this seed; the same seed, the same blocks."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = _BLOCKS[workload]
    while True:
        block = make(rng)
        order = rng.permutation(len(block))
        yield [block[i] for i in order]
