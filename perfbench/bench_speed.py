"""Machine speed probe, to take shared-host slowdowns out of the timings.

On a shared two-core host the whole machine runs 30-50 % slower for
stretches of 5 s to a few minutes (other tenants on the same cores), which
moves every wall and CPU time by more than the regressions the benchmark
has to see.  A run therefore times a fixed probe every PROBE_EVERY_S, and
scales each item's times by REFERENCE_S over the probe's local median: the
reported times are what the item would take on a machine where the probe
takes REFERENCE_S.  The probe never calls torusgreen, so no change to the
package can move it.  Its work mirrors the package's mix: a vectorised
complex exponential sum like one theta series batch, then a sort and an
interpreter loop like the critical point dedup.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# the probe's median on a quiet 2-core x86-64 host (Python 3.11, numpy 2.4)
REFERENCE_S = 0.0044
# the set-up probe's first import of seven standard library modules
# (setup_probe.py), estimated for the same quiet host: imports do not slow
# down in step with compute when the host is busy, so the import part of
# set-up is scaled by this probe and its first item by the compute probe
IMPORT_REFERENCE_S = 0.025
PROBE_EVERY_S = 0.25
# after a long item, catch up on the probes it held back, up to this many,
# so that items of seconds (scan calls) are scaled by a median of several
# probes and not by one or two
MAX_CATCH_UP = 8
WINDOW_S = 1.0
MIN_SAMPLES = 3

_Z = np.linspace(-0.5, 0.5, 2048) * (0.3 + 0.7j)
_N = np.arange(-8, 8)


def probe() -> float:
    """Wall seconds of the fixed probe work."""
    start = time.perf_counter()
    w = 2j * np.pi * _N
    for _ in range(3):
        np.exp((1j * np.pi * (0.2 + 0.9j)) * _N * _N + w * _Z[:, None]).sum(axis=-1)
    pairs = sorted((i * 0.37 % 1.0, i * 0.61 % 1.0) for i in range(1500))
    out = []
    for t, s in pairs:
        k = math.floor(t - s + 0.5)
        out.append((t - s - k, k))
    return time.perf_counter() - start


class SpeedLog:
    """Probe samples over a run, and the scale factor for any moment in it."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def maybe_probe(self) -> None:
        now = time.perf_counter()
        due = 1 if not self.times else int((now - self.times[-1]) / PROBE_EVERY_S)
        for _ in range(min(due, MAX_CATCH_UP)):
            self.add(time.perf_counter(), probe())

    def add(self, at: float, seconds: float) -> None:
        self.times.append(at)
        self.values.append(seconds)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe within WINDOW_S of [start, end],
        or of the MIN_SAMPLES probes nearest to its middle if fewer."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.values[lo:hi]
        if len(near) < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            near = [self.values[i] for i in order[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.median(near)
