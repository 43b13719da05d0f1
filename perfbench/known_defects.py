"""Failures torusgreen 0.1.0 is known to have on the benchmark's inputs.

Every failure is counted in `failed` as measured; this table only decides
the `correct` flag.  A run is correct when each failure it saw is one of
the documented defects below, on the inputs where it is documented, so a
new failure mode or a known one spreading to new inputs turns the run
incorrect, while the fix of a known defect simply lowers `failed`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Defect:
    name: str
    workload: str
    kinds: tuple[str, ...]            # failure kinds, matched by prefix
    where: Callable[[object], bool]   # the items it is documented on


def _b(item) -> float:
    return item.tau.imag


# Measured on torusgreen 0.1.0 with these inputs; README.md gives the details.
DEFECTS: tuple[Defect, ...] = (
    # Toward the cusp on the rhombic line the half period determinants are
    # exponentially small (about 1e-19 at b = 8): float64 gets their sign
    # wrong, the Morse labels read Degenerate, genuine extras are filtered
    # out and the count comes back 3, or the sweeps give up.
    Defect("rhombic-cusp-census", "cusp",
           ("critical:count_3_expected_5", "critical:euler_characteristic",
            "critical:exit3:CountViolation", "critical:exit3:NoConvergence"),
           lambda it: it.line == "re_half" and (_b(it) < 0.07 or _b(it) > 4.1)),
    # On Re tau = 0 below b = 0.1 the null series of theta_specials runs at
    # |q| near 1 and hits its term cap: Unconverged (exit 3), a crash in
    # compare_half_periods (ZeroDivisionError), or Degenerate Morse labels.
    Defect("imaginary-axis-small-b", "cusp",
           ("critical:exit3:Unconverged", "critical:crash:ZeroDivisionError",
            "critical:euler_characteristic"),
           lambda it: it.line == "re0" and _b(it) < 0.1),
    # The compensated 64^2 residual of the 8 pi solution exceeds 1e-4 on
    # about half of the five point tori of the census distribution, not
    # only near b0, b1 and at small b.
    Defect("mfe8pi-residual-64", "field",
           ("mfe8pi:residual", "mfe8pi:mass"),
           lambda it: True),
    # The 4 pi construction fails its period integral check (exit 3) or
    # misses the residual bound for Im tau below 0.4 near Re tau = 0.
    Defect("mfe4pi-small-b", "field",
           ("mfe4pi:exit3:ConstructionInconsistent", "mfe4pi:residual",
            "mfe4pi:period_integral"),
           lambda it: _b(it) < 0.4),
)


@dataclass(frozen=True)
class Verdict:
    correct: bool
    lines: list[str]


def match(workload: str, item, kind: str) -> Defect | None:
    for d in DEFECTS:
        if d.workload == workload and kind.startswith(d.kinds) and d.where(item):
            return d
    return None


def classify(workload: str, results) -> Verdict:
    """Group the failures of a run by kind and name the defect behind each."""
    by_kind = Counter()
    examples = defaultdict(list)
    unknown = 0
    for r in results:
        for kind in r.fails:
            d = match(workload, r.item, kind)
            label = f"{kind} [{d.name if d else 'UNDOCUMENTED'}]"
            unknown += d is None
            by_kind[label] += 1
            if len(examples[label]) < 3:
                examples[label].append(repr(r.item.tau if r.item.tau is not None else r.item.region))
    lines = [f"# failure {label}: {n}x, e.g. {', '.join(examples[label])}"
             for label, n in sorted(by_kind.items())]
    return Verdict(correct=unknown == 0, lines=lines)
