"""In-memory span tracing at torusgreen's module boundaries.

The package itself is not changed: `instrument` swaps the public functions
of each module for wrappers that record one span per call (name, start,
end, parent span, thread ID and the number of points handed in) and puts
the originals back on exit.  A function bound into another module by
`from x import f` is wrapped in that namespace too.  Counters that need no
timing (lattice.wrap_unit calls, theta series terms) skip the span.

Spans started on a worker thread of the program's own pools (moduli.scan,
mfe.verify_solution) with nothing open on that thread take the innermost
open span of the main thread as their parent.  A span's self time is its
duration minus the union of the intervals its children cover, so children
running in parallel are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    points: int


def _size(args, kwargs) -> int:
    return int(np.size(args[0])) if args else 0


def _one(args, kwargs) -> int:
    return 1


# (module, attribute, span name, points of the call)
SPANS = (
    ("theta", "_eval", "theta._eval", _size),
    ("weier", "_eval", "theta._eval", _size),
    ("theta", "theta_specials", "theta.theta_specials", _one),
    ("weier", "invariants", "weier.invariants", _one),
    ("weier", "zeta", "weier.zeta", _size),
    ("weier", "wp", "weier.wp", _size),
    ("weier", "sigma", "weier.sigma", _size),
    ("green", "green_rel", "green.green_rel", _size),
    ("green", "green_grad", "green.green_grad", _size),
    ("green", "green_hessian", "green.green_hessian", _size),
    ("green", "evaluate", "green.evaluate", _one),
    ("green", "residual_and_jacobian", "green.residual_and_jacobian", _size),
    ("green", "critical_residual", "green.critical_residual", _size),
    ("green", "green_constant_detail", "green.green_constant", _one),
    ("green", "green_constant", "green.green_constant", _one),
    ("critical", "find_critical_points", "critical.find_critical_points", _one),
    ("critical", "compare_half_periods", "critical.compare_half_periods", _one),
    ("moduli", "scan", "moduli.scan", _one),
    ("moduli", "flip_edges", "moduli.flip_edges", _one),
    ("mfe", "extra_branch_point", "mfe.construct", _one),
    ("mfe", "solution_8pi", "mfe.construct", _one),
    ("mfe", "solution_4pi", "mfe.construct", _one),
    ("mfe", "four_pi_diagnostics", "mfe.construct", _one),
    ("mfe", "verify_solution", "mfe.verify_solution", _one),
    ("selftest", "run_all", "selftest.run_all", _one),
    ("cli", "run", "cli.run", _one),
)


def _series_terms(args, kwargs) -> int:
    # theta._series(z0, tau, nterms) sums 2 * nterms terms per point
    return int(np.size(args[0])) * 2 * int(args[2])


# (module, attribute, counter name, amount per call)
COUNTERS = (
    ("critical", "wrap_unit", "lattice.wrap_unit.calls", _one),
    ("green", "wrap_unit", "lattice.wrap_unit.calls", _one),
    ("theta", "_series", "theta._eval.terms", _series_terms),
)

# lru caches whose hit/miss counts are read around a traced stretch
CACHES = (
    ("theta", "_specials_cached", "theta.theta_specials"),
    ("weier", "_invariants_cached", "weier.invariants"),
    ("green", "_constant_cached", "green.green_constant"),
)


class Tracer:
    """Collects spans and counters; safe to call from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._counter_cells: list[dict] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _cell(self) -> dict:
        cell = getattr(self._local, "counts", None)
        if cell is None:
            cell = self._local.counts = defaultdict(int)
            with self._lock:
                self._counter_cells.append(cell)
        return cell

    def span_wrapper(self, fn, name: str, points):
        spans, ids, clock, main = self.spans, self._ids, time.perf_counter, self._main_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent,
                                  threading.get_ident(), points(args, kwargs)))

        return wrapper

    def counter_wrapper(self, fn, name: str, amount):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._cell()[name] += amount(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        with self._lock:
            for cell in self._counter_cells:
                for key, value in cell.items():
                    total[key] += value
        return dict(total)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for lo, hi in sorted(children.get(sp.sid, ())):
            lo, hi = max(lo, reach), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.sid] = (sp.end - sp.start) - covered
    return out


def _cache_stats() -> dict[str, tuple[int, int]]:
    out = {}
    for mod, attr, name in CACHES:
        fn = getattr(importlib.import_module(f"torusgreen.{mod}"), attr, None)
        if fn is not None and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's module boundaries for the duration of the block.

    Yields a dict that, on exit, holds the (hits, misses) each lru cache
    saw inside the block.  Attributes a later version of the package no
    longer has are skipped, so their metrics read zero.
    """
    patched = []
    cache_delta: dict[str, tuple[int, int]] = {}
    before = _cache_stats()
    try:
        for table, make in ((SPANS, tracer.span_wrapper), (COUNTERS, tracer.counter_wrapper)):
            for mod, attr, name, fn_arg in table:
                module = importlib.import_module(f"torusgreen.{mod}")
                original = getattr(module, attr, None)
                if original is None:
                    continue
                patched.append((module, attr, original))
                setattr(module, attr, make(original, name, fn_arg))
        yield cache_delta
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
        after = _cache_stats()
        for name, (hits, misses) in after.items():
            h0, m0 = before.get(name, (0, 0))
            cache_delta[name] = (hits - h0, misses - m0)
