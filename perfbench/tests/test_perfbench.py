"""Tests of the benchmark itself: inputs, oracles and self-time accounting."""

import contextlib
import io
import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import bench_oracles as oracles  # noqa: E402
import bench_spans as spans  # noqa: E402
import bench_speed  # noqa: E402
import known_defects  # noqa: E402
from bench_workloads import BLOCK_S, WORKLOADS, blocks, blocks_per_run  # noqa: E402

HEX = complex(0.5, math.sqrt(3.0) / 2.0)


def _first_blocks(workload, seed, n=2):
    gen = blocks(workload, seed)
    return [next(gen) for _ in range(n)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_on_the_seed_only(workload):
    assert _first_blocks(workload, 7) == _first_blocks(workload, 7)
    assert _first_blocks(workload, 7) != _first_blocks(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_size_depends_on_the_seconds_only(workload):
    # a fixed number of whole blocks, so attempted and failed repeat exactly
    assert blocks_per_run(workload, 0.01) == 1
    assert blocks_per_run(workload, 10 * BLOCK_S[workload]) == 10


def test_census_block_covers_the_special_lines():
    block = _first_blocks("census", 3, 1)[0]
    lines = [it.line for it in block]
    assert lines.count("re_half") == 2 and lines.count("circle") == 2
    for it in block:
        assert 0.3 <= it.tau.imag <= 2.5 and -0.5 <= it.tau.real <= 0.5
        assert it.calls[0][1].startswith("--tau=")


def _cli_doc(*argv):
    from torusgreen import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(argv)) == 0
    return json.loads(out.getvalue())


def test_thresholds_satisfy_the_duality():
    b0, b1 = oracles.rhombic_thresholds()
    assert 0.34 < b0 < 0.36 and 0.70 < b1 < 0.72
    assert abs(b0 * b1 - 0.25) < 1e-12


@pytest.mark.parametrize("tau, count", [(1j, 3), (HEX, 5)])
def test_oracles_agree_on_square_and_hex(tau, count):
    thresholds = oracles.rhombic_thresholds()
    assert oracles.morse_count(tau) == count
    assert oracles.expected_count(tau, thresholds) == count
    doc = _cli_doc("critical", f"--tau={tau.real!r}+{tau.imag!r}i")
    assert oracles.check_critical(doc, tau, count) == []
    assert oracles.check_critical(doc, tau, 8 - count) == [f"count_{count}_expected_{8 - count}"]


def test_kronecker_constant_on_the_square_torus():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    eta_i = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    assert abs(oracles.kronecker_constant(1j) - math.log(eta_i) / (2.0 * math.pi)) < 1e-15


def _span(sid, start, end, parent=None, name="x"):
    return spans.Span(sid, name, start, end, parent, 0, 1)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, 0),      # two children overlapping in time, as from
        _span(2, 2.0, 5.0, 0),      # two worker threads
        _span(3, 6.0, 7.0, 0),
        _span(4, 2.0, 2.5, 1),      # grandchild: counts against 1, not 0
        _span(5, 9.5, 12.0, 0),     # clipped to the parent's end
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert own[1] == pytest.approx(1.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_worker_thread_spans_hang_under_the_main_thread_span():
    tracer = spans.Tracer()
    leaf = tracer.span_wrapper(lambda x: threading.get_ident(), "leaf", spans._size)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, [[1, 2, 3]] * 4))

    root = tracer.span_wrapper(fan_out, "root", spans._one)
    root()
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
    (top,) = by_name["root"]
    assert top.parent is None
    assert all(sp.parent == top.sid and sp.points == 3 for sp in by_name["leaf"])
    assert all(sp.thread != top.thread for sp in by_name["leaf"])


def test_instrument_restores_the_package():
    from torusgreen import green, theta, weier

    originals = (theta._eval, weier._eval, green.residual_and_jacobian)
    tracer = spans.Tracer()
    with spans.instrument(tracer) as caches:
        assert theta._eval is not originals[0]
        _cli_doc("critical", "--tau=0.1+1.1i")
    assert (theta._eval, weier._eval, green.residual_and_jacobian) == originals
    names = {sp.name for sp in tracer.spans}
    assert {"cli.run", "critical.find_critical_points", "theta._eval",
            "green.residual_and_jacobian"} <= names
    assert tracer.counts()["lattice.wrap_unit.calls"] > 0
    assert caches["weier.invariants"][1] >= 1


def test_an_undocumented_failure_makes_the_run_incorrect():
    item = SimpleNamespace(tau=complex(0.5, 5.0), line="re_half", region=None)
    known = SimpleNamespace(item=item, fails=["critical:count_3_expected_5"])
    assert known_defects.classify("cusp", [known]).correct
    assert not known_defects.classify("census", [known]).correct
    other = SimpleNamespace(item=item, fails=["critical:gradient"])
    assert not known_defects.classify("cusp", [known, other]).correct


def test_speed_factor_uses_the_local_probe_median():
    log = bench_speed.SpeedLog()
    ref = bench_speed.REFERENCE_S
    for t, slow in enumerate([1, 1, 1, 1, 2, 2, 2, 2, 2]):
        log.add(float(t), ref * slow)
    assert log.factor(0.5, 1.0) == pytest.approx(1.0)      # probes at 0, 1, 2 are quick
    assert log.factor(6.0, 6.5) == pytest.approx(0.5)      # the machine ran at half speed
    assert log.factor(20.0, 21.0) == pytest.approx(0.5)    # past the end: nearest three


def test_tracer_loses_nothing_under_many_threads():
    tracer = spans.Tracer()
    leaf = tracer.span_wrapper(lambda x: x, "leaf", spans._one)
    tick = tracer.counter_wrapper(lambda x: x, "tick", spans._one)

    def work():
        for i in range(500):
            tick(leaf(i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work) for _ in range(16)]
            for fut in futures:
                fut.result(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert len(tracer.spans) == len({sp.sid for sp in tracer.spans}) == 16 * 500
    assert tracer.counts()["tick"] == 16 * 500
