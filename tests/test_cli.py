import argparse
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torusgreen import cli, critical, lattice, moduli
from torusgreen.errors import CountViolation

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- parsing


def test_parse_complex_forms():
    assert cli.parse_complex("0.5") == 0.5
    assert cli.parse_complex("i") == 1j
    assert cli.parse_complex("-i") == -1j
    assert cli.parse_complex("2i") == 2j
    assert cli.parse_complex("1e-3i") == 1e-3j
    assert cli.parse_complex("0.5+0.8660254i") == 0.5 + 0.8660254j
    assert cli.parse_complex("-0.25-1.5j") == -0.25 - 1.5j
    assert cli.parse_complex(" 1+i ") == 1 + 1j
    assert cli.parse_complex("3e2") == 300.0


def test_parse_complex_rejects_garbage():
    for bad in ("", "abc", "1+", "i5", "1 + 2i", "++2"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_complex(bad)


def test_parse_grid():
    assert cli.parse_grid("40x40") == (40, 40)
    assert cli.parse_grid("8X3") == (8, 3)
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_grid("40")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_grid("axb")


def test_parse_region():
    assert cli.parse_region("0,0.1,0.5,2") == (0.0, 0.1, 0.5, 2.0)
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_region("1,2,3")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_region("a,b,c,d")


# ------------------------------------------------------- canonical encoding


def test_canonical_json_formatting():
    txt = cli.canonical_json({
        "b": 1.5,
        "a": float("nan"),
        "c": float("inf"),
        "d": -float("inf"),
        "e": True,
        "f": 3,
        "g": None,
        "h": 1 + 2j,
        "i": [1.0, "x\"y\\z"],
    })
    assert txt == (
        '{"a":"nan","b":1.5000000000000000e+00,"c":"inf","d":"-inf",'
        '"e":true,"f":3,"g":null,"h":{"im":2.0000000000000000e+00,'
        '"re":1.0000000000000000e+00},"i":[1.0000000000000000e+00,"x\\"y\\\\z"]}'
    )


def test_canonical_json_sorts_keys_and_is_parseable():
    txt = cli.canonical_json({"z": 1, "a": {"q": 2.0, "b": [True, None]}})
    parsed = json.loads(txt)
    assert parsed == {"z": 1, "a": {"q": 2.0, "b": [True, None]}}
    assert txt.index('"a"') < txt.index('"z"')


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308,
                -1.7976931348623157e308, 0.1, 1.0]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.builds(complex, _FLOATS, _FLOATS),
    st.text(alphabet=st.sampled_from('ab"\\ \u00e9:,{}\t\n\r\b\f\x00\x1f\x7f')),
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(alphabet=st.sampled_from('zyab"\\\n\x01'), max_size=3), inner,
                        max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300)
@given(doc=_DOCUMENTS)
def test_canonical_json_matches_the_reference_serializer(doc):
    assert cli.canonical_json(doc) == oracles.canonical_json_reference(doc)


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, [1.0, {"k": (np.int64(1),)}], {"a": {2}}],
                         ids=["np.int64", "set", "nested np.int64", "nested set"])
def test_canonical_json_rejects_what_the_reference_rejects(bad):
    for serialize in (cli.canonical_json, oracles.canonical_json_reference):
        with pytest.raises(TypeError, match="cannot serialize"):
            serialize(bad)


_ERROR_TEXTS = ['InvalidInput: a "quoted" path\\to\\it',
                "Unconverged: \u00e9t\u00e9 \u7aef \U0001f600",
                "CountViolation: tab\tnewline\ncontrol\x01\x1f del\x7f", "Unconverged: "]


def _synthetic_scan(nx: int, ny: int, seed: int):
    """A Scan of random columns: counts 0, 3 and 5, taus of every size,
    extra points with -0.0 and subnormals, and the error texts above."""
    rng = np.random.default_rng(seed)
    n = nx * ny
    count = rng.choice([0, 3, 5], size=n)
    tau = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
           + 1j * 10.0 ** rng.uniform(-300, 300, n))
    extra = rng.choice([-0.0, 0.0, 5e-324, -0.5, 1 / 3, 0.49999999999999994], size=(2, n))
    extra[:, count != 5] = math.nan
    errors = iter(_ERROR_TEXTS * n)
    return moduli.Scan(nx=nx, ny=ny, tau=tau, count=count, extra_t=extra[0], extra_s=extra[1],
                       error=[next(errors) if c == 0 else None for c in count.tolist()])


def _assert_rows_match_the_reference(scan, edges):
    cells, rows = cli._scan_rows(scan, edges)
    ref_cells, ref_rows = oracles.scan_rows_reference(scan, edges)
    assert cells == cli.canonical_json(ref_cells)
    assert rows == cli.canonical_json(ref_rows)
    # canonical_json writes the encoded rows as they are, inside a report
    report = {"results": {"cells": cells, "flip_edges": rows, "nx": scan.nx}}
    ref = {"results": {"cells": ref_cells, "flip_edges": ref_rows, "nx": scan.nx}}
    assert cli.canonical_json(report) == oracles.canonical_json_reference(ref)


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 7), (7, 1), (8, 8)])
def test_scan_rows_are_the_canonical_json_of_the_dict_rows(nx, ny):
    scan = _synthetic_scan(nx, ny, seed=100 * nx + ny)
    dets = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 2.5])
    low = np.arange(min(dets.size, scan.count.size))
    high = scan.count.size - 1 - low
    edges = moduli.Flips(low=low, high=high, midpoint=0.5 * (scan.tau[low] + scan.tau[high]),
                         half_period=1 + low % 3, min_abs_det=dets[low])
    _assert_rows_match_the_reference(scan, edges)
    # a scan with no flip edge writes an empty list
    none = moduli.Flips(low[:0], high[:0], edges.midpoint[:0], low[:0], dets[:0])
    _assert_rows_match_the_reference(scan, none)
    assert cli._scan_rows(scan, none)[1] == "[]"


def test_scan_rows_of_workload_scans_match_the_dict_rows():
    # 8x8 scans of criterion 7's rectangle, shifted by under half a cell
    rng = np.random.default_rng(37)
    for _ in range(3):
        ox, oy = rng.uniform(-0.4, 0.4, 2) * (0.5 / 8, 1.9 / 8)
        scan = moduli.scan((ox, 0.1 + oy, 0.5 + ox, 2.0 + oy), 8, 8)
        edges = moduli.flip_edges(scan)
        assert edges.low.size and set(scan.count.tolist()) == {3, 5}
        _assert_rows_match_the_reference(scan, edges)


# -------------------------------------------------------------- subcommands


def test_eval_subcommand(capsys):
    code, out, err = run_cli(capsys, "eval", "--tau", "i", "--z", "0.21+0.13i")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    assert doc["command"] == "eval"
    assert doc["inputs"]["tau"] == {"re": 0.0, "im": 1.0}
    res = doc["results"]
    assert abs(res["green_abs"] - (res["green_rel"] + res["constant"])) < 1e-15
    assert res["hessian"]["trace"] == pytest.approx(1.0, rel=1e-12)
    # C(i) = (1/2 pi) log eta(i), eta(i) = Gamma(1/4) / (2 pi^(3/4))
    eta_i = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    assert abs(res["constant"] - math.log(eta_i) / (2.0 * math.pi)) < 1e-15
    assert doc["diagnostics"] == {}


@pytest.mark.parametrize("tau", ["0.05i", "0.5+0.03i"])
def test_eval_near_the_cusp(capsys, tau):
    code, out, err = run_cli(capsys, "eval", f"--tau={tau}", "--z=0.01+0.01i")
    assert code == 0, err
    res = json.loads(out)["results"]
    assert abs(res["constant"] - oracles.mp_green_constant(cli.parse_complex(tau))) < 1e-13


def test_critical_subcommand_hex(capsys):
    code, out, _ = run_cli(capsys, "critical", "--tau", "0.5+0.8660254037844386i")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"] == 5
    kinds = [p["kind"] for p in doc["results"]["points"]]
    assert kinds.count("ExtraPair") == 1
    assert len(doc["diagnostics"]["half_period_ranking"][0]) == 3
    assert doc["diagnostics"]["route"] == "seeds"


def test_scan_json_and_csv_agree(capsys, tmp_path):
    args = ("scan", "--region", "0.45,0.6,0.55,0.8", "--grid", "2x2")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["nx"] == 2 and doc["results"]["ny"] == 2
    assert len(doc["results"]["cells"]) == 4

    csv_path = tmp_path / "scan.csv"
    code2, out2, _ = run_cli(capsys, *args, "--format", "csv", "--out", str(csv_path))
    assert code2 == 0 and out2 == ""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "re_tau,im_tau,count,extra_t,extra_s"
    assert len(lines) == 5
    for row, cell in zip(lines[1:], doc["results"]["cells"]):
        fields = row.split(",")
        assert int(fields[2]) == cell["count"]
        assert float(fields[0]) == cell["tau"]["re"]
        if cell["count"] == 3:
            assert fields[3] == "" and fields[4] == ""


def test_scan_diagnostics_count_routes_and_group_errors_by_type(capsys, monkeypatch):
    from torusgreen import green

    real = green.residual_and_jacobian

    first = lattice.make_torus(0.475 + 0.65j).tau_r

    def failing_at_first_cell(t, s, tau_r):
        # one final pass checks every cell of the scan on its reduced
        # torus; the points of the first cell, a 3-cell, read NaN there
        r, *rest = real(t, s, tau_r)
        return np.where(np.abs(tau_r - first) < 1e-12, np.nan, r), *rest

    monkeypatch.setattr(green, "residual_and_jacobian", failing_at_first_cell)
    code, out, _ = run_cli(capsys, "scan", "--region=0.45,0.6,0.55,0.8", "--grid=2x2")
    assert code == 0
    diag = json.loads(out)["diagnostics"]
    assert diag["error_cells"] == 1
    assert diag["error_cells_by_type"] == {"Unconverged": [0]}
    # The errored cell has no route; (0.525, 0.65) is a 3-cell and the two
    # cells of the upper row are 5-cells whose z0 the seeds locate.
    assert diag["routes"] == {"morse": 1, "seeds": 2}
    assert sum(diag["routes"].values()) + diag["error_cells"] == 4


def test_csv_only_for_scan(capsys):
    code, _, err = run_cli(capsys, "eval", "--tau", "i", "--z", "0.2",
                           "--format", "csv")
    assert code == 64
    assert "csv" in err


def test_thresholds_subcommand(capsys):
    code, out, _ = run_cli(capsys, "thresholds")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["b0"] - 0.35472989252248) < 1e-10
    assert abs(doc["results"]["b1"] - 0.70476158133267) < 1e-10


def test_inequalities_single_b(capsys):
    code, out, _ = run_cli(capsys, "inequalities", "--b", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["ok"] is True
    assert doc["results"]["n_points"] == 1
    assert doc["diagnostics"]["functional_equation_half"] < 1e-10


@pytest.mark.parametrize("b", ["0.004", "0.01", "0.02", "0.05", "3"])
def test_inequalities_hold_at_small_b(capsys, b):
    # the real series raised Unconverged at 0.004 (exit 3) and the stencil
    # read a slope bridge off by 0.4 at 0.01
    code, out, err = run_cli(capsys, "inequalities", f"--b={b}")
    assert code == 0, err
    res = json.loads(out)["results"]
    assert (res["ok"], res["violations"], res["undecided"]) == (True, [], [])


@pytest.mark.parametrize("b", ["6", "7", "8", "10"])
def test_inequalities_past_b_6_are_undecided_not_violated(capsys, b):
    # rounding decided the signs there: "-0.0 not positive" at b = 8 before
    # the error bounds, and the theta2 curvature inside its bound from
    # b = 5.6 before its cancellation-free form; now all three signs are
    # decided to b = 10.8, and 6 further out all three are undecided
    for arg, decided in ((b, True), (str(float(b) + 6.0), False)):
        code, out, err = run_cli(capsys, "inequalities", f"--b={arg}")
        assert code == 0, err
        res = json.loads(out)["results"]
        assert res["ok"] is decided
        assert res["violations"] == []
        assert len(res["undecided"]) == (0 if decided else 3), (arg, res["undecided"])
        assert all("sign not decided" in u for u in res["undecided"])


def test_mfe_8pi_subcommand(capsys):
    code, out, _ = run_cli(capsys, "mfe", "--tau", "0.5+0.8660254037844386i",
                           "--rho", "8pi", "--grid", "32x32")
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]
    assert res["rho"] == pytest.approx(8 * math.pi)
    assert res["lambda"] == 0.0
    assert res["max_residual"] < 1e-3
    assert res["total_mass"] == pytest.approx(8 * math.pi, rel=1e-9)
    assert doc["inputs"]["lambda"] == 0.0
    assert doc["diagnostics"]["literal_max_residual"] > res["max_residual"]


def test_mfe_4pi_subcommand(capsys):
    code, out, _ = run_cli(capsys, "mfe", "--tau", "i", "--rho", "4pi",
                           "--grid", "32x32")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["branch"] is None
    assert doc["results"]["total_mass"] == pytest.approx(4 * math.pi, rel=1e-9)
    d = doc["diagnostics"]
    assert abs(abs(d["period_integral_g"]["im"]) - math.pi) < 1e-10
    assert d["c_prime"]["re"] == pytest.approx(-1.0)
    assert math.hypot(d["c_tau"]["re"], d["c_tau"]["im"]) == pytest.approx(1.0)


def test_selftest_subcommand(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--samples", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["ok"] is True
    assert len(doc["results"]["checks"]) == 7


# -------------------------------------------------------------- exit codes


def test_usage_errors(capsys):
    assert run_cli(capsys, "eval", "--tau", "i")[0] == 64          # missing --z
    assert run_cli(capsys, "nonsense")[0] == 64
    assert run_cli(capsys)[0] == 64
    assert run_cli(capsys, "scan")[0] == 64                        # missing region


def test_domain_error_exit(capsys):
    # tau in the lower half plane is a domain error, not a crash
    code, out, err = run_cli(capsys, "critical", "--tau", "1-2i")
    assert code == 2
    assert out == ""
    assert "domain error" in err
    # 8pi construction impossible on the square torus
    code, _, err = run_cli(capsys, "mfe", "--tau", "i", "--rho", "8pi")
    assert code == 2
    assert "NoExtraCriticalPoint" in err


@pytest.mark.parametrize("argv", [
    ("mfe", "--rho=4pi", "--tau=i", "--grid=16x16"),
    ("mfe", "--rho=4pi", "--tau=i", "--exclusion-radius=0.01"),
    ("mfe", "--rho=8pi", "--tau=0.5+0.8660254037844386i", "--grid=32x32",
     "--exclusion-radius=nan"),
    ("mfe", "--rho=8pi", "--tau=0.5+0.8660254037844386i", "--grid=32x32",
     "--lambda=nan"),
    ("mfe", "--rho=8pi", "--tau=0.5+0.8660254037844386i", "--grid=32x32",
     "--lambda=inf"),
    # 2 lambda overflows, and the residuals read NaN
    ("mfe", "--rho=8pi", "--tau=0.5+0.8660254037844386i", "--grid=32x32",
     "--lambda=1e308"),
    ("mfe", "--rho=8pi", "--tau=0.5+0.8660254037844386i", "--grid=32x32",
     "--lambda=-1e308"),
    # the 4pi solution is unique: a lambda there was echoed and ignored
    ("mfe", "--rho=4pi", "--tau=i", "--grid=32x32", "--lambda=2"),
    ("mfe", "--rho=4pi", "--tau=i", "--grid=32x32", "--exclusion-radius=5"),
    ("mfe", "--rho=4pi", "--tau=i", "--grid=32x64"),
    ("critical", "--tau=i", "--tol=1e-3"),
    ("thresholds", "--tol=1e-13"),
    ("thresholds", "--tol=nan"),
    ("thresholds", "--tol=inf"),
    ("thresholds", "--tol=1e-5"),
    ("scan", "--region=0,0.5,0.4,0.2", "--grid=2x2"),
    ("scan", "--region=0,0.1,0.5,2.0", "--grid=0x4"),
    ("scan", "--region=0,0.1,inf,2.0", "--grid=2x2"),
    ("inequalities", "--b=-1"),
    ("selftest", "--samples=0"),
    ("selftest", "--samples=-3"),
    # past the upper bounds: checked before the grid or the tori are made
    ("mfe", "--rho=4pi", "--tau=i", "--grid=1025x1025"),
    ("mfe", "--rho=4pi", "--tau=i", "--grid=1000000x1000000"),
    ("selftest", "--samples=100001"),
], ids=" ".join)
def test_out_of_range_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "domain error (InvalidInput)" in err


@pytest.mark.parametrize("lam", ["50", "1e300"])
def test_a_bubble_between_grid_points_exits_2(capsys, lam):
    # u_lambda's mass sits within about e^(-lambda) of z0, so e^u reads 0
    # at every grid point and v is harmonic there: the check read
    # max_residual 72 and total_mass 4.3e-39 at lambda = 50, and 0.0 and
    # 0.0 at 1e300, and exited 0.  The mass must come out near rho
    code, out, err = run_cli(capsys, "mfe", "--rho=8pi", "--tau=0.5+0.8660254037844386i",
                             "--grid=32x32", f"--lambda={lam}")
    assert (code, out) == (2, "")
    assert "domain error (InvalidInput): total mass" in err
    assert f"lambda = {float(lam)!r}" in err and "32x32 grid" in err


@pytest.mark.parametrize("argv", [
    ("critical", "--tau=0.3+905i"),
    ("critical", "--tau=0.3+940i"),
    ("critical", "--tau=0.3+1000i"),
    ("eval", "--tau=0.3+1000i", "--z=0.1"),
    ("critical", "--tau=1e-8+1e-12i"),      # Im tau_r about 1e4
    ("inequalities", "--b=947"),
    ("inequalities", "--b=1000"),
    ("inequalities", "--b=inf"),
], ids=" ".join)
def test_moduli_past_the_float64_range_of_the_theta_series_exit_2(capsys, argv):
    # past Im tau = 902 the series terms underflow: a false count, a false
    # pole or a wrong b derivative before, InvalidInput naming the bound now
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "domain error (InvalidInput)" in err
    assert "above 900.0" in err


def test_bare_value_error_is_a_bug_and_propagates(monkeypatch):
    # only InvalidInput is a domain error; any other ValueError escapes run
    def boom(args):
        raise ValueError("math domain error")

    monkeypatch.setitem(cli._HANDLERS, "critical", boom)
    with pytest.raises(ValueError, match="math domain error"):
        cli.run(["critical", "--tau=i"])


def test_critical_at_the_cusp_on_the_imaginary_axis(capsys):
    # deep in the cusp the invariants come from the reduced theta pass
    code, out, err = run_cli(capsys, "critical", "--tau=0.05i")
    assert code == 0, err
    assert json.loads(out)["results"]["count"] == 3


@pytest.mark.parametrize("tau", ["0.02i", "0.0608i", "0.065i", "0.0756i"])
def test_coincident_half_period_roots_give_three_critical_points(capsys, tau):
    # here the float64 gap e1 - e3 is exactly zero; the half periods are
    # ordered from the theta nulls, and on Re tau = 0 the count is 3
    code, out, err = run_cli(capsys, "critical", f"--tau={tau}")
    assert code == 0, err
    assert json.loads(out)["results"]["count"] == 3


@pytest.mark.parametrize("tau", [1 / 3 + 0.003j, 0.25 + 0.004j, 0.4 + 0.002j])
def test_farey_cusps_count_at_the_reduced_modulus(capsys, tau):
    # near a rational other than 0 and 1/2 the one S inversion of the old
    # route left a nome near 1 and Jacobi's gap check failed (exit 3)
    code, out, err = run_cli(capsys, "critical", f"--tau={tau.real!r}+{tau.imag!r}i")
    assert code == 0, err
    T = lattice.make_torus(tau)
    assert T.tau_r.imag > 15.0
    ref = critical.find_critical_points(lattice.make_torus(lattice.reduce_modulus(tau)[0]))
    assert json.loads(out)["results"]["count"] == ref.total_count


def test_consistency_error_exit(capsys, monkeypatch):
    def boom(args):
        raise CountViolation("synthetic count explosion")

    monkeypatch.setitem(cli._HANDLERS, "critical", boom)
    code, out, err = run_cli(capsys, "critical", "--tau", "i")
    assert code == 3
    assert "CONSISTENCY VIOLATION" in err


def test_output_is_byte_stable(capsys, tmp_path):
    # identical invocations must produce identical bytes; the output path is
    # part of the inputs block, so reruns share one path
    path = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "critical", "--tau", "0.5+0.75i",
                         "--out", str(path))
    assert code == 0
    first = path.read_bytes()
    code, _, _ = run_cli(capsys, "critical", "--tau", "0.5+0.75i",
                         "--out", str(path))
    assert code == 0
    assert path.read_bytes() == first
    assert first.endswith(b"\n")


def test_cli_snapshot_matches_golden_file():
    # scripts/cli_snapshot.py rebuilt in-process; a change that alters CLI
    # output on purpose regenerates tests/data/cli_snapshot.jsonl with it
    spec = importlib.util.spec_from_file_location(
        "cli_snapshot", ROOT / "scripts" / "cli_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    golden = (ROOT / "tests" / "data" / "cli_snapshot.jsonl").read_bytes().decode("utf-8")
    lines = golden.splitlines(keepends=True)
    assert len(lines) == len(snapshot.CALLS)
    for argv, want in zip(snapshot.CALLS, lines):
        assert snapshot.snapshot_line(argv) == want, argv


def test_out_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "critical", "--tau=i", "--out", str(path))
    assert code == 64
    assert out == ""
    assert err == f"usage error: cannot write --out {path}: No such file or directory\n"
    code, _, err = run_cli(capsys, "scan", "--region=0,0.1,0.5,2.0", "--grid=2x2",
                           "--format=csv", "--out", str(tmp_path))
    assert code == 64
    assert err.startswith(f"usage error: cannot write --out {tmp_path}: ")


def test_out_path_with_a_control_character_gives_valid_json(capsys, tmp_path):
    # the path is echoed in inputs.output_path; a raw tab there made a file
    # that json.loads rejected ("Invalid control character")
    path = tmp_path / "a\tb.json"
    code, out, err = run_cli(capsys, "critical", "--tau=i", "--out", str(path))
    assert (code, out, err) == (0, "", "")
    raw = path.read_text(encoding="utf-8")
    assert "\t" not in raw and "a\\tb.json" in raw
    assert json.loads(raw)["inputs"]["output_path"] == str(path)


def test_out_writes_unix_newlines(capsys, tmp_path):
    path = tmp_path / "r.json"
    run_cli(capsys, "inequalities", "--b", "0.8", "--out", str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
