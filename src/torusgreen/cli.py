"""Command line front end.

Subcommands: eval, critical, scan, thresholds, inequalities, mfe,
selftest.  All reports share one envelope {schema_version, command,
inputs, results, diagnostics}, serialized canonically: sorted keys,
floats at 17 significant digits with a lowercase exponent, complex
numbers as {re, im} objects.  Identical inputs produce byte identical
output; nothing time or machine dependent enters the envelope.

Exit codes: 0 success, 64 usage errors (bad arguments, an --out path
that cannot be written), and for a package failure the code of its base
class in errors.py: 2 for a DomainError (bad modulus, no extra critical
point, off-lattice requests, out of range arguments), 3 for a
ConsistencyError (count bound broken, routes disagree, no convergence),
the loud falsifiers.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from json.encoder import encode_basestring

from . import critical, green, mfe, moduli, selftest
from .errors import ConsistencyError, DomainError, InvalidInput, Unconverged
from .lattice import make_torus

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_INCONSISTENT = 3
EXIT_USAGE = 64

_COMPLEX_RE = re.compile(
    r"""^\s*
    # a leading number is the real part only when a signed imaginary part
    # or the end of the text follows; otherwise it belongs to the i term
    (?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?=[+-]|\s*$))?
    (?P<im>(?:[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-])?[ij])?
    \s*$""",
    re.VERBOSE,
)


def parse_complex(text: str) -> complex:
    """Parse `a+bi` with optional signs and scientific notation.

    Accepts pure reals ("0.5"), pure imaginaries ("i", "-2i", "1e-3i"),
    and full forms ("0.5+0.8660254i").  A trailing j works as well.
    """
    m = _COMPLEX_RE.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")
    re_part = float(m.group("re")) if m.group("re") else 0.0
    im_txt = m.group("im")
    if im_txt is None:
        im_part = 0.0
    else:
        body = im_txt[:-1]
        if body in ("", "+"):
            im_part = 1.0
        elif body == "-":
            im_part = -1.0
        else:
            im_part = float(body)
    return complex(re_part, im_part)


def parse_grid(text: str) -> tuple[int, int]:
    m = re.match(r"^(\d+)[xX](\d+)$", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"grid must look like 40x40, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def parse_region(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"region must be re0,im0,re1,im1 with four numbers, got {text!r}")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return vals


def _fmt_float(x: float) -> str:
    text = f"{x:.16e}"
    if text[-1].isdigit():
        return text
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


class _Encoded(str):
    """Text that is already canonical JSON: _canonical appends it as it is."""


def _dict(obj, out: list) -> None:
    out.append("{")
    for i, key in enumerate(sorted(obj)):
        out.append(("," if i else "") + encode_basestring(str(key)) + ":")
        _canonical(obj[key], out)
    out.append("}")


def _seq(obj, out: list) -> None:
    out.append("[")
    for i, item in enumerate(obj):
        if i:
            out.append(",")
        _canonical(item, out)
    out.append("]")


def _canonical(obj, out: list) -> None:
    """Append the parts of obj's canonical JSON to out.

    The common exact types of a report come first; int, bool and the
    subclasses of the others (np.float64, _Encoded, ...) take the
    isinstance chain below.
    """
    tp = type(obj)
    if tp is float:
        out.append(_fmt_float(obj))
    elif tp is dict:
        _dict(obj, out)
    elif tp is list or tp is tuple:
        _seq(obj, out)
    elif tp is str:
        out.append(encode_basestring(obj))
    elif tp is complex:
        out.append(f'{{"im":{_fmt_float(obj.imag)},"re":{_fmt_float(obj.real)}}}')
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, complex):
        _dict({"re": obj.real, "im": obj.imag}, out)
    elif tp is _Encoded:
        out.append(obj)
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        _dict(obj, out)
    elif isinstance(obj, (list, tuple)):
        _seq(obj, out)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    """obj as canonical JSON (see the module docstring), joined once."""
    out: list[str] = []
    _canonical(obj, out)
    return "".join(out)


def _hessian_dict(h) -> dict:
    return {"gxx": h.xx, "gxy": h.xy, "gyy": h.yy,
            "det": h.det, "trace": h.trace}


def _point_dict(p) -> dict:
    return {
        "t": p.coords.t,
        "s": p.coords.s,
        "z": p.z,
        "kind": p.kind.value,
        "morse": p.morse.value,
        "hessian": _hessian_dict(p.hessian),
        "green_rel": p.g_rel,
    }


def _cmd_eval(args) -> tuple[dict, dict]:
    torus = make_torus(args.tau)
    ev = green.evaluate(args.z, torus)
    constant = green.green_constant(torus)
    results = {
        "z": args.z,
        "green_rel": ev.value_rel,
        "green_abs": ev.value_rel + constant,
        "constant": constant,
        "grad": {"gx": ev.grad[0], "gy": ev.grad[1]},
        "hessian": _hessian_dict(ev.hessian),
        "gradient_norm": math.hypot(ev.grad[0], ev.grad[1]),
    }
    return results, {}


def _cmd_critical(args) -> tuple[dict, dict]:
    torus = make_torus(args.tau)
    cs = critical.find_critical_points(torus, tol=args.tol)
    results = {
        "count": cs.total_count,
        "points": [_point_dict(p) for p in cs.points],
        "tolerance": args.tol,
    }
    comparison = critical.compare_half_periods(cs)
    diagnostics = {
        "half_period_ranking": [list(group) for group in comparison.ranking],
        "ranking_ties": list(comparison.ties),
        "formula_deviation": comparison.max_formula_deviation,
        "tie_tolerance": critical.TIE_TOL,
        "route": cs.route,
    }
    return results, diagnostics


# a scan's cell and edge rows, their keys sorted; %.16e is _fmt_float of
# a finite value: tau, and the extra point of a 5-cell
_CELL_5 = '{"count":5,"error":null,"extra_s":%.16e,"extra_t":%.16e,"tau":{"im":%.16e,"re":%.16e}}'
_CELL = '{"count":%d,"error":%s,"extra_s":null,"extra_t":null,"tau":{"im":%.16e,"re":%.16e}}'
_EDGE = ('{"count_high":%d,"count_low":%d,"degenerate_half_period":%d,'
         '"midpoint":{"im":%.16e,"re":%.16e},"min_abs_det":%s,'
         '"tau_high":{"im":%.16e,"re":%.16e},"tau_low":{"im":%.16e,"re":%.16e}}')


def _scan_rows(scan, edges) -> tuple[_Encoded, _Encoded]:
    """A scan report's "cells" and "flip_edges" (moduli.Flips), each as _Encoded
    text of one % format a row: the bytes canonical_json writes for the rows as dicts."""
    cells = [_CELL_5 % (s, t, im, re_) if count == 5 else
             _CELL % (count, "null" if error is None else encode_basestring(error), im, re_)
             for re_, im, count, t, s, error in zip(
                 scan.tau.real.tolist(), scan.tau.imag.tolist(), scan.count.tolist(),
                 scan.extra_t.tolist(), scan.extra_s.tolist(), scan.error)]
    rows = [_EDGE % (ch, cl, k, m.imag, m.real, _fmt_float(d), th.imag, th.real, tl.imag, tl.real)
            for ch, cl, k, m, d, th, tl in zip(
                scan.count[edges.high].tolist(), scan.count[edges.low].tolist(),
                edges.half_period.tolist(), edges.midpoint.tolist(), edges.min_abs_det.tolist(),
                scan.tau[edges.high].tolist(), scan.tau[edges.low].tolist())]
    return _Encoded("[" + ",".join(cells) + "]"), _Encoded("[" + ",".join(rows) + "]")


def _cmd_scan(args) -> tuple[dict, dict]:
    nx, ny = args.grid
    scan = moduli.scan(args.region, nx, ny)
    cells, edges = _scan_rows(scan, moduli.flip_edges(scan))
    results = {
        "region": list(args.region),
        "nx": nx,
        "ny": ny,
        "cells": cells,
        "flip_edges": edges,
    }
    count = scan.count.tolist()
    errors: dict[str, list[int]] = {}
    for k, error in enumerate(scan.error):
        if error is not None:
            errors.setdefault(error.partition(":")[0], []).append(k)
    diagnostics = {
        "error_cells": sum(len(v) for v in errors.values()),
        "error_cells_by_type": errors,
        "counts_seen": sorted(set(count) - {0}),
        "routes": {"morse": count.count(3), "seeds": count.count(5)},
    }
    return results, diagnostics


def _scan_csv(args) -> str:
    nx, ny = args.grid
    scan = moduli.scan(args.region, nx, ny)
    lines = ["re_tau,im_tau,count,extra_t,extra_s"] + [
        "%.16e,%.16e,%d,%.16e,%.16e" % row if row[2] == 5 else "%.16e,%.16e,%d,," % row[:3]
        for row in zip(scan.tau.real.tolist(), scan.tau.imag.tolist(), scan.count.tolist(),
                       scan.extra_t.tolist(), scan.extra_s.tolist())]
    return "\n".join(lines) + "\n"


def _cmd_thresholds(args) -> tuple[dict, dict]:
    rep = moduli.thresholds(tol=args.tol)
    results = {
        "b0": rep.b0,
        "b1": rep.b1,
        "residual_b0": rep.residual_b0,
        "residual_b1": rep.residual_b1,
        "tolerance": args.tol,
    }
    diagnostics = {"last_step": rep.last_step, "newton_steps": list(rep.newton_steps)}
    return results, diagnostics


def _cmd_inequalities(args) -> tuple[dict, dict]:
    if args.b is not None:
        if not args.b > 0.0:
            raise InvalidInput(f"b = {args.b} must be positive")
        grid = [args.b]
    else:
        grid = [0.1 + 0.05 * k for k in range(59)]
    rep = moduli.verify_fundamental_inequalities(grid)
    results = {
        "n_points": len(rep.rows),
        "violations": list(rep.violations),
        "undecided": list(rep.undecided),
        "ok": rep.ok,
    }
    diagnostics = {
        "b_first": grid[0],
        "b_last": grid[-1],
        "functional_equation_half": moduli.functional_equation_residual(0.5),
    }
    return results, diagnostics


def _cmd_mfe(args) -> tuple[dict, dict]:
    nx, ny = args.grid or (64, 64)
    if nx != ny:
        raise InvalidInput(f"verification grid {nx}x{ny} is not square")
    if args.rho == "4pi" and args.lam != 0.0:
        raise InvalidInput(f"lambda {args.lam} given at 4pi, whose solution has no scaling family")
    torus = make_torus(args.tau)
    if args.rho == "8pi":
        sol = mfe.solution_8pi(torus, lam=args.lam)
        diag_extra = {}
    else:
        sol, d = mfe.solution_4pi(torus)
        diag_extra = {
            "period_integral_g": d.period_integral,
            "c_prime": d.c_prime,
            "c_tau": d.c_tau,
        }
    rep = mfe.verify_solution(sol, grid_n=nx, excl_radius=args.exclusion_radius)
    results = {
        "rho": sol.rho,
        "lambda": sol.lam,
        "c1": sol.c1,
        "branch": sol.branch,
        "max_residual": rep.max_residual,
        "mean_residual": rep.mean_residual,
        "periodicity_1": rep.periodicity_1,
        "periodicity_tau": rep.periodicity_tau,
        "total_mass": rep.total_mass,
        "grid_n": rep.grid_n,
        "stencil_h": rep.h,
        "exclusion_radius": rep.excl_radius,
    }
    diagnostics = {
        "literal_max_residual": rep.literal_max_residual,
        "n_points": rep.n_points,
        **diag_extra,
    }
    return results, diagnostics


def _cmd_selftest(args) -> tuple[dict, dict]:
    rep = selftest.run_all(n_samples=args.samples)
    results = {
        "ok": rep.ok,
        "checks": [
            {
                "name": c.name,
                "max_residual": c.max_residual,
                "tolerance": c.tolerance,
                "n_samples": c.n_samples,
                "ok": c.ok,
            }
            for c in rep.checks
        ],
    }
    if not rep.ok:
        failed = [c.name for c in rep.checks if not c.ok]
        raise Unconverged(f"selftest failures: {', '.join(failed)}")
    return results, {}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def build_parser() -> _Parser:
    parser = _Parser(prog="torusgreen", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, tau=False, tol=None):
        if tau:
            p.add_argument("--tau", type=parse_complex, required=True,
                           help="modulus a+bi with b > 0")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("eval", help="Green function value, gradient, Hessian at a point")
    common(p, tau=True)
    p.add_argument("--z", type=parse_complex, required=True, help="evaluation point a+bi")

    p = sub.add_parser("critical", help="find and classify all critical points")
    common(p, tau=True, tol=critical.DEFAULT_TOL)

    p = sub.add_parser("scan", help="count critical points over a moduli rectangle")
    common(p)
    p.add_argument("--region", type=parse_region, required=True,
                   metavar="re0,im0,re1,im1")
    p.add_argument("--grid", type=parse_grid, default=(40, 40), metavar="NXxNY")

    p = sub.add_parser("thresholds", help="degeneracy thresholds b0, b1 on the rhombic line")
    common(p, tol=1e-12)

    p = sub.add_parser("inequalities", help="verify the fundamental modular inequalities")
    common(p)
    p.add_argument("--b", type=float, default=None,
                   help="single b value (default: the 0.1..3.0 grid)")

    p = sub.add_parser("mfe", help="construct and verify a mean field equation solution")
    common(p, tau=True)
    p.add_argument("--rho", choices=("4pi", "8pi"), required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="scaling parameter (8pi only)")
    p.add_argument("--grid", type=parse_grid, default=None, metavar="NXxNY",
                   help="verification grid (default 64x64)")
    p.add_argument("--exclusion-radius", type=float, default=0.05)

    p = sub.add_parser("selftest", help="run the identity suites of every module")
    common(p)
    p.add_argument("--samples", type=int, default=200)

    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "critical": _cmd_critical,
    "scan": _cmd_scan,
    "thresholds": _cmd_thresholds,
    "inequalities": _cmd_inequalities,
    "mfe": _cmd_mfe,
    "selftest": _cmd_selftest,
}


def _inputs_dict(args) -> dict:
    """The resolved inputs of one invocation, for the report envelope."""
    tolerances = {name: getattr(args, name)
                  for name in ("tol", "exclusion_radius") if hasattr(args, name)}
    inputs = {
        "command": args.command,
        "tau": getattr(args, "tau", None),
        "tolerances": tolerances or None,
        "grid": getattr(args, "grid", None),
        "output_format": args.format,
        "output_path": args.out,
    }
    for name in ("z", "b", "region", "rho", "lam", "samples"):
        if hasattr(args, name):
            inputs["lambda" if name == "lam" else name] = getattr(args, name)
    return inputs


def _write_output(text: str, path: str | None) -> None:
    """text to stdout, or to path; a path that cannot be written is a
    UsageError."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror or exc}") from None


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    if args.format == "csv" and args.command != "scan":
        sys.stderr.write("usage error: --format csv is only available for scan\n")
        return EXIT_USAGE
    try:
        if args.command == "scan" and args.format == "csv":
            _write_output(_scan_csv(args), args.out)
            return EXIT_OK
        results, diagnostics = _HANDLERS[args.command](args)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": _inputs_dict(args),
            "results": results,
            "diagnostics": diagnostics,
        }
        _write_output(canonical_json(report) + "\n", args.out)
        return EXIT_OK
    except ConsistencyError as exc:
        sys.stderr.write(f"CONSISTENCY VIOLATION ({type(exc).__name__}): {exc}\n")
        return EXIT_INCONSISTENT
    except DomainError as exc:
        sys.stderr.write(f"domain error ({type(exc).__name__}): {exc}\n")
        return EXIT_DOMAIN
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
