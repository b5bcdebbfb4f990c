"""Command-line front end.

Subcommands: coeffs | eval | verify | radius | compare. Output goes to
stdout or --out as JSON (one object per invocation) or CSV (comma separator,
header row, LF endings); floats serialize with shortest round-trip
representation. The format is --format alone (default JSON).

This module owns the text formats: each subcommand builds one JSON payload
and one table, and :func:`_emit` writes whichever --format asks for. CSV
cells are empty for a missing value, ``true``/``false`` for a flag, and
``repr`` for a float.

Exit codes: 0 success or verification pass, 1 verification failure, 2 usage
error or a defect that could not be computed, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .euler_beta import (DEFAULT_TERMS, MAX_TERMS, _check_count, _check_real, _finite_or_null,
                         build_sequence)
from .fracops import MAX_STEPS, VERIFY_TOLERANCES, make_grid, verify
from .series_solution import SeriesSolution, _classical_curves, radius_report

__all__ = ["VERIFY_TOLERANCES", "MAX_TERMS", "MAX_STEPS", "main"]

#: Verification grids default to this fraction of ``domain_edge``: far enough
#: in to be interesting, close enough that a default-length series stays well
#: below every method tolerance.
DEFAULT_VERIFY_WINDOW = 0.7
DEFAULT_VERIFY_CELLS = 2000  # cells of the default l1 and integro grid


def _cell(value):
    """csv writes None as an empty cell and numbers by str; a flag is true/false."""
    return ("true" if value else "false") if isinstance(value, bool) else value


def _emit(args: argparse.Namespace, payload: dict, header, rows) -> None:
    """Write ``payload`` as JSON, each non-finite float in it as ``null``, or
    ``header`` and ``rows`` as CSV, to stdout or --out."""
    if args.format == "json":
        text = json.dumps(_finite_or_null(payload), allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _t_grid(args: argparse.Namespace) -> np.ndarray:
    _check_count("steps", args.steps, 1, MAX_STEPS)
    t0 = _check_real("t0", args.t0, 0, math.inf, "[)")
    t1 = _check_real("t1", args.t1, -math.inf, math.inf, "()")
    if not t0 < t1:
        raise ValueError("t0 must be less than t1")
    return np.linspace(t0, t1, args.steps + 1)


def cmd_coeffs(args: argparse.Namespace) -> int:
    payload = build_sequence(args.beta, args.m, args.n_terms).to_json_dict()
    rows = [[k, g, raw["sign"], raw["log10_mag"]]
            for k, (g, raw) in enumerate(zip(payload["g"], payload["raw"]))]
    _emit(args, payload, ["k", "g_k", "sign", "log10_mag"], rows)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    t = _t_grid(args)
    sol = SeriesSolution.build(args.beta, args.m, args.n_terms)
    res = sol.evaluate(t)
    if not np.all(res.in_domain):
        print(
            f"warning: {int(np.sum(~res.in_domain))} of {t.size} rows lie past domain_edge "
            f"{sol.domain_edge:.6g} or have no finite sum; in_domain is false there",
            file=sys.stderr,
        )
    t, w, tail, in_dom = (a.tolist() for a in (t, res.w, res.tail_bound, res.in_domain))
    payload = {key: getattr(args, key) for key in ("beta", "m", "n_terms")}
    payload.update(t=t, w=w, tail_bound=tail, in_domain=in_dom)
    _emit(args, payload, ["t", "w", "tail_bound", "in_domain"], zip(t, w, tail, in_dom))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    tol = None if args.tol is None else _check_real("tol", args.tol, 0, math.inf, "[)")
    if args.method in ("termwise", "pc") and (args.steps is not None or args.grid is not None):
        raise ValueError("--steps and --grid apply only to --method l1 and integro")
    if args.method == "termwise" and args.t1 is not None:
        raise ValueError("--t1 applies only to --method l1, integro and pc")
    sol = SeriesSolution.build(args.beta, args.m, args.n_terms)

    grid = None
    if args.method != "termwise":
        t1 = args.t1
        if t1 is None:
            t1 = DEFAULT_VERIFY_WINDOW * sol.domain_edge
            if not 0.0 < t1 < math.inf:
                kind = "positive" if math.isfinite(t1) else "finite"
                raise ValueError(f"the default grid end is not {kind} ({t1!r}); give --t1")
        # pc reads only the grid end, which two uniform cells reach
        cells, spacing = (2, "uniform") if args.method == "pc" else (args.steps, args.grid)
        cells = DEFAULT_VERIFY_CELLS if cells is None else cells
        grid = make_grid(t1, cells, spacing or "graded", args.beta)
    report = verify(sol, args.method, grid)

    tol = VERIFY_TOLERANCES[report.method] if tol is None else tol
    passed = report.sup_norm <= tol
    payload = report.to_json_dict()
    payload.update({"tol": tol, "passed": passed})
    _emit(args, payload, ["t", "residual"], zip(payload["t"], payload["residual"]))
    if args.format == "csv":
        print(f"sup_norm = {report.sup_norm!r}  tol = {tol!r}  passed = {passed}",
              file=sys.stderr)
    return 0 if passed else 1


def cmd_radius(args: argparse.Namespace) -> int:
    payload = radius_report(build_sequence(args.beta, args.m, args.n_terms))._quantities()
    _emit(args, payload, ["quantity", "value"], payload.items())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    t = _t_grid(args)
    w, closed = _classical_curves(args.m, t, args.n_terms)
    deviation = np.abs(w - closed)
    payload = {key: getattr(args, key) for key in ("beta", "m", "n_terms", "t0", "t1", "steps")}
    payload["max_abs_deviation"] = float(np.max(deviation))
    rows = zip(t.tolist(), w.tolist(), closed.tolist(), deviation.tolist())
    _emit(args, payload, ["t", "w_series", "w_closed", "abs_deviation"], rows)
    return 0


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "radius": cmd_radius,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="felog",
        description="Fractional logistic series: coefficients, curves, radii, and cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if name != "compare":  # the closed form exists at beta = 1 alone
            p.add_argument("--beta", type=float, default=0.5, help="fractional order in (0, 1]")
        p.add_argument("--m", type=float, default=1.0, help="rate parameter, >= 1")
        p.add_argument("-n", "--n-terms", dest="n_terms", type=int, default=DEFAULT_TERMS)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if name in ("eval", "compare"):  # the commands that read _t_grid
            p.add_argument("--t0", type=float, default=0.0)
            p.add_argument("--t1", type=float, default=2.0)
            p.add_argument("--steps", type=int, default=200, help="number of grid intervals")
        return p

    command("coeffs", "emit the coefficient sequence")

    command("eval", "evaluate the series on a t grid")

    p = command("verify", "run one verification oracle (pass/fail exit code)")
    p.add_argument("--method", choices=("termwise", "l1", "integro", "pc"), default="termwise")
    p.add_argument("--t1", type=float, help="grid end, for pc the stepper's end "
                   f"(default: {DEFAULT_VERIFY_WINDOW} * domain_edge)")
    p.add_argument("--steps", type=int,
                   help=f"grid cells for l1 and integro (default {DEFAULT_VERIFY_CELLS})")
    p.add_argument("--grid", choices=("uniform", "graded"),
                   help="grid spacing for l1 and integro (default graded)")
    p.add_argument("--tol", type=float, default=None, help="override the method tolerance")

    command("radius", "report the four radius estimates")

    command("compare", "beta=1 series against the closed form").set_defaults(beta=1.0)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
