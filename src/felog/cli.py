"""Command-line front end.

Subcommands: coeffs | eval | verify | radius | compare. Output goes to
stdout or --out as JSON (one object per invocation) or CSV (comma separator,
header row, LF endings); floats serialize with shortest round-trip
representation. The default format comes from FELOG_FORMAT when set.

This module owns the text formats: each subcommand builds one JSON payload
and one table, and :func:`_emit` writes whichever --format asks for. CSV
cells are empty for a missing value, ``true``/``false`` for a flag, and
``repr`` for a float.

Exit codes: 0 success or verification pass, 1 verification failure, 2 usage
error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .euler_beta import build_sequence
from .fracops import MAX_STEPS, make_grid, verify
from .series_solution import SeriesSolution, compare_classical, radius_report

__all__ = ["VERIFY_TOLERANCES", "MAX_TERMS", "MAX_STEPS", "main"]

#: Default pass thresholds per verification method (override with --tol).
VERIFY_TOLERANCES = {
    "termwise": 1e-12,
    "l1": 1e-4,
    "integro": 1e-4,
    "predictor_corrector": 1e-5,
}

#: Verification grids default to this fraction of the empirical radius: far
#: enough in to be interesting, close enough that the default 64-term series
#: stays well below every method tolerance.
DEFAULT_VERIFY_WINDOW = 0.7

#: Largest -n accepted, far above any use (-n 256) but small enough that no
#: array it sizes can exhaust memory; --steps is capped at fracops.MAX_STEPS.
MAX_TERMS = 10_000


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _emit(args: argparse.Namespace, payload: dict, header, rows) -> None:
    """Write ``payload`` as JSON, or ``header`` and ``rows`` as CSV, to
    stdout or --out."""
    if args.format == "json":
        text = json.dumps(payload)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _t_grid(args: argparse.Namespace) -> np.ndarray:
    if not (math.isfinite(args.t0) and math.isfinite(args.t1)):
        raise ValueError("t0 and t1 must be finite")
    if not args.t0 < args.t1:
        raise ValueError("t0 must be less than t1")
    return np.linspace(args.t0, args.t1, args.steps + 1)


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
            f"warning: {int(np.sum(~res.in_domain))} of {t.size} rows lie past the "
            f"empirical radius {sol.domain_edge:.6g}; values there are extrapolation",
            file=sys.stderr,
        )
    t, w, tail, in_dom = (a.tolist() for a in (t, res.w, res.tail_bound, res.in_domain))
    payload = {
        "beta": args.beta,
        "m": args.m,
        "n_terms": args.n_terms,
        "t": t,
        "w": [x if math.isfinite(x) else None for x in w],
        "tail_bound": [x if math.isfinite(x) else None for x in tail],
        "in_domain": in_dom,
    }
    _emit(args, payload, ["t", "w", "tail_bound", "in_domain"], zip(t, w, tail, in_dom))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.tol is not None and not 0.0 <= args.tol < math.inf:
        raise ValueError("tol must be finite and >= 0")
    if args.method in ("termwise", "pc") and (args.steps is not None or args.grid is not None):
        raise ValueError("--steps and --grid apply only to --method l1 and integro")
    sol = SeriesSolution.build(args.beta, args.m, args.n_terms)

    grid = None
    if args.method != "termwise":
        t1 = args.t1 if args.t1 is not None else DEFAULT_VERIFY_WINDOW * sol.domain_edge
        grid = make_grid(t1, args.steps or 2000, args.grid or "graded", args.beta)
    report = verify(sol, args.method, grid)

    tol = args.tol if args.tol is not None else VERIFY_TOLERANCES[report.method]
    passed = report.sup_norm <= tol
    payload = report.to_json_dict()
    payload.update({"tol": tol, "passed": passed})
    _emit(args, payload, ["t", "residual"], zip(payload["t"], payload["residual"]))
    if args.format == "csv":
        print(f"sup_norm = {report.sup_norm!r}  tol = {tol!r}  passed = {passed}",
              file=sys.stderr)
    return 0 if passed else 1


def cmd_radius(args: argparse.Namespace) -> int:
    payload = radius_report(build_sequence(args.beta, args.m, args.n_terms)).to_json_dict()
    _emit(args, payload, ["quantity", "value"], payload.items())
    return 0


def _compare_rows(args: argparse.Namespace, t: np.ndarray):
    # a generator, so the JSON output never builds the second series
    w = SeriesSolution.build(1.0, args.m, args.n_terms).evaluate(t).w
    closed = 1.0 / (1.0 + np.exp(-t / args.m))
    for ti, wi, ci in zip(t.tolist(), w.tolist(), closed.tolist()):
        yield ti, wi, ci, abs(wi - ci)


def cmd_compare(args: argparse.Namespace) -> int:
    t = _t_grid(args)
    if args.beta != 1.0:
        raise ValueError("the closed-form comparison requires beta = 1")
    payload = {
        "beta": args.beta,
        "m": args.m,
        "n_terms": args.n_terms,
        "t0": args.t0,
        "t1": args.t1,
        "steps": args.steps,
        "max_abs_deviation": compare_classical(args.m, t, n_terms=args.n_terms),
    }
    _emit(args, payload, ["t", "w_series", "w_closed", "abs_deviation"], _compare_rows(args, t))
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
    default_format = os.environ.get("FELOG_FORMAT", "json")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--beta", type=float, default=0.5, help="fractional order in (0, 1]")
        p.add_argument("--m", type=float, default=1.0, help="rate parameter, >= 1")
        p.add_argument("-n", "--n-terms", dest="n_terms", type=int, default=64)
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("coeffs", help="emit the coefficient sequence")
    common(p)

    p = sub.add_parser("eval", help="evaluate the series on a t grid")
    common(p)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=200, help="number of grid intervals")

    p = sub.add_parser("verify", help="run one verification oracle (pass/fail exit code)")
    common(p)
    p.add_argument("--method", choices=("termwise", "l1", "integro", "pc"), default="termwise")
    p.add_argument("--t1", type=float, default=None,
                   help="grid end (default: 0.7 * empirical radius)")
    p.add_argument("--steps", type=int, help="grid cells for l1 and integro (default 2000)")
    p.add_argument("--grid", choices=("uniform", "graded"),
                   help="grid spacing for l1 and integro (default graded)")
    p.add_argument("--tol", type=float, default=None, help="override the method tolerance")

    p = sub.add_parser("radius", help="report the four radius estimates")
    common(p)

    p = sub.add_parser("compare", help="beta=1 series against the closed form")
    common(p)
    p.set_defaults(beta=1.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=200)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        steps = getattr(args, "steps", None)
        if steps is not None and steps < 1:
            raise ValueError("steps must be >= 1")
        if steps is not None and steps > MAX_STEPS:
            raise ValueError(f"steps must be <= {MAX_STEPS}")
        if args.n_terms > MAX_TERMS:
            raise ValueError(f"n_terms must be <= {MAX_TERMS}")
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
