"""Compare what two felog trees output, case by case and bit for bit.

    python tools/compare_trees.py OLD NEW [--cases N]

OLD and NEW are checkouts of this repository, for example the parent of a
change made with ``git archive PARENT | tar -x -C DIR``. One fixed case list,
this file's, runs under each tree in a child interpreter that imports felog
from that tree's ``src/``. It has four families:

- cli: ``felog.cli.main`` in process, recording stdout (a JSON stdout as its
  parsed object, a CSV one as text), stderr and the exit code, for coeffs,
  eval, radius, compare and verify with each of its four methods, in json and
  csv, at beta in {1, .7, .3} (compare takes no beta), m in {1, 2} and n in
  {64, 256}: 176 cases;
- library: 104 cases, 100 drawn from a fixed numpy seed, beta in [.05, 1)
  and m in [1, 10], and 4 at beta = 1, m in {1, 3} and n in {64, 256}, each
  recording g, an array and two scalar evaluations, the radius report's JSON
  dict, and verify termwise and pc, and l1 and integro on a graded grid of
  400 cells to 0.7 domain_edge, so the graded history sums are checked
  outside the CLI's default grid too;
- demos: the stdout of the five demos, less the times that demo 04 prints;
- claims: the side checks of the paper's claims at fixed points, each
  recording what it returns or raises: ``bound_predicates`` on criterion 9's
  grid, on [0, 1], just below 1 and at points where rounding or the double
  range decides a flag; ``levy_tail_laplace`` at beta in {.1, .3, .7, .95} and
  lam from 1e-3 to 1e300; ``closed_form_check`` at m in {1, 1e34, 1e40}; and
  ``sonine_check``, ``stable_levy_tail`` and the ``remark_*`` formulas.

Every float is recorded as ``float.hex``, so "identical" means the same bits.
For each family the report says "identical", or how many cases moved and then
one line for each field that moved: in how many cases, its largest relative
move, and the case and the place where that move is. A field is a recorded
path less its list indices and number positions (``g`` for every ``g[k]``),
and for cli it leads with the command (``verify l1 stdout.sup_norm``), so a
field at rounding level cannot hide the moves of another. ``--cases N`` runs N
cases of each family, spread over its list. The exit code is 0 when every
family is identical, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

BETAS, MS, NS, FORMATS = ("1", "0.7", "0.3"), ("1", "2"), ("64", "256"), ("json", "csv")
COMMANDS = ("coeffs", "eval", "radius", "compare", "verify termwise", "verify l1",
            "verify integro", "verify pc")
LIBRARY_SEED, LIBRARY_CASES = 2017, 100
_HEX = re.compile(r"-?0x[0-9a-f.]+p[-+]\d+|-?inf|nan")
# a decimal number, inf or nan, but not the digits of a name such as log10_mag
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|-?\binf\b|\bnan\b")
# what _moves adds to a path to say where in a list or a text a move is
_POSITION = re.compile(r"\[\d+\]| \(number \d+\)")


def _pick(cases: list, limit) -> list:
    """``limit`` cases spread evenly over ``cases``, or all of them."""
    if limit is None or limit >= len(cases):
        return cases
    return [cases[len(cases) * i // limit] for i in range(limit)]


def _plain(value):
    """``value`` as JSON data: each float as its float.hex, arrays as lists."""
    import numpy as np

    if isinstance(value, np.ndarray):
        value = value.tolist()
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    return value


def _outcome(call):
    """What ``call()`` returns, or the exception it raises, as JSON data."""
    try:
        return _plain(call())
    except Exception as exc:  # a refusal is an output too
        return {"error": f"{type(exc).__name__}: {exc}"}


def _cli_cases() -> list:
    cases = []
    for command in COMMANDS:
        name, _, method = command.partition(" ")
        for beta in BETAS if name != "compare" else (None,):
            for m in MS:
                for n in NS:
                    for fmt in FORMATS:
                        argv = [name] + (["--beta", beta] if beta else [])
                        argv += ["--m", m, "-n", n, "--format", fmt]
                        cases.append(argv + (["--method", method] if method else []))
    return cases


def _run_cli(argv: list) -> dict:
    from felog.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
    stdout = out.getvalue()
    if "json" in argv and stdout:  # one object: each of its keys is a field of its own
        stdout = _plain(json.loads(stdout))
    return {"stdout": stdout, "stderr": err.getvalue(), "code": code}


def _library_cases() -> list:
    import numpy as np

    rng = np.random.default_rng(LIBRARY_SEED)
    drawn = [(float(rng.uniform(0.05, 1.0)), float(rng.uniform(1.0, 10.0)),
              int(rng.choice((32, 64, 256, 1024)))) for _ in range(LIBRARY_CASES)]
    # the draw never gives beta = 1, where the graded sums take their O(N) form
    return drawn + [(1.0, m, n) for m in (1.0, 3.0) for n in (64, 256)]


def _run_library(beta: float, m: float, n: int) -> dict:
    import numpy as np

    from felog import SeriesSolution, graded_grid, radius_report, uniform_grid, verify

    sol = SeriesSolution.build(beta, m, n)
    edge = sol.domain_edge
    t = np.linspace(0.0, 0.9 * edge if 0.0 < edge < math.inf else 1.0, 17)

    def scalar(x):
        res = sol.evaluate(float(x))
        return {"w": res.w, "tail_bound": res.tail_bound, "in_domain": res.in_domain}

    def evaluate():
        res = sol.evaluate(t)
        return {"w": res.w, "tail_bound": res.tail_bound, "in_domain": res.in_domain}

    def graded(method):
        return verify(sol, method, graded_grid(0.7 * edge, 400, beta)).to_json_dict()

    # the stepper's end is held to 4, at most 4000 steps of h = 1e-3
    pc_end = min(0.7 * edge, 4.0)
    return {
        "g": _plain(sol.seq.g),
        "evaluate": _outcome(evaluate),
        "scalar": [_outcome(lambda: scalar(t[8])), _outcome(lambda: scalar(t[16]))],
        "radius": _outcome(lambda: radius_report(sol.seq).to_json_dict()),
        "termwise": _outcome(lambda: verify(sol, "termwise").to_json_dict()),
        "pc": _outcome(lambda: verify(sol, "pc", uniform_grid(pc_end, 2, beta)).to_json_dict()),
        "l1": _outcome(lambda: graded("l1")),
        "integro": _outcome(lambda: graded("integro")),
    }


def _run_demo(path: Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    text = out.getvalue()
    if path.name.startswith("04_"):
        text = re.sub(r", \d+\.\d+s\)", ")", text)  # the wall time of each method
    return {"stdout": text}


def _claim_cases() -> list:
    """(function, args) for each side check; closed_form_check's args are the
    (beta, m, n) of the sequence it checks."""
    crit9 = (1.01, 1.5, 2.0, 5.0, 10.0, 50.0)
    below_one = (0.9999999999999997, 0.9999999999999996, 0.9999999999999994)
    cases = [("bound_predicates", (x, y)) for x in crit9 for y in crit9]
    cases += [("bound_predicates", (x,)) for x in (0.0, 0.25, 0.5, 0.75, 1.0) + below_one]
    # one flag decided, the other left to rounding; then the double range and rounding
    cases += [("bound_predicates", args) for args in ((1 + 1e-8, 5.0), (1e13, 2.0),
              (sys.float_info.max,), (2.0, sys.float_info.max), (1e14,),
              (1.000000001, 1e10), (1 + 3e-8,))]
    cases += [("levy_tail_laplace", (beta, lam)) for beta in (0.1, 0.3, 0.7, 0.95)
              for lam in (1e-3, 0.01, 0.1, 1.0, 3.0, 1e300)]
    cases += [("closed_form_check", (0.7, m, 12)) for m in (1.0, 1e34, 1e40)]
    cases += [("sonine_check", (beta, [0.5, 2.0])) for beta in (0.1, 0.5, 0.9)]
    cases += [("stable_levy_tail", args) for args in ((0.5, 1.0), (0.3, 2.0), (0.999999, 5e-324))]
    cases += [(name, (0.75,)) for name in ("remark_radius", "remark_bound_pole")]
    return cases + [("remark_bound", (beta, 0.5)) for beta in (0.75, 1.0)]


def _run_claim(name: str, args: tuple):
    import felog

    if name == "closed_form_check":
        return felog.closed_form_check(felog.build_sequence(*args))
    return getattr(felog, name)(*args)


def record(tree: Path, limit) -> dict:
    """Every family's cases under ``tree``: {family: [[label, output], ...]}."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import felog

    if Path(felog.__file__).resolve().parent.parent != src:
        raise SystemExit(f"felog was imported from {felog.__file__}, not from {src}")
    warnings.simplefilter("always")  # the same warnings in every case, in any order
    cli = [[" ".join(argv), _run_cli(argv)] for argv in _pick(_cli_cases(), limit)]
    library = [[f"beta={b!r} m={m!r} n={n}", _outcome(lambda: _run_library(b, m, n))]
               for b, m, n in _pick(_library_cases(), limit)]
    demos = [[path.name, _outcome(lambda: _run_demo(path))]
             for path in _pick(sorted((tree / "demos").glob("*.py")), limit)]
    claims = [[f"{name}{args!r}", _outcome(lambda: _run_claim(name, args))]
              for name, args in _pick(_claim_cases(), limit)]
    return {"cli": cli, "library": library, "demos": demos, "claims": claims}


def _numbers(text: str):
    """The floats in a recorded leaf and the text around them."""
    if _HEX.fullmatch(text):
        return [float.fromhex(text)], ["", ""]
    return [float(x) for x in _NUMBER.findall(text)], _NUMBER.split(text)


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0  # the same value in other bits: the sign of a zero
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _moves(old, new, path: str):
    """(field, relative move) for each leaf where ``old`` and ``new`` differ;
    a changed shape, type or text is an infinite move."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            field = f"{path}.{key}" if path else key
            if key not in old or key not in new:
                yield field, math.inf
            else:
                yield from _moves(old[key], new[key], field)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{path} (length {len(old)} -> {len(new)})", math.inf
        for k, (a, b) in enumerate(zip(old, new)):
            yield from _moves(a, b, f"{path}[{k}]")
    elif old != new or type(old) is not type(new):
        if not (isinstance(old, str) and isinstance(new, str)):
            yield path, math.inf
            return
        (a, around_a), (b, around_b) = _numbers(old), _numbers(new)
        if around_a != around_b or len(a) != len(b):
            yield path, math.inf
            return
        for k, (x, y) in enumerate(zip(a, b)):
            if x.hex() != y.hex():
                yield (f"{path} (number {k})" if len(a) > 1 else path), _relative(x, y)


def _field(family: str, label: str, path: str) -> str:
    """The field of a move at ``path`` in case ``label``: the path less its
    list indices and number positions, after the command for cli."""
    field = _POSITION.sub("", path) or "(all)"
    if family != "cli":
        return field
    argv = label.split()
    method = argv[argv.index("--method") + 1:][:1] if "--method" in argv else []
    return " ".join([argv[0], *method, field])


def compare(old: dict, new: dict) -> tuple[list, bool]:
    """Per family, one report line and one more per moved field, and whether
    every family is identical. Cases pair by label; a case that only one tree
    has moved infinitely."""
    lines, same = [], True
    for family in old:
        cases_old, cases_new = dict(old[family]), dict(new[family])
        labels = list(cases_old) + [k for k in cases_new if k not in cases_old]
        fields = {}  # field: {case: (its largest move in that case, where)}
        for label in labels:
            for path, move in _moves(cases_old.get(label), cases_new.get(label), ""):
                cases = fields.setdefault(_field(family, label, path), {})
                if label not in cases or move > cases[label][0]:
                    cases[label] = (move, path or "(all)")
        moved = {label for cases in fields.values() for label in cases}
        if not moved:
            lines.append(f"{family}: identical ({len(labels)} cases)")
            continue
        same = False
        lines.append(f"{family}: {len(moved)} of {len(labels)} cases moved")
        for field, cases in fields.items():
            label, (move, path) = max(cases.items(), key=lambda case: case[1][0])
            lines.append(f"  {field}: moved in {len(cases)} of {len(labels)} cases, largest "
                         f"relative move {move:.3g} in case '{label}' at {path}")
    return lines, same


def _record_in_child(tree: Path, limit) -> subprocess.Popen:
    argv = [sys.executable, str(Path(__file__).resolve()), "--record", str(tree)]
    argv += [] if limit is None else ["--cases", str(limit)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave each tree as it was
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", type=Path, help="the tree to compare from")
    parser.add_argument("new", nargs="?", type=Path, help="the tree to compare to")
    parser.add_argument("--cases", type=int, default=None,
                        help="cases per family, spread over its list (default: all)")
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cases is not None and args.cases < 1:
        parser.error("--cases must be at least 1")
    if args.record is not None:
        print(json.dumps(record(args.record, args.cases)))
        return 0
    if args.old is None or args.new is None:
        parser.error("give two trees, OLD and NEW")
    children = [_record_in_child(tree.resolve(), args.cases) for tree in (args.old, args.new)]
    records = []
    for tree, child in zip((args.old, args.new), children):
        out, err = child.communicate()
        if child.returncode != 0:
            sys.exit(f"recording under {tree} failed:\n{err}")
        records.append(json.loads(out.splitlines()[-1]))
    lines, same = compare(*records)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
