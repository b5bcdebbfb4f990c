"""Spans around calls into felog's public functions, kept in memory.

The wrappers live here, in the benchmark, and are installed by rebinding
module and class attributes inside the current process only;
:meth:`Trace.uninstall` puts the original objects back. Untraced runs never
call :func:`install`, so they import and run felog untouched.

Each span records its name, start, end, parent span and op id. Counts
(terms, points, steps, history terms) are recorded at the same boundaries.
Self time is a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import defaultdict

import numpy as np

__all__ = ["CHILD_MARK", "Trace", "install", "self_times", "import_profile"]

#: Prefix of the stderr line on which a traced child process reports.
CHILD_MARK = "@@felog-bench "


class Trace:
    """Spans and counters of one traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        # span statistics merged in from child processes (the cli workload)
        self.merged: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.merged_covered_s = 0.0

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` in a span.

        ``name`` is a string or a function of ``(args, kwargs)`` giving one;
        ``count(result, args, kwargs)`` returns ``{counter: amount}`` added
        under ``<span name>.<counter>``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            idx = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                for key, amount in count(result, args, kwargs).items():
                    self.counts[f"{span}.{key}"] += amount
            return result

        return traced

    def rebind(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` and remember the original for :meth:`uninstall`."""
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def merge(self, summary: dict, covered_s: float) -> None:
        """Add span statistics reported by a child process."""
        for name, stats in summary.items():
            for key, value in stats.items():
                self.merged[name][key] += value
        self.merged_covered_s += covered_s

    def summary(self) -> dict:
        """``{span name: {"calls", "self_s", counters...}}`` over all spans,
        local and merged."""
        own = self_times(self.start, self.end, self.parent)
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for nid, self_s in zip(self.name_id, own):
            stats = out[self.names[nid]]
            stats["calls"] += 1
            stats["self_s"] += self_s
        for key, amount in self.counts.items():
            span, counter = key.rsplit(".", 1)
            out[span][counter] += amount
        for name, stats in self.merged.items():
            for key, value in stats.items():
                out[name][key] += value
        return {name: dict(stats) for name, stats in out.items()}

    def covered_s(self) -> float:
        """Time inside any top-level span (spans of one thread never overlap
        unless nested)."""
        local = sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)
        return local + self.merged_covered_s


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    own = [e - s for s, e in zip(start, end)]
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        intervals = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_lo = cur_hi = None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own[p] -= covered
    return own


def _verify_span(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs["method"]
    return "fracops.verify." + ("pc" if method == "predictor_corrector" else method)


def _evaluate_span(args, kwargs) -> str:
    t = args[1] if len(args) > 1 else kwargs["t"]
    return "series_solution.evaluate." + ("scalar" if np.ndim(t) == 0 else "grid")


def _evaluate_count(result, args, kwargs) -> dict:
    sol = args[0]
    t = args[1] if len(args) > 1 else kwargs["t"]
    # Horner runs over the odd coefficients only
    return {"point_terms": np.size(t) * (sol.seq.g.size // 2)}


def _history_count(result, args, kwargs) -> dict:
    # node n of N sums n past cells
    n = len(result)
    return {"history_terms": n * (n + 1) // 2}


def _stepper_count(result, args, kwargs) -> dict:
    # step n reads n + 1 predictor terms and n corrector terms
    steps = len(result[0]) - 1
    return {"steps": steps, "history_terms": steps * steps}


#: (module, attribute, span name, counter) for every module-level function
#: that gets a span. The span name is the defining module and the function.
_FUNCTIONS = [
    ("specfun", "ln_gamma", "specfun.ln_gamma", None),
    ("euler_beta", "build_sequence", "euler_beta.build_sequence",
     lambda r, a, k: {"terms": r.n_terms}),
    ("series_solution", "radius_report", "series_solution.radius_report", None),
    ("fracops", "verify", _verify_span, None),
    ("fracops", "caputo_termwise", "fracops.caputo_termwise", None),
    ("fracops", "caputo_l1_all", "fracops.caputo_l1_all", _history_count),
    ("fracops", "fractional_integral_midpoint", "fracops.fractional_integral_midpoint",
     _history_count),
    ("fracops", "solve_pc", "fracops.solve_pc", _stepper_count),
    ("fracops", "sonine_check", "fracops.sonine_check", None),
    ("fracops", "graded_grid", "fracops.graded_grid", None),
    ("fracops", "uniform_grid", "fracops.uniform_grid", None),
    ("fracops", "make_grid", "fracops.make_grid", None),
]


def install(trace: Trace) -> None:
    """Rebind felog's public functions to span-recording wrappers.

    A function imported by name into several modules (``ln_gamma`` is bound
    in five) is rebound in every module that holds the same object, so the
    wrapper sees calls made from inside the package too.
    """
    import felog
    import felog.cli
    from felog import euler_beta, fracops, series_solution, specfun

    modules = {"specfun": specfun, "euler_beta": euler_beta,
               "series_solution": series_solution, "fracops": fracops}
    holders = [felog, specfun, euler_beta, series_solution, fracops, felog.cli]
    for home, attr, name, count in _FUNCTIONS:
        original = getattr(modules[home], attr)
        wrapped = trace.wrap(name, original, count)
        for module in holders:
            if vars(module).get(attr) is original:
                trace.rebind(module, attr, wrapped)

    cls = series_solution.SeriesSolution
    build = vars(cls)["build"]
    trace.rebind(cls, "build", classmethod(
        trace.wrap("series_solution.SeriesSolution.build", build.__func__)))
    trace.rebind(cls, "evaluate", trace.wrap(_evaluate_span, vars(cls)["evaluate"],
                                             _evaluate_count))


def _import_rows(text: str) -> list[tuple[int, str, float]]:
    """(depth, module, cumulative seconds) per ``-X importtime`` line."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        rows.append((depth, raw.strip(), int(fields[1]) * 1e-6))
    return rows


def import_profile(text: str, packages=("felog", "scipy", "numpy")) -> dict:
    """Cumulative import seconds per package, and the number of modules.

    A package's time is the sum of the cumulative times of its outermost
    entries: those whose importer is not itself in the package.
    """
    rows = _import_rows(text)
    # importtime prints a module after everything it imports, so walking
    # the lines backwards meets each importer before the modules it imported
    importer: list[str | None] = [None] * len(rows)
    stack: list[tuple[int, str]] = []
    for i in range(len(rows) - 1, -1, -1):
        depth, name, _ = rows[i]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        importer[i] = stack[-1][1] if stack else None
        stack.append((depth, name))

    def within(module, package):
        return module is not None and (module == package or module.startswith(package + "."))

    out = {f"{p}_s": sum(cum for (_, name, cum), parent in zip(rows, importer)
                         if within(name, p) and not within(parent, p))
           for p in packages}
    out["modules"] = len(rows)
    return out
