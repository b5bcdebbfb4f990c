"""The benchmark's four workloads.

Each workload turns a seed into a list of inputs, runs one operation on an
input (the timed part) and checks the operation's output (untimed). Inputs
are stratified: every parameter range is cut into equal bins and each bin
gets one draw, so two seeds give different inputs with the same mix of
costs, which keeps throughput comparable from seed to seed.

Operations look felog's functions up through their modules at call time,
so the wrappers that ``spans.install`` rebinds are the ones called.

``reference`` names the reference kernel (reference.py) whose time, sampled
between ops, scales the workload's op times: the one whose work is most like
the op's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import felog.cli
from felog import fracops, series_solution
from felog.cli import VERIFY_TOLERANCES

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PASS, KNOWN_DEFECT, FAIL = "pass", "known_defect", "fail"

#: Tolerance of the kernel-pair identity (acceptance criterion 6).
KERNEL_PAIR_TOL = 1e-10
#: Times at which the kernel pair is checked (as in criterion 6).
KERNEL_PAIR_T = (0.5, 1.0, 3.0)
#: Tolerance of ``r_empirical`` against pi * m at beta = 1.
CLASSICAL_RADIUS_TOL = 1e-3


@dataclass
class Outcome:
    """Result of one op's check. ``accuracy`` holds the op's error figures,
    reported only when the op passed."""

    status: str
    detail: str = ""
    accuracy: dict = field(default_factory=dict)


def strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of ``k`` equal bins of [lo, hi], shuffled."""
    values = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(values)
    return values


def betas(rng: random.Random, k: int, lo: float, share_at_one: float) -> list[float]:
    """``k`` orders in [lo, 1): stratified, plus a point mass at exactly 1."""
    at_one = round(k * share_at_one)
    values = strata(rng, k - at_one, lo, 1.0) + [1.0] * at_one
    rng.shuffle(values)
    return values


def _status(problems: list[str], known: bool) -> str:
    if not problems:
        return PASS
    return KNOWN_DEFECT if known else FAIL


class Series:
    """In-process: recurrence, radius, grid and scalar evaluation."""

    name = "series"
    reference = "interp"
    in_process = True
    N_TERMS = (64, 256, 1024)
    PER_SIZE = 64
    GRID_POINTS = 4000
    SCALAR_CALLS = 6
    WINDOW = 0.9

    def __init__(self) -> None:
        g = self.GRID_POINTS
        self.scalar_index = [g * (j + 1) // (self.SCALAR_CALLS + 1) for j in range(self.SCALAR_CALLS)]

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"series-{seed}")
        per_size = []
        for n in self.N_TERMS:
            bs = betas(rng, self.PER_SIZE, 0.2, 0.25)
            ms = strata(rng, self.PER_SIZE, 1.0, 3.0)
            per_size.append([{"beta": b, "m": m, "n": n} for b, m in zip(bs, ms)])
        # interleave sizes so that any prefix has the same mix
        return [inp for group in zip(*per_size) for inp in group]

    def op(self, inp: dict) -> dict:
        sol = series_solution.SeriesSolution.build(inp["beta"], inp["m"], inp["n"])
        edge = sol.domain_edge
        # An unusable edge fails the check; the op still evaluates (up to
        # the majorant radius) so that its cost does not depend on the seed.
        usable = math.isfinite(edge) and edge > 0.0
        t_max = self.WINDOW * (edge if usable else sol.radius.r_guaranteed)
        t = np.linspace(0.0, t_max, self.GRID_POINTS)
        with warnings.catch_warnings():
            # underflowed coefficients overflow here; the check reports it
            warnings.simplefilter("ignore", RuntimeWarning)
            w = sol.evaluate(t).w
            scalars = [sol(float(t[i])) for i in self.scalar_index]
        return {"edge": edge, "t": t, "w": w, "scalars": scalars,
                "r_empirical": sol.radius.r_empirical}

    def check(self, inp: dict, out: dict) -> Outcome:
        problems = []
        edge = out["edge"]
        if not (math.isfinite(edge) and edge > 0.0):
            problems.append(f"domain_edge = {edge!r}")
        else:
            w = out["w"]
            if not (np.all(np.isfinite(w)) and np.all((w >= 0.5) & (w <= 1.0))):
                problems.append("w non-finite or outside [1/2, 1]")
            for i, s in zip(self.scalar_index, out["scalars"]):
                if not math.isclose(s, w[i], rel_tol=1e-12, abs_tol=0.0):
                    problems.append(f"sol({out['t'][i]!r}) = {s!r} != grid {w[i]!r}")
                    break
            if inp["beta"] == 1.0:
                r = out["r_empirical"]
                if r is None or not abs(r - math.pi * inp["m"]) <= CLASSICAL_RADIUS_TOL:
                    problems.append(f"r_empirical = {r!r}, pi*m = {math.pi * inp['m']!r}")
        accuracy = {}
        if not problems and inp["beta"] == 1.0:
            closed = 1.0 / (1.0 + np.exp(-out["t"] / inp["m"]))
            accuracy["err_classical"] = float(np.max(np.abs(out["w"] - closed)))
        # known defect (b): coefficient underflow at n = 1024
        return Outcome(_status(problems, inp["n"] == 1024), "; ".join(problems), accuracy)

    def warm_up(self, inputs: list[dict]) -> None:
        for inp in inputs[: len(self.N_TERMS)]:
            self.check(inp, self.op(inp))


class Quadrature:
    """In-process: the graded-grid history sums of the L1 and integrated
    oracles, beside the term-wise defect and the kernel pair."""

    name = "quadrature"
    reference = "interp"
    in_process = True
    N_TERMS = 256
    CELLS = 2000
    WINDOW = 0.8
    PER_SEED = 48

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"quadrature-{seed}")
        bs = betas(rng, self.PER_SEED, 0.5, 0.25)
        ms = strata(rng, self.PER_SEED, 1.0, 2.0)
        return [{"beta": b, "m": m} for b, m in zip(bs, ms)]

    def op(self, inp: dict) -> dict:
        beta = inp["beta"]
        sol = series_solution.SeriesSolution.build(beta, inp["m"], self.N_TERMS)
        grid = fracops.graded_grid(self.WINDOW * sol.domain_edge, self.CELLS, beta)
        out = {"termwise": fracops.verify(sol, "termwise").sup_norm,
               "l1": fracops.verify(sol, "l1", grid).sup_norm,
               "integro": fracops.verify(sol, "integro", grid).sup_norm}
        if beta < 1.0:
            out["kernel_pair"] = fracops.sonine_check(beta, KERNEL_PAIR_T)
        return out

    def check(self, inp: dict, out: dict) -> Outcome:
        tols = {"termwise": VERIFY_TOLERANCES["termwise"], "l1": VERIFY_TOLERANCES["l1"],
                "integro": VERIFY_TOLERANCES["integro"], "kernel_pair": KERNEL_PAIR_TOL}
        failed = [k for k, v in out.items() if not v <= tols[k]]
        problems = [f"{k} = {out[k]!r} > {tols[k]!r}" for k in failed]
        accuracy = {} if problems else {"sup_l1": out["l1"], "sup_integro": out["integro"]}
        # known defect (a): the L1 sum returns 0 at every node when beta = 1
        known = failed == ["l1"] and inp["beta"] == 1.0
        return Outcome(_status(problems, known), "; ".join(problems), accuracy)

    def warm_up(self, inputs: list[dict]) -> None:
        self.check(inputs[0], self.op(inputs[0]))


class Stepper:
    """In-process: the Adams-Bashforth-Moulton stepper at h = 1e-4."""

    name = "stepper"
    reference = "stream"
    in_process = True
    N_TERMS = 256
    STEP = 1e-4
    # A fixed horizon gives every op the same 16,000 steps, so the op cost
    # does not depend on the seed; it lies inside 0.8 * domain_edge for the
    # whole (beta, m) family (the smallest edge, at beta = .5, m = 1, is 2.17).
    T_END = 1.6
    PER_SEED = 16

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"stepper-{seed}")
        bs = strata(rng, self.PER_SEED, 0.5, 1.0)
        ms = strata(rng, self.PER_SEED, 1.0, 2.0)
        return [{"beta": b, "m": m} for b, m in zip(bs, ms)]

    def _verify(self, inp: dict, t_end: float) -> float:
        sol = series_solution.SeriesSolution.build(inp["beta"], inp["m"], self.N_TERMS)
        grid = fracops.uniform_grid(t_end, 8, inp["beta"])
        return fracops.verify(sol, "pc", grid, pc_step=self.STEP).sup_norm

    def op(self, inp: dict) -> dict:
        return {"pc": self._verify(inp, self.T_END)}

    def check(self, inp: dict, out: dict) -> Outcome:
        tol = VERIFY_TOLERANCES["predictor_corrector"]
        if out["pc"] <= tol:
            return Outcome(PASS, accuracy={"sup_pc": out["pc"]})
        return Outcome(FAIL, f"pc = {out['pc']!r} > {tol!r}")

    def warm_up(self, inputs: list[dict]) -> None:
        self._verify(inputs[0], 0.1)


class Cli:
    """One fresh ``felog`` process per op, checked against the same call
    made in-process."""

    name = "cli"
    reference = "interp"
    in_process = False
    KINDS = (("coeffs", 64), ("coeffs", 256), ("radius", 64), ("radius", 256),
             ("eval", None), ("verify", "termwise"), ("verify", "l1"),
             ("verify", "integro"), ("verify", "pc"), ("compare", None))
    CYCLES = 4

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env.pop("FELOG_FORMAT", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.command = [sys.executable, "-m", "felog.cli"]
        self.trace = None

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"cli-{seed}")
        out = []
        for _ in range(self.CYCLES):
            kinds = list(self.KINDS)
            rng.shuffle(kinds)
            bs = betas(rng, len(kinds), 0.5, 0.25)
            ms = strata(rng, len(kinds), 1.0, 2.0)
            for (cmd, arg), b, m in zip(kinds, bs, ms):
                out.append(self._input(cmd, arg, b, m))
        return out

    @staticmethod
    def _input(cmd: str, arg, beta: float, m: float) -> dict:
        argv = [cmd]
        if cmd == "compare":
            beta = 1.0
        else:
            argv += ["--beta", repr(beta)]
        argv += ["--m", repr(m), "--format", "json"]
        if cmd in ("coeffs", "radius"):
            argv += ["-n", str(arg)]
        elif cmd == "eval":
            argv += ["--steps", "200"]
        elif cmd == "verify":
            argv += ["--method", arg]
            if arg in ("l1", "integro"):
                argv += ["--steps", "2000"]
        return {"argv": argv, "beta": beta, "kind": cmd if arg is None else f"{cmd}-{arg}"}

    def start_trace(self, trace) -> None:
        self.trace = trace
        self.command = [sys.executable, str(HERE / "cli_child.py")]

    def stop_trace(self) -> None:
        self.trace = None
        self.command = [sys.executable, "-m", "felog.cli"]

    def op(self, inp: dict) -> subprocess.CompletedProcess:
        proc = subprocess.run(self.command + inp["argv"], capture_output=True, text=True,
                              env=self.env, timeout=120)
        if self.trace is not None:
            self._collect(proc)
        return proc

    def _collect(self, proc: subprocess.CompletedProcess) -> None:
        lines = proc.stderr.splitlines()
        if not lines or not lines[-1].startswith(spans.CHILD_MARK):
            raise RuntimeError("traced child reported no spans")
        report = json.loads(lines[-1][len(spans.CHILD_MARK):])
        self.trace.merge(report["spans"], report["import_s"] + report["main_s"])
        for key in ("import_s", "main_s"):
            self.trace.counts[f"cli.{key}"] += report[key]
        proc.stderr = "\n".join(lines[:-1])

    @staticmethod
    def run_in_process(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = felog.cli.main(argv)
        return code, out.getvalue()

    def check(self, inp: dict, proc: subprocess.CompletedProcess) -> Outcome:
        code, text = self.run_in_process(inp["argv"])
        problems = []
        if proc.returncode != code:
            problems.append(f"exit {proc.returncode}, in-process {code}: {proc.stderr.strip()[-200:]}")
        else:
            try:
                if not _same(json.loads(proc.stdout), json.loads(text)):
                    problems.append("output differs from the in-process call")
            except json.JSONDecodeError as exc:
                problems.append(f"unparsable output: {exc}")
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}")
        # known defect (a): verify --method l1 fails at beta = 1
        known = (problems == ["exit 1"] and inp["kind"] == "verify-l1" and inp["beta"] == 1.0)
        return Outcome(_status(problems, known), "; ".join(problems))

    def warm_up(self, inputs: list[dict]) -> None:
        self.check(inputs[0], self.op(inputs[0]))


def _same(a, b) -> bool:
    """Structural equality with floats equal to 12 significant digits."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12) or (math.isnan(a) and math.isnan(b))
    return a == b


WORKLOADS = {w.name: w for w in (Cli, Series, Quadrature, Stepper)}
