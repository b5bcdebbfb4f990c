"""felog's benchmark: four closed-loop workloads, each in its own process.

    python3 bench/run.py --workload series --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each

One client runs one op at a time for ``--seconds`` seconds on inputs made
from ``--seed``, and every op's output is checked. Times are scaled to the
host at full speed by a reference kernel timed beside them (reference.py).
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run is split into an untraced and
a traced half and the metrics are the per-layer ones. Lines before it are a
readable table and a JSON report with the machine and provenance facts. See
bench/README.md.
"""

import time

import reference  # standard library only

#: Brackets the set-up clock with reference-kernel samples (see reference.py).
_SETUP_GAUGE = reference.Gauge("interp")
_SETUP_GAUGE.sample()
_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli", "series", "quadrature", "stepper")

#: Set-up is repeated this many times per run (once here, the rest in
#: fresh processes) and the median reported.
SETUP_SAMPLES = 3
#: ``-X importtime`` profiles per traced run; each figure is the median.
IMPORT_SAMPLES = 3

#: The end-to-end metrics of the result line: those that apply to every
#: workload, are never 0 and stay steady from run to run. The op-time
#: percentiles flip between the two speeds of a shared host (see README)
#: and are reported beside them instead.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

#: Accuracy figures (set by discretisation or truncation error) and the
#: workload each one is measured on.
ACCURACY = {"sup_l1": "quadrature", "sup_integro": "quadrature",
            "sup_pc": "stepper", "err_classical": "series"}

SPAN_FIELDS = {
    "specfun.ln_gamma": ("calls", "self_s"),
    "euler_beta.build_sequence": ("calls", "terms", "self_s"),
    "series_solution.radius_report": ("self_s",),
    "series_solution.evaluate.grid": ("calls", "point_terms", "self_s", "gflops"),
    "series_solution.evaluate.scalar": ("calls", "self_s"),
    "fracops.verify.termwise": ("self_s",),
    "fracops.caputo_termwise": ("self_s",),
    "fracops.caputo_l1_all": ("history_terms", "self_s", "gflops"),
    "fracops.fractional_integral_midpoint": ("history_terms", "self_s", "gflops"),
    "fracops.solve_pc": ("steps", "history_terms", "self_s", "gflops", "bytes"),
    "fracops.sonine_check": ("self_s",),
}
#: Counts are per timed op, so runs of different lengths compare.
FIELD_UNITS = {"calls": "1/op", "terms": "1/op", "point_terms": "1/op",
               "history_terms": "1/op", "steps": "1/op", "bytes": "B/op",
               "self_s": "s", "gflops": "GFLOP/s", "share": "fraction"}

PER_LAYER = {
    "import.felog_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "import.modules": "count",
    "cli.import_s": "s", "cli.main_s": "s", "cli.interp_s": "s",
    **{f"{span}.{f}": FIELD_UNITS[f] for span, fs in SPAN_FIELDS.items() for f in fs + ("share",)},
    "trace.overhead_frac": "fraction", "trace.coverage": "fraction",
    "fail_frac": "failed/attempted", "op_p50_s": "s", "op_p90_s": "s",
    **{name: "abs" for name in ACCURACY},
}

#: Units of the report's figures that are not metrics.
REPORT_UNITS = {"wall_ops_per_s": "1/s", "wall_setup_s": "s", "ref_kernel_ms": "ms"}

TAIL_PERCENTILES = ("90", "99", "99.9")


def percentile(values, p) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(str(p)) * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(n: int):
    """The highest of TAIL_PERCENTILES with at least ten of ``n`` samples
    above it, or None."""
    ok = [p for p in TAIL_PERCENTILES if n - math.ceil(Fraction(p) * n / 100) >= 10]
    return ok[-1] if ok else None


@dataclass
class Measurement:
    """Timed ops of one phase, their check outcomes and the reference-kernel
    samples taken between them."""

    gauge: reference.Gauge
    starts: list = field(default_factory=list)
    durations: list = field(default_factory=list)
    statuses: Counter = field(default_factory=Counter)
    accuracy: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def ops_per_s(self) -> float:
        """Ops / summed op time, each op's time scaled to the host at full
        speed by the reference kernel timed around it."""
        return self.attempted / self.gauge.scaled_sum(self.starts, self.durations)

    @property
    def wall_ops_per_s(self) -> float:
        """Ops / summed op time as the clock read it, unscaled."""
        return self.attempted / sum(self.durations)

    def merged(self, other: "Measurement") -> "Measurement":
        accuracy = dict(self.accuracy)
        for name, value in other.accuracy.items():
            accuracy[name] = max(value, accuracy.get(name, value))
        return Measurement(self.gauge.merged(other.gauge), self.starts + other.starts,
                           self.durations + other.durations, self.statuses + other.statuses,
                           accuracy, self.failures + other.failures)


def measure(workload, inputs, seconds: float, trace=None) -> Measurement:
    """Run ops back to back until ``seconds`` have passed (at least one op).

    Only the op is timed; its check runs after the clock stops. An op that
    raises or fails its check is counted, never dropped. The workload's
    reference kernel is sampled between ops and after the last.
    """
    from workloads import FAIL, Outcome

    m = Measurement(reference.Gauge(workload.reference))
    for _ in range(3):  # warm the kernel up
        m.gauge.kernel()
    start = time.perf_counter()
    i = 0
    while True:
        if m.gauge.due():
            m.gauge.sample()
        inp = inputs[i % len(inputs)]
        if trace is not None:
            trace.current_op = i
        t0 = time.perf_counter()
        try:
            out = workload.op(inp)
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        m.durations.append(time.perf_counter() - t0)
        m.starts.append(t0)
        if error is None:
            try:
                outcome = workload.check(inp, out)
            except Exception as exc:  # so is one whose output breaks the check
                outcome = Outcome(FAIL, f"check raised {type(exc).__name__}: {exc}")
        else:
            outcome = Outcome(FAIL, error)
        m.statuses[outcome.status] += 1
        if outcome.status != "pass" and len(m.failures) < 20:
            m.failures.append({"input": inp, "status": outcome.status,
                               "detail": outcome.detail})
        for name, value in outcome.accuracy.items():
            m.accuracy[name] = max(value, m.accuracy.get(name, value))
        i += 1
        if time.perf_counter() - start >= seconds:
            m.gauge.sample()
            return m


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process for the same workload and seed."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--seed", str(seed), "--setup-only"],
                          capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def import_figures() -> dict:
    """Medians of ``python -X importtime -c "import felog.cli"`` profiles."""
    from spans import import_profile

    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import felog.cli"],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        runs.append(import_profile(proc.stderr))
    return {f"import.{k}": statistics.median(r[k] for r in runs) for k in runs[0]}


def provenance(seed: int) -> dict:
    """Machine and provenance facts, read without changing anything."""
    import numpy as np

    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": read("/proc/loadavg").split()[:3],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
    }


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(wl, m: Measurement, setup_s: float, seed: int) -> tuple[dict, dict]:
    """(contract metrics, every applicable end-to-end figure)."""
    rss = peak_rss_mb(wl.in_process)  # before the set-up children exist
    setups = [setup_s] + [child_setup_s(wl.name, seed) for _ in range(SETUP_SAMPLES - 1)]
    values = {"setup_s": statistics.median(setups), "ops_per_s": m.ops_per_s, "peak_rss_mb": rss}
    report = dict(values, wall_ops_per_s=m.wall_ops_per_s,
                  ref_kernel_ms=1e3 * m.gauge.median_s(), op_p50_s=percentile(m.durations, 50))
    report["setup_samples_s"] = setups
    tail = tail_percentile(m.attempted)
    if tail is not None:
        report["op_p90_s"] = percentile(m.durations, 90)
        report[f"op_p{tail}_s"] = percentile(m.durations, tail)
    report["fail_frac"] = fail_frac(m)
    report.update({k: m.accuracy.get(k, 0.0) for k, w in ACCURACY.items() if w == wl.name})
    return values, report


def fail_frac(m: Measurement) -> float:
    return (m.attempted - m.statuses["pass"]) / m.attempted


def traced(wl, inputs, seconds: float) -> tuple[dict, dict, Measurement]:
    """Untraced half, then traced half; per-layer metrics from the second."""
    import spans

    base = measure(wl, inputs, seconds / 2)
    trace = spans.Trace()
    if wl.in_process:
        spans.install(trace)
    else:
        wl.start_trace(trace)
    try:
        run = measure(wl, inputs, seconds / 2, trace)
    finally:
        if wl.in_process:
            trace.uninstall()
        else:
            wl.stop_trace()
    summary = trace.summary()
    wall = sum(run.durations)
    values = dict(import_figures())
    cli = summary.get("cli", {})
    values["cli.import_s"] = cli.get("import_s", 0.0) / run.attempted
    values["cli.main_s"] = cli.get("main_s", 0.0) / run.attempted
    values["cli.interp_s"] = (0.0 if wl.in_process else
                              wall / run.attempted - values["cli.import_s"] - values["cli.main_s"])
    for span, fields in SPAN_FIELDS.items():
        stats = summary.get(span, {})
        self_s = stats.get("self_s", 0.0)
        terms = stats.get("point_terms", stats.get("history_terms", 0.0))
        for f in fields:
            if f == "gflops":
                values[f"{span}.gflops"] = 2.0 * terms / self_s / 1e9 if self_s > 0 else 0.0
            elif f == "bytes":
                # computed: two float64 operands streamed per history term
                values[f"{span}.bytes"] = 16.0 * stats.get("history_terms", 0.0) / run.attempted
            elif f == "self_s":
                values[f"{span}.self_s"] = self_s
            else:
                values[f"{span}.{f}"] = stats.get(f, 0.0) / run.attempted
        values[f"{span}.share"] = self_s / wall
    values["trace.overhead_frac"] = base.ops_per_s / run.ops_per_s - 1.0
    values["trace.coverage"] = trace.covered_s() / wall
    both = base.merged(run)
    values["fail_frac"] = fail_frac(both)
    values["op_p50_s"] = percentile(base.durations, 50)
    values["op_p90_s"] = percentile(base.durations, 90) if tail_percentile(base.attempted) else 0.0
    values.update({k: both.accuracy.get(k, 0.0) for k in ACCURACY})
    extra = {"spans": dict(sorted(summary.items())),
             "predictions": predictions(wl.name, values, base)}
    return values, extra, both


def predictions(workload: str, v: dict, base: Measurement) -> list:
    """The layer shares predicted before measuring, against what was measured."""
    def share(*spans):
        return sum(v[f"{span}.share"] for span in spans)

    graded = share("fracops.caputo_l1_all", "fracops.fractional_integral_midpoint")
    fracops = sum(x for k, x in v.items() if k.startswith("fracops.") and k.endswith(".share"))
    claims = {  # (quantity, measured, lowest predicted, highest predicted)
        "stepper": [("fracops.solve_pc share", share("fracops.solve_pc"), 0.8, 1.0),
                    ("graded sums share", graded, 0.0, 0.0)],
        "quadrature": [("graded sums share", graded, 0.7, 1.0),
                       ("fracops.solve_pc share", share("fracops.solve_pc"), 0.0, 0.0)],
        "series": [("fracops share", fracops, 0.0, 0.0),
                   ("build_sequence + ln_gamma share",
                    share("euler_beta.build_sequence", "specfun.ln_gamma"), 0.15, 1.0),
                   ("evaluate.grid share", share("series_solution.evaluate.grid"), 0.15, 1.0),
                   ("evaluate.scalar share", share("series_solution.evaluate.scalar"), 0.15, 1.0)],
        "cli": [("import.felog_s / median op time",
                 v["import.felog_s"] / percentile(base.durations, 50), 0.5, 1.0)],
    }[workload]
    if workload != "cli":
        claims.append(("trace.coverage", v["trace.coverage"], 0.9, 1.0))
    return [{"prediction": f"{name} in [{lo}, {hi}]", "measured": x, "holds": lo <= x <= hi}
            for name, x, lo, hi in claims]


def print_table(values: dict) -> None:
    units = {**END_TO_END, **PER_LAYER, **REPORT_UNITS}
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units.get(name, 's')}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    _SETUP_GAUGE.sample()  # between the imports and the warm-up

    wl = workloads.WORKLOADS[args.workload]()
    if not wl.in_process:
        # its felog children inherit this, so the reference kernel, timed
        # here, runs on the CPU they ran on (the two vCPUs of a shared host
        # are often at different speeds at the same moment)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs = wl.inputs(args.seed)
    wl.warm_up(inputs)
    end = time.perf_counter()
    _SETUP_GAUGE.sample()
    setup_s = _SETUP_GAUGE.scaled(_T0, end - _T0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    facts = provenance(args.seed)
    if args.trace:
        values, extra, m = traced(wl, inputs, args.seconds)
        units, table = PER_LAYER, values
    else:
        m = measure(wl, inputs, args.seconds)
        values, report = end_to_end(wl, m, setup_s, args.seed)
        report["wall_setup_s"] = end - _T0
        extra = {"all_end_to_end": report}
        units, table = END_TO_END, {k: v for k, v in report.items() if k != "setup_samples_s"}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    unexpected = m.statuses["fail"]
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {m.attempted}  known-defect {m.statuses['known_defect']}  failed {unexpected}")
    print_table(table)
    print(json.dumps({"report": {"workload": wl.name, "provenance": facts,
                                 "statuses": dict(m.statuses), "failures": m.failures, **extra}}))
    print(json.dumps({"correct": unexpected == 0, "attempted": m.attempted,
                      "failed": unexpected, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print it (used for the setup_s median)")
    args = parser.parse_args(argv)
    if not (SRC / "felog" / "__init__.py").is_file():
        print(f"error: felog sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
