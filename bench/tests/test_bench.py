"""Tests of the benchmark itself (not of felog)."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import felog  # noqa: E402
import felog.cli  # noqa: E402
from felog import euler_beta, fracops, series_solution, specfun  # noqa: E402

HOLDERS = (felog, specfun, euler_beta, series_solution, fracops, felog.cli)


def _wrapped_attributes():
    found = [f"{m.__name__}.{name}" for m in HOLDERS for name, obj in vars(m).items()
             if callable(obj) and hasattr(obj, "__wrapped__")]
    cls = vars(series_solution.SeriesSolution)
    found += [name for name in ("build", "evaluate")
              if hasattr(getattr(cls[name], "__func__", cls[name]), "__wrapped__")]
    return found


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_fixes_the_inputs(name):
    wl = workloads.WORKLOADS[name]()
    assert wl.inputs(7) == wl.inputs(7)
    assert wl.inputs(7) != wl.inputs(8)


def test_series_inputs_keep_the_size_mix_and_point_mass():
    inputs = workloads.Series().inputs(3)
    assert [inp["n"] for inp in inputs[:6]] == [64, 256, 1024] * 2
    at_one = [inp for inp in inputs if inp["beta"] == 1.0]
    assert len(at_one) == 3 * 16
    assert all(0.2 <= inp["beta"] <= 1.0 and 1.0 <= inp["m"] <= 3.0 for inp in inputs)


def test_percentile_selection_follows_the_ten_beyond_rule():
    assert run.tail_percentile(99) is None
    assert run.tail_percentile(100) == "90"
    assert run.tail_percentile(999) == "90"
    assert run.tail_percentile(1000) == "99"
    assert run.tail_percentile(9999) == "99"
    assert run.tail_percentile(10000) == "99.9"
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([3.0], 99.9) == 3.0


def test_self_time_subtracts_the_union_of_children():
    # 0: root [0, 10]; 1: [1, 4] with child 2: [2, 3]; 3: [3.5, 6] overlaps 1;
    # 4: [9, 12] runs past the root and is clipped to it
    start = [0.0, 1.0, 2.0, 3.5, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    own = spans.self_times(start, end, parent)
    assert own == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_trace_summary_and_coverage():
    trace = spans.Trace()
    leaf = trace.wrap("leaf", lambda x: x, lambda r, a, k: {"items": r})
    outer = trace.wrap("outer", lambda: leaf(2) + leaf(3))
    assert outer() == 5
    summary = trace.summary()
    assert summary["leaf"]["calls"] == 2 and summary["leaf"]["items"] == 5
    assert summary["outer"]["calls"] == 1
    total = summary["outer"]["self_s"] + summary["leaf"]["self_s"]
    assert total == pytest.approx(trace.covered_s())


class _Flaky:
    """Every third op raises, every third fails its check."""

    reference = "interp"

    def op(self, inp):
        if inp == "raise":
            raise ArithmeticError("boom")
        return inp

    def check(self, inp, out):
        return workloads.Outcome(workloads.PASS if out == "ok" else workloads.FAIL, out)


def test_op_times_are_scaled_by_the_kernel_around_them():
    gauge = reference.Gauge("interp")
    ref = gauge.ref_s
    # kernel at full speed until t = 10, then twice as slow
    gauge.samples = [(0.0, ref), (5.0, ref), (10.0, 2 * ref), (15.0, 2 * ref), (20.0, 2 * ref)]
    assert gauge.scaled(1.0, 2.0) == pytest.approx(2.0)
    assert gauge.scaled(11.0, 2.0) == pytest.approx(1.0)
    # an op spanning the change takes the median of the samples around it
    assert gauge.scaled(6.0, 10.0) == pytest.approx(10.0 / 2.0)
    assert gauge.scaled_sum([1.0, 11.0], [2.0, 2.0]) == pytest.approx(3.0)
    m = run.Measurement(gauge, starts=[1.0, 11.0], durations=[2.0, 2.0])
    assert m.ops_per_s == pytest.approx(2 / 3.0)
    assert m.wall_ops_per_s == pytest.approx(2 / 4.0)


def test_a_failing_op_is_counted_not_dropped():
    m = run.measure(_Flaky(), ["raise", "bad", "ok"], 0.02)
    assert m.attempted == sum(m.statuses.values()) == len(m.durations)
    assert m.attempted >= 3
    assert m.statuses["fail"] == m.attempted - m.statuses["pass"]
    assert m.statuses["pass"] == m.attempted // 3
    assert run.fail_frac(m) == pytest.approx(1.0 - (m.attempted // 3) / m.attempted)
    assert any("ArithmeticError" in f["detail"] for f in m.failures)


def test_known_defects_are_reported_as_such():
    quad = workloads.Quadrature()
    at_one = {"beta": 1.0, "m": 1.0}
    outcome = quad.check(at_one, quad.op(at_one))
    assert outcome.status in (workloads.KNOWN_DEFECT, workloads.PASS)
    inside = {"beta": 0.7, "m": 1.5}
    assert quad.check(inside, quad.op(inside)).status == workloads.PASS


def test_untraced_run_leaves_felog_untouched():
    originals = {name: getattr(fracops, name) for name in ("solve_pc", "verify", "caputo_l1_all")}
    series = workloads.Series()
    m = run.measure(series, series.inputs(1)[:3], 0.0)
    assert m.attempted == 1
    assert _wrapped_attributes() == []
    assert all(getattr(fracops, k) is v for k, v in originals.items())


def test_traced_phase_wraps_then_restores_every_attribute():
    before = {(m.__name__, k): v for m in HOLDERS for k, v in vars(m).items()}
    cls_before = dict(vars(series_solution.SeriesSolution))
    trace = spans.Trace()
    spans.install(trace)
    try:
        assert fracops.solve_pc is not before[("felog.fracops", "solve_pc")]
        assert euler_beta.ln_gamma is not before[("felog.euler_beta", "ln_gamma")]
        series_solution.SeriesSolution.build(0.7, 1.0, 64)(0.5)
    finally:
        trace.uninstall()
    assert _wrapped_attributes() == []
    assert {(m.__name__, k): v for m in HOLDERS for k, v in vars(m).items()} == before
    assert dict(vars(series_solution.SeriesSolution)) == cls_before
    summary = trace.summary()
    assert summary["euler_beta.build_sequence"]["terms"] == 64
    assert summary["series_solution.evaluate.scalar"]["calls"] == 1


def test_import_profile_sums_outermost_entries_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        10 |         10 |     scipy",
        "import time:       200 |        200 |       numpy.linalg",
        "import time:       300 |        500 |     scipy.integrate",
        "import time:        40 |        700 |   felog",
        "import time:        30 |        730 | felog.cli",
    ])
    profile = spans.import_profile(text)
    assert profile["felog_s"] == pytest.approx(730e-6)
    assert profile["numpy_s"] == pytest.approx(350e-6)
    assert profile["scipy_s"] == pytest.approx(510e-6)
    assert profile["modules"] == 7


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
