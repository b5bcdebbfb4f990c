"""Command-line contract: subcommand outputs, exit codes, round trips.

Every refusal is one row of ``REFUSALS``. Most cases call ``felog.cli.main`` in-process; the process exit codes and
the environment checks run ``python -m felog.cli`` in a child process.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from felog import cli as cli_module
from felog import euler_beta, fracops, series_solution
from felog.cli import _COMMANDS, MAX_STEPS, MAX_TERMS, _emit, main
from felog.euler_beta import build_sequence, sequence_from_json
from felog.fracops import graded_grid, make_grid, verify
from felog.series_solution import SeriesSolution, compare_classical, radius_report


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "felog.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _reject(name):
    """``parse_constant`` for strict JSON, which has no Infinity or NaN."""
    raise ValueError(f"not JSON: {name}")


@pytest.fixture
def cli(capsys):
    """``cli(*args) -> (code, stdout, stderr)`` through ``main`` in-process."""

    def call(*args):
        code = main(list(args))
        out, err = capsys.readouterr()
        return code, out, err

    return call


class TestCoeffs:
    def test_csv_contains_third_raw_number(self, cli):
        code, out, _ = cli("coeffs", "--beta", "1.0", "--m", "1.0", "-n", "8",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        row3 = rows[3]
        assert row3["k"] == "3"
        assert int(row3["sign"]) == -1
        # raw value -1/8: magnitude restored from the log column
        assert 10.0 ** float(row3["log10_mag"]) == pytest.approx(0.125, rel=1e-12)

    def test_json_round_trip_bit_exact(self, cli):
        code, out, _ = cli("coeffs", "--beta", "0.7", "--m", "2.0", "-n", "32",
                           "--format", "json")
        assert code == 0
        back = sequence_from_json(out)
        direct = build_sequence(0.7, 2.0, 32)
        assert np.array_equal(back.g, direct.g)

    def test_floats_round_trip_through_text(self, cli):
        code, out, _ = cli("coeffs", "--beta", "0.7", "-n", "16", "--format", "csv")
        assert code == 0
        direct = build_sequence(0.7, 1.0, 16)
        rows = list(csv.DictReader(io.StringIO(out)))
        for k, row in enumerate(rows):
            assert float(row["g_k"]) == direct.g[k]


class TestEval:
    def test_initial_row(self, cli):
        code, out, _ = cli("eval", "--beta", "1", "--m", "1", "--t0", "0",
                           "--t1", "2", "--steps", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["t"]) == 0.0
        assert float(rows[0]["w"]) == 0.5

    def test_single_step_hits_closed_form(self, cli):
        code, out, _ = cli("eval", "--beta", "1", "--t1", "1", "--steps", "1",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        last = rows[-1]
        assert float(last["t"]) == 1.0
        assert float(last["w"]) == pytest.approx(0.7310586, abs=1e-7)

    def test_out_of_domain_rows_flagged_with_warning(self, cli):
        code, out, err = cli("eval", "--beta", "0.7", "--t1", "10", "--format", "csv")
        assert code == 0
        assert "warning" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        flags = [row["in_domain"] == "true" for row in rows]
        assert flags[0] is True and flags[-1] is False

    def test_json_tail_bound_null_when_unbounded(self, cli):
        code, out, _ = cli("eval", "--beta", "0.7", "--t1", "10", "--steps", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["tail_bound"][-1] is None
        assert payload["in_domain"][-1] is False

    @pytest.mark.filterwarnings("error")
    def test_json_w_null_past_the_radius(self, cli):
        code, out, err = cli("eval", "--beta", "1", "-n", "256", "--t1", "1000",
                             "--steps", "2")
        assert code == 0

        payload = json.loads(out, parse_constant=_reject)
        assert payload["w"] == [0.5, None, None]
        assert payload["in_domain"] == [True, False, False]
        assert err.startswith("warning: 2 of 3 rows lie past domain_edge 3.14159 ")
        assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    def test_csv_keeps_non_finite_w(self, cli):
        code, out, _ = cli("eval", "--beta", "1", "-n", "256", "--t1", "1000",
                           "--steps", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["0.0,0.5,0.0,true", "500.0,-inf,inf,false",
                                        "1000.0,-inf,inf,false"]

    @pytest.mark.filterwarnings("error")
    def test_null_w_is_never_in_domain(self, cli):
        # the edge is inf at m = 1e200, but t^(2 beta) overflows before m^-k
        # can scale it, so w is NaN past t = 0
        code, out, err = cli("eval", "--beta", "1", "--m", "1e200", "--t1", "1e160",
                             "--steps", "2")
        assert code == 0
        payload = json.loads(out, parse_constant=_reject)
        assert payload["w"] == [0.5, None, None]
        assert payload["in_domain"] == [True, False, False]
        # no row lies past the edge: the warning names both reasons
        assert err.startswith("warning: 2 of 3 rows lie past domain_edge inf "
                              "or have no finite sum")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_grid_prints_only_the_domain_warning(self, cli):
        # t^(2 beta) overflows at t = 1e300; the rows are flagged, not warned
        code, out, err = cli("eval", "--beta", "1", "--t1", "1e300", "--steps", "2")
        assert code == 0
        assert json.loads(out)["in_domain"] == [True, False, False]
        assert err.startswith("warning: 2 of 3 rows lie past domain_edge 3.14159 ")
        assert len(err.splitlines()) == 1

    def test_tail_bound_null_without_a_normal_coefficient(self, cli):
        # g_1 = 0.28 / m is subnormal, so the tail has nothing to rest on
        code, out, err = cli("eval", "--m", "1e308", "--steps", "4")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["w"] == [0.5] * 5
        assert payload["tail_bound"] == [None] * 5


class TestVerify:
    def test_termwise_passes(self):
        code, out, _ = run_cli("verify", "--beta", "0.5", "--method", "termwise")
        assert code == 0
        payload = json.loads(out)
        assert payload["sup_norm"] <= 1e-12
        assert payload["passed"] is True

    def test_l1_at_2000_steps_passes(self, cli):
        code, out, _ = cli("verify", "--beta", "0.5", "--method", "l1", "--steps", "2000")
        assert code == 0
        assert json.loads(out)["sup_norm"] <= 1e-4

    def test_l1_at_classical_order_passes(self, cli):
        code, out, _ = cli("verify", "--beta", "1", "--method", "l1", "--steps", "2000")
        assert code == 0
        assert json.loads(out)["sup_norm"] <= 1e-4

    @pytest.mark.parametrize("beta", ((), ("--beta", "0.7"), ("--beta", "1")))
    def test_l1_on_default_grid_passes(self, cli, beta):
        # the default grid must meet the default l1 tolerance on correct code
        code, out, _ = cli("verify", "--method", "l1", *beta)
        assert code == 0
        assert json.loads(out)["sup_norm"] <= 1e-4

    @pytest.mark.parametrize("args", (
        ("--beta", "0.2"),
        ("--beta", "0.1", "-n", "256"),
        ("--beta", "0.1", "--m", "3", "-n", "256"),
    ))
    def test_l1_passes_at_small_order(self, cli, args):
        # the graded grid's first cells are far narrower than eps * t_n at
        # these orders; a differenced kernel would lose their rise and exit 1
        code, out, _ = cli("verify", "--method", "l1", *args)
        assert code == 0
        assert json.loads(out)["sup_norm"] <= 1e-4

    def test_integro_at_default_terms_is_limited_by_truncation(self, cli):
        # the oracle is exact to rounding here; 64 terms of the series are not
        # (ROADMAP A: its own tail estimate at the grid end is about 2e-4)
        code, out, _ = cli("verify", "--method", "integro", "--beta", "0.1")
        assert code == 1
        assert 1e-4 < json.loads(out)["sup_norm"] < 1e-3
        code, out, _ = cli("verify", "--method", "integro", "--beta", "0.1", "-n", "256")
        assert code == 0

    def test_pc_passes(self, cli):
        code, out, _ = cli("verify", "--beta", "0.7", "--method", "pc")
        assert code == 0
        assert json.loads(out)["sup_norm"] <= 1e-5

    def test_failing_tolerance_exits_one(self):
        code, out, _ = run_cli("verify", "--beta", "0.5", "--method", "termwise",
                               "--tol", "1e-30")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_help_states_the_default_grid(self, capsys):
        # the help text is built from the two constants that cmd_verify uses
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"(default: {cli_module.DEFAULT_VERIFY_WINDOW} * domain_edge)" in text
        assert f"grid cells for l1 and integro (default {cli_module.DEFAULT_VERIFY_CELLS})" in text

    def test_default_grid_has_the_default_cells(self, cli, monkeypatch):
        grids = []
        monkeypatch.setattr(cli_module, "make_grid", lambda *a: grids.append(a) or make_grid(*a))
        assert cli("verify", "--method", "l1")[0] == 0
        sol = SeriesSolution.build(0.5)
        assert grids == [(cli_module.DEFAULT_VERIFY_WINDOW * sol.domain_edge,
                          cli_module.DEFAULT_VERIFY_CELLS, "graded", 0.5)]

    @pytest.mark.parametrize("beta", ("0.012", "0.015", "0.019"))
    def test_pc_runs_where_a_graded_grid_underflows(self, cli, beta):
        # pc reads only the grid end, so the CLI gives it two uniform cells
        code, out, err = cli("verify", "--method", "pc", "--beta", beta, "-n", "256")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert payload["tol"] == 1e-5 and 1.0e-5 < payload["sup_norm"] < 1.4e-5

    @pytest.mark.parametrize("method", ("l1", "integro"))
    def test_uniform_runs_where_a_graded_grid_underflows(self, cli, method):
        # the graded grid's refusal is a row of REFUSALS
        code, out, _ = cli("verify", "--method", method, "--beta", "0.015", "-n", "256",
                           "--grid", "uniform")
        assert code == 0 and json.loads(out)["sup_norm"] < 2e-5

    @pytest.mark.parametrize("beta", ("5e-324", "1e-310"))
    def test_integro_gives_a_verdict_at_subnormal_order(self, cli, beta):
        # Gamma(beta) overflows here; the oracle's scale is 1 / Gamma(beta + 1)
        code, out, _ = cli("verify", "--beta", beta, "--method", "integro", "--grid", "uniform",
                           "--t1", "1")
        assert code in (0, 1)
        assert json.loads(out, parse_constant=_reject)["passed"] is (code == 0)

    def test_only_l1_stops_in_its_slope_band(self, cli):
        for method, beta in (("integro", "0.0207"), ("pc", "0.0207"), ("l1", "0.021")):
            code, out, _ = cli("verify", "--method", method, "--beta", beta, "-n", "256")
            assert code == 0 and json.loads(out)["sup_norm"] < 5e-5, method

    def test_given_grid_end_at_huge_m_still_runs(self, cli):
        code, out, _ = cli("verify", "--method", "pc", "--m", "1e200", "--t1", "1")
        assert code == 0 and json.loads(out)["t"][-1] == 1.0

    @pytest.mark.parametrize("method", ("l1", "integro"))
    def test_default_grid_is_2000_graded_cells(self, cli, method):
        _, implicit, _ = cli("verify", "--beta", "0.7", "--method", method)
        _, explicit, _ = cli("verify", "--beta", "0.7", "--method", method,
                             "--steps", "2000", "--grid", "graded")
        assert implicit == explicit

    def test_zero_tolerance_is_allowed(self, cli):
        code, out, _ = cli("verify", "--tol", "0")
        assert code in (0, 1)
        assert json.loads(out)["tol"] == 0.0

class TestRadius:
    def test_guaranteed_radius_beta_one(self, cli):
        code, out, _ = cli("radius", "--beta", "1", "--m", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["r_guaranteed"] == pytest.approx(math.sqrt(6.0), abs=1e-10)
        assert payload["r_empirical"] == pytest.approx(math.pi, abs=1e-3)

    def test_formula_ii_null_below_condition(self, cli):
        code, out, _ = cli("radius", "--beta", "0.05")
        assert code == 0
        assert json.loads(out)["r_formula_ii"] is None

    def test_m_scaling_of_guaranteed_radius(self, cli):
        code, out, _ = cli("radius", "--beta", "1", "--m", "2")
        assert code == 0
        assert json.loads(out)["r_guaranteed"] == pytest.approx(
            math.sqrt(24.0), abs=1e-10
        )

    def test_report_carries_constants_and_discrepancies(self, cli):
        code, out, _ = cli("radius", "--beta", "0.7")
        payload = json.loads(out)
        assert payload["c1_claimed"] == 3.074366
        assert payload["c2_claimed"] == 3.116623
        assert "discrepancy_i" in payload and "discrepancy_ii" in payload

    def test_overflowing_guaranteed_radius_is_null(self, cli):
        # m * m overflows in the majorant radius at m = 1e154
        code, out, _ = cli("radius", "--beta", "1", "--m", "1e154")
        assert code == 0
        assert json.loads(out, parse_constant=_reject)["r_guaranteed"] is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta, m", (("0.1", "1e50"), ("0.0004", "1"), ("0.3", "1e94")))
    def test_majorant_radius_past_the_double_range_is_null(self, cli, beta, m):
        # (m^2 / q)^(1/(2 beta)) overflows long before m * m does
        code, out, err = cli("radius", "--beta", beta, "--m", m)
        assert (code, err) == (0, "")
        assert json.loads(out, parse_constant=_reject)["r_guaranteed"] is None

    def test_non_finite_discrepancies_are_null(self, cli):
        code, out, _ = cli("radius", "--m", "1e308")
        assert code == 0
        payload = json.loads(out, parse_constant=_reject)
        assert payload["discrepancy_i"] is None and payload["discrepancy_ii"] is None


class TestCompare:
    def test_within_budget(self, cli):
        code, out, _ = cli("compare", "--m", "1", "--t1", "2", "--steps", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_abs_deviation"] <= 1e-8
        assert payload["beta"] == 1.0  # the order it was built at, though not a flag

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    def test_builds_the_series_once(self, cli, monkeypatch, fmt):
        expected = compare_classical(2.0, np.linspace(0.0, 5.0, 31))
        calls = []

        def counted(*args):
            calls.append(args)
            return build_sequence(*args)

        monkeypatch.setattr(series_solution, "build_sequence", counted)
        code, out, _ = cli("compare", "--m", "2", "--t1", "5", "--steps", "30", "--format", fmt)
        assert code == 0
        assert calls == [(1.0, 2.0, 64)]
        if fmt == "json":
            assert json.loads(out)["max_abs_deviation"] == expected
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
            assert max(float(row["abs_deviation"]) for row in rows) == expected


class TestShortSeries:
    def test_coefficients_need_no_radius(self, cli):
        code, out, _ = cli("coeffs", "-n", "10")
        assert code == 0
        assert len(json.loads(out)["g"]) == 10


#: Every refusal of the CLI: argv -> (exit code, message). felog prints the
#: message as its one stderr line, after "error: " (exit 2) or "i/o error: "
#: (exit 3); argparse ends its stderr with "error: <message>". Each "..."
#: stands for text that can differ by host: a number felog computes, an errno
#: text, or the choice list, which Python 3.12.8 and later print unquoted.
REFUSALS = {
    "coeffs --beta 1.5": (2, "beta must lie in (0, 1], got 1.5"),
    "coeffs --beta 0.5 -n 1": (2, "n_terms must be an integer from 2 to 10000, got 1"),
    "coeffs --out .": (3, "...: '.'"),
    # the radius needs 20 terms; the coefficients alone need 2
    "eval -n 10": (2, "n_terms must be an integer from 20 to 10000, got 10"),
    "compare -n 10": (2, "n_terms must be an integer from 20 to 10000, got 10"),
    "verify -n 10": (2, "n_terms must be an integer from 20 to 10000, got 10"),
    "radius -n 10": (2, "n_terms must be an integer from 20 to 10000, got 10"),
    # eval and compare: a grid of steps + 1 points from t0 >= 0 up to t1
    "eval --m inf": (2, "m must lie in [1, inf), got inf"),
    "eval --t1 inf": (2, "t1 must lie in (-inf, inf), got inf"),
    "eval --t1 nan": (2, "t1 must lie in (-inf, inf), got nan"),
    "eval --t0 nan": (2, "t0 must lie in [0, inf), got nan"),
    "eval --t0=-1": (2, "t0 must lie in [0, inf), got -1.0"),
    "eval --t0=-1.7e308 --t1=1.7e308": (2, "t0 must lie in [0, inf), got -1.7e+308"),
    "eval --t0 2 --t1 1": (2, "t0 must be less than t1"),
    "eval --steps 0": (2, "steps must be an integer from 1 to 1000000, got 0"),
    "compare --t1 inf": (2, "t1 must lie in (-inf, inf), got inf"),
    "compare --t1 nan": (2, "t1 must lie in (-inf, inf), got nan"),
    "compare --t0=-1": (2, "t0 must lie in [0, inf), got -1.0"),
    "compare --t0=-1.7e308 --t1=1.7e308": (2, "t0 must lie in [0, inf), got -1.7e+308"),
    "compare --steps -1": (2, "steps must be an integer from 1 to 1000000, got -1"),
    # the closed form exists at beta = 1 alone, so compare has no --beta
    "compare --beta 1": (2, "unrecognized arguments: --beta 1"),
    "compare --beta 0.7": (2, "unrecognized arguments: --beta 0.7"),
    # verify: the flags each method reads
    "verify --beta 0.5 --method bogus": (2, "argument --method: invalid choice: ..."),
    "verify --tol nan": (2, "tol must lie in [0, inf), got nan"),
    "verify --tol -1": (2, "tol must lie in [0, inf), got -1.0"),
    "verify --tol inf": (2, "tol must lie in [0, inf), got inf"),
    "verify --steps 0": (2, "--steps and --grid apply only to --method l1 and integro"),
    "verify --method termwise --steps 300": (
        2, "--steps and --grid apply only to --method l1 and integro"),
    "verify --method termwise --grid uniform": (
        2, "--steps and --grid apply only to --method l1 and integro"),
    "verify --method termwise --grid graded": (
        2, "--steps and --grid apply only to --method l1 and integro"),
    "verify --method pc --steps 300": (
        2, "--steps and --grid apply only to --method l1 and integro"),
    "verify --method pc --grid uniform": (
        2, "--steps and --grid apply only to --method l1 and integro"),
    "verify --method pc --grid graded": (
        2, "--steps and --grid apply only to --method l1 and integro"),
    "verify --method termwise --t1 5": (2, "--t1 applies only to --method l1, integro and pc"),
    "verify --method l1 --steps 0": (
        2, "the cell count must be an integer from 2 to 1000000, got 0"),
    "verify --method integro --steps 1": (
        2, "the cell count must be an integer from 2 to 1000000, got 1"),
    # verify: the grid end, given or 0.7 * domain_edge
    "verify --method l1 --t1 inf": (2, "t1 must lie in (0, inf), got inf"),
    "verify --method l1 --t1 nan": (2, "t1 must lie in (0, inf), got nan"),
    "verify --method l1 --t1 -1": (2, "t1 must lie in (0, inf), got -1.0"),
    "verify --method integro --t1 inf": (2, "t1 must lie in (0, inf), got inf"),
    "verify --method integro --t1 nan": (2, "t1 must lie in (0, inf), got nan"),
    "verify --method integro --t1 -1": (2, "t1 must lie in (0, inf), got -1.0"),
    "verify --method pc --t1 inf": (2, "t1 must lie in (0, inf), got inf"),
    "verify --method pc --t1 nan": (2, "t1 must lie in (0, inf), got nan"),
    "verify --method pc --t1 -1": (2, "t1 must lie in (0, inf), got -1.0"),
    # the message names the grid end given, though pc's stepper still steps
    # once at h = 1e-3 past an end of 1e-9
    "verify --method l1 --t1 0.04": (
        2, "no node lies at or after t_min = 0.05; the last is 0.04"),
    "verify --method integro --t1 0.04": (
        2, "no node lies at or after t_min = 0.05; the last is 0.04"),
    "verify --method pc --t1 0.04": (
        2, "no node lies at or after t_min = 0.05; the last is 0.04"),
    "verify --method pc --t1 1e-9": (
        2, "no node lies at or after t_min = 0.05; the last is 1e-09"),
    # the guaranteed radius overflows in m * m, so 0.7 * domain_edge is inf
    "verify --method l1 --m 1e200": (2, "the default grid end is not finite (inf); give --t1"),
    "verify --method l1 --m 1e308": (2, "the default grid end is not finite (inf); give --t1"),
    "verify --method pc --m 1e200": (2, "the default grid end is not finite (inf); give --t1"),
    "verify --method pc --m 1e308": (2, "the default grid end is not finite (inf); give --t1"),
    # r_empirical is negative here (ROADMAP H), and so is 0.7 * domain_edge
    "verify --method l1 --beta 0.02 -n 64": (
        2, "the default grid end is not positive (...); give --t1"),
    "verify --method integro --beta 0.02 -n 64": (
        2, "the default grid end is not positive (...); give --t1"),
    "verify --method pc --beta 0.02 -n 64": (
        2, "the default grid end is not positive (...); give --t1"),
    # verify: what the grid and the series give there. t^(2 beta) overflows
    # past the first nodes, so the series is NaN from grid node 3 (l1) and
    # cell midpoint 2 (integro) on, refused before any oracle sees it
    "verify --beta 1 --m 1e200 --t1 1e160 --method l1": (
        2, "the series is not finite at t = 2.25e+154 (w = nan)"),
    "verify --beta 1 --m 1e200 --t1 1e160 --method integro": (
        2, "the series is not finite at t = 1.625e+154 (w = nan)"),
    "verify --method l1 --beta 0.015 -n 256": (
        2, "a graded grid of 2000 cells at beta = 0.015 on (0, ...] underflows: "
           "its first node t1 * n^(-2/beta) is 0; use fewer cells or a uniform grid"),
    "verify --method integro --beta 0.015 -n 256": (
        2, "a graded grid of 2000 cells at beta = 0.015 on (0, ...] underflows: "
           "its first node t1 * n^(-2/beta) is 0; use fewer cells or a uniform grid"),
    # the default grid's first node is subnormal, too narrow for cell 0's slope
    "verify --method l1 --beta 0.0205 -n 256": (
        2, "cell 0 of the grid is too narrow for an L1 slope (... wide); "
           "use fewer cells or a uniform grid"),
    "verify --method l1 --beta 0.0209 -n 256": (
        2, "cell 0 of the grid is too narrow for an L1 slope (... wide); "
           "use fewer cells or a uniform grid"),
    # 0.7 * domain_edge is about 8e9: 8e12 steps of h = 1e-3, refused before
    # any array is built; at 1e163 steps the count is rounded, not spelled out
    "verify --method pc --beta 0.1 --m 10": (
        2, "t_end / h needs ... steps, more than the 1000000 allowed"),
    "verify --beta 1 --m 1e200 --t1 1e160 --method pc": (
        2, "t_end / h needs 1e+163 steps, more than the 1000000 allowed"),
}


def _pattern(message):
    """``message`` as a regular expression, each ``...`` in it matching anything."""
    return ".*".join(map(re.escape, message.split("...")))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", REFUSALS)
def test_each_refusal_exits_with_its_code_and_message(capsys, argv):
    code, message = REFUSALS[argv]
    try:
        got, parsed = main(argv.split()), True
    except SystemExit as exc:  # argparse refused the argv before any command ran
        got, parsed = exc.code, False
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    lines = err.splitlines()
    if parsed:
        lead = "error: " if code == 2 else "i/o error: "
        assert len(lines) == 1 and re.fullmatch(lead + _pattern(message), lines[0]), err
    else:
        assert re.search(f"error: {_pattern(message)}$", lines[-1]), err


#: Each subcommand the contract test draws; compare is built at beta = 1 and takes no --beta.
CONTRACT_COMMANDS = (
    ("coeffs",),
    ("radius",),
    ("eval", "--steps", "4"),
    ("compare",),
    ("verify", "--method", "termwise"),
    ("verify", "--method", "l1", "--steps", "50"),
    ("verify", "--method", "integro", "--steps", "50"),
    ("verify", "--method", "integro", "--grid", "uniform", "--steps", "50", "--t1", "1"),
    ("verify", "--method", "pc", "--t1", "0.1"),
)
#: The real flags the contract test draws from every double, or leaves out (None).
CONTRACT_REALS = {"eval": ("t0", "t1"), "compare": ("t0", "t1"), "verify": ("tol",)}


class TestContract:
    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(CONTRACT_COMMANDS),
        log_beta=st.floats(-323.3, 0.0),
        log_m=st.floats(0.0, 308.0),
        n=st.sampled_from((20, 64)),
        reals=st.fixed_dictionaries({name: st.none() | st.floats()
                                     for name in ("t0", "t1", "tol")}),
    )
    def test_every_order_and_rate_exits_with_a_code_and_strict_json(
            self, command, log_beta, log_m, n, reals):
        order = () if command[0] == "compare" else ("--beta", repr(10.0**log_beta))
        # --flag=value, since argparse would read a negative value as a flag
        drawn = [f"--{name}={reals[name]!r}" for name in CONTRACT_REALS.get(command[0], ())
                 if reals[name] is not None]
        argv = [*command, *order, "--m", repr(10.0**log_m), "-n", str(n), *drawn]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        if code in (0, 1):
            payload = json.loads(out.getvalue(), parse_constant=_reject)
            if command[0] == "eval":
                assert not any(flag for w, flag in zip(payload["w"], payload["in_domain"])
                               if w is None), argv
        else:
            assert out.getvalue() == ""


class TestIOContract:
    def test_out_file_and_csv_line_endings(self, cli, tmp_path):
        path = tmp_path / "seq.csv"
        code, _, _ = cli("coeffs", "--beta", "0.5", "-n", "8",
                         "--format", "csv", "--out", str(path))
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[0] == "k,g_k,sign,log10_mag"

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    def test_out_file_holds_the_stdout_bytes(self, cli, tmp_path, fmt):
        argv = ("eval", "--beta", "0.7", "--t1", "10", "--steps", "4", "--format", fmt)
        path = tmp_path / f"w.{fmt}"
        code, stdout, _ = cli(*argv)
        assert code == 0 and stdout.endswith("\n")
        assert cli(*argv, "--out", str(path))[:2] == (0, "")
        assert path.read_bytes() == stdout.encode()

    def test_unwritable_out_is_io_error(self, tmp_path):
        code, _, _ = run_cli("coeffs", "--beta", "0.5", "-n", "8",
                             "--out", str(tmp_path / "missing" / "x.json"))
        assert code == 3

    @pytest.mark.parametrize("value", ("csv", "xml", "JSON"))
    def test_format_ignores_the_environment(self, value):
        # an environment value, valid for --format or not, changes nothing
        argv = ("coeffs", "--beta", "0.5", "-n", "4")
        code, out, err = run_cli(*argv, env_extra={"FELOG_FORMAT": value})
        assert (code, out, err) == run_cli(*argv)
        assert code == 0 and json.loads(out)["g"][0] == 0.5

    @pytest.mark.parametrize("m", ("1e154", "1e200", "1e308"))
    @pytest.mark.parametrize("command, beta", [(c, b) for c in ("coeffs", "eval", "radius", "verify")
                                               for b in ("0.5", "1")] + [("compare", "1")])
    def test_json_has_no_non_finite_tokens(self, cli, command, beta, m):
        order = () if command == "compare" else ("--beta", beta)  # compare is at beta = 1
        code, out, _ = cli(command, *order, "--m", m)
        assert code == 0
        json.loads(out, parse_constant=_reject)

    def test_non_finite_floats_are_null_at_any_depth(self, cli, monkeypatch):
        payload = {"a": math.inf, "b": [1.5, -math.inf, {"c": (math.nan, 2.0)}], "d": None}
        monkeypatch.setitem(_COMMANDS, "radius", lambda args: _emit(args, payload, [], []) or 0)
        code, out, _ = cli("radius")
        assert code == 0
        assert out == '{"a": null, "b": [1.5, null, {"c": [null, 2.0]}], "d": null}\n'
        assert payload["b"][1] == -math.inf  # the payload itself is left alone

    def test_json_is_single_object(self, cli):
        code, out, _ = cli("radius", "--beta", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, dict)

    def test_numpy_is_the_only_runtime_dependency(self):
        # pytest, hypothesis and mpmath, the test extra, serve tests only: a fresh
        # interpreter runs every subcommand, each verify method once, and
        # loads no top-level module past those loaded at start-up (.pth
        # hooks included) but the standard library, numpy and felog
        script = textwrap.dedent("""
            import contextlib, io, json, sys
            before = {name.partition(".")[0] for name in sys.modules}
            from felog.cli import main
            runs = [["coeffs", "-n", "8"], ["eval", "--steps", "4"], ["radius"],
                    ["compare", "--steps", "4"], ["verify", "--method", "termwise"],
                    ["verify", "--method", "pc", "--t1", "0.3"]]
            runs += [["verify", "--method", method, "--t1", "0.3", "--steps", "20"]
                     for method in ("l1", "integro")]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [main(argv) for argv in runs]
            new = {name.partition(".")[0] for name in sys.modules} - before
            print(json.dumps([codes, sorted(new - set(sys.stdlib_module_names))]))
        """)
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, check=True)
        codes, outside = json.loads(proc.stdout)
        assert set(codes) <= {0, 1}, proc.stderr  # no run stopped at a usage error
        assert "felog" in outside and set(outside) <= {"felog", "numpy"}

    @pytest.mark.parametrize("argv, message, stub", (
        (("eval", "--steps", str(10**12)), "steps must be an integer from 1 to 1000000",
         (cli_module, "linspace")),
        (("compare", "--steps", str(MAX_STEPS + 1)), "steps must be an integer from 1 to 1000000",
         (cli_module, "linspace")),
        (("verify", "--method", "l1", "--steps", str(MAX_STEPS + 1)),
         "the cell count must be an integer from 2 to 1000000", (fracops, "arange")),
        (("verify", "--method", "integro", "--grid", "uniform", "--steps", str(10**12)),
         "the cell count must be an integer from 2 to 1000000", (fracops, "linspace")),
        (("coeffs", "-n", str(MAX_TERMS + 1)), "n_terms must be an integer from 2 to 10000",
         (euler_beta, "_ln_gamma_table")),
        (("radius", "-n", str(10**12)), "n_terms must be an integer from 2 to 10000",
         (euler_beta, "_ln_gamma_table")),
        (("eval", "-n", str(MAX_TERMS + 1)), "n_terms must be an integer from 2 to 10000",
         (euler_beta, "_ln_gamma_table")),
    ))
    def test_sizes_above_the_limit_are_usage_errors(self, cli, monkeypatch, argv, message, stub):
        # the allocator that the count sizes fails the test, so nothing that
        # large is built even if the bound fails to fire
        module, name = stub

        def fail(*args, **kwargs):
            pytest.fail(f"{name} ran")

        if name == "_ln_gamma_table":
            monkeypatch.setattr(module, name, fail)
        else:  # numpy as the one module sees it
            monkeypatch.setattr(module, "np", SimpleNamespace(**{**vars(np), name: fail}))
        code, out, err = cli(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}, got ") and len(err.splitlines()) == 1

    def test_sizes_at_the_limit_reach_the_command(self, cli, monkeypatch):
        seen = []
        monkeypatch.setitem(_COMMANDS, "eval", lambda args: seen.append(args) or 0)
        code, _, _ = cli("eval", "-n", str(MAX_TERMS), "--steps", str(MAX_STEPS))
        assert code == 0
        assert (seen[0].n_terms, seen[0].steps) == (MAX_TERMS, MAX_STEPS)


def _library_table(command):
    """Argv, CSV header and the expected rows of one subcommand, computed
    from the library directly."""
    if command == "coeffs":
        seq = build_sequence(1.0, 1.0, 8)
        rows = [[k, g, s, mag if math.isfinite(mag) else None]
                for k, (g, s, mag) in enumerate(zip(seq.g.tolist(), seq.raw_sign.tolist(),
                                                    seq.raw_log10.tolist()))]
        return ["--beta", "1", "-n", "8"], ["k", "g_k", "sign", "log10_mag"], rows
    if command == "eval":
        t = np.linspace(0.0, 10.0, 5)
        res = SeriesSolution.build(0.7).evaluate(t)
        rows = [list(r) for r in zip(t.tolist(), res.w.tolist(), res.tail_bound.tolist(),
                                     res.in_domain.tolist())]
        return (["--beta", "0.7", "--t1", "10", "--steps", "4"],
                ["t", "w", "tail_bound", "in_domain"], rows)
    if command == "verify":
        sol = SeriesSolution.build(0.5)
        rep = verify(sol, "l1", graded_grid(0.7 * sol.domain_edge, 300, 0.5))
        rows = [list(r) for r in zip(rep.grid.tolist(), rep.residual.tolist())]
        return ["--beta", "0.5", "--method", "l1", "--steps", "300"], ["t", "residual"], rows
    if command == "radius":
        rows = [list(r) for r in radius_report(build_sequence(0.05, 1.0, 64))
                .to_json_dict().items()]
        return ["--beta", "0.05"], ["quantity", "value"], rows
    t = np.linspace(0.0, 2.0, 5)
    w = SeriesSolution.build(1.0, 2.0).evaluate(t).w
    closed = 1.0 / (1.0 + np.exp(-t / 2.0))
    rows = [[ti, wi, ci, abs(wi - ci)]
            for ti, wi, ci in zip(t.tolist(), w.tolist(), closed.tolist())]
    return (["--m", "2", "--t1", "2", "--steps", "4"],
            ["t", "w_series", "w_closed", "abs_deviation"], rows)


def _parse_cell(text):
    """Empty -> None, true/false -> bool, numbers only in shortest
    round-trip form."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            return text
        assert repr(value) == text
        return value
    assert str(value) == text
    return value


def _json_rows(command, payload):
    if command == "coeffs":
        return [[k, g, raw["sign"], raw["log10_mag"]]
                for k, (g, raw) in enumerate(zip(payload["g"], payload["raw"]))]
    if command == "eval":
        return [list(r) for r in zip(payload["t"], payload["w"], payload["tail_bound"],
                                     payload["in_domain"])]
    if command == "verify":
        return [list(r) for r in zip(payload["t"], payload["residual"])]
    if command == "radius":
        return [list(r) for r in payload.items()]
    return [[payload["max_abs_deviation"]]]


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("command", ("coeffs", "eval", "verify", "radius", "compare"))
def test_emitted_table_matches_library(cli, command, fmt):
    argv, header, rows = _library_table(command)
    code, out, _ = cli(command, *argv, "--format", fmt)
    assert code == 0
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(out)))
        assert lines[0] == header
        assert [[_parse_cell(c) for c in line] for line in lines[1:]] == rows
    else:
        if command == "eval":  # JSON has no infinity: an unbounded tail is null
            rows = [[t, w, tb if math.isfinite(tb) else None, d] for t, w, tb, d in rows]
        if command == "compare":  # JSON carries only the deviation's maximum
            rows = [[max(r[3] for r in rows)]]
        assert _json_rows(command, json.loads(out)) == rows
    # each table shows the cell kinds the format must render
    if command == "coeffs":
        assert rows[2][3] is None  # exact zero: empty log10_mag
    if command == "eval":
        assert rows[0][3] is True and rows[-1][3] is False
    if command == "radius":
        assert dict(rows)["r_formula_ii"] is None


def test_the_console_script_runs_main(cli):
    # pyproject.toml's [project.scripts] entry, read by pattern: Python 3.10
    # has no tomllib
    text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    module, attr = re.search(r'^felog = "([\w.]+):(\w+)"$', text, re.M).groups()
    assert getattr(importlib.import_module(module), attr) is main
    code, out, _ = cli("coeffs", "-n", "4")
    assert code == 0 and len(json.loads(out)["g"]) == 4
