"""Command-line contract: subcommand outputs, exit codes, round trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from felog.euler_beta import build_sequence, sequence_from_json


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("FELOG_FORMAT", None)
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


class TestCoeffs:
    def test_csv_contains_third_raw_number(self):
        code, out, _ = run_cli("coeffs", "--beta", "1.0", "--m", "1.0", "-n", "8",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        row3 = rows[3]
        assert row3["k"] == "3"
        assert int(row3["sign"]) == -1
        # raw value -1/8: magnitude restored from the log column
        assert 10.0 ** float(row3["log10_mag"]) == pytest.approx(0.125, rel=1e-12)

    def test_beta_out_of_range_is_usage_error(self):
        code, _, err = run_cli("coeffs", "--beta", "1.5")
        assert code == 2
        assert "beta must lie in (0, 1]" in err

    def test_too_few_terms_is_usage_error(self):
        code, _, err = run_cli("coeffs", "--beta", "0.5", "-n", "1")
        assert code == 2
        assert "n_terms" in err and ">= 2" in err

    def test_json_round_trip_bit_exact(self):
        code, out, _ = run_cli("coeffs", "--beta", "0.7", "--m", "2.0", "-n", "32",
                               "--format", "json")
        assert code == 0
        back = sequence_from_json(out)
        direct = build_sequence(0.7, 2.0, 32)
        assert np.array_equal(back.g, direct.g)

    def test_floats_round_trip_through_text(self):
        code, out, _ = run_cli("coeffs", "--beta", "0.7", "-n", "16", "--format", "csv")
        assert code == 0
        direct = build_sequence(0.7, 1.0, 16)
        rows = list(csv.DictReader(io.StringIO(out)))
        for k, row in enumerate(rows):
            assert float(row["g_k"]) == direct.g[k]


class TestEval:
    def test_initial_row(self):
        code, out, _ = run_cli("eval", "--beta", "1", "--m", "1", "--t0", "0",
                               "--t1", "2", "--steps", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["t"]) == 0.0
        assert float(rows[0]["w"]) == 0.5

    def test_single_step_hits_closed_form(self):
        code, out, _ = run_cli("eval", "--beta", "1", "--t1", "1", "--steps", "1",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        last = rows[-1]
        assert float(last["t"]) == 1.0
        assert float(last["w"]) == pytest.approx(0.7310586, abs=1e-7)

    def test_out_of_domain_rows_flagged_with_warning(self):
        code, out, err = run_cli("eval", "--beta", "0.7", "--t1", "10",
                                 "--format", "csv")
        assert code == 0
        assert "warning" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        flags = [row["in_domain"] == "true" for row in rows]
        assert flags[0] is True and flags[-1] is False

    def test_json_tail_bound_null_when_unbounded(self):
        code, out, _ = run_cli("eval", "--beta", "0.7", "--t1", "10", "--steps", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["tail_bound"][-1] is None
        assert payload["in_domain"][-1] is False


class TestVerify:
    def test_termwise_passes(self):
        code, out, _ = run_cli("verify", "--beta", "0.5", "--method", "termwise")
        assert code == 0
        payload = json.loads(out)
        assert payload["sup_norm"] <= 1e-12
        assert payload["passed"] is True

    def test_l1_at_2000_steps_passes(self):
        code, out, _ = run_cli("verify", "--beta", "0.5", "--method", "l1",
                               "--steps", "2000")
        assert code == 0
        assert json.loads(out)["sup_norm"] <= 1e-4

    def test_l1_at_classical_order_passes(self):
        code, out, _ = run_cli("verify", "--beta", "1", "--method", "l1",
                               "--steps", "2000")
        assert code == 0
        assert json.loads(out)["sup_norm"] <= 1e-4

    def test_pc_passes(self):
        code, out, _ = run_cli("verify", "--beta", "0.7", "--method", "pc")
        assert code == 0
        assert json.loads(out)["sup_norm"] <= 1e-5

    def test_failing_tolerance_exits_one(self):
        code, out, _ = run_cli("verify", "--beta", "0.5", "--method", "termwise",
                               "--tol", "1e-30")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_unknown_method_is_usage_error(self):
        code, _, _ = run_cli("verify", "--beta", "0.5", "--method", "spectral")
        assert code == 2


class TestRadius:
    def test_guaranteed_radius_beta_one(self):
        code, out, _ = run_cli("radius", "--beta", "1", "--m", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["r_guaranteed"] == pytest.approx(math.sqrt(6.0), abs=1e-10)
        assert payload["r_empirical"] == pytest.approx(math.pi, abs=1e-3)

    def test_formula_ii_null_below_condition(self):
        code, out, _ = run_cli("radius", "--beta", "0.05")
        assert code == 0
        assert json.loads(out)["r_formula_ii"] is None

    def test_m_scaling_of_guaranteed_radius(self):
        code, out, _ = run_cli("radius", "--beta", "1", "--m", "2")
        assert code == 0
        assert json.loads(out)["r_guaranteed"] == pytest.approx(
            math.sqrt(24.0), abs=1e-10
        )

    def test_report_carries_constants_and_discrepancies(self):
        code, out, _ = run_cli("radius", "--beta", "0.7")
        payload = json.loads(out)
        assert payload["c1_claimed"] == 3.074366
        assert payload["c2_claimed"] == 3.116623
        assert "discrepancy_i" in payload and "discrepancy_ii" in payload


class TestCompare:
    def test_within_budget(self):
        code, out, _ = run_cli("compare", "--m", "1", "--t1", "2", "--steps", "20")
        assert code == 0
        assert json.loads(out)["max_abs_deviation"] <= 1e-8

    def test_rejects_fractional_order(self):
        code, _, err = run_cli("compare", "--beta", "0.7")
        assert code == 2
        assert "beta = 1" in err


class TestIOContract:
    def test_out_file_and_csv_line_endings(self, tmp_path):
        path = tmp_path / "seq.csv"
        code, _, _ = run_cli("coeffs", "--beta", "0.5", "-n", "8",
                             "--format", "csv", "--out", str(path))
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[0] == "k,g_k,sign,log10_mag"

    def test_unwritable_out_is_io_error(self, tmp_path):
        code, _, _ = run_cli("coeffs", "--beta", "0.5", "-n", "8",
                             "--out", str(tmp_path / "missing" / "x.json"))
        assert code == 3

    def test_format_env_default(self):
        code, out, _ = run_cli("coeffs", "--beta", "0.5", "-n", "4",
                               env_extra={"FELOG_FORMAT": "csv"})
        assert code == 0
        assert out.startswith("k,g_k,sign,log10_mag")

    def test_json_is_single_object(self):
        code, out, _ = run_cli("radius", "--beta", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, dict)
