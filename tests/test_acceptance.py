"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 4 and 8 assert printed majorant properties that are
numerically false for small fractional orders (verified in 50-digit
arithmetic by tests/test_euler_beta.py; see README, "Known deviations of the
printed bounds"): they are
implemented exactly as stated and fail honestly on those points.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from felog.euler_beta import bound_sequences, build_sequence, closed_form_check, sequence_from_json
from felog.fracops import graded_grid, sonine_check, verify
from felog.series_solution import SeriesSolution, radius_report
from felog.specfun import bernoulli_numbers, bound_predicates, euler_poly, ln_gamma
from fractions import Fraction

BETA_GRID = (0.3, 0.5, 0.7, 0.9, 1.0)
ORACLE_COMBOS = tuple((b, m) for b in (0.5, 0.7) for m in (1.0, 2.0))


def report(num, ok, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


@pytest.fixture(scope="module")
def oracle_solutions():
    """256-term solutions and their verification windows for the four
    (beta, m) oracle combinations; shared by criteria 5 and 6."""
    out = {}
    for beta, m in ORACLE_COMBOS:
        sol = SeriesSolution.build(beta, m, 256)
        edge = 0.8 * sol.domain_edge
        out[(beta, m)] = (sol, graded_grid(edge, 2000, beta))
    return out


def test_criterion_01_classical_degeneration():
    start = time.perf_counter()
    sol = SeriesSolution.build(1.0, 1.0, 64)
    t = np.arange(1, 21) * 0.1
    w = np.atleast_1d(sol.evaluate(t).w)
    closed = np.exp(t) / (1.0 + np.exp(t))
    err = np.abs(w - closed)
    elapsed = time.perf_counter() - start
    ok = bool(np.max(err) <= 1e-8 and np.max(err[t <= 1.0]) <= 1e-10 and elapsed < 0.1)
    detail = f"max|w-closed|={np.max(err):.2e}, t<=1: {np.max(err[t <= 1.0]):.2e}, {elapsed * 1e3:.0f} ms"
    assert report(1, ok, detail), detail


def test_criterion_02_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for beta in BETA_GRID:
        residuals = closed_form_check(build_sequence(beta, 1.0, 12))
        worst = max(worst, max(residuals.values()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 0.1
    detail = f"worst residual={worst:.2e}, {elapsed * 1e3:.0f} ms"
    assert report(2, ok, detail), detail


def test_criterion_03_even_terms_vanish():
    worst = 0.0
    for beta in BETA_GRID:
        seq = build_sequence(beta, 1.0, 66)
        for k in range(1, 33):
            bound = 1e-14 * max(1.0, abs(seq.g[2 * k - 1]))
            worst = max(worst, abs(seq.g[2 * k]) / bound)
    ok = worst <= 1.0
    detail = f"worst |g_2k|/bound={worst:.2e}"
    assert report(3, ok, detail), detail


def test_criterion_04_majorant_chain():
    # log-space chain: log|g_{n+1}| <= log p + (n/2) log q for even n <= 60,
    # plus the a_n / b_n envelopes wherever their stated conditions hold
    gamma_em = 0.5772156649015329
    violations = []
    for beta in BETA_GRID:
        seq = build_sequence(beta, 1.0, 64)
        bs = bound_sequences(seq)
        log_p = math.log(0.25) - ln_gamma(beta + 1.0)
        log_q = math.log(bs.q_majorant)
        for n in range(0, 62, 2):
            lhs = math.log(abs(seq.g[n + 1]))
            if lhs > log_p + (n / 2.0) * log_q + 1e-12:
                violations.append(f"chain beta={beta} n={n} excess={math.exp(lhs - log_p - n / 2 * log_q):.3g}x")
            if lhs > math.log(bs.a[n]) + 1e-12:
                violations.append(f"a_n beta={beta} n={n}")
            if beta > gamma_em - 0.5 and lhs > math.log(bs.b[n]) + 1e-12:
                violations.append(f"b_n beta={beta} n={n}")
    ok = not violations
    detail = "no violations" if ok else f"{len(violations)} violations, first: {violations[0]}"
    assert report(4, ok, detail), f"{detail}; all: {violations}"


def test_criterion_05_oracle_triangle(oracle_solutions):
    start = time.perf_counter()
    failures = []
    for (beta, m), (sol, grid) in oracle_solutions.items():
        sup_t = verify(sol, "termwise").sup_norm
        if sup_t > 1e-12:
            failures.append(f"termwise beta={beta} m={m}: {sup_t:.2e}")
        sup_l1 = verify(sol, "l1", grid).sup_norm
        if sup_l1 > 1e-4:
            failures.append(f"l1 beta={beta} m={m}: {sup_l1:.2e}")
        sup_pc = verify(sol, "pc", grid, pc_step=1e-4).sup_norm
        if sup_pc > 1e-5:
            failures.append(f"pc beta={beta} m={m}: {sup_pc:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    ok = not failures
    detail = f"{elapsed:.1f}s" if ok else "; ".join(failures)
    assert report(5, ok, detail), detail


def test_criterion_06_integrated_form_and_kernel_pair(oracle_solutions):
    failures = []
    for (beta, m), (sol, grid) in oracle_solutions.items():
        sup = verify(sol, "integro", grid).sup_norm
        if sup > 1e-4:
            failures.append(f"integro beta={beta} m={m}: {sup:.2e}")
    for beta in (0.25, 0.5, 0.75):
        dev = sonine_check(beta, [0.5, 1.0, 3.0])
        if dev > 1e-10:
            failures.append(f"kernel pair beta={beta}: {dev:.2e}")
    ok = not failures
    detail = "integro <= 1e-4, kernel pair <= 1e-10" if ok else "; ".join(failures)
    assert report(6, ok, detail), detail


def test_criterion_07_l1_refinement_order():
    sol = SeriesSolution.build(0.5, 1.0, 192)
    edge = 0.8 * sol.domain_edge
    sups = [
        verify(sol, "l1", graded_grid(edge, n, 0.5)).sup_norm for n in (1000, 2000)
    ]
    ratio = sups[0] / sups[1]
    ok = ratio >= 2.0**1.4
    detail = f"ratio={ratio:.3f} (need >= {2.0 ** 1.4:.3f}, theory {2.0 ** 1.5:.3f})"
    assert report(7, ok, detail), detail


def test_criterion_08_radius_empirics():
    failures = []
    # empirical radius at beta = 1 targets pi with shrinking error
    errors = []
    for n in (32, 64, 128):
        rep = radius_report(build_sequence(1.0, 1.0, n))
        errors.append(abs(rep.r_empirical - math.pi))
    rep128 = radius_report(build_sequence(1.0, 1.0, 128))
    if not (2.9 < rep128.r_empirical < 3.3):
        failures.append(f"r_empirical(128)={rep128.r_empirical}")
    if not (errors[0] > errors[1] > errors[2]):
        failures.append(f"errors not decreasing: {errors}")
    rep = radius_report(build_sequence(1.0, 1.0, 64))
    if abs(rep.r_guaranteed - math.sqrt(6.0)) > 1e-12:
        failures.append(f"r_guaranteed={rep.r_guaranteed!r} vs sqrt(6)")
    # partial sums at t = 0.9 * guaranteed radius: geometric decay with the
    # majorant ratio, across the beta grid
    for beta in BETA_GRID:
        seq = build_sequence(beta, 1.0, 64)
        r = radius_report(seq)
        t = 0.9 * r.r_guaranteed
        bound = (1.0 / r.r_guaranteed) ** (2.0 * beta) * t ** (2.0 * beta)
        inc = [abs(seq.g[k]) * t ** (beta * k) for k in range(1, seq.n_terms, 2)]
        bad = [
            j for j in range(len(inc) - 1)
            if inc[j + 1] > inc[j] * bound * (1.0 + 1e-12)
        ]
        if bad:
            failures.append(
                f"partial sums beta={beta}: ratio exceeds majorant {bound:.3f} at "
                f"{len(bad)} pairs (first k={2 * bad[0] + 1}->{2 * bad[0] + 3})"
            )
    ok = not failures
    detail = (
        f"r_emp(128)={rep128.r_empirical:.6f}, errors {errors[0]:.1e}->{errors[2]:.1e}"
        if ok
        else "; ".join(failures)
    )
    assert report(8, ok, detail), detail


def test_criterion_09_special_function_layer():
    failures = []
    expected = [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
        Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
        Fraction(-1, 30),
    ]
    if bernoulli_numbers(8) != expected:
        failures.append("bernoulli table mismatch")
    pts = [1.01, 1.5, 2.0, 5.0, 10.0, 50.0]
    for x in pts:
        for y in pts:
            flags = bound_predicates(x=x, y=y)
            if not (flags.beta_bound and flags.gamma_envelope):
                failures.append(f"bound predicates fail at ({x}, {y})")
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        if not bound_predicates(x=x).gamma_unit:
            failures.append(f"unit-interval bound fails at {x}")
    gaps = []
    for k in range(9, 27, 2):
        d = ((-1) ** ((k + 1) // 2) * math.pi ** (k + 1)
             / (4.0 * math.factorial(k)) * euler_poly(k, 1.0))
        gaps.append(abs(d + 1.0))
    if not all(b < a for a, b in zip(gaps, gaps[1:])):
        failures.append("odd-index polynomial trend not strictly decreasing")
    ok = not failures
    detail = "table exact, grids hold, trend decreasing" if ok else "; ".join(failures)
    assert report(9, ok, detail), detail


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cli(*args):
    env = os.environ.copy()
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "felog.cli", *args],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_10_cli_contract():
    failures = []

    code, out, _ = _cli("coeffs", "--beta", "1.0", "--m", "1.0", "-n", "8", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    if code != 0 or int(rows[3]["sign"]) != -1 or not math.isclose(
        10.0 ** float(rows[3]["log10_mag"]), 0.125, rel_tol=1e-10
    ):
        failures.append("coeffs csv example")
    code, _, err = _cli("coeffs", "--beta", "1.5")
    if code != 2 or "beta must lie in (0, 1]" not in err:
        failures.append("coeffs beta guard")
    code, _, err = _cli("coeffs", "--beta", "0.5", "-n", "1")
    if code != 2 or "n_terms" not in err:
        failures.append("coeffs n_terms guard")

    code, out, _ = _cli("eval", "--beta", "1", "--m", "1", "--t0", "0", "--t1", "2",
                        "--steps", "5", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    if code != 0 or float(rows[0]["w"]) != 0.5:
        failures.append("eval first-row example")
    code, out, err = _cli("eval", "--beta", "0.7", "--t1", "10", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    if code != 0 or "warning" not in err or rows[-1]["in_domain"] != "false":
        failures.append("eval out-of-domain example")
    code, out, _ = _cli("eval", "--beta", "1", "--t1", "1", "--steps", "1", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    if code != 0 or not math.isclose(float(rows[-1]["w"]), 0.7310586, abs_tol=1e-7):
        failures.append("eval closed-form example")

    code, out, _ = _cli("verify", "--beta", "0.5", "--method", "termwise")
    if code != 0 or json.loads(out)["sup_norm"] > 1e-12:
        failures.append("verify termwise example")
    code, out, _ = _cli("verify", "--beta", "0.5", "--method", "l1", "--steps", "2000")
    if code != 0 or json.loads(out)["sup_norm"] > 1e-4:
        failures.append("verify l1 example")
    code, out, _ = _cli("verify", "--beta", "0.7", "--method", "pc")
    if code != 0 or json.loads(out)["sup_norm"] > 1e-5:
        failures.append("verify pc example")

    code, out, _ = _cli("radius", "--beta", "1", "--m", "1")
    if code != 0 or not math.isclose(json.loads(out)["r_guaranteed"], 2.4495, abs_tol=1e-4):
        failures.append("radius beta=1 example")
    code, out, _ = _cli("radius", "--beta", "0.05")
    if code != 0 or json.loads(out)["r_formula_ii"] is not None:
        failures.append("radius formula-ii null example")
    code, out, _ = _cli("radius", "--beta", "1", "--m", "2")
    if code != 0 or not math.isclose(json.loads(out)["r_guaranteed"], math.sqrt(24.0), abs_tol=1e-6):
        failures.append("radius m=2 example")

    code, out, _ = _cli("coeffs", "--beta", "0.7", "-n", "32", "--format", "json")
    back = sequence_from_json(out)
    if code != 0 or not np.array_equal(back.g, build_sequence(0.7, 1.0, 32).g):
        failures.append("json round trip not bit-exact")

    ok = not failures
    detail = "all subcommand examples and round trip" if ok else "; ".join(failures)
    assert report(10, ok, detail), detail
