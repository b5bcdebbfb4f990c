"""Series evaluation, radius reporting, the closed-form majorant, and the
classical degeneration."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from felog.cli import main
from felog.euler_beta import build_sequence
from felog.series_solution import (
    C1_CLAIMED,
    C2_CLAIMED,
    SeriesSolution,
    compare_classical,
    radius_report,
    remark_bound,
    remark_bound_pole,
    remark_radius,
)
from felog.specfun import EULER_MASCHERONI, ln_gamma


class TestEvaluate:
    @pytest.mark.parametrize("beta", (0.3, 0.5, 0.7, 1.0))
    def test_initial_value(self, beta):
        sol = SeriesSolution.build(beta, 1.0, 64)
        res = sol.evaluate(0.0)
        assert res.w == 0.5
        assert res.tail_bound == 0.0
        assert res.in_domain

    def test_beta_one_at_one(self):
        sol = SeriesSolution.build(1.0, 1.0, 64)
        assert sol(1.0) == pytest.approx(math.e / (1.0 + math.e), abs=1e-10)

    def test_beta_one_at_two(self):
        sol = SeriesSolution.build(1.0, 1.0, 64)
        assert sol(2.0) == pytest.approx(math.e**2 / (1.0 + math.e**2), abs=1e-8)

    def test_negative_t_rejected(self):
        sol = SeriesSolution.build(0.5, 1.0, 64)
        with pytest.raises(ValueError):
            sol.evaluate(-0.1)

    @pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf, [0.5, math.nan]))
    def test_non_finite_t_rejected(self, t):
        sol = SeriesSolution.build(0.5, 1.0, 64)
        with pytest.raises(ValueError, match="finite"):
            sol.evaluate(t)

    def test_array_evaluation_matches_scalar(self):
        sol = SeriesSolution.build(0.7, 1.0, 64)
        t = np.array([0.0, 0.3, 1.1, 2.0])
        res = sol.evaluate(t)
        for i, ti in enumerate(t):
            assert res.w[i] == sol.evaluate(float(ti)).w

    def test_tail_bound_dominates_truncation(self):
        # doubling the term count changes the value by less than the
        # reported tail estimate of the shorter sum
        short = SeriesSolution.build(0.5, 1.0, 32)
        long = SeriesSolution.build(0.5, 1.0, 96)
        for t in (0.3, 0.8, 1.3):
            r = short.evaluate(t)
            assert abs(long(t) - r.w) <= r.tail_bound + 1e-16

    def test_in_domain_flag_tracks_empirical_radius(self):
        sol = SeriesSolution.build(0.7, 1.0, 64)
        edge = sol.domain_edge
        res = sol.evaluate(np.array([0.5 * edge, 0.99 * edge, 1.01 * edge, 3.0 * edge]))
        assert list(res.in_domain) == [True, True, False, False]

    def test_tail_bound_infinite_past_majorant_radius(self):
        sol = SeriesSolution.build(1.0, 1.0, 64)
        res = sol.evaluate(10.0)
        assert math.isinf(res.tail_bound)

    @pytest.mark.parametrize("beta", (0.6, 0.8, 1.0))
    def test_monotone_increasing_on_physical_branch(self, beta):
        sol = SeriesSolution.build(beta, 1.0, 64)
        r_g = radius_report(sol.seq).r_guaranteed
        t = np.linspace(1e-9, 0.8 * r_g, 50)
        w = np.atleast_1d(sol.evaluate(t).w)
        assert np.all(np.diff(w) > 0.0)

    @pytest.mark.parametrize("beta", (0.6, 0.8, 1.0))
    def test_range_stays_in_saturation_band(self, beta):
        sol = SeriesSolution.build(beta, 1.0, 64)
        r_g = radius_report(sol.seq).r_guaranteed
        t = np.linspace(0.0, 0.8 * r_g, 50)
        w = np.atleast_1d(sol.evaluate(t).w)
        assert np.all(w >= 0.5) and np.all(w < 1.0)

    @pytest.mark.parametrize("beta", (0.7, 0.9, 1.0))
    def test_partial_sum_increments_within_majorant_ratio(self, beta):
        # |S_N - S_{N-2}| shrinks at least geometrically with the majorant
        # ratio at t = 0.9 * guaranteed radius. beta <= 0.5 is excluded: at
        # 0.3 the printed majorant overestimates the radius and the series
        # itself diverges at that t; at 0.5 the deep-tail pair k=61->63
        # overshoots the majorant ratio by 6%. The acceptance suite runs the
        # full stated grid and reports those failures.
        seq = build_sequence(beta, 1.0, 64)
        rep = radius_report(seq)
        t = 0.9 * rep.r_guaranteed
        q = (1.0 / rep.r_guaranteed) ** (2.0 * beta)
        bound = q * t ** (2.0 * beta)
        terms = [
            seq.g[k] * t ** (beta * k) for k in range(1, seq.n_terms, 2)
        ]
        increments = [abs(x) for x in terms]
        for a, b in zip(increments, increments[1:]):
            assert b <= a * bound * (1.0 + 1e-12)

    def test_curve_csv_columns(self, capsys):
        argv = ["eval", "--beta", "1", "--m", "1", "--t0", "0", "--t1", "1", "--steps", "1",
                "--format", "csv"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,w,tail_bound,in_domain"
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "0.5" and first[3] == "true"


class TestRadiusReport:
    def test_guaranteed_radius_beta_one(self):
        rep = radius_report(build_sequence(1.0, 1.0, 64))
        assert rep.r_guaranteed == pytest.approx(math.sqrt(6.0), abs=1e-12)

    def test_guaranteed_radius_scales_with_m(self):
        rep = radius_report(build_sequence(1.0, 2.0, 64))
        assert rep.r_guaranteed == pytest.approx(math.sqrt(24.0), abs=1e-12)

    def test_empirical_radius_beta_one_near_pi(self):
        rep = radius_report(build_sequence(1.0, 1.0, 64))
        assert 2.4 < rep.r_empirical < math.pi + 0.2

    def test_empirical_radius_error_decreases_with_terms(self):
        errors = [
            abs(radius_report(build_sequence(1.0, 1.0, n)).r_empirical - math.pi)
            for n in (32, 64, 128)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_formula_ii_presence_condition(self):
        assert radius_report(build_sequence(0.5, 1.0, 32)).r_formula_ii is not None
        assert radius_report(build_sequence(0.05, 1.0, 32)).r_formula_ii is None

    def test_formula_values_against_second_implementation(self):
        # independent re-evaluation of the printed expressions in 50-digit
        # arithmetic with mpmath's own Euler-Mascheroni constant
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for beta in (0.3, 0.5, 0.7, 0.9, 1.0):
            for m in (1.0, 2.0):
                rep = radius_report(build_sequence(beta, m, 32))
                b, g = mp.mpf(beta), mp.euler
                f1 = (
                    m * 2**b / mp.e**b
                    * ((3 * b + 1) / (2 * b + 1)) ** (2 * b + mp.mpf(1) / 2)
                    * (3 * b + 1) ** (b + mp.mpf(1) / 2 - g)
                )
                f2 = (
                    m * 2 / (mp.e ** (2 * b) * mp.sqrt(b + 1))
                    * ((3 * b + 1) / (2 * b + 1)) ** (2 * b + mp.mpf(1) / 2)
                    * (3 * b + 1) ** (-b + g - mp.mpf(1) / 2)
                )
                assert rep.r_formula_i == pytest.approx(float(f1), rel=1e-12)
                assert rep.r_formula_ii == pytest.approx(float(f2), rel=1e-12)

    def test_formula_values_disagree_with_claimed_constants(self):
        # the printed expressions at beta = 1 do not reach their own claimed
        # limits; the report carries both sides instead of asserting either
        rep = radius_report(build_sequence(1.0, 1.0, 32))
        assert rep.r_formula_i == pytest.approx(5.4282, abs=1e-3)
        assert rep.r_formula_ii == pytest.approx(0.10932, abs=1e-4)
        payload = rep.to_json_dict()
        assert payload["discrepancy_i"] == pytest.approx(abs(5.428175544323511 - C1_CLAIMED), abs=1e-9)
        assert payload["discrepancy_ii"] == pytest.approx(abs(0.10932043389794516 - C2_CLAIMED), abs=1e-9)

    @pytest.mark.parametrize("beta", (0.5, 0.7, 0.9, 1.0))
    def test_empirical_vs_guaranteed_where_majorant_is_valid(self, beta):
        # for beta >= 0.5 the ratio-test radius stays above 0.9x the majorant
        # radius; at smaller beta the printed majorant overshoots the true
        # radius (see acceptance criterion 4 discussion)
        rep = radius_report(build_sequence(beta, 1.0, 64))
        assert rep.r_empirical >= 0.9 * rep.r_guaranteed

    def test_needs_twenty_terms(self):
        with pytest.raises(ValueError):
            radius_report(build_sequence(0.5, 1.0, 16))


def _loop_r_empirical(seq):
    """The ratio test as first written, kept as the reference: every odd
    ratio in a loop, pairs with a zero skipped, and the kept ratios labelled
    as consecutive k."""
    odd = np.abs(seq.g[1::2])
    ratios = []
    for j in range(len(odd) - 1):
        if odd[j] > 0.0 and odd[j + 1] > 0.0:
            ratios.append((odd[j] / odd[j + 1]) ** (1.0 / (2.0 * seq.beta)))
    if len(ratios) < 5:
        return None
    xs = np.array(ratios[-5:])
    k = np.arange(len(ratios) - 4, len(ratios) + 1, dtype=float)
    level1 = k[1:] * xs[1:] - (k[1:] - 1.0) * xs[:-1]
    return float(np.median(level1))


class TestRatioTestPrefix:
    """The ratio test reads only the odd coefficients before the first one
    that is zero or subnormal."""

    @pytest.mark.parametrize("n", (20, 64, 256))
    @pytest.mark.parametrize("m", (1.0, 2.0, 3.0))
    @pytest.mark.parametrize("beta", (0.2, 0.3, 0.5, 0.7, 0.9, 1.0))
    def test_matches_the_loop_without_underflow(self, beta, m, n):
        seq = build_sequence(beta, m, n)
        assert np.all(np.abs(seq.g[1::2]) >= sys.float_info.min)
        assert radius_report(seq).r_empirical == _loop_r_empirical(seq)

    @pytest.mark.parametrize("n", (700, 1024, 2048))
    @pytest.mark.parametrize("m", (1.0, 1.779))
    def test_classical_order_reaches_pi_m_past_the_underflow(self, m, n):
        seq = build_sequence(1.0, m, n)
        assert np.any(np.abs(seq.g[1::2]) < sys.float_info.min)
        assert abs(radius_report(seq).r_empirical - math.pi * m) <= 1e-8

    @pytest.mark.parametrize("beta, m", ((0.6006829317535398, 1.3269249778131236),
                                         (1.0, 1.779), (0.285, 2.041),
                                         (1.0, 1.0054174049483535),
                                         (0.26812530818219615, 1.9445966242931294)))
    def test_underflowed_tails_leave_the_edge_positive_and_fixed(self, beta, m):
        # at n = 1024 the loop gave -6.67, 5.57, 125.7, -7.69 and -782.9
        edges = [SeriesSolution.build(beta, m, n).domain_edge for n in (256, 1024, 2048)]
        assert edges[1] > 0.0
        assert edges[1] == edges[2]
        # and it agrees with the 256-term estimate, which has no underflow
        assert edges[1] == pytest.approx(edges[0], rel=1e-3)

    def test_short_prefix_falls_back_to_the_majorant(self):
        seq = build_sequence(0.7, 1.0, 64)
        g = seq.g.copy()
        g[9] = 5e-324  # odd entry 4: a four-entry prefix
        sol = SeriesSolution(dataclasses.replace(seq, g=g))
        assert sol.radius.r_empirical is None
        assert sol.domain_edge == sol.radius.r_guaranteed


class TestEvaluatePastTheRadius:
    @pytest.mark.filterwarnings("error")
    def test_overflow_is_flagged_not_warned(self):
        res = SeriesSolution.build(1.0, 1.0, 256).evaluate(np.array([0.5, 500.0, 1000.0]))
        assert np.isfinite(res.w[0]) and not np.any(np.isfinite(res.w[1:]))
        assert res.in_domain.tolist() == [True, False, False]
        assert np.all(np.isinf(res.tail_bound[1:]))


class TestRemarkBound:
    def test_value_at_origin_beta_one(self):
        assert remark_bound(1.0, 0.0) == pytest.approx(0.75, abs=1e-15)

    def test_value_at_origin_beta_three_quarters(self):
        expected = 0.5 + 0.25 / math.exp(ln_gamma(1.75))
        assert remark_bound(0.75, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_printed_radius_conflicts_with_claimed_cap(self):
        # formula gives 10/3 at beta = 1 although it is printed as <= 3
        assert remark_radius(1.0) == pytest.approx(10.0 / 3.0, abs=1e-14)
        assert remark_radius(1.0) > 3.0

    def test_pole_precedes_printed_radius(self):
        for beta in (0.55, 0.7, 0.85, 1.0):
            assert remark_bound_pole(beta) < remark_radius(beta)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            remark_bound(0.4, 0.1)  # needs beta > 1/2
        with pytest.raises(ValueError):
            remark_bound(1.0, remark_radius(1.0))  # at the radius
        with pytest.raises(ValueError):
            remark_bound(1.0, -0.1)

    @pytest.mark.parametrize("beta", (0.6, 0.75, 0.9, 1.0))
    def test_series_below_bound_on_overlap(self, beta):
        # overlap of validity: below the bound's own pole and inside the
        # series' trusted window
        sol = SeriesSolution.build(beta, 1.0, 64)
        hi = min(0.95 * remark_bound_pole(beta), 0.8 * sol.domain_edge)
        for t in np.linspace(0.0, hi, 40):
            assert sol(float(t)) <= remark_bound(beta, float(t)) + 1e-9


class TestCompareClassical:
    def test_m_one_within_budget(self):
        dev = compare_classical(1.0, np.linspace(0.0, 2.0, 41), n_terms=64)
        assert dev <= 1e-8

    def test_m_one_single_point(self):
        dev = compare_classical(1.0, [1.0])
        assert dev <= 1e-10

    def test_m_two_against_scaled_closed_form(self):
        dev = compare_classical(2.0, [1.0])
        assert dev <= 1e-10
        # the closed form it checks: 1/(1 + exp(-1/2))
        sol = SeriesSolution.build(1.0, 2.0, 64)
        assert sol(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), abs=1e-10)

    def test_zero_time_is_exact(self):
        assert compare_classical(1.0, [0.0]) == 0.0

    def test_rejects_grid_outside_window(self):
        with pytest.raises(ValueError):
            compare_classical(1.0, [3.5])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="the t grid is empty"):
            compare_classical(1.0, [])


def test_formula_ii_condition_uses_euler_mascheroni():
    assert 0.05 <= EULER_MASCHERONI - 0.5
    assert 0.5 > EULER_MASCHERONI - 0.5
