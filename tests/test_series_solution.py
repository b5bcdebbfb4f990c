"""Series evaluation, radius reporting, the closed-form majorant, and the
classical degeneration."""

import bisect
import dataclasses
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import exact_partial_sum

from felog import series_solution
from felog.cli import main
from felog.euler_beta import (BetaEulerSequence, _horner_scale, _normal_odd, build_sequence,
                              majorant_constants)
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

    @pytest.mark.parametrize("n", (64, 256, 1024))
    @pytest.mark.parametrize("m", (1.0, 3.0))
    @pytest.mark.parametrize("beta", (0.1, 0.2, 0.5, 0.7, 1.0))
    def test_scalar_path_is_bit_identical_to_the_array_path(self, beta, m, n):
        sol = SeriesSolution.build(beta, m, n)
        edge = sol.domain_edge
        t = np.concatenate((
            [0.0, 5e-324, 1e-300],
            np.linspace(0.0, 0.99 * edge, 41),
            edge * np.array([1.0, 1.01, 1.5, 3.0, 10.0, 1e3, 1e6]),
            [1e300, sys.float_info.max],
        ))
        grid = sol.evaluate(t)
        # past the radius the sum overflows to inf, or to NaN where inf - inf
        # or 0 * inf occurs; the scalar path must give the same kind there
        assert not np.all(np.isfinite(grid.w))
        for i, ti in enumerate(t.tolist()):
            one = sol.evaluate(ti)
            assert _same_bits(one.w, grid.w[i]), (ti, one.w, grid.w[i])
            assert _same_bits(one.tail_bound, grid.tail_bound[i]), ti
            assert one.in_domain is bool(grid.in_domain[i]), ti

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", (64, 256, 1024))
    @pytest.mark.parametrize("m", (1.0, 3.0))
    @pytest.mark.parametrize("beta", (0.1, 0.2, 0.5, 0.7, 1.0))
    def test_origin_is_exact(self, beta, m, n):
        # log 0 = -inf makes every power of t exactly 0 there
        sol = SeriesSolution.build(beta, m, n)
        grid = sol.evaluate(np.array([0.0, -0.0]))
        assert grid.w.tolist() == [0.5, 0.5]
        assert grid.tail_bound.tolist() == [0.0, 0.0]
        for t in (0.0, -0.0):
            one = sol.evaluate(t)
            assert (one.w, one.tail_bound, one.in_domain) == (0.5, 0.0, True)

    def test_bit_identity_cases_include_underflowed_coefficients(self):
        # the n = 1024 cases above at m = 3 carry odd coefficients that are
        # subnormal or exactly zero
        for beta in (0.1, 0.2, 0.5, 0.7, 1.0):
            odd = np.abs(build_sequence(beta, 3.0, 1024).g[1::2])
            assert np.any(odd == 0.0) and np.any(odd < sys.float_info.min)

    @pytest.mark.parametrize("n", (1024, 3000))
    @pytest.mark.parametrize("beta", (0.1, 0.2, 0.5, 0.7, 1.0))
    def test_scaled_horner_keeps_both_paths_bit_identical(self, beta, n):
        sol = SeriesSolution.build(beta, 3.0, n)
        assert _scale(sol) > 0  # some nonzero odd coefficient is subnormal
        t = np.concatenate(([0.0, 5e-324, 1e-300], np.linspace(0.0, 1.5, 61) * sol.domain_edge,
                            [1e300, sys.float_info.max]))
        grid = sol.evaluate(t)
        for i, ti in enumerate(t.tolist()):
            one = sol.evaluate(ti)
            assert _same_bits(one.w, grid.w[i]), (ti, one.w, grid.w[i])
            assert _same_bits(one.tail_bound, grid.tail_bound[i]), ti

    def test_call_goes_through_evaluate(self, monkeypatch):
        # benchmark spans wrap SeriesSolution.evaluate and read its argument
        # to tell scalar calls from grid calls
        seen = []
        original = SeriesSolution.evaluate

        def spy(self, t):
            seen.append(t)
            return original(self, t)

        monkeypatch.setattr(SeriesSolution, "evaluate", spy)
        sol = SeriesSolution.build(0.7, 1.0, 64)
        grid = np.array([0.1, 0.2])
        assert sol(0.5) == original(sol, 0.5).w
        sol(grid)
        assert seen[0] == 0.5 and seen[1] is grid

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

    def test_empirical_radius_error_falls_to_rounding_with_terms(self):
        # truncation shows at n = 32 (2.9e-11); from n = 64 on the ratios'
        # rounding sets the error (3.6e-15, 1.8e-14, 4.6e-14 at 64, 256, 1024)
        errors = [
            abs(radius_report(build_sequence(1.0, 1.0, n)).r_empirical - math.pi)
            for n in (32, 64, 256, 1024)
        ]
        assert errors[0] > 1e-12 >= max(errors[1:])

    def test_formula_ii_presence_condition(self):
        assert radius_report(build_sequence(0.5, 1.0, 32)).r_formula_ii is not None
        assert radius_report(build_sequence(0.05, 1.0, 32)).r_formula_ii is None

    def test_formula_values_against_second_implementation(self):
        # independent re-evaluation of the printed expressions in 50-digit
        # arithmetic with mpmath's own Euler-Mascheroni constant
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
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

    @pytest.mark.parametrize("n", (2, 10, 19))
    def test_short_series_rejected_at_construction(self, n):
        # every evaluation reads the radius, so a shorter series could never
        # be evaluated
        message = rf"^n_terms must be an integer from 20 to 10000, got {n}$"
        with pytest.raises(ValueError, match=message):
            SeriesSolution(build_sequence(0.7, 1.0, n))
        with pytest.raises(ValueError, match=message):
            SeriesSolution.build(0.7, 1.0, n)
        # the one check is the radius report's
        with pytest.raises(ValueError, match=message):
            radius_report(build_sequence(0.7, 1.0, n))

    def test_twenty_terms_evaluate(self):
        assert SeriesSolution.build(0.7, 1.0, 20)(0.5) > 0.5


def _same_bits(a, b):
    """Equal as doubles, bit for bit (so 0.0 and -0.0 differ), or both NaN."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def untrimmed_evaluate(sol, t):
    """evaluate's array arithmetic as first written, kept as the reference:
    Horner runs over every odd coefficient, the zeros at the top included."""
    beta, m = sol.seq.beta, sol.seq.m
    t = np.asarray(t, dtype=float)
    normal = _normal_odd(sol.seq.g)
    q = majorant_constants(beta)[1] if normal.size else math.nan
    last = float(normal[-1]) if normal.size else 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_t = np.log(t)
        tb = np.exp(beta * log_t)
        tau = tb * tb
        acc = np.zeros_like(t)
        for coeff in sol.seq.g[1::2][::-1].tolist():
            acc = acc * tau + coeff
        w = 0.5 + tb * acc
        last_term = last * np.exp(beta * (2 * normal.size - 1) * log_t)
        ratio = q * tau / (m * m)
        tail = np.where(ratio < 1.0, last_term * ratio / (1.0 - ratio), np.inf)
    return w, tail, (t <= sol.domain_edge) & np.isfinite(w)


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


class TestMedian:
    def test_bit_equal_to_numpy(self):
        # every four-tuple of signed zeros, a subnormal, values whose sum
        # overflows, the infinities and NaN
        pool = (0.0, -0.0, 1.0, -2.5, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan)
        with np.errstate(invalid="ignore", over="ignore"):
            for xs in itertools.product(pool, repeat=4):
                ref = np.median(np.array(xs))
                assert _same_bits(series_solution._median(list(xs)), ref), xs

    def test_two_negative_zeros_give_positive_zero(self):
        got = series_solution._median([-0.0, -0.0, -0.0, 1.0])
        assert np.float64(got).tobytes() == bytes(8)


def try_except_radius_report(seq):
    """Reference: radius_report as first written, with the majorant radius
    from a Python float power that raises OverflowError past the double
    range, outside the ratio test's errstate block."""
    beta, m = seq.beta, seq.m
    r_ii = series_solution._formula_ii(beta, m) if beta > EULER_MASCHERONI - 0.5 else None
    _, q = majorant_constants(beta)
    try:
        r_guaranteed = (m * m / q) ** (1.0 / (2.0 * beta))
    except OverflowError:
        r_guaranteed = math.inf
    odd = _normal_odd(seq.g)
    size = odd.size
    r_empirical = None
    if size >= 6:
        with np.errstate(over="ignore", invalid="ignore"):
            xs = np.array([(odd[j] / odd[j + 1]) ** (1.0 / (2.0 * beta))
                           for j in range(size - 6, size - 1)])
            k = np.arange(size - 5, size, dtype=float)
            level1 = k[1:] * xs[1:] - (k[1:] - 1.0) * xs[:-1]
            estimate = series_solution._median(level1.tolist())
        r_empirical = estimate if math.isfinite(estimate) else None
    return series_solution.RadiusReport(series_solution._formula_i(beta, m), r_ii,
                                        r_guaranteed, r_empirical, m)


class TestRadiusPastTheDoubleRange:
    """The majorant radius is inf once it passes the double range, and the
    ratio test gives None unless its estimate is finite; neither raises nor
    warns."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", (1e-300, 1e-10, 4e-4, 4.9e-4, 0.01, 0.1, 0.3, 0.7, 1.0))
    @pytest.mark.parametrize("m", (1.0, 3.0, 1e31, 1e50, 1e94, 1e200, 1e308))
    @pytest.mark.parametrize("n", (20, 64))
    def test_grid(self, beta, m, n):
        sol = SeriesSolution.build(beta, m, n)
        r = sol.radius
        assert r.r_guaranteed > 0.0
        assert r.r_empirical is None or math.isfinite(r.r_empirical)
        _, q = majorant_constants(beta)
        log_radius = math.log(m * m / q) / (2.0 * beta)
        if log_radius < 709.0:  # inside the double range: the power's own bits
            assert r.r_guaranteed == (m * m / q) ** (1.0 / (2.0 * beta))
        elif log_radius > 710.0:
            assert r.r_guaranteed == math.inf

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(log_beta=st.floats(-4.0, 0.0), log_m=st.floats(0.0, 200.0),
           n=st.sampled_from((20, 64, 256)))
    def test_bit_identical_to_the_try_except_form(self, log_beta, log_m, n):
        # numpy's scalar power and Python's float power give the same bits;
        # repr tells 0.0 from -0.0 and a numpy scalar from a float
        seq = build_sequence(10.0**log_beta, 10.0**log_m, n)
        assert repr(radius_report(seq)) == repr(try_except_radius_report(seq))

    @pytest.mark.parametrize("m", (1e154, 1e308))
    def test_json_dict_is_strict_json(self, m):
        # r_guaranteed is inf at both, and the discrepancies inf and NaN at
        # 1e308; the dict holds None for each, and the record keeps the float
        rep = radius_report(build_sequence(1.0, m, 64))
        payload = rep.to_json_dict()
        json.dumps(payload, allow_nan=False)
        assert rep.r_guaranteed == math.inf and payload["r_guaranteed"] is None
        assert [k for k, v in payload.items() if v is None] == [
            k for k, v in rep._quantities().items() if v is None or not math.isfinite(v)]

    @pytest.mark.filterwarnings("error")
    def test_overflowed_ratio_test_gives_none(self):
        # every odd ratio raised to 1/(2 beta) = 5 passes the double range
        sol = SeriesSolution.build(0.1, 1e50)
        assert sol.radius.r_empirical is None
        assert sol.domain_edge == sol.radius.r_guaranteed == math.inf


class TestFixedRadius:
    def test_radius_and_edge_are_set_at_construction(self):
        sol = SeriesSolution.build(0.7)
        state = vars(sol)
        assert state["radius"] == radius_report(sol.seq)
        assert state["domain_edge"] == state["radius"].r_empirical
        assert not hasattr(series_solution, "cached_property")

    def test_no_state_is_written_after_construction(self):
        sol = SeriesSolution.build(0.7)
        before = dict(vars(sol))
        sol.evaluate(np.linspace(0.0, 2.0, 9))
        sol(0.5)
        assert vars(sol).keys() == before.keys()
        assert all(vars(sol)[key] is value for key, value in before.items())


class TestTailFromTheNormalPrefix:
    """The tail estimate rests on the last odd coefficient before the first
    one that is zero or subnormal."""

    @pytest.mark.parametrize("beta", (0.1, 0.3, 0.5, 0.7, 1.0))
    def test_no_nan_inside_the_domain(self, beta):
        # 34 of these 80 cases gave a NaN (0 * inf) when the tail read the
        # last odd coefficient, underflowed to 0
        for m in (1.0, 2.0, 3.0, 7.0):
            for n in (64, 256, 1024, 2048):
                sol = SeriesSolution.build(beta, m, n)
                t = np.linspace(0.0, 0.999 * sol.domain_edge, 200)[1:]
                tail = sol.evaluate(t).tail_bound
                assert not np.any(np.isnan(tail)), (m, n)
                assert np.all(tail >= 0.0), (m, n)

    @pytest.mark.parametrize("n", (64, 256))
    @pytest.mark.parametrize("beta", (0.3, 0.7, 1.0))
    def test_last_coefficient_without_underflow(self, beta, n):
        sol = SeriesSolution.build(beta, 2.0, n)
        odd = np.abs(sol.seq.g[1::2])
        assert np.all(odd >= sys.float_info.min)
        t = np.linspace(0.0, 0.99 * sol.domain_edge, 41)[1:]
        _, q = majorant_constants(beta)
        ratio = q * t ** (2 * beta) / 4.0
        geometric = np.where(ratio < 1.0, ratio / (1.0 - ratio), np.inf)
        expected = odd[-1] * np.exp(beta * (n - 1) * np.log(t)) * geometric
        assert np.all(np.isfinite(expected[:5]))
        assert np.allclose(sol.evaluate(t).tail_bound, expected, rtol=1e-12, atol=0.0)

    def test_rests_on_the_last_normal_coefficient(self):
        seq = build_sequence(1.0, 3.0, 1024)
        odd = np.abs(seq.g[1::2])
        size = int(np.flatnonzero(odd < sys.float_info.min)[0])
        assert 20 < size < odd.size and np.any(odd[size:] == 0.0)
        # the series cut after the last normal odd coefficient has the same tail
        cut = SeriesSolution(BetaEulerSequence(1.0, 3.0, seq.g[: 2 * size]))
        sol = SeriesSolution(seq)
        t = np.array([0.1, 0.3, 0.6]) * sol.domain_edge
        tail = sol.evaluate(t).tail_bound
        assert tail.tobytes() == cut.evaluate(t).tail_bound.tobytes()
        assert np.all(np.isfinite(tail) & (tail > 0.0))
        assert sol.evaluate(float(t[1])).tail_bound == tail[1]

    def test_no_normal_coefficient_gives_an_infinite_tail(self):
        sol = SeriesSolution.build(0.5, 1e308, 64)
        assert abs(sol.seq.g[1]) < sys.float_info.min
        t = [0.0, 1.0, 2.0]
        assert np.all(np.isposinf(sol.evaluate(np.array(t)).tail_bound))
        for ti in t:
            res = sol.evaluate(ti)
            assert res.w == 0.5 and res.tail_bound == math.inf


class TestEvaluatePastTheRadius:
    @pytest.mark.filterwarnings("error")
    def test_overflow_is_flagged_not_warned(self):
        res = SeriesSolution.build(1.0, 1.0, 256).evaluate(np.array([0.5, 500.0, 1000.0]))
        assert np.isfinite(res.w[0]) and not np.any(np.isfinite(res.w[1:]))
        assert res.in_domain.tolist() == [True, False, False]
        assert np.all(np.isinf(res.tail_bound[1:]))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_w_is_never_in_domain(self):
        # every odd coefficient past g_1 underflows and r_guaranteed overflows,
        # so the edge is inf, but t^(2 beta) overflows before m^-k can scale it
        sol = SeriesSolution.build(1.0, 1e200, 64)
        assert sol.domain_edge == math.inf
        one = sol.evaluate(1e160)
        assert math.isnan(one.w) and one.tail_bound == math.inf
        assert one.in_domain is False
        grid = sol.evaluate(np.array([0.0, 5e159, 1e160]))
        assert grid.w[0] == 0.5 and np.all(np.isnan(grid.w[1:]))
        assert grid.in_domain.tolist() == [True, False, False]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", (0.1, 0.7, 1.0))
    def test_no_finite_t_warns(self, beta):
        # t^(2 beta) itself overflows here, and at the largest double so may t^beta
        sol = SeriesSolution.build(beta, 1.0, 64)
        t = [0.0, 5e-324, 1e300, sys.float_info.max]
        grid = sol.evaluate(np.array(t))
        assert grid.in_domain.tolist() == [True, True, False, False]
        assert np.all(np.isinf(grid.tail_bound[2:]))
        for ti in t:
            sol.evaluate(ti)


def _scale(sol):
    """The power-of-two scale s of sol's Horner sum: tau is taken times 2^(-s)."""
    return -math.frexp(sol._tau_scale)[1] + 1


class TestHornerTrim:
    """Horner starts at the highest nonzero odd coefficient; the zeros above it
    changed no bit of w, tail_bound or in_domain. Where a nonzero coefficient
    is subnormal, Horner runs on scaled values (euler_beta._horner_scale).
    Inside the edge a point may also skip terms it cannot feel (see
    TestHornerStart), so there w is held to the exact sum: no farther from it
    than the untrimmed Horner's."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", (64, 1024, 3000))
    @pytest.mark.parametrize("m", (1.0, 3.0, 1e200))
    @pytest.mark.parametrize("beta", (1e-3, 0.1, 0.5, 1.0))
    def test_matches_the_untrimmed_reference(self, beta, m, n):
        sol = SeriesSolution.build(beta, m, n)
        edge = sol.domain_edge
        scale = edge if 0.0 < edge < math.inf else 1.0
        t = np.concatenate((
            [0.0, 5e-324, 1e-300],
            scale * np.array([0.01, 0.3, 0.6, 0.9, 0.99, 1.0, 1.5, 10.0, 1e6]),
            [1e10, 1e100, 1e160, 1e300, sys.float_info.max],
        ))
        w, tail, in_domain = untrimmed_evaluate(sol, t)
        grid = sol.evaluate(t)
        assert grid.tail_bound.tobytes() == tail.tobytes()
        assert grid.in_domain.tobytes() == in_domain.tobytes()
        checked = t <= edge
        if _scale(sol) == 0:
            # every term runs at t = 0, from the edge on, and at every t where
            # the edge is not finite: there w keeps the untrimmed bits
            full = (t == 0.0) | (t >= edge) | (edge == math.inf)
            assert grid.w[full].tobytes() == w[full].tobytes()
            checked &= ~full
        # elsewhere within the radius, off the exact sum of the stored
        # coefficients by no more than the untrimmed Horner, give or take one ulp
        for ti, new, old in zip(t[checked].tolist(), grid.w[checked].tolist(), w[checked].tolist()):
            tb = float(np.exp(beta * np.log(np.float64(ti)))) if ti else 0.0
            exact = exact_partial_sum(sol.seq.g, tb, tb * tb)
            assert (abs(Fraction(new) - exact)
                    <= abs(Fraction(old) - exact) + Fraction(math.ulp(float(exact)))), ti
        for i, ti in enumerate(t.tolist()):
            one = sol.evaluate(ti)
            assert _same_bits(one.w, grid.w[i]) and _same_bits(one.tail_bound, tail[i]), ti
            assert one.in_domain is bool(in_domain[i]), ti

    @pytest.mark.parametrize("c, s", (
        ([0.25, 1e-3, 0.0, -1e-300], 0),                 # nothing subnormal
        ([0.25, 1e-310], 8),                             # 1e-310 = 0.57 * 2^-1029
        ([0.25, -1e-3, 0.0, 5e-324], 18),                # 2^-1074 * 2^54 = 2^-1020
        ([0.25, 1e-310, 0.0, 5e-324], 18),
        ([5e-324, 1e-310], 0),                           # c_0 cannot be scaled
        ([0.25, 1e308, 5e-324], 0),                      # 1e308 * 2^26 overflows
    ))
    def test_scale_is_the_least_that_leaves_nothing_subnormal(self, c, s):
        c = np.array(c)
        assert _horner_scale(c) == s
        if s:
            i = np.arange(c.size)
            for trial, normal in ((s, True), (s - 1, False)):
                scaled = np.abs(np.ldexp(c, trial * i))[c != 0.0]
                assert bool(np.all(scaled >= sys.float_info.min)) == normal, trial

    def test_scaled_sum_is_within_an_ulp_of_the_exact_one(self):
        # the unscaled Horner was 1.0e-9 off here, and 9.6e-7 at 0.99 edge
        sol = SeriesSolution.build(0.1, 3.0, 1024)
        assert _scale(sol) > 0
        for share in (0.9, 0.99):
            t = share * sol.domain_edge
            tb = float(np.exp(0.1 * np.log(t)))
            exact = exact_partial_sum(sol.seq.g, tb, tb * tb)
            assert abs(Fraction(sol(t)) - exact) <= 2.2e-16, share

    def test_cases_above_trim_zeros_and_overflow(self):
        # zeros above the last nonzero odd coefficient at every m = 3 and
        # m = 1e200 case with n >= 1024; at m = 1e200 only g_1 is left, and
        # the first Horner step's 0 * tau gives NaN where tau overflows
        for beta in (1e-3, 0.1, 0.5, 1.0):
            for m in (3.0, 1e200):
                sol = SeriesSolution.build(beta, m, 1024)
                assert len(sol._horner) < 512, (beta, m)
        sol = SeriesSolution.build(1.0, 1e200, 64)
        assert sol._horner == [sol.seq.g[1]]
        assert math.isnan(sol(1e160)) and math.isnan(untrimmed_evaluate(sol, [1e160])[0][0])

    def test_g1_is_never_trimmed(self):
        # g_1 = p / m is positive for every finite m, so Horner has a step
        sol = SeriesSolution.build(0.5, sys.float_info.max, 20)
        assert 0.0 < sol.seq.g[1] < sys.float_info.min
        assert sol._horner == [sol.seq.g[1]]


def every_term(sol, t):
    """w from evaluate's scaled Horner over every stored odd coefficient,
    one t at a time in floats, as before each point had its own start."""
    beta = sol.seq.beta
    out = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for ti in np.asarray(t, dtype=float).ravel().tolist():
            tb = float(np.exp(beta * float(np.log(ti))))
            tau_scaled = tb * tb * sol._tau_scale
            acc = 0.0
            for coeff in sol._horner:
                acc = acc * tau_scaled + coeff
            out.append(0.5 + tb * acc)
    return np.array(out).reshape(np.shape(t))


def _skipped_sum(sol, t):
    """t^beta times the absolute values of the stored terms that evaluate
    skips at t, exactly: each float read as its exact value."""
    tb = float(np.exp(sol.seq.beta * np.log(np.float64(t)))) if t else 0.0
    tau_scaled = tb * tb * sol._tau_scale
    skipped = sol._horner[: sol._start(tau_scaled)]
    g = np.zeros(2 * len(sol._horner))
    if skipped:
        g[2 * (len(sol._horner) - len(skipped)) + 1 :: 2] = np.abs(skipped[::-1])
    return exact_partial_sum(g, tb, tau_scaled) - Fraction(1, 2)


class TestHornerStart:
    """Each point starts Horner at the highest block of scaled coefficients
    its tau passes; the terms it skips add at most 2^-56 to w, and every t at
    or past the edge runs every term."""

    @settings(max_examples=80, deadline=None)
    @given(beta=st.floats(1e-3, 1.0), m=st.floats(1.0, 3.0), n=st.integers(20, 3000),
           shares=st.lists(st.floats(1e-3, 1.5), min_size=2, max_size=2))
    def test_skipped_terms_are_within_the_budget(self, beta, m, n, shares):
        sol = SeriesSolution.build(beta, m, n)
        assert sol._theta == sorted(sol._theta)  # bisection needs that order
        edge = sol.domain_edge
        scale = edge if 0.0 < edge < math.inf else 1.0
        t = np.array([0.0, *(share * scale for share in shares), scale, 1.5 * scale])
        grid = sol.evaluate(t)
        w, _, _ = untrimmed_evaluate(sol, t)
        # at t = 0 and from the edge on every term runs, so w keeps the bits
        # of the untrimmed loop, or of the scaled one where Horner is scaled
        full = w if _scale(sol) == 0 else every_term(sol, t)
        for ti, new, old, ref in zip(t.tolist(), grid.w.tolist(), w.tolist(), full.tolist()):
            if ti == 0.0 or ti >= edge:
                assert _same_bits(new, ref), ti
                continue
            assert _skipped_sum(sol, ti) <= Fraction(2) ** -56, ti
            tb = float(np.exp(beta * np.log(np.float64(ti))))
            exact = exact_partial_sum(sol.seq.g, tb, tb * tb)
            assert (abs(Fraction(new) - exact)
                    <= abs(Fraction(old) - exact) + Fraction(math.ulp(float(exact)))), ti

    @pytest.mark.parametrize("n", (64, 256, 1024))
    @pytest.mark.parametrize("m", (1.0, 3.0))
    @pytest.mark.parametrize("beta", (0.1, 0.2, 0.5, 0.7, 1.0))
    def test_within_an_ulp_of_every_term(self, beta, m, n):
        # the grid of test_scalar_path_is_bit_identical_to_the_array_path;
        # past the edge, and at t = 0, not a bit moves
        sol = SeriesSolution.build(beta, m, n)
        edge = sol.domain_edge
        t = np.concatenate((
            [0.0, 5e-324, 1e-300],
            np.linspace(0.0, 0.99 * edge, 41),
            edge * np.array([1.0, 1.01, 1.5, 3.0, 10.0, 1e3, 1e6]),
            [1e300, sys.float_info.max],
        ))
        w, full = sol.evaluate(t).w, every_term(sol, t)
        past = (t == 0.0) | (t >= edge)
        assert all(_same_bits(a, b) for a, b in zip(w[past], full[past]))
        assert np.all(np.abs(w[~past] - full[~past]) <= np.spacing(full[~past]))

    @pytest.mark.parametrize("arrange", ("shuffled", "reversed", "two_d", "repeated"))
    @pytest.mark.parametrize("n", (64, 1024))
    def test_the_order_of_the_points_moves_no_bit(self, arrange, n):
        sol = SeriesSolution.build(0.7, 3.0, n)
        t = np.linspace(0.0, 1.2 * sol.domain_edge, 600)
        if arrange == "repeated":
            t = np.repeat(t[::6], 6)
        rng = np.random.default_rng(7)
        perm = {"shuffled": rng.permutation(t.size), "reversed": np.arange(t.size)[::-1],
                "two_d": rng.permutation(t.size).reshape(20, 30),
                "repeated": rng.permutation(t.size)}[arrange]
        res, out = sol.evaluate(t), sol.evaluate(t[perm])
        for field in ("w", "tail_bound", "in_domain"):
            assert getattr(out, field).tobytes() == getattr(res, field)[perm].tobytes(), field
        assert out.w.shape == perm.shape

    @pytest.mark.parametrize("m", (1.0, 3.0))
    @pytest.mark.parametrize("beta", (1e-3, 0.1, 0.5, 1.0))
    def test_thresholds_rise_and_stay_below_the_edge(self, beta, m):
        sol = SeriesSolution.build(beta, m, 1024)
        theta = np.array(sol._theta)
        assert theta.size == -(-len(sol._horner) // series_solution._BLOCK)
        assert np.all(np.diff(theta) >= 0.0)
        edge = sol.domain_edge
        if 0.0 < edge < math.inf:
            tb = float(np.exp(beta * np.log(edge)))
            assert theta[-1] < tb * tb * sol._tau_scale
            assert sol._start(tb * tb * sol._tau_scale) == 0

    def test_the_edge_caps_the_thresholds(self):
        # terms far below the budget at the edge: every block above the lowest
        # could be skipped there, but a t at the edge, tau = 4, must still run
        # them all, and every t runs the lowest
        theta = series_solution._skip_thresholds(np.full(24, 1e-60), 0, 1.0, 2.0)
        assert theta[0] == -1.0
        assert np.all((3.999 < theta[1:]) & (theta[1:] < 4.0))
        assert bisect.bisect_left(theta, 4.0) == theta.size
        assert bisect.bisect_left(theta, 0.0) == 1

    def test_no_finite_edge_runs_every_term(self):
        sol = SeriesSolution.build(0.1, 1e50)
        assert sol.domain_edge == math.inf
        assert sol._theta == [-1.0] * len(sol._theta)
        assert sol._start(0.0) == 0


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

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="the t grid is empty"):
            compare_classical(1.0, [])


def test_formula_ii_condition_uses_euler_mascheroni():
    assert 0.05 <= EULER_MASCHERONI - 0.5
    assert 0.5 > EULER_MASCHERONI - 0.5
