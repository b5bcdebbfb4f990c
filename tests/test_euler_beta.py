"""Coefficient recurrence: forced initial values, closed-form cross-checks,
emergent structure, scaling, and the majorant data."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import DIGITS, classical_rationals, half_order_rationals, mp_coefficients

from felog.cli import main
from felog import euler_beta
from felog.euler_beta import (
    MAX_TERMS,
    BetaEulerSequence,
    _normal_odd,
    bound_sequences,
    build_sequence,
    closed_form_check,
    majorant_constants,
    sequence_from_json,
)
from felog.series_solution import SeriesSolution
from felog.specfun import EULER_MASCHERONI, euler_poly_exact, ln_gamma

BETA_GRID = (0.3, 0.5, 0.7, 0.9, 1.0)


def raw_number(seq, k):
    """Unnormalize: E_k = g_k * m^k * Gamma(beta*k + 1)."""
    return seq.g[k] * seq.m**k * math.exp(ln_gamma(seq.beta * k + 1.0))


def negative_stride_recurrence(beta, m, n_terms, snap_even=True):
    """Reference recurrence, as first written: each convolution dots g with
    a reversed, negative-stride view of itself, each Gamma ratio is the exp
    of one log-Gamma difference, and an even step within 1e-14 of zero,
    relative to max(1, |g_k|), is snapped to +0.0 unless ``snap_even`` is
    false."""
    snap_tol = 1e-14
    lg = np.array([ln_gamma(beta * k + 1.0) for k in range(n_terms)])
    g = np.zeros(n_terms)
    g[0] = 0.5
    for k in range(n_terms - 1):
        conv = float(np.dot(g[: k + 1], g[k::-1]))
        nxt = math.exp(lg[k] - lg[k + 1]) * (g[k] - conv) / m
        if snap_even and (k + 1) % 2 == 0 and abs(nxt) <= snap_tol * max(1.0, abs(g[k])):
            nxt = 0.0
        g[k + 1] = nxt
    return g


def full_length_recurrence(beta, m, n_terms):
    """Reference recurrence, build_sequence's loop before it stopped at the
    zero tail: every odd step runs, each dotting contiguous g[:k + 1] with a
    reversed copy of g, on the same Gamma ratios."""
    ratios = euler_beta._gamma_ratios(beta, beta * np.arange(0, n_terms - 1, 2) + 1.0).tolist()
    g, g_rev = np.zeros(n_terms), np.zeros(n_terms)
    g[0] = g_rev[-1] = g_k = 0.5
    for k1, j, ratio in zip(range(1, n_terms, 2), range(n_terms - 1, 0, -2), ratios):
        conv = float(g[:k1].dot(g_rev[j:]))
        g[k1] = g_rev[j - 1] = ratio * (g_k - conv) / m
        g_k = 0.0
    return g


#: How far build_sequence may lie from negative_stride_recurrence, relative:
#: the reference's exp of log-Gamma differences is off by up to 2.9e-11 per
#: ratio (at k < 10,000), and its coefficients by 9.5e-13 at n = 1024, while
#: build_sequence's ratios are within a few ulps.
REFERENCE_REL = 1e-11


def assert_near_reference(g, ref):
    """Every even entry byte-equal (+0.0 both, but g_0), and every odd one
    within REFERENCE_REL of the reference, relative to at least the smallest
    normal double, since a subnormal carries fewer bits."""
    assert g[0::2].tobytes() == ref[0::2].tobytes()
    odd, ref_odd = g[1::2], ref[1::2]
    excess = np.abs(odd - ref_odd) / np.maximum(np.abs(ref_odd), sys.float_info.min)
    assert np.all(excess <= REFERENCE_REL), (int(np.argmax(excess)) * 2 + 1, float(np.max(excess)))


class TestBuildSequence:
    @pytest.mark.parametrize("m", (1.0, 1.7, 3.0, 10.0))
    @pytest.mark.parametrize("beta", (0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
    def test_matches_the_negative_stride_recurrence(self, beta, m):
        for n in (2, 3, 64, 1024):
            g = build_sequence(beta, m, n).g
            assert_near_reference(g, negative_stride_recurrence(beta, m, n))

    def test_matches_the_reference_on_random_orders(self):
        # long sequences, where the odd coefficients underflow and the even
        # steps leave signed zeros and subnormal residues
        rng = random.Random(16)
        for _ in range(24):
            beta, m = rng.uniform(0.02, 1.0), 10.0 ** rng.uniform(0.0, 1.5)
            n = rng.randint(1024, 3000)
            ref = negative_stride_recurrence(beta, m, n)
            assert_near_reference(build_sequence(beta, m, n).g, ref)

    @settings(max_examples=60, deadline=None)
    @given(log_beta=st.floats(-4.0, 0.0), log_m=st.floats(0.0, 300.0),
           n=st.integers(2, 3000))
    def test_matches_the_reference_on_any_order(self, log_beta, log_m, n):
        # the reference runs every even step and snaps it; build_sequence runs
        # none, so this is where a residue that is not snapped would show
        beta, m = 10.0**log_beta, 10.0**log_m
        ref = negative_stride_recurrence(beta, m, n)
        assert_near_reference(build_sequence(beta, m, n).g, ref)

    def test_even_steps_below_the_smallest_normal_are_positive_zero(self):
        beta, m, n = 0.056, 1.928, 2048
        seq = build_sequence(beta, m, n)
        assert np.any(np.abs(seq.g[1::2]) < sys.float_info.min)
        assert seq.g[2::2].tobytes() == bytes(8 * (n // 2 - 1))  # +0.0 each
        # left in, the residues feed later steps and wreck the sum
        loose = BetaEulerSequence(beta, m, negative_stride_recurrence(beta, m, n, False))
        sol, loose_sol = SeriesSolution(seq), SeriesSolution(loose)
        t = np.linspace(0.01, 0.9, 50) * sol.domain_edge
        assert np.all((sol(t) > 0.5) & (sol(t) < 1.0))
        assert np.max(np.abs(loose_sol(t))) > 1e30

    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_forced_initial_values(self, beta, m):
        seq = build_sequence(beta, m, 16)
        assert seq.g[0] == 0.5
        g1 = 0.25 / (m * math.exp(ln_gamma(beta + 1.0)))
        assert seq.g[1] == pytest.approx(g1, rel=1e-14)

    def test_third_number_at_beta_one(self):
        seq = build_sequence(1.0, 1.0, 8)
        assert raw_number(seq, 3) == pytest.approx(-0.125, rel=1e-13)

    def test_fifth_number_at_beta_one(self):
        seq = build_sequence(1.0, 1.0, 8)
        assert raw_number(seq, 5) == pytest.approx(0.25, rel=1e-13)

    def test_third_number_at_beta_half(self):
        # hand-evaluated closed form -(1/4)^2 / Gamma(3/2)^2, Gamma(3/2) = sqrt(pi)/2
        seq = build_sequence(0.5, 1.0, 8)
        expected = -(0.25**2) / (math.pi / 4.0)
        assert raw_number(seq, 3) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(-0.0795775, abs=5e-8)

    def test_beta_one_matches_classical_euler_values(self):
        # at beta = 1 the raw numbers are E_k(1)/2 exactly
        seq = build_sequence(1.0, 1.0, 26)
        for k in range(26):
            expected = float(euler_poly_exact(k, 1)) / 2.0
            if expected == 0.0:
                assert seq.g[k] == 0.0
            else:
                assert raw_number(seq, k) == pytest.approx(expected, rel=1e-12)

    def test_beta_one_degeneration_normalized(self):
        # g_k equals u_k / k! with u_k the classical coefficient E_k(1)/2
        seq = build_sequence(1.0, 1.0, 26)
        for k in range(26):
            u_k = float(euler_poly_exact(k, 1)) / 2.0
            if u_k == 0.0:
                assert seq.g[k] == 0.0
            else:
                assert seq.g[k] == pytest.approx(u_k / math.factorial(k), rel=1e-12)

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_even_terms_vanish_without_snapping(self, beta):
        g = negative_stride_recurrence(beta, 1.0, 66, snap_even=False)
        for k in range(1, 33):
            assert abs(g[2 * k]) <= 1e-14 * max(1.0, abs(g[2 * k - 1]))
        # so storing each even coefficient as +0.0 changes nothing here: the
        # odd ones differ only by the reference's ratios, off by up to 3.0e-14
        # of their 50-digit values before k = 64
        built = build_sequence(beta, 1.0, 66).g
        assert np.all(built[2::2] == 0.0)
        assert np.max(np.abs(built[1::2] / g[1::2] - 1.0)) <= 1e-13

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_sign_pattern_of_raw_numbers(self, beta):
        seq = build_sequence(beta, 1.0, 64)
        for j in range(16):
            assert seq.raw_sign[4 * j + 1] == 1
            assert seq.raw_sign[4 * j + 3] == -1
            if j >= 1:
                assert seq.raw_sign[2 * j] == 0

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_m_scaling_in_log_space(self, beta):
        base = build_sequence(beta, 1.0, 64)
        scaled = build_sequence(beta, 2.0, 64)
        k = np.arange(64)
        odd = slice(1, None, 2)
        lhs = np.log(np.abs(scaled.g[odd]))
        rhs = np.log(np.abs(base.g[odd])) - k[odd] * math.log(2.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))

    def test_raw_log_magnitude_reconstruction(self):
        seq = build_sequence(0.7, 2.0, 32)
        for k in (1, 3, 9, 31):
            expected = (
                math.log10(abs(seq.g[k]))
                + k * math.log10(2.0)
                + ln_gamma(0.7 * k + 1.0) / math.log(10.0)
            )
            assert seq.raw_log10[k] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("beta, n", [(1.0, 300), (0.5, 1024), (0.3, 1000), (1e-3, 64)])
    def test_raw_log_magnitude_matches_the_per_element_loop(self, beta, n):
        # bit for bit, on both sides of ln_gamma's cut at x = 171
        seq = build_sequence(beta, 2.0, n)
        lg = np.array([ln_gamma(beta * k + 1.0) for k in range(n)])
        with np.errstate(divide="ignore"):
            log_g = np.log10(np.abs(seq.g))
        ref = log_g + np.arange(n) * math.log10(2.0) + lg / math.log(10.0)
        assert seq.raw_log10.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("build", (build_sequence, SeriesSolution.build))
    def test_more_than_max_terms_rejected_before_any_work(self, build, monkeypatch):
        # the Gamma ratios, the first array n_terms sizes, fail the test if
        # the bound does not fire
        monkeypatch.setattr(euler_beta, "_gamma_ratios", lambda *a: pytest.fail("recurrence ran"))
        with pytest.raises(ValueError, match=r"^n_terms must be an integer from 2 to 10000, "
                                             r"got 1000000000000$"):
            build(0.5, 1.0, 10**12)
        with pytest.raises(ValueError, match=r"^n_terms must be an integer from 2 to 10000, "
                                             r"got 10001$"):
            build(0.5, 1.0, MAX_TERMS + 1)

    def test_max_terms_is_accepted(self):
        assert build_sequence(1.0, 1.0, MAX_TERMS).n_terms == MAX_TERMS

    @pytest.mark.parametrize("payload", (
        {"beta": 1.5, "m": 0.5, "g": [0.5, 0.25 / 0.5 / math.gamma(2.5)]},
        {"beta": 0.0, "m": 1.0, "g": [0.5, 0.25]},
        {"beta": 0.5, "m": math.inf, "g": [0.5, 0.0]},
        {"beta": 0.5, "m": 1.0, "g": [0.5]},
        {"beta": 0.5, "m": 1.0, "g": []},
        {"beta": 0.5, "m": 1.0, "g": [0.25, 0.25 / math.gamma(1.5)]},  # g_0
        {"beta": 0.5, "m": 1.0, "g": [0.5, 0.3]},  # g_1
    ))
    def test_payload_outside_the_domain_rejected(self, payload):
        with pytest.raises(ValueError):
            sequence_from_json(payload)

    def test_arrays_are_read_only(self):
        seq = build_sequence(0.5, 1.0, 8)
        with pytest.raises(ValueError):
            seq.g[0] = 1.0

    def test_both_constructors_give_read_only_arrays(self):
        built = build_sequence(0.7, 2.0, 16)
        writable = dataclasses.replace(built, g=built.g.copy())
        for seq in (built, sequence_from_json(json.dumps(built.to_json_dict())), writable):
            for name in ("g", "raw_sign", "raw_log10"):
                assert not getattr(seq, name).flags.writeable, name

    def test_constructor_leaves_the_callers_array_writeable(self):
        # the sequence stores a read-only copy; np.asarray alone would freeze g
        g = build_sequence(0.5, 1.0, 16).g.copy()
        seq = BetaEulerSequence(0.5, 1.0, g)
        assert g.flags.writeable and not seq.g.flags.writeable
        g[3] = 7.0
        assert seq.g[3] != 7.0

    def test_n_terms_is_g_size(self):
        for n in (2, 16, 65):
            seq = build_sequence(0.7, 2.0, n)
            assert seq.n_terms == seq.g.size == n
            assert seq.raw_sign.size == seq.raw_log10.size == n

    def test_replace_rederives_raw_numbers(self):
        seq = build_sequence(0.7, 2.0, 32)
        # read, and so cache, the parent's raw numbers before replacing g
        assert seq.raw_sign[5] == 1 and np.isfinite(seq.raw_log10[3])
        g = seq.g.copy()
        g[3], g[5] = 0.0, -g[5]
        edited = dataclasses.replace(seq, g=g)
        assert edited.n_terms == 32
        assert edited.raw_sign[3] == 0 and np.isneginf(edited.raw_log10[3])
        assert edited.raw_sign[5] == -seq.raw_sign[5]
        assert edited.raw_log10[5] == seq.raw_log10[5]
        shorter = dataclasses.replace(seq, g=seq.g[:10])
        assert shorter.n_terms == 10
        assert np.array_equal(shorter.raw_sign, seq.raw_sign[:10])
        assert np.array_equal(shorter.raw_log10, seq.raw_log10[:10])


class TestZeroTail:
    """build_sequence stops where euler_beta._zero_tail proves the rest +0.0."""

    @staticmethod
    def later_products_vanish(odd):
        """Whether every product c_i c_j of two prefix entries that a later
        step dots (i + j >= s - 1) rounds to a zero, pair by pair."""
        s = len(odd)
        return all(odd[i] * odd[j] == 0.0 for i in range(s) for j in range(s - 1 - i, s))

    @pytest.mark.parametrize("n", (1024, 4096, 10000))
    @pytest.mark.parametrize("m", (1.0, 3.0, 1e300))
    @pytest.mark.parametrize("beta", (1e-4, 0.1, 0.5, 1.0))
    def test_byte_equal_to_the_full_length_recurrence(self, beta, m, n):
        assert build_sequence(beta, m, n).g.tobytes() == full_length_recurrence(beta, m, n).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(log_beta=st.floats(-4.0, 0.0), log_m=st.floats(0.0, 300.0),
           n=st.sampled_from((1024, 4096, 10000)))
    def test_byte_equal_on_any_order(self, log_beta, log_m, n):
        beta, m = 10.0**log_beta, 10.0**log_m
        assert build_sequence(beta, m, n).g.tobytes() == full_length_recurrence(beta, m, n).tobytes()

    @pytest.mark.parametrize("odd, stops", [
        ([0.25, 1e-170, 1e-300, 0.0], True),
        # c_1 c_2 is a subnormal 1e-321, which the next step dots
        ([0.25, 0.1, 1e-320, 0.0], False),
        # c_2 c_4 = 1e-320 first shows two steps on: a_2 takes the greatest
        # of a[3:], not a_3 = 0 alone
        ([0.25, 0.0, 1e-160, 0.0, 1e-160, 0.0], False),
        ([0.25, 0.0, 1e-200, 0.0, 1e-200, 0.0], True),
        ([-0.25, 1e-320, -0.0, 0.0], True),
    ])
    def test_the_predicate_on_hand_made_prefixes(self, odd, stops):
        assert self.later_products_vanish(odd) is stops
        assert euler_beta._zero_tail(np.array(odd)) is stops

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from((0.0, -0.0, 5e-324, -1e-320, 1e-300, 1e-170, -1e-160,
                                     0.01, -0.25)), min_size=1, max_size=12))
    def test_the_predicate_is_the_pairwise_rule(self, odd):
        assert euler_beta._zero_tail(np.array(odd)) == self.later_products_vanish(odd)

    @staticmethod
    def counted_build(monkeypatch, *args):
        """build_sequence(*args).g and the number of dots its loop ran."""
        calls = []

        class Counting(np.ndarray):
            def dot(self, other):
                calls.append(1)
                return super().dot(other)

        zeros = np.zeros
        with monkeypatch.context() as patch:
            patch.setattr(np, "zeros", lambda *a, **k: zeros(*a, **k).view(Counting))
            g = build_sequence(*args).g
        return g, len(calls)

    def test_the_loop_stops_at_the_zero_tail(self, monkeypatch):
        g, steps = self.counted_build(monkeypatch, 1.0, 3.0, 1024)
        odd = g[1::2]
        # the steps run end at the first odd zero past the last nonzero one
        assert odd[steps - 2] != 0.0 and np.all(odd[steps - 1 :] == 0.0)
        assert steps < 0.4 * odd.size
        assert g.tobytes() == full_length_recurrence(1.0, 3.0, 1024).tobytes()

    def test_a_failed_test_runs_on_and_tests_every_zero_step(self, monkeypatch):
        tested = []

        def never(odd):
            tested.append(odd.size)
            return False

        monkeypatch.setattr(euler_beta, "_zero_tail", never)
        g, steps = self.counted_build(monkeypatch, 1.0, 3.0, 1024)
        assert steps == 512
        assert g.tobytes() == full_length_recurrence(1.0, 3.0, 1024).tobytes()
        # a test follows each step that gives 0.0, and no other step
        zero_steps = (np.flatnonzero(g[1::2] == 0.0) + 1).tolist()
        assert zero_steps and tested == zero_steps


class TestClosedForms:
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_residuals_within_contract(self, beta):
        seq = build_sequence(beta, 1.0, 12)
        residuals = closed_form_check(seq)
        assert set(residuals) == {3, 5, 7, 9}
        for k, r in residuals.items():
            assert r <= 1e-10, f"k={k}: {r}"

    def test_seventh_number_value_fixed_by_oracle(self):
        # at beta = 1 both routes must give E_7(1)/2 = -17/16
        seq = build_sequence(1.0, 1.0, 12)
        assert raw_number(seq, 7) == pytest.approx(-17.0 / 16.0, rel=1e-12)
        assert float(euler_poly_exact(7, 1)) / 2.0 == -17.0 / 16.0

    def test_ninth_number_value_fixed_by_oracle(self):
        seq = build_sequence(1.0, 1.0, 12)
        assert raw_number(seq, 9) == pytest.approx(31.0 / 4.0, rel=1e-12)
        assert float(euler_poly_exact(9, 1)) / 2.0 == 31.0 / 4.0

    def test_insufficient_terms(self):
        with pytest.raises(ValueError):
            closed_form_check(build_sequence(0.5, 1.0, 8))

    def test_a_check_past_the_double_range_is_refused_by_name(self):
        # m^9 passes the double range from m = 1.8e34; m^7 = 1e280 still fits
        assert max(closed_form_check(build_sequence(0.7, 1e34, 12)).values()) <= 1e-10
        with pytest.raises(ValueError, match=r"^m\^9 passes the double range at m = 1e\+40$"):
            closed_form_check(build_sequence(0.7, 1e40, 12))


class TestGammaRatioMonotonicity:
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_decreasing(self, beta):
        ratios = [
            math.exp(ln_gamma(2 * j * beta + 1.0) - ln_gamma((2 * j + 1) * beta + 1.0))
            for j in range(31)
        ]
        for j in range(1, 31):
            assert ratios[j] < ratios[j - 1]


class TestBoundSequences:
    def test_q_majorant_beta_one(self):
        bs = bound_sequences(build_sequence(1.0, 1.0, 32))
        assert bs.q_majorant == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_majorant_constants_beta_one(self):
        p, q = majorant_constants(1.0)
        assert p == pytest.approx(0.25, rel=1e-15)
        assert q == pytest.approx(1.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_a0_is_first_coefficient_ratio(self, beta):
        bs = bound_sequences(build_sequence(beta, 1.0, 32))
        p = 0.25 / math.exp(ln_gamma(beta + 1.0))
        assert bs.a[0] == pytest.approx(p, rel=1e-14)
        assert bs.b[0] == pytest.approx(p, rel=1e-14)

    def test_a2_over_a0_matches_printed_base(self):
        # printed base at beta = 0.6, evaluated independently beforehand with
        # 60-digit arithmetic: 0.46573768673890016
        bs = bound_sequences(build_sequence(0.6, 1.0, 32))
        assert bs.a[2] / bs.a[0] == pytest.approx(0.46573768673890016, rel=1e-13)

    @pytest.mark.parametrize("beta", (0.7, 0.9, 1.0))
    def test_majorant_chain_where_it_holds(self, beta):
        # The printed chain |E_{n+1}|/Gamma((n+1)b+1) <= p q^(n/2) is only
        # true for large enough beta; for beta <= 0.5 it is violated from
        # some n on (checked in 50-digit arithmetic by TestExactReferences;
        # the acceptance suite runs the stated grid and reports the
        # failure). Here we pin the range where it does hold.
        seq = build_sequence(beta, 1.0, 64)
        bs = bound_sequences(seq)
        p = 0.25 / math.exp(ln_gamma(beta + 1.0))
        for n in range(0, 62, 2):
            lhs = abs(seq.g[n + 1])
            assert math.log(lhs) <= math.log(p) + (n / 2.0) * math.log(bs.q_majorant) + 1e-12

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_a_envelope_majorizes_everywhere(self, beta):
        seq = build_sequence(beta, 1.0, 64)
        bs = bound_sequences(seq)
        for n in range(0, 62, 2):
            assert abs(seq.g[n + 1]) <= bs.a[n] * (1.0 + 1e-12)

    def test_requires_normalized_sequence(self):
        with pytest.raises(ValueError):
            bound_sequences(build_sequence(0.5, 2.0, 32))

    def test_bases_match_the_unshared_expressions(self):
        # each printed base as first written, its two shared factors inline
        gamma_em = EULER_MASCHERONI
        for beta in np.linspace(1e-4, 1.0, 500).tolist():
            base_a = (
                (1.0 / 2.0**beta)
                * ((2 * beta + 1) / (3 * beta + 1)) ** (2 * beta + 0.5)
                * math.exp(beta)
                / (3 * beta + 1) ** (beta + 0.5 - gamma_em)
            )
            base_b = (
                0.5
                * ((2 * beta + 1) / (3 * beta + 1)) ** (2 * beta + 0.5)
                * math.exp(2 * beta)
                / (3 * beta + 1) ** (beta + 0.5 - gamma_em)
                / (beta + 1) ** (beta + 1 - gamma_em)
            )
            bs = bound_sequences(build_sequence(beta, 1.0, 64))
            p, _ = majorant_constants(beta)
            n = np.arange(64, dtype=float)
            assert bs.a.tobytes() == (p * base_a ** (n / 2.0)).tobytes(), beta
            assert bs.b.tobytes() == (p * base_b ** (n / 2.0)).tobytes(), beta


def _worst(g, ref):
    """Largest |g_k / ref_k - 1| over the normal odd coefficients of g, in 50 digits."""
    with mpmath.workdps(DIGITS):
        return max(abs(mpmath.mpf(g[k]) / ref[k] - 1) for k in range(1, 2 * _normal_odd(g).size, 2))


class TestExactReferences:
    @pytest.mark.parametrize("n", (256, 1024))
    @pytest.mark.parametrize("m", (1.0, 3.0))
    @pytest.mark.parametrize("beta", (0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
    def test_coefficients_match_a_50_digit_recurrence(self, beta, m, n):
        # 3.5e-14 at worst here; the log-Gamma differences this replaced gave
        # up to 9.5e-13 at n = 1024
        assert _worst(build_sequence(beta, m, n).g, mp_coefficients(beta, m, n)) <= 1e-13

    @pytest.mark.parametrize("n", (64, 128, 256))
    def test_half_order_coefficients_match_the_exact_rationals(self, n):
        # 3.5e-15 at n = 256; the two references agree to their 50 digits
        with mpmath.workdps(DIGITS):
            exact = [mpmath.mpf(r.numerator) / r.denominator * mpmath.pi ** (-mpmath.mpf(k) / 2)
                     for k, r in enumerate(half_order_rationals(n))]
            assert max(abs(x - y) for x, y in zip(exact, mp_coefficients(0.5, 1.0, n))) < 1e-45
        assert _worst(build_sequence(0.5, 1.0, n).g, exact) <= 1e-14

    @pytest.mark.parametrize("n", (256, 1024))
    @pytest.mark.parametrize("m", (1.0, 3.0))
    def test_classical_coefficients_match_the_tanh_series(self, m, n):
        # 6.7e-15 at m = 1, n = 1024; every even coefficient is exactly zero
        g = build_sequence(1.0, m, n).g
        exact = classical_rationals(n)
        rate = Fraction(m)
        assert all(g[k] == 0.0 for k in range(2, n, 2))
        worst = max(abs(Fraction(g[k]) * rate**k / exact[k] - 1)
                    for k in range(1, 2 * _normal_odd(g).size, 2))
        assert worst <= 1e-13

    def test_the_tanh_series_agrees_with_the_50_digit_recurrence(self):
        # the two references share no arithmetic: tangent numbers against Gamma
        with mpmath.workdps(DIGITS):
            for x, r in zip(mp_coefficients(1.0, 1.0, 128), classical_rationals(128)):
                assert abs(x - mpmath.mpf(r.numerator) / r.denominator) < 1e-45

    @pytest.mark.parametrize("beta, first, at_first, at_60", ((0.3, 16, 1.215, 670),
                                                              (0.5, 60, 1.051, 1)))
    def test_the_printed_majorant_fails_in_50_digits(self, beta, first, at_first, at_60):
        # criterion 4's violations belong to the formula, not to rounding:
        # |g_(n+1)| / (p q^(n/2)) first passes 1 at the same even n in 50
        # digits, and it prints the first one, at beta = .3, as 1.22x
        ref = mp_coefficients(beta, 1.0, 64)
        with mpmath.workdps(DIGITS):
            b = mpmath.mpf(beta)
            p = 1 / (4 * mpmath.gamma(b + 1))
            q = 2 * p * mpmath.gamma(2 * b + 1) / mpmath.gamma(3 * b + 1)
            excess = {n: float(abs(ref[n + 1]) / (p * q ** (n // 2))) for n in range(0, 62, 2)}
        assert min(n for n, x in excess.items() if x > 1.0) == first
        assert (round(excess[first], 3), round(excess[60])) == (at_first, at_60)
        g = build_sequence(beta, 1.0, 64).g
        p, q = majorant_constants(beta)
        assert abs(g[first + 1]) / (p * q ** (first // 2)) == pytest.approx(excess[first],
                                                                            rel=1e-10)


class TestGammaRatios:
    """euler_beta._gamma_ratios, the one source of the recurrence's ratios."""

    def test_import_runs_no_bernoulli_code(self):
        # the expansion's table is built on first use: importing felog builds none
        script = (
            "import sys\n"
            "seen = []\n"
            "def watch(frame, event, arg):\n"
            "    if event == 'call' and 'bernoulli' in frame.f_code.co_name:\n"
            "        seen.append(frame.f_code.co_name)\n"
            "sys.setprofile(watch)\n"
            "import felog, felog.cli\n"
            "sys.setprofile(None)\n"
            "assert 'felog.euler_beta' in sys.modules\n"
            "print(seen)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.strip() == "[]"

    def test_the_expansion_table_is_built_once_and_read_only(self):
        # the first ratio builds it from b_0..b_13; later orders, and the
        # termwise check, read that one array
        script = (
            "import sys\n"
            "from felog import build_sequence, caputo_termwise, euler_beta\n"
            "seen = []\n"
            "def watch(frame, event, arg):\n"
            "    if event == 'call' and frame.f_code.co_name == 'bernoulli_numbers':\n"
            "        seen.append(frame.f_locals['n_max'])\n"
            "sys.setprofile(watch)\n"
            "for beta in (0.3, 0.7, 1.0):\n"
            "    caputo_termwise(build_sequence(beta, 1.0, 64))\n"
            "sys.setprofile(None)\n"
            "table = euler_beta._ratio_matrix()\n"
            "print(seen, table is euler_beta._ratio_matrix(), table.flags.writeable)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.strip() == "[13] True False"

    @pytest.mark.parametrize("beta", (1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
    def test_ratios_match_40_digit_values(self, beta):
        # worst 3.1e-16 from the expansion in doubles, 1.4e-16 below x = 24
        # where long double is wider than a double, and a few ulps elsewhere
        k = np.concatenate((np.arange(300), np.arange(300, 10_000, 97)))
        x = beta * k + 1.0
        got = euler_beta._gamma_ratios(beta, x)
        wide = np.finfo(np.longdouble).nmant > np.finfo(float).nmant
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            for ki, xi, r in zip(k.tolist(), x.tolist(), got.tolist()):
                ref = mpmath.gamma(b * ki + 1) / mpmath.gamma(b * ki + b + 1)
                bound = 2e-16 if xi < euler_beta._RATIO_CUT and wide else 5e-16
                assert abs(mpmath.mpf(r) / ref - 1) <= bound, (beta, ki)

    @pytest.mark.parametrize("beta", (1e-3, 0.05, 0.3, 1.0))
    def test_each_ratio_depends_on_its_own_x_alone(self, beta):
        # build_sequence reads the even-k ratios and caputo_termwise all of
        # them, so both must get the same bits for each x
        x = beta * np.arange(3000) + 1.0
        full = euler_beta._gamma_ratios(beta, x)
        assert euler_beta._gamma_ratios(beta, x[0::2]).tobytes() == full[0::2].tobytes()
        for n in (1, 2, 23, 24, 25, 1000):
            assert euler_beta._gamma_ratios(beta, x[:n]).tobytes() == full[:n].tobytes()


class TestSerialization:
    def test_json_round_trip_bit_exact(self):
        seq = build_sequence(0.7, 1.0, 32)
        back = sequence_from_json(json.dumps(seq.to_json_dict()))
        assert isinstance(back, BetaEulerSequence)
        assert back.beta == seq.beta and back.m == seq.m
        assert back.n_terms == seq.n_terms
        for name in ("g", "raw_sign", "raw_log10"):
            assert getattr(back, name).tobytes() == getattr(seq, name).tobytes(), name
        zero = seq.g == 0.0
        assert zero.sum() == 15
        assert np.all(np.isneginf(back.raw_log10[zero])) and np.all(back.raw_sign[zero] == 0)

    def test_json_dict_is_strict_json(self):
        # 512 even coefficients are exact zeros, whose log10_mag -inf is null
        payload = build_sequence(1.0, 1.0, 1024).to_json_dict()
        json.dumps(payload, allow_nan=False)
        assert [raw["log10_mag"] for raw in payload["raw"][0::2]][1:] == [None] * 511
        assert all(type(raw["sign"]) is int for raw in payload["raw"])

    @pytest.mark.parametrize("bad", ({5: math.nan, 7: math.inf}, {23: -math.inf}))
    def test_non_finite_coefficients_rejected(self, bad):
        # json.loads reads the NaN and Infinity that json.dumps writes; the
        # intake table in test_intake.py hands sequence_from_json a dict, not text
        payload = build_sequence(0.5, 1.0, 24).to_json_dict()
        for k, v in bad.items():
            payload["g"][k] = v
        text = json.dumps(payload)
        k = min(bad)
        with pytest.raises(ValueError) as exc:
            sequence_from_json(text)
        assert str(exc.value) == f"g[{k}] must lie in (-inf, inf), got {bad[k]!r}"

    @pytest.mark.parametrize("payload, message", (
        ([], "a sequence payload must be a JSON object, got list"),
        ("[0.5, 0.25]", "a sequence payload must be a JSON object, got list"),
        ('"g"', "a sequence payload must be a JSON object, got str"),
        ({"m": 1.0, "g": [0.5, 0.25]}, "the sequence payload has no 'beta' field"),
        ({"beta": 1.0, "g": [0.5, 0.25]}, "the sequence payload has no 'm' field"),
        ('{"beta": 1.0, "m": 1.0}', "the sequence payload has no 'g' field"),
        ({"beta": "one", "m": 1.0, "g": [0.5, 0.25]}, "the payload's 'beta' field must be a number"),
        ({"beta": 1.0, "m": None, "g": [0.5, 0.25]}, "the payload's 'm' field must be a number"),
        ({"beta": 1.0, "m": [1.0], "g": [0.5, 0.25]}, "the payload's 'm' field must be a number"),
        ({"beta": 1.0, "m": 1.0, "g": {"0": 0.5}},
         "the payload's 'g' field must be a list of numbers"),
        ({"beta": 1.0, "m": 1.0, "g": [0.5, "x"]},
         "the payload's 'g' field must be a list of numbers"),
        ({"beta": 1.0, "m": 1.0, "g": [[0.5], [0.25, 0.0]]},
         "the payload's 'g' field must be a list of numbers"),
        ({"beta": 1.0, "m": 1.0, "g": [[0.5, 0.25]]},
         "the payload's 'g' field must be a list of numbers"),
    ))
    def test_malformed_payload_names_its_field(self, payload, message):
        # a payload is input from outside the program: no KeyError or TypeError
        with pytest.raises(ValueError) as exc:
            sequence_from_json(payload)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value", (
        ("beta", '"1"'), ("m", '"1"'), ("g", '["0.5", "0.25", "0"]'), ("g", '"[0.5, 0.25]"'),
        ("beta", "true"), ("m", "true"), ("g", "[0.5, 0.25, false]"),
        ("beta", "1" + "0" * 400), ("m", "1" + "0" * 400),
        ("g", "[0.5, 0.25, -1%s]" % ("0" * 400)),
    ), ids=lambda v: v if len(v) < 30 else v[:20] + "...")
    def test_only_json_numbers_are_read(self, field, value):
        # a string, a bool and an integer past the double range are not JSON
        # numbers: float() would take the first two, and the third overflows
        fields = {"beta": "1.0", "m": "1.0", "g": "[0.5, 0.25]", field: value}
        text = "{%s}" % ", ".join(f'"{name}": {v}' for name, v in fields.items())
        what = "a list of numbers" if field == "g" else "a number"
        with pytest.raises(ValueError) as exc:
            sequence_from_json(text)
        assert str(exc.value) == f"the payload's {field!r} field must be {what}"

    def test_json_integers_read_as_floats(self):
        # an int is a JSON number: it reads as float() and numpy's float64 read it
        text = '{"beta": 1, "m": 2, "g": [0.5, 0.125, 0, -%d, 0]}' % (2**70 + 1)
        seq = sequence_from_json(text)
        assert (type(seq.beta), type(seq.m)) == (float, float)
        assert seq.g.tobytes() == np.array([0.5, 0.125, 0, -(2**70 + 1), 0], float).tobytes()

    def test_raw_entries_of_payload_are_ignored(self):
        seq = build_sequence(0.7, 1.0, 16)
        truncated = seq.to_json_dict()
        truncated["raw"] = truncated["raw"][:5]
        flipped = seq.to_json_dict()
        flipped["raw"][1]["sign"] = -1
        flipped["raw"][3]["log10_mag"] = 0.0
        for payload in (truncated, flipped):
            back = sequence_from_json(payload)
            assert np.array_equal(back.raw_sign, seq.raw_sign)
            assert np.array_equal(back.raw_log10, seq.raw_log10)
            assert json.dumps(back.to_json_dict()) == json.dumps(seq.to_json_dict())

    def test_csv_shape_and_zero_rows(self, capsys):
        assert main(["coeffs", "--beta", "1", "--m", "1", "-n", "8", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,g_k,sign,log10_mag"
        assert len(lines) == 9
        k2 = lines[3].split(",")
        assert k2 == ["2", "0.0", "0", ""]
