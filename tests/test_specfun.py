"""Special-function layer: values against independent oracles, exact tables,
and the printed inequality grids."""

import math
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from felog import specfun
from felog.euler_beta import MAX_TERMS
from felog.specfun import (
    EULER_MASCHERONI,
    BoundFlags,
    bernoulli_numbers,
    bernoulli_poly_exact,
    beta_fn,
    bound_predicates,
    classical_series_coeffs,
    euler_poly,
    euler_poly_exact,
    gamma_fn,
    ln_gamma,
)


class TestLnGamma:
    def test_gamma_one_is_exact(self):
        assert ln_gamma(1.0) == 0.0

    def test_gamma_five_is_factorial(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-14)

    def test_half_against_quadrature_oracle(self):
        # the defining integral by tanh-sinh quadrature, split at t = 1 so that
        # the endpoint singularity t^(x-1) and the infinite range each get
        # their own interval; independent of the series implementation under test
        mp = pytest.importorskip("mpmath")
        x = 0.5
        with mp.workdps(30):
            value = mp.quad(lambda t: t ** (x - 1) * mp.exp(-t), [0, 1, mp.inf])
        assert ln_gamma(0.5) == pytest.approx(math.log(value), abs=1e-12)
        assert ln_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-13)

    def test_budget_on_stated_range(self):
        # |exp(ln_gamma) - Gamma| / Gamma <= 1e-13 on [1e-3, 170], i.e. the
        # log values agree absolutely to 1e-13. The reference must be
        # arbitrary precision: library implementations are themselves only
        # ulp-accurate, and one ulp of lnGamma(170) already exceeds 1e-13.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        xs = np.concatenate([
            np.geomspace(1e-3, 1.0, 150),
            np.linspace(1.0, 170.0, 400),
            rng.uniform(1e-3, 170.0, 150),
            [1e-3, 0.5, 1.0, 8.0, 170.0],
        ])
        worst = 0.0
        with mp.workdps(30):
            for x in xs:
                err = abs(mp.mpf(ln_gamma(float(x))) - mp.loggamma(mp.mpf(float(x))))
                worst = max(worst, float(err))
        assert worst <= 1e-13

    def test_edges_of_the_gamma_range(self):
        # log(gamma) serves 1e-300 < x < 171 and lgamma the rest; both sides
        # of each switch, the subnormal floor, and lgamma's range up to 5000
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for x in (5e-324, 1e-310, 1e-300, 2e-300, 170.9999, 171.0, 171.0001):
                err = abs(mp.mpf(ln_gamma(x)) - mp.loggamma(mp.mpf(x)))
                assert float(err) <= 1e-13, x
            for x in np.geomspace(171.0, 5000.0, 200):
                ref = mp.loggamma(mp.mpf(float(x)))
                assert float(abs((mp.mpf(ln_gamma(float(x))) - ref) / ref)) <= 1e-15, x


class TestBetaFn:
    def test_uniform_integrand(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_two_three(self):
        assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_half_half_is_pi(self):
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    def test_matches_log_gamma_combination(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = rng.uniform(0.1, 40.0, 2)
            expected = math.exp(ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y))
            assert beta_fn(x, y) == pytest.approx(expected, rel=1e-12)

    def test_stirling_asymptotic_at_50(self):
        # B(x,x) (2x)^(2x-1/2) / (sqrt(2 pi) x^(2x-1)) -> 1, within 1% at x=50
        x = 50.0
        log_ratio = (
            (ln_gamma(x) + ln_gamma(x) - ln_gamma(2 * x))
            + (2 * x - 0.5) * math.log(2 * x)
            - 0.5 * math.log(2 * math.pi)
            - (2 * x - 1.0) * math.log(x)
        )
        assert abs(math.exp(log_ratio) - 1.0) <= 0.01


DBL_MAX = sys.float_info.max

# each call whose true value passes the double range, that the log form
# cannot give to beta_fn's 1e-12, or whose flag rounding would decide: +inf
# where the value is past the largest double, a ValueError where a bad number
# would come back, and a None flag where its sides pass the double range or
# rounding would decide it (what the unguarded form gave, or raised, is in the
# comment)
EDGES = [
    (ln_gamma, (DBL_MAX,), math.inf),  # OverflowError
    (gamma_fn, (5e-324,), math.inf),  # OverflowError
    (gamma_fn, (1e300,), math.inf),  # OverflowError
    (gamma_fn, (171.63,), math.inf),  # OverflowError, one step past 171.62
    (beta_fn, (5e-324, 1.0), math.inf),  # OverflowError; B = 1 / 5e-324
    (beta_fn, (1.0, 1e12), ValueError),  # 1.8e-3 off
    (beta_fn, (1.0, 1e15), ValueError),  # 12.7x too large
    (beta_fn, (1.0, 1e16), ValueError),  # 1.0, where B = 1e-16
    (beta_fn, (1.0, DBL_MAX), ValueError),  # OverflowError
    (beta_fn, (DBL_MAX, DBL_MAX), ValueError),  # x + y is inf
    (bound_predicates, (DBL_MAX,), BoundFlags(None, None, None)),  # OverflowError
    # a silent beta_bound = False
    (bound_predicates, (2.0, DBL_MAX), BoundFlags(None, None, True)),
    # gamma_envelope False; hi - ln Gamma is 0.081
    (bound_predicates, (1e14,), BoundFlags(None, None, None)),
    # beta_bound False; the gap is 2e-8
    (bound_predicates, (1.000000001, 1e10), BoundFlags(None, None, None)),
    # gamma_envelope False; the gap is 3e-17
    (bound_predicates, (1 + 3e-8,), BoundFlags(None, None, None)),
]


class TestDoubleRangeEdges:
    @pytest.mark.parametrize("call, args, outcome", EDGES,
                             ids=[f"{c.__name__}{a}" for c, a, _ in EDGES])
    def test_each_edge_gives_inf_a_refusal_or_a_none_flag(self, call, args, outcome):
        if outcome is ValueError:
            with pytest.raises(ValueError, match=r" at x = "):
                call(*args)
        else:
            assert call(*args) == outcome

    def test_the_last_finite_values(self):
        assert math.isfinite(ln_gamma(2.5e305)) and math.isfinite(gamma_fn(171.62))
        assert beta_fn(1.0, 248.0) == pytest.approx(1.0 / 248.0, rel=1e-12)
        with pytest.raises(ValueError, match=r"^B\(x, y\) at x = 1.0, y = 250.0 is not within "
                                             r"1e-12 relative: its log-Gamma values, of size "):
            beta_fn(1.0, 250.0)

    def test_beta_is_refused_or_within_its_tolerance_on_a_log_grid(self):
        # 0.97 eps S is the worst error seen, so a refusal at 2 eps S > 1e-12
        # leaves every value it gives within 1e-12 of 40 digits
        mp = pytest.importorskip("mpmath")
        grid = np.geomspace(1e-3, 1e6, 61).tolist()
        given = 0
        with mp.workdps(40):
            for x in grid:
                for y in grid:
                    try:
                        value = beta_fn(x, y)
                    except ValueError:
                        continue
                    given += 1
                    ref = mp.beta(mp.mpf(x), mp.mpf(y))
                    assert abs(mp.mpf(value) / ref - 1) <= 1e-12, (x, y)
        assert 0.3 < given / len(grid) ** 2 < 0.4  # where x + y stays below a few hundred


class TestBernoulli:
    def test_table_matches_stated_values(self):
        b = bernoulli_numbers(8)
        assert b == [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 6),
            Fraction(0),
            Fraction(-1, 30),
            Fraction(0),
            Fraction(1, 42),
            Fraction(0),
            Fraction(-1, 30),
        ]

    def test_odd_entries_vanish(self):
        b = bernoulli_numbers(39)
        for s in range(3, 40, 2):
            assert b[s] == 0

    def test_poly_at_zero_recovers_numbers(self):
        b = bernoulli_numbers(40)
        for s in range(41):
            assert bernoulli_poly_exact(s, 0) == b[s]

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="n_max must be an integer from 0 to 10000, got -1"):
            bernoulli_numbers(-1)
        for poly, name, cap in ((bernoulli_poly_exact, "s", 10000), (euler_poly_exact, "k", 9999)):
            with pytest.raises(ValueError, match=f"{name} must be an integer from 0 to {cap}"):
                poly(-1, Fraction(1, 2))


class TestPolynomials:
    def test_bernoulli_poly_degree_zero(self):
        for x in (-2, 0, Fraction(3, 10), Fraction(15, 2)):
            assert bernoulli_poly_exact(0, x) == 1

    def test_bernoulli_poly_linear_at_half(self):
        assert bernoulli_poly_exact(1, Fraction(1, 2)) == 0

    def test_bernoulli_poly_b2_at_zero(self):
        assert bernoulli_poly_exact(2, 0) == Fraction(1, 6)

    def test_euler_poly_degree_zero(self):
        for x in (-1.0, 0.0, 0.25, 3.0):
            assert euler_poly(0, x) == 1.0

    def test_euler_poly_linear_at_one(self):
        assert euler_poly(1, 1.0) == 0.5

    def test_euler_poly_cubic_at_one(self):
        assert euler_poly(3, 1.0) == -0.25

    def test_against_forward_difference_oracle(self):
        # independent representation from the generating function:
        # E_n(x) = sum_{k<=n} 2^-k sum_{j<=k} (-1)^j C(k,j) (x+j)^n
        def oracle(n, x):
            x = Fraction(x)
            total = Fraction(0)
            for k in range(n + 1):
                inner = Fraction(0)
                for j in range(k + 1):
                    inner += (-1) ** j * comb(k, j) * (x + j) ** n
                total += inner / Fraction(2) ** k
            return total

        for n in range(0, 16):
            for x in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2, 3)):
                assert euler_poly_exact(n, x) == oracle(n, x)

    def test_euler_poly_reads_one_bernoulli_table(self, monkeypatch):
        # B_(k+1)(x) and B_(k+1)(x/2) both come from the table b_0..b_(k+1)
        calls = []

        def counted(n_max):
            calls.append(n_max)
            return bernoulli_numbers(n_max)

        monkeypatch.setattr(specfun, "bernoulli_numbers", counted)
        for k in (0, 1, 7, 20):
            calls.clear()
            euler_poly_exact(k, Fraction(1, 3))
            assert calls == [k + 1]

    def test_odd_values_at_one_alternate_and_evens_vanish(self):
        values = [euler_poly_exact(k, 1) for k in range(0, 42)]
        for k in range(1, 21):
            assert values[2 * k] == 0
        odd = values[1::2]
        for j, v in enumerate(odd):
            assert v != 0
            assert (v > 0) == (j % 2 == 0)

    def test_odd_index_trend_toward_negative_one(self):
        # |(-1)^((k+1)/2) pi^(k+1)/(4 k!) E_k(1) + 1| strictly decreasing for
        # odd k = 9..25 (limit value is cos(pi) = -1); expected magnitudes
        # confirmed against an arbitrary-precision evaluation beforehand
        gaps = []
        for k in range(9, 27, 2):
            d = (
                (-1) ** ((k + 1) // 2)
                * math.pi ** (k + 1)
                / (4.0 * math.factorial(k))
                * euler_poly(k, 1.0)
            )
            gaps.append(abs(d + 1.0))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[0] == pytest.approx(1.7041363e-05, rel=1e-5)
        assert gaps[-1] == pytest.approx(3.9341247e-13, rel=1e-2)


class TestClassicalCoeffs:
    def test_first_values(self):
        u = classical_series_coeffs(5)
        assert u[0] == 0.5
        assert u[1] == 0.25
        assert u[2] == 0.0
        assert u[3] == -0.125
        assert u[5] == 0.25

    def test_negative_order_raises(self):
        with pytest.raises(ValueError, match="n_max must be an integer from 0 to 218, got -1"):
            classical_series_coeffs(-1)

    def test_explicit_form_matches_the_euler_polynomial(self):
        coeffs = classical_series_coeffs(40)
        assert coeffs == [float(euler_poly_exact(k, 1) / 2) for k in range(41)]

    def test_the_cap_is_the_last_coefficient_a_double_holds(self):
        # c_217 ~ 1.8e306 is the last nonzero one below the double range and
        # c_218 = 0, while c_219 ~ 49 times the largest double would be inf
        b = bernoulli_numbers(221)
        exact = [Fraction(1, 2)] + [(2 ** (k + 1) - 1) * b[k + 1] / (k + 1) for k in range(1, 221)]
        cap = [abs(c) <= Fraction(sys.float_info.max) for c in exact].index(False) - 1
        assert cap == 218
        assert classical_series_coeffs(cap) == [float(c) for c in exact[: cap + 1]]

    def test_reads_one_bernoulli_table(self, monkeypatch):
        calls = []

        def counted(n_max):
            calls.append(n_max)
            return bernoulli_numbers(n_max)

        monkeypatch.setattr(specfun, "bernoulli_numbers", counted)
        classical_series_coeffs(30)
        assert calls == [31]


# each entry point of the Euler-number layer, the last index it takes and the
# name its refusal carries: b_(k+1) is read for E_k, so those stop one short
INDEX_ENTRIES = {
    "bernoulli_numbers": (bernoulli_numbers, MAX_TERMS, "n_max"),
    "bernoulli_poly_exact": (lambda s: bernoulli_poly_exact(s, Fraction(1, 3)), MAX_TERMS, "s"),
    "euler_poly_exact": (lambda k: euler_poly_exact(k, Fraction(1, 3)), MAX_TERMS - 1, "k"),
    "euler_poly": (lambda k: euler_poly(k, 0.5), MAX_TERMS - 1, "k"),
    "classical_series_coeffs": (classical_series_coeffs, 218, "n_max"),
}


class TestIndexRule:
    @pytest.fixture
    def no_table(self, monkeypatch):
        # every Bernoulli table past b_0 calls comb, so a missing check fails
        # here at once instead of running for hours
        def started(*args):
            raise AssertionError("a Bernoulli table was started")

        monkeypatch.setattr(specfun, "comb", started)

    @pytest.mark.parametrize("entry", INDEX_ENTRIES)
    @pytest.mark.parametrize("bad", (-1, 2.5, np.float64(3.0), "cap + 1"), ids=repr)
    def test_refused_before_a_table_is_started(self, no_table, entry, bad):
        call, cap, name = INDEX_ENTRIES[entry]
        bad = cap + 1 if bad == "cap + 1" else bad
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == f"{name} must be an integer from 0 to {cap}, got {bad!r}"

    @pytest.mark.parametrize("entry", INDEX_ENTRIES)
    def test_the_cap_itself_passes_the_check(self, no_table, entry):
        call, cap, _ = INDEX_ENTRIES[entry]
        with pytest.raises(AssertionError, match="a Bernoulli table was started"):
            call(cap)

    @pytest.mark.parametrize("n_max", (219, MAX_TERMS - 1))
    def test_classical_coefficients_past_the_double_range_refused(self, no_table, n_max):
        with pytest.raises(ValueError, match=f"^n_max must be an integer from 0 to 218, "
                                             f"got {n_max}$"):
            classical_series_coeffs(n_max)

    def test_euler_poly_past_the_double_range_is_infinite(self):
        # the correctly rounded float of an exact value beyond the largest double
        assert euler_poly(219, 1.0) == -math.inf
        assert euler_poly(40, 1e10) == math.inf
        assert euler_poly(40, -1e10) == math.inf and euler_poly(41, -1e10) == -math.inf

    @pytest.mark.parametrize("index", (True, 7, np.int64(7), np.uint8(7), np.int32(7)), ids=repr)
    def test_integers_of_any_type_give_the_same_values(self, index):
        for entry, (call, _, _) in INDEX_ENTRIES.items():
            assert call(index) == call(int(index)), entry

    def test_a_numpy_index_is_used_as_an_int(self):
        # in int64, 2^(k+1) wraps from k = 62, and a uint8 255 + 1 is 0
        half = Fraction(1, 2)
        assert euler_poly_exact(np.int64(70), half) == euler_poly_exact(70, half)
        assert classical_series_coeffs(np.int64(70)) == classical_series_coeffs(70)
        assert len(bernoulli_numbers(np.uint8(255))) == 256


class TestBoundPredicates:
    def test_beta_bound_example(self):
        flags = bound_predicates(x=2.0, y=3.0)
        assert flags.beta_bound is True  # 1/12 <= 1/6

    def test_gamma_unit_at_endpoint(self):
        flags = bound_predicates(x=1.0)
        assert flags.gamma_unit is True  # 2^0 <= Gamma(2) = 1 <= 1
        assert flags.gamma_envelope is None  # strict bound needs x > 1

    def test_gamma_envelope_at_two(self):
        flags = bound_predicates(x=2.0)
        assert flags.gamma_envelope is True
        # the numbers behind the flag: 2^(2-g)/e < 1 < 2^1.5/e
        lo = 2.0 ** (2.0 - EULER_MASCHERONI) / math.e
        hi = 2.0**1.5 / math.e
        assert lo < gamma_fn(2.0) < hi

    def test_grids_from_the_inequalities(self):
        pts = [1.01, 1.5, 2.0, 5.0, 10.0, 50.0]
        for x in pts:
            for y in pts:
                flags = bound_predicates(x=x, y=y)
                assert flags.beta_bound is True
                assert flags.gamma_envelope is True
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert bound_predicates(x=x).gamma_unit is True

    def test_out_of_every_domain(self):
        with pytest.raises(ValueError):
            bound_predicates(x=-3.0)

    def test_ln_gamma_error_is_within_the_rounding_bound(self):
        # the bound takes ln_gamma to be within eps |ln Gamma| + _LN_GAMMA_ERR;
        # near x = 1 and 2, where ln Gamma is near 0, the second term is all of it
        mp = pytest.importorskip("mpmath")
        eps = math.ulp(1.0)
        xs = np.concatenate([np.linspace(0.9, 1.1, 1001), np.linspace(1.9, 2.1, 1001),
                             np.geomspace(1e-3, 170.0, 1001)]).tolist()
        with mp.workdps(40):
            for x in xs:
                ref = mp.loggamma(mp.mpf(x))
                err = abs(mp.mpf(ln_gamma(x)) - ref)
                assert err <= eps * abs(ref) + specfun._LN_GAMMA_ERR, x

    def test_flags_agree_with_40_digits_or_are_none(self):
        # criterion 9's grid, the points where rounding gave False, x near 1,
        # where the envelope's gap falls as 0.034 (x - 1)^2, the 200 doubles
        # next to 0 and on each side of 1, and points where one flag is decided
        # and the other is not
        mp = pytest.importorskip("mpmath")
        crit9 = [1.01, 1.5, 2.0, 5.0, 10.0, 50.0]
        near_one = [1.0 + c * 10.0**-k for k in range(1, 16) for c in (1, 3)]
        points = [(x, y) for x in crit9 for y in crit9] + [(x, None) for x in near_one]
        points += [(x, 10.0**k) for x in (1 + 1e-9, 1 + 1e-6, 1.001) for k in range(2, 16)]
        points += [(x, y) for x in near_one[::3] for y in near_one[::3]]
        points += [(x, None) for x in np.linspace(0.0, 1.0, 41).tolist() + [1e12, 1e14]]
        below, above = [1.0], [1.0]
        for _ in range(200):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], 2.0))
        points += [(k * 5e-324, None) for k in range(1, 201)]
        points += [(x, None) for x in below[1:] + above[1:]]
        points += [(1 + 1e-8, 5.0), (1e13, 2.0)]
        undecided = []
        with mp.workdps(40):
            for x, y in points:
                flags = bound_predicates(x, y)
                if (flags.gamma_unit if x <= 1.0 else flags.gamma_envelope) is None:
                    undecided.append((x, y))
                X = mp.mpf(x)
                if flags.beta_bound is not None:
                    Y = mp.mpf(y)
                    assert flags.beta_bound == (mp.beta(X, Y) <= 1 / (X * Y)), (x, y)
                if flags.gamma_unit is not None:
                    assert flags.gamma_unit == (2 ** (X - 1) <= mp.gamma(X + 1) <= 1), x
                if flags.gamma_envelope is not None:
                    lo = (X - mp.mpf(EULER_MASCHERONI)) * mp.log(X) - (X - 1)
                    hi = (X - mp.mpf(0.5)) * mp.log(X) - (X - 1)
                    assert flags.gamma_envelope == (lo < mp.loggamma(X) < hi), x
        assert (1e14, None) in undecided and (1 + 3e-8, None) in undecided
        assert bound_predicates(1.000000001, 1e10).beta_bound is None
        assert not set(undecided) & {(x, y) for x in crit9 for y in crit9}
        # three doubles below 1 that a bare float comparison called False
        assert {(x, None) for x in (0.9999999999999997, 0.9999999999999996,
                                    0.9999999999999994)} <= set(undecided)

    def test_an_undecided_flag_is_none_beside_a_decided_one(self):
        # each beta_bound gap is far past its bound (1.3e-8 against 6.9e-15,
        # 29.2 against 0.26); the envelope's is within its own
        assert bound_predicates(1 + 1e-8, 5.0) == BoundFlags(True, None, None)
        assert bound_predicates(1e13, 2.0) == BoundFlags(True, None, None)


def test_euler_mascheroni_close_to_printed():
    assert abs(EULER_MASCHERONI - 0.577215) < 1e-6
