"""Fractional-calculus oracles: term-wise algebra, singular-kernel
quadrature, kernel-pair identity, stable tail, and the time-stepper."""

import dataclasses
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from felog import euler_beta, fracops
from felog.cli import DEFAULT_VERIFY_CELLS, DEFAULT_VERIFY_WINDOW, VERIFY_TOLERANCES, main
from felog.euler_beta import build_sequence
from felog.fracops import (
    _INNER,
    B0,
    MAX_STEPS,
    QuadratureGrid,
    ResidualReport,
    caputo_l1_all,
    caputo_termwise,
    fractional_integral_midpoint,
    graded_grid,
    levy_tail_laplace,
    make_grid,
    rl_derivative_termwise,
    solve_pc,
    sonine_check,
    stable_levy_tail,
    uniform_grid,
    verify,
)
from felog.series_solution import SeriesSolution
from felog.specfun import gamma_fn, ln_gamma


class TestGrids:
    def test_uniform_nodes(self):
        g = uniform_grid(2.0, 4, 0.5)
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_graded_exponent(self):
        g = graded_grid(1.0, 10, 0.5)
        # t_j = (j/n)^(2/beta) = (j/n)^4
        assert g.nodes[5] == pytest.approx(0.5**4, rel=1e-15)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", (uniform_grid, graded_grid))
    @pytest.mark.parametrize("n", (2.5, 999.5, 0, 1, -3, MAX_STEPS + 1))
    def test_cell_count_outside_the_integers_2_to_max_steps_rejected(self, make, n):
        # checked before any node is computed, so no count allocates
        with pytest.raises(ValueError, match=f"integer from 2 to {MAX_STEPS}, got {n!r}$"):
            make(1.0, n, 0.5)

    @pytest.mark.parametrize("make", (uniform_grid, graded_grid))
    def test_numpy_integer_cell_count_accepted(self, make):
        nodes = make(1.0, np.int64(4), 0.5).nodes
        assert nodes.size == 5 and nodes[-1] == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", (uniform_grid, graded_grid))
    def test_a_numpy_cell_count_is_used_as_an_int(self, make):
        # n + 1 nodes: in uint8, 255 + 1 wraps to 0
        nodes = make(1.0, np.uint8(255), 0.5).nodes
        assert nodes.size == 256 and nodes[-1] == 1.0
        assert nodes.tobytes() == make(1.0, 255, 0.5).nodes.tobytes()

    def test_graded_underflow_is_named(self):
        # at t1 = 1 and 2000 cells, t1 * n^(-2/beta) underflows below beta ~ 0.0204
        with pytest.raises(ValueError) as exc:
            graded_grid(1.0, 2000, 0.01)
        assert str(exc.value) == (
            "a graded grid of 2000 cells at beta = 0.01 on (0, 1] underflows: its "
            "first node t1 * n^(-2/beta) is 0; use fewer cells or a uniform grid"
        )
        assert graded_grid(1.0, 2000, 0.021).nodes[1] > 0.0

    def test_make_grid_dispatch(self):
        assert make_grid(1.0, 8, "uniform", 0.5).nodes.size == 9
        with pytest.raises(ValueError):
            make_grid(1.0, 8, "chebyshev", 0.5)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            QuadratureGrid(np.array([0.1, 0.2, 0.3]), 0.5)  # must start at 0
        with pytest.raises(ValueError):
            QuadratureGrid(np.array([0.0, 0.2, 0.2]), 0.5)  # strictly increasing
        with pytest.raises(ValueError):
            QuadratureGrid(np.array([0.0, 1.0]), 0.5)  # at least 3 nodes

    @pytest.mark.parametrize("nodes", ([[0.0], [0.5], [1.0]], [[0.0, 0.5, 1.0]], 0.0))
    def test_nodes_must_be_one_dimensional(self, nodes):
        # a column reached numpy's "object too deep" in verify, a row its
        # "truth value is ambiguous" in the constructor
        shape = np.shape(nodes)
        with pytest.raises(ValueError) as exc:
            QuadratureGrid(np.array(nodes), 0.5)
        assert str(exc.value) == f"nodes must be a 1-D array of 3 or more entries, got shape {shape}"

    def test_constructors_leave_the_callers_arrays_writeable(self):
        # each stores a read-only copy; np.asarray alone would freeze the input
        a = np.linspace(0.0, 1.0, 9)
        grid = QuadratureGrid(a, 0.5)
        assert a.flags.writeable and not grid.nodes.flags.writeable
        residual = np.zeros(9)
        report = fracops.ResidualReport("l1", a, residual)
        assert a.flags.writeable and residual.flags.writeable
        assert not report.grid.flags.writeable and not report.residual.flags.writeable
        a[1] = 0.5
        assert grid.nodes[1] == 0.125


def _series(g, beta):
    """A stand-in for a sequence: caputo_termwise reads only g and beta."""
    return SimpleNamespace(g=np.array(g, dtype=float), beta=beta)


class TestTermwise:
    def test_constant_series_maps_to_zero(self):
        out = caputo_termwise(_series([0.5, 0.0, 0.0, 0.0], 0.7))
        assert np.all(out == 0.0)

    def test_single_power_gives_gamma_factor(self):
        # derivative of g_1 t^beta is the constant g_1 Gamma(beta+1)
        for beta in (0.3, 0.6, 0.9):
            out = caputo_termwise(_series([0.0, 2.0, 0.0], beta))
            assert out[0] == pytest.approx(2.0 * math.exp(ln_gamma(beta + 1.0)), rel=1e-13)
            assert out[1] == 0.0

    @pytest.mark.parametrize("beta", (0.05, 0.3, 0.7, 1.0))
    def test_each_gamma_ratio_matches_a_40_digit_value(self, beta):
        # the ratios are within 3.1e-16 of their 40-digit values, and the
        # division by one rounds once more
        mp = pytest.importorskip("mpmath")
        g = np.random.default_rng(7).standard_normal(96)
        out = caputo_termwise(_series(g, beta))
        with mp.workdps(40):
            b = mp.mpf(beta)
            for k in range(g.size - 1):
                ratio = mp.gamma(b * (k + 1) + 1) / mp.gamma(b * k + 1)
                assert abs(mp.mpf(out[k]) / (mp.mpf(g[k + 1]) * ratio) - 1) <= 5e-16, k

    @pytest.mark.parametrize("beta, n", [(1.0, 300), (0.5, 700), (0.05, 96), (1e-3, 40)])
    def test_divides_by_the_ratios_the_recurrence_reads(self, beta, n):
        # bit for bit, on both sides of the expansion's cut at x = 24: the
        # recurrence multiplies by these ratios, so a built sequence's defect
        # is rounding alone
        g = np.random.default_rng(11).standard_normal(n)
        ratios = euler_beta._gamma_ratios(beta, beta * np.arange(n - 1) + 1.0)
        assert caputo_termwise(_series(g, beta)).tobytes() == (g[1:] / ratios).tobytes()

    @pytest.mark.parametrize("beta", (0.3, 0.5, 0.7, 0.9, 1.0))
    @pytest.mark.parametrize("m", (1.0, 2.0))
    def test_coefficients_satisfy_the_recurrence(self, beta, m):
        seq = build_sequence(beta, m, 42)
        coeffs = caputo_termwise(seq)
        for k in range(41):
            conv = float(np.dot(seq.g[: k + 1], seq.g[k::-1]))
            rhs = (seq.g[k] - conv) / m
            assert abs(coeffs[k] - rhs) <= 1e-12 * max(1e-300, abs(coeffs[k]), abs(rhs))


class TestRiemannLiouville:
    def test_singular_coefficient_beta_half(self):
        seq = build_sequence(0.5, 1.0, 8)
        rl = rl_derivative_termwise(seq)
        assert rl.singular_coefficient == pytest.approx(
            0.5 / math.sqrt(math.pi), rel=1e-13
        )

    def test_difference_from_caputo_is_the_singular_term(self):
        # regular parts agree identically; the split is exactly the initial
        # value times the kernel power
        seq = build_sequence(0.7, 1.0, 16)
        rl = rl_derivative_termwise(seq)
        assert np.array_equal(rl.regular, caputo_termwise(seq))
        assert rl.singular_coefficient == seq.g[0] / math.exp(ln_gamma(1.0 - 0.7))

    def test_classical_order_has_no_singular_term(self):
        rl = rl_derivative_termwise(build_sequence(1.0, 1.0, 8))
        assert rl.singular_coefficient == 0.0


class TestCaputoL1:
    def test_constant_data(self):
        g = uniform_grid(1.0, 64, 0.5)
        assert caputo_l1_all(np.ones_like(g.nodes), g)[-1] == 0.0

    def test_linear_data(self):
        g = uniform_grid(1.0, 2000, 0.5)
        val = caputo_l1_all(g.nodes, g)[-1]
        assert val == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-6)

    def test_quadratic_data(self):
        g = uniform_grid(1.0, 2000, 0.5)
        val = caputo_l1_all(g.nodes**2, g)[-1]
        assert val == pytest.approx(2.0 / math.exp(ln_gamma(2.5)), abs=1e-5)

    def test_rejects_values_off_the_grid(self):
        g = uniform_grid(1.0, 10, 0.5)
        with pytest.raises(ValueError, match="must match the grid nodes"):
            caputo_l1_all(g.nodes[1:], g)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", (0.0205, 0.0209))
    def test_a_slope_past_the_double_range_is_refused_by_cell(self, beta):
        # just above graded_grid's underflow the first node is subnormal, so
        # cell 0's slope overflowed, and the history sum made it a NaN
        g = graded_grid(1.0, 2000, beta)
        assert 0.0 < g.nodes[1] < sys.float_info.min
        with pytest.raises(ValueError) as exc:
            caputo_l1_all(g.nodes**beta, g)
        assert str(exc.value) == (f"cell 0 of the grid is too narrow for an L1 slope "
                                  f"({g.nodes[1]:.5g} wide); use fewer cells or a uniform grid")

    def test_the_largest_finite_slopes_keep_their_bits(self):
        # at beta = 0.021 cell 0's slope is 6e307: finite, so it passes as it was
        g = graded_grid(1.0, 2000, 0.021)
        w = g.nodes**0.021
        slopes = np.diff(w) / np.diff(g.nodes)
        assert slopes[0] > 1e307
        ref = fracops._graded_history(slopes, g.nodes, 0.979, 1.0 / gamma_fn(1.979))
        assert caputo_l1_all(w, g).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spacing", ("uniform", "graded"))
    def test_classical_order_gives_the_slope(self, spacing):
        # at beta = 1 the newest cell's moment is the whole kernel mass and
        # every older one is 0, so each node gets its newest slope, to the bit
        g = make_grid(2.2, 2000, spacing, 1.0)
        w = 1.0 / (1.0 + np.exp(-g.nodes))
        slopes = np.diff(w) / np.diff(g.nodes)
        assert caputo_l1_all(w, g).tobytes() == slopes.tobytes()


class TestFractionalIntegral:
    @pytest.mark.parametrize("beta", (0.3, 0.7, 1.0, 5e-324, 1e-310))
    def test_constant_data_is_exact(self, beta):
        # the cell moments telescope: I^beta[1](t) = t^beta / Gamma(beta + 1),
        # at a subnormal beta too, where Gamma(beta) overflows and a graded
        # grid underflows
        g = (graded_grid if beta > 0.1 else uniform_grid)(2.0, 200, beta)
        out = fractional_integral_midpoint(np.ones(200), g)
        exact = g.nodes[1:] ** beta / math.exp(ln_gamma(beta + 1.0))
        assert np.allclose(out, exact, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("spacing", ("uniform", "graded"))
    def test_classical_order_meets_the_per_node_loop(self, spacing):
        # at beta = 1 the integral is a running sum of data times cell width
        g = make_grid(2.2, 2000, spacing, 1.0)
        t = g.nodes
        w_mid = 1.0 / (1.0 + np.exp(-0.5 * (t[:-1] + t[1:])))
        f_mid = w_mid - w_mid**2
        _assert_near_reference(fractional_integral_midpoint(f_mid, g), f_mid, t, 1.0)

    def test_rejects_values_off_the_cells(self):
        g = uniform_grid(1.0, 10, 0.5)
        with pytest.raises(ValueError, match="one midpoint value per cell"):
            fractional_integral_midpoint(np.ones(11), g)


def graded_history_loop(data, t, exponent, scale):
    """Reference history sum: one row per node, every cell moment in a form
    that does not cancel, however narrow the cell.

    With d = t_n - t_j and h the cell width, an older cell's moment is
    -d^e expm1(e log1p(-h/d)). Where h > d/2 that form would lose the digits
    of 1 - h/d, so it takes x^e expm1(e log1p(h/x)) at x = t_n - t_(j+1)
    instead; graded grids never need it, random gaps do. The newest cell's
    moment is h^e, and at e = 0 every older moment is exactly 0.
    """
    out = np.empty(t.size - 1)
    for n in range(1, t.size):
        lower, upper = t[n] - t[: n - 1], t[n] - t[1:n]
        width = np.diff(t[:n])
        moments = np.empty(n)
        moments[-1] = (t[n] - t[n - 1]) ** exponent
        with np.errstate(divide="ignore"):
            moments[:-1] = np.where(
                width <= 0.5 * lower,
                -(lower**exponent) * np.expm1(exponent * np.log1p(-width / lower)),
                upper**exponent * np.expm1(exponent * np.log1p(width / upper)),
            )
        out[n - 1] = scale * float(np.dot(data[:n], moments))
    out.setflags(write=False)
    return out


def _oracle_cases(beta, cells):
    """The two graded-grid routes on smooth logistic data with the t^beta
    cusp, as (helper result, reference) pairs."""
    grid = graded_grid(1.5, cells, beta)
    t = grid.nodes
    w = 1.0 / (1.0 + np.exp(-(t**beta)))
    slopes = np.diff(w) / np.diff(t)
    w_mid = 0.5 * (w[:-1] + w[1:])
    f_mid = w_mid - w_mid**2
    return (
        (
            caputo_l1_all(w, grid),
            graded_history_loop(slopes, t, 1.0 - beta, 1.0 / math.exp(ln_gamma(2.0 - beta))),
        ),
        (
            fractional_integral_midpoint(f_mid, grid),
            graded_history_loop(f_mid, t, beta, 1.0 / math.exp(ln_gamma(beta)) / beta),
        ),
    )


def _assert_near_reference(got, data, t, exponent, want=None):
    """``got`` within 16 eps of the scale sum_j |data_j| (t_n - t_j)^e of
    ``want`` (by default the per-node loop) at every node n.

    A moment that the helper takes as the difference of two kernel values,
    each within half an ulp of (t_n - t_j)^e, errs by up to eps times that
    kernel; its far moments and the reference's moments are within a few
    ulps of themselves, which is no more. The worst seen over 1,500 random
    cases was 1.8 of that scale; 16 leaves room for the rounding of the two
    dot products.
    """
    if want is None:
        want = graded_history_loop(data, t, exponent, 1.0)
    eps = np.finfo(float).eps
    for n in range(1, t.size):
        scale = float(np.abs(data[:n]) @ (t[n] - t[:n]) ** exponent)
        assert abs(got[n - 1] - want[n - 1]) <= 16.0 * eps * scale, n


@st.composite
def _history_inputs(draw):
    """A strictly increasing grid from 0 (uniform, graded or random gaps, 2
    to 400 cells), an exponent in [0, 1] and data of mixed sign."""
    cells = draw(st.integers(2, 400))
    end = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(("uniform", "graded", "gaps")))
    if kind == "uniform":
        t = np.linspace(0.0, end, cells + 1)
    elif kind == "graded":
        t = end * (np.arange(cells + 1) / cells) ** draw(st.floats(1.0, 20.0))
    else:
        logs = draw(st.lists(st.floats(-12.0, 0.0), min_size=cells, max_size=cells))
        t = np.concatenate(([0.0], np.cumsum(10.0 ** np.array(logs))))
    assume(np.all(np.diff(t) > 0.0))
    exponent = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    # whole thousandths: subnormal data would round in absolute terms
    values = draw(st.lists(st.integers(-1000, 1000), min_size=cells, max_size=cells))
    data = np.array(values) / 1000.0 * 10.0 ** draw(st.floats(-5.0, 5.0))
    return data, t, exponent


@st.composite
def _long_grids(draw):
    """Nodes from 0 on 2 to 10,000 cells: power-graded up to r = 200, with
    geometric gaps, or with exponential or Pareto random gaps. Nodes that
    round onto the one before are dropped."""
    cells = draw(st.integers(2, 10_000))
    kind = draw(st.sampled_from(("power", "geometric", "exponential", "pareto")))
    if kind == "power":
        return np.unique((np.arange(cells + 1) / cells) ** draw(st.floats(1.0, 200.0)))
    if kind == "geometric":
        gaps = np.exp(np.linspace(0.0, draw(st.floats(-600.0, 600.0)), cells))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        gaps = rng.exponential(size=cells) if kind == "exponential" else rng.pareto(1.0, cells)
    return np.unique(np.concatenate(([0.0], np.cumsum(gaps))))


class TestGradedHistoryBlocks:
    # 15 and 16 cells end in a block cut short, 17 in a full one
    @pytest.mark.parametrize("cells", (2, 15, 16, 17, 2000))
    @pytest.mark.parametrize("beta", (0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0))
    def test_matches_the_per_node_loop(self, beta, cells):
        # both exponents, 1 - beta (L1, e = 0 at beta = 1) and beta
        for blocked, reference in _oracle_cases(beta, cells):
            assert blocked.shape == (cells,)
            assert float(np.max(np.abs(blocked - reference))) <= 1e-15

    @pytest.mark.parametrize("rows", (1, 3, 16))
    def test_partial_last_block(self, monkeypatch, rows):
        # blocks grow to a // 4 rows: 16 cells reach 3 rows and 93 cells 16,
        # and both grids end in a block cut short. HISTORY_BLOCK = 1 leaves
        # one row per block, as a row with more near cells than it gets.
        cells = {1: 50, 3: 16, 16: 93}[rows]
        if rows == 1:
            monkeypatch.setattr(fracops, "HISTORY_BLOCK", 1)
        for beta in (0.3, 1.0):
            t = graded_grid(1.5, cells, beta).nodes
            a, b, lo = fracops._row_blocks(t).T
            assert a[0] == 1 and b[-1] == cells + 1 and np.array_equal(a[1:], b[:-1])
            assert np.all(t[lo] <= 0.5 * t[a]) and np.all(t[lo + 1] > 0.5 * t[a])
            height = b - a
            assert height.max() == rows and np.all(height <= np.maximum(1, a // 4))
            assert np.all(((b - lo) * height)[height > 1] <= fracops.HISTORY_BLOCK)
            if rows > 1:
                assert height[-1] < a[-1] // 4
            for blocked, reference in _oracle_cases(beta, cells):
                assert float(np.max(np.abs(blocked - reference))) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(_long_grids())
    def test_every_block_fits_in_one_far_group(self, t):
        # a block has at most min(a // 4, HISTORY_BLOCK // (a // 4 + 1))
        # rows, so _far_history's groups of HISTORY_BLOCK // (2 P) rows always
        # take at least one whole block
        a, b, _ = fracops._row_blocks(t).T
        tallest = math.isqrt(fracops.HISTORY_BLOCK)
        assert np.max(b - a) <= tallest
        assert tallest <= fracops.HISTORY_BLOCK // (2 * fracops._FAR_TERMS)

    def test_temporary_memory_is_bounded(self):
        # blocks hold about HISTORY_BLOCK entries at any grid size; a fixed
        # 16-row block would take 1.3 MB per temporary at 10,000 cells
        sol = SeriesSolution.build(0.7, 1.0, 64)
        grid = graded_grid(0.8 * sol.domain_edge, 10_000, 0.7)
        w = sol.evaluate(grid.nodes).w
        tracemalloc.start()
        try:
            caputo_l1_all(w, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    @pytest.mark.parametrize("exponent", (0.1, 0.9))
    def test_every_node_against_50_digits(self, exponent):
        # 2/beta grading at beta = .1 puts the first nodes near 1e-32, where a
        # differenced kernel loses the whole rise of the data
        mp = pytest.importorskip("mpmath")
        t = graded_grid(1.5, 40, 0.1).nodes
        w = 1.0 / (1.0 + np.exp(-(t**0.1)))
        data = np.diff(w) / np.diff(t) if exponent == 0.9 else 0.5 * (w[:-1] + w[1:])
        got = fracops._graded_history(data, t, exponent, 1.0)
        with mp.workdps(50):
            nodes = [mp.mpf(float(x)) for x in t]
            for n in range(1, t.size):
                exact = mp.fsum(
                    mp.mpf(float(data[j]))
                    * ((nodes[n] - nodes[j]) ** exponent - (nodes[n] - nodes[j + 1]) ** exponent)
                    for j in range(n)
                )
                assert abs(got[n - 1] - exact) <= 1e-15 * abs(exact)

    @settings(max_examples=150, deadline=None)
    @given(_history_inputs())
    def test_random_grids_match_the_reference(self, case):
        # the exponents 0 and 1 take the O(N) sums, any other the blocks
        data, t, exponent = case
        got = fracops._graded_history(data, t, exponent, 1.0)
        _assert_near_reference(got, data, t, exponent)

    @pytest.mark.parametrize("exponent", (0.0, 1.0))
    def test_integer_exponents_build_no_row_blocks(self, monkeypatch, exponent):
        def refuse(t):
            raise AssertionError("a row-block plan was built")

        monkeypatch.setattr(fracops, "_row_blocks", refuse)
        t = graded_grid(1.5, 2000, 0.5).nodes
        data = np.sin(np.arange(2000.0))
        got = fracops._graded_history(data, t, exponent, 0.75)
        sums = data if exponent == 0.0 else np.cumsum(data * np.diff(t))
        assert got.tobytes() == (sums * 0.75).tobytes() and not got.flags.writeable

    @pytest.mark.parametrize("kind", ("uniform", "graded 2", "graded 4", "gaps"))
    @pytest.mark.parametrize("closed", (0.0, 1.0))
    def test_the_blocked_path_meets_the_closed_forms_at_their_seam(self, monkeypatch, kind,
                                                                   closed):
        # One ulp inside [0, 1] the blocked path runs, and it lands on the
        # O(N) sum of the integer exponent within the reference's bound. Below
        # 1 the ulp is 2^-53, which moves each kernel x by x^(-2^-53) - 1, or
        # 2^-53 |ln x| relative: on these grids, whose least kernel is above
        # 1e-11, that is under 13 eps. A grid spanning more decades
        # moves the exact sum by more than rounding.
        rng = np.random.default_rng(7)
        cells = 600
        t = {"uniform": np.linspace(0.0, 3.0, cells + 1),
             "graded 2": 3.0 * (np.arange(cells + 1) / cells) ** 2,
             "graded 4": 3.0 * (np.arange(cells + 1) / cells) ** 4,
             "gaps": np.concatenate(([0.0], np.cumsum(rng.exponential(size=cells))))}[kind]
        assert np.min(np.diff(t)) > 1e-11
        data = rng.uniform(-1.0, 1.0, cells)
        inside = np.nextafter(closed, 0.5)
        plans = []
        row_blocks = fracops._row_blocks
        monkeypatch.setattr(fracops, "_row_blocks", lambda t: plans.append(1) or row_blocks(t))
        near = fracops._graded_history(data, t, inside, 1.0)
        assert plans
        exact = fracops._graded_history(data, t, closed, 1.0)
        _assert_near_reference(near, data, t, inside, exact)


class TestVerify:
    def test_termwise_machine_zero(self):
        sol = SeriesSolution.build(0.5, 1.0, 64)
        rep = verify(sol, "termwise")
        assert rep.sup_norm <= 1e-12
        assert rep.method == "termwise"

    def test_l1_budget_on_window(self):
        sol = SeriesSolution.build(0.5, 1.0, 128)
        rep = verify(sol, "l1", graded_grid(1.5, 2000, 0.5))
        assert rep.sup_norm <= 1e-4

    def test_l1_order_under_node_doubling(self):
        sol = SeriesSolution.build(0.5, 1.0, 192)
        edge = 0.8 * sol.domain_edge
        sups = [
            verify(sol, "l1", graded_grid(edge, n, 0.5)).sup_norm
            for n in (1000, 2000)
        ]
        assert sups[0] / sups[1] >= 2.0**1.4

    def test_integro_tracks_l1(self):
        # the integrated singular-kernel form agrees wherever the memory
        # derivative route does
        sol = SeriesSolution.build(0.7, 1.0, 128)
        grid = graded_grid(0.8 * sol.domain_edge, 2000, 0.7)
        rep_l1 = verify(sol, "l1", grid)
        rep_in = verify(sol, "integro", grid)
        assert rep_l1.sup_norm <= 1e-4
        assert rep_in.sup_norm <= 1e-4

    @pytest.mark.parametrize("m", (1e10, 1e50))
    def test_l1_sees_the_series_error_at_large_m(self, m):
        # at beta = 1 the series at m = 1e10 and 1e50 is off the rescaled
        # m = 1 series by 6.7e-6 and 7.1e-3. D^beta w alone scales as 1/m
        # and passed both; m D^beta w - (w - w^2) does not, like integro's
        # defect at 1e50
        sol = SeriesSolution.build(1.0, m, 64)
        grid = graded_grid(DEFAULT_VERIFY_WINDOW * sol.domain_edge, DEFAULT_VERIFY_CELLS, 1.0)
        assert verify(sol, "l1", grid).sup_norm > VERIFY_TOLERANCES["l1"]
        if m == 1e50:
            assert verify(sol, "integro", grid).sup_norm > VERIFY_TOLERANCES["integro"]

    def test_l1_defect_does_not_scale_with_m(self):
        # the grid scales as m^(1/beta), and the defect is dimensionless. At
        # beta = 1 there is no cusp; below 1 the fixed REPORT_START lies
        # nearer the cusp in t / m^(1/beta) as m grows, so the sup grows too
        sups = []
        for m in (1.0, 2.0, 3.7):
            sol = SeriesSolution.build(1.0, m, 256)
            grid = graded_grid(DEFAULT_VERIFY_WINDOW * sol.domain_edge, 2000, 1.0)
            sups.append(verify(sol, "l1", grid).sup_norm)
        assert sups == pytest.approx([sups[0]] * 3, rel=1e-8)

    def test_pc_budget_at_default_step(self):
        sol = SeriesSolution.build(0.7, 1.0, 128)
        grid = graded_grid(0.8 * sol.domain_edge, 200, 0.7)
        rep = verify(sol, "pc", grid, pc_step=1e-3)
        assert rep.sup_norm <= 1e-6

    def test_oracle_triangle(self):
        # series, quadrature, and stepper agree within combined budgets
        sol = SeriesSolution.build(0.5, 1.0, 128)
        grid = graded_grid(0.8 * sol.domain_edge, 2000, 0.5)
        sup_l1 = verify(sol, "l1", grid).sup_norm
        sup_pc = verify(sol, "pc", grid, pc_step=1e-3).sup_norm
        assert sup_pc <= 1e-4 + 1e-5
        assert sup_l1 <= 1e-4

    @pytest.mark.parametrize("beta", (1.0, 0.7, 0.3))
    def test_pc_reads_only_the_grid_end(self, beta):
        sol = SeriesSolution.build(beta, 1.0, 64)
        t1 = 0.7 * sol.domain_edge
        graded = verify(sol, "pc", graded_grid(t1, 2000, beta))
        two = verify(sol, "pc", uniform_grid(t1, 2, beta))
        assert graded.grid.tobytes() == two.grid.tobytes()
        assert graded.residual.tobytes() == two.residual.tobytes()

    @pytest.mark.parametrize("method", ("l1", "integro", "pc"))
    def test_each_method_evaluates_only_what_it_reads(self, method):
        sol = SeriesSolution.build(0.5, 1.0, 64)
        grid = graded_grid(0.7 * sol.domain_edge, 200, 0.5)
        calls = []

        def evaluate(t):
            calls.append(np.array(t))
            return sol.evaluate(t)

        stub = SimpleNamespace(seq=sol.seq, domain_edge=sol.domain_edge, evaluate=evaluate)
        rep = verify(stub, method, grid)
        nodes = grid.nodes
        t_pc, _ = solve_pc(0.5, 1.0, nodes[-1], 1e-3)
        expected = {
            "l1": [nodes],
            "integro": [nodes, 0.5 * (nodes[:-1] + nodes[1:])],
            "pc": [t_pc[t_pc >= fracops.REPORT_START]],
        }[method]
        assert [c.tobytes() for c in calls] == [e.tobytes() for e in expected]
        assert rep.residual.tobytes() == verify(sol, method, grid).residual.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method, where", (("l1", "node 3"), ("integro", "midpoint 2")))
    def test_series_that_is_not_finite_is_refused_at_its_least_t(self, method, where):
        # past t ~ 1e154 at m = 1e200, t^(2 beta) overflows and w is NaN;
        # the refusal names the least t that the method reads there
        sol = SeriesSolution.build(1.0, 1e200)
        grid = graded_grid(1e160, DEFAULT_VERIFY_CELLS, 1.0)
        nodes, mids = grid.nodes, 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
        read = np.concatenate((nodes, mids) if method == "integro" else (nodes,))
        t = float(np.sort(read[~np.isfinite(sol.evaluate(read).w)])[0])
        assert t == float({"node 3": nodes[3], "midpoint 2": mids[2]}[where])
        with pytest.raises(ValueError) as exc:
            verify(sol, method, grid)
        assert str(exc.value) == f"the series is not finite at t = {t!r} (w = nan)"
        assert repr(t) == {"l1": "2.25e+154", "integro": "1.625e+154"}[method]

    @pytest.mark.parametrize("method, bad, named", (
        ("l1", {"nodes": {7: math.inf, 3: math.nan}}, ("nodes", 3, "nan")),
        ("integro", {"nodes": {7: math.nan}, "mids": {4: -math.inf}}, ("mids", 4, "-inf")),
        ("integro", {"nodes": {3: math.inf}, "mids": {4: math.nan}}, ("nodes", 3, "inf")),
        ("pc", {"kept": {9: math.nan, 5: math.inf}}, ("kept", 5, "inf")),
    ), ids=("l1", "integro-midpoint-first", "integro-node-first", "pc"))
    def test_no_oracle_sees_a_value_that_is_not_finite(self, monkeypatch, method, bad, named):
        sol = SeriesSolution.build(0.5, 1.0, 64)
        grid = graded_grid(0.7 * sol.domain_edge, 200, 0.5)
        t_pc, _ = solve_pc(0.5, 1.0, grid.nodes[-1], 1e-3)
        points = {"nodes": grid.nodes, "mids": 0.5 * (grid.nodes[:-1] + grid.nodes[1:]),
                  "kept": t_pc[t_pc >= fracops.REPORT_START]}

        def evaluate(t):
            w = sol.evaluate(t).w.copy()
            for name, entries in bad.items():
                if t.tobytes() == points[name].tobytes():
                    w[list(entries)] = list(entries.values())
            return SimpleNamespace(w=w)

        def oracle(*args):
            raise AssertionError("an oracle saw the series")

        for name in ("caputo_l1_all", "fractional_integral_midpoint"):
            monkeypatch.setattr(fracops, name, oracle)
        stub = SimpleNamespace(seq=sol.seq, domain_edge=sol.domain_edge, evaluate=evaluate)
        name, k, w = named
        with pytest.raises(ValueError) as exc:
            verify(stub, method, grid)
        t = float(points[name][k])
        assert str(exc.value) == f"the series is not finite at t = {t!r} (w = {w})"

    def test_grid_past_domain_rejected(self):
        sol = SeriesSolution.build(0.5, 1.0, 64)
        bad = graded_grid(2.0 * sol.domain_edge, 100, 0.5)
        with pytest.raises(ValueError):
            verify(sol, "l1", bad)

    def test_unknown_method_rejected(self):
        sol = SeriesSolution.build(0.5, 1.0, 64)
        with pytest.raises(ValueError):
            verify(sol, "spectral")

    def test_grid_required_for_quadrature_methods(self):
        sol = SeriesSolution.build(0.5, 1.0, 64)
        with pytest.raises(ValueError):
            verify(sol, "l1")

    @pytest.mark.parametrize("method", ("l1", "integro", "pc"))
    def test_grid_for_another_order_rejected(self, method):
        # the L1 and integro oracles take the order from the grid, so an
        # order-0.9 grid would silently check an order-0.9 derivative
        sol = SeriesSolution.build(0.5)
        grid = graded_grid(0.8 * sol.domain_edge, 200, 0.9)
        with pytest.raises(ValueError, match="beta = 0.9"):
            verify(sol, method, grid)

    def test_unknown_method_names_the_choices(self):
        with pytest.raises(ValueError) as exc:
            verify(SeriesSolution.build(0.5), "spectral")
        assert str(exc.value) == ("unknown method 'spectral'; choose from "
                                  "('termwise', 'l1', 'integro', 'predictor_corrector')")

    @pytest.mark.parametrize("grid, residual, message", (
        ([0.1, 0.2], [0.0], "grid and residual must have the same length, got 2 and 1"),
        ([], [], "grid must be a 1-D array of 1 or more entries, got shape (0,)"),
        ([0.1], [], "residual must be a 1-D array of 1 or more entries, got shape (0,)"),
        ([[0.1, 0.2]], [0.0, 0.0], "grid must be a 1-D array of 1 or more entries, "
                                   "got shape (1, 2)"),
        ([0.1, 0.2], [[0.0], [0.0]], "residual must be a 1-D array of 1 or more entries, "
                                     "got shape (2, 1)"),
    ))
    def test_report_needs_one_residual_per_point(self, grid, residual, message):
        # a mismatch gave JSON lists of different lengths, an empty report a
        # sup_norm that raised numpy's "zero-size array" error
        with pytest.raises(ValueError) as exc:
            ResidualReport("l1", grid, residual)
        assert str(exc.value) == message

    def test_report_serialization(self, capsys):
        sol = SeriesSolution.build(0.5, 1.0, 64)
        rep = verify(sol, "termwise")
        payload = rep.to_json_dict()
        assert set(payload) == {"method", "t", "residual", "sup_norm"}
        assert main(["verify", "--beta", "0.5", "--method", "termwise", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,residual"


def _mittag_leffler(beta, z, terms=400):
    """E_beta(z) = sum_k z^k / Gamma(beta k + 1) for z <= 0, by its power
    series in floats."""
    k = np.arange(1, terms)
    lg = np.array([math.lgamma(beta * j + 1.0) for j in k.tolist()])
    with np.errstate(divide="ignore"):  # log 0 = -inf makes every term 0 at z = 0
        log_z = np.log(-np.asarray(z, dtype=float))
    mags = np.exp(np.multiply.outer(log_z, k) - lg)
    return 1.0 + np.sum(np.where(k % 2, -mags, mags), axis=-1)


def _west_ansatz(sol):
    """A stand-in for ``sol`` whose values are West's ansatz
    1/(1 + E_beta(-t^beta / m)) (Physica A 429, 2015) in place of the series.
    It is exact at beta = 1, but Area, Losada & Nieto (Physica A 444, 2016)
    showed that it does not solve the equation for beta < 1."""
    beta, m = sol.seq.beta, sol.seq.m

    def evaluate(t):
        z = -np.asarray(t, dtype=float) ** beta / m
        return SimpleNamespace(w=1.0 / (1.0 + _mittag_leffler(beta, z)))

    return SimpleNamespace(seq=sol.seq, domain_edge=sol.domain_edge, evaluate=evaluate)


class TestNegativeControls:
    """Each oracle fails a series with one coefficient, g_7, off by 1%, on the
    grid and at the tolerances of ``felog verify``, where it passes the
    series as built."""

    @pytest.mark.parametrize("beta, m", ((0.5, 2.0), (0.9, 1.0), (0.3, 1.0)))
    @pytest.mark.parametrize("method", ("termwise", "l1", "integro", "pc"))
    def test_perturbed_coefficient_fails(self, method, beta, m):
        seq = build_sequence(beta, m, 256)
        g = seq.g.copy()
        g[7] *= 1.01
        clean, perturbed = SeriesSolution(seq), SeriesSolution(dataclasses.replace(seq, g=g))
        grid = None
        if method != "termwise":
            grid = make_grid(DEFAULT_VERIFY_WINDOW * clean.domain_edge, 2000, "graded", beta)
        tol = VERIFY_TOLERANCES["predictor_corrector" if method == "pc" else method]
        assert verify(clean, method, grid).sup_norm <= tol
        assert verify(perturbed, method, grid).sup_norm > tol

    @pytest.mark.parametrize("beta", (0.3, 0.5, 0.9))
    def test_float_mittag_leffler_matches_mpmath(self, beta):
        mp = pytest.importorskip("mpmath")
        t1 = DEFAULT_VERIFY_WINDOW * SeriesSolution.build(beta, 1.0, 256).domain_edge
        for t in (0.05, t1 / 3, 2 * t1 / 3, t1):
            z = -(t**beta)
            with mp.workdps(40):
                ref = mp.fsum(mp.mpf(z) ** k / mp.gamma(beta * k + 1) for k in range(400))
            assert abs(_mittag_leffler(beta, z) - float(ref)) <= 1e-13, t

    @pytest.mark.parametrize("beta", (0.3, 0.5, 0.9))
    def test_west_ansatz_fails_every_grid_oracle(self, beta):
        # the ansatz is off by 2e-2 to 6e-2 here, where the series passes
        sol = SeriesSolution.build(beta, 1.0, 256)
        grid = make_grid(DEFAULT_VERIFY_WINDOW * sol.domain_edge, 2000, "graded", beta)
        west = _west_ansatz(sol)
        for method in ("l1", "integro", "pc"):
            tol = VERIFY_TOLERANCES["predictor_corrector" if method == "pc" else method]
            assert verify(west, method, grid).sup_norm >= 100 * tol, method


class TestSonine:
    def test_half_reduces_to_circle_constant(self):
        assert sonine_check(0.5, [1.0]) <= 1e-12

    @pytest.mark.parametrize("beta", (0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999))
    def test_identity_across_t(self, beta):
        assert sonine_check(beta, [0.5, 1.0, 3.0]) <= 1e-10

    @pytest.mark.parametrize("beta", (0.001, 0.3, 0.5, 0.999))
    def test_one_value_serves_every_t(self, beta):
        # the identity is free of t, which is only validated
        grids = ([0.5], [0.5, 1.0, 3.0], [1e-300, 1e300])
        assert len({sonine_check(beta, t) for t in grids}) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="the t grid is empty"):
            sonine_check(0.5, [])


class TestStableLevyTail:
    def test_value_at_one(self):
        assert stable_levy_tail(0.5, 1.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-13
        )

    def test_power_law_scaling(self):
        for beta in (0.25, 0.5, 0.8):
            ratio = stable_levy_tail(beta, 2.0) / stable_levy_tail(beta, 1.0)
            assert ratio == pytest.approx(2.0**-beta, rel=1e-13)

    @pytest.mark.parametrize("beta, z, value", (
        (1 - 1e-16, 5e-324, 2.2471164185777093e307),  # z^-beta alone overflows; 60 digits
        (0.999999, 5e-324, math.inf),  # 2.0e317
    ))
    def test_past_the_double_range(self, beta, z, value):
        # exp of a log near 744 carries its rounding times 744: 1.1e-13 here
        assert stable_levy_tail(beta, z) == pytest.approx(value, rel=1e-12)

    def test_laplace_consistency(self):
        # truncated transform of the tail vs lam^(beta-1) = 1 at lam = 1
        assert abs(levy_tail_laplace(0.5, 1.0) - 1.0) <= 1e-3

    @pytest.mark.parametrize("beta", (0.2, 0.5, 0.9))
    @pytest.mark.parametrize("lam", (0.1, 1.0, 3.0))
    def test_laplace_bits_match_the_inline_rule(self, beta, lam):
        # one window in u = lam z for every lam, scaled by lam^(beta-1)
        edges = np.linspace(0.0, 40.0, 100_001)
        mids = 0.5 * (edges[:-1] + edges[1:])
        moments = (edges[1:] ** (1.0 - beta) - edges[:-1] ** (1.0 - beta)) / (1.0 - beta)
        integral = float(np.dot(np.exp(-mids), moments))
        scale = math.exp((beta - 1.0) * math.log(lam))
        assert levy_tail_laplace(beta, lam) == scale * (integral / math.exp(ln_gamma(1.0 - beta)))

    @pytest.mark.parametrize("beta", (0.1, 0.3, 0.7, 0.95))
    def test_laplace_keeps_its_error_at_one_over_every_positive_double(self, beta):
        # every lam sees the cells of lam = 1 in u = lam z, scaled: one relative
        # error (1.3e-4 at beta = .95), no overflow, and no window cut short
        # below lam = 1 (a window of 40 in z lost 50% at beta = .3, lam = .01)
        def error(lam):
            return abs(levy_tail_laplace(beta, lam) / math.exp((beta - 1.0) * math.log(lam)) - 1)

        bound = 1.001 * error(1.0)
        lams = [5e-324, sys.float_info.min] + [10.0**k for k in range(-300, 309, 7)]
        for lam in lams + [0.01, sys.float_info.max]:
            assert error(lam) <= bound, lam


def solve_pc_direct(beta, m, t_end, h, corrector_tol=1e-12, max_corrector_iters=20):
    """Reference stepper: the same scheme with both history sums taken as
    direct O(N^2) dot products."""
    n_steps = int(math.ceil(t_end / h - 1e-12))
    t = np.arange(n_steps + 1) * h
    u = np.empty(n_steps + 1)
    u[0] = 0.5
    f = np.empty(n_steps + 1)

    def rhs(x):
        return (x - x * x) / m

    f[0] = rhs(u[0])

    idx = np.arange(n_steps + 2, dtype=float)
    # predictor kernel: (j+1)^b - j^b ; corrector interior kernel:
    # (j+1)^(b+1) + (j-1)^(b+1) - 2 j^(b+1)
    pow_b = idx**beta
    pow_b1 = idx ** (beta + 1.0)
    pred_k = pow_b[1:] - pow_b[:-1]
    corr_k = np.empty(n_steps + 1)
    corr_k[0] = 1.0  # weight of the newest node
    corr_k[1:] = pow_b1[2:] + pow_b1[:-2] - 2.0 * pow_b1[1:-1]

    c_pred = h**beta / beta / math.exp(ln_gamma(beta))
    c_corr = h**beta / math.exp(ln_gamma(beta + 2.0))

    for n in range(n_steps):
        hist_pred = float(np.dot(f[: n + 1], pred_k[n::-1]))
        u_pred = 0.5 + c_pred * hist_pred

        # corrector history: interior kernel over j=1..n plus the j=0 weight
        a0 = pow_b1[n] - (n - beta) * pow_b[n + 1]
        hist = a0 * f[0]
        if n >= 1:
            hist += float(np.dot(f[1 : n + 1], corr_k[n:0:-1]))
        base = 0.5 + c_corr * hist

        u_new = base + c_corr * rhs(u_pred)
        for _ in range(max_corrector_iters):
            u_next = base + c_corr * rhs(u_new)
            if abs(u_next - u_new) <= corrector_tol:
                u_new = u_next
                break
            u_new = u_next
        else:
            raise ArithmeticError("corrector iteration did not converge")
        u[n + 1] = u_new
        f[n + 1] = rhs(u_new)
    return t, u


class TestSolvePC:
    def test_initial_value_exact(self):
        t, u = solve_pc(0.7, 1.0, 0.5, 1e-3)
        assert u[0] == 0.5 and t[0] == 0.0

    def test_classical_limit(self):
        t, u = solve_pc(1.0, 1.0, 1.0, 1e-4)
        assert u[-1] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-8)

    def test_cross_oracle_agreement_beta_half(self):
        t, u = solve_pc(0.5, 1.0, 0.5, 1e-4)
        sol = SeriesSolution.build(0.5, 1.0, 64)
        assert u[-1] == pytest.approx(sol(float(t[-1])), abs=1e-5)

    @pytest.mark.parametrize("beta", (0.5, 0.7))
    def test_observed_order_at_least_one_plus_beta(self, beta):
        sol = SeriesSolution.build(beta, 1.0, 192)
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            t, u = solve_pc(beta, 1.0, 1.0, h)
            w = np.atleast_1d(sol.evaluate(t[1:]).w)
            errs.append(float(np.max(np.abs(w - u[1:]))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.0 + beta

    @pytest.mark.parametrize("m", (1.0, 2.0))
    @pytest.mark.parametrize("h", (0.5, 1.0, 2.0))
    def test_classical_order_steps_are_trapezoidal(self, m, h):
        # at beta = 1 every corrector step is the implicit trapezoidal rule,
        # which the exact root of the step's quadratic meets to rounding at
        # any step size, h = 2 included
        t, u = solve_pc(1.0, m, 8.0, h)
        f = (u - u * u) / m
        assert np.max(np.abs(np.diff(u) - 0.5 * h * (f[:-1] + f[1:]))) <= 1e-14
        assert np.all((u >= 0.5) & (u < 1.0))

    @pytest.mark.parametrize("beta, h", ((1.0, 10.0), (0.5, 100.0), (1.0, 2.0 * (1.0 + 1e-15))))
    def test_step_too_large_for_m_rejected(self, beta, h):
        # a = h^beta / (Gamma(beta+2) m) > 1: the step could overshoot the
        # equilibrium 1 (at beta = 1, m = 1, h = 10 it reached 1.11)
        with pytest.raises(ValueError, match="too large"):
            solve_pc(beta, 1.0, 20.0 * h, h)

    @pytest.mark.parametrize("t_end, h, steps", (
        ((MAX_STEPS + 1) * 2.0**-10, 2.0**-10, MAX_STEPS + 1),
        (1e10, 1e-300, math.inf),  # t_end / h overflows
    ))
    def test_step_count_above_the_limit_rejected(self, t_end, h, steps):
        # raised before the arrays are built: just above the limit the run
        # would take seconds, and 1e310 steps could not be allocated at all
        with pytest.raises(ValueError, match=f"needs {steps} steps, more than the {MAX_STEPS}"):
            solve_pc(1.0, 1.0, t_end, h)

    def test_step_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(fracops, "MAX_STEPS", 10)
        h = 2.0**-6
        t, _ = solve_pc(1.0, 1.0, 10 * h, h)
        assert t.size == 11
        with pytest.raises(ValueError, match="needs 11 steps, more than the 10 allowed"):
            solve_pc(1.0, 1.0, 11 * h, h)

    @pytest.mark.parametrize("t_end, h", ((1e-13, 1.0), (1e-300, 1e-3), (2.0**-11, 2.0**-10)))
    def test_reaches_a_t_end_below_one_step(self, t_end, h):
        t, u = solve_pc(1.0, 1.0, t_end, h)
        assert t.size == 2 and t[-1] >= t_end
        assert 0.5 < u[-1] < 1.0

    @pytest.mark.parametrize("n_steps", (1, 2, _INNER - 1, _INNER, _INNER + 1, B0 - 1, B0, B0 + 1,
                                         B0 + _INNER + 5, 2 * B0, 4 * B0 + 3, 16_000))
    @pytest.mark.parametrize("beta", (0.3, 0.5, 0.75, 1.0))
    @pytest.mark.parametrize("m", (1.0, 2.0))
    def test_matches_direct_history_sums(self, n_steps, beta, m):
        self._check_against_direct(beta, m, n_steps)

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(0.3, 1.0),
        m=st.floats(1.0, 10.0),
        n_steps=st.integers(1, 600),
    )
    def test_matches_direct_history_sums_anywhere(self, beta, m, n_steps):
        self._check_against_direct(beta, m, n_steps)

    @staticmethod
    def _check_against_direct(beta, m, n_steps):
        h = 2.0**-13  # a power of two, so that t_end / h is exactly n_steps
        t, u = solve_pc(beta, m, n_steps * h, h)
        t_ref, u_ref = solve_pc_direct(beta, m, n_steps * h, h)
        assert u.size == n_steps + 1
        assert np.array_equal(t, t_ref)
        assert float(np.max(np.abs(u - u_ref))) <= 1e-13
