"""Independent fractional-calculus oracles.

Nothing here reuses the series recurrence: the memory-kernel derivative is
discretized by the L1 product rule (piecewise-linear data, kernel moments
integrated exactly, since naive quadrature of the weakly singular kernel
diverges), the integrated form uses product-rectangle quadrature with exact
cell moments, and the time-stepper takes the corrector of the fractional
Adams-Bashforth-Moulton scheme, whose implicit step is a quadratic solved
exactly. At beta = 1 the graded-grid routes raise the kernel to the powers
0 and 1, whose cell moments are exact: the L1 sum is each node's newest
slope and the integral is a running sum, both O(N). At any other order the
two routes split each node's history at half its time. Cells below the cut
are summed through the binomial series of the kernel, whose terms are all
positive, so nothing cancels; that costs O(N P) for N cells and P = 52
terms. The near cells are summed directly, in blocks of rows that raise
each kernel entry to its power once. On a graded grid they are a fixed
share of each node's history, so this part stays O(N^2), but small. Both
parts need O(HISTORY_BLOCK) temporary memory. The stepper's one
uniform-grid history sum has three tiers: a step's own inner block of 16
steps in plain floats, the rest back to the last boundary of B0 steps by one
matrix-vector product per inner block, and older history by the blocked FFT
convolution of Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6,
1985), O(N log^2 N) time and O(N) memory for N steps. The kernel-pair check
takes its Beta integral from a fixed tanh-sinh rule (Takahasi & Mori, Publ.
RIMS 9, 1974), not from the Gamma function; the stable tail's transform takes
a product-midpoint rule. Only the argument rules come from euler_beta and
specfun, never the series' numerics. Agreement between these routes and the
series is the point; neither side is ground truth alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .euler_beta import (BetaEulerSequence, _as_real, _check_beta, _check_m, _gamma_ratios,
                         _read_only, _take_array, _take_real)
from .specfun import _check_count, _check_real, _exp, gamma_fn, ln_gamma

__all__ = [
    "QuadratureGrid",
    "ResidualReport",
    "RLDerivative",
    "uniform_grid",
    "graded_grid",
    "make_grid",
    "caputo_termwise",
    "rl_derivative_termwise",
    "caputo_l1_all",
    "fractional_integral_midpoint",
    "verify",
    "sonine_check",
    "stable_levy_tail",
    "levy_tail_laplace",
    "solve_pc",
]

#: Default pass thresholds per verification method (felog verify --tol overrides).
VERIFY_TOLERANCES = {
    "termwise": 1e-12,
    "l1": 1e-4,
    "integro": 1e-4,
    "predictor_corrector": 1e-5,
}

#: Grid-based residual reports start here: at the origin the solution has a
#: t^beta cusp, where the piecewise-linear L1 defect is O(1) no matter how
#: fine the mesh, and the term-wise derivative blows up.
REPORT_START = 0.05

#: Steps of recent history that solve_pc sums directly; older history goes
#: through FFT blocks of B0 * 2^k steps.
B0 = 128
_INNER = 16  # solve_pc's steps per inner block, a divisor of B0

#: Most steps solve_pc takes (and most --steps the CLI accepts): far above
#: any use, but small enough that no array they size can exhaust memory.
MAX_STEPS = 1_000_000

#: Kernel entries per row block of the graded-grid history sums: 2^15
#: doubles, 256 KiB per temporary; a row with more near cells is a block.
HISTORY_BLOCK = 2**15

# A cell is far from node n when it ends by t_n / 2. Its moment then follows
# from (1 - x)^e = 1 - sum_p c_p x^p at x <= 1/2, where 0 <= c_p <= e/p for
# 0 <= e <= 1. After P terms the tail is below 2^-P / (P+1) of the kernel
# t_n^e, and below 2^(1-P) of each far moment. P = 52 keeps the kernel
# within half an ulp and each far moment within 2^-51.
_FAR_CUT = 0.5
_FAR_TERMS = 52


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Finite, strictly increasing nodes starting at 0 for the memory integrals:
    a 1-D array of at least 3."""

    nodes: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        _take_real(self, "beta", _check_beta)
        _take_array(self, "nodes", 3)
        if self.nodes[0] != 0.0:
            raise ValueError("nodes must start at 0")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")


#: The kernel pair and the stable symbol degenerate at beta = 0 and 1.
_check_strict = partial(_check_real, "beta", lo=0, hi=1, ends="()")


def uniform_grid(t1: float, n: int, beta: float) -> QuadratureGrid:
    """n equal cells on [0, t1]."""
    t1 = _check_real("t1", t1, 0, math.inf, "()")
    n = _check_count("the cell count", n, 2, MAX_STEPS)
    return QuadratureGrid(np.linspace(0.0, t1, n + 1), beta)


def graded_grid(t1: float, n: int, beta: float) -> QuadratureGrid:
    """Nodes t_j = t1 * (j/n)^(2/beta), clustered at the origin cusp."""
    t1 = _check_real("t1", t1, 0, math.inf, "()")
    n = _check_count("the cell count", n, 2, MAX_STEPS)
    beta = _check_beta(beta)
    j = np.arange(n + 1, dtype=float)
    nodes = t1 * (j / n) ** (2.0 / beta)
    if nodes[1] == 0.0:
        raise ValueError(f"a graded grid of {n} cells at beta = {beta:g} on (0, {t1:.6g}] "
                         "underflows: its first node t1 * n^(-2/beta) is 0; use fewer cells "
                         "or a uniform grid")
    return QuadratureGrid(nodes, beta)


def make_grid(t1: float, n: int, spacing: str, beta: float) -> QuadratureGrid:
    if spacing == "uniform":
        return uniform_grid(t1, n, beta)
    if spacing == "graded":
        return graded_grid(t1, n, beta)
    raise ValueError(f"unknown spacing {spacing!r}; use 'uniform' or 'graded'")


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Pointwise defect of one verification route at the points ``grid``.

    Stores only the defect, finite and >= 0 at each point; ``sup_norm`` is its largest.
    """

    method: str
    grid: np.ndarray
    residual: np.ndarray

    def __post_init__(self) -> None:
        _take_array(self, "grid", 1)
        _take_array(self, "residual", 1, 0, math.inf, "[)")
        if self.grid.size != self.residual.size:
            raise ValueError(f"grid and residual must have the same length, "
                             f"got {self.grid.size} and {self.residual.size}")

    @property
    def sup_norm(self) -> float:
        return float(np.max(self.residual))

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "t": self.grid.tolist(),
            "residual": self.residual.tolist(),
            "sup_norm": self.sup_norm,
        }


@dataclass(frozen=True, eq=False)
class RLDerivative:
    """Term-wise Riemann-Liouville derivative: coefficient of the t^(-beta)
    singular term plus the regular power-series coefficients."""

    singular_coefficient: float
    regular: np.ndarray


def caputo_termwise(seq: BetaEulerSequence) -> np.ndarray:
    """Term-wise memory derivative of sum_k g_k t^(beta*k) at t^(beta*k),
    from ``seq.g`` and ``seq.beta`` alone.

    Entry k is g_{k+1} * Gamma(beta*(k+1)+1) / Gamma(beta*k+1), taken as g_{k+1}
    over the recurrence's own Gamma ratio, so that the defect of a built
    sequence is rounding alone; the constant term contributes nothing, so a
    constant series maps to all zeros.
    """
    g, beta = seq.g, seq.beta
    return _read_only(g[1:] / _gamma_ratios(beta, beta * np.arange(g.size - 1) + 1.0))


def rl_derivative_termwise(seq: BetaEulerSequence) -> RLDerivative:
    """Riemann-Liouville derivative of the series, split into the singular
    part g_0 t^(-beta)/Gamma(1-beta) and the regular series (which equals the
    Caputo coefficients). At beta = 1 the singular term is absent."""
    singular = 0.0 if seq.beta == 1.0 else seq.g[0] / gamma_fn(1.0 - seq.beta)
    return RLDerivative(singular_coefficient=singular, regular=caputo_termwise(seq))


def _graded_history(data: np.ndarray, t: np.ndarray, exponent: float, scale: float) -> np.ndarray:
    """scale * sum_j data_j * [(t_n - t_j)^e - (t_n - t_(j+1))^e] over the
    cells j < n, at every node index n = 1..len(t)-1, for 0 <= e <= 1.

    The integer exponents, which beta = 1 gives both callers, have exact
    moments and O(N) sums: at e = 0 a node's only nonzero moment is its
    newest cell's, and it is 1, so the sum is that cell's datum; at e = 1
    each moment is its cell's width, so the sums are one running sum.

    Any other exponent goes through blocks of node rows (see _row_blocks).
    The cells j < lo, which end by half the block's first node, are far, and
    _far_history sums them by the binomial series of the kernel in O(N P)
    for all N nodes. The near cells are summed directly: each kernel entry
    (t_n - t_j)^e is raised to its power once and serves as the lower end of
    cell j and the upper end of cell j-1, and one matrix-vector product sums
    the block. Entries with j >= n are 0. On a graded grid t_j ~ j^r the
    near cells are about 1 - 2^(-1/r) of each history, 0.16 at r = 4, plus
    the block's own rows. Temporaries take O(HISTORY_BLOCK) memory at any N.
    """
    if exponent == 0.0:
        return _read_only(data * scale)
    if exponent == 1.0:
        return _read_only(np.cumsum(data * np.diff(t)) * scale)
    blocks = _row_blocks(t)
    out = _far_history(data, t, exponent, blocks)
    # one set of block buffers per call, each block a prefix of them, so that
    # no block allocates (and the heap is not trimmed and regrown between them)
    size = int(np.max((blocks[:, 1] - blocks[:, 2]) * (blocks[:, 1] - blocks[:, 0])))
    kernel_buf, moment_buf, mask_buf = np.empty(size), np.empty(size), np.empty(size, bool)
    for a, b, lo in blocks:
        # kernel[j, i] = (t_(a+i) - t_(lo+j))^e: one column per row of the
        # block, so the moment differences below run over contiguous slabs
        shape = (b - lo, b - a)
        kernel = kernel_buf[: shape[0] * shape[1]].reshape(shape)
        np.subtract(t[a:b], t[lo:b, None], out=kernel)
        # the head rows, nodes j < a, lie below every node of the block, so
        # only the block's own rows hold entries j >= n to be set to 0. Here
        # e > 0, so 0.0**e is 0 too: the mask only skips the powers of that
        # zero triangle, which keeps a sum 1-7% faster
        head, own = kernel[: a - lo], kernel[a - lo :]
        np.power(head, exponent, out=head)
        positive = mask_buf[: own.size].reshape(own.shape)
        np.maximum(own, 0.0, out=own)
        np.greater(own, 0.0, out=positive)
        np.power(own, exponent, out=own, where=positive)
        # the moments stay elementwise: summing by parts against data
        # differences cancels badly where the near-origin slopes are large
        moments = moment_buf[: kernel.size - shape[1]].reshape(shape[0] - 1, shape[1])
        np.subtract(kernel[:-1], kernel[1:], out=moments)
        out[a - 1 : b - 1] += data[lo : b - 1] @ moments
    out *= scale
    return _read_only(out)


def _row_blocks(t: np.ndarray) -> np.ndarray:
    """Rows (a, b, lo), one per block of node rows a..b-1, in order: the cells
    j < lo end by _FAR_CUT * t_a, so they are far from every row of the block.

    A block is at most a // 4 rows tall. That bounds how far its last row
    lies beyond its first, and so the cancellation in the direct moments of
    the cells lo..n that the rows below the first sum directly. A block of
    more than one row holds at most HISTORY_BLOCK kernel entries.
    """
    size = t.size
    plan = []
    a = 1
    while a < size:
        lo = int(np.searchsorted(t, _FAR_CUT * t[a], side="right")) - 1
        rows = max(1, min(a // 4, HISTORY_BLOCK // (a + a // 4 - lo)))
        b = min(a + rows, size)
        plan += a, b, lo
        a = b
    return np.array(plan, dtype=np.intp).reshape(-1, 3)


def _far_history(
    data: np.ndarray, t: np.ndarray, exponent: float, blocks: np.ndarray
) -> np.ndarray:
    """The far part of the history sum at every node: sum over j < lo of
    data_j * t_n^e * sum_p c_p [(t_(j+1)/t_n)^p - (t_j/t_n)^p], with lo the
    boundary of n's block.

    Block k carries S_p = sum_(j < lo_k) data_j [(t_(j+1)/tau)^p - (t_j/tau)^p]
    at its own scale tau = t_(lo_k). It takes the sums of the block before
    it, at scale tau' <= tau, times (tau'/tau)^p, plus the cells that its
    boundary passes first, so every S_p lies within the data's range at any
    grading and scale (beta = .1, or a grid end near 5e4 at m = 3). A row
    then needs only x = tau/t_n <= 1/2 and its block's S. Blocks go in
    groups of at most HISTORY_BLOCK // (2 P) rows, and cells in chunks of
    that size, so every table of P powers stays that size.
    """
    terms = _FAR_TERMS
    chunk = max(1, HISTORY_BLOCK // (2 * terms))
    weights = _binomial_weights(exponent)[:, None]
    out = np.zeros(t.size - 1)
    # S at scale t[passed] over the cells j < passed
    carry, passed = np.zeros(terms), 0
    i = 0
    while i < len(blocks):
        j = int(np.searchsorted(blocks[:, 1], blocks[i, 0] + chunk, side="right"))
        starts, stops, lows = blocks[i:j].T
        tau = t[lows]
        sums = _passed_cells(data, t, lows, passed, chunk)
        # a block with no far cells has tau = 0 and takes nothing
        before = np.concatenate(([t[passed]], tau[:-1]))
        ratio = _powers(np.divide(before, tau, out=np.zeros(j - i), where=tau > 0.0), terms)
        sums[:, 0] += ratio[:, 0] * carry
        for k in range(1, j - i):
            sums[:, k] += ratio[:, k] * sums[:, k - 1]
        carry, passed = sums[:, -1].copy(), int(lows[-1])

        sums *= weights
        block = np.repeat(np.arange(j - i), stops - starts)
        node = t[starts[0] : stops[-1]]
        powers = _powers(tau[block] / node, terms)
        far = np.einsum("pi,pi->i", powers, sums[:, block])
        out[starts[0] - 1 : stops[-1] - 1] = far * node**exponent
        i = j
    return out


def _passed_cells(
    data: np.ndarray, t: np.ndarray, lows: np.ndarray, begin: int, chunk: int
) -> np.ndarray:
    """(P, len(lows)) table whose column k sums data_c [(t_(c+1)/tau)^p -
    (t_c/tau)^p] at tau = t[lows[k]] over the cells c >= begin that boundary
    k is the first to pass, chunk cells at a time."""
    sums = np.zeros((_FAR_TERMS, lows.size))
    end = int(lows[-1])
    for c in range(begin, end, chunk):
        d = min(c + chunk, end)
        block = np.searchsorted(lows, np.arange(c, d), side="right")
        tau = t[lows[block]]
        lower, upper = t[c:d] / tau, t[c + 1 : d + 1] / tau
        table = _power_differences(lower, upper, (t[c + 1 : d + 1] - t[c:d]) / tau)
        table *= data[c:d]
        edges = np.flatnonzero(np.diff(block, prepend=-1))
        sums[:, block[edges]] += np.add.reduceat(table, edges, axis=1)
    return sums


def _binomial_weights(exponent: float) -> np.ndarray:
    """c_p = -binom(e, p) (-1)^p for p = 1..P: (1 - x)^e = 1 - sum_p c_p x^p,
    with c_1 = e and c_(p+1) = c_p (p - e) / (p + 1), all >= 0 for 0 <= e <= 1."""
    p = np.arange(1, _FAR_TERMS + 1, dtype=float)
    factors = (p - 1.0 - exponent) / p
    factors[0] = exponent
    return np.cumprod(factors)


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """x^1..x^count as the rows of a (count, len(x)) table. Each power is
    the product of two earlier ones, so the table takes log2(count) + 1
    array products; x^p is within p - 1 roundings, as by a running product."""
    out = np.empty((count, x.size))
    out[0] = x
    done = 1
    while done < count:
        step = min(done, count - done)
        np.multiply(out[:step], out[done - 1], out=out[done : done + step])
        done += step
    return out


def _power_differences(lower: np.ndarray, upper: np.ndarray, width: np.ndarray) -> np.ndarray:
    """upper^p - lower^p for p = 1..P, with 0 <= lower < upper and width =
    upper - lower, as a (P, len(upper)) table.

    Doubling by u^(f+i) - l^(f+i) = u^f (u^i - l^i) + l^i (u^f - l^f) adds
    positive terms only, so no entry cancels, however narrow the cell.
    """
    terms = _FAR_TERMS
    out = np.empty((terms, upper.size))
    out[0] = width
    low = _powers(lower, terms // 2)
    high = upper.copy()
    done = 1
    while done < terms:
        step = min(done, terms - done)
        part = out[done : done + step]
        np.multiply(low[:step], out[done - 1], out=part)
        part += high * out[:step]
        high *= high
        done += step
    return out


def caputo_l1_all(w_values: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """L1 product-quadrature values of the memory derivative at every node
    index 1..n, from the data's values at the grid nodes.

    Piecewise-linear data between nodes; the kernel is integrated exactly on
    each cell. O(h^(2-beta)) for twice-differentiable data.
    """
    t = grid.nodes
    vals = _as_real(w_values, "w_values")
    if vals.shape != t.shape:
        raise ValueError("value array must match the grid nodes")
    beta = grid.beta
    with np.errstate(over="ignore"):  # a subnormal cell's slope can pass the largest double
        slopes = np.diff(vals) / np.diff(t)
    if not np.isfinite(slopes).all():
        k = int(np.argmin(np.isfinite(slopes)))
        raise ValueError(f"cell {k} of the grid is too narrow for an L1 slope "
                         f"({t[k + 1] - t[k]:.5g} wide); use fewer cells or a uniform grid")
    return _graded_history(slopes, t, 1.0 - beta, 1.0 / gamma_fn(2.0 - beta))


def fractional_integral_midpoint(
    f_mid: np.ndarray, grid: QuadratureGrid
) -> np.ndarray:
    """Order-beta memory integral at every node index 1..n.

    Product-rectangle rule: the data takes its cell-midpoint value and the
    kernel moment is integrated exactly per cell, which is what keeps the
    integrable singularity at the upper limit harmless.
    """
    t = grid.nodes
    beta = grid.beta
    f_mid = _as_real(f_mid, "f_mid")
    if f_mid.shape != (t.size - 1,):
        raise ValueError("need one midpoint value per cell")
    return _graded_history(f_mid, t, beta, 1.0 / gamma_fn(beta + 1.0))


def verify(
    sol,
    method: str,
    grid: Optional[QuadratureGrid] = None,
    pc_step: float = 1e-3,
) -> ResidualReport:
    """Residual of the fractional logistic equation under one oracle, read
    from ``sol`` through ``sol.seq``, ``sol.domain_edge`` and ``sol.evaluate(t).w``.

    termwise: coefficient-wise defect of the recurrence (index grid);
    l1/integro: pointwise defect on the grid nodes with t >= REPORT_START,
    from one evaluation at the nodes (and, for integro, one at the cell
    midpoints), each in a form free of the scale m: m D^beta w - (w - w^2)
    for l1 and w - 1/2 - I^beta[(w - w^2)/m] for integro;
    predictor_corrector: deviation from the solution stepped by solve_pc on
    its own uniform grid up to the last grid node, at its steps with
    t >= REPORT_START; of the grid it reads only that node and beta.
    Grids must be built for the series' beta, stay within (0, 0.8 *
    sol.domain_edge) and reach REPORT_START. A series value that is not
    finite reaches no oracle: ValueError names the least t where the method
    reads one ("the series is not finite at t = 2.25e+154 (w = nan)").
    """
    method = "predictor_corrector" if method == "pc" else method
    if method not in VERIFY_TOLERANCES:
        raise ValueError(f"unknown method {method!r}; choose from {tuple(VERIFY_TOLERANCES)}")
    seq = sol.seq

    if method == "termwise":
        coeffs = caputo_termwise(seq)
        conv = np.convolve(seq.g, seq.g)[: coeffs.size]
        residual = np.abs(coeffs - (seq.g[:-1] - conv) / seq.m)
        idx = np.arange(coeffs.size, dtype=float)
        return ResidualReport("termwise", idx, residual)

    if grid is None:
        raise ValueError(f"method {method!r} needs a quadrature grid")
    if grid.beta != seq.beta:
        raise ValueError(
            f"grid was built for beta = {grid.beta}, the series has beta = {seq.beta}"
        )
    edge = 0.8 * sol.domain_edge
    if grid.nodes[-1] > edge * (1.0 + 1e-12):
        raise ValueError(
            f"grid extends to {grid.nodes[-1]:.6g}, past 0.8 * domain_edge = {edge:.6g}"
        )

    if method == "predictor_corrector":
        t, u_pc = solve_pc(seq.beta, seq.m, float(grid.nodes[-1]), pc_step)
    else:
        t = grid.nodes[1:]
    keep = t >= REPORT_START
    if not keep.any():
        raise ValueError(
            f"no node lies at or after t_min = {REPORT_START:g}; the last is {grid.nodes[-1]:.6g}"
        )
    t = t[keep]

    if method == "predictor_corrector":
        residual = _series_values(sol, t)[0] - u_pc[keep]
    elif method == "l1":
        [w] = _series_values(sol, grid.nodes)
        # m D^beta w - (w - w^2): D^beta w alone scales as 1/m, so an
        # absolute tolerance on it would pass any series at large m
        residual = (seq.m * caputo_l1_all(w, grid) - (w[1:] - w[1:] ** 2))[keep]
    else:
        # The singular-kernel rewriting is checked in its integrated form
        # w(t) - w(0) = I^beta[(w - w^2)/m]: as printed, with w' on the left,
        # the two sides' Laplace symbols differ by a factor lambda and the
        # pointwise defect is O(1) for every grid.
        w, w_mid = _series_values(sol, grid.nodes, 0.5 * (grid.nodes[:-1] + grid.nodes[1:]))
        rhs = fractional_integral_midpoint((w_mid - w_mid**2) / seq.m, grid)
        residual = ((w[1:] - 0.5) - rhs)[keep]
    return ResidualReport(method, t, np.abs(residual))


def _series_values(sol, *points: np.ndarray) -> list:
    """``sol.evaluate(t).w`` at each array t of ``points``, or a ValueError at
    the least t where the series is not finite."""
    ws = [sol.evaluate(t).w for t in points]
    bad = [(float(t[k]), float(w[k])) for t, w in zip(points, ws)
           for k in np.flatnonzero(~np.isfinite(w))]
    if bad:
        raise ValueError("the series is not finite at t = %r (w = %r)" % min(bad))
    return ws


def _beta_integral(a: float, b: float) -> float:
    """int_0^1 z^(a-1) (1-z)^(b-1) dz for a, b > 0 by the tanh-sinh rule
    (Takahasi & Mori, Publ. RIMS 9, 1974): step 1/16 on |x| <= 6 with
    z = (1 + tanh s)/2, s = (pi/2) sinh x.

    z^(a-1) and (1-z)^(b-1) alone are integrated exactly (1/a + 1/b), and
    the nodes take the bounded rest (z^(a-1) - 1)((1-z)^(b-1) - 1) - 1: on
    the raw integrand they miss 1e-3 of the value at a or b = .01. log z and
    log(1-z) are formed separately, so no endpoint loses digits.
    """
    h = 1.0 / 16.0
    x = np.arange(-96, 97) * h
    s = 0.5 * math.pi * np.sinh(x)
    log_z, log_zc = -np.logaddexp(0.0, -2.0 * s), -np.logaddexp(0.0, 2.0 * s)
    rest = np.expm1((a - 1.0) * log_z) * np.expm1((b - 1.0) * log_zc) - 1.0
    # dz/dx = pi cosh(x) z (1-z)
    weight = math.pi * h * np.cosh(x) * np.exp(log_z + log_zc)
    return 1.0 / a + 1.0 / b + float(np.dot(rest, weight))


def sonine_check(beta: float, t_grid) -> float:
    """Deviation from 1 of the convolution of the kernel pair
    t^(-beta)/Gamma(1-beta) and t^(beta-1)/Gamma(beta).

    Substituting s = t*z turns the doubly singular convolution into the Beta
    integral of (1-beta, beta) scaled by t^0: the identity does not depend on
    t, so the t values are only validated. The z-integral is evaluated by a
    fixed tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974), independently
    of the Gamma identities it confirms.
    """
    beta = _check_strict(beta)
    t_arr = _as_real(t_grid, "t_grid", 0, math.inf, "()")
    if t_arr.size == 0:
        raise ValueError("the t grid is empty")
    norm = math.exp(-ln_gamma(1.0 - beta) - ln_gamma(beta))
    return abs(norm * _beta_integral(1.0 - beta, beta) - 1.0)


def stable_levy_tail(beta: float, z: float) -> float:
    """Tail z^(-beta)/Gamma(1-beta) of the stable jump measure; in logs where
    z^(-beta) alone passes the double range, and +inf where the tail does."""
    beta, z = _check_strict(beta), _check_real("z", z, 0, math.inf, "()")
    try:
        return z ** (-beta) / gamma_fn(1.0 - beta)
    except OverflowError:
        return _exp(-beta * math.log(z) - ln_gamma(1.0 - beta))


def levy_tail_laplace(beta: float, lam: float) -> float:
    """Laplace transform of the tail, which should approach lam^(beta-1): in
    u = lam z, lam^(beta-1) / Gamma(1-beta) times int_0^40 exp(-u) u^-beta du.

    Product quadrature on 100,000 equal cells: the u^-beta factor is
    integrated exactly per cell against the midpoint value of exp(-u),
    so the origin singularity costs nothing.
    """
    beta, lam = _check_strict(beta), _check_real("lam", lam, 0, math.inf, "()")
    a = 1.0 - beta
    edges = np.linspace(0.0, 40.0, 100_001)
    moments = (edges[1:] ** a - edges[:-1] ** a) / a
    integral = float(np.dot(np.exp(-0.5 * (edges[:-1] + edges[1:])), moments))
    return _exp((beta - 1.0) * math.log(lam)) * (integral / gamma_fn(a))


def solve_pc(beta: float, m: float, t_end: float, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Fractional Adams-Moulton stepper for the fractional logistic equation.

    D^beta u = (u - u^2)/m from u(0) = 1/2 on a uniform grid of step h, by
    the corrector of Diethelm, Ford & Freed (Nonlinear Dyn. 29, 2002). Each
    step's equation u = base + c (u - u^2)/m is a quadratic in u, solved
    exactly, so the scheme's predictor is not needed. Returns (t, u). A step
    with a = h^beta / (Gamma(beta+2) m) > 1 can carry u past the equilibrium
    1, so it raises ValueError, as does a run of more than MAX_STEPS steps,
    before any array is built.

    The one history sum is a lower-triangular Toeplitz product of the past
    right-hand sides with the corrector weights, in three tiers. The steps go
    in inner blocks of _INNER, and each step adds the earlier steps of its
    own block in plain floats. One matrix-vector product per inner block sums
    the history from the block's start back to the last multiple of B0 for
    all its steps. Older history arrives in dyadic blocks whose contributions
    to the next B0 steps are convolved by FFT (Hairer, Lubich & Schlichte,
    SIAM J. Sci. Stat. Comput. 6, 1985), which costs O(N log^2 N) time and
    O(N) memory for N steps. At least one step is taken, so t[-1] >= t_end.
    """
    beta, m = _check_beta(beta), _check_m(m)
    t_end = _check_real("t_end", t_end, 0, math.inf, "()")
    h = _check_real("h", h, 0, math.inf, "()")
    # a <= 1 makes a u^2 + (1 - a) u - base rise on u >= 0: u <= 1 if base <= 1
    c_corr = h**beta / gamma_fn(beta + 2.0)
    a = c_corr / m
    if a > 1.0:
        raise ValueError(f"step h = {h} is too large: h^beta / (Gamma(beta+2) m) = {a:.6g} > 1")

    # compared before ceil, which cannot take the inf of an overflowed ratio
    ratio = t_end / h - 1e-12
    if ratio > MAX_STEPS:
        # .7g prints each count up to MAX_STEPS + 1 in full and a huge one in short
        raise ValueError(f"t_end / h needs {np.ceil(ratio):.7g} steps, "
                         f"more than the {MAX_STEPS} allowed")
    # at least one step, so that a t_end far below h is still reached
    n_steps = max(1, math.ceil(ratio))
    t = np.arange(n_steps + 1) * h
    u = np.empty(n_steps + 1)
    u[0] = 0.5
    f = np.zeros(n_steps + 1)

    idx = np.arange(n_steps + 2, dtype=float)
    pow_b = idx**beta
    pow_b1 = idx ** (beta + 1.0)
    # corrector weights at lag d = 0..N-1, with j = d+1 counted from the new
    # node: (j+1)^(b+1) + (j-1)^(b+1) - 2 j^(b+1)
    kern = pow_b1[2:] + pow_b1[:-2] - 2.0 * pow_b1[1:-1]
    # step n + r of an inner block takes f[n - i], back to the last B0 boundary, at
    # slab[r, -1 - i] (lags past the last step are never read) and f[n + 1 + k] at inner[r][k]
    slab = kern.take(np.add.outer(np.arange(_INNER), np.arange(B0 - _INNER, -1, -1)), mode="clip")
    inner = [tuple(kern[:r][::-1].tolist()) for r in range(_INNER)]
    # far[n]: the sum over the history older than n's block of B0 steps. It starts
    # from f[0] = 1/(4m), kept out of f, at its weight n^(b+1) - (n-b) (n+1)^b.
    far = (pow_b1[:-2] - (idx[:-2] - beta) * pow_b[1:-1]) * (0.25 / m)
    spectra = {}  # kernel spectra per block size
    one_a = 1.0 - a

    for n in range(0, n_steps, _INNER):
        if n and n % B0 == 0:
            # block f[n-s:n], s the lowest set bit of n, has just closed: add
            # its share to steps [n, n+s). Lags run from 1 to 2s-1, so a
            # length-2s circular convolution is exact where read; rfft pads
            # them, and any lags past the end of kern, with zeros.
            s = n & -n
            if s not in spectra:
                spectra[s] = np.fft.rfft(kern[1 : 2 * s], 2 * s)
            conv = np.fft.irfft(spectra[s] * np.fft.rfft(f[n - s : n], 2 * s), 2 * s)
            count = min(s, n_steps - n)
            far[n : n + count] += conv[s - 1 : s - 1 + count]
        # far holds the blocks that closed by the last B0 boundary, n - n % B0
        past = slab[: n_steps - n, -1 - n % B0 :].dot(f[n - n % B0 : n + 1]) + far[n : n + _INNER]
        new_u, new_f = [], []
        for weights, old in zip(inner, past.tolist()):
            base = 0.5 + c_corr * (old + sum(map(operator.mul, weights, new_f)))
            # the positive root of a u^2 + (1 - a) u - base = 0, in the form that
            # does not cancel for small a; real for base >= 0 (base >= 1/2 while u <= 1)
            x = 2.0 * base / (one_a + math.sqrt(one_a * one_a + 4.0 * a * base))
            new_u.append(x)
            new_f.append((x - x * x) / m)
        u[n + 1 : n + 1 + _INNER], f[n + 1 : n + 1 + _INNER] = new_u, new_f

    return _read_only(t), _read_only(u)
