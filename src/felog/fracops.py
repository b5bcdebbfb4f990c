"""Independent fractional-calculus oracles.

Nothing here reuses the series recurrence: the memory-kernel derivative is
discretized by the L1 product rule (piecewise-linear data, kernel moments
integrated exactly, since naive quadrature of the weakly singular kernel
diverges), the integrated form uses product-rectangle quadrature with exact
cell moments, and the time-stepper takes the corrector of the fractional
Adams-Bashforth-Moulton scheme, whose implicit step is a quadratic solved
exactly. The two graded-grid routes sum their history directly, O(N^2) for N
cells; the stepper's one uniform-grid history sum uses the blocked FFT
convolution of Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6,
1985), O(N log^2 N) time and O(N) memory for N steps. The kernel-pair check takes its Beta integral from a
fixed tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974), not from the
Gamma function. Agreement between these routes and the series is the point;
neither side is ground truth alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .euler_beta import BetaEulerSequence
from .series_solution import SeriesSolution
from .specfun import ln_gamma

__all__ = [
    "QuadratureGrid",
    "ResidualReport",
    "RLDerivative",
    "VERIFY_METHODS",
    "uniform_grid",
    "graded_grid",
    "make_grid",
    "caputo_termwise",
    "caputo_termwise_array",
    "rl_derivative_termwise",
    "caputo_l1_all",
    "fractional_integral_midpoint",
    "verify",
    "sonine_check",
    "sonine_product_quadrature",
    "stable_levy_tail",
    "levy_tail_laplace",
    "solve_pc",
]

#: Canonical verification method names ("pc" is accepted as an alias).
VERIFY_METHODS = ("termwise", "l1", "integro", "predictor_corrector")

#: Grid-based residual reports start here: at the origin the solution has a
#: t^beta cusp, where the piecewise-linear L1 defect is O(1) no matter how
#: fine the mesh, and the term-wise derivative blows up.
REPORT_START = 0.05

#: Steps of recent history that solve_pc sums directly; older history goes
#: through FFT blocks of B0 * 2^k steps.
B0 = 128


@dataclass(frozen=True)
class QuadratureGrid:
    """Strictly increasing nodes starting at 0 for the memory integrals."""

    nodes: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        _check_beta(self.beta)
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.size < 3:
            raise ValueError("a quadrature grid needs at least 3 nodes")
        if nodes[0] != 0.0:
            raise ValueError("nodes must start at 0")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")


def _check_grid(t1: float, beta: float) -> None:
    if not 0.0 < t1 < math.inf:
        raise ValueError("t1 must be finite and positive")
    _check_beta(beta)


def uniform_grid(t1: float, n: int, beta: float) -> QuadratureGrid:
    """n equal cells on [0, t1]."""
    _check_grid(t1, beta)
    return QuadratureGrid(np.linspace(0.0, t1, n + 1), beta)


def graded_grid(t1: float, n: int, beta: float) -> QuadratureGrid:
    """Nodes t_j = t1 * (j/n)^(2/beta), clustered at the origin cusp."""
    _check_grid(t1, beta)
    j = np.arange(n + 1, dtype=float)
    return QuadratureGrid(t1 * (j / n) ** (2.0 / beta), beta)


def make_grid(t1: float, n: int, spacing: str, beta: float) -> QuadratureGrid:
    if spacing == "uniform":
        return uniform_grid(t1, n, beta)
    if spacing == "graded":
        return graded_grid(t1, n, beta)
    raise ValueError(f"unknown spacing {spacing!r}; use 'uniform' or 'graded'")


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise defect of one verification route at the points ``grid``.

    Stores only the defect; ``sup_norm`` is its largest entry.
    """

    method: str
    grid: np.ndarray
    residual: np.ndarray

    def __post_init__(self) -> None:
        for name in ("grid", "residual"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.residual < 0.0):
            raise ValueError("residual entries must be >= 0")

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


@dataclass(frozen=True)
class RLDerivative:
    """Term-wise Riemann-Liouville derivative: coefficient of the t^(-beta)
    singular term plus the regular power-series coefficients."""

    singular_coefficient: float
    regular: np.ndarray


def caputo_termwise_array(g, beta: float) -> np.ndarray:
    """Term-wise memory derivative of sum_k g_k t^(beta*k)/1 at t^(beta*k).

    Entry k is g_{k+1} * Gamma(beta*(k+1)+1) / Gamma(beta*k+1); the constant
    term contributes nothing, so a constant series maps to all zeros.
    """
    g = np.asarray(g, dtype=float)
    lg = [ln_gamma(beta * k + 1.0) for k in range(g.size)]
    out = np.array([g[k + 1] * math.exp(lg[k + 1] - lg[k]) for k in range(g.size - 1)])
    out.setflags(write=False)
    return out


def caputo_termwise(seq: BetaEulerSequence) -> np.ndarray:
    """Memory-derivative coefficients of a built sequence (see the array
    form for the map itself)."""
    return caputo_termwise_array(seq.g, seq.beta)


def rl_derivative_termwise(seq: BetaEulerSequence) -> RLDerivative:
    """Riemann-Liouville derivative of the series, split into the singular
    part g_0 t^(-beta)/Gamma(1-beta) and the regular series (which equals the
    Caputo coefficients). At beta = 1 the singular term is absent."""
    if seq.beta == 1.0:
        singular = 0.0
    else:
        singular = seq.g[0] / math.exp(ln_gamma(1.0 - seq.beta))
    return RLDerivative(singular_coefficient=singular, regular=caputo_termwise(seq))


def _graded_history(data: np.ndarray, t: np.ndarray, exponent: float, scale: float) -> np.ndarray:
    """scale * sum_j data_j * [(t_n - t_j)^e - (t_n - t_(j+1))^e] over the
    cells j < n, at every node index n = 1..len(t)-1.

    The newest cell's upper term (t_n - t_n)^e is exactly 0 and is left
    out, also at e = 0, where numpy's 0.0**0 would give 1.
    """
    out = np.empty(t.size - 1)
    for n in range(1, t.size):
        moments = (t[n] - t[:n]) ** exponent
        moments[:-1] -= (t[n] - t[1:n]) ** exponent
        out[n - 1] = scale * float(np.dot(data[:n], moments))
    out.setflags(write=False)
    return out


def caputo_l1_all(w_values: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """L1 product-quadrature values of the memory derivative at every node
    index 1..n, from the data's values at the grid nodes.

    Piecewise-linear data between nodes; the kernel is integrated exactly on
    each cell. O(h^(2-beta)) for twice-differentiable data.
    """
    t = grid.nodes
    vals = np.asarray(w_values, dtype=float)
    if vals.shape != t.shape:
        raise ValueError("value array must match the grid nodes")
    beta = grid.beta
    slopes = np.diff(vals) / np.diff(t)
    return _graded_history(slopes, t, 1.0 - beta, 1.0 / math.exp(ln_gamma(2.0 - beta)))


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
    f_mid = np.asarray(f_mid, dtype=float)
    if f_mid.shape != (t.size - 1,):
        raise ValueError("need one midpoint value per cell")
    return _graded_history(f_mid, t, beta, 1.0 / math.exp(ln_gamma(beta)) / beta)


def verify(
    sol: SeriesSolution,
    method: str,
    grid: Optional[QuadratureGrid] = None,
    pc_step: float = 1e-3,
) -> ResidualReport:
    """Residual of the fractional logistic equation under one oracle.

    termwise: coefficient-wise defect of the recurrence (index grid);
    l1/integro: pointwise defect on the grid nodes with t >= REPORT_START;
    predictor_corrector: deviation from the solution stepped by solve_pc
    on its own uniform grid up to the last grid node. Grids must be built
    for the series' beta, stay within (0, 0.8 * empirical radius) and reach
    REPORT_START.
    """
    method = "predictor_corrector" if method == "pc" else method
    if method not in VERIFY_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {VERIFY_METHODS}")
    seq = sol.seq

    if method == "termwise":
        coeffs = caputo_termwise(seq)
        residual = np.empty(coeffs.size)
        for k in range(coeffs.size):
            conv = float(np.dot(seq.g[: k + 1], seq.g[k::-1]))
            residual[k] = abs(coeffs[k] - (seq.g[k] - conv) / seq.m)
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
            f"grid extends to {grid.nodes[-1]:.6g}, past 0.8 * empirical radius = {edge:.6g}"
        )

    if method == "predictor_corrector":
        t_pc, u_pc = solve_pc(seq.beta, seq.m, float(grid.nodes[-1]), pc_step)
        keep = _reported(t_pc)
        w = sol.evaluate(t_pc[keep]).w
        return ResidualReport(method, t_pc[keep], np.abs(w - u_pc[keep]))

    t = grid.nodes[1:]
    keep = _reported(t)
    if method == "l1":
        w = sol.evaluate(grid.nodes).w
        lhs = caputo_l1_all(w, grid)
        rhs = (w[1:] - w[1:] ** 2) / seq.m
        residual = np.abs(lhs - rhs)[keep]
    else:
        # The singular-kernel rewriting is checked in its integrated form
        # w(t) - w(0) = I^beta[(w - w^2)/m]: as printed, with w' on the left,
        # the two sides' Laplace symbols differ by a factor lambda and the
        # pointwise defect is O(1) for every grid.
        mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
        w_mid = sol.evaluate(mids).w
        f_mid = (w_mid - w_mid**2) / seq.m
        rhs = fractional_integral_midpoint(f_mid, grid)
        w_nodes = sol.evaluate(t[keep]).w
        residual = np.abs((w_nodes - 0.5) - rhs[keep])
    return ResidualReport(method, t[keep], residual)


def _reported(t: np.ndarray) -> np.ndarray:
    """Mask of the points t >= REPORT_START a report keeps; there must be one."""
    keep = t >= REPORT_START
    if not keep.any():
        raise ValueError(
            f"no node lies at or after t_min = {REPORT_START:g}; the last is {t[-1]:.6g}"
        )
    return keep


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
    """Max deviation from 1 of the convolution of the kernel pair
    t^(-beta)/Gamma(1-beta) and t^(beta-1)/Gamma(beta).

    Substituting s = t*z turns the doubly singular convolution into the Beta
    integral of (1-beta, beta) scaled by t^0; the z-integral is evaluated by
    a fixed tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974),
    independently of the Gamma identities it confirms.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("the kernel pair needs beta strictly inside (0, 1)")
    t_arr = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not np.all((t_arr > 0.0) & (t_arr < math.inf)):
        raise ValueError("t values must be finite and positive")
    z_integral = _beta_integral(1.0 - beta, beta)
    norm = math.exp(-ln_gamma(1.0 - beta) - ln_gamma(beta))
    # t enters only through t^((1-beta) + (beta-1)); keep it to expose any
    # t-dependence a transcription error would introduce
    exponent = (1.0 - beta) + (beta - 1.0)
    values = norm * z_integral * t_arr**exponent
    return float(np.max(np.abs(values - 1.0)))


def sonine_product_quadrature(beta: float, t: float) -> float:
    """The same convolution by raw product quadrature (no substitution).

    Split at t/2; on each half of 1000 cells the singular factor is
    integrated exactly per cell and the smooth one takes its midpoint value.
    Validates the product quadrature itself, to ~1e-3.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("the kernel pair needs beta strictly inside (0, 1)")
    if not 0.0 < t < math.inf:
        raise ValueError("t must be finite and positive")
    half = 1000
    norm = math.exp(-ln_gamma(1.0 - beta) - ln_gamma(beta))

    # [0, t/2]: s^-beta integrated exactly, (t-s)^(beta-1) at midpoints
    edges = np.linspace(0.0, t / 2.0, half + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    moments = (edges[1:] ** (1.0 - beta) - edges[:-1] ** (1.0 - beta)) / (1.0 - beta)
    left = float(np.dot((t - mids) ** (beta - 1.0), moments))

    # [t/2, t]: (t-s)^(beta-1) integrated exactly, s^-beta at midpoints
    edges = np.linspace(t / 2.0, t, half + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    moments = ((t - edges[:-1]) ** beta - (t - edges[1:]) ** beta) / beta
    right = float(np.dot(mids ** (-beta), moments))

    return norm * (left + right)


def stable_levy_tail(beta: float, z: float) -> float:
    """Tail z^(-beta)/Gamma(1-beta) of the stable jump measure."""
    if not (0.0 < beta < 1.0):
        raise ValueError("the stable symbol needs beta strictly inside (0, 1)")
    if not 0.0 < z < math.inf:
        raise ValueError("z must be finite and positive")
    return z ** (-beta) / math.exp(ln_gamma(1.0 - beta))


def levy_tail_laplace(beta: float, lam: float) -> float:
    """Laplace transform of the tail, truncated at z = 40; should approach
    lam^(beta-1).

    Product quadrature again, on 100,000 equal cells: the z^-beta factor is
    integrated exactly per cell against the midpoint value of exp(-lam z),
    so the origin singularity costs nothing.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("the stable symbol needs beta strictly inside (0, 1)")
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be finite and positive")
    edges = np.linspace(0.0, 40.0, 100_001)
    mids = 0.5 * (edges[:-1] + edges[1:])
    moments = (edges[1:] ** (1.0 - beta) - edges[:-1] ** (1.0 - beta)) / (1.0 - beta)
    integral = float(np.dot(np.exp(-lam * mids), moments))
    return integral / math.exp(ln_gamma(1.0 - beta))


def solve_pc(beta: float, m: float, t_end: float, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Fractional Adams-Moulton stepper for the fractional logistic equation.

    D^beta u = (u - u^2)/m from u(0) = 1/2 on a uniform grid of step h, by
    the corrector of Diethelm, Ford & Freed (Nonlinear Dyn. 29, 2002). Each
    step's equation u = base + c (u - u^2)/m is a quadratic in u, solved
    exactly, so the scheme's predictor is not needed. Returns (t, u). A step
    with a = h^beta / (Gamma(beta+2) m) > 1 can carry u past the equilibrium
    1, so it raises ValueError.

    The one history sum is a lower-triangular Toeplitz product of the past
    right-hand sides with the corrector weights. The last B0 steps are summed
    directly; older history arrives in dyadic blocks whose contributions to
    the next block of steps are convolved by FFT (Hairer, Lubich & Schlichte,
    SIAM J. Sci. Stat. Comput. 6, 1985), which costs O(N log^2 N) time and
    O(N) memory for N steps.
    """
    if not all(math.isfinite(x) for x in (beta, m, t_end, h)):
        raise ValueError("beta, m, t_end and h must be finite")
    _check_beta(beta)
    if m < 1.0:
        raise ValueError(f"m must be >= 1, got {m}")
    if h <= 0.0 or t_end <= 0.0:
        raise ValueError("h and t_end must be positive")
    # a <= 1 makes a u^2 + (1 - a) u - base rise on u >= 0: u <= 1 if base <= 1
    c_corr = h**beta / math.exp(ln_gamma(beta + 2.0))
    a = c_corr / m
    if a > 1.0:
        raise ValueError(f"step h = {h} is too large: h^beta / (Gamma(beta+2) m) = {a:.6g} > 1")

    n_steps = int(math.ceil(t_end / h - 1e-12))
    t = np.arange(n_steps + 1) * h
    u = np.empty(n_steps + 1)
    u[0] = 0.5

    def rhs(x: float) -> float:
        return (x - x * x) / m

    # f[0] stays out of the convolution; its weight is added directly
    f0 = rhs(u[0])
    f = np.zeros(n_steps + 1)

    idx = np.arange(n_steps + 2, dtype=float)
    pow_b = idx**beta
    pow_b1 = idx ** (beta + 1.0)
    # corrector weights at lag d = 0..N-1, with j = d+1 counted from the new
    # node: (j+1)^(b+1) + (j-1)^(b+1) - 2 j^(b+1)
    kern = pow_b1[2:] + pow_b1[:-2] - 2.0 * pow_b1[1:-1]
    # reversed, so that the near history is a forward slice
    rev = np.ascontiguousarray(kern[::-1])
    # far[n]: the sum over the history older than n's block of B0 steps. It
    # starts from the f[0] term, whose own weight is n^(b+1) - (n-b) (n+1)^b.
    far = (pow_b1[:-2] - (idx[:-2] - beta) * pow_b[1:-1]) * f0
    spectra = {}  # kernel spectra per block size

    for n in range(n_steps):
        if n % B0 == 0:
            if n:
                # block f[n-s:n], s the lowest set bit of n, has just closed:
                # add its share to steps [n, n+s). Lags run from 1 to 2s-1,
                # so a length-2s circular convolution is exact where read.
                s = n & -n
                spec = spectra.get(s)
                if spec is None:
                    lags = np.zeros(2 * s)
                    top = min(2 * s - 1, n_steps - 1)
                    lags[:top] = kern[1 : top + 1]
                    spec = spectra[s] = np.fft.rfft(lags)
                conv = np.fft.irfft(spec * np.fft.rfft(f[n - s : n], 2 * s), 2 * s)
                count = min(s, n_steps - n)
                far[n : n + count] += conv[s - 1 : s - 1 + count]
            # every block that reaches steps [n, n+B0) has now closed
            lo = n
            far_rows = far[n : n + B0].tolist()

        near = float(np.dot(rev[n_steps - 1 - (n - lo) :], f[lo : n + 1]))
        base = 0.5 + c_corr * (near + far_rows[n - lo])
        # the positive root of a u^2 + (1 - a) u - base = 0, in the form that
        # does not cancel for small a; real for base >= 0 (base >= 1/2 while u <= 1)
        u_new = 2.0 * base / ((1.0 - a) + math.sqrt((1.0 - a) ** 2 + 4.0 * a * base))
        u[n + 1] = u_new
        f[n + 1] = rhs(u_new)

    t.setflags(write=False)
    u.setflags(write=False)
    return t, u
