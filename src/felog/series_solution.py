"""Series evaluation, convergence radii, and the classical degeneration.

The series is summed in the variable tau = t^(2*beta): even coefficients are
exactly zero, so Horner runs over the odd ones only, from the highest nonzero
one: from 0.0 it would stay +0.0 through the underflowed zeros above it.
Where a nonzero coefficient is subnormal, each coefficient of tau^i is taken
times 2^(s i) and tau times 2^(-s), the least s that leaves none subnormal,
so that no step rounds on the subnormal grid or runs at its speed.
Each point starts Horner at the highest coefficient it can feel. At
construction one threshold is set per block of eight scaled coefficients,
lowest order first: a point whose scaled tau does not pass theta_b skips block
b and all above it, because there the skipped terms, in absolute value and
times t^beta, provably add at most 2^-56 to w, a quarter of half an ulp of w
in [1/2, 1]. The lowest block runs at every point, and the thresholds stay
below tau at ``domain_edge``, so every t at or past the edge runs every
term. This is a shortcut through the same stored polynomial, not a shorter
series, and ``tail_bound`` is unchanged.
Fractional powers are exp(beta*k*log t) for every t: log 0 = -inf makes each
power exactly 0 at t = 0, and a power past the double range is inf. A scalar
t runs the same operations one at a time in Python floats, with numpy's exp
and log, so that it agrees with the array path bit for bit at a small part of
the cost of one-element arrays.

Four radius notions are reported side by side. The two printed formula radii
are *diagnostics only*: evaluated verbatim they do not reproduce their own
claimed limiting constants (c1, c2), so the report carries formula value,
claimed constant and empirical estimate together and asserts nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

import numpy as np

from .euler_beta import (DEFAULT_TERMS, MAX_TERMS, BetaEulerSequence, _as_real, _check_count,
                         _check_m, _finite_or_null, _horner_scale, _normal_odd, _read_only,
                         build_sequence, majorant_constants)
from .specfun import EULER_MASCHERONI, _check_real

__all__ = [
    "C1_CLAIMED",
    "C2_CLAIMED",
    "EvalResult",
    "RadiusReport",
    "SeriesSolution",
    "radius_report",
    "remark_bound",
    "remark_radius",
    "remark_bound_pole",
    "compare_classical",
]

#: Limiting constants claimed for the two printed radius formulas.
C1_CLAIMED = 3.074366
C2_CLAIMED = 3.116623

#: Fewest coefficients the radius report, and so a series solution, accepts.
_MIN_TERMS = 20

#: Horner's start: at each point the terms it skips add at most 2^-56 to w.
#: Each threshold is solved for half of that, which leaves far more than the
#: rounding of its own few operations needs.
_SKIP_BUDGET = 2.0**-57
#: The factor tau_edge is taken times before it caps the thresholds, so that a
#: t at or past the edge passes them even if log or exp rounds it down.
_EDGE_MARGIN = 1.0 - 2.0**-32
#: Horner steps go in blocks of this many coefficients, lowest order first: a
#: point runs a whole block or none of it.
_BLOCK = 8


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Partial sum, geometric tail estimate, and domain flag (arrays when the
    query was an array)."""

    w: Union[float, np.ndarray]
    tail_bound: Union[float, np.ndarray]
    in_domain: Union[bool, np.ndarray]


@dataclass(frozen=True)
class RadiusReport:
    """The four radius estimates for one sequence.

    ``r_formula_ii`` is None when beta <= gamma_EM - 1/2, where formula (ii)
    is not stated. ``r_empirical`` is None when too few normal odd
    coefficients are available for the ratio test, or when its estimate is
    not finite. ``r_guaranteed`` is inf past the double range (null in JSON).
    """

    r_formula_i: float
    r_formula_ii: Optional[float]
    r_guaranteed: float
    r_empirical: Optional[float]
    m: float

    def to_json_dict(self) -> dict:
        return _finite_or_null(self._quantities())

    def _quantities(self) -> dict:
        # discrepancy fields compare each formula, taken at beta -> 1, with its
        # claimed limiting constant (times m); inf and nan stay, for CLI CSV
        return {
            "r_formula_i": self.r_formula_i,
            "r_formula_ii": self.r_formula_ii,
            "r_guaranteed": self.r_guaranteed,
            "r_empirical": self.r_empirical,
            "c1_claimed": C1_CLAIMED,
            "c2_claimed": C2_CLAIMED,
            "discrepancy_i": abs(_formula_i(1.0, self.m) - C1_CLAIMED * self.m),
            "discrepancy_ii": abs(_formula_ii(1.0, self.m) - C2_CLAIMED * self.m),
        }


def _formula_i(beta: float, m: float) -> float:
    return (
        m
        * (2.0**beta / math.exp(beta))
        * ((3 * beta + 1) / (2 * beta + 1)) ** (2 * beta + 0.5)
        * (3 * beta + 1) ** (beta + (0.5 - EULER_MASCHERONI))
    )


def _formula_ii(beta: float, m: float) -> float:
    return (
        m
        * (2.0 / (math.exp(2 * beta) * math.sqrt(beta + 1)))
        * ((3 * beta + 1) / (2 * beta + 1)) ** (2 * beta + 0.5)
        * (3 * beta + 1) ** (-beta + EULER_MASCHERONI - 0.5)
    )


def radius_report(seq: BetaEulerSequence) -> RadiusReport:
    """Evaluate the two printed radius formulas, the majorant radius, and the
    ratio-test estimate.

    The empirical estimate extrapolates the last five consecutive-odd-term
    ratios (|g_{2k-1}|/|g_{2k+1}|)^(1/(2*beta)) with one Richardson level in
    1/k and takes the median; raw last-ratio estimates oscillate for small
    beta. It reads only the normal prefix of the odd coefficients (see
    :func:`_normal_odd`); it is None when that prefix holds fewer than six,
    or when the estimate is not finite.
    """
    _check_count("n_terms", seq.n_terms, _MIN_TERMS, MAX_TERMS)
    beta, m = seq.beta, seq.m

    r_i = _formula_i(beta, m)
    r_ii = _formula_ii(beta, m) if beta > EULER_MASCHERONI - 0.5 else None

    _, q = majorant_constants(beta)
    odd = _normal_odd(seq.g)
    size = odd.size
    r_empirical: Optional[float] = None
    # past the double range r_guaranteed is inf, as at small beta or large m,
    # and a ratio there leaves no finite estimate
    with np.errstate(over="ignore", invalid="ignore"):
        r_guaranteed = float(np.float64(m * m / q) ** (1.0 / (2.0 * beta)))
        if size >= 6:
            # ratio k = odd[k-1] / odd[k], for the last five k of the prefix
            xs = np.array([(odd[j] / odd[j + 1]) ** (1.0 / (2.0 * beta))
                           for j in range(size - 6, size - 1)])
            k = np.arange(size - 5, size, dtype=float)
            level1 = k[1:] * xs[1:] - (k[1:] - 1.0) * xs[:-1]
            estimate = _median(level1.tolist())
            r_empirical = estimate if math.isfinite(estimate) else None

    return RadiusReport(
        r_formula_i=r_i,
        r_formula_ii=r_ii,
        r_guaranteed=r_guaranteed,
        r_empirical=r_empirical,
        m=m,
    )


def _median(values: list) -> float:
    """np.median of four floats, bit for bit: the mean of the middle two,
    summed from +0.0 as numpy's is, or NaN if any value is NaN."""
    s = sorted(values)
    return math.nan if any(map(math.isnan, s)) else (0.0 + s[1] + s[2]) / 2.0


def _skip_thresholds(c: np.ndarray, scale: int, beta: float, edge: float) -> np.ndarray:
    """One threshold per block of ``_BLOCK`` scaled odd coefficients c_i (of
    tau 2^(-scale)), non-decreasing and below the scaled tau at ``edge``.

    A point whose scaled tau is at most theta_b skips block b and every block
    above it. Let rho be the scaled tau at the edge times ``_EDGE_MARGIN``.
    For tau = u rho with u <= 1, sum_(j>=i) |c_j| tau^j is at most u^i S_i,
    where S_i = sum_(j>=i) |c_j| rho^j, and t^beta is (u rho 2^scale)^(1/2).
    theta_b is u rho at the largest u <= 1 at which that bound, at
    i = b _BLOCK, is within ``_SKIP_BUDGET``: log u = min(0, N_i / (i + 1/2)),
    where N_i rises with i as S_i falls. Where N_i < 0 a larger i + 1/2
    raises the quotient too, so theta never falls with b, as bisection needs,
    and each rounded step keeps that order. theta_0 is -1: the lowest
    block runs at every point, since skipping it spares only points next to
    t = 0 and would start the longest run one point into the array, off its
    memory alignment. Each is -1, so no point skips anything, where the edge
    gives no finite positive tau.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # tau at the edge as evaluate forms it
        tb = float(np.exp(beta * float(np.log(edge))))
        rho = tb * tb * math.ldexp(1.0, -scale) * _EDGE_MARGIN
        if not 0.0 < rho < math.inf:
            return np.full(-(-c.size // _BLOCK), -1.0)
        log_rho = math.log(rho)
        # |c_j| rho^j; where one overflows, the bounds below it allow no skip
        terms = np.exp(np.log(np.abs(c)) + np.arange(c.size) * log_rho)
        log_s = np.log(np.add.accumulate(terms[::-1])[::-1][::_BLOCK])
        # u^(i + 1/2) (rho 2^scale)^(1/2) S_i <= budget
        log_u = ((math.log(_SKIP_BUDGET) - 0.5 * (scale * math.log(2.0) + log_rho) - log_s)
                 / np.arange(0.5, c.size, _BLOCK))
        theta = rho * np.exp(np.minimum(log_u, 0.0))
    theta[0] = -1.0
    return theta


class SeriesSolution:
    """Evaluate the series and report its domain of validity.

    Construct from a built sequence of at least 20 coefficients, or with
    ``SeriesSolution.build(beta, m)``. ``radius`` and the operative edge
    ``domain_edge`` (the empirical radius, or else the majorant radius) are
    fixed when it is built. Nothing is written after that, so instances are
    safe to share; grid evaluation is a read-only pass over the coefficients.
    """

    def __init__(self, seq: BetaEulerSequence):
        self.seq = seq
        self.radius = r = radius_report(seq)
        self.domain_edge = r.r_empirical if r.r_empirical is not None else r.r_guaranteed
        # odd coefficients, highest order first, less the zeros above the last
        # nonzero one; g_1 > 0 stays, so 0 * tau = NaN still marks an overflow.
        # Each is scaled by 2^(s i) and tau by 2^(-s), so that no step runs on
        # subnormal values (see euler_beta._horner_scale)
        odd = seq.g[1 : 2 * np.flatnonzero(seq.g[1::2])[-1] + 2 : 2]
        scale = _horner_scale(odd)
        coeffs = np.ldexp(odd, scale * np.arange(odd.size))
        self._horner = coeffs[::-1].tolist()
        self._tau_scale = math.ldexp(1.0, -scale)
        # a point runs block b of Horner where its scaled tau passes theta_b
        self._theta = _skip_thresholds(coeffs, scale, seq.beta, self.domain_edge).tolist()
        # the tail rests on the last normal odd coefficient; with none, a NaN
        # ratio makes it +inf at every t
        normal = _normal_odd(seq.g)
        self._q = majorant_constants(seq.beta)[1] if normal.size else math.nan
        self._last = float(normal[-1]) if normal.size else 0.0
        self._k_last = 2 * normal.size - 1

    @classmethod
    def build(cls, beta: float, m: float = 1.0, n_terms: int = DEFAULT_TERMS) -> "SeriesSolution":
        return cls(build_sequence(beta, m, n_terms))

    def evaluate(self, t) -> EvalResult:
        """Partial sum with a geometric tail estimate.

        Each point starts Horner at the highest coefficient whose block its
        scaled tau passes (see :func:`_skip_thresholds`): the stored terms it
        skips add at most 2^-56 to w. A t at or past ``domain_edge`` runs
        every term. The tail applies the ratio q * t^(2*beta) / m^2 to the
        last normal odd term (see :func:`_normal_odd`); it is +inf where that
        ratio reaches 1 or no odd term is normal. ``in_domain`` flags the t at
        or below the operative radius where w is finite. A t outside [0, inf)
        is refused, by the name of its least or greatest entry (see
        euler_beta._as_real).
        """
        t_arr = _as_real(t, "t", 0, math.inf, "[)")
        if t_arr.ndim == 0:
            return self._evaluate_scalar(float(t_arr))

        beta, m = self.seq.beta, self.seq.m
        # log 0 = -inf makes every power 0 at t = 0; past the radius the sum
        # and the tail overflow, and in_domain flags those t
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_t = np.log(t_arr)
            tb = np.exp(beta * log_t)  # t^beta
            tau = tb * tb              # t^(2*beta)
            # tau 2^(-s); at s = 0 the product would change no bit
            tau_scaled = tau * self._tau_scale if self._tau_scale != 1.0 else tau
            w = 0.5 + tb * self._horner_sum(tau_scaled.ravel()).reshape(t_arr.shape)
            last_term = self._last * np.exp(beta * self._k_last * log_t)
            ratio = self._q * tau / (m * m)
            tail = np.where(ratio < 1.0, last_term * ratio / (1.0 - ratio), np.inf)
        in_domain = (t_arr <= self.domain_edge) & np.isfinite(w)
        return EvalResult(_read_only(w), _read_only(tail), _read_only(in_domain))

    def _horner_sum(self, x: np.ndarray) -> np.ndarray:
        """Horner in the scaled tau x, each point from its own start: in x
        order, the points that run block b are those past theta_b, a suffix."""
        order = None
        if np.count_nonzero(x[1:] < x[:-1]):
            order = np.argsort(x, kind="stable")
            x = x[order]
        acc = np.zeros(x.size)
        if x.size:
            n = len(self._horner)
            blocks = bisect_left(self._theta, x[-1])  # the blocks the last point runs
            starts = x.searchsorted(self._theta[:blocks], side="right").tolist()
            for b in range(blocks - 1, -1, -1):
                part, tau_part = acc[starts[b]:], x[starts[b]:]
                for coeff in self._horner[max(0, n - _BLOCK * (b + 1)) : n - _BLOCK * b]:
                    part *= tau_part
                    part += coeff
        if order is None:
            return acc
        out = np.empty_like(acc)
        out[order] = acc
        return out

    def _start(self, tau_scaled: float) -> int:
        """Where in ``_horner`` a point at this scaled tau starts: the
        coefficients before it are the ones it skips."""
        return max(0, len(self._horner) - _BLOCK * bisect_left(self._theta, tau_scaled))

    def _evaluate_scalar(self, t: float) -> EvalResult:
        """The array path's arithmetic, one operation at a time in floats,
        so that each value is bit-identical to the array path's."""
        beta, m = self.seq.beta, self.seq.m
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_t = float(np.log(t))
            tb = float(np.exp(beta * log_t))
            tau = tb * tb
            tau_scaled = tau * self._tau_scale
            acc = 0.0
            for coeff in self._horner[self._start(tau_scaled):]:
                acc = acc * tau_scaled + coeff
            w = 0.5 + tb * acc
            ratio = self._q * tau / (m * m)
            tail = math.inf
            if ratio < 1.0:
                last_term = self._last * float(np.exp(beta * self._k_last * log_t))
                tail = last_term * ratio / (1.0 - ratio)
        return EvalResult(w, tail, t <= self.domain_edge and math.isfinite(w))

    def __call__(self, t):
        return self.evaluate(t).w


#: The orders the closed-form majorant is stated for, read as floats.
_check_remark_beta = partial(_check_real, "beta", lo=0.5, hi=1, ends="(]")


def remark_radius(beta: float) -> float:
    """Printed radius of the closed-form majorant: 2^(2b-1) (1 + 2b^2/(2b+1)).

    At beta = 1 this evaluates to 10/3, although it is printed as <= 3; the
    value is returned exactly as the formula gives it.
    """
    beta = _check_remark_beta(beta)
    return 2.0 ** (2 * beta - 1) * (1.0 + 2 * beta * beta / (2 * beta + 1))


def remark_bound_pole(beta: float) -> float:
    """Where the closed-form majorant's own geometric factor blows up.

    This lies strictly below :func:`remark_radius`; between the two the
    printed expression is negative and useless as a bound.
    """
    beta = _check_remark_beta(beta)
    return 2.0 ** (2 * beta - 1) * (3 * beta + 1 + 2 * beta * beta) / (3 * beta + 1)


def remark_bound(beta: float, t: float) -> float:
    """Closed-form majorant 1/2 + (1/(4 Gamma(b+1))) (1 - 2^(1-2b) (3b+1)/(3b+1+2b^2) t)^-1.

    Stated for m = 1 and beta > 1/2; raises for t at or beyond the printed
    radius. The expression is transcribed verbatim, including the fact that
    its own pole precedes that radius.
    """
    beta = _check_remark_beta(beta)
    t = _check_real("t", t, 0, remark_radius(beta), "[)")
    rate = 2.0 ** (1 - 2 * beta) * (3 * beta + 1) / (3 * beta + 1 + 2 * beta * beta)
    p, _ = majorant_constants(beta)
    return 0.5 + p / (1.0 - rate * t)


def compare_classical(m: float, t_grid, n_terms: int = DEFAULT_TERMS) -> float:
    """Max absolute deviation of the beta = 1 series from 1/(1 + exp(-t/m)).

    The closed form solves u' = (u - u^2)/m from u(0) = 1/2, the classical
    (beta = 1) case of the equation the series is built for; no other order
    has one, so the series is always built at beta = 1.
    """
    w, closed = _classical_curves(m, t_grid, n_terms)
    return float(np.max(np.abs(w - closed)))


def _classical_curves(m: float, t_grid, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """The beta = 1 series and 1/(1 + exp(-t/m)) on a grid within [0, pi * m)."""
    m = _check_m(m)
    t_arr = _as_real(t_grid, "t_grid", 0, math.pi * m, "[)")
    if t_arr.size == 0:
        raise ValueError("the t grid is empty")
    w = SeriesSolution.build(1.0, m, n_terms).evaluate(t_arr).w
    return w, 1.0 / (1.0 + np.exp(-t_arr / m))
