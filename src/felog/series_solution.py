"""Series evaluation, convergence radii, and the classical degeneration.

The series is summed in the variable tau = t^(2*beta): even coefficients are
exactly zero, so a Horner pass over the odd coefficients halves the work and
never multiplies by stored zeros. Fractional powers are taken as
exp(beta*k*log t) with the t = 0 limit special-cased.

Four radius notions are reported side by side. The two printed formula radii
are *diagnostics only*: evaluated verbatim they do not reproduce their own
claimed limiting constants (c1, c2), so the report carries formula value,
claimed constant and empirical estimate together and asserts nothing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .euler_beta import BetaEulerSequence, build_sequence, majorant_constants
from .specfun import EULER_MASCHERONI

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


@dataclass(frozen=True)
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
    coefficients are available for the ratio test.
    """

    r_formula_i: float
    r_formula_ii: Optional[float]
    r_guaranteed: float
    r_empirical: Optional[float]
    m: float

    def to_json_dict(self) -> dict:
        # discrepancy fields compare each formula, taken at beta -> 1, with
        # its claimed limiting constant (times m)
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
    beta. It reads only the normal prefix of the odd coefficients, the ones
    before the first that is zero or below the smallest normal double, since
    underflowed ones no longer follow the series' geometric rate; it is None
    when that prefix holds fewer than six.
    """
    if seq.n_terms < 20:
        raise ValueError("radius_report needs n_terms >= 20")
    beta, m = seq.beta, seq.m

    r_i = _formula_i(beta, m)
    r_ii = _formula_ii(beta, m) if beta > EULER_MASCHERONI - 0.5 else None

    _, q = majorant_constants(beta)
    r_guaranteed = (m * m / q) ** (1.0 / (2.0 * beta))

    odd = np.abs(seq.g[1::2])
    small = np.flatnonzero(odd < sys.float_info.min)
    size = int(small[0]) if small.size else odd.size
    r_empirical: Optional[float] = None
    if size >= 6:
        # ratio k = odd[k-1] / odd[k], for the last five k of the prefix
        xs = np.array([(odd[j] / odd[j + 1]) ** (1.0 / (2.0 * beta))
                       for j in range(size - 6, size - 1)])
        k = np.arange(size - 5, size, dtype=float)
        level1 = k[1:] * xs[1:] - (k[1:] - 1.0) * xs[:-1]
        r_empirical = float(np.median(level1))

    return RadiusReport(
        r_formula_i=r_i,
        r_formula_ii=r_ii,
        r_guaranteed=r_guaranteed,
        r_empirical=r_empirical,
        m=m,
    )


class SeriesSolution:
    """Evaluate the series and report its domain of validity.

    Construct from a built sequence, or with ``SeriesSolution.build(beta, m)``.
    Instances are immutable and safe to share; grid evaluation is a read-only
    pass over the coefficients.
    """

    def __init__(self, seq: BetaEulerSequence):
        self.seq = seq
        _, self._q = majorant_constants(seq.beta)

    @classmethod
    def build(cls, beta: float, m: float = 1.0, n_terms: int = 64) -> "SeriesSolution":
        return cls(build_sequence(beta, m, n_terms))

    @cached_property
    def radius(self) -> RadiusReport:
        return radius_report(self.seq)

    @property
    def domain_edge(self) -> float:
        """Operative validity edge: the empirical radius, falling back to the
        majorant radius when the ratio test is unavailable."""
        r = self.radius
        return r.r_empirical if r.r_empirical is not None else r.r_guaranteed

    def evaluate(self, t) -> EvalResult:
        """Partial sum with a geometric tail estimate.

        The tail applies the ratio q * t^(2*beta) / m^2 to the last retained
        odd term; it is +inf where that ratio reaches 1. ``in_domain`` flags
        t values at or below the operative radius. Negative t is rejected.
        """
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        if not np.all(np.isfinite(t_arr)):
            raise ValueError("t must be finite")
        if np.any(t_arr < 0.0):
            raise ValueError("t must be >= 0")

        beta, m = self.seq.beta, self.seq.m
        c = self.seq.g[1::2]  # odd coefficients; evens are exactly zero
        pos = t_arr > 0.0
        log_t = np.log(np.where(pos, t_arr, 1.0))
        tb = np.where(pos, np.exp(beta * log_t), 0.0)   # t^beta, 0 at t=0
        tau = tb * tb                                    # t^(2*beta)

        k_last = 2 * len(c) - 1
        # past the radius the sum and the tail overflow; in_domain flags those t
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            acc = np.zeros_like(t_arr)
            for coeff in c[::-1]:  # Horner in tau
                acc = acc * tau + coeff
            w = 0.5 + tb * acc
            last_term = np.abs(c[-1]) * np.where(pos, np.exp(beta * k_last * log_t), 0.0)
            ratio = self._q * tau / (m * m)
            tail = np.where(ratio < 1.0, last_term * ratio / (1.0 - ratio), np.inf)
        in_domain = t_arr <= self.domain_edge

        if scalar:
            return EvalResult(float(w[0]), float(tail[0]), bool(in_domain[0]))
        for arr in (w, tail, in_domain):
            arr.setflags(write=False)
        return EvalResult(w, tail, in_domain)

    def __call__(self, t):
        return self.evaluate(t).w


def remark_radius(beta: float) -> float:
    """Printed radius of the closed-form majorant: 2^(2b-1) (1 + 2b^2/(2b+1)).

    At beta = 1 this evaluates to 10/3, although it is printed as <= 3; the
    value is returned exactly as the formula gives it.
    """
    if not (0.5 < beta <= 1.0):
        raise ValueError("the closed-form majorant requires beta in (1/2, 1]")
    return 2.0 ** (2 * beta - 1) * (1.0 + 2 * beta * beta / (2 * beta + 1))


def remark_bound_pole(beta: float) -> float:
    """Where the closed-form majorant's own geometric factor blows up.

    This lies strictly below :func:`remark_radius`; between the two the
    printed expression is negative and useless as a bound.
    """
    if not (0.5 < beta <= 1.0):
        raise ValueError("the closed-form majorant requires beta in (1/2, 1]")
    return 2.0 ** (2 * beta - 1) * (3 * beta + 1 + 2 * beta * beta) / (3 * beta + 1)


def remark_bound(beta: float, t: float) -> float:
    """Closed-form majorant 1/2 + (1/(4 Gamma(b+1))) (1 - 2^(1-2b) (3b+1)/(3b+1+2b^2) t)^-1.

    Stated for m = 1 and beta > 1/2; raises for t at or beyond the printed
    radius. The expression is transcribed verbatim, including the fact that
    its own pole precedes that radius.
    """
    r = remark_radius(beta)
    if not (0.0 <= t < r):
        raise ValueError(f"t must lie in [0, {r}), got {t}")
    rate = 2.0 ** (1 - 2 * beta) * (3 * beta + 1) / (3 * beta + 1 + 2 * beta * beta)
    p, _ = majorant_constants(beta)
    return 0.5 + p / (1.0 - rate * t)


def compare_classical(m: float, t_grid, n_terms: int = 64) -> float:
    """Max absolute deviation of the beta = 1 series from 1/(1 + exp(-t/m)).

    The closed form solves u' = (u - u^2)/m from u(0) = 1/2, the classical
    (beta = 1) case of the equation the series is built for; no other order
    has one, so the series is always built at beta = 1.
    """
    t_arr = np.asarray(t_grid, dtype=float)
    if t_arr.size == 0:
        raise ValueError("the t grid is empty")
    if np.any(t_arr < 0.0) or np.any(t_arr >= math.pi * m):
        raise ValueError("t grid must lie within [0, pi * m)")
    sol = SeriesSolution.build(1.0, m, n_terms)
    w = sol.evaluate(t_arr).w
    closed = 1.0 / (1.0 + np.exp(-t_arr / m))
    return float(np.max(np.abs(w - closed)))
