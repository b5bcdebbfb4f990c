"""Self-contained special-function layer.

Everything downstream (coefficient recurrences, convergence radii, quadrature
oracles) is built on the functions in this module, so the error budget here is
deliberately tight. ``ln_gamma`` comes from the standard library, as
log(math.gamma(x)) where Gamma(x) fits in a double, and its exponential is
good to 1e-13 relative over [1e-3, 170]. The Bernoulli numbers and the
Bernoulli and Euler polynomials are exact rationals: both polynomials are
evaluated by one Horner helper over a Bernoulli-number table, the classical
series coefficients are explicit in the Bernoulli numbers, and only
``euler_poly`` and ``classical_series_coeffs`` convert to float, at the end.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional, Union

__all__ = [
    "EULER_MASCHERONI",
    "BoundFlags",
    "ln_gamma",
    "gamma_fn",
    "beta_fn",
    "bernoulli_numbers",
    "bernoulli_poly_exact",
    "euler_poly",
    "euler_poly_exact",
    "classical_series_coeffs",
    "bound_predicates",
]

#: Euler-Mascheroni constant (float64 nearest).
EULER_MASCHERONI = 0.5772156649015329

Rational = Union[int, Fraction]


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for finite positive real x.

    log(math.gamma(x)) on (1e-300, 171), where Gamma(x) fits in a double (it
    overflows below 5.6e-309 and above 171.62), and math.lgamma beyond.
    lgamma alone would not do: against an arbitrary-precision reference it
    is off by up to 1.8e-13 on [1e-3, 170], where log(gamma) stays within
    6e-14, so that exp(ln_gamma(x)) is good to 1e-13 relative. Beyond, lgamma
    is all there is; on [171, 5000] its relative error stays within 3e-16.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"ln_gamma requires 0 < x < inf, got {x}")
    if 1e-300 < x < 171.0:
        return math.log(math.gamma(x))
    return math.lgamma(x)


def _ln_gamma_table(beta: float, n: int) -> List[float]:
    """ln_gamma(beta*k + 1.0) for k < n, bit for bit, without a call per k."""
    xs = [beta * k + 1.0 for k in range(n)]
    cut = bisect.bisect_left(xs, 171.0)  # x rises with k: log(gamma) below, lgamma from here
    return [*map(math.log, map(math.gamma, xs[:cut])), *map(math.lgamma, xs[cut:])]


def gamma_fn(x: float) -> float:
    """Gamma function for finite positive real x (exp of ``ln_gamma``)."""
    return math.exp(ln_gamma(x))


def beta_fn(x: float, y: float) -> float:
    """Beta integral B(x, y) for finite positive arguments, via log-Gamma."""
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise ValueError(f"beta_fn requires finite positive arguments, got ({x}, {y})")
    return math.exp(ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y))


def bernoulli_numbers(n_max: int) -> List[Fraction]:
    """Bernoulli numbers b_0..b_{n_max} as exact Fractions.

    Convention with b_1 = -1/2 (the values B_j(0)). Computed by the binomial
    recurrence sum_{j<=s} C(s+1, j) b_j = 0 so that no cancellation ever
    enters the rational arithmetic.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = [Fraction(1)]
    for s in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(s):
            acc += comb(s + 1, j) * out[j]
        out.append(-acc / (s + 1))
    return out


def _bernoulli_horner(s: int, x: Fraction, b: List[Fraction]) -> Fraction:
    """B_s(x) = sum_j C(s,j) b_{s-j} x^j by Horner's rule, from a table b of
    Bernoulli numbers that reaches at least b_s."""
    acc = Fraction(0)
    for j in range(s, -1, -1):
        acc = acc * x + comb(s, j) * b[s - j]
    return acc


def bernoulli_poly_exact(s: int, x: Rational) -> Fraction:
    """B_s(x) for rational x, exactly."""
    if s < 0:
        raise ValueError("polynomial index must be >= 0")
    return _bernoulli_horner(s, Fraction(x), bernoulli_numbers(s))


def euler_poly_exact(k: int, x: Rational) -> Fraction:
    """E_k(x) = 2/(k+1) [B_(k+1)(x) - 2^(k+1) B_(k+1)(x/2)] (DLMF 24.4.23) for
    rational x, exactly, from one Bernoulli table b_0..b_(k+1)."""
    if k < 0:
        raise ValueError("polynomial index must be >= 0")
    x = Fraction(x)
    b = bernoulli_numbers(k + 1)
    diff = _bernoulli_horner(k + 1, x, b) - 2 ** (k + 1) * _bernoulli_horner(k + 1, x / 2, b)
    return 2 * diff / (k + 1)


def euler_poly(k: int, x: float) -> float:
    """Euler polynomial E_k(x), evaluated exactly at the rational value of x.

    Rational arithmetic throughout; plain floating evaluation of the
    Bernoulli form loses all accuracy past k ~ 20 because of the
    factorial-scale terms.
    """
    return float(euler_poly_exact(k, Fraction(x)))


def classical_series_coeffs(n_max: int) -> List[float]:
    """Coefficients E_k(1)/2 of the classical logistic Taylor series, k <= n_max:
    1/2, then (2^(k+1) - 1) b_(k+1) / (k+1), from one Bernoulli table."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    b = bernoulli_numbers(n_max + 1)
    return [0.5] + [float((2 ** (k + 1) - 1) * b[k + 1] / (k + 1)) for k in range(1, n_max + 1)]


@dataclass(frozen=True)
class BoundFlags:
    """Outcome of the three inequality checks at one point (x, y); a flag is
    None when the point lies outside that bound's stated domain."""

    beta_bound: Optional[bool]       # B(x,y) <= 1/(xy), x,y > 1
    gamma_unit: Optional[bool]       # 2^(x-1) <= Gamma(x+1) <= 1, 0 <= x <= 1
    gamma_envelope: Optional[bool]   # x^(x-g)/e^(x-1) < Gamma(x) < x^(x-1/2)/e^(x-1), x > 1


def bound_predicates(x: float, y: Optional[float] = None) -> BoundFlags:
    """Evaluate the three Gamma/Beta inequalities at a point.

    ``x, y`` feed the Beta bound (both > 1 required) and the strict Gamma
    envelope (x > 1); the unit-interval bound is checked at ``x`` when
    0 <= x <= 1. Comparisons are strict or non-strict exactly as each
    inequality is stated, with endpoint ties counting as satisfied for the
    non-strict ones. Raises if an argument is not finite or the point lies
    in no bound's domain.
    """
    if not (math.isfinite(x) and (y is None or math.isfinite(y))):
        raise ValueError(f"bound_predicates requires finite arguments, got ({x}, {y})")
    beta_bound = gamma_unit = gamma_envelope = None

    if y is not None and x > 1.0 and y > 1.0:
        # log-space comparison so x = y = 50 does not overflow
        beta_bound = ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y) <= -math.log(x * y)

    if 0.0 <= x <= 1.0:
        g1 = gamma_fn(x + 1.0) if x > 0.0 else 1.0
        gamma_unit = (2.0 ** (x - 1.0) <= g1) and (g1 <= 1.0)

    if x > 1.0:
        lg = ln_gamma(x)
        lo = (x - EULER_MASCHERONI) * math.log(x) - (x - 1.0)
        hi = (x - 0.5) * math.log(x) - (x - 1.0)
        gamma_envelope = lo < lg < hi

    if beta_bound is None and gamma_unit is None and gamma_envelope is None:
        raise ValueError("arguments lie outside the domain of every bound")
    return BoundFlags(beta_bound=beta_bound, gamma_unit=gamma_unit, gamma_envelope=gamma_envelope)
