"""Self-contained special-function layer.

Everything downstream (coefficient recurrences, convergence radii, quadrature
oracles) is built on the functions in this module, so the error budget here is
deliberately tight: ``ln_gamma`` is a shifted Stirling series, with its
leading term in double-double arithmetic, whose exponential is good to 1e-13
relative over [1e-3, 170], and all combinatorial tables (Bernoulli numbers,
Bernoulli/Euler polynomials) are computed in exact rational arithmetic and
only converted to float at the very end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional, Union

__all__ = [
    "EULER_MASCHERONI",
    "RationalTriangle",
    "BoundFlags",
    "ln_gamma",
    "gamma_fn",
    "beta_fn",
    "bernoulli_numbers",
    "bernoulli_poly",
    "bernoulli_poly_exact",
    "euler_poly",
    "euler_poly_exact",
    "classical_series_coeffs",
    "bound_predicates",
]

#: Euler-Mascheroni constant (float64 nearest).
EULER_MASCHERONI = 0.5772156649015329

# Stirling-series correction coefficients B_{2n} / (2n (2n-1)), n = 1..8.
# With the argument shifted into [8, 9) the first omitted term is < 1e-16
# relative, so the series truncation never shows against the 1e-13 budget.
_STIRLING_COEFFS = (
    0.08333333333333333,      # 1/12
    -0.002777777777777778,    # -1/360
    0.0007936507936507937,    # 1/1260
    -0.0005952380952380953,   # -1/1680
    0.0008417508417508417,    # 1/1188
    -0.0019175269175269176,   # -691/360360
    0.00641025641025641,      # 1/156
    -0.029550653594771242,    # -3617/122400
)
_STIRLING_SHIFT = 8.0
_HALF_LOG_TWO_PI = 0.9189385332046728  # log(sqrt(2*pi))
_LN2_HI = 0.6931471805599453
_LN2_LO = 2.3190468138462996e-17

Rational = Union[int, Fraction]


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float):
    # Dekker split; exact product as hi + lo
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(ah: float, al: float, bh: float, bl: float):
    sh, se = _two_sum(ah, bh)
    se += al + bl
    h = sh + se
    return h, se - (h - sh)


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for positive real x.

    Stirling series with Bernoulli corrections after shifting the argument
    into [8, 9). Relative accuracy of exp(ln_gamma(x)) against the true
    Gamma value is within 1e-13 on [1e-3, 170]; the dominant (z-1/2)*log(z)
    term is accumulated in double-double arithmetic, since in plain doubles
    its rounding alone breaches that budget near the top of the range.
    """
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")

    # Gamma(x) = Gamma(x + n) / (x (x+1) ... (x+n-1))
    log_shift = 0.0
    z = x
    if z < _STIRLING_SHIFT:
        prod = 1.0
        while z < _STIRLING_SHIFT:
            prod *= z
            z += 1.0
        log_shift = math.log(prod)

    u = 1.0 / (z * z)
    series = _STIRLING_COEFFS[7]
    for c in reversed(_STIRLING_COEFFS[:7]):
        series = series * u + c
    series /= z

    mant, k = math.frexp(z)                # z = mant * 2^k, mant in [0.5, 1)
    log_mant = math.log(mant)              # |log(mant)| < 0.7, so its ulp is tiny
    zm = z - 0.5                           # exact: 0.5 is a multiple of ulp(z) here

    # P = zm * (k*ln2 + log_mant), double-double
    kh, kl = _two_prod(zm, float(k))
    ph, pl = _two_prod(kh, _LN2_HI)
    pl += kh * _LN2_LO + kl * _LN2_HI
    qh, ql = _two_prod(zm, log_mant)
    sh, sl = _dd_add(ph, pl, qh, ql)
    sh, sl = _dd_add(sh, sl, -z, 0.0)
    sh, sl = _dd_add(sh, sl, _HALF_LOG_TWO_PI, series - log_shift)
    return sh + sl


def gamma_fn(x: float) -> float:
    """Gamma function for positive real x (exp of ``ln_gamma``)."""
    return math.exp(ln_gamma(x))


def beta_fn(x: float, y: float) -> float:
    """Beta integral B(x, y) for positive arguments, via log-Gamma."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"beta_fn requires positive arguments, got ({x}, {y})")
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


@dataclass(frozen=True)
class RationalTriangle:
    """Triangular table of exact rationals, row r holding r+1 entries.

    Used for the binomial table and for the Bernoulli-polynomial coefficient
    table (row s = coefficients of x^0..x^s in B_s).
    """

    rows: tuple

    def __post_init__(self) -> None:
        for r, row in enumerate(self.rows):
            if len(row) != r + 1:
                raise ValueError(f"row {r} must have {r + 1} entries, got {len(row)}")
            for entry in row:
                if not isinstance(entry, Fraction):
                    raise ValueError("entries must be exact Fractions")

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, r: int) -> tuple:
        return self.rows[r]

    @classmethod
    def binomial(cls, n_max: int) -> "RationalTriangle":
        """Pascal's triangle up to row n_max."""
        rows = tuple(
            tuple(Fraction(comb(n, j)) for j in range(n + 1)) for n in range(n_max + 1)
        )
        return cls(rows)

    @classmethod
    def bernoulli(cls, n_max: int) -> "RationalTriangle":
        """Row s holds the coefficients of B_s(x) = sum_j C(s,j) b_{s-j} x^j."""
        b = bernoulli_numbers(n_max)
        rows = tuple(
            tuple(comb(s, j) * b[s - j] for j in range(s + 1)) for s in range(n_max + 1)
        )
        return cls(rows)


def bernoulli_poly_exact(s: int, x: Rational) -> Fraction:
    """B_s(x) for rational x, exactly."""
    if s < 0:
        raise ValueError("polynomial index must be >= 0")
    xf = Fraction(x)
    b = bernoulli_numbers(s)
    acc = Fraction(0)
    for j in range(s, -1, -1):  # Horner
        acc = acc * xf + comb(s, j) * b[s - j]
    return acc


def bernoulli_poly(s: int, x: float) -> float:
    """Bernoulli polynomial B_s(x).

    The finite sum is evaluated in exact rational arithmetic (the float x is
    converted without rounding) and cast to float at the end.
    """
    return float(bernoulli_poly_exact(s, Fraction(x)))


def euler_poly_exact(k: int, x: Rational) -> Fraction:
    """E_k(x) for rational x via the Bernoulli-polynomial sum, exactly."""
    if k < 0:
        raise ValueError("polynomial index must be >= 0")
    xf = Fraction(x)
    acc = Fraction(0)
    for s in range(k + 1):
        acc += comb(k + 1, s) * Fraction(2) ** s * bernoulli_poly_exact(s, xf / 2)
    return acc / (k + 1)


def euler_poly(k: int, x: float) -> float:
    """Euler polynomial E_k(x) = (1/(k+1)) sum_s C(k+1,s) 2^s B_s(x/2).

    Rational arithmetic throughout; plain floating evaluation of this sum
    loses all accuracy past k ~ 20 because of the factorial-scale terms.
    """
    return float(euler_poly_exact(k, Fraction(x)))


def classical_series_coeffs(n_max: int) -> List[float]:
    """Coefficients E_k(1)/2 of the classical logistic Taylor series, k <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [float(euler_poly_exact(k, 1) / 2) for k in range(n_max + 1)]


@dataclass(frozen=True)
class BoundFlags:
    """Outcome of the inequality checks; a flag is None when the point lies
    outside that bound's stated domain."""

    beta_bound: Optional[bool] = None       # B(x,y) <= 1/(xy), x,y > 1
    gamma_unit: Optional[bool] = None       # 2^(x-1) <= Gamma(x+1) <= 1, 0 <= x <= 1
    gamma_envelope: Optional[bool] = None   # x^(x-g)/e^(x-1) < Gamma(x) < x^(x-1/2)/e^(x-1), x > 1


def bound_predicates(
    x: Optional[float] = None,
    y: Optional[float] = None,
    beta: Optional[float] = None,
) -> BoundFlags:
    """Evaluate the three Gamma/Beta inequalities at a point.

    ``x, y`` feed the Beta bound (both > 1 required) and the strict Gamma
    envelope (x > 1); the unit-interval bound is checked at ``beta`` when
    given, else at ``x`` when 0 <= x <= 1. Comparisons are strict or
    non-strict exactly as each inequality is stated, with endpoint ties
    counting as satisfied for the non-strict ones. Raises if the point lies
    in no bound's domain.
    """
    beta_bound = None
    gamma_unit = None
    gamma_envelope = None

    if x is not None and y is not None and x > 1.0 and y > 1.0:
        # log-space comparison so x = y = 50 does not overflow
        beta_bound = ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y) <= -math.log(x * y)

    unit_arg = beta if beta is not None else x
    if unit_arg is not None and 0.0 <= unit_arg <= 1.0:
        g1 = math.exp(ln_gamma(unit_arg + 1.0)) if unit_arg > 0.0 else 1.0
        gamma_unit = (2.0 ** (unit_arg - 1.0) <= g1) and (g1 <= 1.0)

    if x is not None and x > 1.0:
        lg = ln_gamma(x)
        lo = (x - EULER_MASCHERONI) * math.log(x) - (x - 1.0)
        hi = (x - 0.5) * math.log(x) - (x - 1.0)
        gamma_envelope = lo < lg < hi

    if beta_bound is None and gamma_unit is None and gamma_envelope is None:
        raise ValueError("arguments lie outside the domain of every bound")
    return BoundFlags(beta_bound=beta_bound, gamma_unit=gamma_unit, gamma_envelope=gamma_envelope)
