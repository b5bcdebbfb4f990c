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

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional, Tuple

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

#: Most coefficients build_sequence makes (and most -n the CLI accepts), and the
#: last Bernoulli number a table reaches: it bounds a length, not a time.
MAX_TERMS = 10_000

#: Most steps solve_pc takes and most cells a quadrature grid has (and most
#: --steps the CLI accepts): far above any use, but small enough that no
#: array they size can exhaust memory.
MAX_STEPS = 1_000_000


def _check_count(name: str, n, lo: int, hi: int) -> int:
    """A count that sizes an array or table must be an integer from lo to hi; returns int(n)."""
    if not isinstance(n, numbers.Integral) or not lo <= n <= hi:
        raise ValueError(f"{name} must be an integer from {lo} to {hi}, got {n!r}")
    return int(n)


def _check_real(name: str, x, lo: float, hi: float, ends: str) -> float:
    """A real scalar argument must lie between lo and hi, each end open or closed
    as ``ends`` ("(]", "[)" or "()") prints it; returns float(x). NaN, a number past
    the double range and anything not a numbers.Real (a str, a 0-d array) fail."""
    try:
        v = x if type(x) is float else float(x) if isinstance(x, numbers.Real) else math.nan
    except OverflowError:  # an int or a Fraction past the double range
        v = math.nan
    if not ((lo < v or lo == v and ends[0] == "[") and (v < hi or v == hi and ends[1] == "]")):
        raise ValueError(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {x!r}")
    return v


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for finite positive real x.

    log(math.gamma(x)) on (1e-300, 171), where Gamma(x) fits in a double (it
    overflows below 5.6e-309 and above 171.62), and math.lgamma beyond.
    lgamma alone would not do: against an arbitrary-precision reference it
    is off by up to 1.8e-13 on [1e-3, 170], where log(gamma) stays within
    6e-14, so that exp(ln_gamma(x)) is good to 1e-13 relative. Beyond, lgamma
    is all there is; on [171, 5000] its relative error stays within 3e-16.
    It is +inf where ln Gamma(x) passes the double range (x above 2.56e305).
    """
    x = _check_real("x", x, 0, math.inf, "()")
    if 1e-300 < x < 171.0:
        return math.log(math.gamma(x))
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _exp(v: float) -> float:
    """exp(v), or +inf where it passes the double range."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def gamma_fn(x: float) -> float:
    """Gamma function for finite positive real x (exp of ``ln_gamma``); +inf
    where Gamma(x) passes the double range (x below 5.6e-309 or above 171.62)."""
    return _exp(ln_gamma(x))


#: beta_fn's relative tolerance.
_BETA_TOL = 1e-12
_EPS = math.ulp(1.0)


def _ln_beta(x: float, y: float) -> Tuple[float, float]:
    """ln Gamma(x) + ln Gamma(y) - ln Gamma(x+y) for positive x, y, and the size S of the
    three, |ln Gamma(x)| + |ln Gamma(y)| + |ln Gamma(x+y)|, inf past the double range. The
    sum cancels: its roundings reach about 2 eps S (0.97 eps S at most for x, y in [1e-3, 1e6])."""
    lx, ly = ln_gamma(x), ln_gamma(y)
    lxy = ln_gamma(x + y) if math.isfinite(lx + ly) else math.inf  # x + y may overflow
    return lx + ly - lxy, abs(lx) + abs(ly) + abs(lxy)


def beta_fn(x: float, y: float) -> float:
    """B(x, y) for finite positive arguments, the exp of _ln_beta: good to 1e-12 relative
    (_BETA_TOL), +inf where B passes the double range, and a ValueError naming x and y where
    2 eps S passes the tolerance, from S = 2252 (B(1, y) from y = 249, B(x, x) from x = 133)."""
    x, y = _check_real("x", x, 0, math.inf, "()"), _check_real("y", y, 0, math.inf, "()")
    ln_b, size = _ln_beta(x, y)
    if 2.0 * _EPS * size > _BETA_TOL:
        raise ValueError(f"B(x, y) at x = {x!r}, y = {y!r} is not within {_BETA_TOL:g} "
                         f"relative: its log-Gamma values, of size {size:.3g}, cancel")
    return _exp(ln_b)


def bernoulli_numbers(n_max: int) -> List[Fraction]:
    """Bernoulli numbers b_0..b_{n_max} as exact Fractions.

    Convention with b_1 = -1/2 (the values B_j(0)). Computed by the binomial
    recurrence sum_{j<=s} C(s+1, j) b_j = 0 so that no cancellation ever
    enters the rational arithmetic.
    """
    n_max = _check_count("n_max", n_max, 0, MAX_TERMS)
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


def _exact(x: numbers.Real) -> Fraction:
    """x exactly: an int or a Fraction as it is, another real as its finite float."""
    return Fraction(x if isinstance(x, (int, Fraction))
                    else _check_real("x", x, -math.inf, math.inf, "()"))


def bernoulli_poly_exact(s: int, x: numbers.Real) -> Fraction:
    """B_s(x), exactly, at the rational value of x (see _exact)."""
    s = _check_count("s", s, 0, MAX_TERMS)
    return _bernoulli_horner(s, _exact(x), bernoulli_numbers(s))


def euler_poly_exact(k: int, x: numbers.Real) -> Fraction:
    """E_k(x) = 2/(k+1) [B_(k+1)(x) - 2^(k+1) B_(k+1)(x/2)] (DLMF 24.4.23) at the
    rational value of x (see _exact), exactly, from one Bernoulli table b_0..b_(k+1)."""
    k = _check_count("k", k, 0, MAX_TERMS - 1)
    x = _exact(x)
    b = bernoulli_numbers(k + 1)
    diff = _bernoulli_horner(k + 1, x, b) - 2 ** (k + 1) * _bernoulli_horner(k + 1, x / 2, b)
    return 2 * diff / (k + 1)


def euler_poly(k: int, x: numbers.Real) -> float:
    """Euler polynomial E_k(x): the correctly rounded float of euler_poly_exact(k, x),
    which is -inf or +inf past the double range (E_219(1), E_40(1e10)).

    Rational arithmetic throughout; plain floating evaluation of the
    Bernoulli form loses all accuracy past k ~ 20 because of the
    factorial-scale terms.
    """
    exact = euler_poly_exact(k, x)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def classical_series_coeffs(n_max: int) -> List[float]:
    """Coefficients E_k(1)/2 of the classical logistic Taylor series, k <= n_max:
    1/2, then (2^(k+1) - 1) b_(k+1) / (k+1), from one Bernoulli table. n_max stops
    at 218: c_217 ~ 1.8e306 is the last nonzero one a double holds."""
    n_max = _check_count("n_max", n_max, 0, 218)
    b = bernoulli_numbers(n_max + 1)
    return [0.5] + [float((2 ** (k + 1) - 1) * b[k + 1] / (k + 1)) for k in range(1, n_max + 1)]


@dataclass(frozen=True)
class BoundFlags:
    """Outcome of the three inequality checks at one point (x, y); a flag is None
    outside that bound's stated domain and where rounding would decide it."""

    beta_bound: Optional[bool]       # B(x,y) <= 1/(xy), x,y > 1
    gamma_unit: Optional[bool]       # 2^(x-1) <= Gamma(x+1) <= 1, 0 <= x <= 1
    gamma_envelope: Optional[bool]   # x^(x-g)/e^(x-1) < Gamma(x) < x^(x-1/2)/e^(x-1), x > 1


#: How far ln_gamma may be off past eps |ln Gamma(x)|: log(math.gamma(x)) is up to 3.6 eps
#: off 40-digit mpmath (3.4 eps within 0.1 of x = 1), all its error where ln Gamma is near 0.
_LN_GAMMA_ERR = 4.0 * _EPS


def _decide(chain, size: float, n_ln_gamma: int, strict: bool) -> Optional[bool]:
    """Whether log-space sides rise along the chain, a < b < ... (<= unless strict): decided
    where each gap passes its rounding bound, 2 eps size plus _LN_GAMMA_ERR per log-Gamma
    value, or, unless strict, is 0.0 (equal sides); else None, as where size is inf."""
    gaps = [b - a for a, b in zip(chain, chain[1:])]
    bound = 2.0 * _EPS * size + n_ln_gamma * _LN_GAMMA_ERR
    decided = bound < math.inf and all(abs(d) > bound or d == 0.0 and not strict for d in gaps)
    return all(d >= 0.0 for d in gaps) if decided else None


def bound_predicates(x: float, y: Optional[float] = None) -> BoundFlags:
    """The three Gamma/Beta inequalities at a point: the Beta bound at x, y > 1, the strict
    Gamma envelope at x > 1 and the unit-interval bound (ties satisfy it) at 0 <= x <= 1,
    each decided alone by _decide on log-space sides (the Beta bound's by _ln_beta, so that
    neither overflows). A flag left to rounding or past the double range is None."""
    x = _check_real("x", x, -math.inf, math.inf, "()")
    y = None if y is None else _check_real("y", y, -math.inf, math.inf, "()")
    if x < 0.0:
        raise ValueError("arguments lie outside the domain of every bound")
    beta = unit = envelope = None
    if y is not None and x > 1.0 and y > 1.0:
        ln_b, size = _ln_beta(x, y)
        ln_xy = math.log(x) + math.log(y)
        beta = _decide((ln_b, -ln_xy), size + ln_xy, 3, strict=False)
    if x > 1.0:
        lg, ln_x = ln_gamma(x), math.log(x)
        lo, hi = ((x - c) * ln_x - (x - 1.0) for c in (EULER_MASCHERONI, 0.5))
        size = abs(lg) + (x - EULER_MASCHERONI) * ln_x + (x - 1.0)
        envelope = _decide((lo, lg, hi), size, 1, strict=True)
    else:  # its size also counts x + 1, whose rounding ln Gamma(x + 1) feels
        lg, lo = ln_gamma(x + 1.0), (x - 1.0) * math.log(2.0)
        unit = _decide((lo, lg, 0.0), abs(lo) + abs(lg) + x + 1.0, 1, strict=False)
    return BoundFlags(beta, unit, envelope)
