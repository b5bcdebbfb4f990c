"""Exact references for the tests, each built without felog's arithmetic.

- ``mp_coefficients``: the normalized recurrence in 50-digit mpmath, all
  n steps, the ones that make even coefficients included;
- ``half_order_rationals``: at beta = 1/2, g_k = r_k pi^(-k/2) m^(-k) with
  every r_k rational, so a Fraction recurrence gives the coefficients exactly;
- ``classical_rationals``: at beta = 1 the series is 1/2 + tanh(t/(2m))/2,
  whose Taylor coefficients are rationals over m^k;
- ``exact_partial_sum``: the partial sum that evaluate forms, with each of
  its inputs read as the exact value of its float.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath

DIGITS = 50


@lru_cache(maxsize=None)
def mp_coefficients(beta: float, m: float, n: int) -> tuple:
    """g_0..g_(n-1) as mpf at DIGITS digits, from g_0 = 1/2 and
    g_(k+1) = Gamma(beta k + 1) / Gamma(beta (k+1) + 1) (g_k - sum_(i+j=k) g_i g_j) / m,
    cached per (beta, m, n)."""
    with mpmath.workdps(DIGITS):
        b, rate = mpmath.mpf(beta), mpmath.mpf(m)
        g = [mpmath.mpf(1) / 2]
        for k in range(n - 1):
            ratio = mpmath.gamma(b * k + 1) / mpmath.gamma(b * (k + 1) + 1)
            g.append(ratio * (g[k] - mpmath.fsum(g[i] * g[k - i] for i in range(k + 1))) / rate)
    return tuple(g)


def half_order_rationals(n: int) -> tuple:
    """r_0..r_(n-1), Fractions, with g_k = r_k pi^(-k/2) m^(-k) at beta = 1/2.

    At even k = 2j the recurrence's ratio Gamma(j + 1) / Gamma(j + 3/2) is
    2^(2j+1) (j!)^2 / (2j+1)! over sqrt(pi). At odd k the bracket
    r_k - sum_(i+j=k) r_i r_j is exactly 0, and so is every even coefficient.
    """
    r = [Fraction(1, 2)]
    for k in range(n - 1):
        bracket = r[k] - sum(r[i] * r[k - i] for i in range(k + 1))
        if k % 2:
            assert bracket == 0, k
            r.append(Fraction(0))
        else:
            j = k // 2
            r.append(Fraction(2 ** (2 * j + 1) * factorial(j) ** 2, factorial(2 * j + 1)) * bracket)
    return tuple(r)


def bernoulli_from_tangent_numbers(n: int) -> tuple:
    """B_2, B_4, ..., B_2n as Fractions, from the tangent numbers T_1..T_n of
    Brent & Harvey's integer algorithm (2011, Algorithm TangentNumbers), by
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)): integers throughout, and no
    binomial recurrence."""
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
                 for k in range(1, n + 1))


@lru_cache(maxsize=None)
def classical_rationals(n: int) -> tuple:
    """g_0..g_(n-1) at beta = 1, m = 1, as Fractions; at rate m, g_k is this
    over m^k. The solution 1/(1 + exp(-t)) is 1/2 + tanh(t/2)/2, and tanh x
    = sum_k 4^k (4^k - 1) B_2k x^(2k-1) / (2k)!, so g_(2k-1) =
    (4^k - 1) B_2k / (2k)! and every even g_k but g_0 = 1/2 is 0."""
    g = [Fraction(0)] * n
    g[0] = Fraction(1, 2)
    for k, b in enumerate(bernoulli_from_tangent_numbers(n // 2), start=1):
        if 2 * k - 1 < n:
            g[2 * k - 1] = (4**k - 1) * b / factorial(2 * k)
    return tuple(g)


def exact_partial_sum(g, tb: float, tau: float) -> Fraction:
    """1/2 + tb * sum_i g_(2i+1) tau^i, exactly, from the floats g (the
    stored coefficients), tb = t^beta and tau = t^(2 beta) as evaluate forms
    them: only Horner's rounding is left out. Integer arithmetic over one
    power-of-two denominator, so no Fraction is normalized per term."""
    p, q = tau.as_integer_ratio()
    shift = q.bit_length() - 1
    terms, power = [], 1
    for i, c in enumerate(g[1::2]):
        num, den = float(c).as_integer_ratio()
        terms.append((num * power, den.bit_length() - 1 + shift * i))
        power *= p
    top = max(e for _, e in terms)
    total = Fraction(sum(num << (top - e) for num, e in terms), 1 << top)
    return Fraction(1, 2) + Fraction(tb) * total
