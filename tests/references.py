"""Exact references for the tests, each built without felog's arithmetic.

- ``mp_coefficients``: the normalized recurrence in 50-digit mpmath, all
  n steps, the ones that make even coefficients included;
- ``half_order_rationals``: at beta = 1/2, g_k = r_k pi^(-k/2) m^(-k) with
  every r_k rational, so a Fraction recurrence gives the coefficients exactly.
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
