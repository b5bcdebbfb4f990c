"""Generalized Euler-number sequences for the fractional logistic series.

The series coefficients are carried in normalized form

    g_k = E_k / (M^k Gamma(beta*k + 1)),

which stays bounded on the convergence disk; the raw numbers E_k overflow
double range near k ~ 170/beta because of the Gamma normalizer, so they are
reported only as (sign, log10 magnitude) pairs. Only the steps that make odd
coefficients run: an even one would give g_k - 2 g_0 g_k = 0, as its other
products have a zero even factor, so each even g_k is stored as +0.0.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Dict, Tuple, Union

import numpy as np

from .specfun import (EULER_MASCHERONI, MAX_TERMS, _check_count, _check_real, bernoulli_numbers,
                      gamma_fn, ln_gamma)

__all__ = [
    "BetaEulerSequence",
    "BoundSequences",
    "build_sequence",
    "closed_form_check",
    "bound_sequences",
    "majorant_constants",
    "sequence_from_json",
]

#: Coefficients a series gets when the caller names no count (and -n's default).
DEFAULT_TERMS = 64


@dataclass(frozen=True, eq=False)
class BetaEulerSequence:
    """Normalized coefficient sequence for one (beta, m) pair.

    ``g[k]`` is the coefficient of t^(beta*k) in the series, and ``g`` is
    read-only. The sequence stores only (beta, m, g); everything else is
    derived from them: ``n_terms`` is ``g.size``, and ``raw_sign`` and
    ``raw_log10`` describe the unnormalized numbers
    E_k = g_k m^k Gamma(beta*k + 1), computed on first use.
    """

    beta: float
    m: float
    g: np.ndarray

    def __post_init__(self) -> None:
        _take_real(self, "beta", _check_beta)
        _take_real(self, "m", _check_m)
        _take_array(self, "g", 2)
        if self.g[0] != 0.5:
            raise ValueError("g_0 must equal 1/2")
        p, _ = majorant_constants(self.beta)
        if not math.isclose(self.g[1], p / self.m, rel_tol=1e-13):
            raise ValueError("g_1 must equal (1/4) / (m * Gamma(beta+1))")

    @property
    def n_terms(self) -> int:
        return self.g.size

    @cached_property
    def raw_sign(self) -> np.ndarray:
        """Sign of each E_k; 0 where g_k is exactly zero."""
        return _read_only(np.sign(self.g).astype(int))

    @cached_property
    def raw_log10(self) -> np.ndarray:
        """log10 |E_k|; -inf where g_k is exactly zero."""
        n = self.g.size
        nonzero = np.flatnonzero(self.g)
        lg = np.zeros(n)  # a zero g_k gives -inf with any finite lg[k]
        lg[nonzero] = [ln_gamma(self.beta * k + 1.0) for k in nonzero.tolist()]
        with np.errstate(divide="ignore"):  # log10(0) = -inf marks a zero g_k
            log_g = np.log10(np.abs(self.g))
        return _read_only(log_g + np.arange(n) * math.log10(self.m) + lg / math.log(10.0))

    def to_json_dict(self) -> dict:
        """Schema: { "beta", "m", "g", "raw": [{"sign", "log10_mag"}] }; an exact
        zero carries log10_mag = null."""
        raw = [{"sign": s, "log10_mag": l}
               for s, l in zip(self.raw_sign.tolist(), self.raw_log10.tolist())]
        return _finite_or_null({"beta": self.beta, "m": self.m, "g": self.g.tolist(), "raw": raw})


#: The orders beta and the rates m that the series is built for, read as floats.
_check_beta = partial(_check_real, "beta", lo=0, hi=1, ends="(]")
_check_m = partial(_check_real, "m", lo=1, hi=math.inf, ends="[)")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _finite_or_null(value):
    """``value`` with every non-finite float in it, at any depth, as None (JSON null)."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _as_real(x, name: str, lo=-math.inf, hi=math.inf, ends="()") -> np.ndarray:
    """The caller's ``x`` as a float64 array, each entry in the interval of
    specfun._check_real (finite by default); a refusal names ``name[k]``, k in
    flat order. A complex ``x`` (numpy would drop its imaginary part) or an
    integer past the double range is a ValueError."""
    arr = np.asarray(x)
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got {arr.dtype}")
    try:
        arr = np.asarray(arr, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer past the double range") from None
    if arr.ndim == 0:
        _check_real(name, arr.item(), lo, hi, ends)
    elif arr.size:
        # an interval holds the array if it holds the least and the greatest
        # entry, and argmin and argmax both find the first NaN
        for k in (arr.argmin(), arr.argmax()):
            _check_real(f"{name}[{k}]", arr.item(k), lo, hi, ends)
    return arr


def _take_array(record, name: str, min_size: int, *interval) -> None:
    """Store on a frozen record a read-only float64 copy of its field ``name``,
    1-D with at least min_size entries, each in the (lo, hi, ends) ``interval``
    of _as_real (finite if omitted). The caller's array stays writeable."""
    arr = _as_real(getattr(record, name), name, *interval).copy()
    if arr.ndim != 1 or arr.size < min_size:
        raise ValueError(f"{name} must be a 1-D array of {min_size} or more entries, "
                         f"got shape {arr.shape}")
    object.__setattr__(record, name, _read_only(arr))


def _take_real(record, name: str, check) -> None:
    """Store on a frozen record the float that ``check``, a real-argument rule,
    returns for its field ``name``."""
    object.__setattr__(record, name, check(getattr(record, name)))


@dataclass(frozen=True, eq=False)
class BoundSequences:
    """Majorant data for a normalized (m = 1) sequence: the two printed
    envelope sequences and the exact-Gamma geometric base."""

    a: np.ndarray
    b: np.ndarray
    q_majorant: float


def build_sequence(beta: float, m: float, n_terms: int = DEFAULT_TERMS) -> BetaEulerSequence:
    """Run the normalized recurrence and package the coefficients.

    g_{k+1} = [Gamma(beta*k+1)/Gamma(beta*(k+1)+1)] * (g_k - sum_{i+j=k} g_i g_j) / m

    The Gamma ratios come from :func:`_gamma_ratios`, each within a few ulps;
    no ratio recurrences, so the rounding budget stays a fixed multiple of
    eps per coefficient.

    Only the steps that make odd coefficients run. In an even step every
    product has an even-index factor, +0.0 but for g_0 = 1/2, so it would give
    g_k - g_k = +0.0 while g_k is normal, and past that a residue that, left
    in, would wreck the sum at small beta. Even coefficients are stored as +0.0.

    The loop stops where _zero_tail proves that every later odd coefficient
    is +0.0, as np.zeros left it: the odd coefficients decay geometrically
    and, in a long enough series, underflow for good. It tests only after a
    step that gives 0.0, and after a failed test waits _ZERO_TAIL_WAIT steps.
    """
    beta, m = _check_beta(beta), _check_m(m)
    n_terms = _check_count("n_terms", n_terms, 2, MAX_TERMS)

    gamma_ratios = _gamma_ratios(beta, beta * np.arange(0, n_terms - 1, 2) + 1.0).tolist()
    # g_rev is g reversed, so even step k dots contiguous g[:k + 1] and g_rev[n_terms - 1 - k:]
    g, g_rev = np.zeros(n_terms), np.zeros(n_terms)
    g[0] = g_rev[-1] = g_k = 0.5
    next_test = 0
    for k1, j, ratio in zip(range(1, n_terms, 2), range(n_terms - 1, 0, -2), gamma_ratios):
        conv = float(g[:k1].dot(g_rev[j:]))
        g[k1] = g_rev[j - 1] = g_odd = ratio * (g_k - conv) / m
        g_k = 0.0  # g_k of every later step: an even coefficient
        if g_odd == 0.0 and k1 >= next_test:
            if _zero_tail(g[1 : k1 + 1 : 2]):
                break
            next_test = k1 + 2 * _ZERO_TAIL_WAIT
    return BetaEulerSequence(beta=beta, m=m, g=g)


#: Odd steps that build_sequence runs after a failed _zero_tail test before
#: it tests again, so that no input pays for the test at more than one step in 8.
_ZERO_TAIL_WAIT = 8


def _zero_tail(odd: np.ndarray) -> bool:
    """Whether every odd coefficient after c_0, ..., c_(s-1) = ``odd`` (c_i
    is g_(2i+1)) comes out of build_sequence's loop as +0.0.

    The step that makes c_t dots products c_i c_j with i + j = t - 1, and
    products with an even factor, each +0.0 past the first step. For t >= s
    a product of two computed factors has j >= s - 1 - i, so |c_i c_j| <=
    a_i M_i, a = |odd| and M_i = max(a[s-1-i:]); if every fl(a_i M_i) is 0,
    the product rounds to a zero too, and a product with a later factor is
    zero by induction. Then the dot is a zero and c_t = ratio (0.0 - dot) / m
    is +0.0. This assumes that the dot rounds each product on its own, alone
    or fused with a zero partial sum, as OpenBLAS ddot (with or without FMA)
    and numpy's own loop do; a dot that kept the products wider than a
    double could sum thousands of them below 2^-1075 to a nonzero subnormal.
    """
    a = np.abs(odd)
    # M_i, the greatest of a_(s-1), ..., a_(s-1-i): a running maximum of a reversed
    return not np.any(a * np.maximum.accumulate(a[::-1]))


#: From this x on the ratio is taken from the expansion at x itself, in
#: doubles; below it, at x + 15, in long double. The first omitted term is
#: below 3e-18 of the ratio from x = 16 on.
_RATIO_CUT = 24
_RATIO_SHIFTS = np.arange(15, dtype=np.longdouble)
_ratio_table = None  # _ratio_matrix's table, once built


def _ratio_matrix() -> np.ndarray:
    """DLMF 5.11.8 (Tricomi & Erdelyi, Pacific J. Math. 1, 1951) for large x:
    ln Gamma(x + beta) - ln Gamma(x) ~ beta ln x + sum_n d_n(beta) x^(-n), with
    d_n(beta) = (-1)^(n+1) [B_(n+1)(beta) - B_(n+1)(0)] / (n (n+1)). Row n - 1
    of this read-only table holds the coefficients of beta..beta^13 in d_n,
    each the float nearest its exact rational; built on first use."""
    global _ratio_table
    if _ratio_table is None:
        b = bernoulli_numbers(13)
        _ratio_table = _read_only(np.array(
            [[float((-1) ** (n + 1) * math.comb(n + 1, j) * b[n + 1 - j] / (n * (n + 1)))
              if j <= n + 1 else 0.0 for j in range(1, 14)] for n in range(1, 13)]))
    return _ratio_table


def _gamma_ratios(beta: float, x: np.ndarray) -> np.ndarray:
    """Gamma(x) / Gamma(x + beta) at each entry of x, an ascending array of
    x >= 1, from x^(-beta) exp(-sum_n d_n(beta) x^(-n)), the 12-term DLMF
    5.11.8 expansion, so that no large logarithm cancels.

    Below _RATIO_CUT the expansion is taken at z = x + 15 and times the shift
    factors (x + j + beta) / (x + j), j < 15, in long double. Those ratios
    scale every later coefficient, by up to n/2 times their error, so they
    are held near correct rounding where long double is wider than a double
    (x86-64); elsewhere they are good to a few ulps.
    """
    d = (_ratio_matrix() @ np.power(beta, np.arange(1, 14))).tolist()  # d_n(beta), n = 1..12

    def series(z):  # sum_n d_n(beta) z^(-n), by Horner in z's precision
        inv, acc = 1.0 / z, np.zeros_like(z)
        for d_n in reversed(d):
            acc += d_n
            acc *= inv
        return acc

    cut = int(np.searchsorted(x, _RATIO_CUT))
    out = np.empty(x.size)
    if cut:
        low = x[:cut, None] + _RATIO_SHIFTS  # x + j, j < 15, in long double
        z = low[:, -1] + 1.0
        out[:cut] = np.exp(-beta * np.log(z) - series(z)) * np.prod((low + beta) / low, axis=1)
    if cut < x.size:
        out[cut:] = np.power(x[cut:], -beta) * np.exp(-series(x[cut:]))
    return out


def _normal_odd(g: np.ndarray) -> np.ndarray:
    """|g_1|, |g_3|, ... up to the first odd coefficient that is zero or
    below the smallest normal double: underflowed ones no longer follow the
    series' geometric rate."""
    odd = np.abs(g[1::2])
    small = np.flatnonzero(odd < sys.float_info.min)
    return odd[: small[0]] if small.size else odd


def _horner_scale(c: np.ndarray) -> int:
    """The power-of-two scale s of a Horner sum over c_0, c_1, ... (c_i the
    coefficient of tau^i): c_i 2^(s i) in tau 2^(-s) is the same sum, and a
    step on it rounds as a step on the unscaled values does, but off the
    subnormal grid. s is 0 unless a nonzero c_i is subnormal; then it is the
    least s that makes each nonzero c_i 2^(s i) normal, or 0 if c_0 is
    subnormal or some c_i 2^(s i) would overflow."""
    nonzero = np.flatnonzero(c)
    # |c_i| = f 2^e with 1/2 <= f < 1: normal from e = min_exp, finite to max_exp
    _, e = np.frexp(c[nonzero])
    sub = e < sys.float_info.min_exp
    if not sub.any() or nonzero[0] == 0 and sub[0]:
        return 0
    s = int(np.max((sys.float_info.min_exp - e[sub] - 1) // nonzero[sub] + 1))  # ceil
    return s if np.all(e + s * nonzero <= sys.float_info.max_exp) else 0


def _json_number(x) -> float:
    """A JSON number as a float: an int or a float, but not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"not a JSON number: {x!r}")
    return float(x)


def sequence_from_json(payload: Union[str, dict]) -> BetaEulerSequence:
    """Rebuild a sequence from its JSON export, bit-exact in g.

    Only "beta", "m" and "g" are read: the "raw" entries are derived from g,
    so a stale or edited "raw" list cannot disagree with it. json.loads
    accepts NaN and Infinity, but a non-finite g entry raises ValueError, as
    does a payload that is not an object or lacks a field or has one that is
    not a JSON number or list of them (a bool or a numeric string is not).
    """
    obj = json.loads(payload) if isinstance(payload, str) else payload
    if not isinstance(obj, dict):
        raise ValueError(f"a sequence payload must be a JSON object, got {type(obj).__name__}")
    fields = {}
    for name, read, what in (("beta", _json_number, "a number"), ("m", _json_number, "a number"),
                             ("g", lambda x: [*map(_json_number, x)], "a list of numbers")):
        if name not in obj:
            raise ValueError(f"the sequence payload has no {name!r} field")
        try:
            fields[name] = read(obj[name])
        except (TypeError, OverflowError):
            raise ValueError(f"the payload's {name!r} field must be {what}") from None
    return BetaEulerSequence(**fields)


def majorant_constants(beta: float) -> Tuple[float, float]:
    """Constants (p, q) of the printed majorant |g_{n+1}| <= p q^(n/2) for
    m = 1: p = 1/(4 Gamma(beta+1)) is the first number over its normalizer,
    q = 2p Gamma(2beta+1)/Gamma(3beta+1) the geometric base.
    """
    beta = _check_beta(beta)
    p = 0.25 / gamma_fn(beta + 1.0)
    q = 2.0 * p * math.exp(ln_gamma(2 * beta + 1.0) - ln_gamma(3 * beta + 1.0))
    return p, q


def closed_form_check(seq: BetaEulerSequence) -> Dict[int, float]:
    """Relative residual of the recurrence output against explicit closed
    forms of the 3rd, 5th, 7th and 9th numbers.

    The closed forms are hand-substituted chains of Gamma-function products,
    an evaluation path independent of the convolution loop. Contract: every
    residual <= 1e-10.
    """
    _check_count("n_terms", seq.n_terms, 10, MAX_TERMS)
    beta = seq.beta
    p, _ = majorant_constants(beta)
    g2, g3, g4, g5, g6, g7, g8 = (gamma_fn(k * beta + 1.0) for k in range(2, 9))
    r23 = g2 / g3

    closed = {
        3: -g2 * p**2,
        5: 2.0 * g4 * r23 * p**3,
        7: -4.0 * g6 * (g4 * g2 / (g5 * g3) + 0.25 * r23**2) * p**4,
        9: 8.0
        * g8
        * (
            g6 * g4 * g2 / (g7 * g5 * g3)
            + 0.25 * (g6 / g7) * r23**2
            + 0.5 * (g4 / g5) * r23**2
        )
        * p**5,
    }

    out: Dict[int, float] = {}
    for k, ref in closed.items():
        from_recurrence = seq.g[k] * seq.m**k * gamma_fn(beta * k + 1.0)
        out[k] = abs(from_recurrence - ref) / abs(ref)
    return out


def bound_sequences(seq: BetaEulerSequence) -> BoundSequences:
    """Printed envelope sequences a_n, b_n and the exact-Gamma majorant base.

    Both envelopes and the base bound |E_{n+1} / Gamma((n+1)*beta + 1)| by
    (first coefficient ratio) * base^(n/2); the bounds are stated for the
    normalized sequence, so the input must be built with m = 1.
    """
    if seq.m != 1.0:
        raise ValueError("bound sequences are defined for m = 1 sequences")
    beta = seq.beta
    p, q_majorant = majorant_constants(beta)
    shrink = ((2 * beta + 1) / (3 * beta + 1)) ** (2 * beta + 0.5)
    spread = (3 * beta + 1) ** (beta + 0.5 - EULER_MASCHERONI)
    base_a = (1.0 / 2.0**beta) * shrink * math.exp(beta) / spread
    base_b = (0.5 * shrink * math.exp(2 * beta) / spread
              / (beta + 1) ** (beta + 1 - EULER_MASCHERONI))

    n = np.arange(seq.n_terms, dtype=float)
    a = p * base_a ** (n / 2.0)
    b = p * base_b ** (n / 2.0)
    return BoundSequences(a=_read_only(a), b=_read_only(b), q_majorant=q_majorant)
