"""The argument tables. The real-argument rule: every scalar argument of every
public function and record enters through specfun._check_real, so any real type
reads as the float it holds (the exact layer as its exact value) and anything
else, a value outside its interval included, is one ValueError that names the
parameter. An array's least and greatest entries enter through the same rule,
and INTAKES holds every way a caller's array enters felog. A per-module test
adds a refusal only where it checks more than these tables do."""

import json
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from felog.euler_beta import (BetaEulerSequence, _as_real, build_sequence, majorant_constants,
                              sequence_from_json)
from felog.fracops import (QuadratureGrid, ResidualReport, caputo_l1_all,
                           fractional_integral_midpoint, graded_grid, levy_tail_laplace, solve_pc,
                           sonine_check, stable_levy_tail, uniform_grid)
from felog.series_solution import (SeriesSolution, compare_classical, remark_bound,
                                   remark_bound_pole, remark_radius)
from felog.specfun import (BoundFlags, _check_real, bernoulli_poly_exact, beta_fn,
                           bound_predicates, euler_poly, euler_poly_exact, gamma_fn, ln_gamma)

INF = math.inf


class Pair(NamedTuple):
    """One scalar parameter of one callable: ``call`` takes that argument
    alone, and ``inside`` and ``integer`` (None if none is) lie in its interval."""

    call: Callable
    name: str
    lo: float
    hi: float
    ends: str
    inside: Fraction
    integer: Optional[int]
    exact: Optional[Callable] = None  # the exact layer's value at a rational


def _g(beta, m):
    """Coefficients a record at (beta, m) accepts, or any two when there are none."""
    try:
        return build_sequence(float(beta), float(m), 16).g
    except (TypeError, ValueError, OverflowError):
        return np.array([0.5, 0.25])


def _b3(x):
    return x**3 - Fraction(3, 2) * x**2 + x / 2


def _e3(x):
    return x**3 - Fraction(3, 2) * x**2 + Fraction(1, 4)


def _rounded(q):
    """The float nearest the rational q, or +-inf past the double range."""
    try:
        return float(q)
    except OverflowError:
        return INF if q > 0 else -INF


NODES = np.linspace(0.0, 1.0, 5)
BETA = (0, 1, "(]")
STRICT = (0, 1, "()")
POSITIVE = (0, INF, "()")
REAL = (-INF, INF, "()")
RATE = (1, INF, "[)")
TIME = (0, INF, "[)")
PAIRS = {
    "ln_gamma-x": Pair(ln_gamma, "x", *POSITIVE, Fraction(7, 10), 3),
    "gamma_fn-x": Pair(gamma_fn, "x", *POSITIVE, Fraction(7, 10), 3),
    "beta_fn-x": Pair(lambda v: beta_fn(v, 2.5), "x", *POSITIVE, Fraction(7, 10), 3),
    "beta_fn-y": Pair(lambda v: beta_fn(2.5, v), "y", *POSITIVE, Fraction(7, 10), 3),
    "bound_predicates-x": Pair(lambda v: bound_predicates(v, 2.0), "x", *REAL,
                               Fraction(13, 10), 2),
    "bound_predicates-y": Pair(lambda v: bound_predicates(2.0, v), "y", *REAL,
                               Fraction(13, 10), 2),
    "bernoulli_poly_exact-x": Pair(lambda v: bernoulli_poly_exact(3, v), "x", *REAL,
                                   Fraction(1, 3), 3, _b3),
    "euler_poly_exact-x": Pair(lambda v: euler_poly_exact(3, v), "x", *REAL,
                               Fraction(1, 3), 3, _e3),
    "euler_poly-x": Pair(lambda v: euler_poly(3, v), "x", *REAL, Fraction(1, 3), 3,
                         lambda x: _rounded(_e3(x))),
    "build_sequence-beta": Pair(lambda v: build_sequence(v, 1.5, 16), "beta", *BETA,
                                Fraction(7, 10), 1),
    "build_sequence-m": Pair(lambda v: build_sequence(0.7, v, 16), "m", *RATE,
                             Fraction(13, 10), 2),
    "BetaEulerSequence-beta": Pair(lambda v: BetaEulerSequence(v, 1.5, _g(v, 1.5)), "beta",
                                   *BETA, Fraction(7, 10), 1),
    "BetaEulerSequence-m": Pair(lambda v: BetaEulerSequence(0.7, v, _g(0.7, v)), "m", *RATE,
                                Fraction(13, 10), 2),
    "majorant_constants-beta": Pair(majorant_constants, "beta", *BETA, Fraction(7, 10), 1),
    "SeriesSolution.build-beta": Pair(lambda v: SeriesSolution.build(v, 1.5, 24), "beta",
                                      *BETA, Fraction(7, 10), 1),
    "SeriesSolution.build-m": Pair(lambda v: SeriesSolution.build(0.7, v, 24), "m", *RATE,
                                   Fraction(13, 10), 2),
    "compare_classical-m": Pair(lambda v: compare_classical(v, NODES, 24), "m", *RATE,
                                Fraction(13, 10), 2),
    "remark_radius-beta": Pair(remark_radius, "beta", 0.5, 1, "(]", Fraction(7, 10), 1),
    "remark_bound_pole-beta": Pair(remark_bound_pole, "beta", 0.5, 1, "(]",
                                   Fraction(7, 10), 1),
    "remark_bound-beta": Pair(lambda v: remark_bound(v, 0.5), "beta", 0.5, 1, "(]",
                              Fraction(7, 10), 1),
    "remark_bound-t": Pair(lambda v: remark_bound(0.7, v), "t", 0, remark_radius(0.7), "[)",
                           Fraction(1, 2), 1),
    "QuadratureGrid-beta": Pair(lambda v: QuadratureGrid(NODES, v), "beta", *BETA,
                                Fraction(7, 10), 1),
    "uniform_grid-t1": Pair(lambda v: uniform_grid(v, 8, 0.7), "t1", *POSITIVE,
                            Fraction(13, 10), 2),
    "uniform_grid-beta": Pair(lambda v: uniform_grid(1.0, 8, v), "beta", *BETA,
                              Fraction(7, 10), 1),
    "graded_grid-t1": Pair(lambda v: graded_grid(v, 8, 0.7), "t1", *POSITIVE,
                           Fraction(13, 10), 2),
    "graded_grid-beta": Pair(lambda v: graded_grid(1.0, 8, v), "beta", *BETA,
                             Fraction(7, 10), 1),
    "sonine_check-beta": Pair(lambda v: sonine_check(v, [0.5, 1.0]), "beta", *STRICT,
                              Fraction(3, 10), None),
    "stable_levy_tail-beta": Pair(lambda v: stable_levy_tail(v, 2.0), "beta", *STRICT,
                                  Fraction(3, 10), None),
    "stable_levy_tail-z": Pair(lambda v: stable_levy_tail(0.3, v), "z", *POSITIVE,
                               Fraction(13, 10), 2),
    "levy_tail_laplace-beta": Pair(lambda v: levy_tail_laplace(v, 2.0), "beta", *STRICT,
                                   Fraction(3, 10), None),
    "levy_tail_laplace-lam": Pair(lambda v: levy_tail_laplace(0.3, v), "lam", *POSITIVE,
                                  Fraction(13, 10), 2),
    "solve_pc-beta": Pair(lambda v: solve_pc(v, 1.5, 0.3, 1 / 64), "beta", *BETA,
                          Fraction(7, 10), 1),
    "solve_pc-m": Pair(lambda v: solve_pc(0.7, v, 0.3, 1 / 64), "m", *RATE,
                       Fraction(13, 10), 2),
    "solve_pc-t_end": Pair(lambda v: solve_pc(0.7, 1.5, v, 1 / 64), "t_end", *POSITIVE,
                           Fraction(3, 10), 1),
    "solve_pc-h": Pair(lambda v: solve_pc(0.7, 1.5, 0.3, v), "h", *POSITIVE,
                       Fraction(1, 50), 1),
}


def _bits(value):
    """``value`` in a form that compares equal only for the same types and bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if isinstance(value, BetaEulerSequence):
        return _bits((value.beta, value.m, value.g))
    if isinstance(value, QuadratureGrid):
        return _bits((value.beta, value.nodes))
    if isinstance(value, SeriesSolution):
        res = value.evaluate(NODES)
        return _bits((value.seq, value.domain_edge, value(0.5), res.w, res.tail_bound))
    if type(value) is float:
        return value.hex()
    assert type(value) in (Fraction, BoundFlags), type(value)
    return value


def _accepted(pair):
    """(id, value) for each real type whose value lies inside the pair's interval."""
    out = [("float32", np.float32(pair.inside)), ("float16", np.float16(pair.inside)),
           ("Fraction", pair.inside), ("float64", np.float64(pair.inside))]
    if pair.integer is not None:
        out += [("int64", np.int64(pair.integer)), ("int", pair.integer)]
    if _inside(pair, 1):
        out.append(("bool", True))
    return out


def _inside(pair, v):
    return ((pair.lo < v or pair.lo == v and pair.ends[0] == "[")
            and (v < pair.hi or v == pair.hi and pair.ends[1] == "]"))


def _cases(kinds):
    return [pytest.param(key, value, id=f"{key}-{kind}")
            for key, pair in PAIRS.items() for kind, value in kinds(pair)]


def test_the_table_holds_every_scalar_parameter():
    assert len(PAIRS) == 35


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", _cases(_accepted))
def test_every_real_type_reads_as_its_float(key, value):
    pair = PAIRS[key]
    got = _bits(pair.call(value))
    if pair.exact is not None and isinstance(value, (int, Fraction)):
        assert got == _bits(pair.exact(Fraction(value)))
    else:
        assert got == _bits(pair.call(float(value)))


def _refused(pair):
    """(id, value) for each value the rule refuses at this pair."""
    out = [("str", str(float(pair.inside))), ("complex", complex(float(pair.inside), 0.0)),
           ("0-d array", np.array(float(pair.inside))), ("nan", math.nan),
           ("float32 nan", np.float32("nan"))]
    if pair.name != "y":  # None omits bound_predicates' y
        out.append(("None", None))
    if pair.exact is None:  # the exact layer takes an int of any size
        out.append(("10**400", 10**400))
    if pair.ends[0] == "(":
        out.append(("lower end", pair.lo))
    if pair.ends[1] == ")":
        out.append(("upper end", pair.hi))
    # beyond each finite end, open or closed: one step past it, and the infinity
    if pair.lo > -INF:
        out += [("below lower end", pair.lo - 1), ("-inf", -INF)]
    if pair.hi < INF:
        out += [("above upper end", pair.hi + 1), ("inf", INF)]
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", _cases(_refused))
def test_anything_else_is_one_value_error_naming_the_parameter(key, value):
    pair = PAIRS[key]
    with pytest.raises(ValueError) as exc:
        pair.call(value)
    lo, hi = pair.ends
    assert str(exc.value) == (f"{pair.name} must lie in {lo}{pair.lo}, {pair.hi}{hi}, "
                              f"got {value!r}")


@pytest.mark.parametrize("key", [key for key, pair in PAIRS.items() if "[" in pair.ends
                                 or "]" in pair.ends])
def test_each_closed_end_is_accepted(key):
    pair = PAIRS[key]
    end = pair.lo if pair.ends[0] == "[" else pair.hi
    assert _bits(pair.call(end)) == _bits(pair.call(float(end)))


@pytest.mark.parametrize("key", [key for key, pair in PAIRS.items() if pair.exact is not None])
@pytest.mark.parametrize("x", (10**400, -(10**400), Fraction(10**400, 3), Fraction(1, 10**400)),
                         ids=("10**400", "-10**400", "10**400/3", "10**-400"))
def test_the_exact_layer_takes_any_rational_exactly(key, x):
    pair = PAIRS[key]
    assert pair.call(x) == pair.exact(Fraction(x))


def test_none_omits_the_second_bound_point():
    assert bound_predicates(2.0, None) == bound_predicates(2.0)


class TestRecords:
    @pytest.fixture
    def seq(self):
        beta = np.float32(0.5)
        return BetaEulerSequence(beta, np.float32(1.5), build_sequence(float(beta), 1.5, 32).g)

    def test_scalar_fields_are_python_floats(self, seq):
        grid = QuadratureGrid(NODES, np.float32(0.7))
        assert type(seq.beta) is float and type(seq.m) is float and type(grid.beta) is float
        assert type(build_sequence(np.float16(0.5), np.int64(2), 8).m) is float

    def test_float32_built_record_round_trips_through_json(self, seq):
        back = sequence_from_json(json.dumps(seq.to_json_dict()))
        assert _bits(back) == _bits(seq)

    @pytest.mark.parametrize("t", (0.25, 0.5, 0.75, 1.0))
    def test_float32_built_record_scalar_equals_array(self, seq, t):
        sol = SeriesSolution(seq)
        assert sol(t) == sol.evaluate([t]).w[0]

    def test_float32_order_accepts_the_coefficients_of_its_float(self):
        beta = np.float32(0.7)
        g = build_sequence(float(beta), 1.0, 64).g
        assert BetaEulerSequence(beta, 1.0, g).beta == float(beta)


@pytest.mark.parametrize("beta", (0.3, 0.5, 0.9))
def test_float32_order_steps_in_double(beta):
    # h**beta and beta + 1 in float32 put u 8.3e-5 off at beta = .3
    t_end = 0.7 * SeriesSolution.build(float(np.float32(beta)), 1.0).domain_edge
    _, u = solve_pc(np.float32(beta), 1, t_end, 1e-3)
    _, ref = solve_pc(float(np.float32(beta)), 1.0, t_end, 1e-3)
    assert u.tobytes() == ref.tobytes()


# every interval an array intake reads: finite (the default), sonine_check's
# t_grid, evaluate's t and the residual, and compare_classical's t_grid at
# m = 1.5; (0, 1] stands for the closed upper end
INTERVALS = {"finite": REAL, "positive": POSITIVE, "t": TIME, "order": BETA,
             "classical": (0, math.pi * 1.5, "[)")}


def _refusal(name, x, interval):
    """_check_real's message for x, or None if it accepts x."""
    try:
        _check_real(name, x, *interval)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("interval", INTERVALS.values(), ids=INTERVALS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_an_array_lies_in_an_interval_when_each_entry_does(interval, data):
    # the array intake reads the least and greatest entries through the
    # scalar rule, so it must agree with that rule applied to every entry
    lo, hi, _ = interval
    special = st.sampled_from([0.0, -0.0, float(lo), float(hi), INF, -INF, math.nan,
                               5e-324, -5e-324, 1e-310, 1.0])
    entry = special | st.floats()
    x = data.draw(entry | st.lists(entry, max_size=50))
    entries = {"x": x} if isinstance(x, float) else {f"x[{k}]": v for k, v in enumerate(x)}
    refusals = {name: _refusal(name, v, interval) for name, v in entries.items()}
    try:
        arr = _as_real(x, "x", *interval)
    except ValueError as exc:
        named = str(exc).partition(" must lie in ")[0]
        assert refusals[named] == str(exc)
    else:
        assert not any(refusals.values())
        assert arr.tobytes() == np.array(x, dtype=float).tobytes()


def _sequence():
    """A valid record of 20 coefficients, g_0 to g_19."""
    return build_sequence(0.5, 1.0, 20)


def _grid():
    return graded_grid(1.0, 8, 0.5)


class Intake(NamedTuple):
    """One way a caller's array enters felog: ``call`` puts one entry v at
    index ``at`` (None: v is the argument) of an input that is valid for
    v = 0.5, and each entry must lie in ``interval``. A refusal names the
    entry by ``name``, or by g for a payload's field (``name`` None)."""

    call: Callable
    name: Optional[str]
    at: Optional[int]
    interval: tuple = REAL


INTAKES = {
    "BetaEulerSequence.g": Intake(lambda v: BetaEulerSequence(0.5, 1.0, [*_sequence().g, v]),
                                  "g", 20),
    "QuadratureGrid.nodes": Intake(lambda v: QuadratureGrid([0.0, 0.25, v], 0.5), "nodes", 2),
    "ResidualReport.grid": Intake(lambda v: ResidualReport("l1", [0.1, v], [0.0, 0.0]),
                                  "grid", 1),
    "ResidualReport.residual": Intake(lambda v: ResidualReport("l1", [0.1, 0.2], [v, 0.0]),
                                      "residual", 0, TIME),
    "sequence_from_json": Intake(lambda v: sequence_from_json(
        {"beta": 0.5, "m": 1.0, "g": [*_sequence().g.tolist(), v]}), None, 20),
    "evaluate, array": Intake(lambda v: SeriesSolution(_sequence()).evaluate([0.1, v]), "t", 1,
                              TIME),
    "evaluate, scalar": Intake(lambda v: SeriesSolution(_sequence()).evaluate(v), "t", None,
                               TIME),
    "compare_classical": Intake(lambda v: compare_classical(1.0, [0.1, v]), "t_grid", 1,
                                (0, math.pi, "[)")),
    "caputo_l1_all": Intake(lambda v: caputo_l1_all([0.5] * 8 + [v], _grid()), "w_values", 8),
    "fractional_integral_midpoint": Intake(lambda v: fractional_integral_midpoint(
        [0.5] * 7 + [v], _grid()), "f_mid", 7),
    "sonine_check": Intake(lambda v: sonine_check(0.5, [1.0, v]), "t_grid", 1, POSITIVE),
}

# a payload's fields are JSON, so sequence_from_json names its field instead
PAYLOAD_G = "the payload's 'g' field must be a list of numbers"


@pytest.mark.parametrize("site", INTAKES)
def test_each_intake_case_is_valid_with_a_real_entry(site):
    INTAKES[site].call(0.5)


@pytest.mark.parametrize("site", INTAKES)
@pytest.mark.parametrize("z", (1j, 0j))
def test_complex_input_is_rejected_by_name(site, z):
    # numpy kept the real part and dropped the rest with only a warning; a
    # complex dtype is refused even where every imaginary part is zero
    call, name, _, _ = INTAKES[site]
    with pytest.raises(ValueError) as exc:
        call(0.5 + z)
    assert str(exc.value) == (f"{name} must be real, got complex128" if name else PAYLOAD_G)


def _outside(intake):
    """(id, entry) for each entry the intake refuses: each non-finite one,
    each open finite end, and one step beyond each finite end."""
    lo, hi, ends = intake.interval
    out = [("nan", math.nan), ("inf", INF), ("-inf", -INF)]
    if lo > -INF and ends[0] == "(":
        out.append(("lower end", float(lo)))
    if hi < INF and ends[1] == ")":
        out.append(("upper end", float(hi)))
    if lo > -INF:
        out.append(("below lower end", lo - 1.0))
    if hi < INF:
        out.append(("above upper end", hi + 1.0))
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site, entry", [pytest.param(site, entry, id=f"{site}-{kind}")
                                         for site, intake in INTAKES.items()
                                         for kind, entry in _outside(intake)])
def test_an_entry_outside_its_interval_is_refused_by_name(site, entry):
    # every intake reads through _as_real's interval, finite at least, and
    # names the entry: an array's by its index, a scalar t by its name
    call, name, at, (lo, hi, ends) = INTAKES[site]
    with pytest.raises(ValueError) as exc:
        call(entry)
    named = name or "g"
    named += "" if at is None else f"[{at}]"
    assert str(exc.value) == f"{named} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {entry!r}"


@pytest.mark.parametrize("site", INTAKES)
@pytest.mark.parametrize("big", (10**400, -(10**309)), ids=("1e400", "-1e309"))
def test_an_integer_past_the_double_range_is_rejected_by_name(site, big):
    # numpy raised OverflowError: int too large to convert to float
    call, name, _, _ = INTAKES[site]
    with pytest.raises(ValueError) as exc:
        call(big)
    message = f"{name} must be finite, got an integer past the double range"
    assert str(exc.value) == (message if name else PAYLOAD_G)
