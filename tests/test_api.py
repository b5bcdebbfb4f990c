"""Public surface: every export resolves, the package re-exports exactly
its modules' lists, the value types store only their inputs, and each
computation has one entry point."""

import argparse
import ast
import dataclasses
import doctest
import importlib
import inspect
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import felog
from felog import cli, euler_beta, fracops, series_solution, specfun
from felog.euler_beta import (
    BetaEulerSequence,
    bound_sequences,
    build_sequence,
    sequence_from_json,
)
from felog.fracops import QuadratureGrid, ResidualReport, graded_grid, rl_derivative_termwise
from felog.series_solution import RadiusReport, SeriesSolution, compare_classical, radius_report
from felog.specfun import BoundFlags, bound_predicates

LIBRARY = ("felog.specfun", "felog.euler_beta", "felog.series_solution", "felog.fracops")
MODULES = LIBRARY + ("felog.cli",)


@pytest.mark.parametrize("name", ("felog",) + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_is_its_reexports():
    homes = [importlib.import_module(name) for name in LIBRARY]
    assert felog.__all__ == ["__version__"] + [n for home in homes for n in home.__all__]
    assert len(set(felog.__all__)) == len(felog.__all__)
    for home in homes:
        for name in home.__all__:
            assert getattr(felog, name) is getattr(home, name), (home.__name__, name)


def test_package_docstring_runs():
    result = doctest.testmod(felog, optionflags=doctest.ELLIPSIS)
    assert result.failed == 0 and result.attempted > 0


def test_package_import_leaves_out_the_cli():
    code = "import sys, felog; assert 'felog.cli' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_value_types_store_only_their_inputs():
    def fields(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert fields(BetaEulerSequence) == ("beta", "m", "g")
    assert fields(ResidualReport) == ("method", "grid", "residual")
    assert fields(RadiusReport) == ("r_formula_i", "r_formula_ii", "r_guaranteed",
                                    "r_empirical", "m")


def test_report_fields_have_no_defaults():
    for cls in (RadiusReport, BoundFlags):
        for f in dataclasses.fields(cls):
            assert f.default is dataclasses.MISSING, (cls.__name__, f.name)
            assert f.default_factory is dataclasses.MISSING, (cls.__name__, f.name)


def _sequence():
    return build_sequence(0.5, 1.0, 20)


# two records of each type built from equal inputs; each holds an array
ARRAY_RECORDS = {
    "BetaEulerSequence": lambda: (_sequence(), sequence_from_json(_sequence().to_json_dict())),
    "QuadratureGrid": lambda: (graded_grid(1.0, 8, 0.5), graded_grid(1.0, 8, 0.5)),
    "ResidualReport": lambda: tuple(ResidualReport("l1", [0.0, 0.5], [0.0, 1e-9])
                                    for _ in range(2)),
    "EvalResult": lambda: tuple(SeriesSolution(_sequence()).evaluate([0.0, 0.5])
                                for _ in range(2)),
    "RLDerivative": lambda: tuple(rl_derivative_termwise(_sequence()) for _ in range(2)),
    "BoundSequences": lambda: tuple(bound_sequences(_sequence()) for _ in range(2)),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_records_with_arrays_compare_by_identity(name):
    # elementwise == on their arrays has no truth value, so equality is identity
    a, b = ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert a in [a] and a not in [b]
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_reports_of_plain_values_compare_by_value():
    assert radius_report(_sequence()) == radius_report(_sequence())
    assert bound_predicates(0.3) == bound_predicates(0.3)


def test_second_paths_are_gone():
    assert not hasattr(fracops, "caputo_l1")
    assert not hasattr(BetaEulerSequence, "to_json")
    assert "beta" not in inspect.signature(compare_classical).parameters
    assert not hasattr(specfun, "RationalTriangle")
    assert not hasattr(specfun, "bernoulli_poly")
    assert "beta" not in inspect.signature(bound_predicates).parameters
    assert "snap_even" not in inspect.signature(build_sequence).parameters
    assert not hasattr(euler_beta, "EVEN_SNAP_TOL")
    assert not hasattr(series_solution, "_exp")
    assert not hasattr(fracops, "caputo_termwise_array")
    assert not hasattr(fracops, "_reported")
    assert not hasattr(fracops, "_check_cells")
    assert not hasattr(fracops, "_product_midpoint")
    # one home each: sonine_check is the kernel-pair check, and the verify
    # methods are the keys of VERIFY_TOLERANCES
    assert not hasattr(fracops, "sonine_product_quadrature")
    assert not hasattr(fracops, "VERIFY_METHODS")
    # the output depends on the arguments alone
    for name in ("felog",) + MODULES:
        source = inspect.getsource(importlib.import_module(name))
        assert "environ" not in source and "getenv" not in source, name


def test_stepper_has_no_knobs():
    params = inspect.signature(fracops.solve_pc).parameters.values()
    assert [p.name for p in params] == ["beta", "m", "t_end", "h"]
    assert all(p.default is inspect.Parameter.empty for p in params)
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    assert fracops.__all__ == [
        "QuadratureGrid", "ResidualReport", "RLDerivative", "uniform_grid",
        "graded_grid", "make_grid", "caputo_termwise", "rl_derivative_termwise",
        "caputo_l1_all", "fractional_integral_midpoint", "verify", "sonine_check",
        "stable_levy_tail", "levy_tail_laplace", "solve_pc",
    ]


def test_bound_predicates_needs_x():
    assert inspect.signature(bound_predicates).parameters["x"].default is inspect.Parameter.empty


def test_oracles_take_their_argument_rules_from_the_series():
    # fracops defines no copy of the order rule or of the read-only idiom
    assert fracops._check_beta is euler_beta._check_beta
    assert fracops._check_m is euler_beta._check_m
    assert fracops._read_only is euler_beta._read_only
    assert fracops._take_array is euler_beta._take_array
    assert fracops._check_count is euler_beta._check_count


def test_arrays_are_frozen_in_one_place():
    # every read-only array passes through euler_beta._read_only, and every
    # record array through euler_beta._take_array
    for name in MODULES:
        for node in ast.walk(_tree(importlib.import_module(name))):
            if isinstance(node, ast.Attribute) and node.attr in ("setflags", "__setattr__"):
                assert name == "felog.euler_beta", ast.unparse(node)
    assert series_solution._read_only is euler_beta._read_only


def _tree(module):
    return ast.parse(inspect.getsource(module))


def _float_conversions(tree):
    """The np.asarray and np.array calls in ``tree`` that ask for float64."""
    def is_float(node):
        return ((isinstance(node, ast.Name) and node.id == "float")
                or (isinstance(node, ast.Attribute) and node.attr in ("float64", "double")))

    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("asarray", "array")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            and (any(k.arg == "dtype" and is_float(k.value) for k in node.keywords)
                 or (len(node.args) > 1 and is_float(node.args[1])))]


def _caller_input(fn):
    """The names in ``fn`` that hold caller input: its parameters (self holds a
    record's fields) and what a call of _as_real returns."""
    names = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(
                isinstance(c, ast.Call) and ast.unparse(c.func).endswith("_as_real")
                for c in ast.walk(node.value)):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def test_caller_arrays_have_one_intake():
    # every caller array becomes float64 in euler_beta._as_real, which
    # rejects complex input and checks each entry's interval; no other
    # library function asks whether caller input is finite
    homes = []
    for name in MODULES:
        tree = _tree(importlib.import_module(name))
        intakes = [node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_as_real"]
        homes += [name] * len(intakes)
        inside = {id(call) for node in intakes for call in _float_conversions(node)}
        outside = [ast.unparse(call) for call in _float_conversions(tree)
                   if id(call) not in inside]
        assert outside == [], name
    assert homes == ["felog.euler_beta"]
    assert fracops._as_real is euler_beta._as_real
    assert series_solution._as_real is euler_beta._as_real
    for record in (BetaEulerSequence, QuadratureGrid, ResidualReport):
        tree = ast.parse(textwrap.dedent(inspect.getsource(record.__post_init__)))
        assert not any(isinstance(node, ast.Attribute) and node.attr == "isfinite"
                       for node in ast.walk(tree)), record.__name__
    checked = set()
    for name in LIBRARY:
        for fn in ast.walk(_tree(importlib.import_module(name))):
            # _finite_or_null reads felog's outputs on their way to JSON, not
            # caller input, so its isfinite is the null rule, not an intake
            if not isinstance(fn, ast.FunctionDef) or fn.name in ("_as_real", "_finite_or_null"):
                continue
            checked.add(fn.name)
            caller = _caller_input(fn)
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and ast.unparse(call.func).endswith("isfinite"):
                    used = {n.id for a in call.args for n in ast.walk(a)
                            if isinstance(n, ast.Name)}
                    assert not used & caller, (name, fn.name, ast.unparse(call))
    assert {"evaluate", "_classical_curves", "sonine_check", "__post_init__",
            "_take_array"} <= checked


def test_the_null_rule_has_one_home():
    # a non-finite float leaves felog as JSON null by euler_beta._finite_or_null
    # alone: the CLI's emitter and every to_json_dict call it
    homes = [name for name in MODULES
             for node in ast.walk(_tree(importlib.import_module(name)))
             if isinstance(node, ast.FunctionDef) and node.name == "_finite_or_null"]
    assert homes == ["felog.euler_beta"]
    assert cli._finite_or_null is euler_beta._finite_or_null
    assert series_solution._finite_or_null is euler_beta._finite_or_null
    for record in (BetaEulerSequence, RadiusReport, ResidualReport):
        tree = ast.parse(textwrap.dedent(inspect.getsource(record.to_json_dict)))
        assert not any(isinstance(node, ast.Attribute) and node.attr == "isfinite"
                       for node in ast.walk(tree)), record.__name__


def test_oracles_import_nothing_from_the_series_layer():
    # verify reads a solution through three members, so the oracles need no
    # name from the module whose output they check
    for node in ast.walk(_tree(fracops)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            assert not any("series_solution" in n for n in names), ast.unparse(node)


def test_each_rule_has_one_home():
    assert cli.VERIFY_TOLERANCES is fracops.VERIFY_TOLERANCES
    assert "VERIFY_TOLERANCES" not in fracops.__all__
    assert cli.MAX_TERMS is euler_beta.MAX_TERMS
    # the normal-range cut and Horner's scale live in euler_beta, the only
    # module that reads sys.float_info
    for rule in ("_normal_odd", "_horner_scale"):
        homes = [name for name in MODULES
                 if any(isinstance(node, ast.FunctionDef) and node.name == rule
                        for node in ast.walk(_tree(importlib.import_module(name))))]
        assert homes == ["felog.euler_beta"], rule
        assert getattr(series_solution, rule) is getattr(euler_beta, rule)
    assert not hasattr(series_solution, "sys")


def test_each_count_has_one_check():
    # specfun._check_count alone spells the integer-range rule, for the
    # Euler-number indices as for terms, cells and steps, and the CLI leaves
    # each count to the code that sizes an array with it
    homes = [(name, fn.name) for name in MODULES
             for fn in ast.walk(_tree(importlib.import_module(name)))
             if isinstance(fn, ast.FunctionDef)
             and any(isinstance(c, ast.Constant) and "must be an integer from" in str(c.value)
                     for c in ast.walk(fn))]
    assert homes == [("felog.specfun", "_check_count")]
    for module in (euler_beta, fracops, cli):
        assert module._check_count is specfun._check_count, module.__name__
    assert euler_beta.MAX_TERMS is specfun.MAX_TERMS and cli.MAX_TERMS is specfun.MAX_TERMS
    assert "must be >= 0" not in inspect.getsource(specfun)
    names = {node.id for node in ast.walk(_tree(cli.main)) if isinstance(node, ast.Name)}
    assert not names & {"MAX_TERMS", "MAX_STEPS"}


def test_each_real_has_one_rule():
    # specfun._check_real alone spells the real-argument rule; every other
    # module holds that one function, and the helpers it replaced are gone
    homes = [(name, fn.name) for name in MODULES
             for fn in ast.walk(_tree(importlib.import_module(name)))
             if isinstance(fn, ast.FunctionDef)
             and any(isinstance(c, ast.Constant) and "must lie in" in str(c.value)
                     for c in ast.walk(fn))]
    assert homes == [("felog.specfun", "_check_real")]
    for module in (euler_beta, fracops, series_solution, cli):
        assert module._check_real is specfun._check_real, module.__name__
    assert not hasattr(fracops, "_check_positive")
    assert not hasattr(euler_beta, "_check_order") and not hasattr(fracops, "_check_order")
    for name in MODULES:
        source = inspect.getsource(importlib.import_module(name))
        for old in ("requires 0 <", "requires finite", "requires beta", "needs beta strictly",
                    "must be >= 1", "t0 and t1 must be", "tol must be finite",
                    # the array rules that _as_real's interval replaced
                    "t must be finite", "t must be >= 0", "t grid must lie within",
                    "t values must be finite and positive", "residual entries must be >= 0",
                    "must be finite, got {name}["):
            assert old not in source, (name, old)


def test_the_rule_layer_imports_no_numpy():
    # specfun is the bottom layer: exact rationals and the standard library
    imported = [alias.name for node in ast.walk(_tree(specfun))
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(_tree(specfun))
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert imported and not any(name.split(".")[0] == "numpy" for name in imported)


@pytest.mark.parametrize("n", (True, 3, np.int64(3), np.uint8(3), np.int32(3), np.bool_(True),
                               3.0, np.float64(3.0), Fraction(3), np.array(3)), ids=repr)
def test_a_count_is_what_numpy_counts_as_an_integer(n):
    # numbers.Integral keeps specfun numpy-free and draws numpy's own line
    try:
        specfun._check_count("n", n, 0, 5)
    except ValueError as exc:
        assert str(exc) == f"n must be an integer from 0 to 5, got {n!r}"
        accepted = False
    else:
        accepted = True
    assert accepted == isinstance(n, (int, np.integer))


def test_the_default_term_count_has_one_home():
    # euler_beta alone spells the number, and exports it nowhere
    default = euler_beta.DEFAULT_TERMS
    assert "DEFAULT_TERMS" not in euler_beta.__all__ and not hasattr(felog, "DEFAULT_TERMS")
    homes = [name for name in MODULES
             if any(isinstance(node, ast.Constant) and type(node.value) is int
                    and node.value == default
                    for node in ast.walk(_tree(importlib.import_module(name))))]
    assert homes == ["felog.euler_beta"]
    for fn in (build_sequence, SeriesSolution.build, compare_classical):
        assert inspect.signature(fn).parameters["n_terms"].default == default, fn
    parser = cli._build_parser()
    assert [parser.parse_args([name]).n_terms for name in cli._COMMANDS] == [default] * 5


def test_compare_takes_no_beta():
    # the closed form exists at beta = 1 alone: no flag, no check, and the
    # payload still carries the order
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    without = [name for name, sub in commands.choices.items()
               if not any("--beta" in a.option_strings for a in sub._actions)]
    assert without == ["compare"]
    assert parser.parse_args(["compare"]).beta == 1.0
    assert "args.beta" not in inspect.getsource(cli.cmd_compare)


def test_the_gamma_ratios_have_one_home():
    # Gamma(beta*k + 1) / Gamma(beta*k + beta + 1) is formed in euler_beta
    # alone, and the termwise check holds that one function; ln_gamma's rule
    # (log(math.gamma) or math.lgamma) is in specfun alone
    homes = [name for name in MODULES
             if any(isinstance(node, ast.FunctionDef) and node.name == "_gamma_ratios"
                    for node in ast.walk(_tree(importlib.import_module(name))))]
    assert homes == ["felog.euler_beta"]
    assert fracops._gamma_ratios is euler_beta._gamma_ratios
    readers = {name for name in MODULES
               for node in ast.walk(_tree(importlib.import_module(name)))
               if isinstance(node, ast.Attribute) and ast.unparse(node) in ("math.gamma",
                                                                           "math.lgamma")
               or isinstance(node, ast.ImportFrom) and node.module == "math"
               and {a.name for a in node.names} & {"gamma", "lgamma"}}
    assert readers == {"felog.specfun"}


def test_no_test_sets_the_global_mpmath_precision():
    # an assigned mp.dps (or mp.prec) holds for every later mpmath call in the
    # run, so results would hang on test order; tests use mpmath.workdps
    for path in sorted(Path(__file__).resolve().parent.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        targets = [t for node in nodes if isinstance(node, ast.Assign) for t in node.targets]
        targets += [node.target for node in nodes
                    if isinstance(node, (ast.AugAssign, ast.AnnAssign))]
        assert not [ast.unparse(t) for t in targets
                    if isinstance(t, ast.Attribute) and t.attr in ("dps", "prec")], path.name


def test_acceptance_criteria_are_never_skipped():
    # a failing criterion must show as a failure, never as a skip or an xfail
    text = (Path(__file__).resolve().parent / "test_acceptance.py").read_text(encoding="utf-8")
    assert "skip" not in text and "xfail" not in text


def _real_arrays(dtype):
    finite = {"allow_nan": False, "allow_infinity": False} if dtype.startswith("float") else {}
    return hnp.arrays(dtype, st.integers(1, 16),
                      elements=hnp.from_dtype(np.dtype(dtype), **finite))


REAL_INPUT = st.one_of(
    st.sampled_from(["float64", "float32", "int64", "bool"]).flatmap(_real_arrays),
    st.lists(st.floats(allow_nan=False, allow_infinity=False)
             | st.integers(-2**63, 2**64) | st.booleans(), min_size=1, max_size=16),
)


@settings(max_examples=200, deadline=None)
@given(REAL_INPUT)
def test_real_input_is_read_as_numpy_reads_it(x):
    want = np.array(x, dtype=float)
    got = euler_beta._as_real(x, "x")
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    report = ResidualReport("l1", x, np.zeros(len(x)))
    assert report.grid.tobytes() == want.tobytes()
