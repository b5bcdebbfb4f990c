"""Public surface: every export resolves, the package re-exports exactly
its modules' lists, the value types store only their inputs, and each
computation has one entry point."""

import dataclasses
import importlib
import inspect
import subprocess
import sys

import pytest

import felog
from felog import euler_beta, fracops, specfun
from felog.euler_beta import BetaEulerSequence
from felog.fracops import ResidualReport
from felog.series_solution import RadiusReport, compare_classical
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


def test_second_paths_are_gone():
    assert not hasattr(fracops, "caputo_l1")
    assert not hasattr(BetaEulerSequence, "to_json")
    assert "beta" not in inspect.signature(compare_classical).parameters
    assert not hasattr(specfun, "RationalTriangle")
    assert not hasattr(specfun, "bernoulli_poly")
    assert "beta" not in inspect.signature(bound_predicates).parameters


def test_bound_predicates_needs_x():
    assert inspect.signature(bound_predicates).parameters["x"].default is inspect.Parameter.empty


def test_oracles_take_their_argument_rules_from_the_series():
    # fracops defines no copy of the order rule or of the read-only idiom
    assert fracops._check_beta is euler_beta._check_beta
    assert fracops._check_order is euler_beta._check_order
    assert fracops._read_only is euler_beta._read_only
