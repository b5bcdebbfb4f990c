"""Public surface: every export resolves, the package re-exports exactly
what it lists, and the value types store only their inputs."""

import ast
import dataclasses
import importlib
import pathlib

import pytest

import felog
from felog.euler_beta import BetaEulerSequence
from felog.fracops import ResidualReport
from felog.series_solution import RadiusReport

MODULES = ("felog.specfun", "felog.euler_beta", "felog.series_solution", "felog.fracops",
           "felog.cli")


def _reexports():
    """(home module, name) for each name ``felog/__init__.py`` imports."""
    tree = ast.parse(pathlib.Path(felog.__file__).read_text(encoding="utf-8"))
    return [("felog." + node.module, alias.asname or alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


@pytest.mark.parametrize("name", ("felog",) + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_is_its_reexports():
    names = [name for _, name in _reexports()]
    assert sorted(felog.__all__) == sorted(names + ["__version__"])
    for home, name in _reexports():
        assert name in importlib.import_module(home).__all__, (home, name)


def test_value_types_store_only_their_inputs():
    def fields(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert fields(BetaEulerSequence) == ("beta", "m", "g")
    assert fields(ResidualReport) == ("method", "grid", "residual")
    assert fields(RadiusReport) == ("r_formula_i", "r_formula_ii", "r_guaranteed",
                                    "r_empirical", "m")
