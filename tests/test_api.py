"""Public surface: every export resolves, the package re-exports exactly
its modules' lists, and the value types store only their inputs."""

import dataclasses
import importlib
import subprocess
import sys

import pytest

import felog
from felog.euler_beta import BetaEulerSequence
from felog.fracops import ResidualReport
from felog.series_solution import RadiusReport

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
