"""Every Python source of the project parses under the oldest Python that
pyproject.toml allows, so a construct newer than that floor fails here, on
any interpreter, and not only on the CI leg that runs the floor itself."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "bench", "demos", "tools")
                 for path in (ROOT / top).rglob("*.py")) + [ROOT / "conftest.py"]


def _floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_the_sources_are_found():
    assert len(SOURCES) >= 27 and ROOT / "src" / "felog" / "cli.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_source_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_floor())
