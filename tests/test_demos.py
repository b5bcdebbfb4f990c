"""Smoke test: every demo script runs to completion and prints its report,
and every ``python`` block of README.md runs.

The demos and the README call the public API the way a user would, so a
renamed or removed name or parameter shows up here.
"""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda b: b.splitlines()[0])
def test_readme_block_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
