"""The tree-comparison harness, tools/compare_trees.py: a tree is identical
to itself, and a one-ulp move is named by its case and field."""

import copy
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_trees.py"

_spec = importlib.util.spec_from_file_location("compare_trees", TOOL)
compare_trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_trees)


def test_a_tree_is_identical_to_itself():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--cases", "10"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["cli: identical (10 cases)",
                                        "library: identical (10 cases)",
                                        "demos: identical (5 cases)",
                                        "claims: identical (10 cases)"]


def _records(g5, text):
    g = [0.5, 0.25, 0.0, -0.01, 0.0, g5]
    return {"library": [["a", {"g": [x.hex() for x in g]}], ["b", {"g": [0.5.hex()]}]],
            "cli": [["coeffs", {"stdout": text, "code": 0}]]}


def test_a_one_ulp_move_is_named_by_case_and_field():
    g5 = 1.0e-3
    old = _records(g5, "k,g_k\n0,0.5\n1,0.001\n")
    new = _records(math.nextafter(g5, 1.0), "k,g_k\n0,0.5\n1,0.0010000000000000002\n")
    lines, same = compare_trees.compare(old, new)
    assert not same
    move = f"{(math.nextafter(g5, 1.0) - g5) / math.nextafter(g5, 1.0):.3g}"
    assert lines == [
        "library: 1 of 2 cases moved",
        f"  g: moved in 1 of 2 cases, largest relative move {move} in case 'a' at g[5]",
        "cli: 1 of 1 cases moved",
        f"  coeffs stdout: moved in 1 of 1 cases, largest relative move {move} in case "
        "'coeffs' at stdout (number 3)",
    ]
    assert compare_trees.compare(old, old) == (["library: identical (2 cases)",
                                                "cli: identical (1 cases)"], True)


def test_a_changed_text_or_shape_is_an_infinite_move():
    old = {"cli": [["x", {"stdout": "error: a\n", "code": 2}]]}
    new = {"cli": [["x", {"stdout": "error: b\n", "code": 2}]]}
    assert compare_trees.compare(old, new)[0] == [
        "cli: 1 of 1 cases moved",
        "  x stdout: moved in 1 of 1 cases, largest relative move inf in case 'x' at stdout"]
    assert list(compare_trees._moves({"g": ["0x1.0p+0"]}, {"g": []}, "")) == [
        ("g (length 1 -> 0)", math.inf)]
    assert list(compare_trees._moves("0x0.0p+0", "-0x0.0p+0", "w")) == [("w", 0.0)]
    # a case that one tree lacks, such as a new demo, moved as a whole
    assert compare_trees.compare({"demos": []}, {"demos": [["06.py", {"stdout": ""}]]})[0] == [
        "demos: 1 of 1 cases moved",
        "  (all): moved in 1 of 1 cases, largest relative move inf in case '06.py' at (all)"]


def test_each_moved_field_has_its_own_line():
    # a move of 1 in a rounding-level field does not hide g's small ones;
    # g's cases add up, and its line names the case of its largest move
    def library(g, residual):
        return [[label, {"g": [0.5.hex(), x.hex()], "termwise": {"residual": [r.hex()]}}]
                for label, x, r in zip("ab", g, residual)]

    def cli(sup):
        return [[f"verify --beta 1 --method {method}", {"stdout": {"sup_norm": x.hex()}}]
                for method, x in zip(("l1", "pc"), sup)]

    old = {"library": library((0.25, 0.125), (1e-17, 2e-17)), "cli": cli((1e-5, 2e-6))}
    new = {"library": library((0.25 * (1 + 2**-40), 0.125 * (1 + 2**-45)), (3e-17, 2e-17)),
           "cli": cli((1e-5, 3e-6))}
    lines, same = compare_trees.compare(old, new)
    assert not same
    move_a, move_r = f"{1 - 1 / (1 + 2**-40):.3g}", f"{2e-17 / 3e-17:.3g}"
    assert lines == [
        "library: 2 of 2 cases moved",
        f"  g: moved in 2 of 2 cases, largest relative move {move_a} in case 'a' at g[1]",
        f"  termwise.residual: moved in 1 of 2 cases, largest relative move {move_r} in case "
        "'a' at termwise.residual[0]",
        "cli: 1 of 2 cases moved",
        "  verify pc stdout.sup_norm: moved in 1 of 2 cases, largest relative move 0.333 in "
        "case 'verify --beta 1 --method pc' at stdout.sup_norm",
    ]


def test_a_json_stdout_has_a_field_for_each_key():
    # a one-ulp move in g is reported under g alone, apart from log10_mag;
    # a CSV stdout stays one text
    argv = ["coeffs", "--beta", "0.7", "-n", "8", "--format"]
    assert isinstance(compare_trees._run_cli(argv + ["csv"])["stdout"], str)
    label = " ".join(argv + ["json"])
    old = compare_trees._run_cli(argv + ["json"])
    new = copy.deepcopy(old)
    assert sorted(old["stdout"]) == ["beta", "g", "m", "raw"]
    g3 = float.fromhex(old["stdout"]["g"][3])  # -0.043, so one ulp up is smaller
    new["stdout"]["g"][3] = math.nextafter(g3, math.inf).hex()
    move = f"{(math.nextafter(g3, math.inf) - g3) / -g3:.3g}"
    assert compare_trees.compare({"cli": [[label, old]]}, {"cli": [[label, new]]})[0] == [
        "cli: 1 of 1 cases moved",
        f"  coeffs stdout.g: moved in 1 of 1 cases, largest relative move {move} in case "
        f"'{label}' at stdout.g[3]"]
