"""tools/kernel_ab.py on the seed-1 `corridor_apf` queries: a tree against
itself, and against copies whose kernels differ."""

import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from kernel_ab import main  # noqa: E402


def figures(text):
    calls = int(re.search(r"(\d+) closest-pair calls", text)[1])
    cut = tuple(map(int, re.search(r"cut rows: parent (\d+), change (\d+)", text).groups()))
    differing = int(re.search(r"rows differing: (\d+) of", text)[1])
    ratio = float(re.search(r"change/parent ([\d.]+)", text)[1])
    return calls, cut, differing, ratio


def test_same_tree_twice_differs_nowhere(capsys):
    assert main([str(ROOT), str(ROOT), "--rounds", "2"]) == 0
    calls, (cut_parent, cut_change), differing, ratio = figures(capsys.readouterr().out)
    assert calls > 0 and differing == 0
    assert cut_parent == cut_change > 0  # the controller passes its activation radius
    assert ratio > 0.0


def copy_tree(tmp_path):
    tree = tmp_path / "tree"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tree, tree / "src" / "apfmpc" / "geometry.py"


def test_a_cut_row_with_a_gap_is_caught(tmp_path, capsys):
    # the field reads no gap beyond its radius, so the closed loop is the
    # same, but the kernel's rows are not
    tree, geometry = copy_tree(tmp_path)
    text = geometry.read_text()
    beyond = "_BEYOND = ClosestPair(inf, 0.0, 0.0)"
    assert beyond in text
    geometry.write_text(text.replace(beyond, "_BEYOND = ClosestPair(inf, 1.0, 0.0)"))
    assert main([str(ROOT), str(tree), "--rounds", "2"]) == 1
    _, (_, cut_change), differing, _ = figures(capsys.readouterr().out)
    assert differing == cut_change > 0


def test_trees_whose_loops_differ_are_not_compared(tmp_path, capsys):
    tree, geometry = copy_tree(tmp_path)
    text = geometry.read_text()
    frame = "    xb, yb, cb, sb, hlb, hwb = b.frame\n"
    assert frame in text
    geometry.write_text(text.replace(frame, frame + "    hlb *= 1.0 + 2.0 ** -30\n"))
    assert main([str(ROOT), str(tree), "--rounds", "2"]) == 2
    assert "different rectangles" in capsys.readouterr().err
