"""tools/kernel_ab.py on the seed-1 `corridor_apf` queries: a tree against
itself, and against copies whose kernels differ."""

import re
import sys

from conftest import FAILS_ON_IMPORT, ROOT, copy_tree

sys.path.insert(0, str(ROOT / "tools"))

from kernel_ab import main  # noqa: E402

GEOMETRY = "src/apfmpc/geometry.py"


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


def test_a_cut_row_with_a_gap_is_caught(tmp_path, capsys):
    # the field reads no gap beyond its radius, so the closed loop is the
    # same, but the kernel's rows are not
    beyond = "_BEYOND = ClosestPair(inf, 0.0, 0.0)"
    tree = copy_tree(tmp_path, GEOMETRY, beyond, beyond.replace("0.0,", "1.0,", 1))
    assert main([str(ROOT), str(tree), "--rounds", "2"]) == 1
    _, (_, cut_change), differing, _ = figures(capsys.readouterr().out)
    assert differing == cut_change > 0


def test_trees_whose_loops_differ_are_not_compared(tmp_path, capsys):
    frame = "    xb, yb, cb, sb, hlb, hwb = b.frame\n"
    tree = copy_tree(tmp_path, GEOMETRY, frame, frame + "    hlb *= 1.0 + 2.0 ** -30\n")
    assert main([str(ROOT), str(tree), "--rounds", "2"]) == 2
    assert "different rectangles" in capsys.readouterr().err


def test_a_tree_that_fails_to_record_is_named(tmp_path, capsys):
    # one line from this process; the worker's traceback is its own stderr's
    tree = copy_tree(tmp_path, *FAILS_ON_IMPORT)
    assert main([str(ROOT), str(tree), "--rounds", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"recording the queries of {tree} failed with exit code 1\n"
    assert captured.out == ""
