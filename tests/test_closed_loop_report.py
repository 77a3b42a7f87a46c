"""tools/closed_loop_report.py on one packaged run, each tree in its own
interpreter."""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from closed_loop_report import report_rows, results, start, status_ticks  # noqa: E402

RUN = "straight_corridor.full"


def report(tmp_path, old_root, new_root):
    dirs = [tmp_path / "old", tmp_path / "new"]
    for d in dirs:
        d.mkdir()
    procs = [start(root, d, [RUN]) for root, d in zip((old_root, new_root), dirs)]
    return report_rows(*(list(results(p, d)) for p, d in zip(procs, dirs)))


def test_same_tree_twice_is_an_empty_diff(tmp_path):
    rows = report(tmp_path, ROOT, ROOT)
    assert len(rows) == 4  # header, rule, one run, count
    cells = [c.strip() for c in rows[2].strip("|").split("|")]
    old_digest, new_digest = cells[1].split(" / ")
    assert cells[0] == RUN and old_digest == new_digest
    assert cells[2] == "completed / completed"
    assert cells[4:7] == ["-", "-", "0"]
    assert cells[7] == "optimal 250 / 250"
    assert rows[3] == "1 of 1 logs byte-identical"


def edited_tree(tmp_path, old, new):
    """A copy of this tree's src and perfbench with `old` in mpc.py replaced by `new`."""
    tree = tmp_path / "tree"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    mpc = tree / "src" / "apfmpc" / "mpc.py"
    text = mpc.read_text()
    assert old in text
    mpc.write_text(text.replace(old, new))
    return tree


def test_one_scaled_constant_diverges_at_tick_0(tmp_path):
    weights = "r_weights = (300.0, 300.0, 400.0, 400.0)"
    tree = edited_tree(tmp_path, weights, weights.replace("300.0", "330.0", 1))
    rows = report(tmp_path, ROOT, tree)
    cells = [c.strip() for c in rows[2].strip("|").split("|")]
    assert cells[4].startswith("0, ")
    assert cells[5] == cells[4] != "0, solver_iterations"
    assert cells[6] != "0"
    assert rows[3] == "0 of 1 logs byte-identical"


def test_iteration_counts_alone_read_no_divergence_outside_them(tmp_path):
    # one more iteration counted on every tick: only that column moves
    count = "iterations, band, doublings = sol.iterations, SLIP_BAND, 0"
    tree = edited_tree(tmp_path, count, count.replace("sol.iterations,", "sol.iterations + 1,"))
    rows = report(tmp_path, ROOT, tree)
    cells = [c.strip() for c in rows[2].strip("|").split("|")]
    assert cells[4:7] == ["0, solver_iterations", "-", "0"]
    assert rows[3] == "0 of 1 logs byte-identical"


def test_status_ticks_count_each_side():
    # a status one side never reached reads 0 there
    assert status_ticks({"optimal": 194, "inexact": 6}, {"optimal": 200}) == \
        "inexact 6 / 0, optimal 194 / 200"
    assert status_ticks({}, {}) == "-"
