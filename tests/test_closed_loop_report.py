"""tools/closed_loop_report.py on one packaged run, each tree in its own
interpreter."""

import sys

import pytest

from conftest import FAILS_ON_IMPORT, ROOT, copy_tree

sys.path.insert(0, str(ROOT / "tools"))

import closed_loop_report  # noqa: E402
from closed_loop_report import main, report_rows, results, start, status_ticks  # noqa: E402

RUN = "straight_corridor.full"
MPC = "src/apfmpc/mpc.py"


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


def test_one_scaled_constant_diverges_at_tick_0(tmp_path):
    weights = "r_weights = (300.0, 300.0, 400.0, 400.0)"
    tree = copy_tree(tmp_path, MPC, weights, weights.replace("300.0", "330.0", 1))
    rows = report(tmp_path, ROOT, tree)
    cells = [c.strip() for c in rows[2].strip("|").split("|")]
    assert cells[4].startswith("0, ")
    assert cells[5] == cells[4] != "0, solver_iterations"
    assert cells[6] != "0"
    assert rows[3] == "0 of 1 logs byte-identical"


def test_iteration_counts_alone_read_no_divergence_outside_them(tmp_path):
    # one more iteration counted on every tick: only that column moves
    count = "iterations, relaxed = sol.iterations, 0"
    tree = copy_tree(tmp_path, MPC, count, count.replace("sol.iterations,", "sol.iterations + 1,"))
    rows = report(tmp_path, ROOT, tree)
    cells = [c.strip() for c in rows[2].strip("|").split("|")]
    assert cells[4:7] == ["0, solver_iterations", "-", "0"]
    assert rows[3] == "0 of 1 logs byte-identical"


@pytest.mark.parametrize("with_root", [False, True], ids=["alone", "before_a_sound_tree"])
def test_a_tree_that_fails_on_import_ends_the_report(tmp_path, capsys, monkeypatch, with_root):
    # the worker dies before its first run: no digest is printed, the
    # report exits with the worker's exit code, and no other worker is
    # left running
    started = []

    def kept_start(*args):
        started.append(start(*args))
        return started[-1]

    monkeypatch.setattr(closed_loop_report, "start", kept_start)
    argv = [str(copy_tree(tmp_path, *FAILS_ON_IMPORT))] + [str(ROOT)] * with_root
    with pytest.raises(SystemExit, match="^report runs failed with exit code 1$"):
        main(argv)
    assert capsys.readouterr().out == ""
    assert len(started) == len(argv) and all(p.poll() is not None for p in started)


def test_status_ticks_count_each_side():
    # a status one side never reached reads 0 there
    assert status_ticks({"optimal": 194, "inexact": 6}, {"optimal": 200}) == \
        "inexact 6 / 0, optimal 194 / 200"
    assert status_ticks({}, {}) == "-"
