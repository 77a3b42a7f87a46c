import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import apfmpc.cli
from apfmpc.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from apfmpc.geometry import OrientedRectangle, Pose2D
from apfmpc.kinematics import RobotState
from apfmpc.simulator import (Scenario, load_scenario, packaged_scenario_path,
                              save_scenario, scenario_to_dict)
from conftest import (DOUBLE_BACK_HEADING, double_back, nan_at_solve, nan_at_step,
                      overflowing_obstacle)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def scenario_file(tmp_path):
    walls = [
        OrientedRectangle(Pose2D(10.0, 3.1, 0.0), 12.0, 0.1),
        OrientedRectangle(Pose2D(10.0, -3.1, 0.0), 12.0, 0.1),
    ]
    scn = Scenario(name="clitest", corridor=walls,
                   path=np.array([[0.0, 0.0], [20.0, 0.0]]),
                   ref_speed=1.0, obstacles=[],
                   initial_state=RobotState(0.0, 0.0, 0.0, 0.5, 0.5),
                   duration=2.0)
    path = tmp_path / "clitest.yaml"
    save_scenario(scn, path)
    return path


def obstacle_entry(**changes):
    """One obstacle of a scenario file, its keys replaced or added."""
    return dict({"center": [8.0, 1.0], "heading": 0.0, "half_length": 0.5,
                 "half_width": 0.4, "velocity": [0.0, 0.1], "yaw_rate": 0.0}, **changes)


START = {"x": 0.0, "y": 0.0, "heading": 0.0, "v_front": 0.5, "v_rear": 0.5}
WALL = {"center": [10.0, 3.1], "heading": 0.0, "half_length": 12.0, "half_width": 0.1}


def edited_file(scenario_file, tmp_path, **changes):
    """Copy of the scenario file with top-level keys replaced."""
    data = yaml.safe_load(scenario_file.read_text())
    data.update(changes)
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


class TestRun:
    def test_writes_log_and_summary(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        log = out / "clitest.log.csv"
        summary = out / "clitest.summary"
        assert log.exists() and summary.exists()
        text = summary.read_text()
        assert "outcome: completed" in text
        assert "max_slip_measure:" in text

    def test_summary_counts_ticks_per_status(self, scenario_file, tmp_path, monkeypatch):
        # the third tick's answer relabelled max_iterations, the solver's
        # cycling guard: held, and counted apart from the optimal ones; the
        # summary counts the three statuses a solve can return
        from apfmpc.qp import QpSolver
        solve, calls = QpSolver.solve, []

        def relabelled(self, *args, **kwargs):
            calls.append(None)
            out = solve(self, *args, **kwargs)
            return replace(out, status="max_iterations") if len(calls) == 3 else out

        monkeypatch.setattr(QpSolver, "solve", relabelled)
        out = tmp_path / "out"
        assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
        summary = (out / "clitest.summary").read_text().splitlines()
        assert summary[-3:] == ["ticks.optimal: 19", "ticks.max_iterations: 1",
                                "ticks.infeasible: 0"]

    def test_log_csv_parseable(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", str(scenario_file), "--out", str(out)])
        data = np.genfromtxt(out / "clitest.log.csv", delimiter=",",
                             names=True)
        assert len(data) == 20
        assert set(data.dtype.names) >= {"t", "x", "y", "theta", "v_f", "v_r"}

    def test_plots_flag_writes_series_and_svg(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        obstacles = [obstacle_entry(), obstacle_entry(center=[14.0, -1.0], velocity=[0.0, 0.0])]
        path = edited_file(scenario_file, tmp_path, obstacles=obstacles)
        assert main(["run", str(path), "--out", str(out), "--plots"]) == EXIT_OK
        for suffix in ("trajectory.csv", "heading.csv", "wheel_speeds.csv",
                       "inputs.csv", "slip.csv", "trajectory.svg"):
            assert (out / f"clitest.{suffix}").exists()
        svg = (out / "clitest.trajectory.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        # each wall and each obstacle a closed polygon of its four corners
        for color, count in (("gray", 2), ("green", len(obstacles))):
            drawn = [line for line in svg.splitlines() if f'stroke="{color}"' in line]
            assert len(drawn) == count
            for line in drawn:
                points = line.split('points="')[1].split('"')[0].split()
                assert len(points) == 5 and points[0] == points[-1]

    def test_series_match_log_columns(self, scenario_file, tmp_path):
        # each series file is the log's columns of its header, byte for byte
        out = tmp_path / "out"
        main(["run", str(scenario_file), "--out", str(out), "--plots"])
        log = [line.split(",") for line in
               (out / "clitest.log.csv").read_text().splitlines()]
        column = {name: i for i, name in enumerate(log[0])}
        for suffix in ("trajectory", "heading", "wheel_speeds", "inputs", "slip"):
            series = [line.split(",") for line in
                      (out / f"clitest.{suffix}.csv").read_text().splitlines()]
            picked = [column[name] for name in series[0]]
            assert len(series) == len(log) > 1
            assert series == [[row[i] for i in picked] for row in log]

    def test_variant_flag(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", str(scenario_file), "--out", str(out),
                     "--variant", "no_customization"])
        assert code == EXIT_OK

    def test_byte_identical_reruns(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(scenario_file), "--out", str(out1)])
        main(["run", str(scenario_file), "--out", str(out2)])
        assert ((out1 / "clitest.log.csv").read_bytes()
                == (out2 / "clitest.log.csv").read_bytes())
        assert ((out1 / "clitest.summary").read_bytes()
                == (out2 / "clitest.summary").read_bytes())


class TestCompare:
    def test_writes_both_logs_and_deltas(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        path = edited_file(scenario_file, tmp_path, obstacles=[obstacle_entry(center=[8.0, 2.0])])
        assert main(["compare", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "clitest.full.log.csv").exists()
        assert (out / "clitest.no_customization.log.csv").exists()
        text = (out / "clitest.compare.summary").read_text()
        assert "full.outcome:" in text
        assert "no_customization.outcome:" in text
        assert ".completion:" not in text
        assert "delta.min_clearance:" in text

    def test_no_delta_of_infinite_clearances(self, scenario_file, tmp_path):
        # without obstacles both clearances are inf, and inf - inf is no delta
        out = tmp_path / "out"
        assert main(["compare", str(scenario_file), "--out", str(out)]) == EXIT_OK
        summary = dict(line.split(": ") for line in
                       (out / "clitest.compare.summary").read_text().splitlines())
        assert summary["full.min_clearance"] == summary["no_customization.min_clearance"] == "inf"
        assert "delta.min_clearance" not in summary
        assert "delta.max_slip_measure" in summary
        assert all(value != "nan" for value in summary.values())


def number_slots(tree, where="", kind=float):
    """(parent, key, dotted path) of every number of the kind in a file form."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from number_slots(value, f"{where}{key}.", kind)
        elif isinstance(value, kind):
            yield tree, key, f"{where}{key}"


class TestValidate:
    def test_valid_file(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file)]) == EXIT_OK
        assert str(scenario_file) in capsys.readouterr().out

    @pytest.mark.parametrize("changes", [
        {"controller_variant": "fancy"},
        {"path": [[0.0, 0.0], [0.0, 0.0], [20.0, 0.0]]},
        {"ref_speed_mps": float("nan")},
        {"ref_speed_mps": float("inf")},
        {"ref_speed_mps": -1.0},
        {"duration_s": float("nan")},
        {"initial_state": {"x": 0.0, "y": 0.0, "heading": 0.0,
                           "v_front": float("nan"), "v_rear": 0.5}},
        {"path": [[0.0, 0.0], [float("nan"), 0.0], [20.0, 0.0]]},
        {"corridor": [{"center": [10.0, 3.1], "heading": 0.0,
                       "half_length": float("nan"), "half_width": 0.1}]},
        {"obstacles": [{"center": [8.0, 1.0], "heading": 0.0, "half_length": 0.5,
                        "half_width": 0.4, "velocity": [float("nan"), 0.0],
                        "yaw_rate": 0.0}]},
        {"duration_s": 0.04},
        {"duration_s": 0.05},
        {"duration_s": 1.0e+308},
        {"path": [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [20.0, 0.0, 0.0]]},
        {"scenario": {"name": "sub/dir"}},
        {"scenario": {"name": "../escaped"}},
        # lists of other than two numbers, and keys a scenario does not have
        {"obstacles": [obstacle_entry(velocity=[0.1, 0.2, 9.0])]},
        {"obstacles": [obstacle_entry(center=[1.0, 2.0, 99.0])]},
        {"obstacle": [obstacle_entry()]},
        {"scenario": {"name": "clitest", "title": "typo"}},
        {"initial_state": dict(START, yaw_rate=0.0)},
        {"corridor": [dict(WALL, kind="wall")]},
        {"obstacles": [obstacle_entry(speed=1.0)]},
        # integers too large for a float, and segments whose squared length,
        # which every projection divides by, overflows or underflows to 0
        {"duration_s": 10 ** 400},
        {"ref_speed_mps": 10 ** 400},
        {"path": [[0.0, 0.0], [10 ** 400, 0.0]]},
        {"initial_state": dict(START, v_rear=10 ** 400)},
        {"path": [[-1.0e+308, 0.0], [1.0e+308, 0.0]]},
        {"path": [[0.0, 0.0], [1.0e-170, 0.0], [20.0, 0.0]]},
    ], ids=["unknown_variant", "zero_length_segment", "nan_speed", "inf_speed",
            "negative_speed",
            "nan_duration", "nan_initial_speed", "nan_path_vertex",
            "nan_wall_extent", "nan_obstacle_velocity", "under_one_tick",
            "rounds_to_zero_ticks", "too_many_ticks", "three_column_path", "name_with_separator",
            "name_leaving_out_dir", "three_number_velocity", "three_number_center",
            "unknown_top_level_key", "unknown_scenario_key", "unknown_initial_state_key",
            "unknown_corridor_key", "unknown_obstacle_key", "long_duration", "long_speed",
            "long_path_coordinate", "long_initial_speed", "overflowing_segment",
            "underflowing_segment"])
    def test_rejects_what_run_rejects(self, scenario_file, tmp_path, capsys, changes):
        bad = edited_file(scenario_file, tmp_path, **changes)
        for args in (["validate", str(bad)], ["run", str(bad), "--out", str(tmp_path / "out")]):
            assert main(args) == EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), err
            # an integer too large for a float (every integer here) is named by its entry
            for _, _, where in number_slots(changes, kind=int):
                assert f"entry {where!r}: number too large for a float" in err[0], err

    def test_overflowing_segment_prints_no_warning(self, scenario_file, tmp_path):
        # outside pytest's warning filter too: the one line, and no numpy warning
        bad = edited_file(scenario_file, tmp_path, path=[[-1.0e+308, 0.0], [1.0e+308, 0.0]])
        done = subprocess.run([sys.executable, "-m", "apfmpc.cli", "validate", str(bad)],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert done.returncode == EXIT_CONFIG
        assert done.stderr.splitlines() == [
            "error: path segments must have a positive, finite squared length"]

    def test_runs_what_it_accepts(self, tmp_path):
        path = tmp_path / "double_back.yaml"
        save_scenario(double_back(DOUBLE_BACK_HEADING), path)
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_start_on_an_obstacle_is_a_collision(self, tmp_path, command):
        # a valid scenario that collides before its first tick: the outcome
        # is reported, with no metrics of a run that logged nothing
        path = packaged_scenario_path("straight_corridor")
        first = yaml.safe_load(path.read_text())["obstacles"][0]["center"]
        start = {"x": first[0], "y": first[1], "heading": 0.0, "v_front": 0.4, "v_rear": 0.4}
        path = edited_file(path, tmp_path, initial_state=start)
        assert main(["validate", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == EXIT_OK
        summary = next(out.glob("*.summary")).read_text().splitlines()
        want = (["outcome: collided"] if command == "run" else
                ["full.outcome: collided", "no_customization.outcome: collided"])
        assert summary == want

    def test_every_number_of_a_file_must_be_finite(self, tmp_path):
        # each number of a packaged scenario's file form, set to NaN and then to inf
        data = scenario_to_dict(load_scenario(packaged_scenario_path("orthogonal_corridor")))
        slots = list(number_slots(data))
        assert len(slots) == 49  # path 6, walls 20, obstacles 16, start 5, speed, duration
        path, accepted = tmp_path / "bad.yaml", []
        for tree, key, where in slots:
            kept = tree[key]
            for bad in (math.nan, math.inf):
                tree[key] = bad
                path.write_text(yaml.safe_dump(data))
                if main(["validate", str(path)]) != EXIT_CONFIG:
                    accepted.append(f"{where}={bad}")
            tree[key] = kept
        assert accepted == []

    def test_every_entry_must_be_the_kind_saving_writes(self, tmp_path, capsys):
        # each number of a packaged scenario's file form set to true and to
        # "1.0", which float() reads as 1.0, and entries that float(), tuple()
        # or str() would read: each is an error naming its entry
        data = scenario_to_dict(load_scenario(packaged_scenario_path("orthogonal_corridor")))
        cases = [(tree, key, where, bad) for tree, key, where in number_slots(data)
                 for bad in (True, "1.0")]
        assert len(cases) == 2 * 49
        cases += [(data, "ref_speed_mps", "ref_speed_mps", True),
                  (data, "duration_s", "duration_s", "2"),
                  (data["path"], 1, "path.1", ["10", 0.0]),
                  (data["obstacles"][0], "center", "obstacles.0.center", "53"),
                  (data["obstacles"][0], "velocity", "obstacles.0.velocity", "12"),
                  (data["scenario"], "name", "name", None),
                  (data["scenario"], "name", "name", 5)]
        path, accepted = tmp_path / "bad.yaml", []
        for tree, key, where, bad in cases:
            kept = tree[key]
            tree[key] = bad
            path.write_text(yaml.safe_dump(data))
            code, err = main(["validate", str(path)]), capsys.readouterr().err
            if code != EXIT_CONFIG or where not in err:
                accepted.append(f"{where}={bad!r}")
            tree[key] = kept
        assert accepted == []

    def test_an_exponent_needs_a_dot_and_a_sign(self, tmp_path, capsys):
        # PyYAML reads an exponent as a number only after a dot and with a
        # sign, as saving writes one: 1e3 and 1.0e3 are strings
        text = yaml.safe_dump(scenario_to_dict(load_scenario(
            packaged_scenario_path("straight_corridor"))))
        assert "duration_s: 25.0" in text
        for number, code in (("1.0e+3", EXIT_OK), ("1e3", EXIT_CONFIG), ("1.0e3", EXIT_CONFIG)):
            path = tmp_path / "exponent.yaml"
            path.write_text(text.replace("duration_s: 25.0", f"duration_s: {number}"))
            assert main(["validate", str(path)]) == code
            if code == EXIT_CONFIG:
                assert (f"entry 'duration_s' must be a number, got '{number}'"
                        in capsys.readouterr().err)

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario:\n  name: broken\n")
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("kind", ["not_yaml", "directory", "under_a_file", "name_too_long",
                                      "a_list", "a_scalar", "empty"])
    def test_unreadable_file(self, tmp_path, capsys, command, kind):
        # a file that cannot be read, is not YAML or holds no mapping
        bad = tmp_path / "bad.yaml"
        if kind in ("a_list", "a_scalar", "empty"):
            bad.write_text({"a_list": "- 1\n- 2\n", "a_scalar": "3.5\n", "empty": ""}[kind])
        elif kind == "directory":
            bad.mkdir()
        elif kind == "under_a_file":  # a path through a regular file
            bad.write_text("")
            bad = bad / "x.yaml"
        elif kind == "name_too_long":  # longer than any file system's name limit
            bad = tmp_path / ("x" * 5000 + ".yaml")
        else:
            bad.write_text("scenario: {name: broken\npath: [[0, 0]\n")
        args = [command, str(bad)] + (["--out", str(tmp_path / "out")]
                                      if command == "run" else [])
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err
        # one line, except the YAML parser's message, which adds its place on more lines
        assert kind == "not_yaml" or err.count("\n") == 1, err


class TestExitCodes:
    def test_missing_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "does_not_exist.yaml"
        assert main(["run", str(missing)]) == EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_help_is_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_out_that_cannot_be_made_is_usage(self, scenario_file, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        for out in (taken, taken / "below"):
            assert main([command, str(scenario_file), "--out", str(out)]) == EXIT_USAGE
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and str(taken) in err[0]
        assert taken.read_text() == "a file, not a directory\n"

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_error_during_run_is_internal(self, tmp_path, monkeypatch, capsys, command, error):
        # the file loaded; an error raised by the run is not a bad scenario file
        def failing_run(scenario):
            raise error("raised inside the run")

        monkeypatch.setattr(apfmpc.cli, "run", failing_run)
        path = packaged_scenario_path("straight_corridor")
        assert main([command, str(path), "--out", str(tmp_path)]) == EXIT_INTERNAL
        # the traceback, then the error's type and message on the last line
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "Traceback (most recent call last):"
        assert any("in failing_run" in line for line in err)
        want = "'raised inside the run'" if error is KeyError else "raised inside the run"
        assert err[-1] == f"internal error: {error.__name__}: {want}"

    @pytest.mark.parametrize("obstacles", [[], [
        {"center": [8.0, 1.5], "heading": 0.0, "half_length": 0.5, "half_width": 0.4}]],
        ids=["no_obstacles", "obstacle"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_numerical_failure_exits_non_zero(self, scenario_file, tmp_path, monkeypatch,
                                              command, obstacles):
        nan_at_step(monkeypatch, 3)
        path = edited_file(scenario_file, tmp_path, obstacles=obstacles)
        assert main([command, str(path), "--out", str(tmp_path)]) == EXIT_NUMERICAL
        summary = next(tmp_path.glob("clitest*.summary")).read_text()
        assert "numerical_failure" in summary

    @pytest.mark.parametrize("variant", ["full", "no_customization"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_overflowing_obstacle_exits_numerical(self, tmp_path, command, variant):
        # an obstacle whose position overflows is a numerical failure under
        # either variant, and the file it comes from is valid
        path = tmp_path / "overflow.yaml"
        save_scenario(overflowing_obstacle(variant), path)
        assert main(["validate", str(path)]) == EXIT_OK
        assert main([command, str(path), "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert "numerical_failure" in next(tmp_path.glob("*.summary")).read_text()

    @pytest.mark.parametrize("x", [1.0e+308, 1.0e+200, 1.0e+160])
    def test_far_start_exits_numerical_without_warning(self, tmp_path, x):
        # a valid start so far from the path that its first tick overflows
        # in numpy, run outside pytest's warning filter: the run ends
        # numerical_failure before logging a tick, and prints nothing
        path = packaged_scenario_path("straight_corridor")
        start = yaml.safe_load(path.read_text())["initial_state"]
        path = edited_file(path, tmp_path, initial_state=dict(start, x=x))
        out = tmp_path / "out"
        done = subprocess.run([sys.executable, "-m", "apfmpc.cli", "run", str(path),
                               "--out", str(out)], capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert (done.returncode, done.stderr) == (EXIT_NUMERICAL, "")
        assert (out / "straight_corridor.summary").read_text() == "outcome: numerical_failure\n"

    @pytest.mark.parametrize("keep_obstacles,solve", [(False, 3), (True, 3), (True, 1)],
                             ids=["no_obstacles", "obstacles", "obstacles_first_solve"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_non_finite_qp_solution_exits_numerical(self, tmp_path, monkeypatch,
                                                    command, keep_obstacles, solve):
        # a NaN QP solution is a numerical failure, not a bad scenario file,
        # also when it comes before the first logged tick
        path = packaged_scenario_path("straight_corridor")
        if not keep_obstacles:
            path = edited_file(path, tmp_path, obstacles=[])
        nan_at_solve(monkeypatch, solve)
        assert main([command, str(path), "--out", str(tmp_path)]) == EXIT_NUMERICAL
        summary = next(tmp_path.glob("*.summary")).read_text()
        assert "numerical_failure" in summary
        assert ("delta." in summary) == (command == "compare" and solve > 1)
