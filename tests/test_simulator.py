import math
from dataclasses import replace

import numpy as np
import pytest

from apfmpc.geometry import OrientedRectangle, Pose2D
from apfmpc.kinematics import RobotState, euler_step
from apfmpc.mpc import build_reference, path_table
from apfmpc.prediction import Obstacle
from apfmpc.simulator import (COLLIDED, COMPLETED, CSV_HEADER, DEFAULT_GEOMETRY,
                              NUMERICAL_FAILURE, Scenario, load_scenario, metrics,
                              packaged_scenario_path, run, save_scenario,
                              scenario_from_dict, scenario_to_dict,
                              slip_measure, with_variant)
from conftest import DOUBLE_BACK_HEADING, double_back, nan_at_solve, nan_at_step


def tiny_scenario(duration=2.0, obstacles=(), variant="full"):
    walls = [
        OrientedRectangle(Pose2D(10.0, 3.1, 0.0), 12.0, 0.1),
        OrientedRectangle(Pose2D(10.0, -3.1, 0.0), 12.0, 0.1),
    ]
    return Scenario(name="tiny", corridor=walls,
                    path=np.array([[0.0, 0.0], [20.0, 0.0]]),
                    ref_speed=1.0, obstacles=list(obstacles),
                    initial_state=RobotState(0.0, 0.0, 0.0, 0.5, 0.5),
                    duration=duration, controller_variant=variant)


class TestSlipMeasure:
    def test_matched(self):
        assert slip_measure(1.0, 1.0, 0.0, 0.0) == 0.0

    def test_speed_mismatch(self):
        assert slip_measure(1.2, 1.0, 0.0, 0.0) == pytest.approx(0.2)

    def test_steering_projection(self):
        got = slip_measure(1.0, 1.0, math.pi / 3, 0.0)
        assert got == pytest.approx(abs(math.cos(math.pi / 3) - 1.0))


class TestRun:
    def test_tick_count_and_outcome(self, cfg):
        log = run(tiny_scenario(duration=2.0))
        assert log.outcome == COMPLETED
        assert len(log.records) == int(round(2.0 / cfg.dt))
        assert log.records[0].t == 0.0
        assert log.records[-1].t == pytest.approx(2.0 - cfg.dt)

    def test_exact_double_back_runs(self):
        log = run(double_back(DOUBLE_BACK_HEADING))
        assert log.outcome == COMPLETED and len(log.records) == 10

    def test_collision_detected_and_run_stops(self):
        blocker = Obstacle(OrientedRectangle(Pose2D(0.5, 0.0, 0.0), 1.0, 1.0))
        log = run(tiny_scenario(duration=2.0, obstacles=[blocker]))
        assert log.outcome == COLLIDED
        assert len(log.records) == 0

    @pytest.mark.parametrize("obstacles", [[], [Obstacle(OrientedRectangle(
        Pose2D(8.0, 1.5, 0.0), 0.5, 0.4))]], ids=["no_obstacles", "obstacle"])
    def test_non_finite_state_ends_in_numerical_failure(self, monkeypatch, obstacles):
        # not a collision and not a bad scenario: the run stops at the tick
        # whose state is NaN, and the logged ticks are the finite ones
        nan_at_step(monkeypatch, 3)
        log = run(tiny_scenario(duration=2.0, obstacles=obstacles))
        assert log.outcome == NUMERICAL_FAILURE
        assert len(log.records) == 3
        assert all(np.isfinite(r.state.as_array()).all() for r in log.records)

    @pytest.mark.parametrize("keep_obstacles", [False, True],
                             ids=["no_obstacles", "obstacles"])
    def test_non_finite_qp_solution_ends_in_numerical_failure(self, monkeypatch,
                                                              keep_obstacles):
        # the NaN never reaches ControlInput: the run stops at the tick whose
        # QP solution is NaN, and the logged ticks are the finite ones before it
        scn = load_scenario(packaged_scenario_path("straight_corridor"))
        assert scn.obstacles
        if not keep_obstacles:
            scn = replace(scn, obstacles=[])
        nan_at_solve(monkeypatch, 3)
        log = run(scn)
        assert log.outcome == NUMERICAL_FAILURE
        assert len(log.records) == 2
        assert all(np.isfinite(r.applied.as_array()).all() for r in log.records)

    def test_states_the_path_once(self, monkeypatch):
        # one table per run, and every tick's reference reads that one
        import apfmpc.simulator
        scn, tables, read = tiny_scenario(duration=1.0), [], []

        def counting_table(path):
            tables.append(path_table(path))
            return tables[-1]

        def recording_reference(table, *args):
            read.append(table)
            return build_reference(table, *args)

        monkeypatch.setattr(apfmpc.simulator, "path_table", counting_table)
        monkeypatch.setattr(apfmpc.simulator, "build_reference", recording_reference)
        assert len(run(scn).records) == 10
        assert len(tables) == 1 and len(read) == 10
        assert all(table is tables[0] for table in read)

    def test_plant_consistency(self, cfg):
        log = run(tiny_scenario(duration=2.0))
        for prev, nxt in zip(log.records, log.records[1:]):
            stepped = euler_step(prev.state, prev.applied, DEFAULT_GEOMETRY,
                                 cfg.dt, substeps=10)
            assert np.array_equal(stepped.as_array(), nxt.state.as_array())

    def test_logged_slip_uses_one_step_ahead_speeds(self, cfg):
        log = run(tiny_scenario(duration=1.0))
        for r in log.records:
            expected = slip_measure(
                r.state.v_front + cfg.dt * r.applied.accel_front,
                r.state.v_rear + cfg.dt * r.applied.accel_rear,
                r.applied.steer_front, r.applied.steer_rear)
            assert r.slip_measure == expected

    def test_clearance_ignores_corridor_walls(self):
        # no obstacles: clearance is infinite even though walls are close
        log = run(tiny_scenario(duration=1.0))
        assert all(r.min_clearance == math.inf for r in log.records)

    def test_deterministic_repeat(self, tmp_path):
        a = run(tiny_scenario(duration=2.0))
        b = run(tiny_scenario(duration=2.0))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_csv_shape(self, tmp_path):
        log = run(tiny_scenario(duration=1.0))
        out = tmp_path / "log.csv"
        log.to_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(log.records) + 1
        assert all(len(line.split(",")) == 14 for line in lines)


class TestMetrics:
    def test_recomputed_from_records(self, straight_run):
        scn, log = straight_run
        m = metrics(log, scn.path)
        assert m["min_clearance"] == min(r.min_clearance for r in log.records)
        assert m["max_slip_measure"] == max(r.slip_measure for r in log.records)
        assert m["rms_tracking_error"] >= 0.0

    def test_heading_rate(self, cfg):
        log = run(tiny_scenario(duration=1.0))
        headings = [r.state.heading for r in log.records]
        d = [abs(math.atan2(math.sin(b - a), math.cos(b - a)))
             for a, b in zip(headings, headings[1:])]
        assert metrics(log)["max_heading_rate"] == pytest.approx(
            max(d) / cfg.dt, abs=1e-12)

    def test_empty_log_rejected(self):
        from apfmpc.simulator import SimulationLog
        with pytest.raises(ValueError):
            metrics(SimulationLog("x", 0.1))


class TestVariants:
    def test_with_variant_copies(self):
        scn = tiny_scenario()
        other = with_variant(scn, "no_customization")
        assert other.controller_variant == "no_customization"
        assert scn.controller_variant == "full"
        assert other.name == scn.name

    def test_frozen_anchor_variant_runs(self):
        obs = Obstacle(OrientedRectangle(Pose2D(10.0, 1.0, 0.0), 0.75, 0.4))
        log = run(tiny_scenario(duration=2.0, obstacles=[obs],
                                variant="no_customization"))
        assert len(log.records) > 0


class TestScenarioIO:
    def test_round_trip(self, tmp_path):
        obs = Obstacle(OrientedRectangle(Pose2D(8.0, 0.5, 0.3), 0.75, 0.4),
                       (0.1, -0.2), 0.05)
        scn = tiny_scenario(obstacles=[obs])
        path = tmp_path / "scn.yaml"
        save_scenario(scn, path)
        back = load_scenario(path)
        assert back.name == scn.name
        assert np.array_equal(back.path, scn.path)
        assert back.ref_speed == scn.ref_speed
        assert back.duration == scn.duration
        assert back.initial_state == scn.initial_state
        assert back.corridor == scn.corridor
        assert back.obstacles == scn.obstacles
        assert back.controller_variant == scn.controller_variant

    def test_dict_round_trip(self):
        scn = tiny_scenario()
        back = scenario_from_dict(scenario_to_dict(scn))
        assert back.initial_state == scn.initial_state
        assert back.corridor == scn.corridor

    def test_missing_key_raises_value_error(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"scenario": {"name": "x"}})

    def test_packaged_scenarios_exist(self):
        for name in ("straight_corridor", "orthogonal_corridor", "ablation"):
            assert packaged_scenario_path(name).exists()

    def test_unknown_packaged_scenario(self):
        with pytest.raises(FileNotFoundError):
            packaged_scenario_path("nope")

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            tiny_scenario(duration=0.0)
        with pytest.raises(ValueError):
            Scenario("x", [], np.array([[0.0, 0.0]]), 1.0, [],
                     RobotState(0, 0, 0, 0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            Scenario("x", [], np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
                     1.0, [], RobotState(0, 0, 0, 0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            tiny_scenario(variant="fancy")
        # a wall given as an obstacle: walls belong in the corridor, and a
        # scenario file would load it back as an obstacle
        wall = OrientedRectangle(Pose2D(10.0, 3.1, 0.0), 12.0, 0.1)
        with pytest.raises(ValueError):
            tiny_scenario(obstacles=[Obstacle(wall, kind="boundary")])
