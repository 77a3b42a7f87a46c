import math

import numpy as np
import pytest

from apfmpc.geometry import OrientedRectangle, Pose2D
from apfmpc.kinematics import RobotState, euler_step
from apfmpc.prediction import Obstacle
from apfmpc.simulator import (COLLIDED, COMPLETED, CSV_HEADER, DEFAULT_GEOMETRY,
                              Scenario, load_scenario, metrics,
                              packaged_scenario_path, run, save_scenario,
                              scenario_from_dict, scenario_to_dict,
                              slip_measure, with_variant)


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

    def test_collision_detected_and_run_stops(self):
        blocker = Obstacle(OrientedRectangle(Pose2D(0.5, 0.0, 0.0), 1.0, 1.0))
        log = run(tiny_scenario(duration=2.0, obstacles=[blocker]))
        assert log.outcome == COLLIDED
        assert len(log.records) == 0

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
        assert m["completion"] == log.outcome
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
