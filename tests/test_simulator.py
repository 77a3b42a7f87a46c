import math
from collections.abc import Hashable
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
import yaml

from apfmpc.geometry import OrientedRectangle, Pose2D
from apfmpc.kinematics import ControlInput, RobotGeometry, RobotState, euler_step
from apfmpc.mpc import VARIANTS, build_reference, path_table, slip_terms
from apfmpc.prediction import Obstacle
from apfmpc.simulator import (COLLIDED, COMPLETED, CSV_HEADER, DEFAULT_GEOMETRY,
                              NUMERICAL_FAILURE, SOLVER_FAILED, Scenario, _entries,
                              load_scenario, metrics, packaged_scenario_path, run,
                              save_scenario, scenario_from_dict, scenario_to_dict)
from conftest import (DOUBLE_BACK_HEADING, double_back, inf_heading_at_step, nan_at_solve,
                      nan_at_step, overflowing_obstacle)


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


def value_type_makers(bad):
    """Makers of each value type, and of a scenario's duration and path,
    each with `bad` in place of one number."""
    rect = OrientedRectangle(Pose2D(0.0, 0.0, 0.0), 1.0, 1.0)
    return [lambda: Pose2D(bad, 0.0, 0.0), lambda: Pose2D(0.0, 0.0, bad),
            lambda: OrientedRectangle(rect.center, bad, 1.0),
            lambda: RobotState(0.0, 0.0, bad, 0.5, 0.5),
            lambda: RobotState(0.0, 0.0, 0.0, 0.5, bad),
            lambda: ControlInput(0.1, bad, 0.2, 0.0),
            lambda: RobotGeometry(1.2, 1.2, bad, 0.5),
            lambda: Obstacle(rect, (0.0, bad)), lambda: Obstacle(rect, (0.0, 0.0), bad),
            lambda: replace(tiny_scenario(), duration=bad),
            lambda: replace(tiny_scenario(), path=[[0.0, 0.0], [20.0, bad]])]


def logged_slip(v_front, v_rear, steer_front, steer_rear, cfg):
    """The slip measure a record logs: |g| of `slip_terms` at the applied input."""
    state = RobotState(0.0, 0.0, 0.0, v_front, v_rear)
    u = ControlInput(0.0, 0.0, steer_front, steer_rear)
    return abs(slip_terms(state, u, cfg)[1])


class TestSlipMeasure:
    def test_matched(self, cfg):
        assert logged_slip(1.0, 1.0, 0.0, 0.0, cfg) == 0.0

    def test_speed_mismatch(self, cfg):
        assert logged_slip(1.2, 1.0, 0.0, 0.0, cfg) == pytest.approx(0.2)
        assert logged_slip(1.0, 1.2, 0.0, 0.0, cfg) == pytest.approx(0.2)


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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_infeasible_start_ends_in_solver_failed(self, variant):
        # from 3 m/s, step 1 is at least 2.9 m/s, above the 1.4 m/s output
        # bound: no slack on the slip band helps, and the one logged tick holds
        # the input
        scn = replace(tiny_scenario(variant=variant),
                      initial_state=RobotState(0.0, 0.0, 0.0, 3.0, 3.0))
        log = run(scn)
        assert log.outcome == SOLVER_FAILED
        assert len(log.records) == 1
        assert log.records[0].applied == ControlInput(0.0, 0.0, 0.0, 0.0)

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

    @pytest.mark.parametrize("obstacles", [[], [Obstacle(OrientedRectangle(
        Pose2D(8.0, 1.5, 0.0), 0.5, 0.4))]], ids=["no_obstacles", "obstacle"])
    def test_overflowing_heading_ends_in_numerical_failure(self, monkeypatch, obstacles):
        # the plant's heading overflows to infinity: the state comes back
        # NaN, not as an error from wrapping it, and the run stops there
        inf_heading_at_step(monkeypatch, 3)
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

    @pytest.mark.parametrize("variant, ticks", [("full", 0), ("no_customization", 18)])
    def test_overflowing_obstacle_ends_in_numerical_failure(self, variant, ticks):
        # `full` predicts the obstacle's track, whose frames overflow before
        # the first tick; `no_customization` predicts none, and the run stops
        # at the tick whose advanced obstacle pose overflows
        log = run(overflowing_obstacle(variant))
        assert log.outcome == NUMERICAL_FAILURE
        assert len(log.records) == ticks

    def test_advances_only_obstacles_that_move(self, monkeypatch):
        # a static obstacle is the same object every tick; a moving one is
        # advanced once per tick
        import apfmpc.simulator
        static = Obstacle(OrientedRectangle(Pose2D(8.0, 1.5, 0.0), 0.5, 0.4))
        moving = Obstacle(OrientedRectangle(Pose2D(12.0, -1.5, 0.0), 0.5, 0.4), (-0.2, 0.0))
        turning = Obstacle(OrientedRectangle(Pose2D(14.0, 1.5, 0.0), 0.5, 0.4), yaw_rate=0.3)
        assert (static.moves, moving.moves, turning.moves) == (False, True, True)
        advanced = []
        advance = apfmpc.simulator.advance_obstacle
        monkeypatch.setattr(apfmpc.simulator, "advance_obstacle",
                            lambda obs, dt: advanced.append(obs.footprint) or advance(obs, dt))
        log = run(tiny_scenario(duration=1.0, obstacles=[static, moving, turning]))
        assert log.outcome == COMPLETED
        ticks = len(log.records)
        assert static.footprint not in advanced
        assert len(advanced) == 2 * ticks

    def test_states_the_path_once(self, monkeypatch):
        # one table per scenario, built as it is made; every tick's reference
        # in its run reads that one
        import apfmpc.simulator
        tables, read = [], []

        def counting_table(path):
            tables.append(path_table(path))
            return tables[-1]

        def recording_reference(table, *args):
            read.append(table)
            return build_reference(table, *args)

        monkeypatch.setattr(apfmpc.simulator, "path_table", counting_table)
        monkeypatch.setattr(apfmpc.simulator, "build_reference", recording_reference)
        scn = tiny_scenario(duration=1.0)
        assert len(run(scn).records) == 10
        assert len(tables) == 1 and len(read) == 10
        assert all(table is tables[0] for table in read)

    def test_path_table_cannot_go_stale(self):
        # the scenario keeps a read-only copy of its path, so the table it
        # built stays the table of its path
        path = np.array([[0.0, 0.0], [20.0, 0.0]])
        scn = replace(tiny_scenario(), path=path)
        path[1, 0] = 5.0
        assert scn.path.tolist() == [[0.0, 0.0], [20.0, 0.0]]
        with pytest.raises(ValueError):
            scn.path[1, 0] = 5.0
        assert np.array_equal(scn.path_table.points, scn.path)
        assert scn.path_table.arc[-1] == 20.0

    def test_plant_consistency(self, cfg):
        log = run(tiny_scenario(duration=2.0))
        for prev, nxt in zip(log.records, log.records[1:]):
            stepped = euler_step(prev.state, prev.applied, DEFAULT_GEOMETRY,
                                 cfg.dt, substeps=10)
            assert np.array_equal(stepped.as_array(), nxt.state.as_array())

    def test_logged_slip_uses_one_step_ahead_speeds(self, cfg):
        log = run(tiny_scenario(duration=1.0))
        for r in log.records:
            u = r.applied
            v_front = r.state.v_front + cfg.dt * u.accel_front
            v_rear = r.state.v_rear + cfg.dt * u.accel_rear
            expected = abs(v_front * math.cos(u.steer_front) - v_rear * math.cos(u.steer_rear))
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
        scn = tiny_scenario(duration=1.0)
        log = run(scn)
        headings = [r.state.heading for r in log.records]
        d = [abs(math.atan2(math.sin(b - a), math.cos(b - a)))
             for a, b in zip(headings, headings[1:])]
        assert metrics(log, scn.path)["max_heading_rate"] == pytest.approx(
            max(d) / cfg.dt, abs=1e-12)

    def test_empty_log_rejected(self):
        from apfmpc.simulator import SimulationLog
        with pytest.raises(ValueError):
            metrics(SimulationLog(0.1), np.array([[0.0, 0.0], [1.0, 0.0]]))


class TestVariants:
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
        assert load_scenario(path) == scn

    def test_numpy_numbers_round_trip(self, tmp_path):
        # a scenario accepts numpy numbers; the file form holds Python floats
        obs = Obstacle(OrientedRectangle(Pose2D(np.float64(8.0), np.float32(0.5), 0.3),
                                         np.float64(0.75), 0.4), (0.1, -0.2), 0.05)
        wall = OrientedRectangle(Pose2D(10.0, np.float64(3.1), 0.0), 12.0, np.float32(0.1))
        scn = replace(tiny_scenario(obstacles=[obs]), corridor=[wall], ref_speed=np.float64(1.1),
                      initial_state=RobotState(np.float64(0.0), *np.zeros(3), np.float32(0.5)),
                      duration=np.float32(2.0))
        path = tmp_path / "scn.yaml"
        save_scenario(scn, path)
        assert load_scenario(path) == scn
        assert all(type(value) in (str, list, dict, float)
                   for _, value in _entries(scenario_to_dict(scn)))

    @pytest.mark.parametrize("kind", [np.float32, np.float64])
    def test_numpy_numbers_run_as_their_saved_copy(self, tmp_path, kind):
        # numbers as they arrive from a sensor node: the scenario stores them
        # as Python floats, so it steps the plant in doubles and logs what its
        # saved-and-loaded copy logs, byte for byte
        def given(rect):
            c = rect.center
            return OrientedRectangle(Pose2D(kind(c.x), kind(c.y), kind(c.heading)),
                                     kind(rect.half_length), kind(rect.half_width))

        packaged = load_scenario(packaged_scenario_path("straight_corridor"))
        s = packaged.initial_state
        scn = replace(packaged, corridor=[given(r) for r in packaged.corridor],
                      ref_speed=kind(packaged.ref_speed), duration=kind(3.0),
                      obstacles=[replace(o, footprint=given(o.footprint))
                                 for o in packaged.obstacles],
                      initial_state=RobotState(*map(kind, (s.x, s.y, s.heading,
                                                           s.v_front, s.v_rear))))
        save_scenario(scn, tmp_path / "scn.yaml")
        log = run(scn)
        log.to_csv(tmp_path / "given.csv")
        run(load_scenario(tmp_path / "scn.yaml")).to_csv(tmp_path / "saved.csv")
        assert log.outcome == COMPLETED and len(log.records) == 30
        assert (tmp_path / "given.csv").read_bytes() == (tmp_path / "saved.csv").read_bytes()
        assert all(type(value) is float for r in log.records for value in vars(r.state).values())

    def test_value_types_store_python_floats(self):
        pose = Pose2D(np.float32(1.5), np.float64(-2.0), np.float32(4.0))
        rect = OrientedRectangle(pose, np.float32(0.7), np.int64(1))
        state = RobotState(*np.array([1.0, 2.0, 4.0, 0.5, 0.3], dtype=np.float32))
        scn = replace(tiny_scenario(), ref_speed=np.float32(1.1), duration=np.float64(2.0))
        u32 = ControlInput(*map(np.float32, (0.3, -0.2, 0.1, -0.05)))
        lengths32 = np.array([1.2, 1.2, 1.3, 0.5], dtype=np.float32)
        geom32 = RobotGeometry(*lengths32)
        for value, names in ((pose, ("x", "y", "heading")),
                             (rect, ("half_length", "half_width")),
                             (state, ("x", "y", "heading", "v_front", "v_rear")),
                             (scn, ("ref_speed", "duration")),
                             (u32, ("accel_front", "accel_rear", "steer_front", "steer_rear")),
                             (geom32, ("l_front", "l_rear", "half_length", "half_width"))):
            assert all(type(getattr(value, name)) is float for name in names)
        # the plant steps a float32 input and geometry as their doubles
        start = RobotState(0.0, 0.0, 0.3, 1.0, 0.8)
        u64 = ControlInput(*np.float32((0.3, -0.2, 0.1, -0.05)).tolist())
        geom64 = RobotGeometry(*lengths32.tolist())
        assert (euler_step(start, u32, DEFAULT_GEOMETRY, 0.1, substeps=10)
                == euler_step(start, u64, DEFAULT_GEOMETRY, 0.1, substeps=10))
        assert (euler_step(start, u64, geom32, 0.1, substeps=10)
                == euler_step(start, u64, geom64, 0.1, substeps=10))
        # the heading is wrapped as a double, and the frame reads the floats
        assert pose.heading == state.heading == float(np.float32(4.0)) - 2.0 * math.pi
        assert all(type(number) is float for number in rect.frame)
        assert (rect.half_length, rect.half_width, scn.ref_speed) == (
            float(np.float32(0.7)), 1.0, float(np.float32(1.1)))

    @pytest.mark.parametrize("bad", ["5", b"5", True, False, np.True_, np.complex128(1 + 2j),
                                     1 + 2j, Decimal("1.5")],
                             ids=["str", "bytes", "true", "false", "numpy_bool", "numpy_complex",
                                  "complex", "decimal"])
    def test_value_types_reject_strings_and_bools(self, bad):
        # float() reads most of these as a number; a value type takes only a
        # numbers.Real (numpy's complex kept its real part, with a warning)
        rect = OrientedRectangle(Pose2D(0.0, 0.0, 0.0), 1.0, 1.0)
        for make in value_type_makers(bad):
            with pytest.raises(TypeError, match="expected a number"):
                make()
        # numpy's floats and ints are numbers, stored as Python floats
        obs = Obstacle(rect, np.array([np.float32(0.5), np.int64(-1)], dtype=object), np.int32(0))
        assert obs.velocity == (0.5, -1.0) and type(obs.yaw_rate) is float
        assert all(type(v) is float for v in obs.velocity)

    def test_value_types_reject_integers_too_large_for_a_float(self):
        # float() raises OverflowError on them; as input they are ValueError
        for make in value_type_makers(10 ** 400):
            with pytest.raises(ValueError, match="too large for a float"):
                make()
        assert Pose2D(2 ** 1023, 0.0, 0.0).x == 2.0 ** 1023

    def test_path_coordinates_convert_as_numbers(self, monkeypatch):
        # a path converts each coordinate by the value types' rule, in an
        # array too: an array of bools or of strings is no path
        for path in (np.array([[0, 0], [5, 1]], dtype=bool), np.array([["0", "0"], ["5", "1"]])):
            with pytest.raises(TypeError, match="expected a number"):
                replace(tiny_scenario(), path=path)
        # numbers keep the bits that np.array(path, dtype=float) gives them:
        # the packaged files' paths and the benchmark's, as lists, as float64
        # and float32 arrays and as numpy scalars, and a path of ints
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import WORKLOADS
        sources = [yaml.safe_load(packaged_scenario_path(name).read_text())["path"]
                   for name in ("straight_corridor", "orthogonal_corridor", "ablation")]
        sources += [episode.scenario.path for make in WORKLOADS.values() for episode in make(1)]
        assert len(sources) == 35
        for source in sources:
            array = np.array(source, dtype=float)
            for path in (source, array, array.astype(np.float32), array.tolist(),
                         [[np.float32(x), np.float64(y)] for x, y in array.tolist()]):
                assert (replace(tiny_scenario(), path=path).path.tobytes()
                        == np.array(path, dtype=float).tobytes())
        ints = replace(tiny_scenario(), path=np.array([[0, 0], [20, 0]], dtype=np.int32)).path
        assert ints.dtype == np.float64 and ints.tolist() == [[0.0, 0.0], [20.0, 0.0]]

    def test_equal_by_value(self, monkeypatch, tmp_path):
        # the path compares by its numbers; it stays read-only, and the
        # path table is not compared
        packaged = packaged_scenario_path("straight_corridor")
        scn = load_scenario(packaged)
        assert scn == load_scenario(packaged)
        assert not scn.path.flags.writeable
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import WORKLOADS
        jittered = WORKLOADS["corridor_apf"](1)[0].scenario
        save_scenario(jittered, tmp_path / "jittered.yaml")
        assert load_scenario(tmp_path / "jittered.yaml") == jittered

    def test_unequal_values(self):
        scn = tiny_scenario()
        moved = scn.path.copy()
        moved[-1, 1] += 1e-9
        longer = np.vstack([scn.path, [[30.0, 0.0]]])
        for other in (replace(scn, path=moved), replace(scn, path=longer),
                      replace(scn, ref_speed=1.1), replace(scn, name="other")):
            assert scn != other
        assert scn != "tiny" and scn != None  # noqa: E711

    def test_unhashable(self):
        # equal by value, but its lists and path array have no hash
        scn = load_scenario(packaged_scenario_path("straight_corridor"))
        with pytest.raises(TypeError, match="unhashable type: 'Scenario'"):
            hash(scn)
        assert not isinstance(scn, Hashable)
        assert scn == replace(scn) and scn != replace(scn, ref_speed=2.0)

    def test_dict_round_trip(self):
        scn = tiny_scenario()
        back = scenario_from_dict(scenario_to_dict(scn))
        assert back.initial_state == scn.initial_state
        assert back.corridor == scn.corridor

    def test_missing_key_raises_value_error(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"scenario": {"name": "x"}})

    def test_unknown_key_is_named(self):
        data = scenario_to_dict(tiny_scenario())
        data["obstacle"] = data.pop("obstacles")
        with pytest.raises(ValueError, match="unexpected entry 'obstacle'$"):
            scenario_from_dict(data)

    def test_optional_keys_may_be_left_out(self):
        obs = Obstacle(OrientedRectangle(Pose2D(8.0, 0.5, 0.3), 0.75, 0.4))
        data = scenario_to_dict(tiny_scenario(obstacles=[obs]))
        for key in ("corridor", "controller_variant"):
            del data[key]
        for key in ("velocity", "yaw_rate"):
            del data["obstacles"][0][key]
        scn = scenario_from_dict(data)
        assert scn.corridor == [] and scn.controller_variant == "full"
        assert scn.obstacles == [obs]
        del data["obstacles"]
        assert scenario_from_dict(data).obstacles == []

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
