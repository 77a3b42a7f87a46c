import math

import numpy as np
import pytest

from apfmpc.geometry import OrientedRectangle, Pose2D
from apfmpc.kinematics import ControlInput, RobotState, predict_robot, rollout
from apfmpc.prediction import Obstacle, advance_obstacle, predict_obstacle

DT = 0.1


def square_obstacle(x, y, heading=0.0, vel=(0.0, 0.0), yaw_rate=0.0):
    return Obstacle(OrientedRectangle(Pose2D(x, y, heading), 0.5, 0.5),
                    vel, yaw_rate)


def hex_rows(rows):
    """Each row's floats as `float.hex`, so -0.0 differs from 0.0."""
    return [tuple(map(float.hex, row)) for row in rows]


def center_row(obs):
    c = obs.footprint.center
    return c.x, c.y, c.heading


def predicted_rows(state, inp, geom, n):
    """predict_robot's rows, checked bit for bit against the rollout's."""
    rows = predict_robot(state, inp, geom, n, DT)
    assert rows.shape == (n, 3)
    assert rows.tobytes() == rollout(state, inp, geom, n, DT)[1:, :3].tobytes()
    return rows


class TestPredictRobot:
    def test_stationary_fixed_point(self, geom):
        rows = predicted_rows(RobotState(1, 2, 0.3, 0, 0), ControlInput(0, 0, 0, 0), geom, 5)
        assert np.array_equal(rows[:, :2], [[1, 2]] * 5)
        assert rows[:, 2] == pytest.approx(0.3)

    def test_straight_roll(self, geom):
        rows = predicted_rows(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0), geom, 10)
        assert rows[:, 0] == pytest.approx(0.1 * np.arange(1, 11), abs=1e-12)
        assert not np.any(rows[:, 1])

    def test_crab_roll(self, geom):
        d = math.pi / 4
        rows = predicted_rows(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, d, d), geom, 8)
        step = 0.1 * math.sqrt(2) / 2 * np.arange(1, 9)
        assert rows[:, 0] == pytest.approx(step, abs=1e-12)
        assert rows[:, 1] == pytest.approx(step, abs=1e-12)
        assert not np.any(rows[:, 2])

    def test_heading_is_unwrapped(self, geom):
        # heading 3.0 turning left: the rows carry it past +pi, unwrapped
        rows = predicted_rows(RobotState(0, 0, 3.0, 1, 1), ControlInput(0, 0, 0.6, -0.6),
                              geom, 20)
        assert rows[-1, 2] > math.pi and np.all(np.diff(rows[:, 2]) > 0.0)

    def test_rejects_bad_steps(self, geom):
        with pytest.raises(ValueError):
            predict_robot(RobotState(0, 0, 0, 1, 1),
                          ControlInput(0, 0, 0, 0), geom, 0, DT)


class TestObstacles:
    def test_static_obstacle_fixed(self):
        obs = square_obstacle(3, 4, 0.5)
        track = predict_obstacle(obs, 6, DT)
        for x, y, heading in track:
            assert (x, y) == (3, 4)
            assert heading == pytest.approx(0.5)

    def test_constant_velocity(self):
        obs = square_obstacle(0, 0, vel=(0.0, 0.5))
        track = predict_obstacle(obs, 10, DT)
        for i, (x, y, _) in enumerate(track, start=1):
            assert x == 0.0
            assert y == pytest.approx(0.05 * i, abs=1e-12)

    def test_advance_preserves_shape_and_kind(self):
        obs = square_obstacle(0, 0, vel=(1.0, 0.0), yaw_rate=0.3)
        nxt = advance_obstacle(obs, DT)
        assert nxt.footprint.half_length == obs.footprint.half_length
        assert nxt.footprint.half_width == obs.footprint.half_width
        assert nxt.kind == "obstacle"
        assert nxt.yaw_rate == 0.3

    def test_turning_track_lies_on_circle(self):
        # speed 1, yaw rate 0.314..: discrete chord circle of radius
        # dt*|v| / (2 sin(dt*w/2))
        w = 0.1 * math.pi
        obs = square_obstacle(0, 0, vel=(1.0, 0.0), yaw_rate=w)
        track = predict_obstacle(obs, 40, DT)
        pts = np.array([row[:2] for row in track])
        r_expected = DT * 1.0 / (2.0 * math.sin(DT * w / 2.0))
        assert r_expected == pytest.approx(3.1831, abs=1e-3)
        # fit circle center from first three points, then check all radii
        ax, ay = 0.0, 0.0  # start point
        b = pts[len(pts) // 2]
        c = pts[-1]
        d = 2 * (ax * (b[1] - c[1]) + b[0] * (c[1] - ay) + c[0] * (ay - b[1]))
        ux = ((ax**2 + ay**2) * (b[1] - c[1]) + (b @ b) * (c[1] - ay)
              + (c @ c) * (ay - b[1])) / d
        uy = ((ax**2 + ay**2) * (c[0] - b[0]) + (b @ b) * (ax - c[0])
              + (c @ c) * (b[0] - ax)) / d
        radii = np.hypot(pts[:, 0] - ux, pts[:, 1] - uy)
        assert np.ptp(radii) < 1e-9
        assert radii[0] == pytest.approx(r_expected, abs=1e-9)

    def test_speed_preserved_under_turning(self):
        obs = square_obstacle(0, 0, vel=(0.6, 0.8), yaw_rate=1.3)
        cur = obs
        for _ in range(50):
            cur = advance_obstacle(cur, DT)
            assert math.hypot(*cur.velocity) == pytest.approx(1.0, abs=1e-12)

    def test_zero_yaw_linearity(self):
        obs = square_obstacle(1, 1, vel=(0.3, -0.4))
        one_big = advance_obstacle(obs, 0.5)
        five_small = obs
        for _ in range(5):
            five_small = advance_obstacle(five_small, DT)
        assert one_big.footprint.center.x == pytest.approx(
            five_small.footprint.center.x, abs=1e-12)
        assert one_big.footprint.center.y == pytest.approx(
            five_small.footprint.center.y, abs=1e-12)

    def test_substep_bit_identity(self):
        # advancing twice by dt must give the two rows of a 2-step track
        obs = square_obstacle(0, 0, vel=(1.0, 0.0), yaw_rate=0.7)
        track = predict_obstacle(obs, 2, DT)
        step1 = advance_obstacle(obs, DT)
        step2 = advance_obstacle(step1, DT)
        assert hex_rows(track) == hex_rows([center_row(step1), center_row(step2)])

    def test_track_is_the_advance_chain_across_the_wrap(self):
        # heading 2.9 turning at 1.5 rad/s passes pi on the 2nd step, so the
        # chain and the track both go through normalize_angle's wrap
        obs = square_obstacle(1.0, -2.0, heading=2.9, vel=(0.4, -0.9), yaw_rate=1.5)
        track = predict_obstacle(obs, 20, DT)
        cur, chain = obs, []
        for _ in range(20):
            cur = advance_obstacle(cur, DT)
            chain.append(center_row(cur))
        assert hex_rows(track) == hex_rows(chain)
        headings = [heading for _, _, heading in track]
        assert headings[0] > 3.0 and headings[1] < -3.0

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_rejects_bad_steps(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            predict_obstacle(square_obstacle(0, 0, vel=(1.0, 0.0)), n_steps, DT)

    def test_boundary_must_be_static(self):
        rect = OrientedRectangle(Pose2D(0, 0, 0), 1, 1)
        with pytest.raises(ValueError):
            Obstacle(rect, (0.1, 0.0), 0.0, "boundary")
        with pytest.raises(ValueError):
            Obstacle(rect, (0.0, 0.0), 0.2, "boundary")

    def test_rejects_velocity_without_two_entries(self):
        rect = OrientedRectangle(Pose2D(0, 0, 0), 1, 1)
        for velocity in ((0.1,), (0.1, 0.0, 0.0), np.zeros(3)):
            with pytest.raises(ValueError, match="two entries"):
                Obstacle(rect, velocity)

    @pytest.mark.parametrize("velocity,yaw_rate", [
        ((math.nan, 0.0), 0.0), ((0.0, math.inf), 0.0), ((-math.inf, 0.0), 0.0),
        ((0.5, 0.0), math.nan), ((0.5, 0.0), math.inf)])
    def test_rejects_nonfinite_motion(self, velocity, yaw_rate):
        # a tick would otherwise predict non-finite poses and raise in its middle
        with pytest.raises(ValueError, match="finite"):
            Obstacle(OrientedRectangle(Pose2D(0, 0, 0), 1, 1), velocity, yaw_rate)

    @pytest.mark.parametrize("velocity", [(1e308, 0.0), (-1e308, 1e308)])
    def test_advance_raises_on_an_overflowing_pose(self, velocity):
        # finite motion whose pose overflows: FloatingPointError, as the
        # controller's frames raise on such a predicted track
        obs = Obstacle(OrientedRectangle(Pose2D(0, 0, 0), 1, 1), velocity)
        with pytest.raises(FloatingPointError, match="obstacle pose"):
            for _ in range(20):
                obs = advance_obstacle(obs, DT)

    def test_array_velocity_and_yaw_rate_stored_as_floats(self):
        obs = Obstacle(OrientedRectangle(Pose2D(0, 0, 0), 1, 1),
                       np.array([0.25, -0.5]), np.float64(0.3))
        assert obs.velocity == (0.25, -0.5) and type(obs.velocity) is tuple
        assert [type(v) for v in (*obs.velocity, obs.yaw_rate)] == [float] * 3
        assert Obstacle(obs.footprint, (1, 2), 1).velocity == (1.0, 2.0)

    def test_static_boundary_accepts_list_velocity(self):
        wall = Obstacle(OrientedRectangle(Pose2D(0, 0, 0), 1, 1), [0.0, 0.0], 0, "boundary")
        assert wall.velocity == (0.0, 0.0) and type(wall.velocity) is tuple
        assert type(wall.yaw_rate) is float

    def test_rejects_unknown_kind(self):
        rect = OrientedRectangle(Pose2D(0, 0, 0), 1, 1)
        with pytest.raises(ValueError):
            Obstacle(rect, kind="wall")
