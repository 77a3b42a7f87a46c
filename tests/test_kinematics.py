import math

import numpy as np
import pytest

from apfmpc.kinematics import (ControlInput, RobotGeometry, RobotState, body_speed,
                               derivative, euler_step, side_slip)


@pytest.fixture
def sym_geom():
    return RobotGeometry(1.2, 1.2, 1.3, 0.5)


def test_side_slip_zero_steering(sym_geom):
    assert side_slip(ControlInput(0, 0, 0, 0), sym_geom) == 0.0


def test_side_slip_crab_mode(sym_geom):
    d = math.pi / 4
    assert side_slip(ControlInput(0, 0, d, d), sym_geom) == pytest.approx(d)


def test_side_slip_front_only(sym_geom):
    # atan(tan(pi/6)/2) for equal wheel offsets
    expected = math.atan(math.tan(math.pi / 6) / 2.0)
    got = side_slip(ControlInput(0, 0, math.pi / 6, 0), sym_geom)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.28103, abs=1e-5)


def test_body_speed_straight(sym_geom):
    s = RobotState(0, 0, 0, 1, 1)
    assert body_speed(s, ControlInput(0, 0, 0, 0), 0.0) == pytest.approx(1.0)


def test_body_speed_crab(sym_geom):
    s = RobotState(0, 0, 0, 1, 1)
    d = math.pi / 4
    assert body_speed(s, ControlInput(0, 0, d, d), d) == pytest.approx(1.0)


def test_body_speed_front_steer_only(sym_geom):
    s = RobotState(0, 0, 0, 1, 1)
    u = ControlInput(0, 0, math.pi / 6, 0)
    beta = side_slip(u, sym_geom)
    expected = (math.cos(math.pi / 6) + 1.0) / (2.0 * math.cos(beta))
    assert body_speed(s, u, beta) == pytest.approx(expected, abs=1e-12)
    assert body_speed(s, u, beta) == pytest.approx(0.97111, abs=1e-4)


class TestDerivative:
    def test_straight_roll(self, sym_geom):
        d = derivative(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0), sym_geom)
        assert np.allclose(d, [1, 0, 0, 0, 0])

    def test_crab_mode_no_rotation(self, sym_geom):
        u = ControlInput(0, 0, math.pi / 4, math.pi / 4)
        d = derivative(RobotState(0, 0, 0, 1, 1), u, sym_geom)
        assert d[0] == pytest.approx(math.sqrt(2) / 2)
        assert d[1] == pytest.approx(math.sqrt(2) / 2)
        assert d[2] == pytest.approx(0.0, abs=1e-15)

    def test_front_steer_only(self, sym_geom):
        u = ControlInput(0, 0, math.pi / 6, 0)
        s = RobotState(0, 0, 0, 1, 1)
        d = derivative(s, u, sym_geom)
        beta = side_slip(u, sym_geom)
        v_c = body_speed(s, u, beta)
        assert d[0] == pytest.approx(v_c * math.cos(beta), abs=1e-12)
        assert d[1] == pytest.approx(v_c * math.sin(beta), abs=1e-12)
        assert d[2] == pytest.approx(v_c * math.cos(beta) * math.tan(math.pi / 6) / 2.4,
                                     abs=1e-12)
        assert d[2] == pytest.approx(0.22445, abs=1e-4)

    def test_acceleration_rows(self, sym_geom):
        d = derivative(RobotState(0, 0, 0, 1, 1), ControlInput(0.7, -0.3, 0, 0),
                       sym_geom)
        assert d[3] == 0.7 and d[4] == -0.3

    def test_zero_input_fixed_point(self, sym_geom):
        d = derivative(RobotState(2, 3, 0.5, 0, 0), ControlInput(0, 0, 0, 0), sym_geom)
        assert np.all(d == 0.0)


class TestEulerStep:
    def test_straight(self, sym_geom):
        s = euler_step(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0),
                       sym_geom, 0.1)
        assert s.x == pytest.approx(0.1)
        assert (s.y, s.heading, s.v_front, s.v_rear) == (0, 0, 1, 1)

    def test_acceleration(self, sym_geom):
        s = euler_step(RobotState(0, 0, 0, 1, 1), ControlInput(1, 1, 0, 0),
                       sym_geom, 0.1)
        assert s.v_front == pytest.approx(1.1)
        assert s.v_rear == pytest.approx(1.1)

    def test_crab_step(self, sym_geom):
        u = ControlInput(0, 0, math.pi / 4, math.pi / 4)
        s = euler_step(RobotState(0, 0, 0, 1, 1), u, sym_geom, 0.1)
        assert s.x == pytest.approx(0.070711, abs=1e-6)
        assert s.y == pytest.approx(0.070711, abs=1e-6)
        assert s.heading == 0.0

    def test_rejects_bad_dt(self, sym_geom):
        with pytest.raises(ValueError):
            euler_step(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0),
                       sym_geom, 0.0)

    def test_substep_first_order_convergence(self, sym_geom):
        s0 = RobotState(0, 0, 0.2, 1.0, 1.1)
        u = ControlInput(0.3, 0.2, 0.4, -0.1)
        ref = euler_step(s0, u, sym_geom, 0.5, substeps=1024).as_array()
        errs = []
        for n in (1, 2, 4, 8, 16):
            got = euler_step(s0, u, sym_geom, 0.5, substeps=n).as_array()
            errs.append(np.max(np.abs(got - ref)))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert 1.6 < r < 2.6


class TestProperties:
    def test_crab_invariance(self, sym_geom, rng):
        for _ in range(100):
            d = rng.uniform(-1.2, 1.2)
            v = rng.uniform(0.1, 1.4)
            th = rng.uniform(-3, 3)
            u = ControlInput(0, 0, d, d)
            dd = derivative(RobotState(0, 0, th, v, v), u, sym_geom)
            assert dd[2] == pytest.approx(0.0, abs=1e-12)
            assert math.atan2(dd[1], dd[0]) == pytest.approx(
                math.atan2(math.sin(th + d), math.cos(th + d)), abs=1e-9)

    def test_speed_consistency_identity(self, sym_geom, rng):
        for _ in range(200):
            u = ControlInput(0, 0, rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            s = RobotState(0, 0, 0, rng.uniform(0.1, 1.4), rng.uniform(0.1, 1.4))
            beta = side_slip(u, sym_geom)
            v_c = body_speed(s, u, beta)
            lhs = v_c * math.cos(beta)
            rhs = 0.5 * (s.v_front * math.cos(u.steer_front)
                         + s.v_rear * math.cos(u.steer_rear))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_control_input_rejects_singular_steering():
    with pytest.raises(ValueError):
        ControlInput(0, 0, math.pi / 2, 0)


@pytest.mark.parametrize("front,rear", [(math.nan, 0.0), (0.0, math.nan)])
def test_control_input_rejects_nan_steering(front, rear):
    with pytest.raises(ValueError):
        ControlInput(0, 0, front, rear)


def test_state_heading_normalized():
    assert RobotState(0, 0, 4 * math.pi, 0, 0).heading == pytest.approx(0.0)
