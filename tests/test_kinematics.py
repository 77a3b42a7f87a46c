import math

import numpy as np
import pytest

from apfmpc.geometry import normalize_angle
from apfmpc.kinematics import (ControlInput, RobotGeometry, RobotState, _rates, derivative,
                               euler_step, predict_robot, rollout)


# The paper's side-slip form of the model, the oracle for the w/s form the
# package states its rates in.

def side_slip(inp: ControlInput, geom: RobotGeometry) -> float:
    """Side slip angle of the C.G. velocity in the body frame."""
    lf, lr = geom.l_front, geom.l_rear
    return math.atan((lr * math.tan(inp.steer_front) + lf * math.tan(inp.steer_rear))
                     / (lf + lr))


def body_speed(state: RobotState, inp: ControlInput, beta: float) -> float:
    """Speed of the C.G. given wheel speeds, steering, and side slip."""
    return (state.v_front * math.cos(inp.steer_front)
            + state.v_rear * math.cos(inp.steer_rear)) / (2.0 * math.cos(beta))


def paper_derivative(state, inp, geom):
    """State rate in the side-slip form: v_c (cos(th + beta), sin(th + beta))
    and the yaw rate v_c cos(beta) (tan d_f - tan d_r) / L."""
    beta = side_slip(inp, geom)
    v_c = body_speed(state, inp, beta)
    course = state.heading + beta
    yaw_rate = (v_c * math.cos(beta)
                * (math.tan(inp.steer_front) - math.tan(inp.steer_rear))
                / (geom.l_front + geom.l_rear))
    return np.array([v_c * math.cos(course), v_c * math.sin(course), yaw_rate,
                     inp.accel_front, inp.accel_rear])


def loop_euler(state, inp, geom, dt, substeps=1):
    """Forward Euler one substep at a time, the heading wrapped after each."""
    h = dt / substeps
    cur = state
    for _ in range(substeps):
        arr = cur.as_array() + h * paper_derivative(cur, inp, geom)
        cur = RobotState(*arr.tolist())
    return cur


def assert_states_close(got, want, tol=1e-12):
    """Within tol relative to max(1, |want|); headings compared on the circle."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    diff = got - want
    diff[2] = normalize_angle(diff[2])
    assert np.all(np.abs(diff) <= tol * np.maximum(1.0, np.abs(want)))


def random_draw(rng):
    """A seeded state and input with |steering| <= 1.2 rad."""
    state = RobotState(rng.uniform(-20, 20), rng.uniform(-20, 20),
                       rng.uniform(-math.pi, math.pi),
                       rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
    inp = ControlInput(rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
    return state, inp


# heading 3.0 turning left at about 0.5 rad/s and speeding up: crosses +pi
# into -pi within half a second
CROSSING = (RobotState(1.0, -2.0, 3.0, 1.0, 1.2), ControlInput(0.2, 0.1, 0.6, -0.6))


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

    def test_matches_paper_form(self, rng):
        geom = RobotGeometry(1.1, 1.4, 1.3, 0.5)
        for _ in range(2000):
            s, u = random_draw(rng)
            got, want = derivative(s, u, geom), paper_derivative(s, u, geom)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, dt, sym_geom):
        # a NaN step would return an all-NaN state, an infinite one
        # (inf, nan, nan, nan, nan)
        for substeps in (1, 10):
            with pytest.raises(ValueError, match="finite"):
                euler_step(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0),
                           sym_geom, dt, substeps)

    @pytest.mark.parametrize("substeps", [0, -1, 2.5])
    def test_rejects_bad_substeps(self, substeps, sym_geom):
        with pytest.raises(ValueError):
            euler_step(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0),
                       sym_geom, 0.1, substeps=substeps)

    def test_numpy_integer_substeps(self, sym_geom):
        s, u = RobotState(0, 0, 0.2, 1, 1.1), ControlInput(0.1, 0, 0.2, 0)
        assert (euler_step(s, u, sym_geom, 0.1, substeps=np.int64(10))
                == euler_step(s, u, sym_geom, 0.1, substeps=10))

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

    @pytest.mark.parametrize("substeps,draws", [(1, 500), (10, 200), (1024, 10)])
    def test_matches_loop_oracle(self, substeps, draws, rng):
        geom = RobotGeometry(1.1, 1.4, 1.3, 0.5)
        for _ in range(draws):
            s, u = random_draw(rng)
            dt = rng.uniform(0.05, 0.5)
            assert_states_close(euler_step(s, u, geom, dt, substeps).as_array(),
                                loop_euler(s, u, geom, dt, substeps).as_array())

    def test_overflowing_heading_ends_non_finite(self, sym_geom):
        # 1.7e308 m/s turns the heading past the largest float within 2 s:
        # the state comes back NaN, where wrapping the infinite heading or
        # taking its math.cos would raise
        s = euler_step(RobotState(0, 0, 0, 1.7e308, 1.7e308), ControlInput(0, 0, 1.5, -1.5),
                       sym_geom, 2.0, 10)
        assert math.isnan(s.heading) and math.isnan(s.x) and math.isnan(s.y)

    @pytest.mark.parametrize("substeps", [1, 10, 1024])
    def test_heading_crosses_pi(self, substeps, sym_geom):
        s, u = CROSSING
        want = loop_euler(s, u, sym_geom, 0.5, substeps)
        assert -math.pi < want.heading < -3.0  # wrapped past +pi
        assert_states_close(euler_step(s, u, sym_geom, 0.5, substeps).as_array(),
                            want.as_array())


def two_pass_rollout(state, inp, geom, n, h):
    """`rollout` as first written, `_rates` evaluated twice over arrays: once
    for the yaw rate, once more for the position rates with the heading. The
    oracle for the one-pass form."""
    out = np.empty((n + 1, 5))
    out[0] = state.as_array()
    out[1:, 3:] = (h * inp.accel_front, h * inp.accel_rear)
    out[:, 3:].cumsum(axis=0, out=out[:, 3:])
    speeds = out[:-1, 3], out[:-1, 4]
    _, _, yaw_rate = _rates(state.heading, *speeds, inp, geom)
    out[1:, 2] = h * yaw_rate
    out[:, 2].cumsum(out=out[:, 2])
    x_dot, y_dot, _ = _rates(out[:-1, 2], *speeds, inp, geom)
    out[1:, 0], out[1:, 1] = h * x_dot, h * y_dot
    out[:, :2].cumsum(axis=0, out=out[:, :2])
    return out


class TestRollout:
    @pytest.mark.parametrize("n,h", [(20, 0.1), (10, 0.01)])
    def test_matches_two_pass_form(self, n, h, rng):
        geom = RobotGeometry(1.1, 1.4, 1.3, 0.5)
        for _ in range(3000):
            s, u = random_draw(rng)
            assert (rollout(s, u, geom, n, h).tobytes()
                    == two_pass_rollout(s, u, geom, n, h).tobytes())

    def test_infinite_heading_is_nan_as_in_numpy(self, sym_geom):
        # the heading overflows on the 7th step; from the 8th on, math.cos
        # would raise where np.cos gives NaN, and the rollout gives NaN
        s, u = RobotState(0, 0, 0, 1.7e308, 1.7e308), ControlInput(0, 0, 1.5, -1.5)
        got = rollout(s, u, sym_geom, 10, 0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            want = two_pass_rollout(s, u, sym_geom, 10, 0.2)
        assert np.isinf(got[-1, 2]) and np.isnan(got[-1, :2]).all()
        assert np.array_equal(got, want, equal_nan=True)

    def test_zero_steps_is_the_start(self, sym_geom):
        s = RobotState(1.0, -2.0, 3.0, 1.0, 1.2)
        assert np.array_equal(rollout(s, ControlInput(0.2, 0.1, 0.6, -0.6), sym_geom, 0, 0.1),
                              [s.as_array()])

    def test_rejects_negative_steps(self, sym_geom):
        with pytest.raises(ValueError):
            rollout(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0), sym_geom, -1, 0.1)

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_step_not_positive_and_finite(self, h, sym_geom):
        for n in (0, 10):
            with pytest.raises(ValueError, match="finite"):
                rollout(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0), sym_geom, n, h)


class TestPredictRobotMatchesLoop:
    @staticmethod
    def loop_poses(state, inp, geom, n, dt):
        poses, cur = [], state
        for _ in range(n):
            cur = loop_euler(cur, inp, geom, dt)
            poses.append((cur.x, cur.y, cur.heading))
        return poses

    def check(self, state, inp, geom, n=20, dt=0.1):
        got = predict_robot(state, inp, geom, n, dt)
        assert got.tobytes() == rollout(state, inp, geom, n, dt)[1:, :3].tobytes()
        for row, want in zip(got, self.loop_poses(state, inp, geom, n, dt)):
            assert_states_close(row, want)
        return got

    def test_seeded_draws(self, rng):
        geom = RobotGeometry(1.1, 1.4, 1.3, 0.5)
        for _ in range(300):
            self.check(*random_draw(rng), geom)

    def test_heading_crosses_pi(self, sym_geom):
        # the rows' heading is unwrapped; the loop's wraps past +pi
        headings = self.check(*CROSSING, sym_geom)[:, 2]
        assert headings[0] > 3.0 and headings[-1] > math.pi
        assert normalize_angle(headings[-1]) < 0.0


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


@pytest.mark.parametrize("args", [
    # wheel offsets
    (math.nan, 1.2, 1.3, 0.5), (1.2, math.nan, 1.3, 0.5), (math.nan, 1.2, -1.0, 0.5),
    (1.2, 0.0, 1.3, 0.5),
    # half-extents
    (1.2, 1.2, -1.0, 0.5), (1.2, 1.2, 1.3, 0.0), (1.2, 1.2, math.nan, 0.5),
    (1.2, 1.2, 1.3, math.nan), (1.2, 1.2, math.inf, 0.5), (1.2, 1.2, 1.3, math.inf),
])
def test_geometry_rejects_nonpositive_or_nan_dimensions(args):
    with pytest.raises(ValueError):
        RobotGeometry(*args)


def test_state_heading_normalized():
    assert RobotState(0, 0, 4 * math.pi, 0, 0).heading == pytest.approx(0.0)
