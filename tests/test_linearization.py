import numpy as np
import pytest

from apfmpc.kinematics import (NILPOTENCY_INDEX, ControlInput, RobotState, augment, euler_step,
                               linearize)

DT = 0.1


def finite_difference_jacobians(state, inp, geom, dt, eps=1e-6):
    a = np.zeros((5, 5))
    b = np.zeros((5, 4))
    s0, u0 = state.as_array(), inp.as_array()
    for i in range(5):
        plus, minus = s0.copy(), s0.copy()
        plus[i] += eps
        minus[i] -= eps
        a[:, i] = (euler_step(RobotState(*plus.tolist()), inp, geom, dt).as_array()
                   - euler_step(RobotState(*minus.tolist()), inp, geom, dt).as_array()
                   ) / (2 * eps)
    for i in range(4):
        plus, minus = u0.copy(), u0.copy()
        plus[i] += eps
        minus[i] -= eps
        b[:, i] = (euler_step(state, ControlInput(*plus.tolist()), geom, dt).as_array()
                   - euler_step(state, ControlInput(*minus.tolist()), geom, dt).as_array()
                   ) / (2 * eps)
    return a, b


def random_operating_point(rng):
    state = RobotState(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-2, 2),
                       rng.uniform(0.1, 1.4), rng.uniform(0.1, 1.4))
    inp = ControlInput(rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(-np.pi / 3, np.pi / 3),
                       rng.uniform(-np.pi / 3, np.pi / 3))
    return state, inp


class TestLinearize:
    def test_exactness_identity(self, geom, rng):
        for _ in range(50):
            s, u = random_operating_point(rng)
            a_mat, b_mat, d_vec = linearize(s, u, geom, DT)
            pred = a_mat @ s.as_array() + b_mat @ u.as_array() + d_vec
            assert np.max(np.abs(pred - euler_step(s, u, geom, DT).as_array())) < 1e-12

    def test_symmetric_point_entries(self, geom):
        # zero steering, heading 0, both wheels at 1 m/s
        a_mat, _, _ = linearize(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0),
                                geom, DT)
        assert a_mat[0, 3] == pytest.approx(0.5 * DT)
        assert a_mat[0, 4] == pytest.approx(0.5 * DT)
        assert a_mat[1, 2] == pytest.approx(DT)

    def test_matches_finite_differences(self, geom, rng):
        worst = 0.0
        for _ in range(200):
            s, u = random_operating_point(rng)
            a_mat, b_mat, _ = linearize(s, u, geom, DT)
            a_fd, b_fd = finite_difference_jacobians(s, u, geom, DT)
            worst = max(worst,
                        float(np.max(np.abs(a_fd - a_mat))),
                        float(np.max(np.abs(b_fd - b_mat))))
        assert worst < 1e-5


class TestAugment:
    def test_shapes(self, geom):
        lin = linearize(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0), geom, DT)
        assert [m.shape for m in lin] == [(5, 5), (5, 4), (5,)]
        assert [m.shape for m in augment(*lin)] == [(9, 9), (9, 4), (9,)]

    def test_block_structure(self, geom):
        a_mat, b_mat, d_vec = linearize(RobotState(1, 2, 0.3, 0.8, 0.9),
                                        ControlInput(0.1, -0.2, 0.3, 0.1), geom, DT)
        a_bar, b_bar, d_bar = augment(a_mat, b_mat, d_vec)
        assert np.array_equal(a_bar[5:, :5], np.zeros((4, 5)))
        assert np.array_equal(a_bar[5:, 5:], np.eye(4))
        assert np.array_equal(a_bar[:5, :5], a_mat)
        assert np.array_equal(a_bar[:5, 5:], b_mat)
        assert np.array_equal(b_bar, np.vstack([b_mat, np.eye(4)]))
        assert np.array_equal(d_bar, np.concatenate([d_vec, np.zeros(4)]))

    def test_single_step_equivalence(self, geom, rng):
        for _ in range(50):
            s, u = random_operating_point(rng)
            a_mat, b_mat, d_vec = linearize(s, u, geom, DT)
            a_bar, b_bar, d_bar = augment(a_mat, b_mat, d_vec)
            du = rng.uniform(-0.3, 0.3, size=4)
            x0 = np.concatenate([s.as_array(), u.as_array()])
            x1 = a_bar @ x0 + b_bar @ du + d_bar
            direct = (a_mat @ s.as_array()
                      + b_mat @ (u.as_array() + du) + d_vec)
            assert np.max(np.abs(x1[:5] - direct)) < 1e-12
            assert np.max(np.abs(x1[5:] - (u.as_array() + du))) < 1e-12

    def test_multi_step_equivalence(self, geom, rng):
        s, u = random_operating_point(rng)
        a_mat, b_mat, d_vec = linearize(s, u, geom, DT)
        a_bar, b_bar, d_bar = augment(a_mat, b_mat, d_vec)
        deltas = rng.uniform(-0.1, 0.1, size=(20, 4))
        x = np.concatenate([s.as_array(), u.as_array()])
        z = s.as_array()
        u_cur = u.as_array()
        for du in deltas:
            x = a_bar @ x + b_bar @ du + d_bar
            u_cur = u_cur + du
            z = a_mat @ z + b_mat @ u_cur + d_vec
            assert np.max(np.abs(x[:5] - z)) < 1e-10

    def test_delta_form_is_nilpotent(self, geom):
        # the closed-form condensation in mpc needs (Ā - I)⁴ exactly zero,
        # also with the steering at its clamp
        rng = np.random.default_rng(29)
        edge = np.pi / 2 - 1e-6
        steers = [(edge, edge), (edge, -edge), (-edge, edge), (-edge, -edge), None]
        for k in range(250):
            s, u = random_operating_point(rng)
            s = RobotState(s.x, s.y, rng.uniform(-np.pi, np.pi), s.v_front, s.v_rear)
            df, dr = steers[k % 5] or (u.steer_front, u.steer_rear)
            u = ControlInput(u.accel_front, u.accel_rear, df, dr)
            n_mat = augment(*linearize(s, u, geom, DT))[0] - np.eye(9)
            assert np.array_equal(np.linalg.matrix_power(n_mat, NILPOTENCY_INDEX),
                                  np.zeros((9, 9)))
            if df != dr:  # the heading then turns with the speeds: no lower power vanishes
                assert np.any(np.linalg.matrix_power(n_mat, NILPOTENCY_INDEX - 1) != 0.0)

    def test_zero_delta_matches_held_input_rollout(self, geom, rng):
        s, u = random_operating_point(rng)
        a_mat, b_mat, d_vec = linearize(s, u, geom, DT)
        a_bar, _, d_bar = augment(a_mat, b_mat, d_vec)
        x = np.concatenate([s.as_array(), u.as_array()])
        z = s.as_array()
        for _ in range(15):
            x = a_bar @ x + d_bar
            z = a_mat @ z + b_mat @ u.as_array() + d_vec
            assert np.max(np.abs(x[:5] - z)) < 1e-10
