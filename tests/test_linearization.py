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
            lin = linearize(s, u, geom, DT)
            pred = lin.a_mat @ s.as_array() + lin.b_mat @ u.as_array() + lin.d_vec
            assert np.max(np.abs(pred - euler_step(s, u, geom, DT).as_array())) < 1e-12

    def test_symmetric_point_entries(self, geom):
        # zero steering, heading 0, both wheels at 1 m/s
        lin = linearize(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0),
                        geom, DT)
        assert lin.a_mat[0, 3] == pytest.approx(0.5 * DT)
        assert lin.a_mat[0, 4] == pytest.approx(0.5 * DT)
        assert lin.a_mat[1, 2] == pytest.approx(DT)

    def test_matches_finite_differences(self, geom, rng):
        worst = 0.0
        for _ in range(200):
            s, u = random_operating_point(rng)
            lin = linearize(s, u, geom, DT)
            a_fd, b_fd = finite_difference_jacobians(s, u, geom, DT)
            worst = max(worst,
                        float(np.max(np.abs(a_fd - lin.a_mat))),
                        float(np.max(np.abs(b_fd - lin.b_mat))))
        assert worst < 1e-5


class TestAugment:
    def test_shapes(self, geom):
        lin = linearize(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0), geom, DT)
        aug = augment(lin)
        assert aug.a_bar.shape == (9, 9)
        assert aug.b_bar.shape == (9, 4)
        assert aug.d_bar.shape == (9,)

    def test_block_structure(self, geom):
        lin = linearize(RobotState(1, 2, 0.3, 0.8, 0.9),
                        ControlInput(0.1, -0.2, 0.3, 0.1), geom, DT)
        aug = augment(lin)
        assert np.array_equal(aug.a_bar[5:, :5], np.zeros((4, 5)))
        assert np.array_equal(aug.a_bar[5:, 5:], np.eye(4))
        assert np.array_equal(aug.a_bar[:5, :5], lin.a_mat)
        assert np.array_equal(aug.a_bar[:5, 5:], lin.b_mat)

    def test_single_step_equivalence(self, geom, rng):
        for _ in range(50):
            s, u = random_operating_point(rng)
            lin = linearize(s, u, geom, DT)
            aug = augment(lin)
            du = rng.uniform(-0.3, 0.3, size=4)
            x0 = np.concatenate([s.as_array(), u.as_array()])
            x1 = aug.a_bar @ x0 + aug.b_bar @ du + aug.d_bar
            direct = (lin.a_mat @ s.as_array()
                      + lin.b_mat @ (u.as_array() + du) + lin.d_vec)
            assert np.max(np.abs(x1[:5] - direct)) < 1e-12
            assert np.max(np.abs(x1[5:] - (u.as_array() + du))) < 1e-12

    def test_multi_step_equivalence(self, geom, rng):
        s, u = random_operating_point(rng)
        lin = linearize(s, u, geom, DT)
        aug = augment(lin)
        deltas = rng.uniform(-0.1, 0.1, size=(20, 4))
        x = np.concatenate([s.as_array(), u.as_array()])
        z = s.as_array()
        u_cur = u.as_array()
        for du in deltas:
            x = aug.a_bar @ x + aug.b_bar @ du + aug.d_bar
            u_cur = u_cur + du
            z = lin.a_mat @ z + lin.b_mat @ u_cur + lin.d_vec
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
            n_mat = augment(linearize(s, u, geom, DT)).a_bar - np.eye(9)
            assert np.array_equal(np.linalg.matrix_power(n_mat, NILPOTENCY_INDEX),
                                  np.zeros((9, 9)))
            if df != dr:  # the heading then turns with the speeds: no lower power vanishes
                assert np.any(np.linalg.matrix_power(n_mat, NILPOTENCY_INDEX - 1) != 0.0)

    def test_zero_delta_matches_held_input_rollout(self, geom, rng):
        s, u = random_operating_point(rng)
        lin = linearize(s, u, geom, DT)
        aug = augment(lin)
        x = np.concatenate([s.as_array(), u.as_array()])
        z = s.as_array()
        for _ in range(15):
            x = aug.a_bar @ x + aug.d_bar
            z = lin.a_mat @ z + lin.b_mat @ u.as_array() + lin.d_vec
            assert np.max(np.abs(x[:5] - z)) < 1e-10
