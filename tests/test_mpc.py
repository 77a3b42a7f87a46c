import math

import numpy as np
import pytest

from apfmpc.geometry import OrientedRectangle, Pose2D, closest_pair, normalize_angle
from apfmpc.kinematics import ControlInput, RobotState, euler_step
from apfmpc.linearization import augment, linearize
from apfmpc.mpc import (VARIANTS, MpcConfig, MpcController, ReferenceHorizon,
                        build_reference, path_table, project_onto_path,
                        slip_constraint_rows)
from apfmpc.potential_field import quadratic_approx
from apfmpc.prediction import Obstacle, predict_obstacle, predict_robot
from apfmpc.qp import INFEASIBLE, QpSolver
from conftest import double_back

REF_SPEED = 1.389
STRAIGHT = path_table(np.array([[0.0, 0.0], [40.0, 0.0]]))
STRAIGHT_30 = path_table(np.array([[0.0, 0.0], [30.0, 0.0]]))


def controller(cfg, geom, **kw):
    return MpcController(cfg, geom, **kw)


def obstacle_at(x, y, heading=0.0, hl=0.75, hw=0.4):
    return Obstacle(OrientedRectangle(Pose2D(x, y, heading), hl, hw))


def loop_projection(point, path):
    """Reference oracle: closest point on the polyline, one segment at a
    time; strict comparison keeps the earliest segment on ties."""
    pts = np.asarray(path, dtype=float)
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    p = np.asarray(point, dtype=float)
    best_d, s0 = math.inf, 0.0
    for i in range(len(seg)):
        t = float(np.dot(p - pts[i], seg[i]) / seg_len[i] ** 2)
        t = min(max(t, 0.0), 1.0)
        q = pts[i] + t * seg[i]
        d = float(np.hypot(*(p - q)))
        if d < best_d:
            best_d, s0 = d, cum[i] + t * seg_len[i]
    return best_d, s0


def loop_reference(path, state, ref_speed, cfg):
    """Reference oracle: one target at a time, each heading unwrapped against
    the one before it."""
    pts = np.asarray(path, dtype=float)
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    headings = np.arctan2(seg[:, 1], seg[:, 0])
    s0 = loop_projection([state.x, state.y], pts)[1]
    targets = np.zeros((cfg.n_pred, 5))
    prev_heading = state.heading
    for i in range(cfg.n_pred):
        s = s0 + ref_speed * cfg.dt * (i + 1)
        if s >= cum[-1]:
            pos, heading, speed = pts[-1], headings[-1], 0.0
        else:
            j = min(int(np.searchsorted(cum, s, side="right") - 1), len(seg) - 1)
            pos = pts[j] + (s - cum[j]) / seg_len[j] * seg[j]
            heading, speed = headings[j], ref_speed
        heading = prev_heading + normalize_angle(heading - prev_heading)
        prev_heading = heading
        targets[i] = (pos[0], pos[1], heading, speed, speed)
    return targets


def random_polyline(rng):
    """2-10 vertices; each segment turns by up to +-pi from the one before."""
    n = int(rng.integers(1, 10))
    direction = rng.uniform(-math.pi, math.pi) + np.cumsum(
        np.concatenate([[0.0], rng.uniform(-math.pi, math.pi, n - 1)]))
    steps = rng.uniform(0.05, 3.0, n)[:, None] * np.column_stack(
        [np.cos(direction), np.sin(direction)])
    return np.cumsum(np.vstack([rng.uniform(-5.0, 5.0, 2), steps]), axis=0)


def loop_condensation(state, prev_input, geom, cfg):
    """Reference oracle: condensed (su, base) with every block of su
    computed where it lands."""
    ns, nu = 5, 4
    aug = augment(linearize(state, prev_input, geom, cfg.dt))
    x0 = np.concatenate([state.as_array(), prev_input.as_array()])
    powers = [np.eye(ns + nu)]
    for _ in range(cfg.n_pred):
        powers.append(aug.a_bar @ powers[-1])
    su = np.zeros((cfg.n_pred * ns, cfg.n_ctrl * nu))
    base = np.zeros(cfg.n_pred * ns)
    dsum = np.zeros(ns + nu)
    for i in range(cfg.n_pred):
        dsum = aug.a_bar @ dsum + aug.d_bar
        base[i * ns:(i + 1) * ns] = (powers[i + 1] @ x0 + dsum)[:ns]
        for j in range(min(i + 1, cfg.n_ctrl)):
            su[i * ns:(i + 1) * ns, j * nu:(j + 1) * nu] = \
                powers[i - j][:ns] @ aug.b_bar
    return su, base


def loop_apf(controller, state, obstacles, su, base):
    """Reference oracle: the APF part of (h_mat, f_vec, const) and the list
    of (step, expansion) terms, one (step, footprint) term at a time."""
    cfg, geom = controller.cfg, controller.geom
    ns, nz = 5, cfg.n_ctrl * 4
    if controller.variant == "no_customization":
        robot_poses = [Pose2D(state.x, state.y, state.heading)] * cfg.n_pred
        obs_tracks = [[obs.footprint.center] * cfg.n_pred for obs in obstacles]
    else:
        robot_poses = predict_robot(state, controller.prev_input, geom,
                                    cfg.n_pred, cfg.dt)
        obs_tracks = [[obs.footprint.center] * cfg.n_pred
                      if obs.velocity == (0.0, 0.0) and obs.yaw_rate == 0.0
                      else predict_obstacle(obs, cfg.n_pred, cfg.dt)
                      for obs in obstacles]
    h_mat, f_vec, const, terms = np.zeros((nz, nz)), np.zeros(nz), 0.0, []
    for i, rpose in enumerate(robot_poses):
        rrect = geom.footprint(RobotState(rpose.x, rpose.y, rpose.heading, 0.0, 0.0))
        rows = su[i * ns:i * ns + 2, :]
        base_i = base[i * ns:i * ns + 2]
        for obs, track in zip(obstacles, obs_tracks):
            orect = OrientedRectangle(track[i], obs.footprint.half_length,
                                      obs.footprint.half_width)
            pair = closest_pair(rrect, orect)
            if pair.distance > cfg.activation_radius:
                continue
            params = cfg.boundary_apf if obs.kind == "boundary" else cfg.obstacle_apf
            quad = quadratic_approx((rpose.x, rpose.y), pair.gap, params)
            terms.append((i, quad))
            e_i = base_i - np.array(quad.anchor)
            h_mat += rows.T @ quad.hessian_psd @ rows
            f_vec += rows.T @ (quad.hessian_psd @ e_i + quad.gradient)
            const += (quad.constant + quad.gradient @ e_i
                      + 0.5 * e_i @ quad.hessian_psd @ e_i)
    return 0.5 * (h_mat + h_mat.T), f_vec, const, terms


def add_at_apf(controller, state, obstacles):
    """Reference oracle: the per-step APF sums built one footprint at a
    time, each footprint's active steps expanded in one call and added into
    the steps with np.add.at."""
    cfg, geom, n_p = controller.cfg, controller.geom, controller.cfg.n_pred
    frozen = controller.variant == "no_customization"
    poses = ([Pose2D(state.x, state.y, state.heading)] * n_p if frozen else
             predict_robot(state, controller.prev_input, geom, n_p, cfg.dt))
    anchor = np.array([(p.x, p.y) for p in poses])
    robot_rects = [OrientedRectangle(p, geom.half_length, geom.half_width)
                   for p in (poses[:1] if frozen else poses)]
    const, grad, hess = np.zeros(n_p), np.zeros((n_p, 2)), np.zeros((n_p, 2, 2))
    for obs in obstacles:
        fp = obs.footprint
        track = [fp] * len(robot_rects)
        if not frozen and (obs.velocity != (0.0, 0.0) or obs.yaw_rate != 0.0):
            track = [OrientedRectangle(pose, fp.half_length, fp.half_width)
                     for pose in predict_obstacle(obs, n_p, cfg.dt)]
        pairs = np.broadcast_to([(*pair.gap, pair.distance)
                                 for pair in map(closest_pair, robot_rects, track)],
                                (n_p, 3))
        steps = np.flatnonzero(pairs[:, 2] <= cfg.activation_radius)
        params = cfg.boundary_apf if obs.kind == "boundary" else cfg.obstacle_apf
        quad = quadratic_approx(anchor[steps], pairs[steps, 0:2], params)
        np.add.at(const, steps, quad.constant)
        np.add.at(grad, steps, quad.gradient)
        np.add.at(hess, steps, quad.hessian_psd)
    return const, grad, hess, anchor


def apf_scene(rng):
    """Seeded state, input and footprints: two walls, static and moving
    obstacles, one of them within reach of the robot."""
    s = RobotState(rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8),
                   rng.uniform(-0.3, 0.3), *rng.uniform(0.4, 1.4, size=2))
    u0 = ControlInput(*rng.uniform(-0.5, 0.5, size=2), *rng.uniform(-0.3, 0.3, size=2))
    walls = [Obstacle(OrientedRectangle(Pose2D(10.0, y, 0.0), 12.0, 0.1), kind="boundary")
             for y in (3.1, -3.1)]
    static = obstacle_at(rng.uniform(3.0, 7.0), rng.uniform(-1.5, 1.5),
                         rng.uniform(-1.0, 1.0))
    moving = Obstacle(OrientedRectangle(Pose2D(rng.uniform(5.0, 12.0),
                                               rng.uniform(-2.0, 2.0), 0.0), 0.5, 0.4),
                      tuple(rng.uniform(-1.0, 1.0, size=2)), rng.uniform(-0.5, 0.5))
    near = obstacle_at(s.x + rng.uniform(2.0, 2.4), s.y + rng.uniform(-0.2, 0.2))
    far = obstacle_at(60.0, 0.0)
    return s, u0, walls + [static, moving, near, far]


class RecordingSolver(QpSolver):
    """QpSolver that keeps a copy of the constraint bounds of every solve,
    the active set it was given, and each problem with its solution."""

    def __init__(self):
        super().__init__()
        self.bounds = []
        self.guesses = []
        self.solves = []

    def solve(self, problem, warm_start=None, active=None):
        self.bounds.append((problem.lower.copy(), problem.upper.copy()))
        self.guesses.append(active)
        sol = super().solve(problem, warm_start, active)
        self.solves.append((problem, sol))
        return sol


class TestBuildReference:
    def test_straight_from_origin(self, cfg):
        ref = build_reference(STRAIGHT, RobotState(0, 0, 0, REF_SPEED, REF_SPEED),
                              REF_SPEED, cfg)
        assert ref.targets.shape == (cfg.n_pred, 5)
        for i in range(cfg.n_pred):
            assert ref.targets[i, 0] == pytest.approx(0.1389 * (i + 1), abs=1e-9)
            assert ref.targets[i, 1] == 0.0
            assert ref.targets[i, 2] == 0.0
            assert ref.targets[i, 3] == pytest.approx(REF_SPEED)
            assert ref.targets[i, 4] == pytest.approx(REF_SPEED)

    def test_lateral_offset_projects_onto_path(self, cfg):
        ref = build_reference(STRAIGHT, RobotState(5.0, 0.7, 0, 1, 1),
                              REF_SPEED, cfg)
        assert ref.targets[0, 0] == pytest.approx(5.0 + 0.1389, abs=1e-9)
        assert np.all(ref.targets[:, 1] == 0.0)

    def test_corner_heading_unwrapped(self, cfg):
        path = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0]])
        ref = build_reference(path_table(path), RobotState(4.5, 0.0, 0.0, 1, 1), 1.0, cfg)
        th = ref.targets[:, 2]
        assert th[0] == pytest.approx(0.0)
        assert th[-1] == pytest.approx(math.pi / 2)
        assert np.max(np.abs(np.diff(th))) <= math.pi / 2 + 1e-12

    def test_past_end_holds_final_point(self, cfg):
        path = np.array([[0.0, 0.0], [1.0, 0.0]])
        ref = build_reference(path_table(path), RobotState(0.9, 0.0, 0.0, 1, 1), 1.0, cfg)
        assert np.all(ref.targets[1:, 0] == 1.0)
        assert np.all(ref.targets[1:, 3] == 0.0)
        assert np.all(ref.targets[1:, 4] == 0.0)

    def test_matches_loop_oracle(self, cfg):
        rng = np.random.default_rng(11)
        worst, past_end, still, sharpest = 0.0, 0, 0, 0.0
        for k in range(2000):
            path = random_polyline(rng)
            x, y = path[int(rng.integers(len(path)))] + rng.uniform(-1.0, 1.0, 2)
            state = RobotState(x, y, rng.uniform(-math.pi, math.pi), 1.0, 1.0)
            ref_speed = 0.0 if k % 10 == 0 else rng.uniform(0.0, 3.0)
            got = build_reference(path_table(path), state, ref_speed, cfg).targets
            want = loop_reference(path, state, ref_speed, cfg)
            worst = max(worst, float(np.max(np.abs(got - want)
                                            / np.maximum(1.0, np.abs(want)))))
            past_end += bool(ref_speed > 0.0 and np.any(want[:, 3] == 0.0))
            still += ref_speed == 0.0
            sharpest = max(sharpest, float(np.max(np.abs(np.diff(want[:, 2])))))
        assert worst <= 1e-12
        assert past_end >= 100 and still == 200 and sharpest > 3.0

    @pytest.mark.parametrize("path,heading", [
        ([[0.0, 0.0], [10.0, 0.0]], math.pi),             # robot faces back
        ([[2.0, 0.0], [0.0, 0.0], [3.0, 0.0]], math.pi),  # path doubles back
        ([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]], 0.0),
    ], ids=["robot_reversed", "u_turn_to_plus_x", "u_turn_to_minus_x"])
    def test_half_turns_match_loop_oracle(self, cfg, path, heading):
        # a turn of exactly -pi wraps to +pi, as normalize_angle wraps it
        state = RobotState(0.5, 0.2, heading, 1.0, 1.0)
        got = build_reference(path_table(path), state, 1.0, cfg).targets
        want = loop_reference(np.array(path), state, 1.0, cfg)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.all(np.diff(np.concatenate([[heading], want[:, 2]])) >= 0.0)

    def test_exact_double_back(self, cfg):
        # a half turn that the heading sum rounds just past pi is a valid horizon
        for heading in np.linspace(-3.0, 3.0, 601):
            scn = double_back(heading)
            state = scn.initial_state
            got = build_reference(path_table(scn.path), state, 1.0, cfg).targets
            want = loop_reference(scn.path, state, 1.0, cfg)
            assert np.max(np.abs(got[:, [0, 1, 3, 4]] - want[:, [0, 1, 3, 4]])) <= 1e-12
            # rounding picks the half turn's side, so headings agree up to 2 pi
            off = got[:, 2] - want[:, 2]
            assert np.max(np.abs(np.arctan2(np.sin(off), np.cos(off)))) <= 1e-12
            assert abs(got[-1, 2] - heading) == pytest.approx(math.pi)

    def test_horizon_rejects_wrapped_heading(self):
        t = np.zeros((3, 5))
        t[:, 2] = [0.0, 3.2, 0.0]
        with pytest.raises(ValueError):
            ReferenceHorizon(t)


class TestProjectOntoPath:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            path = np.cumsum(rng.uniform(-3.0, 3.0, size=(rng.integers(2, 12), 2)),
                             axis=0)
            points = rng.uniform(-15.0, 15.0, size=(25, 2))
            dist, arc = project_onto_path(points, path_table(path))
            expected = np.array([loop_projection(p, path) for p in points])
            assert np.array_equal(dist, expected[:, 0])
            assert np.array_equal(arc, expected[:, 1])

    def test_tie_goes_to_earliest_segment(self):
        # inside the corner, 2 m from both legs
        path = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]])
        dist, arc = project_onto_path([[2.0, 2.0]], path_table(path))
        assert np.array_equal(dist, [2.0])
        assert np.array_equal(arc, [2.0])


class TestPathTable:
    def test_rejects_degenerate_path(self):
        with pytest.raises(ValueError):
            path_table(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            path_table(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_rejects_zero_length_segment(self):
        with pytest.raises(ValueError):
            path_table(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))


class TestSlipRows:
    def test_matched_straight_motion(self, cfg):
        e_row, g = slip_constraint_rows(RobotState(0, 0, 0, 1, 1),
                                        ControlInput(0, 0, 0, 0), cfg)
        assert g == pytest.approx(0.0)
        assert np.allclose(e_row, [cfg.dt, -cfg.dt, 0.0, 0.0])

    def test_speed_mismatch_offset(self, cfg):
        _, g = slip_constraint_rows(RobotState(0, 0, 0, 1.2, 1.0),
                                    ControlInput(0, 0, 0, 0), cfg)
        assert g == pytest.approx(0.2)

    def test_linearization_first_order_accurate(self, cfg, rng):
        def measure(state, u):
            vf = state.v_front + cfg.dt * u[0]
            vr = state.v_rear + cfg.dt * u[1]
            return vf * math.cos(u[2]) - vr * math.cos(u[3])

        for _ in range(50):
            s = RobotState(0, 0, 0, rng.uniform(0.2, 1.4), rng.uniform(0.2, 1.4))
            u0 = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                           rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)])
            e_row, g = slip_constraint_rows(s, ControlInput.from_array(u0), cfg)
            du = rng.uniform(-0.05, 0.05, size=4)
            exact = measure(s, u0 + du)
            approx = g + float(e_row @ du)
            assert abs(exact - approx) < 5e-3


class TestAssemble:
    def test_dimensions(self, cfg, geom):
        c = controller(cfg, geom)
        ref = build_reference(STRAIGHT, RobotState(0, 0, 0, 1, 1), REF_SPEED, cfg)
        asm = c.assemble(RobotState(0, 0, 0, 1, 1), c.prev_input, ref, [])
        nz = cfg.n_ctrl * 4
        assert asm.qp.h_mat.shape == (nz, nz)
        assert asm.su.shape == (cfg.n_pred * 5, nz)
        # cumulative input rows + slip rows + two bounded output dims + box
        assert asm.qp.a_mat.shape == (cfg.n_ctrl * 4 + cfg.n_ctrl + 2 * cfg.n_pred + nz, nz)
        # the increment box is the last rows: the identity with bounds ±du_max
        assert np.array_equal(asm.qp.a_mat[-nz:], np.eye(nz))
        assert np.allclose(asm.qp.upper[-nz:], np.tile(cfg.du_max, cfg.n_ctrl))
        assert np.allclose(asm.qp.lower[-nz:], -np.tile(cfg.du_max, cfg.n_ctrl))

    def test_variant_drops_slip_rows(self, cfg, geom):
        full = controller(cfg, geom)
        bare = controller(cfg, geom, variant="no_customization")
        ref = build_reference(STRAIGHT, RobotState(0, 0, 0, 1, 1), REF_SPEED, cfg)
        s = RobotState(0, 0, 0, 1, 1)
        n_full = full.assemble(s, full.prev_input, ref, []).qp.a_mat.shape[0]
        n_bare = bare.assemble(s, bare.prev_input, ref, []).qp.a_mat.shape[0]
        assert n_full - n_bare == cfg.n_ctrl

    @pytest.mark.parametrize("cfg", [MpcConfig(), MpcConfig(n_ctrl=20), MpcConfig(n_ctrl=1)],
                             ids=["default", "n_ctrl_eq_n_pred", "n_ctrl_1"])
    def test_condensation_matches_loop_oracle(self, cfg, geom):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = RobotState(*rng.uniform(-2.0, 2.0, size=3), *rng.uniform(0.2, 1.4, size=2))
            u0 = ControlInput(*rng.uniform(-0.5, 0.5, size=2), *rng.uniform(-0.8, 0.8, size=2))
            c = controller(cfg, geom, initial_input=u0)
            asm = c.assemble(s, u0, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
            su, base = loop_condensation(s, u0, geom, cfg)
            # the closed form sums the powers in another order than the loop:
            # measured worst 2.2e-16 (su) and 9.2e-16 (base) of the largest entry
            assert np.max(np.abs(asm.su - su)) <= 1e-13 * np.max(np.abs(su))
            assert np.max(np.abs(asm.base - base)) <= 1e-13 * np.max(np.abs(base))
            assert np.array_equal(asm.su == 0.0, su == 0.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_apf_fold_matches_loop_oracle(self, geom, variant):
        # zero tracking and effort weights leave the APF part alone in the
        # difference, so no large tracking entry cancels in the subtraction
        cfg = MpcConfig(q_weights=(0.0,) * 5, r_weights=(0.0,) * 4)
        rng = np.random.default_rng(13)
        for _ in range(8):
            s, u0, footprints = apf_scene(rng)
            c = controller(cfg, geom, initial_input=u0, variant=variant)
            ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
            asm = c.assemble(s, u0, ref, footprints)
            bare = c.assemble(s, u0, ref, [])
            h_apf, f_apf, c_apf, terms = loop_apf(c, s, footprints, asm.su, asm.base)
            assert len({i for i, _ in terms}) == cfg.n_pred
            np.testing.assert_allclose(asm.qp.h_mat - bare.qp.h_mat, h_apf, rtol=1e-12)
            np.testing.assert_allclose(asm.qp.f_vec - bare.qp.f_vec, f_apf, rtol=1e-12)
            assert asm.const - bare.const == pytest.approx(c_apf, rel=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_apf_sums_bit_exact_against_add_at_oracle(self, cfg, geom, variant):
        rng = np.random.default_rng(29)
        scenes = [apf_scene(rng) for _ in range(8)]
        # a lone wall below an axis-aligned robot: each Hessian's off-diagonal
        # is -0.0, which the oracle's adding into zeros turns into +0.0
        scenes.append((RobotState(0.0, 0.0, 0.0, 1.0, 1.0), ControlInput(0.0, 0.0, 0.0, 0.0),
                       [Obstacle(OrientedRectangle(Pose2D(10.0, -3.1, 0.0), 12.0, 0.1),
                                 kind="boundary")]))
        s, u0, _ = scenes[0]
        # no row active: every footprint beyond the activation radius
        scenes.append((s, u0, [
            obstacle_at(60.0, 0.0),
            Obstacle(OrientedRectangle(Pose2D(0.0, 40.0, 0.3), 5.0, 0.1), kind="boundary"),
            Obstacle(OrientedRectangle(Pose2D(-50.0, 0.0, 0.0), 0.5, 0.4), (0.5, 0.2), 0.4)]))
        for s, u0, footprints in scenes:
            c = controller(cfg, geom, initial_input=u0, variant=variant)
            got = c._apf_quadratic(s, u0, footprints)
            want = add_at_apf(c, s, footprints)
            for got_part, want_part in zip((got.constant, got.gradient, got.hessian_psd,
                                            got.anchor), want):
                assert np.array_equal(got_part, want_part)
                assert np.array_equal(np.signbit(got_part), np.signbit(want_part))
        assert not np.any(got.constant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_apf_cost_matches_loop_oracle(self, cfg, geom, variant):
        rng = np.random.default_rng(17)
        for _ in range(8):
            s, u0, footprints = apf_scene(rng)
            c = controller(cfg, geom, initial_input=u0, variant=variant)
            ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
            asm = c.assemble(s, u0, ref, footprints)
            terms = loop_apf(c, s, footprints, asm.su, asm.base)[3]
            sol = c.step(s, ref, footprints)
            oracle = 0.0
            for i, quad in terms:
                r = sol.predicted_outputs[i, :2] - np.array(quad.anchor)
                oracle += quad.constant + quad.gradient @ r + 0.5 * r @ quad.hessian_psd @ r
            assert sol.apf_cost == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_closest_pairs_per_footprint(self, cfg, geom, monkeypatch, variant):
        # the frozen variant's robot and footprints hold still over the
        # horizon, so one pair per footprint serves every step
        import apfmpc.mpc
        pairs_per_footprint = 1 if variant == "no_customization" else cfg.n_pred
        calls = []
        monkeypatch.setattr(apfmpc.mpc, "closest_pair",
                            lambda a, b: calls.append(1) or closest_pair(a, b))
        s, u0, footprints = apf_scene(np.random.default_rng(19))
        controller(cfg, geom, initial_input=u0, variant=variant).assemble(
            s, u0, build_reference(STRAIGHT, s, REF_SPEED, cfg), footprints)
        assert len(calls) == pairs_per_footprint * len(footprints)

    def test_robot_rectangles_are_the_footprints(self, cfg, geom, monkeypatch):
        # built straight from the predicted poses, bit for bit the rectangles
        # geom.footprint gives for the same states
        import apfmpc.mpc
        rects = []
        monkeypatch.setattr(apfmpc.mpc, "closest_pair",
                            lambda a, b: rects.append(a) or closest_pair(a, b))
        rng = np.random.default_rng(23)
        for _ in range(5):
            s, u0, _ = apf_scene(rng)
            s = RobotState(s.x, s.y, rng.uniform(-math.pi, math.pi), s.v_front, s.v_rear)
            rects.clear()
            controller(cfg, geom, initial_input=u0).assemble(
                s, u0, build_reference(STRAIGHT, s, REF_SPEED, cfg), [obstacle_at(60.0, 0.0)])
            want = [geom.footprint(RobotState(p.x, p.y, p.heading, 0.0, 0.0))
                    for p in predict_robot(s, u0, geom, cfg.n_pred, cfg.dt)]
            assert list(map(repr, rects)) == list(map(repr, want))

    def test_condensed_matches_stepwise_rollout(self, cfg, geom, rng):
        c = controller(cfg, geom)
        s = RobotState(0.3, -0.2, 0.1, 0.8, 0.9)
        u0 = ControlInput(0.1, 0.0, 0.2, -0.1)
        c.prev_input = u0
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        asm = c.assemble(s, u0, ref, [])
        z = rng.uniform(-0.1, 0.1, size=cfg.n_ctrl * 4)
        eta = (asm.su @ z + asm.base).reshape(cfg.n_pred, 5)

        lin = linearize(s, u0, geom, cfg.dt)
        aug = augment(lin)
        x = np.concatenate([s.as_array(), u0.as_array()])
        for i in range(cfg.n_pred):
            du = z[i * 4:(i + 1) * 4] if i < cfg.n_ctrl else np.zeros(4)
            x = aug.a_bar @ x + aug.b_bar @ du + aug.d_bar
            assert np.max(np.abs(eta[i] - x[:5])) < 1e-8

    def test_assemble_anchors_at_its_prev_input(self, cfg, geom):
        # the field anchors come from the prev_input argument, not from the
        # controller's applied input: after one step, assembling at zero
        # input gives a fresh controller's QP
        s = RobotState(0, 0, 0, 1.0, 1.0)
        ref = build_reference(STRAIGHT, s, 1.0, cfg)
        obstacles = [obstacle_at(3.0, 0.6)]
        c = controller(cfg, geom)
        c.step(s, ref, obstacles)
        assert c.prev_input != ControlInput(0.0, 0.0, 0.0, 0.0)
        zero = ControlInput(0.0, 0.0, 0.0, 0.0)
        got = c.assemble(s, zero, ref, obstacles)
        want = controller(cfg, geom).assemble(s, zero, ref, obstacles)
        assert np.array_equal(got.apf.anchor, want.apf.anchor)
        assert got.const == want.const
        assert np.array_equal(got.qp.h_mat, want.qp.h_mat)

    def test_on_reference_solution_is_zero(self, cfg, geom):
        c = controller(cfg, geom)
        s = RobotState(0, 0, 0, REF_SPEED, REF_SPEED)
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        sol = c.step(s, ref, [])
        assert np.max(np.abs(sol.delta_sequence)) < 1e-4
        assert sol.tracking_cost < 1e-6

    def test_obstacle_pushes_prediction_away(self, cfg, geom):
        s = RobotState(0, 0, 0, 1.0, 1.0)
        ref = build_reference(STRAIGHT, s, 1.0, cfg)
        free = controller(cfg, geom).step(s, ref, [])
        mean_free = np.mean(free.predicted_outputs[:, :2], axis=0)
        # head-on: the obstacle spans the robot's lateral extent, so the
        # field pushes only along the path and the prediction holds back
        blocked = controller(cfg, geom).step(s, ref, [obstacle_at(3.0, 0.6)])
        shift = np.mean(blocked.predicted_outputs[:, :2], axis=0) - mean_free
        assert shift[0] < -1e-3
        assert blocked.apf_cost > free.apf_cost
        # beside the path, above it: predicted lateral positions move down
        beside = controller(cfg, geom).step(s, ref, [obstacle_at(3.0, 1.2)])
        shift = np.mean(beside.predicted_outputs[:, :2], axis=0) - mean_free
        assert shift[1] < -1e-2
        assert beside.apf_cost > free.apf_cost


class TestStep:
    def test_accelerates_toward_reference_speed(self, cfg, geom):
        c = controller(cfg, geom)
        s = RobotState(0, 0, 0, 0.5, 0.5)
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        sol = c.step(s, ref, [])
        assert sol.applied_input.accel_front > 0.0
        assert sol.applied_input.accel_rear > 0.0

    def test_respects_increment_and_input_bounds(self, cfg, geom):
        c = controller(cfg, geom)
        s = RobotState(0, 0, 0, 0.1, 0.1)
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        for _ in range(20):
            sol = c.step(s, ref, [obstacle_at(4.0, 0.3)])
            u = sol.applied_input.as_array()
            assert np.all(np.abs(u) <= np.array(cfg.u_max) + 1e-12)
            assert np.all(np.abs(sol.delta_sequence)
                          <= np.array(cfg.du_max) + 1e-6)

    def test_objective_decomposition(self, cfg, geom):
        c = controller(cfg, geom)
        s = RobotState(0, 0.4, 0.05, 0.9, 0.9)
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        sol = c.step(s, ref, [obstacle_at(5.0, 0.8), obstacle_at(9.0, -1.0)])
        total = sol.tracking_cost + sol.effort_cost + sol.apf_cost
        assert sol.objective == pytest.approx(total, abs=1e-6)

    def test_deterministic(self, cfg, geom):
        def trajectory():
            c = controller(cfg, geom)
            s = RobotState(0, 0.2, 0, 0.8, 0.8)
            out = []
            for _ in range(10):
                sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg),
                             [obstacle_at(6.0, 0.5)])
                out.append(sol.applied_input.as_array())
            return np.array(out)

        assert np.array_equal(trajectory(), trajectory())

    def test_far_obstacle_has_no_effect(self, cfg, geom):
        s = RobotState(0, 0, 0, 1.0, 1.0)
        ref = build_reference(STRAIGHT, s, 1.0, cfg)
        free = controller(cfg, geom).step(s, ref, [])
        far = controller(cfg, geom).step(s, ref, [obstacle_at(200.0, 0.0)])
        assert np.array_equal(free.applied_input.as_array(),
                              far.applied_input.as_array())

    def test_assembles_once_per_tick(self, cfg, geom, monkeypatch):
        c = controller(cfg, geom)
        calls = []
        assemble = c.assemble

        def counted(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(c, "assemble", counted)
        s = RobotState(0, 0, 0, 1.1, 0.4)
        sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert sol.fallback_doublings >= 1
        assert len(calls) == 1

    def test_certifies_last_active_set(self, cfg, geom):
        # along a straight path most ticks keep the last tick's active set,
        # which the solver then returns without iterating
        c = controller(cfg, geom)
        c.solver = RecordingSolver()
        s = RobotState(0, 0.3, 0.05, 0.8, 0.8)
        for _ in range(30):
            sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
            s = euler_step(s, sol.applied_input, geom, cfg.dt, substeps=10)
        assert len(c.solver.solves) == 30
        certified = [(prob, sol) for prob, sol in c.solver.solves if sol.iterations == 0]
        assert c.solver.solves[0][1].iterations > 0
        assert 2 * len(certified) > len(c.solver.solves) - 1
        tol = c.solver.tolerance
        for prob, sol in certified:
            assert sol.status == "optimal"
            # the solver's rule: each row within tolerance once divided by
            # its largest coefficient, so the box rows, last, within tolerance
            ax = prob.a_mat @ sol.z
            over = np.maximum(prob.lower - ax, ax - prob.upper)
            assert np.all(over <= tol * np.max(np.abs(prob.a_mat), axis=1))
            nz = len(sol.z)
            assert np.array_equal(prob.a_mat[-nz:], np.eye(nz))

    def test_rejects_unknown_variant(self, cfg, geom):
        with pytest.raises(ValueError):
            MpcController(cfg, geom, variant="fancy")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MpcConfig(n_ctrl=0)
        with pytest.raises(ValueError):
            MpcConfig(n_ctrl=30, n_pred=20)
        with pytest.raises(ValueError):
            MpcConfig(slip_band=0.0)


class TestFallbacks:
    def test_widening_rewrites_only_slip_bounds(self, cfg, geom):
        s = RobotState(0, 0, 0, 1.1, 0.4)
        c = controller(cfg, geom)
        c.solver = RecordingSolver()
        sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        k = sol.fallback_doublings
        assert k >= 1
        assert sol.solver_status != INFEASIBLE
        assert len(c.solver.bounds) == k + 1
        _, g = slip_constraint_rows(s, ControlInput(0, 0, 0, 0), cfg)
        rows = slice(cfg.n_ctrl * 4, cfg.n_ctrl * 5)
        (lo0, hi0), (lo, hi) = c.solver.bounds[0], c.solver.bounds[-1]
        band = cfg.slip_band * 2 ** k
        assert np.array_equal(lo[rows], np.full(cfg.n_ctrl, -band - g))
        assert np.array_equal(hi[rows], np.full(cfg.n_ctrl, band - g))
        keep = np.ones(len(lo), bool)
        keep[rows] = False
        assert np.array_equal(lo[keep], lo0[keep])
        assert np.array_equal(hi[keep], hi0[keep])

    def test_iterations_sum_over_attempts(self, cfg, geom):
        s = RobotState(0, 0, 0, 1.1, 0.4)
        c = controller(cfg, geom)
        c.solver = RecordingSolver()
        sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        per_attempt = [attempt.iterations for _, attempt in c.solver.solves]
        assert len(per_attempt) == sol.fallback_doublings + 1 >= 2
        assert sol.iterations == sum(per_attempt) > per_attempt[-1]

    def test_infeasible_after_last_doubling(self, cfg, geom):
        # both wheels far above the 1.4 m/s output bound: no band helps
        s = RobotState(0, 0, 0, 3.0, 3.0)
        c = controller(cfg, geom)
        c.solver = RecordingSolver()
        sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert sol.solver_status == INFEASIBLE
        assert sol.fallback_doublings == cfg.max_band_doublings == 4
        assert len(c.solver.bounds) == 5
        assert np.all(sol.delta_sequence == 0.0)

    def test_variant_without_slip_rows_stops_after_one_solve(self, cfg, geom):
        s = RobotState(0, 0, 0, 3.0, 3.0)
        c = controller(cfg, geom, variant="no_customization")
        c.solver = RecordingSolver()
        sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert sol.solver_status == INFEASIBLE
        assert sol.fallback_doublings == 0
        assert len(c.solver.bounds) == 1
        assert np.all(sol.delta_sequence == 0.0)

    def test_unconverged_solve_holds_input(self, cfg, geom):
        s = RobotState(0, 0.5, 0.3, 1.0, 1.0)
        held = ControlInput(0.2, 0.1, 0.05, -0.05)
        ref = build_reference(STRAIGHT_30, s, 1.4, cfg)
        c = controller(cfg, geom, initial_input=held)
        c.solver = QpSolver(max_iterations=10)
        sol = c.step(s, ref, [])
        assert sol.solver_status == "max_iterations"
        assert np.all(sol.delta_sequence == 0.0)
        assert sol.applied_input == held
        # control: the default solver converges and moves the input
        sol = controller(cfg, geom, initial_input=held).step(s, ref, [])
        assert sol.solver_status == "optimal"
        assert np.any(sol.delta_sequence != 0.0)
        assert sol.applied_input != held

    def test_unconverged_solve_with_certified_set_moves_input(self, cfg, geom):
        # the start above with 30 iterations: the iteration has not
        # converged, but the set read from its duals certifies a KKT point
        s = RobotState(0, 0.5, 0.3, 1.0, 1.0)
        held = ControlInput(0.2, 0.1, 0.05, -0.05)
        ref = build_reference(STRAIGHT_30, s, 1.4, cfg)
        c = controller(cfg, geom, initial_input=held)
        c.solver = RecordingSolver()
        c.solver.max_iterations = 30
        sol = c.step(s, ref, [])
        assert sol.solver_status == "optimal"
        assert sol.iterations == 30
        assert np.any(sol.delta_sequence != 0.0)
        assert sol.applied_input != held
        # the next tick tries that set first
        s = euler_step(s, sol.applied_input, geom, cfg.dt, substeps=10)
        c.step(s, build_reference(STRAIGHT_30, s, 1.4, cfg), [])
        assert c.solver.guesses[0] is None
        assert np.array_equal(c.solver.guesses[1], c.solver.solves[0][1].active)
