import math

import numpy as np
import pytest

from apfmpc.geometry import OrientedRectangle, Pose2D
from apfmpc.kinematics import ControlInput, RobotState
from apfmpc.linearization import augment, linearize
from apfmpc.mpc import (MpcConfig, MpcController, ReferenceHorizon,
                        build_reference, project_onto_path, slip_constraint_rows)
from apfmpc.prediction import Obstacle
from apfmpc.qp import INFEASIBLE, QpSolver

REF_SPEED = 1.389
STRAIGHT = np.array([[0.0, 0.0], [40.0, 0.0]])


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
        base[i * ns:(i + 1) * ns] = aug.c_bar @ (powers[i + 1] @ x0 + dsum)
        for j in range(min(i + 1, cfg.n_ctrl)):
            su[i * ns:(i + 1) * ns, j * nu:(j + 1) * nu] = \
                aug.c_bar @ powers[i - j] @ aug.b_bar
    return su, base


class RecordingSolver(QpSolver):
    """QpSolver that keeps a copy of the constraint bounds of every solve."""

    def __init__(self):
        super().__init__()
        self.bounds = []

    def solve(self, problem, warm_start=None):
        self.bounds.append((problem.lower.copy(), problem.upper.copy()))
        return super().solve(problem, warm_start)


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
        ref = build_reference(path, RobotState(4.5, 0.0, 0.0, 1, 1), 1.0, cfg)
        th = ref.targets[:, 2]
        assert th[0] == pytest.approx(0.0)
        assert th[-1] == pytest.approx(math.pi / 2)
        assert np.max(np.abs(np.diff(th))) <= math.pi / 2 + 1e-12

    def test_past_end_holds_final_point(self, cfg):
        path = np.array([[0.0, 0.0], [1.0, 0.0]])
        ref = build_reference(path, RobotState(0.9, 0.0, 0.0, 1, 1), 1.0, cfg)
        assert np.all(ref.targets[1:, 0] == 1.0)
        assert np.all(ref.targets[1:, 3] == 0.0)
        assert np.all(ref.targets[1:, 4] == 0.0)

    def test_rejects_degenerate_path(self, cfg):
        with pytest.raises(ValueError):
            build_reference(np.array([[0.0, 0.0]]), RobotState(0, 0, 0, 1, 1),
                            1.0, cfg)
        with pytest.raises(ValueError):
            build_reference(np.array([[0.0, 0.0], [0.0, 0.0]]),
                            RobotState(0, 0, 0, 1, 1), 1.0, cfg)

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
            dist, arc = project_onto_path(points, path)
            expected = np.array([loop_projection(p, path) for p in points])
            assert np.array_equal(dist, expected[:, 0])
            assert np.array_equal(arc, expected[:, 1])

    def test_tie_goes_to_earliest_segment(self):
        # inside the corner, 2 m from both legs
        path = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]])
        dist, arc = project_onto_path([[2.0, 2.0]], path)
        assert np.array_equal(dist, [2.0])
        assert np.array_equal(arc, [2.0])

    def test_rejects_zero_length_segment(self):
        with pytest.raises(ValueError):
            project_onto_path([[0.0, 0.0]], np.array([[0.0, 0.0], [0.0, 0.0],
                                                      [1.0, 0.0]]))


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
        # cumulative input rows + slip rows + two bounded output dims
        assert asm.qp.a_mat.shape[0] == cfg.n_ctrl * 4 + cfg.n_ctrl + 2 * cfg.n_pred
        assert np.allclose(asm.qp.z_upper, np.tile(cfg.du_max, cfg.n_ctrl))
        assert np.allclose(asm.qp.z_lower, -np.tile(cfg.du_max, cfg.n_ctrl))

    def test_variant_drops_slip_rows(self, cfg, geom):
        full = controller(cfg, geom)
        bare = controller(cfg, geom, variant="no_customization")
        ref = build_reference(STRAIGHT, RobotState(0, 0, 0, 1, 1), REF_SPEED, cfg)
        s = RobotState(0, 0, 0, 1, 1)
        n_full = full.assemble(s, full.prev_input, ref, []).qp.a_mat.shape[0]
        n_bare = bare.assemble(s, bare.prev_input, ref, []).qp.a_mat.shape[0]
        assert n_full - n_bare == cfg.n_ctrl

    def test_condensation_matches_loop_oracle(self, cfg, geom):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = RobotState(*rng.uniform(-2.0, 2.0, size=3), *rng.uniform(0.2, 1.4, size=2))
            u0 = ControlInput(*rng.uniform(-0.5, 0.5, size=2), *rng.uniform(-0.8, 0.8, size=2))
            c = controller(cfg, geom, initial_input=u0)
            asm = c.assemble(s, u0, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
            su, base = loop_condensation(s, u0, geom, cfg)
            assert np.array_equal(asm.su, su)
            assert np.array_equal(asm.base, base)

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
        blocked = controller(cfg, geom).step(s, ref, [obstacle_at(3.0, 0.6)])
        # obstacle above the path: predicted lateral positions move down
        assert np.mean(blocked.predicted_outputs[:, 1]) < np.mean(
            free.predicted_outputs[:, 1])
        assert blocked.apf_cost > free.apf_cost


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
