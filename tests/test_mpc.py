import math
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from apfmpc.geometry import Frame, OrientedRectangle, Pose2D, closest_pair, normalize_angle
from apfmpc.kinematics import (ControlInput, RobotState, augment, euler_step, linearize,
                               predict_robot, rollout)
from apfmpc.mpc import (ACTIVATION_RADIUS, BOUNDARY_APF, DU_MAX, OBSTACLE_APF, SLACK_PENALTY,
                        SLACK_WEIGHT, SLIP_BAND, SPEED_BOUNDS, VARIANTS, MpcConfig,
                        MpcController, ReferenceHorizon, _config_tables, _elastic, _shift,
                        build_reference, path_table, project_onto_path, slip_terms)
from apfmpc.potential_field import quadratic_approx
from apfmpc.prediction import Obstacle, predict_obstacle
from apfmpc import qp
from apfmpc.qp import INFEASIBLE, QpProblem, QpSolver, row_scales
from apfmpc.simulator import Scenario, SimulationLog, metrics, run
from conftest import axis_overlaps, cold, double_back, expand_row, normalized, sat_intersect

REF_SPEED = 1.389
STRAIGHT = path_table(np.array([[0.0, 0.0], [40.0, 0.0]]))
STRAIGHT_30 = path_table(np.array([[0.0, 0.0], [30.0, 0.0]]))


@pytest.fixture
def cfg(request, monkeypatch):
    """MpcConfig(); a test parametrized with a dict of its constants, as
    `indirect` parameters of `cfg`, sees those values in their place, and
    the controller tables built from them, for that test alone."""
    changed = getattr(request, "param", {})
    for name, value in changed.items():
        monkeypatch.setattr(MpcConfig, name, value)
    if changed:
        _config_tables.cache_clear()
    yield MpcConfig()
    if changed:  # before monkeypatch restores the constants
        _config_tables.cache_clear()


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


def recorded_pairs(monkeypatch):
    """A list that grows by (a, b, row) for each closest pair the
    controller queries, through whatever `apfmpc.mpc.closest_pair` is now."""
    import apfmpc.mpc
    calls, query = [], apfmpc.mpc.closest_pair

    def recording(a, b, *within):
        row = query(a, b, *within)
        calls.append((a, b, row))
        return row

    monkeypatch.setattr(apfmpc.mpc, "closest_pair", recording)
    return calls


def counted_contacts(monkeypatch):
    """The contact rows, of distance 0.0, among the controller's closest
    pairs, read when the test asks for them."""
    calls = recorded_pairs(monkeypatch)
    return lambda: [row for _, _, row in calls if row.distance == 0.0]


def loop_apf(controller, state, obstacles, su, base):
    """Reference oracle: the APF part of (h_mat, f_vec, const) and the list
    of (step, anchor, value, gradient, Hessian) terms, one (step, footprint)
    term at a time."""
    cfg, geom = controller.cfg, controller.geom
    ns, nz = 5, cfg.n_ctrl * 4
    if controller.variant == "no_customization":
        robot_rows = [(state.x, state.y, state.heading)] * cfg.n_pred
        obs_tracks = [[obs.footprint.center] * cfg.n_pred for obs in obstacles]
    else:
        robot_rows = predict_robot(state, controller._carry.input, geom,
                                   cfg.n_pred, cfg.dt).tolist()
        obs_tracks = [[obs.footprint.center] * cfg.n_pred
                      if obs.velocity == (0.0, 0.0) and obs.yaw_rate == 0.0
                      else [Pose2D(*row) for row in predict_obstacle(obs, cfg.n_pred, cfg.dt)]
                      for obs in obstacles]
    h_mat, f_vec, const, terms = np.zeros((nz, nz)), np.zeros(nz), 0.0, []
    for i, (x, y, heading) in enumerate(robot_rows):
        rrect = geom.footprint(RobotState(x, y, heading, 0.0, 0.0))
        rows = su[i * ns:i * ns + 2, :]
        base_i = base[i * ns:i * ns + 2]
        for obs, track in zip(obstacles, obs_tracks):
            orect = OrientedRectangle(track[i], obs.footprint.half_length,
                                      obs.footprint.half_width)
            pair = closest_pair(rrect, orect)
            if pair.distance > ACTIVATION_RADIUS:
                continue
            params = BOUNDARY_APF if obs.kind == "boundary" else OBSTACLE_APF
            c, g, h = expand_row((pair.gap_x, pair.gap_y), params, pair.distance)
            terms.append((i, (x, y), c, g, h))
            e_i = base_i - np.array((x, y))
            h_mat += rows.T @ h @ rows
            f_vec += rows.T @ (h @ e_i + g)
            const += c + g @ e_i + 0.5 * e_i @ h @ e_i
    return 0.5 * (h_mat + h_mat.T), f_vec, const, terms


def add_at_apf(controller, state, obstacles):
    """Reference oracle: the per-step APF sums built one footprint at a
    time, each footprint's active steps expanded in one call and added into
    the steps with np.add.at."""
    cfg, geom, n_p = controller.cfg, controller.geom, controller.cfg.n_pred
    frozen = controller.variant == "no_customization"
    rows = (np.array([(state.x, state.y, state.heading)] * n_p) if frozen else
            predict_robot(state, controller._carry.input, geom, n_p, cfg.dt))
    anchor = rows[:, :2]
    robot_rects = [OrientedRectangle(Pose2D(*row), geom.half_length, geom.half_width)
                   for row in rows[:1 if frozen else n_p].tolist()]
    const, grad, hess = np.zeros(n_p), np.zeros((n_p, 2)), np.zeros((n_p, 2, 2))
    for obs in obstacles:
        fp = obs.footprint
        track = [fp] * len(robot_rects)
        if not frozen and (obs.velocity != (0.0, 0.0) or obs.yaw_rate != 0.0):
            track = [OrientedRectangle(Pose2D(*row), fp.half_length, fp.half_width)
                     for row in predict_obstacle(obs, n_p, cfg.dt)]
        pairs = np.broadcast_to([(pair.gap_x, pair.gap_y, pair.distance)
                                 for pair in map(closest_pair, robot_rects, track)],
                                (n_p, 3))
        steps = np.flatnonzero(pairs[:, 2] <= ACTIVATION_RADIUS)
        params = BOUNDARY_APF if obs.kind == "boundary" else OBSTACLE_APF
        value, gradient, hessian = quadratic_approx(
            pairs[steps, 0:2], pairs[steps, 2], np.repeat([params], len(steps), axis=0).T)
        np.add.at(const, steps, value)
        np.add.at(grad, steps, gradient)
        np.add.at(hess, steps, hessian)
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


def parent_projection(points, table):
    """`project_onto_path` as first written, recomputing the segment starts
    and squared lengths per call: the oracle for the table-fed form."""
    pts, seg, seg_len, cum = table.points, table.segments, table.lengths, table.arc
    p = np.asarray(points, dtype=float).reshape(-1, 1, 2)
    dot = ((p - pts[:-1])[..., None, :] @ seg[:, :, None])[..., 0, 0]
    t = np.minimum(np.maximum(dot / seg_len ** 2, 0.0), 1.0)
    off = p - (pts[:-1] + t[..., None] * seg)
    dist = np.hypot(off[..., 0], off[..., 1])
    rows, best = np.arange(len(dist)), dist.argmin(axis=1)
    return dist[rows, best], cum[best] + t[rows, best] * seg_len[best]


def parent_reference(table, state, ref_speed, cfg):
    """`build_reference` as first written (gathers per use, concatenated
    columns, the unwrapped-heading check as an elementwise test), or None
    where that check rejects the horizon."""
    pts, seg, seg_len, cum, headings = table.points, table.segments, table.lengths, \
        table.arc, table.headings
    s0 = parent_projection([state.x, state.y], table)[1][0]
    s = s0 + ref_speed * cfg.dt * np.arange(1, cfg.n_pred + 1)
    past = s >= cum[-1]
    j = np.minimum(cum.searchsorted(s, side="right") - 1, len(seg) - 1)
    pos = pts[j] + ((s - cum[j]) / seg_len[j])[:, None] * seg[j]
    turn = headings[j] - np.concatenate([[state.heading], headings[j[:-1]]])
    turn -= 2.0 * math.pi * ((turn > math.pi) - 1.0 * (turn <= -math.pi))
    speed = np.where(past, 0.0, ref_speed)[:, None]
    targets = np.concatenate([np.where(past[:, None], pts[-1], pos),
                              (state.heading + turn.cumsum())[:, None], speed, speed], axis=1)
    heading = targets[:, 2]
    slack = 4.0 * np.spacing(2.0 * math.pi + np.maximum.reduce(np.abs(heading), initial=0.0))
    if np.logical_or.reduce(np.abs(heading[1:] - heading[:-1]) > math.pi + slack):
        return None
    return targets


def winding_path(rng, n=160):
    """A seeded path of n vertices whose heading winds through +-pi."""
    heading = 2.5 + np.cumsum(rng.uniform(-0.15, 0.35, n - 1))
    steps = rng.uniform(0.5, 1.5, n - 1)[:, None] * np.stack([np.cos(heading),
                                                               np.sin(heading)], axis=1)
    return np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)])


def assert_reference_matches_parent(table, state, ref_speed, cfg):
    want = parent_reference(table, state, ref_speed, cfg)
    if want is None:
        with pytest.raises(ValueError):
            build_reference(table, state, ref_speed, cfg)
    else:
        got = build_reference(table, state, ref_speed, cfg).targets
        assert got.tobytes() == want.tobytes()


class RecordingSolver(QpSolver):
    """QpSolver that keeps a copy of the constraint bounds of every solve,
    the active set it was given, and each problem with its solution."""

    def __init__(self):
        super().__init__()
        self.bounds = []
        self.guesses = []
        self.solves = []

    def solve(self, problem, active=None):
        self.bounds.append((problem.lower.copy(), problem.upper.copy()))
        self.guesses.append(active)
        sol = super().solve(problem, active)
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
        # a NaN heading compares False against any bound
        for k in range(3):
            t[:, 2] = 0.0
            t[k, 2] = math.nan
            with pytest.raises(ValueError):
                ReferenceHorizon(t)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", range(5), ids=["x", "y", "heading", "v_front", "v_rear"])
    def test_horizon_rejects_non_finite_target(self, column, value):
        # also a one-step horizon, which has no turn for the heading check
        for n_steps in (1, 3):
            t = np.zeros((n_steps, 5))
            t[-1, column] = value
            with pytest.raises(ValueError, match="finite"):
                ReferenceHorizon(t)

    def test_nan_speed_rejected_before_the_tick(self, cfg):
        # NaN positions and speeds, which the tick would meet as a NaN QP solution
        with pytest.raises(ValueError, match="finite"):
            build_reference(STRAIGHT, RobotState(0, 0, 0, 1, 1), math.nan, cfg)


class TestParentForms:
    """The table-fed projection and the one-array reference build give the
    first forms' bits."""

    def test_winding_path(self, cfg):
        rng = np.random.default_rng(23)
        path = winding_path(rng)
        table = path_table(path)
        lo, hi = path.min(axis=0) - 3.0, path.max(axis=0) + 3.0
        for k in range(3000):
            x, y = path[rng.integers(len(path))] + rng.normal(0.0, 1.0, 2) if k % 3 else \
                rng.uniform(lo, hi)
            state = RobotState(x, y, rng.uniform(-math.pi, math.pi), 1.0, 1.0)
            assert_reference_matches_parent(table, state, (REF_SPEED, 0.0, 30.0)[k % 3], cfg)
        points = rng.uniform(lo, hi, size=(500, 2))
        for got, want in zip(project_onto_path(points, table), parent_projection(points, table)):
            assert got.tobytes() == want.tobytes()

    def test_double_back(self, cfg):
        rng = np.random.default_rng(29)
        for heading in np.linspace(-3.0, 3.0, 601):
            scn = double_back(heading)
            table = path_table(scn.path)
            assert_reference_matches_parent(table, scn.initial_state, 1.0, cfg)
            x, y = rng.uniform(-2.5, 2.5, 2)
            state = RobotState(x, y, rng.uniform(-math.pi, math.pi), 1.0, 1.0)
            assert_reference_matches_parent(table, state, rng.uniform(0.0, 5.0), cfg)
            points = rng.uniform(-2.5, 2.5, size=(5, 2))
            for got, want in zip(project_onto_path(points, table),
                                 parent_projection(points, table)):
                assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_point(self, value):
        # NaN compares False against zero length, and inf makes an inf length
        for k in range(3):
            path = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
            path[k, k % 2] = value
            with pytest.raises(ValueError, match="finite"):
                path_table(path)


class TestSlipRows:
    def test_matched_straight_motion(self, cfg):
        e_row, g = slip_terms(RobotState(0, 0, 0, 1, 1), ControlInput(0, 0, 0, 0), cfg)
        assert g == pytest.approx(0.0)
        assert [type(e) for e in e_row] == [float] * 4  # the row as four floats
        assert np.allclose(e_row, [cfg.dt, -cfg.dt, 0.0, 0.0])

    def test_speed_mismatch_offset(self, cfg):
        _, g = slip_terms(RobotState(0, 0, 0, 1.2, 1.0), ControlInput(0, 0, 0, 0), cfg)
        assert g == pytest.approx(0.2)

    def test_steering_projection(self, cfg):
        _, g = slip_terms(RobotState(0, 0, 0, 1.0, 1.0), ControlInput(0, 0, math.pi / 3, 0), cfg)
        assert g == pytest.approx(math.cos(math.pi / 3) - 1.0)

    def test_linearization_first_order_accurate(self, cfg, rng):
        def measure(state, u):
            vf = state.v_front + cfg.dt * u[0]
            vr = state.v_rear + cfg.dt * u[1]
            return vf * math.cos(u[2]) - vr * math.cos(u[3])

        for _ in range(50):
            s = RobotState(0, 0, 0, rng.uniform(0.2, 1.4), rng.uniform(0.2, 1.4))
            u0 = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                           rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)])
            e_row, g = slip_terms(s, ControlInput(*u0.tolist()), cfg)
            du = rng.uniform(-0.05, 0.05, size=4)
            exact = measure(s, u0 + du)
            approx = g + float(e_row @ du)
            assert abs(exact - approx) < 5e-3


class TestAssemble:
    def test_dimensions(self, cfg, geom):
        c = controller(cfg, geom)
        ref = build_reference(STRAIGHT, RobotState(0, 0, 0, 1, 1), REF_SPEED, cfg)
        asm = c.assemble(RobotState(0, 0, 0, 1, 1), c._carry, ref, [])
        nz = cfg.n_ctrl * 4
        assert asm.qp.h_mat.shape == (nz, nz)
        assert asm.su.shape == (cfg.n_pred * 5, nz)
        # cumulative input rows + slip rows + two bounded output dims + box
        assert asm.qp.a_mat.shape == (cfg.n_ctrl * 4 + cfg.n_ctrl + 2 * cfg.n_pred + nz, nz)
        # the increment box is the last rows: the identity with bounds ±DU_MAX
        box = c._box_rows
        assert box.stop == len(asm.qp.a_mat)
        assert np.array_equal(asm.qp.a_mat[box], np.eye(nz))
        assert np.allclose(asm.qp.upper[box], np.tile(DU_MAX, cfg.n_ctrl))
        assert np.allclose(asm.qp.lower[box], -np.tile(DU_MAX, cfg.n_ctrl))

    def test_variant_drops_slip_rows(self, cfg, geom):
        full = controller(cfg, geom)
        bare = controller(cfg, geom, variant="no_customization")
        ref = build_reference(STRAIGHT, RobotState(0, 0, 0, 1, 1), REF_SPEED, cfg)
        s = RobotState(0, 0, 0, 1, 1)
        n_full = full.assemble(s, full._carry, ref, []).qp.a_mat.shape[0]
        n_bare = bare.assemble(s, bare._carry, ref, []).qp.a_mat.shape[0]
        assert n_full - n_bare == cfg.n_ctrl
        # without the customization the slip block is empty, at the row
        # where the full variant's starts
        assert bare._slip_rows.start == bare._slip_rows.stop == full._slip_rows.start
        assert full._slip_rows.stop - full._slip_rows.start == cfg.n_ctrl

    @pytest.mark.parametrize("cfg", [{}, {"n_ctrl": 20}, {"n_ctrl": 1}],
                             ids=["default", "n_ctrl_eq_n_pred", "n_ctrl_1"], indirect=True)
    def test_condensation_matches_loop_oracle(self, cfg, geom):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = RobotState(*rng.uniform(-2.0, 2.0, size=3), *rng.uniform(0.2, 1.4, size=2))
            u0 = ControlInput(*rng.uniform(-0.5, 0.5, size=2), *rng.uniform(-0.8, 0.8, size=2))
            asm = controller(cfg, geom).assemble(
                s, cold(u0), build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
            su, base = loop_condensation(s, u0, geom, cfg)
            # the closed form sums the powers in another order than the loop:
            # measured worst 2.2e-16 (su) and 9.2e-16 (base) of the largest entry
            assert np.max(np.abs(asm.su - su)) <= 1e-13 * np.max(np.abs(su))
            assert np.max(np.abs(asm.base - base)) <= 1e-13 * np.max(np.abs(base))
            assert np.array_equal(asm.su == 0.0, su == 0.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_apf_fold_matches_loop_oracle(self, cfg, geom, monkeypatch, variant):
        # contact rows among them: the field pushes along their gap
        contacts = counted_contacts(monkeypatch)
        rng = np.random.default_rng(13)
        for _ in range(8):
            s, u0, footprints = apf_scene(rng)
            c = controller(cfg, geom, variant=variant)
            c._carry = cold(u0)
            # zero tracking and effort weights leave the APF part alone in the
            # difference, so no large tracking entry cancels in the subtraction
            c._q_diag, c._h_effort = np.zeros_like(c._q_diag), np.zeros_like(c._h_effort)
            ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
            asm = c.assemble(s, c._carry, ref, footprints)
            bare = c.assemble(s, c._carry, ref, [])
            h_apf, f_apf, c_apf, terms = loop_apf(c, s, footprints, asm.su, asm.base)
            assert len({i for i, *_ in terms}) == cfg.n_pred
            np.testing.assert_allclose(asm.qp.h_mat - bare.qp.h_mat, h_apf, rtol=1e-12)
            np.testing.assert_allclose(asm.qp.f_vec - bare.qp.f_vec, f_apf, rtol=1e-12)
            assert asm.apf.value(asm.base.reshape(cfg.n_pred, 5)[:, :2]) == pytest.approx(
                c_apf, rel=1e-12)
        assert contacts()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_apf_sums_bit_exact_against_add_at_oracle(self, cfg, geom, monkeypatch, variant):
        contacts = counted_contacts(monkeypatch)
        rng = np.random.default_rng(29)
        scenes = [apf_scene(rng) for _ in range(8)]
        # a lone wall below an axis-aligned robot: each Hessian's off-diagonal
        # is -0.0, which the oracle's adding into zeros turns into +0.0
        scenes.append((RobotState(0.0, 0.0, 0.0, 1.0, 1.0), ControlInput(0.0, 0.0, 0.0, 0.0),
                       [Obstacle(OrientedRectangle(Pose2D(10.0, -3.1, 0.0), 12.0, 0.1),
                                 kind="boundary")]))
        s, u0, footprints = scenes[0]
        walls, static, near = footprints[:2], footprints[2], footprints[4]
        # obstacles alone, and kinds interleaved as a caller of `step` may pass them
        scenes += [(s, u0, footprints[2:]), (s, u0, [static, walls[0], near])]
        # no row active: every footprint beyond the activation radius
        scenes.append((s, u0, [
            obstacle_at(60.0, 0.0),
            Obstacle(OrientedRectangle(Pose2D(0.0, 40.0, 0.3), 5.0, 0.1), kind="boundary"),
            Obstacle(OrientedRectangle(Pose2D(-50.0, 0.0, 0.0), 0.5, 0.4), (0.5, 0.2), 0.4)]))
        for s, u0, footprints in scenes:
            c = controller(cfg, geom, variant=variant)
            c._carry = cold(u0)
            got = c._apf_quadratic(s, c._carry, footprints)
            want = add_at_apf(c, s, footprints)
            for got_part, want_part in zip((got.constant, got.gradient, got.hessian_psd,
                                            got.anchor), want):
                assert np.array_equal(got_part, want_part)
                assert np.array_equal(np.signbit(got_part), np.signbit(want_part))
        assert not np.any(got.constant)
        assert contacts()  # contact rows among them

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_apf_sums_with_the_cutoff_are_the_uncut_sums(self, cfg, geom, monkeypatch,
                                                         variant):
        # every query passes the activation radius, and with footprints
        # about one radius off the robot's path, some of whose steps are cut
        # and some not, the per-step sums are add_at_apf's from uncut
        # queries, bit for bit
        import apfmpc.mpc
        passed, cut = [], []

        def query(a, b, *within):
            row = closest_pair(a, b, *within)
            passed.append(within)
            cut.append(row.distance == math.inf)
            return row

        monkeypatch.setattr(apfmpc.mpc, "closest_pair", query)
        contacts = counted_contacts(monkeypatch)
        rng, radius, straddling = np.random.default_rng(37), ACTIVATION_RADIUS, 0
        for _ in range(6):
            s, u0, footprints = apf_scene(rng)
            ahead = s.x + geom.half_length + 0.75 + radius + rng.uniform(-0.5, 1.5)
            beside = s.y + geom.half_width + 0.1 + radius + rng.uniform(-0.05, 0.05)
            footprints += [
                obstacle_at(ahead, s.y + rng.uniform(-0.5, 0.5)),
                Obstacle(OrientedRectangle(Pose2D(s.x + 5.0, beside, 0.0), 12.0, 0.1),
                         kind="boundary"),
                Obstacle(OrientedRectangle(Pose2D(ahead + 1.0, s.y, 0.0), 0.5, 0.4),
                         (-1.0, 0.0), 0.0)]
            cut.clear()
            c = controller(cfg, geom, variant=variant)
            c._carry = cold(u0)
            got = c._apf_quadratic(s, c._carry, footprints)
            want = add_at_apf(c, s, footprints)
            for got_part, want_part in zip((got.constant, got.gradient, got.hessian_psd,
                                            got.anchor), want):
                assert np.array_equal(got_part, want_part)
                assert np.array_equal(np.signbit(got_part), np.signbit(want_part))
            per = len(cut) // len(footprints)
            straddling += sum(0 < sum(cut[k:k + per]) < per for k in range(0, len(cut), per))
        assert set(passed) == {(radius,)}
        assert straddling > 0 or variant == "no_customization"
        assert contacts()  # contact rows among them

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_apf_cost_matches_loop_oracle(self, cfg, geom, monkeypatch, variant):
        contacts = counted_contacts(monkeypatch)
        rng = np.random.default_rng(17)
        for _ in range(8):
            s, u0, footprints = apf_scene(rng)
            c = controller(cfg, geom, variant=variant)
            c._carry = cold(u0)
            ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
            asm = c.assemble(s, c._carry, ref, footprints)
            terms = loop_apf(c, s, footprints, asm.su, asm.base)[3]
            sol = c.step(s, ref, footprints)
            oracle = 0.0
            for i, anchor, value, gradient, hessian in terms:
                r = sol.predicted_outputs[i, :2] - np.array(anchor)
                oracle += value + gradient @ r + 0.5 * r @ hessian @ r
            assert sol.apf_cost == pytest.approx(oracle, rel=1e-12)
        assert contacts()  # contact rows among them

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_closest_pairs_per_footprint(self, cfg, geom, monkeypatch, variant):
        # the frozen variant's robot and footprints hold still over the
        # horizon, so one pair per footprint serves every step
        import apfmpc.mpc
        pairs_per_footprint = 1 if variant == "no_customization" else cfg.n_pred
        calls = []
        monkeypatch.setattr(apfmpc.mpc, "closest_pair",
                            lambda a, b, *r: calls.append(1) or closest_pair(a, b, *r))
        s, u0, footprints = apf_scene(np.random.default_rng(19))
        controller(cfg, geom, variant=variant).assemble(
            s, cold(u0), build_reference(STRAIGHT, s, REF_SPEED, cfg), footprints)
        assert len(calls) == pairs_per_footprint * len(footprints)

    def test_robot_rectangles_are_the_footprints(self, cfg, geom, monkeypatch):
        # frames built straight from the predicted poses, bit for bit the
        # frames of the rectangles geom.footprint gives for the same states
        import apfmpc.mpc
        frames = []
        monkeypatch.setattr(apfmpc.mpc, "closest_pair",
                            lambda a, b, *r: frames.append(a.frame) or closest_pair(a, b, *r))
        rng = np.random.default_rng(23)
        for _ in range(5):
            s, u0, _ = apf_scene(rng)
            s = RobotState(s.x, s.y, rng.uniform(-math.pi, math.pi), s.v_front, s.v_rear)
            frames.clear()
            controller(cfg, geom).assemble(
                s, cold(u0), build_reference(STRAIGHT, s, REF_SPEED, cfg),
                [obstacle_at(60.0, 0.0)])
            want = [geom.footprint(RobotState(x, y, heading, 0.0, 0.0)).frame
                    for x, y, heading in predict_robot(s, u0, geom, cfg.n_pred, cfg.dt).tolist()]
            assert [tuple(map(float.hex, f)) for f in frames] == [
                tuple(map(float.hex, f)) for f in want]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_anchors_are_the_rollout_rows(self, cfg, geom, variant):
        # bit for bit the X, Y of the held-input rollout's steps 1..n_pred,
        # or of the current state at every step when frozen
        rng = np.random.default_rng(31)
        for _ in range(5):
            s, u0, footprints = apf_scene(rng)
            asm = controller(cfg, geom, variant=variant).assemble(
                s, cold(u0), build_reference(STRAIGHT, s, REF_SPEED, cfg), footprints)
            want = (rollout(s, u0, geom, cfg.n_pred, cfg.dt)[1:, :2] if variant == "full"
                    else np.array([(s.x, s.y)] * cfg.n_pred))
            assert asm.apf.anchor.shape == want.shape
            assert asm.apf.anchor.tobytes() == want.tobytes()

    def test_condensed_matches_stepwise_rollout(self, cfg, geom, rng):
        c = controller(cfg, geom)
        s = RobotState(0.3, -0.2, 0.1, 0.8, 0.9)
        u0 = ControlInput(0.1, 0.0, 0.2, -0.1)
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        asm = c.assemble(s, cold(u0), ref, [])
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
        # the field anchors come from the record passed in, not from the
        # controller's own: after one step, assembling from a cold record at
        # zero input gives a fresh controller's QP
        s = RobotState(0, 0, 0, 1.0, 1.0)
        ref = build_reference(STRAIGHT, s, 1.0, cfg)
        obstacles = [obstacle_at(3.0, 0.6)]
        c = controller(cfg, geom)
        c.step(s, ref, obstacles)
        zero = ControlInput(0.0, 0.0, 0.0, 0.0)
        assert c._carry.input != zero
        got = c.assemble(s, cold(zero), ref, obstacles)
        want = controller(cfg, geom).assemble(s, cold(zero), ref, obstacles)
        assert np.array_equal(got.apf.anchor, want.apf.anchor)
        assert np.array_equal(got.apf.constant, want.apf.constant)
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


class TestContactRows:
    """A robot that starts overlapping a footprint: every pair the field
    reads that overlaps is a contact row, of distance 0.0, whose gap is the
    push that parts the pair, and its step's field gradient points along
    the push, so that descent moves the footprint out."""

    @staticmethod
    def overlapping_starts(rng, geom, count):
        """(state, footprint) pairs, the robot overlapping one static
        obstacle or, every other pair, one wall, by 1-20 cm: the least of
        the four brute-force axis overlaps. Slow enough that many predicted
        steps stay in contact."""
        starts = []
        while len(starts) < count:
            kind = ("obstacle", "boundary")[len(starts) % 2]
            heading = rng.uniform(-math.pi, math.pi)
            footprint = OrientedRectangle(Pose2D(0.0, 0.0, heading),
                                          *((0.75, 0.4) if kind == "obstacle" else (6.0, 0.1)))
            angle, depth = rng.uniform(-math.pi, math.pi), rng.uniform(0.01, 0.2)
            far = RobotState(4.0 * math.cos(angle), 4.0 * math.sin(angle),
                             rng.uniform(-math.pi, math.pi), 0.1, 0.1)
            distance, gx, gy = closest_pair(geom.footprint(far), footprint)
            if distance == 0.0:  # a wall may reach that far
                continue
            # moved by its gap the robot touches; moved on along it, it overlaps
            reach = 1.0 + depth / distance
            state = replace(far, x=far.x + reach * gx, y=far.y + reach * gy)
            if 0.01 <= min(axis_overlaps(geom.footprint(state), footprint))[0] <= 0.2:
                starts.append((state, Obstacle(footprint, kind=kind)))
        return starts

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_contact_rows_push_the_footprint_out(self, cfg, geom, monkeypatch, variant):
        calls = recorded_pairs(monkeypatch)
        contacts = 0
        for state, footprint in self.overlapping_starts(np.random.default_rng(41), geom, 12):
            c = controller(cfg, geom, variant=variant)
            calls.clear()
            apf = c.assemble(state, c._carry, build_reference(STRAIGHT, state, REF_SPEED, cfg),
                             [footprint]).apf
            # one footprint: call k is step k's pair, or frozen, every step's
            for k, (robot, other, row) in enumerate(calls):
                if not sat_intersect(robot, other):
                    assert row.distance > 0.0
                    continue
                contacts += 1
                assert (row.distance, math.copysign(1.0, row.distance)) == (0.0, 1.0)
                x, y = robot.frame[:2]
                for factor, parted in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
                    moved = Frame((x - factor * row.gap_x, y - factor * row.gap_y)
                                  + robot.frame[2:])
                    assert (closest_pair(moved, other).distance > 0.0) == parted
                steps = range(cfg.n_pred) if variant == "no_customization" else [k]
                assert all(apf.gradient[i] @ (row.gap_x, row.gap_y) > 0.0 for i in steps)
        # every start is a contact row of the frozen variant's one pair
        assert contacts >= 12


class TestObstacleVelocity:
    footprint = OrientedRectangle(Pose2D(5.0, 2.0, 0.3), 0.75, 0.4)

    def test_array_velocity_steps_as_tuple(self, cfg, geom):
        s = RobotState(0.0, 0.0, 0.0, 1.0, 1.0)
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        got = controller(cfg, geom).step(s, ref, [Obstacle(self.footprint, np.array([0.0, -0.4]))])
        want = controller(cfg, geom).step(s, ref, [Obstacle(self.footprint, (0.0, -0.4))])
        assert got.objective == want.objective
        assert got.applied_input == want.applied_input

    def test_list_velocity_static_obstacle_is_static(self, cfg, geom, monkeypatch):
        rects = []
        monkeypatch.setattr("apfmpc.mpc.closest_pair",
                            lambda a, b, *r: rects.append(b) or closest_pair(a, b, *r))
        static = Obstacle(self.footprint, [0.0, 0.0], 0)
        c = controller(cfg, geom)
        c._apf_quadratic(RobotState(0.0, 0.0, 0.0, 1.0, 1.0), c._carry, [static])
        assert len(rects) == cfg.n_pred and all(r is static.footprint for r in rects)


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
                          <= np.array(DU_MAX) + 1e-6)

    def test_objective_decomposition(self, cfg, geom):
        c = controller(cfg, geom)
        s = RobotState(0, 0.4, 0.05, 0.9, 0.9)
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        sol = c.step(s, ref, [obstacle_at(5.0, 0.8), obstacle_at(9.0, -1.0)])
        total = sol.tracking_cost + sol.effort_cost + sol.apf_cost
        assert sol.objective == total

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

    @pytest.mark.parametrize("bad", [(5, 0, math.nan), (19, 1, math.inf), (0, 2, -math.inf)],
                             ids=["nan_x", "inf_y", "minus_inf_heading"])
    def test_non_finite_prediction_raises(self, cfg, geom, monkeypatch, bad):
        # frames skip the rectangle's finiteness check, and closest_pair
        # reads a NaN center as contact: the tick raises before any query
        import apfmpc.mpc
        step, column, value = bad
        queries = []

        def predicted(*args):
            rows = predict_robot(*args).copy()
            rows[step, column] = value
            return rows

        monkeypatch.setattr(apfmpc.mpc, "predict_robot", predicted)
        monkeypatch.setattr(apfmpc.mpc, "closest_pair",
                            lambda a, b, *r: queries.append(a) or closest_pair(a, b, *r))
        s = RobotState(0, 0.3, 0.05, 0.8, 0.8)
        with pytest.raises(FloatingPointError):
            controller(cfg, geom).step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg),
                                       [obstacle_at(6.0, 0.0)])
        assert queries == []

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["x", "y", "heading", "v_front", "v_rear"])
    def test_non_finite_state_raises(self, cfg, geom, variant, value, field):
        # the module's rule for a non-finite number, not a QP's bound check;
        # the raising tick leaves the record as it was
        s = RobotState(0, 0.3, 0.05, 0.8, 0.8)
        c = controller(cfg, geom, variant=variant)
        before = c._carry
        with pytest.raises(FloatingPointError, match="non-finite state"):
            c.step(replace(s, **{field: value}), build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert c._carry is before

    def test_non_finite_obstacle_prediction_raises(self, cfg, geom, monkeypatch):
        import apfmpc.mpc

        def predicted(obs, n_steps, dt):
            rows = predict_obstacle(obs, n_steps, dt)
            rows[7] = (rows[7][0], math.inf, rows[7][2])
            return rows

        monkeypatch.setattr(apfmpc.mpc, "predict_obstacle", predicted)
        s = RobotState(0, 0.3, 0.05, 0.8, 0.8)
        moving = Obstacle(OrientedRectangle(Pose2D(6.0, 0.0, 0.0), 0.75, 0.4), (-0.3, 0.0))
        with pytest.raises(FloatingPointError):
            controller(cfg, geom).step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [moving])

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
        assert sol.fallback_doublings == 1
        assert len(calls) == 1

    def test_certifies_last_active_set(self, cfg, geom):
        # along a straight path most ticks keep the last tick's active set,
        # which the solver then returns without a set change
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
            assert np.array_equal(prob.a_mat[c._box_rows], np.eye(len(sol.z)))

    def test_cold_and_unsolved_ticks_guess_the_empty_set(self, cfg, geom):
        # with no solved last tick the step passes no guess, which the
        # solver reads as the empty set, repaired from the unconstrained
        # minimizer: the first tick here certifies after a few set changes
        s = RobotState(0, 0.3, 0.05, 0.8, 0.8)
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        c = controller(cfg, geom)
        c.solver = RecordingSolver()
        first = c.step(s, ref, [])
        assert first.solver_status == "optimal" and first.iterations > 0
        problem, answer = c.solver.solves[0]
        assert answer.active.any()
        assert answer.z.tobytes() == QpSolver().solve(problem, answer.active).z.tobytes()
        assert answer.z.tobytes() == QpSolver().solve(
            problem, np.zeros(len(c._a_rows), int)).z.tobytes()
        # after an infeasible tick the carry holds no set: the next guesses
        # the empty set again
        scripted(c, status=INFEASIBLE)
        c.step(s, ref, [])
        assert c._carry.active is None
        del c.solver.solve
        c.step(s, ref, [])
        assert c.solver.guesses[0] is None and c.solver.guesses[-1] is None

    def test_rejects_unknown_variant(self, cfg, geom):
        with pytest.raises(ValueError):
            MpcController(cfg, geom, variant="fancy")

    def test_config_fields_are_the_varied_ones(self, cfg, geom):
        # no caller varies the tuning: MpcConfig's values are its constants,
        # and neither it, a controller nor `metrics` takes one in their place
        assert fields(MpcConfig) == ()
        with pytest.raises(TypeError):
            MpcConfig(n_pred=25)
        with pytest.raises(FrozenInstanceError):
            cfg.dt = 0.2
        u = ControlInput(0.1, 0.0, 0.0, 0.0)
        with pytest.raises(TypeError):
            MpcController(cfg, geom, initial_input=u)
        assert MpcController(cfg, geom)._carry.input == ControlInput(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(TypeError):
            metrics(SimulationLog(cfg.dt))  # the path is required
        # the solver has no settable value: its one is the class's tolerance
        assert not is_dataclass(QpSolver) and vars(QpSolver()) == {}
        with pytest.raises(TypeError):
            QpSolver(4000)

    def test_equal_configs_share_read_only_tables(self, geom):
        tables = MpcController(MpcConfig(), geom)
        shared = {name: value for name, value in vars(tables).items()
                  if isinstance(value, np.ndarray)}
        again = MpcController(MpcConfig(), geom)
        bare = MpcController(MpcConfig(), geom, variant="no_customization")
        assert {"_q_diag", "_binom_su", "_a_rows", "_bounds"} <= set(shared)
        for name, value in shared.items():
            assert getattr(again, name) is value is _config_tables()["full"][name], name
            assert (getattr(bare, name) is value) == (name not in ("_a_rows", "_bounds")), name
            for c in (tables, bare):
                assert not getattr(c, name).flags.writeable, name
        assert again._carry is not tables._carry


def doubled_band(asm, state, u0, cfg):
    """The slip-band loop that the relaxed solve replaced, kept as the
    oracle of its bound: the band doubled up to 4 times, each QP solved
    from the empty set, until one certifies. Returns that band, or None."""
    e_row, g = slip_terms(state, u0, cfg)
    scale, rows, band = 1.0 / np.max(np.abs(e_row)), asm.slip, SLIP_BAND
    for _ in range(5):
        lower, upper = asm.qp.lower.copy(), asm.qp.upper.copy()
        lower[rows], upper[rows] = scale * (-band - g), scale * (band - g)
        if QpSolver().solve(replace(asm.qp, lower=lower, upper=upper)).status == "optimal":
            return band
        band *= 2.0
    return None


class TestFallbacks:
    @pytest.mark.parametrize("start", [RobotState(0, 0.3, 0.05, 0.8, 0.8),
                                       RobotState(0, 0, 0, 0.9, 0.75)],
                             ids=["slip_rows_free", "slip_rows_held"])
    def test_feasible_band_keeps_the_hard_answer(self, cfg, geom, start):
        # where the hard band is feasible the penalty is exact: the relaxed
        # QP holds its slack at 0 and returns the hard QP's answer, also
        # where the hard answer holds slip rows
        c = controller(cfg, geom)
        asm = c.assemble(start, c._carry, build_reference(STRAIGHT, start, REF_SPEED, cfg), [])
        hard = QpSolver().solve(asm.qp)
        relaxed = QpSolver().solve(_elastic(asm.qp, asm.slip))
        assert hard.status == relaxed.status == "optimal"
        assert hard.active[asm.slip].any() == (start.v_front != start.v_rear)
        tol = QpSolver.tolerance
        assert relaxed.active[-1] == -1 and abs(relaxed.z[-1]) <= tol
        assert np.max(np.abs(relaxed.z[:-1] - hard.z)) <= tol

    def test_relaxed_band_is_no_wider_than_the_doubled_one(self, cfg, geom):
        # the wheel speeds 0.7 m/s apart: the hard band is infeasible, and
        # the applied plan's largest |h| is within the smallest band that
        # the doubling loop certifies
        s, u0 = RobotState(0, 0, 0, 1.1, 0.4), ControlInput(0, 0, 0, 0)
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        sol = controller(cfg, geom).step(s, ref, [])
        assert (sol.solver_status, sol.fallback_doublings) == ("optimal", 1)
        band = doubled_band(controller(cfg, geom).assemble(s, cold(u0), ref, []), s, u0, cfg)
        assert band is not None and band > SLIP_BAND
        e_row, g = slip_terms(s, u0, cfg)
        h = g + np.cumsum(sol.delta_sequence, axis=0) @ e_row
        assert SLIP_BAND < np.max(np.abs(h)) <= band

    def test_widening_rewrites_only_slip_bounds(self, cfg, geom):
        # the relaxed QP is the hard one with a last column, the slack ε:
        # each slip row becomes h - ε <= hi with no lower bound, its copy
        # after the rows h + ε >= lo, a last row 0 <= ε, and the cost gains
        # ρ ε + w ε² / 2; every other row and bound is the hard one's
        s = RobotState(0, 0, 0, 1.1, 0.4)
        c = controller(cfg, geom)
        c.solver = RecordingSolver()
        sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert (sol.solver_status, sol.fallback_doublings) == ("optimal", 1)
        (hard, first), (relaxed, _) = c.solver.solves
        assert first.status == INFEASIBLE
        e_row, g = slip_terms(s, ControlInput(0, 0, 0, 0), cfg)
        scale = 1.0 / np.max(np.abs(e_row))  # the rows arrive normalized
        rows, (m, n), k = c._slip_rows, hard.a_mat.shape, cfg.n_ctrl
        assert np.array_equal(hard.lower[rows], np.full(k, scale * (-SLIP_BAND - g)))
        assert np.array_equal(hard.upper[rows], np.full(k, scale * (SLIP_BAND - g)))
        assert relaxed.a_mat.shape == (m + k + 1, n + 1)
        assert np.array_equal(relaxed.a_mat[:m, :n], hard.a_mat)
        assert np.array_equal(relaxed.a_mat[m:-1, :n], hard.a_mat[rows])
        assert not relaxed.a_mat[-1, :n].any()
        column = np.zeros(m + k + 1)
        column[rows], column[m:] = -1.0, 1.0
        assert np.array_equal(relaxed.a_mat[:, n], column)
        keep = np.ones(m, bool)
        keep[rows] = False
        assert np.array_equal(relaxed.lower[:m][keep], hard.lower[keep])
        assert np.all(relaxed.lower[rows] == -np.inf)
        assert np.array_equal(relaxed.lower[m:], np.append(hard.lower[rows], 0.0))
        assert np.array_equal(relaxed.upper[:m], hard.upper)
        assert np.all(relaxed.upper[m:] == np.inf)
        assert np.array_equal(relaxed.h_mat[:n, :n], hard.h_mat)
        assert np.array_equal(relaxed.h_mat[n], np.append(np.zeros(n), SLACK_WEIGHT))
        assert np.array_equal(relaxed.h_mat[:, n], relaxed.h_mat[n])
        assert np.array_equal(relaxed.f_vec, np.append(hard.f_vec, SLACK_PENALTY))

    def test_each_attempt_keeps_its_own_bounds(self, cfg, geom):
        # the relaxed QP is a new problem: after the tick the hard one still
        # holds the 0.1 m/s band, and the two share no bound array
        s = RobotState(0, 0, 0, 1.1, 0.4)
        c = controller(cfg, geom)
        c.solver = RecordingSolver()
        sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert sol.fallback_doublings == 1
        e_row, g = slip_terms(s, ControlInput(0, 0, 0, 0), cfg)
        scale, rows = 1.0 / np.max(np.abs(e_row)), c._slip_rows
        problems = [problem for problem, _ in c.solver.solves]
        assert len(problems) == 2
        assert len({id(p.lower) for p in problems} | {id(p.upper) for p in problems}) == 4
        assert np.array_equal(problems[0].lower[rows], np.full(cfg.n_ctrl, scale * (-SLIP_BAND - g)))
        assert np.array_equal(problems[0].upper[rows], np.full(cfg.n_ctrl, scale * (SLIP_BAND - g)))
        for problem, (lower, upper) in zip(problems, c.solver.bounds):
            assert problem.lower.tobytes() == lower.tobytes()
            assert problem.upper.tobytes() == upper.tobytes()

    def test_tick_after_a_widened_one_guesses_its_set(self, cfg, geom):
        # the relaxed QP certified: the next tick guesses its set in both of
        # its solves. The hard QP has fewer rows and reads it as the empty
        # set; the relaxed QP, if that tick solves one, repairs it
        s = RobotState(0, 0, 0, 1.1, 0.4)
        c = controller(cfg, geom)
        c.solver = RecordingSolver()
        first = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert first.fallback_doublings == 1 and c._carry.plan is None
        assert c.solver.guesses == [None, None]
        relaxed_set = c.solver.solves[1][1].active
        assert c._carry.active is relaxed_set
        assert len(relaxed_set) == len(c._a_rows) + cfg.n_ctrl + 1
        s = euler_step(s, first.applied_input, geom, cfg.dt, substeps=10)
        second = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert second.fallback_doublings == 1
        assert c.solver.guesses[2:] == [relaxed_set, relaxed_set]
        (hard, answer), (relaxed, warm) = c.solver.solves[2:]
        assert answer.z.tobytes() == QpSolver().solve(hard).z.tobytes()
        assert warm.iterations < QpSolver().solve(relaxed).iterations

    def test_iterations_sum_over_attempts(self, cfg, geom):
        s = RobotState(0, 0, 0, 1.1, 0.4)
        c = controller(cfg, geom)
        c.solver = RecordingSolver()
        sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        per_attempt = [attempt.iterations for _, attempt in c.solver.solves]
        assert len(per_attempt) == sol.fallback_doublings + 1 == 2
        assert sol.iterations == sum(per_attempt) > per_attempt[-1]

    def test_infeasible_after_the_elastic_solve(self, cfg, geom):
        # both wheels far above the 1.4 m/s output bound: no slack on the
        # slip rows helps, and the tick holds its input after two solves
        s = RobotState(0, 0, 0, 3.0, 3.0)
        c = controller(cfg, geom)
        c.solver = RecordingSolver()
        sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert sol.solver_status == INFEASIBLE
        assert sol.fallback_doublings == 1
        assert [answer.status for _, answer in c.solver.solves] == [INFEASIBLE] * 2
        assert np.all(sol.delta_sequence == 0.0)
        assert sol.applied_input == ControlInput(0, 0, 0, 0) and c._carry.active is None

    def test_variant_without_slip_rows_stops_after_one_solve(self, cfg, geom):
        s = RobotState(0, 0, 0, 3.0, 3.0)
        c = controller(cfg, geom, variant="no_customization")
        c.solver = RecordingSolver()
        sol = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert sol.solver_status == INFEASIBLE
        assert sol.fallback_doublings == 0
        assert len(c.solver.solves) == 1
        assert np.all(sol.delta_sequence == 0.0)

    def test_start_against_a_wall_completes(self):
        # the slack's weight w keeps this run alive: with w = 1 it ends
        # solver_failed. Most of its ticks hold the input at the cycling
        # guard, and without the customization it fails (ROADMAP item 18)
        wall = OrientedRectangle(Pose2D(0.565, 8.836, 1.8325), 7.83, 0.2026)
        log = run(Scenario("wall_start", [wall], np.array([[2.0, 7.0], [12.0, 7.0]]), 1.0, [],
                           RobotState(2.127, 7.177, 2.781, 1.276, 0.318), 2.0))
        assert (log.outcome, len(log.records)) == ("completed", 20)

    def test_cycling_guard_holds_input(self, cfg, geom, monkeypatch):
        # a `_held_point` under which row 0 is violated while free and takes
        # a negative multiplier once held: the solve stops at its guard,
        # max_iterations, and the tick holds the input, as on infeasibility
        held_point = qp._held_point

        def cycling(problem, active):
            x, signed, gaps = held_point(problem, active)
            gaps = gaps.copy()
            gaps[0] = 0.0 if active[0] else 1.0
            return x, -np.abs(signed) if active[0] else signed, gaps

        s = RobotState(0, 0.5, 0.3, 1.0, 1.0)
        held = ControlInput(0.2, 0.1, 0.05, -0.05)
        ref = build_reference(STRAIGHT_30, s, 1.4, cfg)
        c = controller(cfg, geom)
        c._carry = cold(held)
        with monkeypatch.context() as patched:
            patched.setattr(qp, "_held_point", cycling)
            sol = c.step(s, ref, [])
        assert sol.solver_status == "max_iterations"
        assert sol.iterations > len(c._a_rows) + cfg.n_ctrl * 4
        assert np.all(sol.delta_sequence == 0.0)
        assert sol.applied_input == held and c._carry.active is None
        # control: the solver converges and moves the input
        c = controller(cfg, geom)
        c._carry = cold(held)
        sol = c.step(s, ref, [])
        assert sol.solver_status == "optimal"
        assert sol.applied_input != held

    @pytest.mark.parametrize("episode, tick, relaxed", [(3, 5, 0), (7, 2, 1)])
    def test_relaxes_where_the_iteration_stopped(self, monkeypatch, episode, tick, relaxed):
        # `slip_recovery` seed 1: at these ticks the first-order iteration
        # that came before this method stopped at its iteration cap on a
        # widened band that is infeasible, and held the input. Now the
        # tick certifies and moves the input: in episode 7 the QP is proved
        # infeasible and solved once more with the band's slack; episode 3
        # is back inside the hard band from tick 3 on
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import WORKLOADS
        import apfmpc.mpc
        steps, step = [], MpcController.step
        monkeypatch.setattr(apfmpc.mpc.MpcController, "step",
                            lambda self, *args: steps.append(step(self, *args)) or steps[-1])
        log = run(WORKLOADS["slip_recovery"](1)[episode].scenario)
        assert log.outcome == "completed"
        sol = steps[tick]
        assert (sol.solver_status, sol.fallback_doublings) == ("optimal", relaxed)
        assert sol.applied_input != log.records[tick - 1].applied
        assert all(s.solver_status == "optimal" for s in steps)


def scripted(c, **fields):
    """Make every solve of c's solver return its solution with `fields` replaced."""
    solve = c.solver.solve
    c.solver.solve = lambda *args, **kw: replace(solve(*args, **kw), **fields)


class TestCarry:
    """What a tick hands the next: one record, replaced once per tick by `_shift`."""

    @pytest.mark.parametrize("status, residual, held", [
        ("optimal", 0.0, False), ("infeasible", 0.0, True), ("max_iterations", 1.0, True)])
    def test_shift_per_status(self, cfg, geom, status, residual, held):
        s = RobotState(0, 0.3, 0.05, 0.8, 0.8)
        c = controller(cfg, geom)
        z = np.linspace(-0.05, 0.05, cfg.n_ctrl * 4)
        scripted(c, z=z, status=status, primal_residual=residual)
        solution = c.step(s, build_reference(STRAIGHT, s, REF_SPEED, cfg), [])
        assert solution.solver_status == status
        # every answer but an optimal one holds the input, whatever its
        # residual; an optimal one's first increment moves it
        assert solution.applied_input == ControlInput(*(np.zeros(4) if held else z[:4]))
        active = np.ones(len(c._a_rows))
        carry = _shift(solution, active)
        assert carry.input is solution.applied_input
        assert carry.active is (active if status == "optimal" else None)
        # step hands on that record, with its QP's own active set
        assert c._carry.input is solution.applied_input
        assert (c._carry.active is None) == (status != "optimal")

    def test_field_anchors_on_the_shifted_plan(self, cfg, geom, monkeypatch):
        # after a tick solved without relaxing the slip band, the field's
        # anchors are that tick's plan one step on, its last row repeated,
        # and no rollout is made; after a relaxed tick they are the
        # held-input rollout again
        import apfmpc.mpc
        rollouts = []
        monkeypatch.setattr(apfmpc.mpc, "predict_robot",
                            lambda *args: rollouts.append(1) or predict_robot(*args))
        obstacles = [obstacle_at(6.0, 1.5)]
        for start, relaxed in ((RobotState(0, 0.3, 0.05, 0.8, 0.8), False),
                               (RobotState(0, 0, 0, 1.1, 0.4), True)):
            c = controller(cfg, geom)
            first = c.step(start, build_reference(STRAIGHT, start, REF_SPEED, cfg), obstacles)
            assert first.solver_status == "optimal"
            assert first.fallback_doublings == relaxed
            s = euler_step(start, first.applied_input, geom, cfg.dt, substeps=10)
            ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
            rollouts.clear()
            asm = c.assemble(s, c._carry, ref, obstacles)
            if relaxed:
                assert c._carry.plan is None and rollouts == [1]
                want = predict_robot(s, c._carry.input, geom, cfg.n_pred, cfg.dt)[:, :2]
            else:
                assert c._carry.plan is first.predicted_outputs and rollouts == []
                plan = first.predicted_outputs[:, :2]
                want = np.concatenate([plan[1:], plan[-1:]])
            assert asm.apf.anchor.tobytes() == want.tobytes()
            # the warm step itself makes a rollout only after the relaxed tick
            c.step(s, ref, obstacles)
            assert rollouts == ([1, 1] if relaxed else [])

    def test_raising_step_keeps_the_record(self, cfg, geom):
        s = RobotState(0, 0.3, 0.05, 0.8, 0.8)
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        c, twin = controller(cfg, geom), controller(cfg, geom)
        c.step(s, ref, [])
        twin.step(s, ref, [])
        before = c._carry
        assert before.active is not None
        scripted(c, z=np.full(cfg.n_ctrl * 4, math.nan), status="optimal")
        with pytest.raises(FloatingPointError):
            c.step(s, ref, [])
        assert c._carry is before
        # the next tick is the one the raising step would have been
        del c.solver.solve
        got, want = c.step(s, ref, []), twin.step(s, ref, [])
        assert got.applied_input == want.applied_input
        assert got.objective == want.objective
        assert c._carry.active.tobytes() == twin._carry.active.tobytes()


def parent_rows(c, asm, state, u0, band):
    """The rows and bounds of `assemble` before they were normalized where
    they are made, with the slip band `band`: cumulative inputs, the slip
    rows (full variant), the bounded output rows of su, the increment box.
    The oracle, through `qp.normalized`, for the current ones."""
    cfg = c.cfg
    n_c, nz = cfg.n_ctrl, cfg.n_ctrl * 4
    cumulative = np.tril(np.ones((n_c, n_c)))
    u_prev = np.tile(u0.as_array(), n_c)
    rows = [np.kron(cumulative, np.eye(4))]
    lower = [-np.tile(cfg.u_max, n_c) - u_prev]
    upper = [np.tile(cfg.u_max, n_c) - u_prev]
    if c.variant == "full":
        e_row, g = slip_terms(state, u0, cfg)
        rows.append(np.kron(cumulative, [e_row]))
        lower.append(np.full(n_c, -band - g))
        upper.append(np.full(n_c, band - g))
    # the bounded outputs, the wheel speeds (3, 4), one output at a time
    eta = (np.arange(cfg.n_pred) * 5 + np.array([[3], [4]])).ravel()
    rows.append(asm.su[eta])
    lower.append(SPEED_BOUNDS[0] - asm.base[eta])
    upper.append(SPEED_BOUNDS[1] - asm.base[eta])
    rows.append(np.eye(nz))
    lower.append(-np.tile(DU_MAX, n_c))
    upper.append(np.tile(DU_MAX, n_c))
    return normalized(QpProblem(asm.qp.h_mat, asm.qp.f_vec, np.concatenate(rows),
                                np.concatenate(lower), np.concatenate(upper)))


def operating_points(seed, count):
    """Seeded (state, input) pairs: speeds of both signs, the steering
    anywhere up to the applied clamp and every fourth pair at ±clamp."""
    rng = np.random.default_rng(seed)
    clamp = math.pi / 2 - 1e-6
    for k in range(count):
        state = RobotState(*rng.uniform(-1.0, 1.0, 2), rng.uniform(-math.pi, math.pi),
                           *rng.uniform(-1.5, 1.5, 2))
        steer = rng.uniform(-clamp, clamp, 2) if k % 4 else rng.choice([-clamp, clamp], 2)
        yield state, ControlInput(*rng.uniform(-1.0, 1.0, 2), *steer)


NORMALIZED_CONFIGS = [{"dt": 0.05}, {}, {"dt": 0.2, "n_ctrl": 20}]  # `cfg`'s parameters
CONFIG_IDS = ["dt_0.05", "dt_0.1", "dt_0.2_n_ctrl_eq_n_pred"]


class TestNormalizedRows:
    @pytest.mark.parametrize("cfg", NORMALIZED_CONFIGS, ids=CONFIG_IDS, indirect=True)
    def test_speed_rows_are_the_configs(self, cfg, geom):
        # the bounded speed rows of su, at any operating point, are the
        # configuration's table bit for bit: its scales are theirs, and its
        # rows of A are theirs normalized
        c = controller(cfg, geom)
        table = c._a_rows[c._speed_rows].tobytes()
        ref = ReferenceHorizon(np.zeros((cfg.n_pred, 5)))
        for state, u0 in operating_points(5, 300):
            speed_rows = c.assemble(state, cold(u0), ref, []).su[c._eta_rows]
            scale = row_scales(speed_rows)
            assert scale.tobytes() == c._eta_scale.tobytes()
            assert (scale[:, None] * speed_rows).tobytes() == table

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("cfg", NORMALIZED_CONFIGS, ids=CONFIG_IDS, indirect=True)
    def test_assemble_matches_normalized_parent_rows(self, cfg, geom, variant):
        c = controller(cfg, geom, variant=variant)
        for state, u0 in operating_points(6, 100):
            ref = build_reference(STRAIGHT, state, REF_SPEED, cfg)
            asm = c.assemble(state, cold(u0), ref, [])
            want = parent_rows(c, asm, state, u0, SLIP_BAND)
            for name in ("a_mat", "lower", "upper"):
                assert getattr(asm.qp, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("cfg", NORMALIZED_CONFIGS, ids=CONFIG_IDS, indirect=True)
    def test_widened_bounds_match_normalized_parent_rows(self, cfg, geom):
        # both wheels above their bound: the hard QP and the relaxed one are
        # both solved. The hard one is the normalized parent rows, and the
        # relaxed one theirs with the slack's column: ε enters each row with
        # coefficient 1, so the rows stay normalized
        s = RobotState(0, 0, 0, 3.0, 3.0)
        u0 = ControlInput(0.2, -0.1, 0.3, -0.2)
        c = controller(cfg, geom)
        c._carry = cold(u0)
        c.solver = RecordingSolver()
        ref = build_reference(STRAIGHT, s, REF_SPEED, cfg)
        assert c.step(s, ref, []).fallback_doublings == 1
        asm = controller(cfg, geom).assemble(s, cold(u0), ref, [])
        want = parent_rows(c, asm, s, u0, SLIP_BAND)
        (hard, _), (relaxed, _) = c.solver.solves
        for got, wanted in ((hard, want), (relaxed, _elastic(want, c._slip_rows))):
            for name in ("a_mat", "lower", "upper", "f_vec"):
                assert getattr(got, name).tobytes() == getattr(wanted, name).tobytes(), name
        assert np.max(np.abs(row_scales(relaxed.a_mat) - 1.0)) <= 4 * np.finfo(float).eps
