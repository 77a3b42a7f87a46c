"""Receding-horizon planner/tracker.

Each tick: linearize the kinematics at (current state, previous input),
predict robot and obstacle motion over the horizon, build per-step convex
potential-field quadratics at the predicted closest-point anchors, condense
the delta-input dynamics into prediction matrices, and solve a dense QP in
the stacked control increments subject to increment, input, output, and
wheel-speed-difference constraints. Only the first increment is applied.

The QP is assembled once per tick. The condensed matrix is block-Toeplitz,
so each distinct block C·Āᵏ·B̄ is computed once and written down its block
diagonal. When the solver certifies infeasibility, only the bounds of the
wheel-speed-difference rows are widened (the band doubles) before solving
again; a variant without those rows reports infeasible at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import OrientedRectangle, Pose2D, closest_pair, normalize_angle
from .kinematics import ControlInput, RobotGeometry, RobotState
from .linearization import N_INPUT, N_STATE, augment, linearize
from .potential_field import ApfParams, quadratic_approx
from .prediction import Obstacle, predict_obstacle, predict_robot
from .qp import INFEASIBLE, QpProblem, QpSolution, QpSolver

_STEER_EPS = 1e-6

# controller variants; "no_customization" freezes the field anchors at the
# current poses and drops the wheel-speed-difference rows
VARIANTS = ("full", "no_customization")


@dataclass(frozen=True)
class MpcConfig:
    n_pred: int = 20
    n_ctrl: int = 10
    dt: float = 0.1
    q_weights: tuple = (2.0, 2.0, 6.0, 10.0, 10.0)
    r_weights: tuple = (300.0, 300.0, 400.0, 400.0)
    du_max: tuple = (0.8, 0.8, math.pi / 12, math.pi / 12)
    u_max: tuple = (1.0, 1.0, math.pi / 2, math.pi / 2)
    eta_min: tuple = (-math.inf, -math.inf, -math.inf, 0.1, 0.1)
    eta_max: tuple = (math.inf, math.inf, math.inf, 1.4, 1.4)
    slip_band: float = 0.1
    activation_radius: float = 8.0
    obstacle_apf: ApfParams = ApfParams(3.0, 1.8)
    boundary_apf: ApfParams = ApfParams(0.3, 1.1)
    max_band_doublings: int = 4

    def __post_init__(self):
        if not 1 <= self.n_ctrl <= self.n_pred:
            raise ValueError("need 1 <= n_ctrl <= n_pred")
        if self.slip_band <= 0.0:
            raise ValueError("slip_band must be positive")


@dataclass(frozen=True)
class ReferenceHorizon:
    """Target outputs [X, Y, heading, v_front, v_rear] for steps 1..n_pred."""
    targets: np.ndarray  # n_pred x 5, heading unwrapped

    def __post_init__(self):
        dth = np.diff(self.targets[:, 2])
        if len(dth) and np.max(np.abs(dth)) > math.pi:
            raise ValueError("reference heading must be unwrapped")


@dataclass(frozen=True)
class MpcSolution:
    applied_input: ControlInput
    delta_sequence: np.ndarray     # n_ctrl x 4
    predicted_outputs: np.ndarray  # n_pred x 5
    objective: float
    solver_status: str
    apf_cost: float
    tracking_cost: float
    effort_cost: float
    iterations: int
    fallback_doublings: int


def path_segments(path: np.ndarray) -> tuple[np.ndarray, ...]:
    """Points, segment vectors, segment lengths and vertex arc lengths of a
    polyline with at least two points and no zero-length segment."""
    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or len(pts) < 2:
        raise ValueError("path must contain at least two points")
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    if np.any(seg_len <= 0.0):
        raise ValueError("path segments must have positive length")
    return pts, seg, seg_len, np.concatenate([[0.0], np.cumsum(seg_len)])


def project_onto_path(points: np.ndarray,
                      path: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to the polyline, and the arc length of its
    closest point. Ties go to the earliest segment."""
    pts, seg, seg_len, cum = path_segments(path)
    p = np.asarray(points, dtype=float).reshape(-1, 1, 2)
    dot = ((p - pts[:-1])[..., None, :] @ seg[:, :, None])[..., 0, 0]
    t = np.clip(dot / seg_len ** 2, 0.0, 1.0)
    off = p - (pts[:-1] + t[..., None] * seg)
    dist = np.hypot(off[..., 0], off[..., 1])
    best = np.argmin(dist, axis=1)
    rows = np.arange(len(best))
    return dist[rows, best], cum[best] + t[rows, best] * seg_len[best]


def build_reference(path: np.ndarray, state: RobotState, ref_speed: float,
                    cfg: MpcConfig) -> ReferenceHorizon:
    """Project onto the path, then advance ref_speed*dt per step along it.

    Past the end of the path the final point is held with zero reference
    speed. Reference headings follow the segment directions, unwrapped
    against the robot's current heading.
    """
    pts, seg, seg_len, cum = path_segments(path)
    headings = np.arctan2(seg[:, 1], seg[:, 0])
    s0 = project_onto_path([state.x, state.y], pts)[1][0]

    total = cum[-1]
    targets = np.zeros((cfg.n_pred, 5))
    prev_heading = state.heading
    for i in range(cfg.n_pred):
        s = s0 + ref_speed * cfg.dt * (i + 1)
        if s >= total:
            pos = pts[-1]
            heading = headings[-1]
            speed = 0.0
        else:
            j = int(np.searchsorted(cum, s, side="right") - 1)
            j = min(j, len(seg) - 1)
            pos = pts[j] + (s - cum[j]) / seg_len[j] * seg[j]
            heading = headings[j]
            speed = ref_speed
        heading = prev_heading + normalize_angle(heading - prev_heading)
        prev_heading = heading
        targets[i] = (pos[0], pos[1], heading, speed, speed)
    return ReferenceHorizon(targets)


def slip_constraint_rows(state0: RobotState, input0: ControlInput,
                         cfg: MpcConfig) -> tuple[np.ndarray, float]:
    """Gradient row and offset of the linearized wheel-speed-difference.

    The constrained quantity is h(u) = v_f+ cos(d_f) - v_r+ cos(d_r) with
    one-step-ahead speeds v+ = v + dt*a, linearized in the input at the
    operating point.
    """
    dt = cfg.dt
    vf1 = state0.v_front + dt * input0.accel_front
    vr1 = state0.v_rear + dt * input0.accel_rear
    cf, sf = math.cos(input0.steer_front), math.sin(input0.steer_front)
    cr, sr = math.cos(input0.steer_rear), math.sin(input0.steer_rear)
    g = vf1 * cf - vr1 * cr
    e_row = np.array([dt * cf, -dt * cr, -vf1 * sf, vr1 * sr])
    return e_row, g


@dataclass
class _Assembled:
    qp: QpProblem
    su: np.ndarray        # (n_pred*5) x (n_ctrl*4)
    base: np.ndarray      # predicted outputs at z = 0
    ref_stack: np.ndarray
    quad_terms: list      # (step index, QuadraticApproximation)
    const: float
    slip_offset: float | None  # g of the slip rows; None without them


class MpcController:
    """Owns the warm-start state; one instance per control loop."""

    def __init__(self, cfg: MpcConfig, geom: RobotGeometry,
                 initial_input: ControlInput | None = None,
                 variant: str = "full"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown controller variant: {variant!r}")
        self.cfg = cfg
        self.geom = geom
        self.variant = variant
        self.prev_input = initial_input or ControlInput(0.0, 0.0, 0.0, 0.0)
        self.solver = QpSolver()
        self._warm = np.zeros(cfg.n_ctrl * N_INPUT)

    # -- assembly -----------------------------------------------------------

    def _anchors(self, state: RobotState, obstacles: list[Obstacle]):
        """Per-step (robot pose, obstacle footprints) for the APF quadratics."""
        cfg = self.cfg
        if self.variant == "no_customization":
            pose = Pose2D(state.x, state.y, state.heading)
            robot_poses = [pose] * cfg.n_pred
            obs_tracks = [[obs.footprint.center] * cfg.n_pred for obs in obstacles]
        else:
            robot_poses = predict_robot(state, self.prev_input, self.geom,
                                        cfg.n_pred, cfg.dt).poses
            obs_tracks = []
            for obs in obstacles:
                if obs.kind == "boundary" or (obs.velocity == (0.0, 0.0)
                                              and obs.yaw_rate == 0.0):
                    obs_tracks.append([obs.footprint.center] * cfg.n_pred)
                else:
                    obs_tracks.append(predict_obstacle(obs, cfg.n_pred, cfg.dt).poses)
        return robot_poses, obs_tracks

    def assemble(self, state: RobotState, prev_input: ControlInput,
                 ref: ReferenceHorizon, obstacles: list[Obstacle]) -> _Assembled:
        cfg = self.cfg
        n_p, n_c, nu, ns = cfg.n_pred, cfg.n_ctrl, N_INPUT, N_STATE
        nz = n_c * nu

        lin = linearize(state, prev_input, self.geom, cfg.dt)
        aug = augment(lin)
        x0 = np.concatenate([state.as_array(), prev_input.as_array()])

        # condensed prediction: eta = su z + base, with su block-Toeplitz:
        # block (i, j) is C A^(i-j) B for j <= i
        na = ns + nu
        powers = [np.eye(na)]
        for _ in range(n_p):
            powers.append(aug.a_bar @ powers[-1])
        su = np.zeros((n_p * ns, nz))
        base = np.zeros(n_p * ns)
        dsum = np.zeros(na)
        for i in range(n_p):
            dsum = aug.a_bar @ dsum + aug.d_bar
            base[i * ns:(i + 1) * ns] = aug.c_bar @ (powers[i + 1] @ x0 + dsum)
        for k in range(n_p):
            block = aug.c_bar @ powers[k] @ aug.b_bar
            for j in range(min(n_c, n_p - k)):
                su[(j + k) * ns:(j + k + 1) * ns, j * nu:(j + 1) * nu] = block

        # tracking + effort costs (1/2 z'Hz + f'z convention)
        q_diag = np.tile(cfg.q_weights, n_p)
        r_diag = np.tile(cfg.r_weights, n_c)
        ref_stack = ref.targets.reshape(-1)
        m = base - ref_stack
        h_mat = 2.0 * (su.T * q_diag) @ su + 2.0 * np.diag(r_diag)
        f_vec = 2.0 * su.T @ (q_diag * m)
        const = float(m @ (q_diag * m))

        # potential-field quadratics at predicted anchors
        robot_poses, obs_tracks = self._anchors(state, obstacles)
        quad_terms = []
        for i in range(n_p):
            rpose = robot_poses[i]
            rrect = self.geom.footprint(RobotState(rpose.x, rpose.y, rpose.heading,
                                                   0.0, 0.0))
            rows = su[i * ns:i * ns + 2, :]
            base_i = base[i * ns:i * ns + 2]
            for obs, track in zip(obstacles, obs_tracks):
                opose = track[i]
                orect = OrientedRectangle(opose, obs.footprint.half_length,
                                          obs.footprint.half_width)
                pair = closest_pair(rrect, orect)
                if pair.distance > cfg.activation_radius:
                    continue
                params = (cfg.boundary_apf if obs.kind == "boundary"
                          else cfg.obstacle_apf)
                quad = quadratic_approx((rpose.x, rpose.y), pair.offset_a,
                                        pair.on_b, params)
                quad_terms.append((i, quad))
                e_i = base_i - np.array(quad.anchor)
                h_mat += rows.T @ quad.hessian_psd @ rows
                f_vec += rows.T @ (quad.hessian_psd @ e_i + quad.gradient)
                const += (quad.constant + quad.gradient @ e_i
                          + 0.5 * e_i @ quad.hessian_psd @ e_i)
        h_mat = 0.5 * (h_mat + h_mat.T)

        # constraints: cumulative inputs, then the slip rows, then outputs
        cumulative = np.tril(np.ones((n_c, n_c)))
        u0 = prev_input.as_array()
        u_max = np.array(cfg.u_max)
        a_rows = [np.kron(cumulative, np.eye(nu))]
        lo_rows = [np.tile(-u_max - u0, n_c)]
        hi_rows = [np.tile(u_max - u0, n_c)]
        g = None
        if self.variant == "full":
            e_row, g = slip_constraint_rows(state, prev_input, cfg)
            a_rows.append(np.kron(cumulative, e_row))
            lo_rows.append(np.full(n_c, -cfg.slip_band - g))
            hi_rows.append(np.full(n_c, cfg.slip_band - g))
        eta_min, eta_max = np.array(cfg.eta_min), np.array(cfg.eta_max)
        for dim in range(ns):
            if math.isinf(eta_min[dim]) and math.isinf(eta_max[dim]):
                continue
            idx = np.arange(n_p) * ns + dim
            a_rows.append(su[idx, :])
            lo_rows.append(np.full(n_p, eta_min[dim]) - base[idx])
            hi_rows.append(np.full(n_p, eta_max[dim]) - base[idx])

        du_max = np.tile(cfg.du_max, n_c)
        qp = QpProblem(h_mat, f_vec, np.vstack(a_rows), np.concatenate(lo_rows),
                       np.concatenate(hi_rows), -du_max, du_max)
        return _Assembled(qp, su, base, ref_stack, quad_terms, const, g)

    # -- per-tick solve ------------------------------------------------------

    def step(self, state: RobotState, ref: ReferenceHorizon,
             obstacles: list[Obstacle]) -> MpcSolution:
        cfg = self.cfg
        nu = N_INPUT
        asm = self.assemble(state, self.prev_input, ref, obstacles)
        sol = self.solver.solve(asm.qp, warm_start=self._warm)
        band = cfg.slip_band
        doublings = 0
        slip_rows = slice(cfg.n_ctrl * nu, cfg.n_ctrl * (nu + 1))
        while (sol.status == INFEASIBLE and asm.slip_offset is not None
               and doublings < cfg.max_band_doublings):
            # widen the slip band: only these rows' bounds change
            band *= 2.0
            doublings += 1
            asm.qp.lower[slip_rows] = -band - asm.slip_offset
            asm.qp.upper[slip_rows] = band - asm.slip_offset
            sol = self.solver.solve(asm.qp, warm_start=self._warm)
        if sol.status == INFEASIBLE:
            sol = QpSolution(np.zeros(cfg.n_ctrl * nu), INFEASIBLE,
                             sol.primal_residual, sol.dual_residual,
                             sol.iterations)

        z = sol.z
        if (sol.status == "max_iterations"
                and sol.primal_residual > 10.0 * self.solver.tolerance):
            # unconverged iterate may violate constraints badly; hold inputs
            z = np.zeros_like(z)
        delta_seq = z.reshape(cfg.n_ctrl, nu)
        u_next = self.prev_input.as_array() + delta_seq[0]
        u_max = np.array(cfg.u_max)
        u_next = np.clip(u_next, -u_max, u_max)
        u_next[2] = float(np.clip(u_next[2], -math.pi / 2 + _STEER_EPS,
                                  math.pi / 2 - _STEER_EPS))
        u_next[3] = float(np.clip(u_next[3], -math.pi / 2 + _STEER_EPS,
                                  math.pi / 2 - _STEER_EPS))
        applied = ControlInput.from_array(u_next)

        eta = asm.su @ z + asm.base
        predicted = eta.reshape(cfg.n_pred, N_STATE)
        err = eta - asm.ref_stack
        q_diag = np.tile(cfg.q_weights, cfg.n_pred)
        tracking = float(err @ (q_diag * err))
        r_diag = np.tile(cfg.r_weights, cfg.n_ctrl)
        effort = float(z @ (r_diag * z))
        apf_cost = 0.0
        for i, quad in asm.quad_terms:
            r = predicted[i, :2] - np.array(quad.anchor)
            apf_cost += (quad.constant + quad.gradient @ r
                         + 0.5 * r @ quad.hessian_psd @ r)
        objective = asm.qp.objective(z) + asm.const

        # shift warm start one control step
        self._warm = np.concatenate([z[nu:], np.zeros(nu)])
        self.prev_input = applied
        return MpcSolution(applied, delta_seq, predicted, objective,
                           sol.status, apf_cost, tracking, effort,
                           sol.iterations, doublings)
