"""Receding-horizon planner/tracker.

Each tick: linearize the kinematics at (current state, previous input),
predict robot and obstacle motion over the horizon, sum the convex field
quadratics of each predicted step into one at the predicted robot position,
condense the delta-input dynamics into prediction matrices, and solve a
dense QP in the stacked increments. Its constraints are all rows of one
matrix: input, wheel-speed-difference and output limits, and last the
increment box. Only the first increment is applied.

The reference path is stated once per run: `path_table` validates it and
returns its points, segments, lengths, arc lengths and headings. Each tick
`build_reference` projects the robot onto that table and samples the
horizon along it, validating and recomputing nothing.

The QP is assembled once per tick. The closest pair of every footprint and
step, its gap vector and distance, fills one row of a table; the active
rows take one field expansion per kind (obstacle, boundary), summed per
step in footprint order. Ā - I = N has N⁴ = 0, so Āᵏ is a binomial sum in
N and the condensed matrices are fixed binomial tables times the
Nᵖ·[B̄ | x̄₀ | d̄], p < 4; the field quadratics enter through one product.
On certified infeasibility only the bounds of the wheel-speed-difference
rows widen (the band doubles) before solving again; a variant without those
rows reports infeasible at once. The first attempt of a tick passes the
active set of the last optimal tick's QP; the solver returns that set's
equality solve, without iterating, when it is still optimal. A tick's
iteration count sums all its attempts. A non-finite solution raises
FloatingPointError before it reaches the inputs.

A tick calls ufuncs, their reductions and ndarray methods, not numpy's
Python-level wrappers. What a run knows is built once and read-only:
`MpcController.__init__` holds the weight tiles, the effort Hessian, the
bounds, the input-tile index, the increment box, the cumulative-input rows,
the output rows and the binomial tables; `linearization` the identity blocks
`EYE_*`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .geometry import OrientedRectangle, Pose2D, closest_pair
from .kinematics import ControlInput, RobotGeometry, RobotState
from .linearization import (EYE_AUGMENTED, N_INPUT, N_STATE, NILPOTENCY_INDEX, augment,
                            linearize)
from .potential_field import ApfParams, QuadraticApproximation, quadratic_approx
from .prediction import Obstacle, predict_obstacle, predict_robot
from .qp import INFEASIBLE, MAX_ITERATIONS, OPTIMAL, QpProblem, QpSolver

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
        heading = self.targets[:, 2]  # each step a turn in (-pi, pi] + summing's rounding
        slack = 4.0 * np.spacing(2.0 * math.pi + np.maximum.reduce(np.abs(heading), initial=0.0))
        if np.logical_or.reduce(np.abs(heading[1:] - heading[:-1]) > math.pi + slack):
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
    iterations: int                # summed over the tick's QP attempts
    fallback_doublings: int


class PathTable(NamedTuple):
    """A path stated once: its points, segment vectors, lengths and headings."""
    points: np.ndarray    # n x 2, (x, y)
    segments: np.ndarray  # n - 1 x 2
    lengths: np.ndarray
    arc: np.ndarray       # arc length at each vertex, from 0
    headings: np.ndarray


def path_table(path: np.ndarray) -> PathTable:
    """Table of a polyline of two or more (x, y) points, no segment of zero length."""
    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("path must be two or more points of two coordinates (x, y)")
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    if np.any(seg_len <= 0.0):
        raise ValueError("path segments must have positive length")
    return PathTable(pts, seg, seg_len, np.concatenate([[0.0], np.cumsum(seg_len)]),
                     np.arctan2(seg[:, 1], seg[:, 0]))


def project_onto_path(points: np.ndarray, table: PathTable) -> tuple[np.ndarray, np.ndarray]:
    """Per point: distance to the path, arc length of its closest point (first segment on ties)."""
    pts, seg, seg_len, cum, _ = table
    p = np.asarray(points, dtype=float).reshape(-1, 1, 2)
    dot = ((p - pts[:-1])[..., None, :] @ seg[:, :, None])[..., 0, 0]
    t = np.minimum(np.maximum(dot / seg_len ** 2, 0.0), 1.0)
    off = p - (pts[:-1] + t[..., None] * seg)
    dist = np.hypot(off[..., 0], off[..., 1])
    rows, best = np.arange(len(dist)), dist.argmin(axis=1)
    return dist[rows, best], cum[best] + t[rows, best] * seg_len[best]


def build_reference(table: PathTable, state: RobotState, ref_speed: float,
                    cfg: MpcConfig) -> ReferenceHorizon:
    """Project onto the path's table, then advance ref_speed*dt per step along
    it; past its end, hold the final point at zero speed. Headings follow the
    segments, unwrapped from the robot's heading: each turn between successive
    headings in [-pi, pi] is wrapped into (-pi, pi] by one exact 2 pi step."""
    pts, seg, seg_len, cum, headings = table
    s0 = project_onto_path([state.x, state.y], table)[1][0]
    s = s0 + ref_speed * cfg.dt * np.arange(1, cfg.n_pred + 1)
    past = s >= cum[-1]
    # past the end j is the last segment, whose heading the targets keep
    j = np.minimum(cum.searchsorted(s, side="right") - 1, len(seg) - 1)
    pos = pts[j] + ((s - cum[j]) / seg_len[j])[:, None] * seg[j]
    turn = headings[j] - np.concatenate([[state.heading], headings[j[:-1]]])
    turn -= 2.0 * math.pi * ((turn > math.pi) - 1.0 * (turn <= -math.pi))
    speed = np.where(past, 0.0, ref_speed)[:, None]
    return ReferenceHorizon(np.concatenate(
        [np.where(past[:, None], pts[-1], pos), (state.heading + turn.cumsum())[:, None],
         speed, speed], axis=1))


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
    apf: QuadraticApproximation | None  # per-step sums; None without footprints
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
        # per-controller constants of the condensed QP
        n_p, n_c = cfg.n_pred, cfg.n_ctrl
        self._q_diag = np.tile(cfg.q_weights, n_p)
        self._r_diag = np.tile(cfg.r_weights, n_c)
        self._h_effort = 2.0 * np.diag(self._r_diag)
        self._u_max = np.array(cfg.u_max)
        self._input_tile = np.tile(np.arange(N_INPUT), n_c)  # u[tile] is np.tile(u, n_c)
        # the increment box, the last rows of every tick's A
        self._box = np.eye(n_c * N_INPUT)
        self._du_max = np.tile(cfg.du_max, n_c)
        self._du_min = -self._du_max
        self._cumulative = np.tril(np.ones((n_c, n_c)))
        self._cumulative_inputs = np.kron(self._cumulative, np.eye(N_INPUT))
        # output rows of su with a finite bound, one output at a time
        bounded = [d for d in range(N_STATE)
                   if not (math.isinf(cfg.eta_min[d]) and math.isinf(cfg.eta_max[d]))]
        self._eta_rows = (np.arange(n_p) * N_STATE
                          + np.array(bounded, dtype=int)[:, None]).ravel()
        self._eta_lo = np.repeat(np.array(cfg.eta_min)[bounded], n_p)
        self._eta_hi = np.repeat(np.array(cfg.eta_max)[bounded], n_p)
        # binomials C(k, p) of the closed-form condensation (see assemble)
        binom = np.array([[math.comb(k, p) for p in range(NILPOTENCY_INDEX + 1)]
                          for k in range(n_p + 1)], dtype=float)
        lag = np.subtract.outer(np.arange(n_p), np.arange(n_c)).ravel()
        self._binom_su = np.where(lag[:, None] >= 0, binom[lag, :-1], 0.0)
        self._binom_base = np.hstack([binom[1:, :-1], binom[1:, 1:]])
        for value in vars(self).values():  # every tick shares them
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self._warm = np.zeros(n_c * N_INPUT)
        self._active = None  # active set of the last optimal tick's QP

    # -- assembly -----------------------------------------------------------

    def _apf_quadratic(self, state: RobotState, prev_input: ControlInput,
                       obstacles: list[Obstacle]) -> QuadraticApproximation:
        """Active APF expansions summed per step, at the robot position
        predicted with prev_input held."""
        cfg, n_p, hl, hw = self.cfg, self.cfg.n_pred, self.geom.half_length, self.geom.half_width
        frozen = self.variant == "no_customization"
        poses = ([Pose2D(state.x, state.y, state.heading)] if frozen else
                 predict_robot(state, prev_input, self.geom, n_p, cfg.dt))
        robot_rects = [OrientedRectangle(p, hl, hw) for p in poses]
        # frozen, robot and footprints hold still: each footprint's one pair
        # serves every step; boundaries are static
        tracks = [[obs.footprint] * len(poses)
                  if frozen or (obs.velocity == (0.0, 0.0) and obs.yaw_rate == 0.0) else
                  [OrientedRectangle(pose, obs.footprint.half_length, obs.footprint.half_width)
                   for pose in predict_obstacle(obs, n_p, cfg.dt)]
                  for obs in obstacles]
        # per footprint and step: gap, distance
        flat = np.fromiter(chain.from_iterable(
            pair.gap + (pair.distance,)
            for track in tracks for pair in map(closest_pair, robot_rects, track)),
            float, 3 * len(tracks) * len(poses))
        pairs, anchor = np.empty((len(tracks), n_p, 3)), np.empty((n_p, 2))
        pairs[...] = flat.reshape(len(tracks), len(poses), 3)
        anchor[...] = [(p.x, p.y) for p in poses]
        active = pairs[..., 2] <= cfg.activation_radius
        boundary = np.array([obs.kind == "boundary" for obs in obstacles])
        const, grad, hess = (np.zeros(active.shape), np.zeros((*active.shape, 2)),
                             np.zeros((*active.shape, 2, 2)))
        # one expansion per field kind; each step sums its zero-filled stack
        # in footprint order from +0.0, as adding term by term into zeros does
        for rows, params in ((active & ~boundary[:, None], cfg.obstacle_apf),
                             (active & boundary[:, None], cfg.boundary_apf)):
            footprint, step = rows.nonzero()
            if len(step):
                quad = quadratic_approx(anchor[step], pairs[footprint, step, :2], params)
                const[rows], grad[rows], hess[rows] = (quad.constant, quad.gradient,
                                                       quad.hessian_psd)
        return QuadraticApproximation(np.add.reduce(const, axis=0, initial=0.0),
                                      np.add.reduce(grad, axis=0, initial=0.0),
                                      np.add.reduce(hess, axis=0, initial=0.0), anchor)

    def assemble(self, state: RobotState, prev_input: ControlInput,
                 ref: ReferenceHorizon, obstacles: list[Obstacle]) -> _Assembled:
        cfg = self.cfg
        n_p, n_c, nu, ns = cfg.n_pred, cfg.n_ctrl, N_INPUT, N_STATE
        nz = n_c * nu

        aug = augment(linearize(state, prev_input, self.geom, cfg.dt))
        x0 = np.concatenate([state.as_array(), prev_input.as_array()])

        # condensed prediction eta = su z + base in closed form: N = Ā - I
        # has N⁴ = 0, so Āᵏ = Σₚ C(k, p) Nᵖ over p < 4. Block (i, j) of su is
        # the state rows of Σₚ C(i - j, p) Nᵖ B̄, and step i of base those of
        # Σₚ C(i + 1, p) Nᵖ x̄₀ + C(i + 1, p + 1) Nᵖ d̄, as Σₗ≤ᵢ C(l, p) is
        # C(i + 1, p + 1); the Nᵖ [B̄ | x̄₀ | d̄] take three 9x9 products
        n_mat = aug.a_bar - EYE_AUGMENTED
        nw = [np.concatenate([aug.b_bar, x0[:, None], aug.d_bar[:, None]], axis=1)]
        for _ in range(NILPOTENCY_INDEX - 1):
            nw.append(n_mat @ nw[-1])
        nw = np.array(nw)[:, :ns]  # p x ns x [B̄ | x̄₀ | d̄]
        su = (self._binom_su @ nw[..., :nu].reshape(NILPOTENCY_INDEX, ns * nu)).reshape(
            n_p, n_c, ns, nu).transpose(0, 2, 1, 3).reshape(n_p * ns, nz)
        base = (self._binom_base @ nw[..., nu:].transpose(2, 0, 1).reshape(-1, ns)).ravel()

        # tracking + effort costs (1/2 z'Hz + f'z convention)
        q_diag = self._q_diag
        ref_stack = ref.targets.reshape(-1)
        m = base - ref_stack
        h_mat = 2.0 * (su.T * q_diag) @ su + self._h_effort
        f_vec = 2.0 * su.T @ (q_diag * m)
        const = float(m @ (q_diag * m))

        # potential-field quadratics, one per predicted step: with S the X, Y
        # rows of su and e = base - anchor, one product S'[H S | H e + g]
        apf = None
        if obstacles:
            apf = self._apf_quadratic(state, prev_input, obstacles)
            xy = su.reshape(n_p, ns, nz)[:, :2]
            base_xy = base.reshape(n_p, ns)[:, :2]
            rhs = apf.hessian_psd @ np.concatenate(
                [xy, (base_xy - apf.anchor)[..., None]], axis=2)
            rhs[..., nz] += apf.gradient
            fold = xy.reshape(-1, nz).T @ rhs.reshape(-1, nz + 1)
            h_mat += fold[:, :nz]
            f_vec += fold[:, nz]
            const += apf.value(base_xy)
        h_mat = 0.5 * (h_mat + h_mat.T)

        # constraints: cumulative inputs, then the slip rows, then outputs,
        # then the increment box
        u0 = prev_input.as_array()
        u_max = self._u_max
        a_rows = [self._cumulative_inputs]
        lo_rows = [(-u_max - u0)[self._input_tile]]
        hi_rows = [(u_max - u0)[self._input_tile]]
        g = None
        if self.variant == "full":
            e_row, g = slip_constraint_rows(state, prev_input, cfg)
            a_rows.append((self._cumulative[:, :, None] * e_row).reshape(n_c, nz))
            lo_rows.append([-cfg.slip_band - g] * n_c)
            hi_rows.append([cfg.slip_band - g] * n_c)
        a_rows += [su[self._eta_rows], self._box]
        lo_rows += [self._eta_lo - base[self._eta_rows], self._du_min]
        hi_rows += [self._eta_hi - base[self._eta_rows], self._du_max]

        qp = QpProblem(h_mat, f_vec, np.concatenate(a_rows), np.concatenate(lo_rows),
                       np.concatenate(hi_rows))
        return _Assembled(qp, su, base, ref_stack, apf, const, g)

    # -- per-tick solve ------------------------------------------------------

    def step(self, state: RobotState, ref: ReferenceHorizon,
             obstacles: list[Obstacle]) -> MpcSolution:
        cfg = self.cfg
        nu = N_INPUT
        asm = self.assemble(state, self.prev_input, ref, obstacles)
        # successive QPs mostly share their active set: the solver returns
        # the last tick's set at once when it is still optimal
        sol = self.solver.solve(asm.qp, warm_start=self._warm, active=self._active)
        iterations = sol.iterations
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
            iterations += sol.iterations
        self._active = sol.active if sol.status == OPTIMAL else None

        z = sol.z
        # an infeasible QP, or an unconverged iterate that may violate
        # constraints badly, holds the inputs
        if sol.status == INFEASIBLE or (
                sol.status == MAX_ITERATIONS
                and sol.primal_residual > 10.0 * self.solver.tolerance):
            z = np.zeros(z.shape)
        if not np.logical_and.reduce(np.isfinite(z)):  # the plant never sees it; the run ends
            raise FloatingPointError(f"non-finite QP solution (status {sol.status})")
        delta_seq = z.reshape(cfg.n_ctrl, nu)
        u_next = self.prev_input.as_array() + delta_seq[0]
        u_next = np.minimum(np.maximum(u_next, -self._u_max), self._u_max)
        steer_max = math.pi / 2 - _STEER_EPS
        u_next[2:] = np.minimum(np.maximum(u_next[2:], -steer_max), steer_max)
        applied = ControlInput.from_array(u_next)

        eta = asm.su @ z + asm.base
        predicted = eta.reshape(cfg.n_pred, N_STATE)
        err = eta - asm.ref_stack
        tracking = float(err @ (self._q_diag * err))
        effort = float(z @ (self._r_diag * z))
        apf_cost = 0.0 if asm.apf is None else asm.apf.value(predicted[:, :2])
        objective = asm.qp.objective(z) + asm.const

        # shift warm start one control step
        self._warm = np.concatenate([z[nu:], np.zeros(nu)])
        self.prev_input = applied
        return MpcSolution(applied, delta_seq, predicted, objective,
                           sol.status, apf_cost, tracking, effort,
                           iterations, doublings)
