"""Receding-horizon planner/tracker.

Each tick: linearize the robot model of `kinematics` at (current state,
previous input), predict the robot's motion over the horizon with that
module's rollout and the obstacles' with `prediction`, sum the convex field
quadratics of each predicted step into one at the predicted robot position,
condense the delta-input dynamics into prediction matrices, and solve a
dense QP in the stacked increments. Its constraints are the rows of one
matrix in four blocks: cumulative inputs, wheel-speed differences (slip
rows), wheel speeds and the increment box. Only the first increment is applied.
`slip_terms` states the wheel-speed difference h(u) once: the slip rows
read its gradient row and value g at the previous input, and the simulator
logs |g| at the applied one.

The reference path is stated once per scenario: `path_table` validates it
and returns its points, segments, lengths, arc lengths and headings, and
the segment starts and squared lengths that every projection reads. Each
tick `build_reference` projects the robot onto that table and samples the
horizon along it into one targets array, gathering each segment quantity
once, validating and recomputing nothing.

The QP is assembled once per tick. The robot's rows (X, Y, heading) give
its footprints and, as X, Y, the field's anchors: the last tick's plan one
step on, its last row repeated, after a tick solved without relaxing the
slip band, and otherwise the rollout with the last input held; a moving
obstacle's predicted rows give its footprints. `geometry.frames` makes
every predicted footprint from its row, as a `Frame`, the six numbers
`closest_pair` reads, and raises FloatingPointError on a row that is not
finite; a tick builds no pose or rectangle. The closest pair of every
footprint and step, its distance and gap vector, fills one row of a table;
a contact row, of distance 0, holds as gap the push out of the overlap,
along which the field pushes. The active rows' gaps and distances take
one field expansion, each row with the (a, b) that `APF_BY_KIND` maps its
footprint's kind (obstacle, boundary) to, gathered once per tick;
`np.add.at` adds each row into its step's sums, from +0.0 in
footprint order; at the step's anchor they are the step's quadratic.
Ā - I = N has N⁴ = 0, so Āᵏ is a binomial sum in N and the condensed
matrices are fixed binomial tables times the Nᵖ·[B̄ | x̄₀ | d̄], p < 4; the
field quadratics enter through one product. The QP has no
constant term, and its rows are normalized where they are made (see
`qp.row_scales`): a tick's objective is not read off it but is the sum of
the three costs priced at the applied solution, tracking + input-increment
effort + field. Only a certified (optimal) answer moves the inputs; on a
held tick the solution is z = 0. A QP proved infeasible is solved once more
with its slip band relaxed by an exact-penalty slack (`_elastic`); the
"no_customization" variant, which has no slip rows, reports infeasible at
once. `__init__` states the variant once, as the `_frozen` flag and the
size of the `_slip_rows` block, which `assemble` and `step` read; the
assembled tick holds the QP, its prediction matrices and the field sums. A
tick's iteration count sums both solves. A non-finite state, QP cost or
solution before it reaches the inputs raises FloatingPointError; the
inputs are clipped to their bounds as floats.

What one tick hands the next is one `_Carry` record: the applied input,
and, if the QP was solved (optimal), its active set, which the solver
returns at once while it stays optimal and else repairs (without a solved
QP the next tick guesses the empty set); and the predicted outputs unless
the slip band was relaxed, the plan that the field reads shifted, so that a
tick without footprints does no work for it. `step` reads the record at its
start and, after its last raise, builds the next one from the status,
relaxed flag, applied input and plan it holds, so a raising step leaves it
unchanged; past the constructor's first, nothing else writes it.

A tick calls ufuncs, their reductions and ndarray methods, not numpy's
Python-level wrappers. What depends on constants alone, the starting A and
bounds among it, is built by `_config_tables` from the constants of
`MpcConfig` that a controller is made with and its variant's number of slip
rows, once per distinct set, and shared, read-only, by every controller
made with them.
Each tick writes its bounds and slip rows through the blocks' slices into
copies of A and the bounds. `kinematics` holds `EYE_*`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, repeat
from typing import NamedTuple

import numpy as np

from .geometry import closest_pair, frames
from .kinematics import (EYE_AUGMENTED, N_INPUT, N_STATE, NILPOTENCY_INDEX, ControlInput,
                         RobotGeometry, RobotState, augment, linearize, predict_robot)
from .potential_field import QuadraticApproximation, quadratic_approx
from .prediction import Obstacle, predict_obstacle
from .qp import INFEASIBLE, OPTIMAL, QpProblem, QpSolver, row_scales

_STEER_EPS = 1e-6
SLIP_BAND = 0.1  # m/s, the hard bound on |h(u)| (see `slip_terms`)
SLACK_PENALTY, SLACK_WEIGHT = 1e4, 1e3  # ρ and w of the slip band's slack ε (see `_elastic`)
ACTIVATION_RADIUS = 8.0  # m, Khatib's influence distance ρ₀: the field reads no pair beyond it

# controller variants; `MpcController.__init__` says what "no_customization" drops
VARIANTS = ("full", "no_customization")


@dataclass(frozen=True)
class MpcConfig:
    """The controller's tuning: horizons, control step, weights and input
    bound, each a constant; an instance has no value of its own (README,
    "Design")."""
    n_pred = 20
    n_ctrl = 10
    dt = 0.1
    q_weights = (2.0, 2.0, 6.0, 10.0, 10.0)
    r_weights = (300.0, 300.0, 400.0, 400.0)
    u_max = (1.0, 1.0, math.pi / 2, math.pi / 2)


@dataclass(frozen=True)
class ReferenceHorizon:
    """Target outputs [X, Y, heading, v_front, v_rear] for steps 1..n_pred."""
    targets: np.ndarray  # n_pred x 5, heading unwrapped

    def __post_init__(self):
        if not np.logical_and.reduce(np.isfinite(self.targets), axis=None):
            raise ValueError("reference targets must be finite")
        heading = self.targets[:, 2]  # each step a turn in (-pi, pi] + summing's rounding
        worst = np.maximum.reduce(np.abs(heading[1:] - heading[:-1]), initial=0.0)
        if not worst <= math.pi:  # the slack is read only past pi
            slack = 4.0 * np.spacing(2.0 * math.pi + np.abs(heading).max())
            if not worst <= math.pi + slack:
                raise ValueError("reference heading must be unwrapped")


@dataclass(frozen=True)
class MpcSolution:
    applied_input: ControlInput
    delta_sequence: np.ndarray     # n_ctrl x 4
    predicted_outputs: np.ndarray  # n_pred x 5
    objective: float               # tracking_cost + effort_cost + apf_cost at the applied z
    solver_status: str
    apf_cost: float
    tracking_cost: float
    effort_cost: float
    iterations: int                # summed over the tick's QP solves
    fallback_doublings: int        # 1 if the tick solved `_elastic`'s QP, else 0


class PathTable(NamedTuple):
    """A path stated once: its points, segment vectors, lengths and headings,
    and what every projection reads, the segment starts and squared lengths."""
    points: np.ndarray    # n x 2, (x, y)
    segments: np.ndarray  # n - 1 x 2
    lengths: np.ndarray
    arc: np.ndarray       # arc length at each vertex, from 0
    headings: np.ndarray
    starts: np.ndarray    # points[:-1]
    sq_lengths: np.ndarray  # lengths ** 2


def path_table(path: np.ndarray) -> PathTable:
    """Table of a polyline of two or more finite (x, y) points. Every
    projection divides by a segment's squared length, so each must be
    positive and finite: a segment too short, whose square underflows to 0,
    or too long, whose difference or square overflows, is ValueError."""
    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2 or not np.isfinite(pts).all():
        raise ValueError("path must be two or more finite points of two coordinates (x, y)")
    with np.errstate(over="ignore"):  # an overflow is the inf rejected below
        seg = np.diff(pts, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        sq_len = seg_len ** 2
    if not np.logical_and(sq_len > 0.0, sq_len < math.inf).all():
        raise ValueError("path segments must have a positive, finite squared length")
    return PathTable(pts, seg, seg_len, np.concatenate([[0.0], np.cumsum(seg_len)]),
                     np.arctan2(seg[:, 1], seg[:, 0]), pts[:-1], sq_len)


def _segment_fits(p: np.ndarray, table: PathTable) -> tuple[np.ndarray, np.ndarray]:
    """For points p, (x, y) on the last axis, and every segment: the
    distance to the segment's closest point, and that point's arc length."""
    _, seg, seg_len, cum, _, starts, sq_len = table
    # the batched product, not an elementwise sum: the two round differently
    dot = ((p - starts)[..., None, :] @ seg[:, :, None])[..., 0, 0]
    t = np.minimum(np.maximum(dot / sq_len, 0.0), 1.0)
    off = p - (starts + t[..., None] * seg)
    return np.hypot(off[..., 0], off[..., 1]), cum[:-1] + t * seg_len


def project_onto_path(points: np.ndarray, table: PathTable) -> tuple[np.ndarray, np.ndarray]:
    """Per point: distance to the path, arc length of its closest point (first segment on ties)."""
    dist, arc = _segment_fits(np.asarray(points, dtype=float).reshape(-1, 1, 2), table)
    rows, best = np.arange(len(dist)), dist.argmin(axis=1)
    return dist[rows, best], arc[rows, best]


def build_reference(table: PathTable, state: RobotState, ref_speed: float,
                    cfg: MpcConfig) -> ReferenceHorizon:
    """Project onto the path's table, then advance ref_speed*dt per step along
    it; past its end, hold the final point at zero speed. Headings follow the
    segments, unwrapped from the robot's heading: each turn between successive
    headings in [-pi, pi] is wrapped into (-pi, pi] by one exact 2 pi step."""
    pts, seg, seg_len, cum, headings, starts, _ = table
    # the robot's arc length, as `project_onto_path` gives it
    dist, arc = _segment_fits(np.array((state.x, state.y)), table)
    s = arc[dist.argmin()] + ref_speed * cfg.dt * np.arange(1, cfg.n_pred + 1)
    # past the end j is the last segment, whose heading the targets keep
    j = np.minimum(cum.searchsorted(s, side="right") - 1, len(seg) - 1)
    targets = np.empty((cfg.n_pred, N_STATE))
    np.add(starts[j], ((s - cum[j]) / seg_len[j])[:, None] * seg[j], out=targets[:, :2])
    heading, turn = headings[j], targets[:, 2]
    turn[0] = heading[0] - state.heading
    np.subtract(heading[1:], heading[:-1], out=turn[1:])
    if turn.max() > math.pi or turn.min() <= -math.pi:  # else the step below is x - 0.0
        turn -= 2.0 * math.pi * ((turn > math.pi) - 1.0 * (turn <= -math.pi))
    turn.cumsum(out=turn)
    turn += state.heading
    targets[:, 3:] = ref_speed
    past = s >= cum[-1]
    if past.any():
        targets[past, :2], targets[past, 3:] = pts[-1], 0.0
    return ReferenceHorizon(targets)


def slip_terms(state0: RobotState, input0: ControlInput,
               cfg: MpcConfig) -> tuple[tuple[float, float, float, float], float]:
    """The wheel-speed difference h(u) = v_f+ cos(d_f) - v_r+ cos(d_r) with
    one-step-ahead speeds v+ = v + dt*a, at the operating point: its
    gradient row in the input (a_f, a_r, d_f, d_r) and its value g."""
    dt = cfg.dt
    vf1 = state0.v_front + dt * input0.accel_front
    vr1 = state0.v_rear + dt * input0.accel_rear
    cf, cr = math.cos(input0.steer_front), math.cos(input0.steer_rear)
    return ((dt * cf, -dt * cr, -vf1 * math.sin(input0.steer_front),
             vr1 * math.sin(input0.steer_rear)), vf1 * cf - vr1 * cr)


DU_MAX = (0.8, 0.8, math.pi / 12, math.pi / 12)  # the increment box, per control step
SPEED_BOUNDS = (0.1, 1.4)  # m/s, lower and upper, on both wheel speeds (outputs 3, 4)
OBSTACLE_APF = (3.0, 1.8)  # the field's (scale_a, exponent_b), both positive, per footprint kind
BOUNDARY_APF = (0.3, 1.1)
APF_BY_KIND = {"obstacle": OBSTACLE_APF, "boundary": BOUNDARY_APF}


@cache
def _config_tables(n_pred: int, n_ctrl: int, dt: float, q_weights: tuple, r_weights: tuple,
                   u_max: tuple, n_slip: int) -> dict[str, np.ndarray | tuple | slice]:
    """The read-only constants of the condensed QP by attribute name, built
    from the constants of `MpcConfig` and a variant's number of slip rows
    (0 without them): the first controller made with these builds them, and
    every such controller shares them."""
    nz = n_ctrl * N_INPUT
    t = {"_q_diag": np.tile(q_weights, n_pred), "_r_diag": np.tile(r_weights, n_ctrl)}
    t["_h_effort"] = 2.0 * np.diag(t["_r_diag"])
    # the applied input's bound, as floats: u_max, and the steering inside
    # the plant's singularity
    steer_max = math.pi / 2 - _STEER_EPS
    t["_u_applied"] = tuple(map(min, u_max, (math.inf, math.inf, steer_max, steer_max)))
    # (-u_max, u_max) at every control step, the bounds of the cumulative inputs
    t["_u_bounds"] = np.tile(np.array(u_max), (2, n_ctrl)) * [[-1.0], [1.0]]
    t["_input_tile"] = np.tile(np.arange(N_INPUT), n_ctrl)  # u[tile] is np.tile(u, n_ctrl)
    t["_cumulative"] = np.tril(np.ones((n_ctrl, n_ctrl)))
    # binomials C(k, p) of the closed-form condensation (see assemble)
    binom = np.array([[math.comb(k, p) for p in range(NILPOTENCY_INDEX + 1)]
                      for k in range(n_pred + 1)], dtype=float)
    lag = np.subtract.outer(np.arange(n_pred), np.arange(n_ctrl)).ravel()
    t["_binom_su"] = np.where(lag[:, None] >= 0, binom[lag, :-1], 0.0)
    t["_binom_base"] = np.hstack([binom[1:, :-1], binom[1:, 1:]])
    # the bounded output rows of su, the wheel speeds (outputs 3, 4) one at
    # a time, and their bounds. They integrate accelerations 0, 1, so block
    # (i, j ≤ i) of their rows of su is dt (i - j + 1) on that acceleration at
    # every operating point. They enter A normalized (see `qp.row_scales`),
    # and each tick's bounds take the same scales
    t["_eta_rows"] = (np.arange(n_pred) * N_STATE + np.array([[3], [4]])).ravel()
    t["_eta_bounds"] = np.repeat(np.array(SPEED_BOUNDS)[:, None], 2 * n_pred, axis=1)
    eta_rows = (np.where(lag >= 0, dt * (lag + 1.0), 0.0)[:, None]
                * np.eye(2, N_INPUT)[:, None]).reshape(-1, nz)
    t["_eta_scale"] = row_scales(eta_rows)
    # every tick's A and (lower, upper) start as copies of these, in four row
    # blocks named by their slices, in this order: cumulative inputs (0 and 1,
    # normalized as they stand), slip rows (n_slip of them, maybe none),
    # wheel speeds, and the increment box, whose rows and bounds ticks keep
    ends = list(accumulate((nz, n_slip, len(eta_rows), nz), initial=0))
    inputs, slip, speed, box = map(slice, ends[:-1], ends[1:])
    a_rows = np.zeros((ends[-1], nz))
    a_rows[inputs] = np.kron(t["_cumulative"], np.eye(N_INPUT))
    a_rows[speed] = t["_eta_scale"][:, None] * eta_rows
    a_rows[box] = np.eye(nz)
    bounds = np.zeros((2, len(a_rows)))
    bounds[:, box] = np.tile(DU_MAX, n_ctrl) * [[-1.0], [1.0]]
    t.update(_a_rows=a_rows, _bounds=bounds, _input_rows=inputs, _slip_rows=slip,
             _speed_rows=speed, _box_rows=box)
    for value in t.values():  # every tick of every such controller shares them
        if isinstance(value, np.ndarray):  # a tuple or slice is read-only as it is
            value.flags.writeable = False
    return t


class _Carry(NamedTuple):
    """What one tick hands the next; `MpcController.step` builds it."""
    input: ControlInput         # the applied input
    active: np.ndarray | None   # the QP's active set; None unless it was solved (guess empty)
    plan: np.ndarray | None = None  # the predicted outputs, unshifted; None if relaxed


@dataclass
class _Assembled:
    qp: QpProblem
    su: np.ndarray        # (n_pred*5) x (n_ctrl*4)
    base: np.ndarray      # predicted outputs at z = 0
    apf: QuadraticApproximation | None  # per-step sums; None without footprints


def _elastic(qp: QpProblem, slip: slice) -> QpProblem:
    """The QP with its slip rows relaxed by one shared slack ε ≥ 0, a last
    column (Kerrigan and Maciejowski, 2000): each slip row holds h - ε <= hi,
    a copy after the rows h + ε >= lo, a last row 0 <= ε, and the cost gains
    ρ ε + w ε² / 2. ε's coefficient is 1, so the rows stay normalized."""
    (m, n), k = qp.a_mat.shape, slip.stop - slip.start
    a_mat = np.zeros((m + k + 1, n + 1))
    a_mat[:m, :n], a_mat[m:-1, :n] = qp.a_mat, qp.a_mat[slip]
    a_mat[slip, n], a_mat[m:, n] = -1.0, 1.0
    lower = np.concatenate([qp.lower, qp.lower[slip], [0.0]])
    lower[slip] = -np.inf
    upper = np.concatenate([qp.upper, np.full(k + 1, np.inf)])
    h_mat = np.zeros((n + 1, n + 1))
    h_mat[:n, :n], h_mat[n, n] = qp.h_mat, SLACK_WEIGHT
    return QpProblem(h_mat, np.append(qp.f_vec, SLACK_PENALTY), a_mat, lower, upper)


class MpcController:
    """Owns the state one tick hands the next; one instance per control loop."""

    def __init__(self, cfg: MpcConfig, geom: RobotGeometry, variant: str = "full"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown controller variant: {variant!r}")
        self.cfg, self.geom = cfg, geom
        self.solver = QpSolver()
        # what "no_customization" drops: the slip rows, and the predicted
        # anchors, which it freezes at the current pose
        self._frozen = variant == "no_customization"
        vars(self).update(_config_tables(  # shared, read-only
            cfg.n_pred, cfg.n_ctrl, cfg.dt, cfg.q_weights, cfg.r_weights, cfg.u_max,
            0 if self._frozen else cfg.n_ctrl))
        # the first tick starts from the zero input, with no active set
        self._carry = _Carry(ControlInput(0.0, 0.0, 0.0, 0.0), None)

    # -- assembly -----------------------------------------------------------

    def _apf_quadratic(self, state: RobotState, carry: _Carry,
                       obstacles: list[Obstacle]) -> QuadraticApproximation:
        """Active APF expansions summed per step, anchored at the robot's rows:
        the carried plan's, one step on with its last row repeated, else the
        rollout with the carried input held or, frozen, the current state."""
        cfg, n_p, hl, hw = self.cfg, self.cfg.n_pred, self.geom.half_length, self.geom.half_width
        frozen = self._frozen
        if frozen:
            robot = state.as_array()[None, :3]
        elif carry.plan is not None:  # the real-time iteration's shift of the plan
            robot = np.concatenate([carry.plan[1:, :3], carry.plan[-1:, :3]])
        else:
            robot = predict_robot(state, carry.input, self.geom, n_p, cfg.dt)
        robot_frames = frames(robot.tolist(), hl, hw)
        anchor = robot[:, :2]
        # frozen, robot and footprints hold still: each footprint's one pair
        # serves every step; boundaries are static
        tracks = [[obs.footprint] * len(robot)
                  if frozen or not obs.moves else
                  frames(predict_obstacle(obs, n_p, cfg.dt),
                         obs.footprint.half_length, obs.footprint.half_width)
                  for obs in obstacles]
        # per footprint and step: distance, gap (on contact, the push); the
        # rows flattened in one pass. A pair beyond the radius is cut short:
        # its row is (inf, 0, 0)
        rows = chain.from_iterable(map(closest_pair, robot_frames, track, repeat(ACTIVATION_RADIUS))
                                   for track in tracks)
        pairs = np.fromiter(chain.from_iterable(rows), float, 3 * len(tracks) * len(robot))
        pairs = pairs.reshape(len(tracks), len(robot), 3)
        if frozen:  # the one pose and pair of each footprint, at every step
            pairs, anchor = pairs.repeat(n_p, axis=1), anchor.repeat(n_p, axis=0)
        # one expansion of the active rows, each with its footprint kind's
        # (a, b); each step adds its rows into +0.0 in footprint order
        footprint, step = (pairs[..., 0] <= ACTIVATION_RADIUS).nonzero()
        const, grad, hess = np.zeros(n_p), np.zeros((n_p, 2)), np.zeros((n_p, 2, 2))
        if len(step):
            ab = np.array([APF_BY_KIND[obs.kind] for obs in obstacles])
            picked = pairs[footprint, step]
            for total, part in zip((const, grad, hess), quadratic_approx(
                    picked[:, 1:], picked[:, 0], ab.take(footprint, axis=0).T)):
                np.add.at(total, step, part)
        return QuadraticApproximation(const, grad, hess, anchor)

    def assemble(self, state: RobotState, carry: _Carry,
                 ref: ReferenceHorizon, obstacles: list[Obstacle]) -> _Assembled:
        cfg, prev_input = self.cfg, carry.input
        n_p, n_c, nu, ns, nz = cfg.n_pred, cfg.n_ctrl, N_INPUT, N_STATE, cfg.n_ctrl * N_INPUT
        if not all(map(math.isfinite, (state.x, state.y, state.heading,
                                       state.v_front, state.v_rear))):
            raise FloatingPointError(f"non-finite state {state}")

        a_bar, b_bar, d_bar = augment(*linearize(state, prev_input, self.geom, cfg.dt))

        # condensed prediction eta = su z + base in closed form: N = Ā - I
        # has N⁴ = 0, so Āᵏ = Σₚ C(k, p) Nᵖ over p < 4. Block (i, j) of su is
        # the state rows of Σₚ C(i - j, p) Nᵖ B̄, and step i of base those of
        # Σₚ C(i + 1, p) Nᵖ x̄₀ + C(i + 1, p + 1) Nᵖ d̄, as Σₗ≤ᵢ C(l, p) is
        # C(i + 1, p + 1); the Nᵖ [B̄ | x̄₀ | d̄] take three 9x9 products,
        # each into its slab of one array
        n_mat = a_bar - EYE_AUGMENTED
        nw = np.empty((NILPOTENCY_INDEX, ns + nu, nu + 2))
        nw[0, :, :nu] = b_bar
        nw[0, :, nu] = (state.x, state.y, state.heading, state.v_front, state.v_rear,
                        prev_input.accel_front, prev_input.accel_rear,
                        prev_input.steer_front, prev_input.steer_rear)  # x̄₀
        nw[0, :, nu + 1] = d_bar
        u0 = nw[0, ns:, nu]
        for p in range(1, NILPOTENCY_INDEX):
            np.matmul(n_mat, nw[p - 1], out=nw[p])
        nw = nw[:, :ns]  # p x ns x [B̄ | x̄₀ | d̄]
        su = (self._binom_su @ nw[..., :nu].reshape(NILPOTENCY_INDEX, ns * nu)).reshape(
            n_p, n_c, ns, nu).transpose(0, 2, 1, 3).reshape(n_p * ns, nz)
        base = (self._binom_base @ nw[..., nu:].transpose(2, 0, 1).reshape(-1, ns)).ravel()

        # tracking + effort costs as 1/2 z'Hz + f'z; the QP carries no constant
        h_mat = 2.0 * (su.T * self._q_diag) @ su + self._h_effort
        f_vec = 2.0 * su.T @ (self._q_diag * (base - ref.targets.reshape(-1)))

        # potential-field quadratics, one per predicted step: with S the X, Y
        # rows of su and e = base - anchor, one product S'[H S | H e + g]
        apf = None
        if obstacles:
            apf = self._apf_quadratic(state, carry, obstacles)
            xy = su.reshape(n_p, ns, nz)[:, :2]
            rhs = apf.hessian_psd @ np.concatenate(
                [xy, (base.reshape(n_p, ns)[:, :2] - apf.anchor)[..., None]], axis=2)
            rhs[..., nz] += apf.gradient
            fold = xy.reshape(-1, nz).T @ rhs.reshape(-1, nz + 1)
            h_mat += fold[:, :nz]
            f_vec += fold[:, nz]
        h_mat = 0.5 * (h_mat + h_mat.T)

        # constraints, normalized as the solver reads them, written through
        # the row blocks' slices (see `_config_tables`) into copies that hold
        # all but the slip rows. Every slip row holds e_row in its first
        # block, so all share one scale s: -band <= h <= band is s (±band - g)
        a_mat, bounds = self._a_rows.copy(), self._bounds.copy()
        lo, hi = bounds[0], bounds[1]  # views: indexing, not the slower unpacking
        np.subtract(self._u_bounds, u0.take(self._input_tile), out=bounds[:, self._input_rows])
        if not self._frozen:  # frozen, the slip block is empty
            slip = self._slip_rows
            e_row, g = slip_terms(state, prev_input, cfg)
            scale = 1.0 / max(1e-10, *map(abs, e_row))
            np.multiply(self._cumulative[:, :, None], np.multiply(scale, e_row),
                        out=a_mat[slip].reshape(n_c, n_c, nu))
            lo[slip], hi[slip] = scale * (-SLIP_BAND - g), scale * (SLIP_BAND - g)
        eta = bounds[:, self._speed_rows]
        np.subtract(self._eta_bounds, base[self._eta_rows], out=eta)
        eta *= self._eta_scale

        return _Assembled(QpProblem(h_mat, f_vec, a_mat, lo, hi), su, base, apf)

    # -- per-tick solve ------------------------------------------------------

    def step(self, state: RobotState, ref: ReferenceHorizon,
             obstacles: list[Obstacle]) -> MpcSolution:
        cfg, carry, nz = self.cfg, self._carry, self.cfg.n_ctrl * N_INPUT
        asm = self.assemble(state, carry, ref, obstacles)
        # successive QPs mostly share their active set: the solver returns
        # the last tick's set at once when it is still optimal, else repairs
        # it; without a solved last tick the guess is the empty set. Both
        # QPs get the carried set, which the solver reads as empty where its
        # length is the other QP's
        sol = self.solver.solve(asm.qp, carry.active)
        iterations, relaxed = sol.iterations, 0
        if sol.status == INFEASIBLE and not self._frozen:
            # proved infeasible: once more with the slip band's slack
            sol = self.solver.solve(_elastic(asm.qp, self._slip_rows), carry.active)
            iterations, relaxed = iterations + sol.iterations, 1

        # only a certified answer moves the inputs: an infeasible QP, or a
        # solve stopped by the cycling guard, holds them
        z = sol.z[:nz] if sol.status == OPTIMAL else np.zeros(nz)
        if not np.logical_and.reduce(np.isfinite(z)):  # the plant never sees it; the run ends
            raise FloatingPointError(f"non-finite QP solution (status {sol.status})")
        delta_seq = z.reshape(cfg.n_ctrl, N_INPUT)
        u = carry.input
        u_next = [v + dv for v, dv in zip((u.accel_front, u.accel_rear, u.steer_front,
                                           u.steer_rear), delta_seq[0].tolist())]
        applied = ControlInput(*[b if v > b else -b if v < -b else v
                                 for v, b in zip(u_next, self._u_applied)])

        eta = asm.su @ z + asm.base
        predicted = eta.reshape(cfg.n_pred, N_STATE)
        err = eta - ref.targets.reshape(-1)
        tracking = float(err @ (self._q_diag * err))
        effort = float(z @ (self._r_diag * z))
        apf_cost = 0.0 if asm.apf is None else asm.apf.value(predicted[:, :2])
        # the real-time iteration's shift, the tick's one write: the next
        # tick starts from the applied input and, if the QP was solved, tries
        # its active set and, unless relaxed, anchors the field on this plan
        solved = sol.status == OPTIMAL
        self._carry = _Carry(applied, sol.active if solved else None,
                             predicted if solved and not relaxed else None)
        return MpcSolution(applied, delta_seq, predicted, tracking + effort + apf_cost,
                           sol.status, apf_cost, tracking, effort, iterations, relaxed)
