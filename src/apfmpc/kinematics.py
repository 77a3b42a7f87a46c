"""The two-wheel independent drive/steer robot's model: its kinematics,
their held-input rollout, the horizon's robot rows, and the discrete
linearization with its delta-input form.

Three-degree-of-freedom bicycle-style model under rigid-body and non-slip
assumptions, stated once in two parts: `_steering_terms` gives the terms of
the held steering (cos δ_f, cos δ_r, the tangent of the side slip s, and
k), and `_body_rates` turns them, the speeds and cos and sin of the heading
into w (the C.G. speed along the body axis) and the rates. `_rates`,
`derivative` and `_jacobians` compose the two; w and s keep the rates free
of the side slip angle itself.

One held-input forward-Euler rollout serves as the simulation plant (10
substeps a tick) and the controller's horizon prediction (20 steps,
`predict_robot`'s rows (X, Y, heading), the heading unwrapped). It is
one loop over Python floats: the steering terms once, then `_body_rates`
per step. A rollout has 5 to 21 states of five numbers, and at that size
a dozen numpy calls over the whole columns cost more than the loop's
scalar arithmetic; each state is bit for bit the array form's, which
`tests/test_kinematics.py` keeps as its oracle.

The affine model x(k+1) = A x(k) + B u(k) + d is built from analytic
Jacobians of the rates at an operating point (current state, previously
applied input), by the chain rule through the same two parts; its offset d
is one Euler step of the rates `derivative` returns, so the model is exact
there by construction. The augmented form stacks the previous input into
the state so control increments become the decision variables; its first
N_STATE entries are the outputs. N = Ā - I has N⁴ = 0: in the order
inputs, speeds, heading, position, each entry feeds only later ones (the
yaw rate moves with the speeds and steering, not the heading), so every
product of four entries of N has a structural zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, nan, sin

import numpy as np

from .geometry import OrientedRectangle, Pose2D, normalize_angle, store_floats

_HALF_PI = math.pi / 2.0
N_STATE = 5
N_INPUT = 4
NILPOTENCY_INDEX = 4  # (Ā - I)⁴ = 0, see the module docstring

# identity blocks shared by every tick, read-only: A = I + dt J, the input
# block of B̄, and the Ā whose top rows each tick fills
EYE_STATE, EYE_INPUT, EYE_AUGMENTED = map(np.eye, (N_STATE, N_INPUT, N_STATE + N_INPUT))
for _eye in (EYE_STATE, EYE_INPUT, EYE_AUGMENTED):
    _eye.flags.writeable = False


@dataclass(frozen=True)
class RobotState:
    x: float
    y: float
    heading: float
    v_front: float
    v_rear: float

    def __post_init__(self):
        store_floats(self, x=self.x, y=self.y, heading=self.heading,
                     v_front=self.v_front, v_rear=self.v_rear)
        object.__setattr__(self, "heading", normalize_angle(self.heading))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.heading, self.v_front, self.v_rear])


@dataclass(frozen=True)
class ControlInput:
    accel_front: float
    accel_rear: float
    steer_front: float
    steer_rear: float

    def __post_init__(self):
        store_floats(self, **vars(self))  # every field is a number
        if not (abs(self.steer_front) < _HALF_PI and abs(self.steer_rear) < _HALF_PI):
            raise ValueError("steering angles must lie strictly inside (-pi/2, pi/2)")

    def as_array(self) -> np.ndarray:
        return np.array([self.accel_front, self.accel_rear,
                         self.steer_front, self.steer_rear])


@dataclass(frozen=True)
class RobotGeometry:
    l_front: float  # C.G. to front wheel
    l_rear: float   # C.G. to rear wheel
    half_length: float
    half_width: float

    def __post_init__(self):
        store_floats(self, **vars(self))  # every field is a number
        # NaN fails every comparison; a footprint's extents must be finite too
        if not (self.l_front > 0.0 and self.l_rear > 0.0):
            raise ValueError("wheel offsets must be positive")
        if not (0.0 < self.half_length < math.inf and 0.0 < self.half_width < math.inf):
            raise ValueError("footprint half-extents must be positive and finite")

    def footprint(self, state: RobotState) -> OrientedRectangle:
        return OrientedRectangle(Pose2D(state.x, state.y, state.heading),
                                 self.half_length, self.half_width)


def _steering_terms(inp: ControlInput, geom: RobotGeometry):
    """The model's terms of held steering, L = l_f + l_r: cos δ_f, cos δ_r and

        s = (l_r tan δ_f + l_f tan δ_r)/L,   k = (tan δ_f − tan δ_r)/L.
    """
    big_l = geom.l_front + geom.l_rear
    tf, tr = math.tan(inp.steer_front), math.tan(inp.steer_rear)
    return (math.cos(inp.steer_front), math.cos(inp.steer_rear),
            (geom.l_rear * tf + geom.l_front * tr) / big_l, (tf - tr) / big_l)


def _body_rates(c, sn, v_front, v_rear, terms):
    """The rates (Ẋ, Ẏ, θ̇) = w (gx, gy, k) from c, sn = cos θ, sin θ, the
    speeds and the steering terms, with

        w = ½(v_f cos δ_f + v_r cos δ_r),   gx = c − s sn,   gy = sn + s c;

    returns them, then w, gx and gy. Floats or arrays."""
    cf, cr, s, k = terms
    w = 0.5 * (v_front * cf + v_rear * cr)
    gx, gy = c - s * sn, sn + s * c
    return w * gx, w * gy, w * k, w, gx, gy


def _rates(heading, v_front, v_rear, inp: ControlInput, geom: RobotGeometry):
    """The rates (Ẋ, Ẏ, θ̇): the model's two parts composed. θ̇ does not
    depend on the heading. Floats or arrays."""
    return _body_rates(np.cos(heading), np.sin(heading), v_front, v_rear,
                       _steering_terms(inp, geom))[:3]


def derivative(state: RobotState, inp: ControlInput, geom: RobotGeometry) -> np.ndarray:
    """State rate [Xdot, Ydot, heading_rate, vf_dot, vr_dot]."""
    return np.array([*_rates(state.heading, state.v_front, state.v_rear, inp, geom),
                     inp.accel_front, inp.accel_rear])


def _steps(state: RobotState, inp: ControlInput, geom: RobotGeometry,
           n: int, h: float) -> list[float]:
    """States 0..n of n forward-Euler steps of length h with the input held,
    flat, five floats [X, Y, heading, v_front, v_rear] a state; the heading
    is not wrapped. Each step reads the rates at the state it starts from.

    math.cos and math.sin raise on an infinite heading where np.cos and
    np.sin return NaN; such a heading gets NaN for both here too, so a state
    that overflows ends the rollout non-finite, not with an error.
    """
    terms = _steering_terms(inp, geom)
    dv_front, dv_rear = h * inp.accel_front, h * inp.accel_rear
    x, y, heading, v_front, v_rear = row = (state.x, state.y, state.heading,
                                            state.v_front, state.v_rear)
    out = list(row)
    for _ in range(n):
        try:
            c, sn = cos(heading), sin(heading)
        except ValueError:  # ±inf
            c = sn = nan
        x_dot, y_dot, yaw_rate, _, _, _ = _body_rates(c, sn, v_front, v_rear, terms)
        x, y, heading, v_front, v_rear = row = (x + h * x_dot, y + h * y_dot,
                                                heading + h * yaw_rate,
                                                v_front + dv_front, v_rear + dv_rear)
        out += row
    return out


def rollout(state: RobotState, inp: ControlInput, geom: RobotGeometry,
            n: int, h: float) -> np.ndarray:
    """States 0..n of n forward-Euler steps of length h with the input held,
    as rows [X, Y, heading, v_front, v_rear]; the heading is not wrapped."""
    if n < 0 or not 0.0 < h < math.inf:  # NaN fails both comparisons
        raise ValueError("need n >= 0 and a positive, finite h")
    return np.array(_steps(state, inp, geom, n, h)).reshape(n + 1, N_STATE)


def predict_robot(state: RobotState, held_input: ControlInput,
                  geom: RobotGeometry, n_steps: int, dt: float) -> np.ndarray:
    """Rows (X, Y, heading) of steps 1..n_steps, the heading unwrapped."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return rollout(state, held_input, geom, n_steps, dt)[1:, :3]


def euler_step(state: RobotState, inp: ControlInput, geom: RobotGeometry,
               dt: float, substeps: int = 1) -> RobotState:
    """Forward-Euler update over dt, optionally split into substeps."""
    if not 0.0 < dt < math.inf:  # NaN fails both comparisons
        raise ValueError("dt must be positive and finite")
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ValueError(f"substeps must be a positive integer, got {substeps!r}")
    return RobotState(*_steps(state, inp, geom, substeps, dt / substeps)[-N_STATE:])


@dataclass(frozen=True)
class LinearizedModel:
    a_mat: np.ndarray  # 5x5
    b_mat: np.ndarray  # 5x4
    d_vec: np.ndarray  # 5


@dataclass(frozen=True)
class AugmentedModel:
    a_bar: np.ndarray  # 9x9
    b_bar: np.ndarray  # 9x4
    d_bar: np.ndarray  # 9


def _jacobians(state: RobotState, inp: ControlInput, geom: RobotGeometry):
    """Analytic Jacobians of the state rate w.r.t. state and input, side by
    side as one 5x9 array [J_state | J_input].

    The chain rule through the model's one statement of the rates:
    (Xdot, Ydot, heading_rate) = w (gx, gy, k), where w moves with the speeds
    and the steering, gx and gy with the heading and s, and s and k with
    tan(d_f) and tan(d_r). Also returns the rates (Xdot, Ydot, heading_rate)
    at the operating point, which the offset reuses.
    """
    df, dr, vf, vr = inp.steer_front, inp.steer_rear, state.v_front, state.v_rear
    terms = _steering_terms(inp, geom)
    cth, sth = math.cos(state.heading), math.sin(state.heading)
    x_dot, y_dot, yaw_rate, w, gx, gy = _body_rates(cth, sth, vf, vr, terms)
    cf, cr, _, k = terms
    lf, lr = geom.l_front, geom.l_rear
    dw_dvf, dw_dvr = 0.5 * cf, 0.5 * cr
    dw_ddf, dw_ddr = -0.5 * vf * math.sin(df), -0.5 * vr * math.sin(dr)
    dtf, dtr = 1.0 / (cf * cf * (lf + lr)), 1.0 / (cr * cr * (lf + lr))  # sec^2(d)/L
    jac = np.array((  # state columns, then input columns
        0.0, 0.0, -y_dot, dw_dvf * gx, dw_dvr * gx,
        0.0, 0.0, dw_ddf * gx - w * sth * lr * dtf, dw_ddr * gx - w * sth * lf * dtr,
        0.0, 0.0, x_dot, dw_dvf * gy, dw_dvr * gy,
        0.0, 0.0, dw_ddf * gy + w * cth * lr * dtf, dw_ddr * gy + w * cth * lf * dtr,
        0.0, 0.0, 0.0, dw_dvf * k, dw_dvr * k,
        0.0, 0.0, dw_ddf * k + w * dtf, dw_ddr * k - w * dtr,
        0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)).reshape(N_STATE, N_STATE + N_INPUT)
    return jac, (x_dot, y_dot, yaw_rate)


def linearize(state0: RobotState, input0: ControlInput, geom: RobotGeometry,
              dt: float) -> LinearizedModel:
    """Affine discrete model around the operating point (state0, input0):
    [A | B] = [I | 0] + dt [J_state | J_input]."""
    jac, rates = _jacobians(state0, input0, geom)
    dt_jac = dt * jac
    a_mat, b_mat = EYE_STATE + dt_jac[:, :N_STATE], dt_jac[:, N_STATE:]
    # one Euler step of the rates at the operating point, as `derivative` gives them
    x0 = state0.as_array()
    next_state = x0 + dt * np.array([*rates, input0.accel_front, input0.accel_rear])
    d_vec = next_state - a_mat @ x0 - b_mat @ input0.as_array()
    return LinearizedModel(a_mat, b_mat, d_vec)


def augment(lin: LinearizedModel) -> AugmentedModel:
    """Delta-input form over the stacked state [state; previous input]."""
    a_bar = EYE_AUGMENTED.copy()
    a_bar[:N_STATE, :N_STATE], a_bar[:N_STATE, N_STATE:] = lin.a_mat, lin.b_mat
    b_bar = np.concatenate([lin.b_mat, EYE_INPUT])
    d_bar = np.concatenate([lin.d_vec, np.zeros(N_INPUT)])
    return AugmentedModel(a_bar, b_bar, d_bar)
