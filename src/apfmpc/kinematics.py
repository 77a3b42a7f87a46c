"""Nonlinear kinematics of the two-wheel independent drive/steer robot.

Three-degree-of-freedom bicycle-style model under rigid-body and non-slip
assumptions, stated once in two parts: `_steering_terms` gives the terms of
the held steering (cos δ_f, cos δ_r, the tangent of the side slip s, and
k), and `_body_rates` turns them, the speeds and cos and sin of the heading
into w (the C.G. speed along the body axis) and the rates. `_rates`,
`derivative` and the linearization's Jacobians compose the two; w and s
keep the rates free of the side slip angle itself.

One held-input forward-Euler rollout serves as the simulation plant (10
substeps a tick) and the controller's horizon prediction (20 steps). It is
one loop over Python floats: the steering terms once, then `_body_rates`
per step. A rollout has 5 to 21 states of five numbers, and at that size
a dozen numpy calls over the whole columns cost more than the loop's
scalar arithmetic; each state is bit for bit the array form's, which
`tests/test_kinematics.py` keeps as its oracle. The linearization's offset
is one Euler step of the same rates, the ones `derivative` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, nan, sin

import numpy as np

from .geometry import OrientedRectangle, Pose2D, normalize_angle, store_floats

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class RobotState:
    x: float
    y: float
    heading: float
    v_front: float
    v_rear: float

    def __post_init__(self):
        store_floats(self, x=self.x, y=self.y, heading=normalize_angle(float(self.heading)),
                     v_front=self.v_front, v_rear=self.v_rear)

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
    return np.array(_steps(state, inp, geom, n, h)).reshape(n + 1, 5)


def euler_step(state: RobotState, inp: ControlInput, geom: RobotGeometry,
               dt: float, substeps: int = 1) -> RobotState:
    """Forward-Euler update over dt, optionally split into substeps."""
    if not 0.0 < dt < math.inf:  # NaN fails both comparisons
        raise ValueError("dt must be positive and finite")
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ValueError(f"substeps must be a positive integer, got {substeps!r}")
    return RobotState(*_steps(state, inp, geom, substeps, dt / substeps)[-5:])
