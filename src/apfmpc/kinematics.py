"""Nonlinear kinematics of the two-wheel independent drive/steer robot.

Three-degree-of-freedom bicycle-style model under rigid-body and non-slip
assumptions, stated once in two parts: `_terms` gives w (the C.G. speed
along the body axis), s (the tangent of the side slip) and k from the
speeds and the input, and `_heading_rates` turns them and the heading into
the rates. `_rates`, `derivative` and the linearization's Jacobians compose
the two; w and s keep the rates free of the side slip angle itself. One
held-input forward-Euler rollout serves as the simulation plant
(sub-stepped) and the controller's horizon prediction. It computes the
terms once over the whole speed column and the heading rates once over the
heading column; the linearization's offset is one Euler step of the same
rates, the ones `derivative` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import OrientedRectangle, Pose2D, normalize_angle

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class RobotState:
    x: float
    y: float
    heading: float
    v_front: float
    v_rear: float

    def __post_init__(self):
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
        # NaN fails every comparison; a footprint's extents must be finite too
        if not (self.l_front > 0.0 and self.l_rear > 0.0):
            raise ValueError("wheel offsets must be positive")
        if not (0.0 < self.half_length < math.inf and 0.0 < self.half_width < math.inf):
            raise ValueError("footprint half-extents must be positive and finite")

    def footprint(self, state: RobotState) -> OrientedRectangle:
        return OrientedRectangle(Pose2D(state.x, state.y, state.heading),
                                 self.half_length, self.half_width)


def _terms(v_front, v_rear, inp: ControlInput, geom: RobotGeometry):
    """The model's input/speed terms for held steering; L = l_f + l_r:

        w = ½(v_f cos δ_f + v_r cos δ_r),   s = (l_r tan δ_f + l_f tan δ_r)/L,
        k = (tan δ_f − tan δ_r)/L.

    The speeds may be arrays, and w is then one.
    """
    big_l = geom.l_front + geom.l_rear
    tf, tr = math.tan(inp.steer_front), math.tan(inp.steer_rear)
    w = 0.5 * (v_front * math.cos(inp.steer_front) + v_rear * math.cos(inp.steer_rear))
    return w, (geom.l_rear * tf + geom.l_front * tr) / big_l, (tf - tr) / big_l


def _heading_rates(heading, w, s):
    """(Ẋ, Ẏ) = w (gx, gy) with gx = cos θ − s sin θ, gy = sin θ + s cos θ;
    returns them and (gx, gy). The heading and w may be arrays."""
    c, sn = np.cos(heading), np.sin(heading)
    gx, gy = c - s * sn, sn + s * c
    return w * gx, w * gy, gx, gy


def _rates(heading, v_front, v_rear, inp: ControlInput, geom: RobotGeometry):
    """The rates (Ẋ, Ẏ, θ̇), θ̇ = w k, and the terms (w, s, gx, gy, k): the
    model's two parts composed. θ̇ does not depend on the heading."""
    w, s, k = _terms(v_front, v_rear, inp, geom)
    x_dot, y_dot, gx, gy = _heading_rates(heading, w, s)
    return (x_dot, y_dot, w * k), (w, s, gx, gy, k)


def derivative(state: RobotState, inp: ControlInput, geom: RobotGeometry) -> np.ndarray:
    """State rate [Xdot, Ydot, heading_rate, vf_dot, vr_dot]."""
    rates, _ = _rates(state.heading, state.v_front, state.v_rear, inp, geom)
    return np.array([*rates, inp.accel_front, inp.accel_rear])


def rollout(state: RobotState, inp: ControlInput, geom: RobotGeometry,
            n: int, h: float) -> np.ndarray:
    """States 0..n of n forward-Euler steps of length h with the input held,
    as rows [X, Y, heading, v_front, v_rear]; the heading is not wrapped.

    The yaw rate depends on the speeds alone, so the speeds come first, then
    the heading, then the position, each a cumulative sum from its start
    value. `ndarray.cumsum` adds in order, as stepping one by one does. The
    terms are computed once, over the speeds of steps 0..n-1.
    """
    if n < 0:
        raise ValueError("n must not be negative")
    out = np.empty((n + 1, 5))
    out[0] = state.x, state.y, state.heading, state.v_front, state.v_rear
    out[1:, 3:] = (h * inp.accel_front, h * inp.accel_rear)
    out[:, 3:].cumsum(axis=0, out=out[:, 3:])
    w, s, k = _terms(out[:-1, 3], out[:-1, 4], inp, geom)
    out[1:, 2] = h * (w * k)
    out[:, 2].cumsum(out=out[:, 2])
    x_dot, y_dot, _, _ = _heading_rates(out[:-1, 2], w, s)
    out[1:, 0], out[1:, 1] = h * x_dot, h * y_dot
    out[:, :2].cumsum(axis=0, out=out[:, :2])
    return out


def euler_step(state: RobotState, inp: ControlInput, geom: RobotGeometry,
               dt: float, substeps: int = 1) -> RobotState:
    """Forward-Euler update over dt, optionally split into substeps."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ValueError(f"substeps must be a positive integer, got {substeps!r}")
    return RobotState(*rollout(state, inp, geom, substeps, dt / substeps)[-1].tolist())
