"""Nonlinear kinematics of the two-wheel independent drive/steer robot.

Three-degree-of-freedom bicycle-style model under rigid-body and non-slip
assumptions, stated once in `_rates`. Its terms w (the C.G. speed along the
body axis) and s (the tangent of the side slip) keep the rates free of the
side slip angle itself. One held-input forward-Euler rollout serves as the
simulation plant (sub-stepped) and the controller's horizon prediction; the
linearization's offset is one Euler step of `derivative`.
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

    @staticmethod
    def from_array(arr) -> "RobotState":
        return RobotState(float(arr[0]), float(arr[1]), float(arr[2]),
                          float(arr[3]), float(arr[4]))


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

    @staticmethod
    def from_array(arr) -> "ControlInput":
        return ControlInput(float(arr[0]), float(arr[1]), float(arr[2]), float(arr[3]))


@dataclass(frozen=True)
class RobotGeometry:
    l_front: float  # C.G. to front wheel
    l_rear: float   # C.G. to rear wheel
    half_length: float
    half_width: float

    def __post_init__(self):
        if self.l_front <= 0.0 or self.l_rear <= 0.0:
            raise ValueError("wheel offsets must be positive")

    def footprint(self, state: RobotState) -> OrientedRectangle:
        return OrientedRectangle(Pose2D(state.x, state.y, state.heading),
                                 self.half_length, self.half_width)


def _rates(heading, v_front, v_rear, inp: ControlInput, geom: RobotGeometry):
    """The model in its w/s form, for held steering; L = l_f + l_r:

        w = ½(v_f cos δ_f + v_r cos δ_r),   s = (l_r tan δ_f + l_f tan δ_r)/L,
        Ẋ = w gx,  gx = cos θ − s sin θ,    Ẏ = w gy,  gy = sin θ + s cos θ,
        θ̇ = w k,   k = (tan δ_f − tan δ_r)/L.

    Returns the rates (Ẋ, Ẏ, θ̇) and the terms (w, s, gx, gy, k). The heading
    and the speeds may be arrays; θ̇ does not depend on the heading.
    """
    big_l = geom.l_front + geom.l_rear
    tf, tr = math.tan(inp.steer_front), math.tan(inp.steer_rear)
    w = 0.5 * (v_front * math.cos(inp.steer_front) + v_rear * math.cos(inp.steer_rear))
    s, k = (geom.l_rear * tf + geom.l_front * tr) / big_l, (tf - tr) / big_l
    c, sn = np.cos(heading), np.sin(heading)
    gx, gy = c - s * sn, sn + s * c
    return (w * gx, w * gy, w * k), (w, s, gx, gy, k)


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
    value. `ndarray.cumsum` adds in order, as stepping one by one does.
    """
    out = np.empty((n + 1, 5))
    out[0] = state.as_array()
    out[1:, 3:] = (h * inp.accel_front, h * inp.accel_rear)
    out[:, 3:].cumsum(axis=0, out=out[:, 3:])
    speeds = out[:-1, 3], out[:-1, 4]
    (_, _, yaw_rate), _ = _rates(state.heading, *speeds, inp, geom)
    out[1:, 2] = h * yaw_rate
    out[:, 2].cumsum(out=out[:, 2])
    (x_dot, y_dot, _), _ = _rates(out[:-1, 2], *speeds, inp, geom)
    out[1:, 0], out[1:, 1] = h * x_dot, h * y_dot
    out[:, :2].cumsum(axis=0, out=out[:, :2])
    return out


def euler_step(state: RobotState, inp: ControlInput, geom: RobotGeometry,
               dt: float, substeps: int = 1) -> RobotState:
    """Forward-Euler update over dt, optionally split into substeps."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return RobotState.from_array(rollout(state, inp, geom, substeps, dt / substeps)[-1])
