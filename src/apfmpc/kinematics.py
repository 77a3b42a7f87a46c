"""Nonlinear kinematics of the two-wheel independent drive/steer robot.

Three-degree-of-freedom bicycle-style model under rigid-body and non-slip
assumptions. The same forward-Euler update serves as the controller's
linearization seed and (optionally sub-stepped) as the simulation plant.
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


def side_slip(inp: ControlInput, geom: RobotGeometry) -> float:
    """Side slip angle of the C.G. velocity in the body frame."""
    lf, lr = geom.l_front, geom.l_rear
    return math.atan((lr * math.tan(inp.steer_front) + lf * math.tan(inp.steer_rear))
                     / (lf + lr))


def body_speed(state: RobotState, inp: ControlInput, beta: float) -> float:
    """Speed of the C.G. given wheel speeds, steering, and side slip."""
    return (state.v_front * math.cos(inp.steer_front)
            + state.v_rear * math.cos(inp.steer_rear)) / (2.0 * math.cos(beta))


def derivative(state: RobotState, inp: ControlInput, geom: RobotGeometry) -> np.ndarray:
    """State rate [Xdot, Ydot, heading_rate, vf_dot, vr_dot]."""
    beta = side_slip(inp, geom)
    v_c = body_speed(state, inp, beta)
    course = state.heading + beta
    yaw_rate = (v_c * math.cos(beta)
                * (math.tan(inp.steer_front) - math.tan(inp.steer_rear))
                / (geom.l_front + geom.l_rear))
    return np.array([v_c * math.cos(course), v_c * math.sin(course), yaw_rate,
                     inp.accel_front, inp.accel_rear])


def euler_step(state: RobotState, inp: ControlInput, geom: RobotGeometry,
               dt: float, substeps: int = 1) -> RobotState:
    """Forward-Euler update over dt, optionally split into substeps."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    h = dt / substeps
    arr = state.as_array()
    cur = state
    for _ in range(substeps):
        arr = arr + h * derivative(cur, inp, geom)
        cur = RobotState(arr[0], arr[1], arr[2], arr[3], arr[4])
        arr = cur.as_array()
    return cur
