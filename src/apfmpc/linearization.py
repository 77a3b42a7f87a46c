"""Discrete-time linearization of the kinematics and its delta-input form.

The affine model x(k+1) = A x(k) + B u(k) + d is built from analytic
Jacobians of the continuous dynamics at an operating point (current state,
previously applied input), taken through the terms of the kinematics' one
statement of the rates; with the offset d from one Euler step of the same
rates, the model is exact there by construction. The augmented
form stacks the previous input into the state so control increments become
the decision variables; its first N_STATE entries are the outputs.
N = Ā - I has N⁴ = 0: in the order inputs, speeds, heading, position, each
entry feeds only later ones (the yaw rate moves with the speeds and steering,
not the heading), so every product of four entries of N has a structural zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import ControlInput, RobotGeometry, RobotState, _body_rates, _steering_terms

N_STATE = 5
N_INPUT = 4
NILPOTENCY_INDEX = 4  # (Ā - I)⁴ = 0, see the module docstring


# identity blocks shared by every tick, read-only: A = I + dt J, the input
# block of B̄, and the Ā whose top rows each tick fills
EYE_STATE, EYE_INPUT, EYE_AUGMENTED = map(np.eye, (N_STATE, N_INPUT, N_STATE + N_INPUT))
for _eye in (EYE_STATE, EYE_INPUT, EYE_AUGMENTED):
    _eye.flags.writeable = False


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

    The chain rule through the kinematics' one statement of the rates:
    (Xdot, Ydot, heading_rate) = w (gx, gy, k), where w moves with the speeds
    and the steering, gx and gy with the heading and s, and s and k with
    tan(d_f) and tan(d_r). Also returns the rates (Xdot, Ydot, heading_rate)
    at the operating point, which the offset reuses.
    """
    th, df, dr = state.heading, inp.steer_front, inp.steer_rear
    vf, vr = state.v_front, state.v_rear
    terms = _steering_terms(inp, geom)
    cth, sth = math.cos(th), math.sin(th)
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
    n, m = N_STATE, N_INPUT
    a_bar = EYE_AUGMENTED.copy()
    a_bar[:n, :n], a_bar[:n, n:] = lin.a_mat, lin.b_mat
    b_bar = np.concatenate([lin.b_mat, EYE_INPUT])
    d_bar = np.concatenate([lin.d_vec, np.zeros(m)])
    return AugmentedModel(a_bar, b_bar, d_bar)
