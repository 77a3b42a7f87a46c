"""Discrete-time linearization of the kinematics and its delta-input form.

The affine model x(k+1) = A x(k) + B u(k) + d is built from analytic
Jacobians of the continuous dynamics at an operating point (current state,
previously applied input) and is exact there by construction. The augmented
form stacks the previous input into the state so control increments become
the decision variables; its first N_STATE entries are the outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import ControlInput, RobotGeometry, RobotState, derivative

N_STATE = 5
N_INPUT = 4


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
    """Analytic Jacobians of the state rate w.r.t. state and input.

    Uses the identities v_c*cos(beta) = (v_f cos(d_f) + v_r cos(d_r))/2 =: w
    and tan(beta) = (l_r tan(d_f) + l_f tan(d_r))/(l_f+l_r) =: s, so that
    Xdot = w (cos(th) - s sin(th)), Ydot = w (sin(th) + s cos(th)),
    and the heading rate is w (tan(d_f) - tan(d_r)) / (l_f+l_r).
    """
    lf, lr = geom.l_front, geom.l_rear
    big_l = lf + lr
    th = state.heading
    vf, vr = state.v_front, state.v_rear
    df, dr = inp.steer_front, inp.steer_rear

    cf, sf, tf = math.cos(df), math.sin(df), math.tan(df)
    cr, sr, tr = math.cos(dr), math.sin(dr), math.tan(dr)
    sec2f, sec2r = 1.0 / (cf * cf), 1.0 / (cr * cr)
    cth, sth = math.cos(th), math.sin(th)

    w = 0.5 * (vf * cf + vr * cr)
    s = (lr * tf + lf * tr) / big_l
    gx = cth - s * sth          # Xdot = w * gx
    gy = sth + s * cth          # Ydot = w * gy
    tdiff = tf - tr

    dw_dvf, dw_dvr = 0.5 * cf, 0.5 * cr
    dw_ddf, dw_ddr = -0.5 * vf * sf, -0.5 * vr * sr
    ds_ddf, ds_ddr = lr * sec2f / big_l, lf * sec2r / big_l

    j_state = np.zeros((N_STATE, N_STATE))
    j_state[0, 2] = -w * gy
    j_state[1, 2] = w * gx
    j_state[0, 3], j_state[0, 4] = dw_dvf * gx, dw_dvr * gx
    j_state[1, 3], j_state[1, 4] = dw_dvf * gy, dw_dvr * gy
    j_state[2, 3], j_state[2, 4] = dw_dvf * tdiff / big_l, dw_dvr * tdiff / big_l

    j_input = np.zeros((N_STATE, N_INPUT))
    j_input[3, 0] = 1.0
    j_input[4, 1] = 1.0
    j_input[0, 2] = dw_ddf * gx - w * sth * ds_ddf
    j_input[0, 3] = dw_ddr * gx - w * sth * ds_ddr
    j_input[1, 2] = dw_ddf * gy + w * cth * ds_ddf
    j_input[1, 3] = dw_ddr * gy + w * cth * ds_ddr
    j_input[2, 2] = (dw_ddf * tdiff + w * sec2f) / big_l
    j_input[2, 3] = (dw_ddr * tdiff - w * sec2r) / big_l
    return j_state, j_input


def linearize(state0: RobotState, input0: ControlInput, geom: RobotGeometry,
              dt: float) -> LinearizedModel:
    """Affine discrete model around the operating point (state0, input0)."""
    j_state, j_input = _jacobians(state0, input0, geom)
    a_mat = np.eye(N_STATE) + dt * j_state
    b_mat = dt * j_input
    next_state = state0.as_array() + dt * derivative(state0, input0, geom)
    d_vec = next_state - a_mat @ state0.as_array() - b_mat @ input0.as_array()
    return LinearizedModel(a_mat, b_mat, d_vec)


def augment(lin: LinearizedModel) -> AugmentedModel:
    """Delta-input form over the stacked state [state; previous input]."""
    n, m = N_STATE, N_INPUT
    a_bar = np.zeros((n + m, n + m))
    a_bar[:n, :n] = lin.a_mat
    a_bar[:n, n:] = lin.b_mat
    a_bar[n:, n:] = np.eye(m)
    b_bar = np.vstack([lin.b_mat, np.eye(m)])
    d_bar = np.concatenate([lin.d_vec, np.zeros(m)])
    return AugmentedModel(a_bar, b_bar, d_bar)
