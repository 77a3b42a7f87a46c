"""Repulsive potential field over closest-point pairs and its convex
quadratic approximation.

The field value is a / d^(2b) in the closest distance d between the robot
and an obstacle footprint. Because that is non-convex, each prediction step
uses a second-order Taylor expansion in the robot position with the Hessian
replaced by its nearest positive semidefinite matrix (Frobenius norm), the
one with the negative eigenvalues clamped to zero. With r the gap from the
robot's closest point to the obstacle's, the Hessian c·(2(b+1) r rᵀ - d² I),
c = 2ab·d^(-2b-4), has eigenvalue c·(2b+1)·d² > 0 along r and -c·d² < 0
across it, so that matrix is the rank-one c·(2b+1) r rᵀ: no
eigendecomposition is needed. The gap is held constant during
differentiation: the closest points are not sought again, the robot's moves
with the robot and the obstacle's stays. One call expands a stack of K
closest-point rows, each with its own (scale_a, exponent_b), so footprints
of either kind (obstacle, wall) expand together; expansions sharing an
anchor add up.

Inside d₀ = √`MIN_SQ_DISTANCE` (1 cm), down to contact and through it, the
field continues as a function of the signed distance s: the gap's length
|gap| for a separation, and -|gap| for a contact, a row of distance <= 0
whose gap is the push out of the overlap (`geometry.closest_pair`), as
long as the overlap. It is the quadratic in s whose value, slope and
curvature are those of a / s^(2b) at d₀. So it is C¹ (and C²) at d₀,
bounded below by its value there, and grows, with a push that grows, as s
falls through 0 (Schulman et al., IJRR 2014, treat penetration the same
way). A continuation linear in s was rejected: its QP model is unbounded
along the gap and read an APF cost of -2.8e11 on a head-on contact. s is
linearized in the robot position along the gap's unit vector n (moving the
robot by δ moves s by -n·δ), so the expansion is value V(s), gradient
-V'(s) n and Hessian V''(d₀) n nᵀ, the rank-one form above at d₀. A row of
zero gap, such as two rectangles that just touch, has no direction: its
gradient and Hessian are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_SQ_DISTANCE = 1e-4  # d₀²: inside d₀ the field continues in the signed distance
_D0 = math.sqrt(MIN_SQ_DISTANCE)


@dataclass(frozen=True)
class QuadraticApproximation:
    """Per predicted step, the expansions summed at the step's anchor:
    c + gᵀr + ½ rᵀHr in r = robot position - anchor."""
    constant: np.ndarray     # (n,)
    gradient: np.ndarray     # d/d(X, Y): (n, 2)
    hessian_psd: np.ndarray  # symmetric, eigenvalues >= 0: (n, 2, 2)
    anchor: np.ndarray       # (n, 2)

    def value(self, robot_pos: np.ndarray) -> float:
        """Sum over the steps of each step's quadratic at its row of robot_pos, (n, 2)."""
        r = robot_pos - self.anchor
        h_r = (self.hessian_psd @ r[:, :, None])[:, :, 0]
        return float(np.add.reduce(self.constant, axis=None)
                     + np.add.reduce(r * (self.gradient + 0.5 * h_r), axis=None))


def params_table(*kinds: tuple[float, float]) -> np.ndarray:
    """The (2, len(kinds)) table of per-kind (scale_a, exponent_b) columns;
    the field decays from contact only if every entry is positive."""
    table = np.array(kinds, dtype=float).T.copy()
    if not np.all(table > 0.0):  # NaN fails too
        raise ValueError("potential field parameters must be positive")
    return table


def quadratic_approx(gap: np.ndarray, distance: np.ndarray,
                     params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order expansions of the field in the robot position, one per row.

    gap (K, 2) runs from the robot's closest point to the obstacle's, and
    distance (K,) is the pair's distance, both as `geometry.closest_pair`
    returns them; params (2, K) holds each row's scale_a and exponent_b.
    distance is read only for its sign: a row whose distance is <= 0 is a
    contact, whose gap is the push out of the overlap and whose signed
    distance is -|gap|. Returns the (K,) values, (K, 2) gradients and
    (K, 2, 2) Hessians, the rank-one c·(2b+1) r rᵀ above; where d² <=
    `MIN_SQ_DISTANCE` or at contact, the continuation in the signed distance.
    """
    a, b = params
    dx, dy = gap[:, 0], gap[:, 1]
    gap_sq = dx * dx + dy * dy
    d_sq = np.maximum(gap_sq, MIN_SQ_DISTANCE)
    contact = distance <= 0.0
    inside = (d_sq <= MIN_SQ_DISTANCE) | contact
    value = a / d_sq ** b
    two_ab, minus_b = 2.0 * a * b, -b
    gradient = (two_ab * d_sq ** (minus_b - 1.0))[:, None] * gap
    curv = two_ab * d_sq ** (minus_b - 2.0)
    # r rᵀ first, so that H is exactly symmetric
    hess = (curv * (2.0 * b + 1.0))[:, None, None] * (gap[:, :, None] * gap[:, None, :])
    if inside.any():
        norm = np.sqrt(gap_sq)
        s = np.where(contact, -norm, norm)
        unit = gap / np.where(norm > 0.0, norm, math.inf)[:, None]  # 0 for a zero gap
        # value, slope and curvature of a / s^(2b) at d0
        v0 = a / MIN_SQ_DISTANCE ** b
        slope = -two_ab * _D0 ** (-2.0 * b - 1.0)
        v2 = two_ab * (2.0 * b + 1.0) * _D0 ** (-2.0 * b - 2.0)
        t = s - _D0
        value = np.where(inside, v0 + t * (slope + 0.5 * v2 * t), value)
        push = -(slope + v2 * t)  # -dV/ds > 0, growing as s falls
        gradient = np.where(inside[:, None], push[:, None] * unit, gradient)
        n_nt = unit[:, :, None] * unit[:, None, :]
        hess = np.where(inside[:, None, None], v2[:, None, None] * n_nt, hess)
    return value, gradient, hess
