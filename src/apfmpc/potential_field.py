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
with the robot and the obstacle's stays. One call expands one point or a
stack; terms sharing an anchor add up. The parameters are one `ApfParams`
for every point, or per point: a stack whose footprints differ in kind
(obstacle, wall) expands in one call, each point with its own
(scale_a, exponent_b). Every kind clamps d² at `MIN_SQ_DISTANCE`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_SQ_DISTANCE = 1e-4  # d² is clamped here: the field stays finite at contact


@dataclass(frozen=True)
class ApfParams:
    scale_a: float
    exponent_b: float

    def __post_init__(self):
        if not (self.scale_a > 0.0 and self.exponent_b > 0.0):  # NaN fails too
            raise ValueError("potential field parameters must be positive")

    def __iter__(self):
        """(scale_a, exponent_b), as one row of a per-point table."""
        return iter((self.scale_a, self.exponent_b))


@dataclass(frozen=True)
class QuadraticApproximation:
    """c + gᵀr + ½ rᵀHr in r = robot position - anchor; one or a stack."""
    constant: float | np.ndarray
    gradient: np.ndarray     # d/d(X, Y): (2,) or (K, 2)
    hessian_psd: np.ndarray  # symmetric, eigenvalues >= 0: (2, 2) or (K, 2, 2)
    anchor: tuple[float, float] | np.ndarray

    def value(self, robot_pos) -> float:
        """Sum over the stack of each expansion at its row of robot_pos."""
        r = np.asarray(robot_pos, dtype=float) - self.anchor
        h_r = (self.hessian_psd @ r[..., None])[..., 0]
        return float(np.add.reduce(self.constant, axis=None)
                     + np.add.reduce(r * (self.gradient + 0.5 * h_r), axis=None))


def quadratic_approx(robot_pos, gap, params) -> QuadraticApproximation:
    """Second-order expansion of the field in the robot position.

    Takes one point (pairs of floats) or stacks of K points ((K, 2) each).
    params is one `ApfParams` for every point, or the two (K,) arrays
    scale_a and exponent_b, one entry per point. Both give
    the same bits, except at b = 0.5 or 2: numpy raises an array to such a
    float power by sqrt or square, not pow. gap runs from the robot's closest
    point to the obstacle's, as `geometry.closest_pair` returns it, at the
    robot position robot_pos, the expansion's anchor; the Hessian is the
    rank-one c·(2b+1) r rᵀ above. The expansion is flat (constant value,
    zero gradient and Hessian) where d² <= `MIN_SQ_DISTANCE`.
    """
    a, b = params
    rel = np.asarray(gap, dtype=float)
    dx, dy = rel[..., 0], rel[..., 1]
    # np.maximum keeps one point on numpy scalars, whose ** is the C pow
    d_sq = np.maximum(dx * dx + dy * dy, MIN_SQ_DISTANCE)
    clamped = d_sq <= MIN_SQ_DISTANCE
    value = a / d_sq ** b
    two_ab, minus_b = 2.0 * a * b, -b
    gradient = (two_ab * d_sq ** (minus_b - 1.0))[..., None] * rel
    curv = two_ab * d_sq ** (minus_b - 2.0)
    # r rᵀ first, so that H is exactly symmetric
    hess = (curv * (2.0 * b + 1.0))[..., None, None] * (rel[..., :, None] * rel[..., None, :])
    if clamped.any():
        gradient[clamped] = 0.0
        hess[clamped] = 0.0
    return QuadraticApproximation(value, gradient, hess, robot_pos)
