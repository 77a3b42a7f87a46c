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
(scale_a, exponent_b).

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


def quadratic_approx(robot_pos, gap, params, distance=None) -> QuadraticApproximation:
    """Second-order expansion of the field in the robot position.

    Takes one point (pairs of floats) or stacks of K points ((K, 2) each).
    params is one `ApfParams` for every point, or the two (K,) arrays
    scale_a and exponent_b, one entry per point. Both give
    the same bits, except at b = 0.5 or 2: numpy raises an array to such a
    float power by sqrt or square, not pow. gap runs from the robot's closest
    point to the obstacle's, as `geometry.closest_pair` returns it, at the
    robot position robot_pos, the expansion's anchor; the Hessian is the
    rank-one c·(2b+1) r rᵀ above. `distance` is each point's distance as
    `closest_pair` returns it, read only for its sign: a point whose
    distance is <= 0 is a contact, whose gap is the push out of the overlap
    and whose signed distance is -|gap|; without it every gap is a
    separation. Where d² <= `MIN_SQ_DISTANCE` or at contact, the expansion
    is the continuation in the signed distance above; every other point's
    is the field's own, bit for bit as without `distance`.
    """
    a, b = params
    rel = np.asarray(gap, dtype=float)
    dx, dy = rel[..., 0], rel[..., 1]
    # np.maximum keeps one point on numpy scalars, whose ** is the C pow
    gap_sq = dx * dx + dy * dy
    d_sq = np.maximum(gap_sq, MIN_SQ_DISTANCE)
    inside = d_sq <= MIN_SQ_DISTANCE
    if distance is not None:
        contact = np.asarray(distance) <= 0.0
        inside = inside | contact
    value = a / d_sq ** b
    two_ab, minus_b = 2.0 * a * b, -b
    gradient = (two_ab * d_sq ** (minus_b - 1.0))[..., None] * rel
    curv = two_ab * d_sq ** (minus_b - 2.0)
    # r rᵀ first, so that H is exactly symmetric
    hess = (curv * (2.0 * b + 1.0))[..., None, None] * (rel[..., :, None] * rel[..., None, :])
    if inside.any():
        norm = np.sqrt(gap_sq)
        s = norm if distance is None else np.where(contact, -norm, norm)
        unit = rel / np.where(norm > 0.0, norm, math.inf)[..., None]  # 0 for a zero gap
        # value, slope and curvature of a / s^(2b) at d0
        v0 = a / MIN_SQ_DISTANCE ** b
        slope = -two_ab * _D0 ** (-2.0 * b - 1.0)
        v2 = two_ab * (2.0 * b + 1.0) * _D0 ** (-2.0 * b - 2.0)
        t = s - _D0
        value = np.where(inside, v0 + t * (slope + 0.5 * v2 * t), value)
        push = -(slope + v2 * t)  # -dV/ds > 0, growing as s falls
        gradient = np.where(inside[..., None], push[..., None] * unit, gradient)
        n_nt = unit[..., :, None] * unit[..., None, :]
        hess = np.where(inside[..., None, None], np.asarray(v2)[..., None, None] * n_nt, hess)
    return QuadraticApproximation(value, gradient, hess, robot_pos)
