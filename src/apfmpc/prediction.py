"""The obstacles' model: obstacles and their horizon rows (x, y, heading).

Obstacles follow a constant velocity and turning rate model (velocity
vector rotated by dt*yaw_rate before each displacement, so speed magnitude
is preserved), the heading wrapped. Their steps stay sequential, on floats,
through the helper that `advance_obstacle` wraps for the simulator, so
prediction and simulation agree bit for bit; a prediction builds no pose.
The robot's rows are `kinematics.predict_robot`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import OrientedRectangle, Pose2D, normalize_angle, store_floats


KINDS = ("obstacle", "boundary")  # the footprint kinds, each with its own field (a, b)


@dataclass(frozen=True)
class Obstacle:
    footprint: OrientedRectangle
    velocity: tuple[float, float] = (0.0, 0.0)  # stored as a tuple of two floats
    yaw_rate: float = 0.0                       # stored as a float
    kind: str = "obstacle"  # one of KINDS

    def __post_init__(self):
        store_floats(self, velocity=tuple(self.velocity), yaw_rate=self.yaw_rate)
        if len(self.velocity) != 2:
            raise ValueError(f"velocity must have two entries (vx, vy), got {len(self.velocity)}")
        if not all(map(math.isfinite, (*self.velocity, self.yaw_rate))):
            raise ValueError("obstacle velocity and yaw rate must be finite")
        if self.kind not in KINDS:
            raise ValueError(f"unknown obstacle kind: {self.kind!r}")
        if self.kind == "boundary" and self.moves:
            raise ValueError("boundaries must be static")

    @property
    def moves(self) -> bool:
        """Whether a step changes the obstacle: a velocity or yaw rate not 0."""
        return self.velocity != (0.0, 0.0) or self.yaw_rate != 0.0


def _obstacle_step(x, y, heading, vx, vy, yaw_rate, dt):
    """One constant velocity / turning rate step of a pose and velocity."""
    ang = dt * yaw_rate
    c, s = math.cos(ang), math.sin(ang)
    vx, vy = c * vx - s * vy, s * vx + c * vy
    return x + dt * vx, y + dt * vy, normalize_angle(heading + ang), vx, vy


def advance_obstacle(obs: Obstacle, dt: float) -> Obstacle:
    """One constant velocity / turning rate step; FloatingPointError if the
    new pose is not finite (an overflow)."""
    pose = obs.footprint.center
    x, y, heading, vx, vy = _obstacle_step(pose.x, pose.y, pose.heading,
                                           *obs.velocity, obs.yaw_rate, dt)
    if not all(map(math.isfinite, (x, y, heading))):
        raise FloatingPointError(f"non-finite obstacle pose ({x}, {y}, {heading})")
    return Obstacle(OrientedRectangle(Pose2D(x, y, heading), obs.footprint.half_length,
                                      obs.footprint.half_width),
                    (vx, vy), obs.yaw_rate, obs.kind)


def predict_obstacle(obs: Obstacle, n_steps: int, dt: float) -> list[tuple[float, float, float]]:
    """Rows (x, y, heading) of steps 1..n_steps, the heading wrapped."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    pose = obs.footprint.center
    step, rows = (pose.x, pose.y, pose.heading, *obs.velocity), []
    for _ in range(n_steps):
        step = _obstacle_step(*step, obs.yaw_rate, dt)
        rows.append(step[:3])
    return rows
