"""Outside correctness check of one closed-loop episode.

Everything is recomputed from the logged states and inputs and the
generated scenario, not read from the simulator's own bookkeeping: obstacle
poses are re-propagated, clearances to obstacles and walls are measured
again with `geometry.closest_pair`, and the slip and tracking figures are
derived from the logged states. An episode passes only when the simulator
reports it `completed`, ran its full length, and every check holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from apfmpc.geometry import OrientedRectangle, Pose2D, closest_pair
from apfmpc.mpc import MpcConfig
from apfmpc.simulator import DEFAULT_GEOMETRY, COLLIDED, COMPLETED, SimulationLog

# logged clearance and slip may differ from the recomputation by rounding only
AGREE_TOL = 1e-9


@dataclass
class EpisodeCheck:
    problems: list[str] = field(default_factory=list)
    min_clearance: float = math.inf      # obstacles and walls, recomputed
    rms_tracking_error: float = math.nan
    max_slip: float = math.nan

    @property
    def ok(self) -> bool:
        return not self.problems


def obstacle_poses(obstacle, n_ticks: int, dt: float) -> list[Pose2D]:
    """Pose at the start of each tick under constant velocity and turn
    rate, with the velocity rotated before each displacement."""
    pose, (vx, vy) = obstacle.footprint.center, obstacle.velocity
    c, s = math.cos(dt * obstacle.yaw_rate), math.sin(dt * obstacle.yaw_rate)
    poses = []
    for _ in range(n_ticks):
        poses.append(pose)
        vx, vy = c * vx - s * vy, s * vx + c * vy
        pose = Pose2D(pose.x + dt * vx, pose.y + dt * vy,
                      pose.heading + dt * obstacle.yaw_rate)
    return poses


def path_distances(points: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Distance from each point to the polyline."""
    a, b = path[:-1], path[1:]
    seg = b - a
    rel = points[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(rel * seg, axis=2) / np.sum(seg * seg, axis=1), 0.0, 1.0)
    gap = rel - t[:, :, None] * seg[None, :, :]
    return np.sqrt(np.min(np.sum(gap * gap, axis=2), axis=1))


def check_episode(episode, log: SimulationLog, cfg: MpcConfig = MpcConfig(),
                  geom=DEFAULT_GEOMETRY) -> EpisodeCheck:
    scenario = episode.scenario
    out = EpisodeCheck()
    bad = out.problems.append
    records = log.records
    expected = int(round(scenario.duration / cfg.dt))

    if not records:
        bad("empty log")
        return out
    states = np.array([r.state.as_array() for r in records])
    inputs = np.array([r.applied.as_array() for r in records])
    finite = bool(np.all(np.isfinite(states)) and np.all(np.isfinite(inputs)))
    if not finite:
        bad("non-finite state or input")
    if log.outcome == COLLIDED and not finite:
        bad("non-finite state labelled collided")
    if log.outcome != COMPLETED:
        bad(f"outcome {log.outcome}")
    elif len(records) != expected:
        bad(f"completed after {len(records)} of {expected} ticks")
    if np.any(np.abs(inputs) > np.array(cfg.u_max)):
        bad("applied input beyond u_max")
    if np.any(np.abs(inputs[:, 2:]) >= math.pi / 2):
        bad("steering not strictly inside +-pi/2")
    if not finite:
        return out

    tracks = [obstacle_poses(o, len(records), cfg.dt)
              for o in scenario.obstacles if o.kind == "obstacle"]
    sizes = [(o.footprint.half_length, o.footprint.half_width)
             for o in scenario.obstacles if o.kind == "obstacle"]
    overlap = False
    for k, record in enumerate(records):
        robot = geom.footprint(record.state)
        obstacle_gap = min((closest_pair(robot, OrientedRectangle(track[k], *size)).distance
                            for track, size in zip(tracks, sizes)), default=math.inf)
        wall_gap = min((closest_pair(robot, wall).distance for wall in episode.walls),
                       default=math.inf)
        # equality first: both are inf when the episode has no obstacles
        if not (obstacle_gap == record.min_clearance
                or abs(obstacle_gap - record.min_clearance) <= AGREE_TOL):
            bad(f"tick {k}: logged clearance {record.min_clearance} "
                f"!= recomputed {obstacle_gap}")
        overlap = overlap or obstacle_gap == 0.0 or wall_gap == 0.0
        out.min_clearance = min(out.min_clearance, obstacle_gap, wall_gap)
    if overlap and log.outcome == COMPLETED:
        bad("completed with obstacle or wall overlap")

    ahead = states[:, 3:5] + cfg.dt * inputs[:, 0:2]
    slip = np.abs(ahead[:, 0] * np.cos(inputs[:, 2]) - ahead[:, 1] * np.cos(inputs[:, 3]))
    logged = np.array([r.slip_measure for r in records])
    if np.any(np.abs(slip - logged) > AGREE_TOL):
        bad("logged slip measure disagrees with recomputation")
    out.max_slip = float(np.max(slip))
    errors = path_distances(states[:, :2], np.asarray(scenario.path, float))
    out.rms_tracking_error = float(np.sqrt(np.mean(errors ** 2)))
    return out
