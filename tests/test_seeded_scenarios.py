"""Seeded random scenarios and the invariants every closed-loop run keeps.

Five families, the controller variants taking turns in each:

- general: 0-2 walls and 0-2 obstacles, about half of them moving, a path
  of 2-4 vertices, a start within 1 m of the first vertex at any heading
  with wheel speeds of 0-1.6 m/s, its footprint clear of every wall and
  obstacle (a start that overlaps one is drawn again), and a duration of
  1-3 s;
- exact double-backs (`conftest.double_back`) at headings in (-3, 3), 2-6 s;
- starts whose footprint overlaps a wall beside a straight path by 5-50 cm,
  within 0.3 rad of the path's heading, both wheels at one speed of
  0-1.6 m/s, 1-2 s;
- crossings: a path (0, 0)-(30, 0) without walls, the robot starting on it
  at a reference speed of 1.0-1.3 m/s, and a 0.8 m wide obstacle, half as
  long as 0.5-1.0 m, crossing x = 8 m at heading pi/2 and 0.5-1.3 m/s,
  its center on the path within 1 s of the robot's nominal arrival; each
  run lasts until the robot is nominally 6 m past the crossing;
- speed gaps: a straight path from the origin at a random heading without
  walls or obstacles, a start near its first vertex within 0.3 rad of its
  heading, wheel speeds apart by 0.15-0.6 m/s, more than the slip band,
  either wheel the faster, and a duration of 1-3 s. On every other draw
  the faster wheel is at 1.5-1.8 m/s, above the 1.48 m/s from which step
  1's speed row is out of reach, else at 0.6-1.3 m/s; the variants take
  turns by pairs of draws, so each meets both.

A run must raise nothing, end in a declared outcome, log only finite
numbers (unless its outcome says the numbers went non-finite), apply
inputs within `MpcConfig.u_max`, and write the same CSV bytes when run
again. A scenario that breaks an invariant is a failing test, never a
reason to draw other scenarios.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from apfmpc.geometry import OrientedRectangle, Pose2D, closest_pair
from apfmpc.kinematics import RobotState
from apfmpc.mpc import SLIP_BAND, VARIANTS, MpcConfig
from apfmpc.prediction import Obstacle
from apfmpc.simulator import (COLLIDED, COMPLETED, DEFAULT_GEOMETRY, NUMERICAL_FAILURE,
                              SOLVER_FAILED, Scenario, load_scenario, run, save_scenario)
from conftest import double_back

SEED, SCENARIOS, DOUBLE_BACKS, WALL_STARTS, CROSSINGS, SPEED_GAPS = 2026, 24, 6, 6, 6, 8
OUTCOMES = (COMPLETED, COLLIDED, SOLVER_FAILED, NUMERICAL_FAILURE)


def uniform(rng, low, high, size=None):
    """rng.uniform as Python floats, as a file holds them."""
    return np.array(rng.uniform(low, high, size)).tolist()


def random_scenario(rng, variant):
    """One general scenario drawn from rng, with the ranges of the module
    docstring."""
    headings = np.cumsum([uniform(rng, -math.pi, math.pi)]
                         + uniform(rng, -2.5, 2.5, rng.integers(0, 3))).tolist()
    steps = [(length * math.cos(h), length * math.sin(h))
             for h, length in zip(headings, uniform(rng, 2.0, 8.0, len(headings)))]
    path = np.cumsum([uniform(rng, -5.0, 5.0, 2)] + steps, axis=0)
    walls = []
    for _ in range(rng.integers(0, 3)):  # beside a segment, along it
        k, side = rng.integers(0, len(steps)), uniform(rng, 1.5, 4.0) * float(rng.choice([-1, 1]))
        normal = np.array([-math.sin(headings[k]), math.cos(headings[k])])
        x, y = (path[k] + 0.5 * np.array(steps[k]) + side * normal).tolist()
        walls.append(OrientedRectangle(Pose2D(x, y, headings[k]), uniform(rng, 2.0, 8.0),
                                       uniform(rng, 0.1, 0.3)))
    obstacles = []
    for _ in range(rng.integers(0, 3)):  # near the path, about half of them moving
        k, along = rng.integers(0, len(steps)), uniform(rng, 0.5, 1.0)
        x, y = (path[k] + along * np.array(steps[k]) + uniform(rng, -1.5, 1.5, 2)).tolist()
        footprint = OrientedRectangle(Pose2D(x, y, uniform(rng, -math.pi, math.pi)),
                                      *uniform(rng, 0.3, 0.8, 2))
        if rng.random() < 0.5:
            obstacles.append(Obstacle(footprint, uniform(rng, -1.0, 1.0, 2),
                                      uniform(rng, -0.5, 0.5)))
        else:
            obstacles.append(Obstacle(footprint))
    x, y = path[0].tolist()
    while True:  # only a start that overlaps a footprint is drawn again
        bearing, reach = uniform(rng, -math.pi, math.pi), uniform(rng, 0.0, 1.0)
        start = RobotState(x + reach * math.cos(bearing), y + reach * math.sin(bearing),
                           uniform(rng, -math.pi, math.pi), *uniform(rng, 0.0, 1.6, 2))
        if start_clearance(start, walls, obstacles) > 0.0:
            break
    return Scenario(name="seeded", corridor=walls, path=path, ref_speed=uniform(rng, 0.3, 1.4),
                    obstacles=obstacles, initial_state=start, duration=uniform(rng, 1.0, 3.0),
                    controller_variant=variant)


def start_clearance(start, walls, obstacles):
    """The distance from the start's footprint to the nearest wall or
    obstacle, inf without either."""
    robot = DEFAULT_GEOMETRY.footprint(start)
    return min((closest_pair(robot, footprint).distance
                for footprint in [*walls, *(obs.footprint for obs in obstacles)]),
               default=math.inf)


def wall_start(rng, variant):
    """A straight path from the origin at a random heading, a wall beside
    it, and a start near the first vertex whose footprint overlaps the wall
    by 5-50 cm, with the ranges of the module docstring."""
    heading, length = uniform(rng, -math.pi, math.pi), uniform(rng, 10.0, 20.0)
    along = np.array([math.cos(heading), math.sin(heading)])
    across = np.array([-math.sin(heading), math.cos(heading)])
    side, (offset, half_width) = float(rng.choice([-1, 1])), uniform(rng, [1.0, 0.1], [3.0, 0.3])
    x, y = (0.5 * length * along + side * offset * across).tolist()
    wall = OrientedRectangle(Pose2D(x, y, heading), 0.5 * length + 3.0, half_width)
    # the footprint's reach across the path at its turn from the path's heading
    turn, depth = uniform(rng, -0.3, 0.3), uniform(rng, 0.05, 0.5)
    geom = DEFAULT_GEOMETRY
    reach = geom.half_length * abs(math.sin(turn)) + geom.half_width * math.cos(turn)
    x, y = (uniform(rng, 0.0, 2.0) * along
            + side * (offset - half_width - reach + depth) * across).tolist()
    start = RobotState(x, y, heading + turn, *[uniform(rng, 0.0, 1.6)] * 2)
    return Scenario(name="wall_start", corridor=[wall],
                    path=np.array([[0.0, 0.0], (length * along).tolist()]),
                    ref_speed=uniform(rng, 0.3, 1.4), obstacles=[], initial_state=start,
                    duration=uniform(rng, 1.0, 2.0), controller_variant=variant)


def crossing(rng, variant):
    """An obstacle crossing a straight path ahead of the robot, with the
    ranges of the module docstring."""
    ref_speed, speed, half_length, lag = uniform(rng, [1.0, 0.5, 0.5, -1.0], [1.3, 1.3, 1.0, 1.0])
    arrival = 8.0 / ref_speed + lag  # when the obstacle's center reaches the path
    obstacle = Obstacle(OrientedRectangle(Pose2D(8.0, -speed * arrival, math.pi / 2),
                                          half_length, 0.4), (0.0, speed))
    return Scenario(name="crossing", corridor=[], path=np.array([[0.0, 0.0], [30.0, 0.0]]),
                    ref_speed=ref_speed, obstacles=[obstacle],
                    initial_state=RobotState(0.0, 0.0, 0.0, ref_speed, ref_speed),
                    duration=(8.0 + 6.0) / ref_speed, controller_variant=variant)


def speed_gap(rng, fast, variant):
    """A start whose wheel speeds are apart by more than the slip band on a
    straight path, a wheel above 1.48 m/s if `fast`, with the ranges of the
    module docstring."""
    heading, length = uniform(rng, -math.pi, math.pi), uniform(rng, 10.0, 20.0)
    along = np.array([math.cos(heading), math.sin(heading)])
    across = np.array([-math.sin(heading), math.cos(heading)])
    x, y = (uniform(rng, 0.0, 2.0) * along + uniform(rng, -0.5, 0.5) * across).tolist()
    # the faster wheel's speed, and the gap down to the other wheel
    low, high = ([1.5, 0.15], [1.8, 0.6]) if fast else ([0.6, 0.15], [1.3, 0.6])
    top, gap = uniform(rng, low, high)
    speeds = [top, top - gap] if rng.random() < 0.5 else [top - gap, top]
    start = RobotState(x, y, heading + uniform(rng, -0.3, 0.3), *speeds)
    return Scenario(name="speed_gap", corridor=[],
                    path=np.array([[0.0, 0.0], (length * along).tolist()]),
                    ref_speed=uniform(rng, 0.3, 1.4), obstacles=[], initial_state=start,
                    duration=uniform(rng, 1.0, 3.0), controller_variant=variant)


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_seeded_run_keeps_the_invariants(tmp_path, index):
    # the variants take turns
    drawn = random_scenario(np.random.default_rng([SEED, index]), VARIANTS[index % 2])
    # the draw: the start's footprint clears every wall and obstacle
    assert start_clearance(drawn.initial_state, drawn.corridor, drawn.obstacles) > 0.0
    keeps_the_invariants(tmp_path, drawn)


@pytest.mark.parametrize("index", range(DOUBLE_BACKS))
def test_double_back_keeps_the_invariants(tmp_path, index):
    rng = np.random.default_rng([SEED, 1, index])
    drawn = double_back(uniform(rng, -3.0, 3.0), duration=uniform(rng, 2.0, 6.0))
    keeps_the_invariants(tmp_path, replace(drawn, controller_variant=VARIANTS[index % 2]))


@pytest.mark.parametrize("index", range(WALL_STARTS))
def test_wall_start_keeps_the_invariants(tmp_path, index):
    drawn = wall_start(np.random.default_rng([SEED, 2, index]), VARIANTS[index % 2])
    # the draw: the start's footprint overlaps the wall by 5-50 cm
    contact = closest_pair(DEFAULT_GEOMETRY.footprint(drawn.initial_state), drawn.corridor[0])
    assert contact.distance == 0.0 and 0.05 <= math.hypot(contact.gap_x, contact.gap_y) <= 0.5
    keeps_the_invariants(tmp_path, drawn)


@pytest.mark.parametrize("index", range(CROSSINGS))
def test_crossing_keeps_the_invariants(tmp_path, index):
    keeps_the_invariants(tmp_path, crossing(np.random.default_rng([SEED, 3, index]),
                                            VARIANTS[index % 2]))


@pytest.mark.parametrize("index", range(SPEED_GAPS))
def test_speed_gap_keeps_the_invariants(tmp_path, index):
    fast = index % 2 == 1
    drawn = speed_gap(np.random.default_rng([SEED, 4, index]), fast, VARIANTS[index // 2 % 2])
    # the draw: the wheels apart by more than the slip band, one above 1.48 m/s if fast
    speeds = drawn.initial_state.v_front, drawn.initial_state.v_rear
    assert abs(speeds[0] - speeds[1]) > SLIP_BAND and (max(speeds) > 1.48) == fast
    keeps_the_invariants(tmp_path, drawn)


def keeps_the_invariants(tmp_path, drawn):
    # what a file holds: the scenario that `validate` accepts is the one run
    save_scenario(drawn, tmp_path / "seeded.yaml")
    scenario = load_scenario(tmp_path / "seeded.yaml")
    assert scenario == drawn
    log = run(scenario)
    assert log.outcome in OUTCOMES
    if log.outcome != NUMERICAL_FAILURE:
        for r in log.records:
            numbers = (r.t, *r.state.as_array(), *r.applied.as_array(), r.slip_measure,
                       r.objective, r.solver_iterations)
            assert all(map(math.isfinite, numbers))
            # without obstacles there is no clearance to measure: inf
            assert math.isfinite(r.min_clearance) == bool(scenario.obstacles)
    for r in log.records:
        assert np.all(np.abs(r.applied.as_array()) <= MpcConfig.u_max)
    log.to_csv(tmp_path / "first.csv")
    run(scenario).to_csv(tmp_path / "again.csv")
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()
