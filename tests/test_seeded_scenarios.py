"""Seeded random scenarios and the invariants every closed-loop run keeps.

Each scenario has 0-2 walls and 0-2 obstacles, about half of them moving,
a path of 2-4 vertices, a start within 1 m of the first vertex at any
heading with wheel speeds of 0-1.6 m/s, and a duration of 1-3 s; the
controller variants take turns. A run must raise nothing, end in a
declared outcome, log only finite numbers (unless its outcome says the
numbers went non-finite), apply inputs within `MpcConfig.u_max`, and write
the same CSV bytes when run again. A scenario that breaks an invariant is
a failing test, never a reason to draw other scenarios.
"""

import math

import numpy as np
import pytest

from apfmpc.geometry import OrientedRectangle, Pose2D
from apfmpc.kinematics import RobotState
from apfmpc.mpc import VARIANTS, MpcConfig
from apfmpc.prediction import Obstacle
from apfmpc.simulator import (COLLIDED, COMPLETED, NUMERICAL_FAILURE, SOLVER_FAILED, Scenario,
                              load_scenario, run, save_scenario)

SEED, SCENARIOS = 2026, 24
OUTCOMES = (COMPLETED, COLLIDED, SOLVER_FAILED, NUMERICAL_FAILURE)


def random_scenario(rng, variant):
    """One scenario drawn from rng, with the ranges of the module docstring;
    its numbers are Python floats, as a file holds them."""
    def uniform(low, high, size=None):
        return np.array(rng.uniform(low, high, size)).tolist()

    headings = np.cumsum([uniform(-math.pi, math.pi)]
                         + uniform(-2.5, 2.5, rng.integers(0, 3))).tolist()
    steps = [(length * math.cos(h), length * math.sin(h))
             for h, length in zip(headings, uniform(2.0, 8.0, len(headings)))]
    path = np.cumsum([uniform(-5.0, 5.0, 2)] + steps, axis=0)
    walls = []
    for _ in range(rng.integers(0, 3)):  # beside a segment, along it
        k, side = rng.integers(0, len(steps)), uniform(1.5, 4.0) * float(rng.choice([-1, 1]))
        normal = np.array([-math.sin(headings[k]), math.cos(headings[k])])
        x, y = (path[k] + 0.5 * np.array(steps[k]) + side * normal).tolist()
        walls.append(OrientedRectangle(Pose2D(x, y, headings[k]), uniform(2.0, 8.0),
                                       uniform(0.1, 0.3)))
    obstacles = []
    for _ in range(rng.integers(0, 3)):  # near the path, about half of them moving
        k, along = rng.integers(0, len(steps)), uniform(0.5, 1.0)
        x, y = (path[k] + along * np.array(steps[k]) + uniform(-1.5, 1.5, 2)).tolist()
        footprint = OrientedRectangle(Pose2D(x, y, uniform(-math.pi, math.pi)),
                                      *uniform(0.3, 0.8, 2))
        if rng.random() < 0.5:
            obstacles.append(Obstacle(footprint, uniform(-1.0, 1.0, 2), uniform(-0.5, 0.5)))
        else:
            obstacles.append(Obstacle(footprint))
    bearing, reach = uniform(-math.pi, math.pi), uniform(0.0, 1.0)
    x, y = path[0].tolist()
    start = RobotState(x + reach * math.cos(bearing), y + reach * math.sin(bearing),
                       uniform(-math.pi, math.pi), *uniform(0.0, 1.6, 2))
    return Scenario(name="seeded", corridor=walls, path=path, ref_speed=uniform(0.3, 1.4),
                    obstacles=obstacles, initial_state=start, duration=uniform(1.0, 3.0),
                    controller_variant=variant)


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_seeded_run_keeps_the_invariants(tmp_path, index):
    # the variants take turns
    drawn = random_scenario(np.random.default_rng([SEED, index]), VARIANTS[index % 2])
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
