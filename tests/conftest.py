import math
from dataclasses import replace

import numpy as np
import pytest

from apfmpc.kinematics import ControlInput, RobotGeometry, RobotState, euler_step
from apfmpc.mpc import MpcConfig, _Carry
from apfmpc.qp import QpProblem, row_scales
from apfmpc.simulator import Scenario, load_scenario, packaged_scenario_path, run


@pytest.fixture(scope="session")
def geom():
    return RobotGeometry(l_front=1.2, l_rear=1.2, half_length=1.3, half_width=0.5)


@pytest.fixture(scope="session")
def cfg():
    return MpcConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def cold(u0):
    """The record a controller starts from, at input u0: no active set and
    no plan. A test sets it as a controller's `_carry` to start there."""
    return _Carry(u0, None)


def double_back(heading, duration=1.0):
    """Path (0, 0) -> 2 (cos h, sin h) -> (0, 0), the robot on the first leg
    at heading h: the horizon holds an exact half turn."""
    c, s = math.cos(heading), math.sin(heading)
    return Scenario(name="double_back", corridor=[],
                    path=np.array([[0.0, 0.0], [2.0 * c, 2.0 * s], [0.0, 0.0]]),
                    ref_speed=1.0, obstacles=[],
                    initial_state=RobotState(0.5 * c, 0.5 * s, heading, 0.5, 0.5),
                    duration=duration)


# 0.89 on a 601-point grid over [-3, 3]: the half turn's summed heading
# there steps just past pi in floating point
DOUBLE_BACK_HEADING = 0.8900000000000001


def nan_at_step(monkeypatch, n):
    """Make the simulator's n-th plant step return a state with x = NaN."""
    import apfmpc.simulator
    steps = []

    def step(state, *args, **kwargs):
        steps.append(state)
        out = euler_step(state, *args, **kwargs)
        return replace(out, x=math.nan) if len(steps) == n else out

    monkeypatch.setattr(apfmpc.simulator, "euler_step", step)


def inf_heading_at_step(monkeypatch, n):
    """Make the simulator's n-th plant step integrate wheel speeds of 1.7e308
    at full opposite steering for 2 s: the heading overflows to infinity."""
    import apfmpc.simulator
    steps = []

    def step(state, inp, geom, dt, **kwargs):
        steps.append(state)
        if len(steps) == n:
            state = replace(state, v_front=1.7e308, v_rear=1.7e308)
            inp, dt = ControlInput(0.0, 0.0, 1.5, -1.5), 2.0
        return euler_step(state, inp, geom, dt, **kwargs)

    monkeypatch.setattr(apfmpc.simulator, "euler_step", step)


def nan_at_solve(monkeypatch, n):
    """Make the n-th QpSolver.solve return a solution whose z is all NaN."""
    from apfmpc.qp import QpSolver
    solve, calls = QpSolver.solve, []

    def nan_solve(self, *args, **kwargs):
        calls.append(None)
        out = solve(self, *args, **kwargs)
        return replace(out, z=np.full_like(out.z, math.nan)) if len(calls) == n else out

    monkeypatch.setattr(QpSolver, "solve", nan_solve)


def objective(problem, z):
    """The cost 1/2 z'Hz + f'z of a QP at z."""
    return float(0.5 * z @ problem.h_mat @ z + problem.f_vec @ z)


def normalized(problem):
    """The same QP with each constraint row and its bounds divided by the
    row's largest |entry|, the form `QpSolver.solve` reads, for arbitrary
    rows. The minimizer does not move, and a row with one unit entry, such
    as a simple bound, keeps its bits."""
    scale = row_scales(problem.a_mat)
    return QpProblem(problem.h_mat, problem.f_vec, scale[:, None] * problem.a_mat,
                     scale * problem.lower, scale * problem.upper)


def _cached_run(name):
    scn = load_scenario(packaged_scenario_path(name))
    return scn, run(scn)


@pytest.fixture(scope="session")
def straight_run():
    return _cached_run("straight_corridor")


@pytest.fixture(scope="session")
def orthogonal_run():
    return _cached_run("orthogonal_corridor")


@pytest.fixture(scope="session")
def ablation_runs():
    scn = load_scenario(packaged_scenario_path("ablation"))
    return scn, run(scn), run(replace(scn, controller_variant="no_customization"))
