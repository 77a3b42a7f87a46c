import math
from dataclasses import replace

import numpy as np
import pytest

from apfmpc.geometry import corners
from apfmpc.kinematics import ControlInput, RobotGeometry, RobotState, euler_step
from apfmpc.mpc import MpcConfig, _Carry
from apfmpc.potential_field import quadratic_approx
from apfmpc.qp import QpProblem, row_scales
from apfmpc.simulator import Scenario, load_scenario, packaged_scenario_path, run


def expand_row(gap, params, distance=None):
    """The field's expansion of one closest-point row as a one-row stack:
    its value, gradient (2,) and Hessian (2, 2). params is (scale_a,
    exponent_b); without a distance the row is a separation of |gap|."""
    gap = np.array([gap], dtype=float)
    distance = (np.hypot(gap[:, 0], gap[:, 1]) if distance is None
                else np.array([distance], dtype=float))
    value, gradient, hessian = quadratic_approx(gap, distance,
                                                np.array(params, dtype=float)[:, None])
    return value[0], gradient[0], hessian[0]


@pytest.fixture(scope="session")
def geom():
    return RobotGeometry(l_front=1.2, l_rear=1.2, half_length=1.3, half_width=0.5)


@pytest.fixture(scope="session")
def cfg():
    return MpcConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _project_extent(pts, ax, ay):
    vals = [px * ax + py * ay for px, py in pts]
    return min(vals), max(vals)


def sat_intersect(a, b):
    """Reference separating-axis test in world coordinates; the axes are two
    adjacent edge vectors of each rectangle (or frame). Touching counts as
    overlapping."""
    pa, pb = corners(a), corners(b)
    for pts in (pa, pb):
        for (x1, y1), (x2, y2) in zip(pts[:2], pts[1:3]):
            lo_a, hi_a = _project_extent(pa, x2 - x1, y2 - y1)
            lo_b, hi_b = _project_extent(pb, x2 - x1, y2 - y1)
            if hi_a < lo_b or hi_b < lo_a:
                return False
    return True


def axis_overlaps(a, b):
    """Brute force over the four separating axes in world coordinates, A's
    two edge directions then B's, each a unit vector pointing from A's
    center to B's: (overlap, axis x, axis y) per axis, the overlap being how
    far A's corner projections reach past B's lowest, the translation that
    parts them along the axis."""
    pa, pb = corners(a), corners(b)
    out = []
    for pts in (pa, pb):
        for (x1, y1), (x2, y2) in zip(pts[:2], pts[1:3]):
            length = math.hypot(x2 - x1, y2 - y1)
            ux, uy = (x2 - x1) / length, (y2 - y1) / length
            if (b.center.x - a.center.x) * ux + (b.center.y - a.center.y) * uy < 0.0:
                ux, uy = -ux, -uy
            out.append((_project_extent(pa, ux, uy)[1] - _project_extent(pb, ux, uy)[0],
                        ux, uy))
    return out


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
