"""End-to-end acceptance checks.

Each test covers one headline requirement and prints a single PASS line
when it holds (run with -s or check captured output). Tolerances are part
of the contract and intentionally explicit.
"""

import math
import time
from dataclasses import replace

import numpy as np

from apfmpc.geometry import OrientedRectangle, Pose2D, closest_pair
from apfmpc.kinematics import RobotState, euler_step, linearize
from apfmpc.mpc import MpcController, build_reference, path_table
from apfmpc.qp import QpSolver
from apfmpc.simulator import COMPLETED, DEFAULT_GEOMETRY, Scenario, metrics, run

from test_geometry import oracle_distance, random_rect, sat_intersect
from test_linearization import finite_difference_jacobians, random_operating_point
from test_potential_field import OBS, fd_gradient, psd_project
from test_qp import projected_gradient_oracle, random_box_qp
from conftest import expand_row, objective


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def unobstructed_scenario():
    walls = [
        OrientedRectangle(Pose2D(15.0, 3.1, 0.0), 17.0, 0.1),
        OrientedRectangle(Pose2D(15.0, -3.1, 0.0), 17.0, 0.1),
    ]
    return Scenario(name="unobstructed", corridor=walls,
                    path=np.array([[0.0, 0.0], [30.0, 0.0]]),
                    ref_speed=1.389, obstacles=[],
                    initial_state=RobotState(0.5, 0.0, 0.0, 0.4, 0.4),
                    duration=25.0)


def test_criterion_1_jacobians(geom):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    exact_worst = 0.0
    for _ in range(1000):
        s, u = random_operating_point(rng)
        lin = linearize(s, u, geom, 0.1)
        a_fd, b_fd = finite_difference_jacobians(s, u, geom, 0.1)
        worst = max(worst, float(np.max(np.abs(a_fd - lin.a_mat))),
                    float(np.max(np.abs(b_fd - lin.b_mat))))
        pred = lin.a_mat @ s.as_array() + lin.b_mat @ u.as_array() + lin.d_vec
        exact_worst = max(exact_worst, float(np.max(np.abs(
            pred - euler_step(s, u, geom, 0.1).as_array()))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5
    assert exact_worst <= 1e-12
    assert elapsed < 5.0
    _report(1, "jacobians vs finite differences")


def test_criterion_2_geometry_oracle():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        a, b = random_rect(rng), random_rect(rng)
        if sat_intersect(a, b):
            continue
        got = closest_pair(a, b).distance
        assert abs(got - oracle_distance(a, b, n=4000)) <= 1e-3
        assert closest_pair(b, a).distance == got
        checked += 1
    assert time.perf_counter() - start < 30.0
    _report(2, "closest-pair vs sampling oracle")


def test_criterion_3_potential_field():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 500:
        pos = tuple(rng.uniform(-4, 4, size=2))
        obst = tuple(rng.uniform(-4, 4, size=2))
        d = math.hypot(obst[0] - pos[0], obst[1] - pos[1])
        if d < 0.2:
            continue
        gradient = expand_row(np.subtract(obst, pos), OBS)[1]
        fd = fd_gradient(pos, (0.0, 0.0), obst, OBS)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(gradient - fd)) / scale <= 1e-4
        checked += 1
    got = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(got, np.full((2, 2), 0.5), atol=1e-14)
    for _ in range(100):
        m = rng.normal(size=(2, 2))
        h = 0.5 * (m + m.T)
        once = psd_project(h)
        assert np.max(np.abs(psd_project(once) - once)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(once)) >= -1e-10
    _report(3, "potential-field gradients and projection")


def test_criterion_4_qp_oracle():
    rng = np.random.default_rng(4)
    solver = QpSolver()
    for _ in range(100):
        prob = random_box_qp(rng, n=10)
        sol = solver.solve(prob)
        ref = projected_gradient_oracle(prob)
        assert objective(prob, sol.z) <= objective(prob, ref) + 1e-6
    # trivial analytic case: min (z0-1)^2 + 2(z1-2)^2, unconstrained
    from apfmpc.qp import QpProblem
    prob = QpProblem(np.diag([2.0, 4.0]), np.array([-2.0, -8.0]),
                     np.eye(2), np.full(2, -np.inf), np.full(2, np.inf))
    sol = solver.solve(prob)
    assert np.max(np.abs(sol.z - [1.0, 2.0])) <= 1e-8
    _report(4, "qp solver vs projected-gradient oracle")


def test_criterion_5_unobstructed_tracking(cfg):
    start = time.perf_counter()
    log = run(unobstructed_scenario())
    elapsed = time.perf_counter() - start
    assert log.outcome == COMPLETED
    # lateral error relative to the straight centerline y = 0
    rms_lateral = float(np.sqrt(np.mean([r.state.y ** 2 for r in log.records])))
    assert rms_lateral < 0.05
    # steady state: second half of the run before the terminal slowdown
    n = len(log.records)
    steady = [r.state for r in log.records[n // 2:]
              if r.state.x < 27.0]
    assert steady
    for s in steady:
        assert abs(s.v_front - 1.389) <= 0.05
        assert abs(s.v_rear - 1.389) <= 0.05
    u_max = np.array(cfg.u_max)
    for r in log.records:
        assert np.all(np.abs(r.applied.as_array()) <= u_max + 1e-9)
    assert elapsed < 20.0
    _report(5, "unobstructed tracking")


def test_criterion_6_straight_corridor(straight_run):
    scn, log = straight_run
    assert log.outcome == COMPLETED
    assert all(r.min_clearance > 0.0 for r in log.records)
    assert max(r.slip_measure for r in log.records) <= 0.12
    # back on the centerline after clearing the second obstacle
    tail = [r for r in log.records if r.state.x > 28.0]
    assert tail
    assert abs(tail[-1].state.y) < 0.1
    _report(6, "straight corridor with two static obstacles")


def test_criterion_7_orthogonal_corridor(orthogonal_run):
    scn, log = orthogonal_run
    assert log.outcome == COMPLETED
    assert all(r.min_clearance > 0.0 for r in log.records)
    assert max(r.slip_measure for r in log.records) <= 0.12
    headings = [r.state.heading for r in log.records]
    assert abs(headings[0]) < 0.05
    assert abs(headings[-1] - math.pi / 2) < 0.2
    _report(7, "orthogonal corridor with dynamic obstacle")


def test_criterion_8_ablation(ablation_runs):
    scn, full_log, bare_log = ablation_runs
    assert full_log.outcome == COMPLETED
    m_full, m_bare = metrics(full_log, scn.path), metrics(bare_log, scn.path)
    assert m_bare["min_clearance"] < m_full["min_clearance"]
    assert m_bare["max_heading_rate"] > m_full["max_heading_rate"]
    _report(8, "ablation strictly degrades clearance and smoothness")


def test_criterion_9_determinism(tmp_path, straight_run, orthogonal_run,
                                 ablation_runs):
    repeats = [
        ("straight", straight_run[1], run(straight_run[0])),
        ("orthogonal", orthogonal_run[1], run(orthogonal_run[0])),
        ("ablation_full", ablation_runs[1], run(ablation_runs[0])),
        ("ablation_bare", ablation_runs[2],
         run(replace(ablation_runs[0], controller_variant="no_customization"))),
    ]
    for name, first, second in repeats:
        p1, p2 = tmp_path / f"{name}_1.csv", tmp_path / f"{name}_2.csv"
        first.to_csv(p1)
        second.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes(), name
    _report(9, "byte-identical logs on repeat runs")


def test_criterion_10_tick_budget(cfg, geom):
    scn = unobstructed_scenario()
    from apfmpc.prediction import Obstacle
    boundaries = [Obstacle(r, kind="boundary") for r in scn.corridor]
    obstacles = [Obstacle(OrientedRectangle(Pose2D(14.0, 1.0, 1.0), 0.75, 0.4)),
                 Obstacle(OrientedRectangle(Pose2D(22.0, -1.0, 1.0), 0.75, 0.4))]
    controller = MpcController(cfg, DEFAULT_GEOMETRY)
    state, table = scn.initial_state, path_table(scn.path)
    times = []
    for _ in range(int(round(scn.duration / cfg.dt))):
        t0 = time.perf_counter()
        ref = build_reference(table, state, scn.ref_speed, cfg)
        sol = controller.step(state, ref, obstacles + boundaries)
        times.append(time.perf_counter() - t0)
        state = euler_step(state, sol.applied_input, DEFAULT_GEOMETRY,
                           cfg.dt, substeps=10)
    median = float(np.median(times))
    assert median < 0.1
    _report(10, f"median tick {median * 1e3:.1f} ms under 100 ms budget")
