"""The per-tick path calls numpy's C layer directly and shares read-only
per-run constants.

Ufuncs, ufunc reductions, ndarray methods and `numpy.linalg` are allowed on
a tick; the Python-level convenience wrappers (`np.clip`, `np.eye`,
`np.vstack`, `np.diff`, ...) are not. The wrappers' modules are matched by
stem, so numpy 1.x and 2.x both count.
"""

import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from apfmpc.geometry import OrientedRectangle, Pose2D
from apfmpc.kinematics import (EYE_AUGMENTED, EYE_INPUT, EYE_STATE, ControlInput, RobotState,
                               euler_step)
from apfmpc.mpc import VARIANTS, MpcController, build_reference, path_table
from apfmpc.prediction import Obstacle
from apfmpc.simulator import load_scenario, packaged_scenario_path, run
from conftest import cold

WRAPPER_MODULES = {"fromnumeric", "shape_base", "_shape_base_impl", "function_base",
                   "_function_base_impl", "twodim_base", "_twodim_base_impl",
                   "stride_tricks", "_stride_tricks_impl", "numeric"}

PATH = path_table(np.array([[0.0, 0.0], [20.0, 0.0], [30.0, 8.0]]))
STATE = RobotState(0.0, 0.0, 0.0, 1.0, 1.0)
HEAD_ON = Obstacle(OrientedRectangle(Pose2D(3.0, 0.6, 0.0), 0.75, 0.4))
SCENES = {
    "open": [],
    "obstacle_and_wall": [
        HEAD_ON,
        Obstacle(OrientedRectangle(Pose2D(6.0, -1.0, 0.2), 0.5, 0.4), (-0.3, 0.1), 0.2),
        Obstacle(OrientedRectangle(Pose2D(10.0, -3.1, 0.0), 12.0, 0.1), kind="boundary"),
    ],
}


def _module(frame) -> str:
    return frame.f_globals.get("__name__", "")


def wrapper_calls(fn):
    """Python-level calls that code outside numpy makes into a wrapper
    module while fn runs, as 'module.function' strings."""
    calls = []

    def profile(frame, event, arg):
        if event != "call":
            return
        name, caller = _module(frame), _module(frame.f_back) if frame.f_back else ""
        if (name.startswith("numpy.") and name.rsplit(".", 1)[-1] in WRAPPER_MODULES
                and not caller.startswith("numpy")):
            calls.append(f"{name}.{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_tick_makes_no_wrapper_calls(cfg, geom, variant, scene):
    obstacles = SCENES[scene]
    c = MpcController(cfg, geom, variant=variant)
    states = [STATE]

    def tick():
        ref = build_reference(PATH, states[-1], 1.389, cfg)
        sol = c.step(states[-1], ref, obstacles)
        states.append(euler_step(states[-1], sol.applied_input, geom, cfg.dt, substeps=10))

    # the first tick repairs the empty set, the second starts from its answer's set
    assert wrapper_calls(tick) == []
    assert c._carry.active is not None
    assert wrapper_calls(tick) == []


def constructions(fn, cls) -> int:
    """How many times fn's run calls cls's own __init__."""
    init, count = cls.__init__.__code__, 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is init

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_warm_step_builds_no_rectangle(cfg, geom):
    # the field's queries read frames: a moving obstacle's predicted rows
    # and the robot's rows become no Pose2D and no OrientedRectangle
    obstacles = SCENES["obstacle_and_wall"]
    assert any(obs.velocity != (0.0, 0.0) for obs in obstacles)
    assert any(obs.kind == "boundary" for obs in obstacles)
    c = MpcController(cfg, geom, variant="full")
    ref = build_reference(PATH, STATE, 1.389, cfg)
    c.step(STATE, ref, obstacles)
    for cls in (Pose2D, OrientedRectangle):
        assert constructions(lambda: c.step(STATE, ref, obstacles), cls) == 0, cls.__name__
        assert constructions(lambda: OrientedRectangle(Pose2D(0.0, 0.0, 0.0), 1.0, 1.0),
                             cls) == 1


def test_run_builds_no_robot_rectangle():
    # the robot's footprint is a frame on every tick: with obstacles that
    # hold still a run builds no Pose2D and no OrientedRectangle, and with
    # one that moves it builds one of each per step of that obstacle
    scenario = replace(load_scenario(packaged_scenario_path("straight_corridor")), duration=2.0)
    assert scenario.obstacles and not any(obs.moves for obs in scenario.obstacles)
    for cls in (Pose2D, OrientedRectangle):
        assert constructions(lambda: run(scenario), cls) == 0, cls.__name__
    moving = replace(load_scenario(packaged_scenario_path("orthogonal_corridor")), duration=2.0)
    movers = sum(obs.moves for obs in moving.obstacles)
    assert movers == 1
    ticks = len(run(moving).records)
    for cls in (Pose2D, OrientedRectangle):
        assert constructions(lambda: run(moving), cls) == ticks * movers, cls.__name__


def test_wrapper_calls_are_seen():
    calls = wrapper_calls(lambda: (np.clip(np.ones(3), 0.0, 0.5), np.eye(2),
                                   np.vstack([np.ones(2)])))
    assert any(c.endswith(".clip") for c in calls)
    assert any(c.endswith(".eye") for c in calls)
    assert any(c.endswith(".vstack") for c in calls)


def test_shared_constants_are_read_only(cfg, geom):
    for variant in VARIANTS:
        c = MpcController(cfg, geom, variant=variant)
        shared = {name: value for name, value in vars(c).items()
                  if isinstance(value, np.ndarray)}
        assert shared
        for name, value in shared.items():
            assert not value.flags.writeable, name
    for eye in (EYE_STATE, EYE_INPUT, EYE_AUGMENTED):
        assert not eye.flags.writeable
        assert np.array_equal(eye, np.eye(len(eye)))


def _bits(asm, sol):
    """Every array and number of an assembly and its solution, for exact
    comparison."""
    parts = [getattr(asm.qp, f.name) for f in fields(asm.qp)]
    parts += [asm.su, asm.base, sol.z, sol.active,
              sol.iterations, sol.primal_residual]
    if asm.apf is not None:
        parts += [asm.apf.constant, asm.apf.gradient, asm.apf.hessian_psd, asm.apf.anchor]
    return [np.asarray(p).tobytes() for p in parts]


@pytest.mark.parametrize("variant", VARIANTS)
def test_back_to_back_calls_match_fresh_objects(cfg, geom, variant):
    inputs = [(STATE, ControlInput(0.0, 0.0, 0.0, 0.0)),
              (RobotState(0.4, -0.2, 0.1, 0.8, 0.9), ControlInput(0.3, -0.2, 0.1, -0.05))]
    obstacles = SCENES["obstacle_and_wall"]
    c = MpcController(cfg, geom, variant=variant)
    for state, u0 in inputs:
        ref = build_reference(PATH, state, 1.389, cfg)
        carry = cold(u0)
        asm = c.assemble(state, carry, ref, obstacles)
        again = _bits(asm, c.solver.solve(asm.qp))
        fresh = MpcController(cfg, geom, variant=variant)
        asm = fresh.assemble(state, carry, ref, obstacles)
        assert again == _bits(asm, fresh.solver.solve(asm.qp))
