"""The per-tick path calls numpy's C layer directly and shares read-only
per-run constants.

Ufuncs, ufunc reductions, ndarray methods and `numpy.linalg` are allowed on
a tick; the Python-level convenience wrappers (`np.clip`, `np.eye`,
`np.vstack`, `np.diff`, ...) are not. The wrappers' modules are matched by
stem, so numpy 1.x and 2.x both count.
"""

import sys
from dataclasses import fields

import numpy as np
import pytest

from apfmpc import linearization
from apfmpc.geometry import OrientedRectangle, Pose2D
from apfmpc.kinematics import ControlInput, RobotState, euler_step
from apfmpc.mpc import VARIANTS, MpcController, build_reference, path_table
from apfmpc.prediction import Obstacle

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

    # the first tick runs the ADMM iteration, the second starts from its guess
    assert wrapper_calls(tick) == []
    assert c._active is not None
    assert wrapper_calls(tick) == []


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
                  if isinstance(value, np.ndarray) and name != "_warm"}
        assert shared
        for name, value in shared.items():
            assert not value.flags.writeable, name
    for eye in (linearization.EYE_STATE, linearization.EYE_INPUT,
                linearization.EYE_AUGMENTED):
        assert not eye.flags.writeable
        assert np.array_equal(eye, np.eye(len(eye)))


def _bits(asm, sol):
    """Every array and number of an assembly and its solution, for exact
    comparison."""
    parts = [getattr(asm.qp, f.name) for f in fields(asm.qp)]
    parts += [asm.su, asm.base, asm.ref_stack, asm.const, sol.z, sol.active,
              sol.iterations, sol.primal_residual, sol.dual_residual]
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
        asm = c.assemble(state, u0, ref, obstacles)
        again = _bits(asm, c.solver.solve(asm.qp))
        fresh = MpcController(cfg, geom, variant=variant)
        asm = fresh.assemble(state, u0, ref, obstacles)
        assert again == _bits(asm, fresh.solver.solve(asm.qp))
