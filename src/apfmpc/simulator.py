"""Closed-loop scenario execution and logging.

Runs the controller against the nonlinear plant at the control period,
moves dynamic obstacles, checks collisions, and records per-tick data for
metric extraction and CSV export. A tick's slip measure is |g| of the
controller's `slip_terms` at the applied input, the front/rear speed
mismatch one step ahead. The reference path is validated when a scenario
is made, by building its path table once; every tick's reference in a run
of the scenario reads that table, and `metrics` builds its own to measure
the tracking error. Without obstacles a tick builds no footprint. Scenario
files are YAML documents that round-trip losslessly through load/save; a
file holds only entries that saving writes, and a scenario's numbers are
those of that file form, every one finite. A log's columns are named once,
in CSV_HEADER; a series of some of them is the log written with its own
header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path

import numpy as np
import yaml

from .geometry import OrientedRectangle, Pose2D, closest_pair
from .kinematics import ControlInput, RobotGeometry, RobotState, euler_step
from .mpc import (VARIANTS, MpcConfig, MpcController, build_reference, path_table,
                  project_onto_path, slip_terms)
from .prediction import Obstacle, advance_obstacle
from .qp import INFEASIBLE

CSV_HEADER = ("t,x,y,theta,v_f,v_r,a_f,a_r,delta_f,delta_r,"
              "slip_measure,min_clearance,objective,solver_iterations")
_COLUMNS = CSV_HEADER.split(",")  # the order of a log row's values

COMPLETED = "completed"
COLLIDED = "collided"
SOLVER_FAILED = "solver_failed"
NUMERICAL_FAILURE = "numerical_failure"  # the state or the QP solution went non-finite

DEFAULT_GEOMETRY = RobotGeometry(l_front=1.2, l_rear=1.2,
                                 half_length=1.3, half_width=0.5)
PLANT_SUBSTEPS = 10  # Euler substeps of the plant per control tick


def tick_count(duration: float, dt: float) -> int:
    """Control ticks in a run of the given duration; ValueError if there
    are too many to count."""
    ticks = duration / dt
    if not math.isfinite(ticks):
        raise ValueError(f"duration {duration} s is too long to count in ticks of {dt} s")
    return int(round(ticks))


@dataclass(frozen=True, eq=False)  # the __eq__ below; eq=True would add a field hash
class Scenario:
    name: str
    corridor: list[OrientedRectangle]
    path: np.ndarray
    ref_speed: float
    obstacles: list[Obstacle]
    initial_state: RobotState
    duration: float
    controller_variant: str = "full"

    def __post_init__(self):
        # the name comes from the file and names the run's output files
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ValueError(f"scenario name must be a plain file name: {self.name!r}")
        if any(obs.kind != "obstacle" for obs in self.obstacles):
            # a file has no kinds, so it would not round-trip
            raise ValueError("walls belong in corridor, not in obstacles")
        # a read-only copy: the path table below is built from it once
        path = np.array(self.path, dtype=float)
        path.flags.writeable = False
        object.__setattr__(self, "path", path)
        if not all(math.isfinite(value) for _, value in _entries(scenario_to_dict(self))
                   if isinstance(value, Real)):
            raise ValueError("scenario numbers must all be finite")
        if self.ref_speed < 0.0:
            raise ValueError("ref_speed must not be negative")
        if tick_count(self.duration, MpcConfig.dt) < 1:
            raise ValueError(f"duration must cover one control tick ({MpcConfig.dt} s)")
        # the one path rule; not a field, so equality and repr see the path
        # alone, and `run` reads this table
        object.__setattr__(self, "path_table", path_table(path))
        if self.controller_variant not in VARIANTS:
            raise ValueError(f"unknown controller variant: {self.controller_variant!r}")

    def __eq__(self, other):  # as a file states it, the path by its numbers
        return isinstance(other, Scenario) and scenario_to_dict(self) == scenario_to_dict(other)

    __hash__ = None  # its lists and path array are not hashable


@dataclass(frozen=True)
class TickRecord:
    t: float
    state: RobotState
    applied: ControlInput
    slip_measure: float  # |g| of the slip rows at the applied input
    min_clearance: float
    objective: float
    solver_iterations: int
    solver_status: str  # qp.OPTIMAL; on a held tick INFEASIBLE or MAX_ITERATIONS; not in the CSV


@dataclass
class SimulationLog:
    dt: float
    records: list[TickRecord] = field(default_factory=list)
    outcome: str = COMPLETED

    def to_csv(self, path, header: str = CSV_HEADER) -> None:
        """The header line, then one line per tick of the columns of
        CSV_HEADER that the header names, in its order (by default all of
        them), each number printed with 12 significant digits (an integer
        up to 12 digits as plain digits)."""
        picked = [_COLUMNS.index(name) for name in header.split(",")]
        rows = [(r.t, r.state.x, r.state.y, r.state.heading, r.state.v_front,
                 r.state.v_rear, r.applied.accel_front, r.applied.accel_rear,
                 r.applied.steer_front, r.applied.steer_rear, r.slip_measure,
                 r.min_clearance, r.objective, r.solver_iterations)
                for r in self.records]
        lines = [header] + [",".join(f"{row[i]:.12g}" for i in picked) for row in rows]
        Path(path).write_text("\n".join(lines) + "\n")


def _min_clearance(state: RobotState, geom: RobotGeometry,
                   obstacles: list[Obstacle]) -> float:
    if not obstacles:
        return math.inf
    rect = geom.footprint(state)
    return min([closest_pair(rect, obs.footprint).distance for obs in obstacles])


def run(scenario: Scenario) -> SimulationLog:
    """Alternate controller ticks and plant integration for the duration,
    with the default controller settings and robot geometry."""
    cfg, geom = MpcConfig(), DEFAULT_GEOMETRY
    controller = MpcController(cfg, geom, variant=scenario.controller_variant)
    boundaries = [Obstacle(rect, kind="boundary") for rect in scenario.corridor]
    obstacles, table = list(scenario.obstacles), scenario.path_table
    state = scenario.initial_state
    log = SimulationLog(cfg.dt)
    for tick in range(tick_count(scenario.duration, cfg.dt)):
        if not all(map(math.isfinite, (state.x, state.y, state.heading,
                                       state.v_front, state.v_rear))):
            log.outcome = NUMERICAL_FAILURE
            break
        clearance = _min_clearance(state, geom, obstacles)
        if clearance == 0.0:
            log.outcome = COLLIDED
            break
        ref = build_reference(table, state, scenario.ref_speed, cfg)
        try:
            sol = controller.step(state, ref, obstacles + boundaries)
        except FloatingPointError:  # a non-finite QP cost or solution
            log.outcome = NUMERICAL_FAILURE
            break
        u = sol.applied_input
        log.records.append(TickRecord(
            t=tick * cfg.dt, state=state, applied=u,
            slip_measure=abs(slip_terms(state, u, cfg)[-1]), min_clearance=clearance,
            objective=sol.objective, solver_iterations=sol.iterations,
            solver_status=sol.solver_status))
        if sol.solver_status == INFEASIBLE:
            log.outcome = SOLVER_FAILED
            break
        state = euler_step(state, u, geom, cfg.dt, substeps=PLANT_SUBSTEPS)
        obstacles = [advance_obstacle(o, cfg.dt) if o.moves else o for o in obstacles]
    return log


def metrics(log: SimulationLog, path: np.ndarray) -> dict:
    """Scalar summary of a run along its reference path."""
    if not log.records:
        raise ValueError("empty log")
    clear = [r.min_clearance for r in log.records]
    slips = [r.slip_measure for r in log.records]
    headings = np.array([r.state.heading for r in log.records])
    dth = np.abs(np.arctan2(np.sin(np.diff(headings)), np.cos(np.diff(headings))))
    max_rate = float(np.max(dth) / log.dt) if len(dth) else 0.0
    errs, _ = project_onto_path([(r.state.x, r.state.y) for r in log.records], path_table(path))
    return {
        "min_clearance": min(clear),
        "max_slip_measure": max(slips),
        "max_heading_rate": max_rate,
        "rms_tracking_error": float(np.sqrt(np.mean(np.square(errs)))),
    }


# -- scenario file I/O -------------------------------------------------------

def _rect_to_dict(rect: OrientedRectangle) -> dict:
    return {"center": [rect.center.x, rect.center.y],
            "heading": rect.center.heading,
            "half_length": rect.half_length,
            "half_width": rect.half_width}


def _rect_from_dict(d: dict) -> OrientedRectangle:
    return OrientedRectangle(Pose2D(float(d["center"][0]), float(d["center"][1]),
                                    float(d["heading"])),
                             float(d["half_length"]), float(d["half_width"]))


def scenario_to_dict(scenario: Scenario) -> dict:
    s = scenario.initial_state
    return {
        "scenario": {"name": scenario.name},
        "corridor": [_rect_to_dict(r) for r in scenario.corridor],
        "path": np.asarray(scenario.path, dtype=float).tolist(),
        "ref_speed_mps": scenario.ref_speed,
        "obstacles": [dict(_rect_to_dict(o.footprint),
                           velocity=[o.velocity[0], o.velocity[1]],
                           yaw_rate=o.yaw_rate)
                      for o in scenario.obstacles],
        "initial_state": {"x": s.x, "y": s.y, "heading": s.heading,
                          "v_front": s.v_front, "v_rear": s.v_rear},
        "duration_s": scenario.duration,
        "controller_variant": scenario.controller_variant,
    }


def _entries(tree, where: str = ""):
    """(dotted path, value) of every key and list index in a tree of dicts
    and lists, a parent before its children."""
    items = (tree.items() if isinstance(tree, dict) else
             enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield f"{where}{key}", value
        yield from _entries(value, f"{where}{key}.")


def scenario_from_dict(data: dict) -> Scenario:
    """A file's scenario; any entry that saving it would not write is an error."""
    try:
        init = data["initial_state"]
        obstacles = [Obstacle(_rect_from_dict(o), o.get("velocity", (0.0, 0.0)),
                              o.get("yaw_rate", 0.0)) for o in data.get("obstacles", [])]
        scenario = Scenario(
            name=str(data["scenario"]["name"]),
            corridor=[_rect_from_dict(r) for r in data.get("corridor", [])],
            path=np.asarray(data["path"], dtype=float),
            ref_speed=float(data["ref_speed_mps"]),
            obstacles=obstacles,
            initial_state=RobotState(float(init["x"]), float(init["y"]),
                                     float(init["heading"]),
                                     float(init["v_front"]), float(init["v_rear"])),
            duration=float(data["duration_s"]),
            controller_variant=str(data.get("controller_variant", "full")),
        )
        known = {path for path, _ in _entries(scenario_to_dict(scenario))}
        unexpected = sorted({path for path, _ in _entries(data)} - known)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"invalid scenario: missing or malformed key {exc}") from exc
    if unexpected:  # a key or list entry that saving would not write
        raise ValueError(f"invalid scenario: unexpected entry {unexpected[0]!r}")
    return scenario


def packaged_scenario_path(name: str) -> Path:
    """Path to one of the scenario files shipped with the package."""
    from importlib.resources import files
    path = Path(str(files("apfmpc").joinpath("scenarios", f"{name}.yaml")))
    if not path.exists():
        raise FileNotFoundError(f"no packaged scenario named {name!r}")
    return path


def load_scenario(path) -> Scenario:
    """Scenario from a YAML file; FileNotFoundError if there is none there,
    ValueError if it cannot be opened otherwise (a directory, a name too
    long), is not YAML or is not a valid scenario."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ValueError(f"cannot read scenario file: {path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"invalid scenario file: {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"invalid scenario file: {path}")
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=True)
