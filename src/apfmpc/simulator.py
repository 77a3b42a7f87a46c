"""Closed-loop scenario execution and logging.

Runs the controller against the nonlinear plant at the control period,
moves dynamic obstacles, checks collisions, and records per-tick data for
metric extraction and CSV export. The reference path is validated when a
scenario is made and stated once per run as a path table, which every
tick's reference reads; `metrics` builds its own table to measure the
tracking error. Scenario files are YAML documents that round-trip
losslessly through load/save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .geometry import OrientedRectangle, Pose2D, closest_pair
from .kinematics import ControlInput, RobotGeometry, RobotState, euler_step
from .mpc import (VARIANTS, MpcConfig, MpcController, build_reference, path_table,
                  project_onto_path)
from .prediction import Obstacle, advance_obstacle

CSV_HEADER = ("t,x,y,theta,v_f,v_r,a_f,a_r,delta_f,delta_r,"
              "slip_measure,min_clearance,objective,solver_iterations")

COMPLETED = "completed"
COLLIDED = "collided"
SOLVER_FAILED = "solver_failed"
NUMERICAL_FAILURE = "numerical_failure"  # the state or the QP solution went non-finite

DEFAULT_GEOMETRY = RobotGeometry(l_front=1.2, l_rear=1.2,
                                 half_length=1.3, half_width=0.5)
PLANT_SUBSTEPS = 10  # Euler substeps of the plant per control tick


def _rect_numbers(rect: OrientedRectangle) -> list[float]:
    c = rect.center
    return [c.x, c.y, c.heading, rect.half_length, rect.half_width]


def tick_count(duration: float, dt: float) -> int:
    """Control ticks in a run of the given duration."""
    return int(round(duration / dt))


@dataclass(frozen=True)
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
        s = self.initial_state
        numbers = [self.ref_speed, self.duration,
                   s.x, s.y, s.heading, s.v_front, s.v_rear]
        for rect in self.corridor:
            numbers += _rect_numbers(rect)
        for obs in self.obstacles:
            if obs.kind != "obstacle":  # a file has no kinds, so it would not round-trip
                raise ValueError("walls belong in corridor, not in obstacles")
            numbers += [*_rect_numbers(obs.footprint), *obs.velocity, obs.yaw_rate]
        path = np.asarray(self.path, dtype=float)
        if not (all(map(math.isfinite, numbers)) and np.isfinite(path).all()):
            raise ValueError("scenario numbers must all be finite")
        if self.ref_speed < 0.0:
            raise ValueError("ref_speed must not be negative")
        if tick_count(self.duration, MpcConfig.dt) < 1:
            raise ValueError(f"duration must cover one control tick ({MpcConfig.dt} s)")
        path_table(self.path)  # the one path rule; run builds its table the same way
        if self.controller_variant not in VARIANTS:
            raise ValueError(f"unknown controller variant: {self.controller_variant!r}")


@dataclass(frozen=True)
class TickRecord:
    t: float
    state: RobotState
    applied: ControlInput
    slip_measure: float
    min_clearance: float
    objective: float
    solver_iterations: int
    apf_cost: float = 0.0
    tracking_cost: float = 0.0
    effort_cost: float = 0.0


@dataclass
class SimulationLog:
    scenario_name: str
    dt: float
    records: list[TickRecord] = field(default_factory=list)
    outcome: str = COMPLETED

    def to_csv(self, path) -> None:
        write_csv(path, CSV_HEADER, [
            (r.t, r.state.x, r.state.y, r.state.heading, r.state.v_front, r.state.v_rear,
             r.applied.accel_front, r.applied.accel_rear, r.applied.steer_front,
             r.applied.steer_rear, r.slip_measure, r.min_clearance, r.objective,
             r.solver_iterations)
            for r in self.records])


def write_csv(path, header: str, rows) -> None:
    """The header line, then one line per row of numbers, each printed with
    12 significant digits (an integer up to 12 digits as plain digits)."""
    lines = [header] + [",".join(f"{v:.12g}" for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def slip_measure(v_front: float, v_rear: float,
                 steer_front: float, steer_rear: float) -> float:
    """Front/rear longitudinal speed mismatch under rigid-body motion."""
    return abs(v_front * math.cos(steer_front) - v_rear * math.cos(steer_rear))


def _min_clearance(state: RobotState, geom: RobotGeometry,
                   obstacles: list[Obstacle]) -> float:
    rect = geom.footprint(state)
    dists = [closest_pair(rect, obs.footprint).distance for obs in obstacles]
    return min(dists) if dists else math.inf


def run(scenario: Scenario) -> SimulationLog:
    """Alternate controller ticks and plant integration for the duration,
    with the default controller settings and robot geometry."""
    cfg, geom = MpcConfig(), DEFAULT_GEOMETRY
    controller = MpcController(cfg, geom, variant=scenario.controller_variant)
    boundaries = [Obstacle(rect, kind="boundary") for rect in scenario.corridor]
    obstacles, table = list(scenario.obstacles), path_table(scenario.path)
    state = scenario.initial_state
    log = SimulationLog(scenario.name, cfg.dt)
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
        except FloatingPointError:  # a non-finite QP solution
            log.outcome = NUMERICAL_FAILURE
            break
        u = sol.applied_input
        slip = slip_measure(state.v_front + cfg.dt * u.accel_front,
                            state.v_rear + cfg.dt * u.accel_rear,
                            u.steer_front, u.steer_rear)
        log.records.append(TickRecord(
            t=tick * cfg.dt, state=state, applied=u, slip_measure=slip,
            min_clearance=clearance, objective=sol.objective,
            solver_iterations=sol.iterations, apf_cost=sol.apf_cost,
            tracking_cost=sol.tracking_cost, effort_cost=sol.effort_cost))
        if sol.solver_status == "infeasible":
            log.outcome = SOLVER_FAILED
            break
        state = euler_step(state, u, geom, cfg.dt, substeps=PLANT_SUBSTEPS)
        obstacles = [advance_obstacle(o, cfg.dt) for o in obstacles]
    return log


def with_variant(scenario: Scenario, variant: str) -> Scenario:
    """Copy of the scenario driven by the requested controller variant."""
    return replace(scenario, controller_variant=variant)


def metrics(log: SimulationLog, path: np.ndarray | None = None) -> dict:
    """Scalar summary of a run."""
    if not log.records:
        raise ValueError("empty log")
    clear = [r.min_clearance for r in log.records]
    slips = [r.slip_measure for r in log.records]
    headings = np.array([r.state.heading for r in log.records])
    dth = np.abs(np.arctan2(np.sin(np.diff(headings)), np.cos(np.diff(headings))))
    max_rate = float(np.max(dth) / log.dt) if len(dth) else 0.0
    out = {
        "min_clearance": min(clear),
        "max_slip_measure": max(slips),
        "max_heading_rate": max_rate,
    }
    if path is not None:
        errs, _ = project_onto_path([(r.state.x, r.state.y) for r in log.records],
                                    path_table(path))
        out["rms_tracking_error"] = float(np.sqrt(np.mean(np.square(errs))))
    return out


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
        "path": [[float(px), float(py)] for px, py in np.asarray(scenario.path)],
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


def scenario_from_dict(data: dict) -> Scenario:
    try:
        init = data["initial_state"]
        obstacles = [Obstacle(_rect_from_dict(o),
                              (float(o.get("velocity", [0, 0])[0]),
                               float(o.get("velocity", [0, 0])[1])),
                              float(o.get("yaw_rate", 0.0)), "obstacle")
                     for o in data.get("obstacles", [])]
        return Scenario(
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
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"invalid scenario: missing or malformed key {exc}") from exc


def packaged_scenario_path(name: str) -> Path:
    """Path to one of the scenario files shipped with the package."""
    from importlib.resources import files
    path = Path(str(files("apfmpc").joinpath("scenarios", f"{name}.yaml")))
    if not path.exists():
        raise FileNotFoundError(f"no packaged scenario named {name!r}")
    return path


def load_scenario(path) -> Scenario:
    """Scenario from a YAML file; FileNotFoundError if there is none there,
    ValueError if it is a directory, not YAML or not a valid scenario."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except (IsADirectoryError, yaml.YAMLError) as exc:
        raise ValueError(f"invalid scenario file: {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"invalid scenario file: {path}")
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=True)
