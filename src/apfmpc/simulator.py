"""Closed-loop scenario execution and logging.

Runs the controller against the nonlinear plant at the control period,
moves dynamic obstacles, checks collisions, and records per-tick data for
metric extraction and CSV export. Scenario files are YAML documents that
round-trip losslessly through load/save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .geometry import OrientedRectangle, Pose2D, closest_pair
from .kinematics import ControlInput, RobotGeometry, RobotState, euler_step
from .mpc import (VARIANTS, MpcConfig, MpcController, build_reference,
                  path_segments, project_onto_path)
from .prediction import Obstacle, advance_obstacle

CSV_HEADER = ("t,x,y,theta,v_f,v_r,a_f,a_r,delta_f,delta_r,"
              "slip_measure,min_clearance,objective,solver_iterations")

COMPLETED = "completed"
COLLIDED = "collided"
SOLVER_FAILED = "solver_failed"

DEFAULT_GEOMETRY = RobotGeometry(l_front=1.2, l_rear=1.2,
                                 half_length=1.3, half_width=0.5)


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
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        path_segments(self.path)  # raises on a path that build_reference rejects
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
        lines = [CSV_HEADER]
        for r in self.records:
            s, u = r.state, r.applied
            vals = (r.t, s.x, s.y, s.heading, s.v_front, s.v_rear,
                    u.accel_front, u.accel_rear, u.steer_front, u.steer_rear,
                    r.slip_measure, r.min_clearance, r.objective)
            lines.append(",".join(f"{v:.12g}" for v in vals)
                         + f",{r.solver_iterations}")
        Path(path).write_text("\n".join(lines) + "\n")


def slip_measure(v_front: float, v_rear: float,
                 steer_front: float, steer_rear: float) -> float:
    """Front/rear longitudinal speed mismatch under rigid-body motion."""
    return abs(v_front * math.cos(steer_front) - v_rear * math.cos(steer_rear))


def _min_clearance(state: RobotState, geom: RobotGeometry,
                   obstacles: list[Obstacle]) -> float:
    rect = geom.footprint(state)
    dists = [closest_pair(rect, obs.footprint).distance
             for obs in obstacles if obs.kind == "obstacle"]
    return min(dists) if dists else math.inf


def run(scenario: Scenario, cfg: MpcConfig | None = None,
        geom: RobotGeometry | None = None, plant_substeps: int = 10) -> SimulationLog:
    """Alternate controller ticks and plant integration for the duration."""
    cfg = cfg or MpcConfig()
    geom = geom or DEFAULT_GEOMETRY
    controller = MpcController(cfg, geom, variant=scenario.controller_variant)
    boundaries = [Obstacle(rect, kind="boundary") for rect in scenario.corridor]
    obstacles = list(scenario.obstacles)
    state = scenario.initial_state
    log = SimulationLog(scenario.name, cfg.dt)
    n_ticks = int(round(scenario.duration / cfg.dt))

    for tick in range(n_ticks):
        clearance = _min_clearance(state, geom, obstacles)
        if clearance == 0.0:
            log.outcome = COLLIDED
            break
        ref = build_reference(scenario.path, state, scenario.ref_speed, cfg)
        sol = controller.step(state, ref, obstacles + boundaries)
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
        state = euler_step(state, u, geom, cfg.dt, substeps=plant_substeps)
        obstacles = [advance_obstacle(o, cfg.dt) if o.kind == "obstacle" else o
                     for o in obstacles]
    return log


def with_variant(scenario: Scenario, variant: str) -> Scenario:
    """Copy of the scenario driven by the requested controller variant."""
    return Scenario(scenario.name, scenario.corridor, scenario.path,
                    scenario.ref_speed, scenario.obstacles,
                    scenario.initial_state, scenario.duration,
                    controller_variant=variant)


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
        "completion": log.outcome,
    }
    if path is not None:
        errs, _ = project_onto_path([(r.state.x, r.state.y) for r in log.records],
                                    path)
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
        obstacles = []
        for o in data.get("obstacles", []):
            obstacles.append(Obstacle(
                _rect_from_dict(o),
                (float(o.get("velocity", [0, 0])[0]),
                 float(o.get("velocity", [0, 0])[1])),
                float(o.get("yaw_rate", 0.0)), "obstacle"))
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
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"invalid scenario file: {path}")
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=True)
