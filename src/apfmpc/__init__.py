"""Integrated MPC + potential-field local planner/tracker with a
closed-loop corridor simulator for a two-wheel independent
drive/steer robot."""

from .geometry import ClosestPair, OrientedRectangle, Pose2D, closest_pair, corners
from .kinematics import (AugmentedModel, ControlInput, LinearizedModel, RobotGeometry,
                         RobotState, augment, euler_step, linearize, predict_robot)
from .mpc import (MpcConfig, MpcController, MpcSolution, ReferenceHorizon, build_reference,
                  path_table)
from .potential_field import QuadraticApproximation, quadratic_approx
from .prediction import Obstacle, predict_obstacle
from .qp import QpProblem, QpSolution, QpSolver
from .simulator import Scenario, SimulationLog, load_scenario, metrics, run, save_scenario

__all__ = [
    "AugmentedModel", "ClosestPair", "ControlInput", "LinearizedModel",
    "MpcConfig", "MpcController", "MpcSolution", "Obstacle", "OrientedRectangle",
    "Pose2D", "QpProblem", "QpSolution", "QpSolver",
    "QuadraticApproximation", "ReferenceHorizon", "RobotGeometry", "RobotState",
    "Scenario", "SimulationLog", "augment",
    "build_reference", "closest_pair", "corners", "euler_step", "linearize",
    "load_scenario", "metrics", "path_table", "predict_obstacle", "predict_robot",
    "quadratic_approx", "run", "save_scenario",
]
