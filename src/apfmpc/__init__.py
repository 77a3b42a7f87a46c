"""Integrated MPC + potential-field local planner/tracker with a
closed-loop corridor simulator for a two-wheel independent
drive/steer robot."""

from .geometry import ClosestPair, OrientedRectangle, Pose2D, closest_pair, corners
from .kinematics import ControlInput, RobotGeometry, RobotState, euler_step
from .linearization import AugmentedModel, LinearizedModel, augment, linearize
from .mpc import MpcConfig, MpcController, MpcSolution, ReferenceHorizon, build_reference
from .potential_field import ApfParams, QuadraticApproximation, apf_value, psd_project, quadratic_approx
from .prediction import Obstacle, PredictionTrack, predict_obstacle, predict_robot
from .qp import QpProblem, QpSolution, QpSolver
from .simulator import Scenario, SimulationLog, load_scenario, metrics, run, save_scenario

__all__ = [
    "ApfParams", "AugmentedModel", "ClosestPair", "ControlInput", "LinearizedModel",
    "MpcConfig", "MpcController", "MpcSolution", "Obstacle", "OrientedRectangle",
    "Pose2D", "PredictionTrack", "QpProblem", "QpSolution", "QpSolver",
    "QuadraticApproximation", "ReferenceHorizon", "RobotGeometry", "RobotState",
    "Scenario", "SimulationLog", "apf_value", "augment",
    "build_reference", "closest_pair", "corners", "euler_step", "linearize",
    "load_scenario", "metrics", "predict_obstacle", "predict_robot", "psd_project",
    "quadratic_approx", "run", "save_scenario",
]
