import numpy as np
import pytest

from apfmpc.kinematics import RobotGeometry
from apfmpc.mpc import MpcConfig
from apfmpc.simulator import load_scenario, packaged_scenario_path, run


@pytest.fixture(scope="session")
def geom():
    return RobotGeometry(l_front=1.2, l_rear=1.2, half_length=1.3, half_width=0.5)


@pytest.fixture(scope="session")
def cfg():
    return MpcConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


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
    from apfmpc.simulator import with_variant
    scn = load_scenario(packaged_scenario_path("ablation"))
    return scn, run(scn), run(with_variant(scn, "no_customization"))
