import numpy as np
import pytest

from dcsf import Bounds, SystemParams, generate_scenario


@pytest.fixture
def params():
    return SystemParams()


@pytest.fixture
def small_scenario():
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    return generate_scenario(20, 3, bounds, (2000.0, 2000.0, 0.0), seed=1)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
