import io

import numpy as np
import pytest

from dcsf import Bounds, SystemParams, generate_scenario, scenario as scenario_mod


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


@pytest.fixture
def written_pieces(monkeypatch):
    """Every text `scenario.write_json` hands its file, in order; no file is
    written."""
    pieces = []

    class Spy(io.StringIO):
        def write(self, text):
            pieces.append(text)
            return len(text)

    monkeypatch.setattr(scenario_mod, "open", lambda *args, **kwargs: Spy(), raising=False)
    return pieces
