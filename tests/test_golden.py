"""Seeded runs reproduce committed artifacts byte for byte.

The files under tests/data/golden were written by `dcsf solve` before the
evaluation kernels moved into `channel` and `beamforming` and before the
solver's selection and history code was shared. Any change to a front, a
history row or the knee deployment shows up here, where comparing two runs
of the same code cannot catch it.
"""

from pathlib import Path

import pytest

from dcsf.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "scenario.json"
    assert main(["generate", "--users", "40", "--uavs", "6", "--seed", "0", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("mode", ["llm-aoa", "aoa", "monolithic-nsga2"])
def test_seeded_run_matches_golden_artifacts(scenario, tmp_path, mode):
    out = tmp_path / mode
    rc = main(["solve", "--scenario", str(scenario), "--mode", mode, "--advisor", "fallback",
               "--seed", "0", "--pop", "8", "--t-ao", "3", "--t-local", "3", "--out", str(out)])
    assert rc == 0
    for name in ("pareto.json", "history.csv", "deployment.json"):
        assert (out / name).read_bytes() == (GOLDEN / mode / name).read_bytes(), name
