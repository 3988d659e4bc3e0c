"""Seeded runs reproduce committed artifacts byte for byte.

The files under tests/data/golden were written by `dcsf solve` before the
changes they guard. The three 40 x 6 cases predate the move of the
evaluation kernels into `channel` and `beamforming` and the sharing of the
solver's selection and history code; they apply no GCA merge. The 40 x 20
aoa case applies 4 merges and predates the delta evaluation of GCA merges.
Any change to a front, a history row or the knee deployment shows up here,
where comparing two runs of the same code cannot catch it.
"""

import hashlib
from pathlib import Path

import pytest

from dcsf.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

# golden directory -> (uavs, mode, outer iterations)
CASES = {
    "llm-aoa": (6, "llm-aoa", 3),
    "aoa": (6, "aoa", 3),
    "monolithic-nsga2": (6, "monolithic-nsga2", 3),
    "aoa-u40-v20": (20, "aoa", 2),
}


# SHA-256 of `dcsf generate --users 40 --uavs N --seed 0`, recorded while the
# scenario still held one object per user and per UAV next to its arrays
SCENARIO_SHA256 = {
    6: "2936f5979f54ba1f0ba38f2d3bff78c8982ac087ae0ba7da4fbd3ee6bab8a8f5",
    20: "0fd8b40aed0eab731d3081db70d7fd4e43c6ec55e8ba4eb59010b296de787bda",
}


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for uavs in sorted({case[0] for case in CASES.values()}):
        path = root / f"scenario-v{uavs}.json"
        assert main(["generate", "--users", "40", "--uavs", str(uavs), "--seed", "0",
                     "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SCENARIO_SHA256[uavs]
        paths[uavs] = path
    return paths


@pytest.mark.parametrize("case", list(CASES))
def test_seeded_run_matches_golden_artifacts(scenarios, tmp_path, case):
    uavs, mode, t_ao = CASES[case]
    out = tmp_path / case
    rc = main(["solve", "--scenario", str(scenarios[uavs]), "--mode", mode, "--advisor", "fallback",
               "--seed", "0", "--pop", "8", "--t-ao", str(t_ao), "--t-local", "3", "--out", str(out)])
    assert rc == 0
    for name in ("pareto.json", "history.csv", "deployment.json"):
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
