import json

import numpy as np
import pytest

from dcsf import Bounds, SystemParams, generate_scenario, load_scenario, save_scenario
from dcsf.scenario import (
    Scenario,
    ScenarioError,
    associate_users,
    launch_positions,
    validate_scenario,
)

BOUNDS = Bounds(0.0, 1000.0, 0.0, 1000.0, 60.0, 120.0)
BS = (5000.0, 5000.0, 0.0)


def test_generate_is_seed_deterministic():
    a = generate_scenario(50, 4, BOUNDS, BS, seed=9)
    b = generate_scenario(50, 4, BOUNDS, BS, seed=9)
    assert np.array_equal(a.user_xyz, b.user_xyz)
    c = generate_scenario(50, 4, BOUNDS, BS, seed=10)
    assert not np.array_equal(a.user_xyz, c.user_xyz)


def test_users_on_ground_inside_area():
    scn = generate_scenario(200, 4, BOUNDS, BS, seed=0)
    assert np.all(scn.user_xyz[:, 2] == 0.0)
    assert np.all(scn.user_xyz[:, 0] >= 0.0) and np.all(scn.user_xyz[:, 0] <= 1000.0)
    assert np.all(scn.user_xyz[:, 1] >= 0.0) and np.all(scn.user_xyz[:, 1] <= 1000.0)


def test_launch_grid_geometry():
    grid = launch_positions(4, BOUNDS)
    assert np.all(grid[:, 0] == 0.0)
    assert np.all(grid[:, 2] == 60.0)
    assert np.allclose(grid[:, 1], [200.0, 400.0, 600.0, 800.0])
    # launch spacing must respect the default safety distance
    gaps = np.diff(grid[:, 1])
    assert np.all(gaps >= SystemParams().d_min)


def test_roundtrip_through_json(tmp_path):
    scn = generate_scenario(30, 3, BOUNDS, BS, seed=4)
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    loaded = load_scenario(path)
    assert np.array_equal(loaded.user_xyz, scn.user_xyz)
    assert np.array_equal(loaded.uav_initial_xyz, scn.uav_initial_xyz)
    assert np.array_equal(loaded.bs_xyz, scn.bs_xyz)
    assert loaded.seed == scn.seed


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"users": []}')
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_rejects_wrong_length_coordinates(tmp_path):
    path = tmp_path / "bad.json"
    save_scenario(generate_scenario(5, 2, BOUNDS, BS, seed=0), path)
    doc = json.loads(path.read_text())
    doc["users"][1] = [10.0, 20.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="malformed scenario file"):
        load_scenario(path)


def test_association_ties_go_to_lowest_id():
    scn = generate_scenario(1, 2, BOUNDS, BS, seed=0)
    # both UAVs equidistant from the user
    user = scn.user_xyz[0]
    q = np.array([user + [50.0, 0.0, 100.0], user + [-50.0, 0.0, 100.0]])
    cohorts = associate_users(scn, q)
    assert cohorts[0] == [0] and cohorts[1] == []


def test_association_partitions_users():
    scn = generate_scenario(100, 5, BOUNDS, BS, seed=3)
    q = scn.uav_initial_xyz + [[100, 0, 20]] * 5
    cohorts = associate_users(scn, q)
    seen = sorted(u for members in cohorts for u in members)
    assert seen == list(range(100))


def test_validate_scenario_flags_out_of_bounds_and_proximity():
    scn = generate_scenario(5, 2, BOUNDS, BS, seed=0)
    params = SystemParams()
    assert validate_scenario(scn, params) == []
    # rebuild with the two UAVs stacked on top of each other
    bad = Scenario(scn.user_xyz, [(10.0, 10.0, 70.0)] * 2, BS, BOUNDS, 0)
    issues = validate_scenario(bad, params)
    assert any(v.startswith("C2") for v in issues)


def test_validate_scenario_rejects_a_bs_inside_the_region():
    params = SystemParams()
    scn = generate_scenario(20, 3, BOUNDS, (500.0, 500.0, 90.0), seed=0)
    [issue] = validate_scenario(scn, params)
    assert issue.startswith("BS at") and "inside deployment region" in issue
    on_corner = generate_scenario(20, 3, BOUNDS, (1000.0, 0.0, 60.0), seed=0)
    assert len(validate_scenario(on_corner, params)) == 1


def test_bounds_must_be_ordered():
    with pytest.raises(ScenarioError):
        Bounds(10.0, 0.0, 0.0, 1.0, 0.0, 1.0)


def test_load_rejects_a_non_finite_coordinate(tmp_path):
    path = tmp_path / "bad.json"
    save_scenario(generate_scenario(5, 2, BOUNDS, BS, seed=0), path)
    doc = json.loads(path.read_text())
    doc["uavs_initial"][1][2] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="malformed scenario file"):
        load_scenario(path)


def test_scenario_arrays_are_read_only():
    scn = generate_scenario(5, 2, BOUNDS, BS, seed=0)
    for xyz in (scn.user_xyz, scn.uav_initial_xyz, scn.bs_xyz):
        with pytest.raises(ValueError):
            xyz[0] = 1.0


def test_scenario_copies_its_inputs():
    users = np.array([[1.0, 2.0, 0.0]])
    scn = Scenario(users, [(0.0, 0.0, 60.0)], BS, BOUNDS, 0)
    users[0, 0] = 9.0
    assert scn.user_xyz[0, 0] == 1.0


@pytest.mark.parametrize("users, uavs, bs", [
    ([], [(0.0, 0.0, 60.0)], BS),
    ([(1.0, 2.0)], [(0.0, 0.0, 60.0)], BS),
    ([(1.0, 2.0, 0.0)], [(0.0, 0.0, 60.0)], (1.0, 2.0)),
    ([(1.0, 2.0, 0.0)], (0.0, 0.0, 60.0), BS),
])
def test_scenario_rejects_wrong_shapes(users, uavs, bs):
    with pytest.raises(ScenarioError, match="shape"):
        Scenario(users, uavs, bs, BOUNDS, 0)


def test_save_of_a_loaded_file_is_byte_identical(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(generate_scenario(30, 3, BOUNDS, (5000, -2.5, 1e3), seed=4), path)
    again = tmp_path / "again.json"
    save_scenario(load_scenario(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_generate_rejects_empty():
    with pytest.raises(ScenarioError):
        generate_scenario(0, 1, BOUNDS, BS, seed=0)


def test_params_validation():
    with pytest.raises(ScenarioError):
        SystemParams(bandwidth=-1.0)
    with pytest.raises(ScenarioError):
        SystemParams(k_min=5, k_max=2)
    with pytest.raises(ScenarioError):
        SystemParams(uav_tx_power=0)
