import json
import math
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcsf import Bounds, SystemParams, generate_scenario, load_scenario, save_scenario
from dcsf.scenario import (_ROWS_PER_BLOCK, JsonRows, Scenario, ScenarioError, json_pieces, launch_positions,
                           validate_scenario)
from dcsf.semantic import default_similarity_model
from oracles import associate_users, json_file_text, scenario_doc

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


@pytest.mark.parametrize("seed", [1.7, "3", True])
def test_load_rejects_a_seed_that_is_not_a_json_integer(tmp_path, seed):
    path = tmp_path / "bad.json"
    save_scenario(generate_scenario(5, 2, BOUNDS, BS, seed=0), path)
    doc = json.loads(path.read_text())
    doc["seed"] = seed
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="malformed scenario file.*seed"):
        load_scenario(path)


@pytest.mark.parametrize("field, index, value", [
    ("users", 0, ["10", True, "0"]),
    ("users", 1, [10.0, 20.0, False]),
    ("uavs_initial", 0, [0.0, "250", 60.0]),
    ("bs", 2, True),
    ("bs", 0, "5000"),
])
def test_load_rejects_a_coordinate_that_is_not_a_json_number(tmp_path, field, index, value):
    path = tmp_path / "bad.json"
    save_scenario(generate_scenario(5, 2, BOUNDS, BS, seed=0), path)
    doc = json.loads(path.read_text())
    doc[field][index] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=f"malformed scenario file .*: {field} holds"):
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
    bad = [
        dict(bandwidth=-1.0),
        dict(k_min=5, k_max=2),
        dict(uav_tx_power=0),
        # each of these raised ZeroDivisionError inside a solve
        dict(v_xy=0.0),
        dict(v_z=0.0),
        dict(words_per_sentence=0.0),
        # a negative f2
        dict(info_per_sentence=-40.0),
        # the similarity table must cover every k the solver can pick
        dict(k_max=30),
        dict(k_min=1, similarity=default_similarity_model(2, 20)),
    ]
    for kwargs in bad:
        with pytest.raises(ScenarioError):
            SystemParams(**kwargs)
    SystemParams(k_min=3, k_max=8)  # a k range inside the table is fine


# ---------------------------------------------------------------------------
# the JSON writer

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-05, 1e-07, 0.1, -2.5e300]


def _text(doc) -> str:
    return "".join(json_pieces(doc))


_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
            | st.floats() | st.sampled_from(EDGE_FLOATS) | st.floats().map(np.float64) | st.text())
_documents = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_json_pieces_equal_json_dumps_indent_2(doc):
    assert _text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("value, text", [
    # json's order of checks: bools before ints, subclasses by their base's repr
    (True, "true"), (False, "false"), (None, "null"), (IntEnum("E", "A").A, "1"),
    (np.float64(0.1), "0.1"), (10**30, "1" + "0" * 30),
    (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity"),
    (-0.0, "-0.0"), (5e-324, "5e-324"), (1e16, "1e+16"), (1e-05, "1e-05"),
    ("\u00e9\u2028\x00\"\\", '"\\u00e9\\u2028\\u0000\\"\\\\"'), ("\ud800", '"\\ud800"'),
    ([], "[]"), ((), "[]"), ({}, "{}"), ([[]], "[\n  []\n]"), ({"": {}}, '{\n  "": {}\n}'),
    ({"kéy": (1, [2.0])}, '{\n  "k\\u00e9y": [\n    1,\n    [\n      2.0\n    ]\n  ]\n}'),
])
def test_json_pieces_follow_jsons_rules(value, text):
    assert _text(value) == text == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [np.int64(1), np.float32(1.0), np.bool_(True), {1, 2}, b"x", object(),
                                   [1, np.array([1.0])], {"a": {"b": Bounds}}])
def test_json_pieces_reject_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _text(value)


def test_json_pieces_take_only_str_keys():
    with pytest.raises(TypeError, match="keys must be str"):
        _text({1: 2})


@pytest.mark.parametrize("n", [0, 1, _ROWS_PER_BLOCK, _ROWS_PER_BLOCK + 1, 2 * _ROWS_PER_BLOCK + 3])
def test_json_rows_equal_the_list_of_items(n):
    rng = np.random.default_rng(n)
    xs = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    finite = [x for x in EDGE_FLOATS if math.isfinite(x)]
    xs[:len(finite)] = finite[:n]
    ids = rng.integers(-10**12, 10**12, n).tolist()
    item = {"id": "%d", "at": ["%r", {"x%": "%r"}]}
    items = [{"id": i, "at": [x, {"x%": x}]} for i, x in zip(ids, xs.tolist())]
    assert _text(JsonRows(item, zip(ids, xs.tolist(), xs.tolist()))) == json.dumps(items, indent=2)
    pieces = list(json_pieces({"rows": JsonRows(item, zip(ids, xs.tolist(), xs.tolist())), "n": n}))
    assert "".join(pieces) == json.dumps({"rows": items, "n": n}, indent=2)
    # the head, one piece per block of rows, the closing bracket (or "[]") and the tail
    assert len(pieces) == 3 + math.ceil(n / _ROWS_PER_BLOCK)


def test_scenario_file_equals_json_dumps_on_edge_coordinates(tmp_path):
    users = [[5e-324, -0.0, 0.0], [1e16, 1e-05, 1e-07], [123.456, 0.1, 2.5e300]]
    scn = Scenario(users, [[0.0, 1e-05, 60.0], [-1e16, 7.0, 120.0]], (5000, -2.5, 1e3), BOUNDS, 2**70)
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    assert path.read_text() == json_file_text(scenario_doc(scn))
    big = generate_scenario(600, 3, BOUNDS, BS, seed=1)
    save_scenario(big, path)
    assert path.read_text() == json_file_text(scenario_doc(big))
