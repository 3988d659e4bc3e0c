import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcsf import Bounds, SystemParams, channel as channel_mod, generate_scenario, scenario as scenario_mod
from dcsf.channel import path_gain, sum_user_rate
from dcsf.scenario import Scenario, nearest_uavs
from oracles import (
    associate_users,
    avg_path_loss,
    free_space_path_loss,
    los_probability,
    nearest_uavs_einsum,
    per_user_rates,
    sum_user_rate_einsum,
    user_rate,
)


def test_carrier_frequency_derived_from_wavelength(params):
    assert params.frequency == pytest.approx(2398339664.0, rel=1e-12)


def test_free_space_path_loss_reference_value(params):
    # 100 m vertical link at the default carrier
    assert free_space_path_loss(100.0, params.frequency) == pytest.approx(80.04599702028077, abs=1e-9)


def test_free_space_path_loss_distance_doubling_adds_6db(params):
    l1 = free_space_path_loss(150.0, params.frequency)
    l2 = free_space_path_loss(300.0, params.frequency)
    assert l2 - l1 == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)


def test_los_probability_overhead_near_one(params):
    # straight overhead
    assert los_probability(100.0, 100.0, params.psi, params.beta) == pytest.approx(0.999975074537903, abs=1e-12)


def test_los_probability_at_elevation_psi(params):
    # at elevation angle psi the exponent vanishes
    h = 100.0 * math.sin(math.radians(params.psi))
    assert los_probability(100.0, h, params.psi, params.beta) == pytest.approx(1.0 / (1.0 + params.psi), rel=1e-12)


def test_los_probability_grazing(params):
    assert los_probability(1000.0, 1e-9, params.psi, params.beta) == pytest.approx(0.021872621233283412, rel=1e-6)


def _loss_db(d, h, params):
    """The path loss in dB of one link through the array `path_gain`."""
    return -10.0 * math.log10(path_gain(np.array([d]), np.array([h]), params)[0])


def test_avg_path_loss_vertical_100m(params):
    assert _loss_db(100.0, 100.0, params) == pytest.approx(81.64645564878334, abs=1e-9)


def test_avg_path_loss_between_los_and_nlos_extremes(params):
    loss = _loss_db(400.0, 80.0, params)
    fspl = free_space_path_loss(400.0, params.frequency)
    assert fspl + params.mu_los < loss < fspl + params.mu_nlos


@given(d=st.floats(1e-3, 1e6), frac=st.floats(0.0, 1.0), wavelength=st.floats(1e-3, 10.0))
def test_path_gain_equals_the_scalar_oracle(d, frac, wavelength):
    """The array link budget, run in place, equals 10^(-L/10) of the scalar
    composition of the LoS and FSPL helpers to rounding."""
    params = SystemParams(wavelength=wavelength)
    hs = (d * frac, d, 0.0)
    gains = path_gain(np.full(3, d), np.array(hs), params)
    for h, gain in zip(hs, gains):
        assert gain == pytest.approx(10 ** (-avg_path_loss(d, h, params) / 10), rel=1e-12)


def test_noise_power(params):
    assert params.noise_watts == pytest.approx(7.962143411069972e-15, rel=1e-12)


def test_user_rate_shannon():
    assert user_rate(0.0, 2e6) == 0.0
    assert user_rate(1.0, 2e6) == pytest.approx(2e6, rel=1e-12)
    with pytest.raises(ValueError):
        user_rate(-0.1, 2e6)


def test_single_user_rate_matches_link_budget(small_scenario, params):
    # isolate one user straight under one UAV, far from everything else
    scn = small_scenario
    q = np.array([scn.user_xyz[0] + [0.0, 0.0, 100.0],
                  [1e7, 1e7, 100.0],
                  [2e7, 2e7, 100.0]])
    rates = per_user_rates(scn, q, params)
    delta = scn.user_xyz[0] - q[0]
    rx = 0.1 * 10 ** (-avg_path_loss(float(np.linalg.norm(delta)), abs(float(delta[2])), params) / 10.0)
    cohorts = associate_users(scn, q)
    if cohorts[0] == [0]:
        assert rates[0] == pytest.approx(params.bandwidth * math.log2(1 + rx / params.noise_watts), rel=1e-9)


def test_sum_user_rate_matches_scalar_path(small_scenario, params, rng):
    q = np.column_stack([
        rng.uniform(0, 500, 3), rng.uniform(0, 500, 3), rng.uniform(60, 120, 3)
    ])
    fast = sum_user_rate(small_scenario, q, params)
    slow = per_user_rates(small_scenario, q, params).sum()
    assert fast == pytest.approx(slow, rel=1e-9)


@pytest.mark.parametrize("n_users, n_uavs", [(500, 8), (2000, 8), (300, 32), (400, 1), (1, 1), (1, 12)])
def test_sum_user_rate_equals_the_einsum_oracle(params, n_users, n_uavs):
    bounds = Bounds(0.0, 1000.0, 0.0, 1000.0, 60.0, 120.0)
    scn = generate_scenario(n_users, n_uavs, bounds, (5000.0, 5000.0, 0.0), seed=n_users + n_uavs)
    rng = np.random.default_rng(n_uavs)
    for _ in range(10):
        q = bounds.lower + rng.random((n_uavs, 3)) * (bounds.upper - bounds.lower)
        rate, nearest = sum_user_rate_einsum(scn, q, params)
        assert sum_user_rate(scn, q, params) == rate
        assert list(nearest_uavs(scn, q)[0]) == list(nearest)


def test_sum_user_rate_ties_and_a_user_under_a_uav(params):
    users = [[0.0, 0.0, 0.0], [300.0, 200.0, 0.0], [600.0, 600.0, 0.0]]
    q = np.array([
        [500.0, 500.0, 90.0],
        [10.0, 0.0, 70.0],    # user 0 is equidistant from UAVs 1 and 2 ...
        [-10.0, 0.0, 70.0],
        [300.0, 200.0, 80.0],  # ... and user 1 is directly under UAV 3
        [0.0, 10.0, 70.0],    # user 0 is as far from UAV 4 as well
    ])
    bounds = Bounds(-100.0, 1000.0, -100.0, 1000.0, 60.0, 120.0)
    scn = Scenario(users, q, (5000.0, 5000.0, 0.0), bounds, seed=0)
    nearest, d_near, _ = nearest_uavs(scn, q)
    assert list(nearest) == [1, 3, 0]  # the lowest of the tied UAVs wins
    assert d_near[1] == 80.0
    rate, oracle_nearest = sum_user_rate_einsum(scn, q, params)
    assert list(oracle_nearest) == [1, 3, 0]
    assert sum_user_rate(scn, q, params) == rate
    assert associate_users(scn, q) == [[2], [0], [], [1], []]


def _count_exact_passes(monkeypatch):
    """Record the users of every `_first_nearest` call, the screen's exact pass."""
    passed = []
    real = scenario_mod._first_nearest

    def counted(user_rows, uav_xyz):
        passed.append(user_rows[:3].T.copy())
        return real(user_rows, uav_xyz)

    monkeypatch.setattr(scenario_mod, "_first_nearest", counted)
    return passed


@pytest.mark.parametrize("n_uavs", [1, 2, 8, 24, 255, 256, 257])
def test_nearest_uavs_equals_the_einsum_oracle_on_ties(params, n_uavs, monkeypatch):
    """Exact ties on duplicated UAV rows go to the lowest index at every fleet
    size, including both sides of the rank dtype's edge (255 | 256), through
    the exact pass."""
    bounds = Bounds(0.0, 1000.0, 0.0, 1000.0, 60.0, 120.0)
    scn = generate_scenario(300, 1, bounds, (5000.0, 5000.0, 0.0), seed=n_uavs)
    rng = np.random.default_rng(n_uavs)
    tied = 0  # users served by a copy of the last UAV below it
    passed = _count_exact_passes(monkeypatch)
    for _ in range(5):
        q = bounds.lower + rng.random((n_uavs, 3)) * (bounds.upper - bounds.lower)
        q[-1] = np.append(scn.user_xyz[0, :2], 60.0)  # user 0 is directly under the last UAV
        q[rng.integers(0, n_uavs, n_uavs // 2)] = q[-1]  # and under its copies
        first_copy = int(np.flatnonzero((q == q[-1]).all(axis=1))[0])
        passed.clear()
        nearest, d_near, _ = nearest_uavs(scn, q)
        rate, oracle_nearest = sum_user_rate_einsum(scn, q, params)
        assert nearest.dtype == np.intp
        assert nearest.tolist() == oracle_nearest.tolist()
        assert nearest[0] == first_copy and d_near[0] == 60.0
        copies = (q[nearest] == q[-1]).all(axis=1) & (nearest < n_uavs - 1)
        tied += int(np.sum(copies))
        exact_users = {tuple(u) for rows in passed for u in rows.tolist()}
        assert {tuple(u) for u in scn.user_xyz[copies].tolist()} <= exact_users
        assert sum_user_rate(scn, q, params) == rate
    assert tied > 0 or n_uavs == 1


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_nearest_uavs_keeps_the_first_of_two_d_squared_sharing_a_root(params, order, monkeypatch):
    """d² = 22500.000000000004 and 22500 have the same square root, 150.0, so
    the oracle serves the first of the two UAVs in either order: the screen
    leaves the user to the exact pass, which keeps the first minimum after
    the square root, not the smaller d²."""
    uavs = np.array([[1.9e-6, 0.0, 150.0], [0.0, 0.0, 150.0]])[list(order)]
    bounds = Bounds(-10.0, 10.0, -10.0, 10.0, 60.0, 200.0)
    scn = Scenario([[0.0, 0.0, 0.0]], uavs, (5000.0, 5000.0, 0.0), bounds, seed=0)
    passed = _count_exact_passes(monkeypatch)
    nearest, d_near, h = nearest_uavs(scn, uavs)
    oracle_nearest, oracle_d, d = nearest_uavs_einsum(scn.user_xyz, uavs)
    assert d[0, 0] == d[0, 1] == 150.0
    assert nearest.tolist() == oracle_nearest.tolist() == [0]
    assert d_near.tolist() == oracle_d.tolist() == [150.0] and h.tolist() == [150.0]
    assert len(passed) == 1 and passed[0].tolist() == [[0.0, 0.0, 0.0]]
    assert sum_user_rate(scn, uavs, params) == sum_user_rate_einsum(scn, uavs, params)[0]


@settings(max_examples=300, deadline=None)
@given(n_users=st.integers(1, 40), n_uavs=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       offset=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), span=st.sampled_from([1.0, 50.0, 1000.0]),
       on_grid=st.booleans(), copies=st.integers(0, 4))
def test_nearest_uavs_equals_the_einsum_oracle_on_random_fleets(n_users, n_uavs, seed, offset, span, on_grid,
                                                                 copies):
    """Fleets anywhere in projected coordinates (offsets up to 1e6 m), on an
    integer grid (many equidistant UAVs) or not, with duplicated UAV rows and
    a user directly under a UAV: the nearest UAV, d and f1 equal the einsum
    oracle's, and every user the oracle sees tied goes through the exact pass."""
    params = SystemParams()
    rng = np.random.default_rng(seed)
    users = np.column_stack([rng.random((n_users, 2)) * span, np.zeros(n_users)])
    uavs = np.column_stack([rng.random((n_uavs, 2)) * span, rng.uniform(60.0, 120.0, n_uavs)])
    if on_grid:
        users, uavs = np.round(users), np.round(uavs)
    uavs[0, :2] = users[-1, :2]  # the last user is directly under UAV 0
    uavs[rng.integers(0, n_uavs, copies)] = uavs[rng.integers(0, n_uavs, copies)]
    shift = np.array([*offset, 0.0])
    users += shift
    uavs += shift
    bounds = Bounds(-2e6, 2e6, -2e6, 2e6, 60.0, 120.0)
    scn = Scenario(users, uavs, (5e6, 5e6, 0.0), bounds, seed=0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        passed = _count_exact_passes(monkeypatch)
        nearest, d_near, h = nearest_uavs(scn, uavs)
    oracle_nearest, oracle_d, d = nearest_uavs_einsum(scn.user_xyz, uavs)
    assert nearest.tolist() == oracle_nearest.tolist()
    assert d_near.tolist() == oracle_d.tolist()
    assert h.tolist() == np.abs(scn.user_xyz[:, 2] - uavs[nearest, 2]).tolist()
    assert sum_user_rate(scn, uavs, params) == sum_user_rate_einsum(scn, uavs, params)[0]
    tied = (d == oracle_d[:, None]).sum(axis=1) > 1
    exact_users = {tuple(u) for rows in passed for u in rows.tolist()}
    assert {tuple(u) for u in scn.user_xyz[tied].tolist()} <= exact_users


def _count_blocks(monkeypatch):
    """Record the shape of the fleets of every `nearest_uavs` call of
    `sum_user_rate`: one per block."""
    shapes = []
    real = channel_mod.nearest_uavs

    def counted(scenario, uav_xyz):
        shapes.append(uav_xyz.shape)
        return real(scenario, uav_xyz)

    monkeypatch.setattr(channel_mod, "nearest_uavs", counted)
    return shapes


def test_a_block_score_array_stays_under_128_kib():
    assert channel_mod._BLOCK_CELLS * 8 < 128 * 1024 <= (channel_mod._BLOCK_CELLS + 1) * 8


@pytest.mark.parametrize("n_users, n_uavs, n_fleets, blocks", [
    (300, 8, 14, [6, 6, 2]),      # 14 fleets in blocks of 6: the last block is short
    (300, 8, 6, [6]),
    (300, 8, 1, [1]),
    (300, 8, 0, []),
    (2000, 8, 3, [None] * 3),     # V·U = 16,000: blocks of one run as single fleets
    (500, 24, 2, [None] * 2),
    (20, 3, 700, [273, 273, 154]),
])
def test_a_stack_of_fleets_equals_its_fleets_one_by_one(params, monkeypatch, n_users, n_uavs, n_fleets, blocks):
    """f1 and the nearest UAVs of a stack equal, bit for bit, those of each
    fleet alone and the einsum oracle's, in blocks of _BLOCK_CELLS // (V·U)
    fleets. Fleets on both sides of every block boundary carry duplicated
    UAVs, so the exact pass runs on each of them."""
    bounds = Bounds(0.0, 1000.0, 0.0, 1000.0, 60.0, 120.0)
    scn = generate_scenario(n_users, n_uavs, bounds, (5000.0, 5000.0, 0.0), seed=n_fleets)
    rng = np.random.default_rng(n_fleets)
    q = bounds.lower + rng.random((n_fleets, n_uavs, 3)) * (bounds.upper - bounds.lower)
    edges = np.cumsum([1 if b is None else b for b in blocks]).tolist()
    tied = sorted({f for edge in edges[:-1] for f in (edge - 1, edge)} | {0} if n_fleets else set())
    for f in tied:
        q[f, 1:3] = q[f, 0]  # users nearest UAV 0 tie with UAVs 1 and 2
    with pytest.MonkeyPatch.context() as patch:
        shapes = _count_blocks(patch)
        exact = _count_exact_fleets(patch)
        rates = sum_user_rate(scn, q, params)
        nearest, d_near, h = nearest_uavs(scn, q)
    assert [None if len(shape) == 2 else shape[0] for shape in shapes] == blocks
    assert rates.shape == (n_fleets,) and rates.dtype == np.float64
    assert nearest.shape == d_near.shape == h.shape == (n_fleets, n_users)
    for f in tied:
        assert q[f].tobytes() in exact  # the screen left ties, and the exact pass ran
    for f in range(n_fleets):
        rate, oracle_nearest = sum_user_rate_einsum(scn, q[f], params)
        assert rates[f] == sum_user_rate(scn, q[f], params) == rate
        single = nearest_uavs(scn, q[f])
        assert nearest[f].tolist() == single[0].tolist() == oracle_nearest.tolist()
        assert d_near[f].tobytes() == single[1].tobytes() and h[f].tobytes() == single[2].tobytes()


def _count_exact_fleets(monkeypatch):
    """Record, as bytes, every fleet the screen's exact pass measured users against."""
    fleets = set()
    real = scenario_mod._first_nearest

    def counted(user_rows, uav_xyz):
        fleets.update(fleet.tobytes() for fleet in uav_xyz)
        return real(user_rows, uav_xyz)

    monkeypatch.setattr(scenario_mod, "_first_nearest", counted)
    return fleets


@given(d=st.floats(10.0, 5000.0), frac=st.floats(0.01, 1.0))
def test_los_probability_in_open_unit_interval(d, frac):
    params = SystemParams()
    p = los_probability(d, d * frac, params.psi, params.beta)
    assert 0.0 < p < 1.0


@given(st.floats(1.0, 1e6), st.floats(1.0, 1e6))
def test_user_rate_monotone_in_sinr(a, b):
    lo, hi = sorted((a, b))
    assert user_rate(lo, 2e6) <= user_rate(hi, 2e6)
