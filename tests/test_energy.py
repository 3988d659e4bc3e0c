import math

import numpy as np
import pytest

from dcsf import Bounds, generate_scenario
from dcsf.energy import (
    RotorModel,
    horizontal_power,
    total_flight_energy,
    vertical_power,
)
from oracles import flight_energy_xyz, total_flight_energy_per_uav

ROTOR = RotorModel()


def test_horizontal_power_at_zero_equals_hover():
    assert horizontal_power(ROTOR, 0.0) == pytest.approx(ROTOR.p0 + ROTOR.p_ind, rel=1e-12)


def test_parasite_term_at_20ms():
    # parasite = 0.5 d0 rho s A v^3, isolated by subtracting the other terms
    v = 20.0
    expected = 0.5 * 0.6 * 1.225 * 0.05 * 0.503 * v**3
    assert expected == pytest.approx(73.941, abs=1e-9)
    induced = 88.63 * math.sqrt(math.sqrt(1 + v**4 / (4 * 4.03**4)) - v**2 / (2 * 4.03**2))
    profile = 79.86 * (1 + 3 * v**2 / 120.0**2)
    assert horizontal_power(ROTOR, v) == pytest.approx(induced + profile + expected, rel=1e-12)


def test_horizontal_power_reference_values():
    assert horizontal_power(ROTOR, 10.0) == pytest.approx(126.0336867737212, rel=1e-12)
    assert horizontal_power(ROTOR, 20.0) == pytest.approx(178.30026668719796, rel=1e-12)


def test_vertical_power_climb_and_descent():
    assert vertical_power(ROTOR, 2.0) == 40.0
    assert vertical_power(ROTOR, 0.0) == 0.0
    assert vertical_power(ROTOR, -3.0) == 0.0


def test_climb_10m_at_2ms_costs_200j():
    e = flight_energy_xyz(np.zeros(3), np.array([0.0, 0.0, 10.0]), ROTOR, 10.0, 2.0)
    assert e == 200.0


def test_pure_descent_costs_nothing():
    e = flight_energy_xyz(np.array([0.0, 0.0, 50.0]), np.array([0.0, 0.0, 10.0]), ROTOR, 10.0, 2.0)
    assert e == 0.0


def test_horizontal_leg_energy():
    e = flight_energy_xyz(np.zeros(3), np.array([30.0, 40.0, 0.0]), ROTOR, 10.0, 2.0)
    # 50 m at 10 m/s
    assert e == pytest.approx(horizontal_power(ROTOR, 10.0) * 5.0, rel=1e-12)


def test_combined_legs_add():
    e = flight_energy_xyz(np.zeros(3), np.array([30.0, 40.0, 10.0]), ROTOR, 10.0, 2.0)
    assert e == pytest.approx(horizontal_power(ROTOR, 10.0) * 5.0 + 200.0, rel=1e-12)


def test_total_flight_energy_sums_fleet(small_scenario, params):
    q = small_scenario.uav_initial_xyz + np.array([30.0, 40.0, 10.0])
    total = total_flight_energy(small_scenario, q, params)
    per_uav = horizontal_power(params.rotor, params.v_xy) * 5.0 + 200.0
    assert total == pytest.approx(3 * per_uav, rel=1e-12)


def test_staying_put_is_free(small_scenario, params):
    assert total_flight_energy(small_scenario, small_scenario.uav_initial_xyz, params) == 0.0


def test_rotor_model_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        RotorModel(weight=0.0)
    with pytest.raises(ValueError):
        RotorModel(rho=-1.0)


def test_negative_speed_rejected():
    with pytest.raises(ValueError):
        horizontal_power(ROTOR, -1.0)


def test_total_flight_energy_equals_the_per_uav_numpy_form(small_scenario, params, rng):
    lower, upper = small_scenario.bounds.lower, small_scenario.bounds.upper
    for _ in range(200):
        q = lower - 50.0 + rng.random((small_scenario.n_uavs, 3)) * (upper - lower + 100.0)
        assert total_flight_energy(small_scenario, q, params) == total_flight_energy_per_uav(
            small_scenario, q, params)


@pytest.mark.parametrize("n_uavs", [1, 2, 7, 8, 9, 16, 24, 48])
def test_stacked_f3_equals_the_per_uav_oracle(n_uavs, params):
    """One call rates a stack of fleets; each total is bit for bit the per-UAV
    sum, from 8 UAVs on too, where a numpy reduction would sum pairwise."""
    bounds = Bounds(0.0, 5000.0, 0.0, 5000.0, 60.0, 120.0)
    scn = generate_scenario(10, n_uavs, bounds, (8000.0, 8000.0, 0.0), seed=n_uavs)
    rng = np.random.default_rng(n_uavs)
    start = scn.uav_initial_xyz
    fleets = [start.copy()]  # every UAV stays put
    for _ in range(12):
        q = bounds.lower + rng.random((n_uavs, 3)) * (bounds.upper - bounds.lower)
        move = rng.integers(0, 4, n_uavs)  # 0 anywhere, 1 stay put, 2 only climb, 3 only descend
        q[move == 1] = start[move == 1]
        for kind, sign in ((2, 1.0), (3, -1.0)):
            rows = move == kind
            q[rows] = start[rows] + sign * np.outer(rng.random(rows.sum()) * 50.0, [0.0, 0.0, 1.0])
        fleets.append(q)
    q = np.stack(fleets)
    batch = total_flight_energy(scn, q, params)
    assert batch.shape == (len(fleets),)
    for fleet, total in zip(q, batch.tolist()):
        expected = total_flight_energy_per_uav(scn, fleet, params)
        assert total == expected
        assert total_flight_energy(scn, fleet[None], params).tolist() == [expected]
    assert batch[0] == 0.0
