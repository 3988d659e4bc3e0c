"""Rotary-wing propulsion power and relocation flight energy (objective f3).

The relocation trajectory is a straight line decomposed into a horizontal leg
flown at constant cruise speed and a vertical leg at constant climb speed.
Descent consumes no propulsion energy in this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RotorModel:
    """Rotor/airframe constants of the standard rotary-wing power model."""

    p0: float = 79.86        # W, blade profile power in hover
    p_ind: float = 88.63     # W, induced power in hover
    v_tip: float = 120.0     # m/s, rotor tip speed
    v_ind: float = 4.03      # m/s, mean induced velocity in hover
    d0: float = 0.6          # fuselage drag ratio
    rho: float = 1.225       # kg/m^3
    solidity: float = 0.05   # rotor solidity
    disk_area: float = 0.503  # m^2
    weight: float = 20.0     # N

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value <= 0:
                raise ValueError(f"rotor model field {name} must be > 0")


def horizontal_power(rotor: RotorModel, v_xy: float) -> float:
    """Propulsion power at horizontal speed v_xy: induced + blade profile + parasite."""
    if v_xy < 0:
        raise ValueError("horizontal speed must be >= 0")
    v2 = v_xy * v_xy
    induced = rotor.p_ind * math.sqrt(
        math.sqrt(1.0 + v2 * v2 / (4.0 * rotor.v_ind**4)) - v2 / (2.0 * rotor.v_ind**2)
    )
    profile = rotor.p0 * (1.0 + 3.0 * v2 / rotor.v_tip**2)
    parasite = 0.5 * rotor.d0 * rotor.rho * rotor.solidity * rotor.disk_area * v_xy**3
    return induced + profile + parasite


def vertical_power(rotor: RotorModel, v_z: float) -> float:
    """Climb power W * v_z; descent and hover cost nothing vertically."""
    return rotor.weight * v_z if v_z > 0 else 0.0


def total_flight_energy(scenario, uav_positions: np.ndarray, params) -> np.ndarray:
    """Objective f3 of each stacked fleet (..., V, 3): the summed relocation
    energy of its UAVs, each flying its horizontal leg at `params.v_xy` and
    its climb at `params.v_z`.

    Bit for bit the per-UAV form (`flight_energy_xyz` in tests/oracles.py,
    one UAV at a time): each UAV's horizontal leg is the scalar
    `math.hypot` (`np.hypot` differs in the last bit on some inputs), and each
    fleet's energies are summed left to right, one vector add per UAV (a
    numpy reduction over the fleet axis sums pairwise from 8 UAVs on).
    """
    delta = np.asarray(uav_positions, dtype=float) - scenario.uav_initial_xyz
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    horiz = np.array(list(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()))).reshape(dx.shape)
    rotor = params.rotor
    energy = horizontal_power(rotor, params.v_xy) * (horiz / params.v_xy)
    energy += np.where(dz > 0, vertical_power(rotor, params.v_z) * (dz / params.v_z), 0.0)
    total = energy[..., 0].copy()
    for v in range(1, energy.shape[-1]):
        total += energy[..., v]
    return total
