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


def flight_energy_xyz(initial, target, rotor: RotorModel, v_xy: float, v_z: float) -> float:
    """Energy in joules for relocating from `initial` to `target` (length-3
    sequences or arrays)."""
    dx = float(target[0] - initial[0])
    dy = float(target[1] - initial[1])
    dz = float(target[2] - initial[2])
    horiz = math.hypot(dx, dy)
    energy = 0.0
    if horiz > 0:
        energy += horizontal_power(rotor, v_xy) * (horiz / v_xy)
    if dz > 0:
        energy += vertical_power(rotor, v_z) * (dz / v_z)
    return energy


def total_flight_energy(scenario, uav_positions: np.ndarray, params) -> float:
    """Objective f3: summed relocation energy of the whole fleet.

    The positions go in as Python floats, which give the same differences as
    numpy scalars at a fraction of the cost.
    """
    return sum(
        flight_energy_xyz(initial, target, params.rotor, params.v_xy, params.v_z)
        for initial, target in zip(scenario.uav_initial_xyz.tolist(),
                                   np.asarray(uav_positions, dtype=float).tolist())
    )
