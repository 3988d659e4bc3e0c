"""Probabilistic LoS air-to-ground channel: path loss, SINR, and user rate.

All powers are handled in watts internally; path losses are in dB.
The same model serves both user-to-UAV links and the cluster-to-BS link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import SPEED_OF_LIGHT, associate_users


@dataclass(frozen=True)
class LinkGeometry:
    """Total distance d and vertical separation H of one air-to-ground link."""

    d: float
    h: float

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("link distance must be > 0")
        if not (0 <= self.h <= self.d):
            raise ValueError("need 0 <= H <= d")

    @staticmethod
    def between(a: np.ndarray, b: np.ndarray) -> "LinkGeometry":
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return LinkGeometry(float(np.linalg.norm(a - b)), abs(float(a[2] - b[2])))


def los_probability(geom: LinkGeometry, psi: float, beta: float) -> float:
    """Elevation-dependent LoS probability, strictly inside (0, 1)."""
    elevation_deg = math.degrees(math.asin(geom.h / geom.d))
    return 1.0 / (1.0 + psi * math.exp(-beta * (elevation_deg - psi)))


def free_space_path_loss(d: float, f: float) -> float:
    """FSPL in dB at distance d (m) and frequency f (Hz)."""
    return 20.0 * math.log10(d) + 20.0 * math.log10(f) + 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)


def avg_path_loss(geom: LinkGeometry, params) -> float:
    """LoS/NLoS-probability-weighted average path loss in dB."""
    p_los = los_probability(geom, params.psi, params.beta)
    fspl = free_space_path_loss(geom.d, params.frequency)
    return fspl + p_los * params.mu_los + (1.0 - p_los) * params.mu_nlos


def _received_watts(tx_power: float, loss_db: float) -> float:
    return tx_power * 10.0 ** (-loss_db / 10.0)


def sinr_user_uav(user, uav, cohort, params) -> float:
    """SINR of one user at its serving UAV's launch position against its
    cohort's interference."""
    members = list(cohort)
    if not members or all(m.id != user.id for m in members):
        raise ValueError("user must belong to the serving UAV's cohort")
    uav_xyz = uav.initial_pos.as_array()
    signal = 0.0
    interference = 0.0
    for m in members:
        geom = LinkGeometry.between(m.pos.as_array(), uav_xyz)
        rx = _received_watts(params.user_tx_power, avg_path_loss(geom, params))
        if m.id == user.id:
            signal = rx
        else:
            interference += rx
    return signal / (interference + params.noise_watts)


def user_rate(sinr: float, bandwidth: float) -> float:
    """Shannon rate in bps; monotone in SINR."""
    if sinr < 0:
        raise ValueError("sinr must be >= 0")
    return bandwidth * math.log2(1.0 + sinr)


def sum_user_rate(scenario, uav_positions: np.ndarray, params) -> float:
    """Objective f1: total rate of all users under nearest-UAV association."""
    user_xyz = np.asarray(scenario.user_xyz, dtype=float)
    uav_xyz = np.asarray(uav_positions, dtype=float)
    diff = user_xyz[:, None, :] - uav_xyz[None, :, :]
    d = np.sqrt(np.einsum("uvk,uvk->uv", diff, diff))
    nearest = np.argmin(d, axis=1)

    d_star = d[np.arange(len(user_xyz)), nearest]
    h_star = np.abs(user_xyz[:, 2] - uav_xyz[nearest, 2])
    elevation_deg = np.degrees(np.arcsin(h_star / d_star))
    p_los = 1.0 / (1.0 + params.psi * np.exp(-params.beta * (elevation_deg - params.psi)))
    fspl = (
        20.0 * np.log10(d_star)
        + 20.0 * np.log10(params.frequency)
        + 20.0 * np.log10(4.0 * np.pi / SPEED_OF_LIGHT)
    )
    loss_db = fspl + p_los * params.mu_los + (1.0 - p_los) * params.mu_nlos
    rx = params.user_tx_power * 10.0 ** (-loss_db / 10.0)

    totals = np.bincount(nearest, weights=rx, minlength=len(uav_xyz))
    sinr = rx / (totals[nearest] - rx + params.noise_watts)
    return float(params.bandwidth * np.sum(np.log2(1.0 + sinr)))


def per_user_rates(scenario, uav_positions: np.ndarray, params) -> np.ndarray:
    """Reference per-user rate vector via the scalar path (reporting/tests only)."""
    uav_positions = np.asarray(uav_positions, dtype=float)
    cohorts = associate_users(scenario, uav_positions)
    rates = np.zeros(scenario.n_users)
    for v, members in enumerate(cohorts):
        if not members:
            continue
        rx = np.array(
            [
                _received_watts(
                    params.user_tx_power,
                    avg_path_loss(
                        LinkGeometry.between(scenario.user_xyz[u], uav_positions[v]), params
                    ),
                )
                for u in members
            ]
        )
        total = rx.sum()
        for i, u in enumerate(members):
            sinr = rx[i] / (total - rx[i] + params.noise_watts)
            rates[u] = user_rate(sinr, params.bandwidth)
    return rates
