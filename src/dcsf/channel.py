"""Probabilistic LoS air-to-ground channel: path loss, SINR, and user rate.

All powers are handled in watts internally; path losses are in dB.
The same model serves both user-to-UAV links and the cluster-to-BS link.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import SPEED_OF_LIGHT, associate_users


def los_probability(d: float, h: float, psi: float, beta: float) -> float:
    """Elevation-dependent LoS probability, strictly inside (0, 1), of a link
    of length d > 0 with vertical separation 0 <= h <= d."""
    elevation_deg = math.degrees(math.asin(h / d))
    return 1.0 / (1.0 + psi * math.exp(-beta * (elevation_deg - psi)))


def free_space_path_loss(d: float, f: float) -> float:
    """FSPL in dB at distance d (m) and frequency f (Hz)."""
    return 20.0 * math.log10(d) + 20.0 * math.log10(f) + 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)


def avg_path_loss(d: float, h: float, params) -> float:
    """LoS/NLoS-probability-weighted average path loss in dB of a link of
    length d with vertical separation h."""
    p_los = los_probability(d, h, params.psi, params.beta)
    fspl = free_space_path_loss(d, params.frequency)
    return fspl + p_los * params.mu_los + (1.0 - p_los) * params.mu_nlos


def user_rate(sinr: float, bandwidth: float) -> float:
    """Shannon rate in bps; monotone in SINR."""
    if sinr < 0:
        raise ValueError("sinr must be >= 0")
    return bandwidth * math.log2(1.0 + sinr)


def sum_user_rate(scenario, uav_positions: np.ndarray, params) -> float:
    """Objective f1: total rate of all users under nearest-UAV association."""
    user_xyz = scenario.user_xyz
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
        rx = np.empty(len(members))
        for i, u in enumerate(members):
            delta = scenario.user_xyz[u] - uav_positions[v]
            loss_db = avg_path_loss(float(np.linalg.norm(delta)), abs(float(delta[2])), params)
            rx[i] = params.user_tx_power * 10.0 ** (-loss_db / 10.0)
        total = rx.sum()
        for i, u in enumerate(members):
            sinr = rx[i] / (total - rx[i] + params.noise_watts)
            rates[u] = user_rate(sinr, params.bandwidth)
    return rates
