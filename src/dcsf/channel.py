"""Probabilistic LoS air-to-ground channel: path loss, SINR, and user rate.

All powers are handled in watts internally; path losses are in dB.
The same model serves both user-to-UAV links and the cluster-to-BS link.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import SPEED_OF_LIGHT, nearest_uavs


def avg_path_loss(d: float, h: float, params) -> float:
    """Average path loss in dB of a link of length d > 0 with vertical
    separation 0 <= h <= d: the free-space loss 20 log10(4 pi d f / c), plus
    mu_los and mu_nlos weighted by the elevation-dependent LoS probability."""
    elevation_deg = math.degrees(math.asin(h / d))
    p_los = 1.0 / (1.0 + params.psi * math.exp(-params.beta * (elevation_deg - params.psi)))
    fspl = 20.0 * math.log10(d) + params.frequency_loss_db + params.aperture_loss_db
    return fspl + p_los * params.mu_los + (1.0 - p_los) * params.mu_nlos


def sum_user_rate(scenario, uav_positions: np.ndarray, params) -> float:
    """Objective f1: total rate of all users under nearest-UAV association.

    The link budget runs in place on U-length buffers, in the operation order
    of the out-of-place expressions (the oracle `sum_user_rate_einsum` in
    tests/oracles.py), so the result is the same bit for bit.
    """
    user_xyz = scenario.user_xyz
    uav_xyz = np.asarray(uav_positions, dtype=float)
    nearest, d_star = nearest_uavs(user_xyz, uav_xyz)
    # p_los = 1 / (1 + psi * exp(-beta * (elevation_deg - psi)))
    p_los = user_xyz[:, 2] - uav_xyz[nearest, 2]
    np.abs(p_los, out=p_los)
    p_los /= d_star
    np.arcsin(p_los, out=p_los)
    np.degrees(p_los, out=p_los)
    p_los -= params.psi
    p_los *= -params.beta
    np.exp(p_los, out=p_los)
    p_los *= params.psi
    p_los += 1.0
    np.divide(1.0, p_los, out=p_los)
    # loss_db = fspl + p_los * mu_los + (1 - p_los) * mu_nlos, in the buffer of d_star
    loss_db = np.log10(d_star, out=d_star)
    loss_db *= 20.0
    loss_db += 20.0 * np.log10(params.frequency)
    loss_db += 20.0 * np.log10(4.0 * np.pi / SPEED_OF_LIGHT)
    loss_db += p_los * params.mu_los
    np.subtract(1.0, p_los, out=p_los)
    p_los *= params.mu_nlos
    loss_db += p_los
    # rx = P_u * 10 ** (-loss_db / 10)
    rx = np.negative(loss_db, out=loss_db)
    rx /= 10.0
    np.power(10.0, rx, out=rx)
    rx *= params.user_tx_power

    totals = np.bincount(nearest, weights=rx, minlength=len(uav_xyz))
    sinr = totals[nearest]
    sinr -= rx
    sinr += params.noise_watts
    np.divide(rx, sinr, out=sinr)
    sinr += 1.0
    return float(params.bandwidth * np.sum(np.log2(sinr, out=sinr)))
