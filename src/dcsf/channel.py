"""Probabilistic LoS air-to-ground channel: path loss, SINR, and user rate.

All powers are handled in watts internally; path losses are in dB.
The same model, `path_gain`, serves both the user-to-UAV links and the
cluster-to-BS link.
"""

from __future__ import annotations

import numpy as np

from .scenario import SPEED_OF_LIGHT, nearest_uavs


def path_gain(d: np.ndarray, h: np.ndarray, params) -> np.ndarray:
    """Average channel gain 10^(-L/10) of links of lengths d > 0 with vertical
    separations 0 <= h <= d. The path loss L in dB is the free-space loss
    20 log10(4 pi d f / c), plus mu_los and mu_nlos weighted by the
    elevation-dependent LoS probability. Runs in place: overwrites `d` and
    `h`, and returns the buffer of `d`.
    """
    # p_los = 1 / (1 + psi * exp(-beta * (elevation_deg - psi))), in the buffer of h
    p_los = np.divide(h, d, out=h)
    np.arcsin(p_los, out=p_los)
    np.degrees(p_los, out=p_los)
    p_los -= params.psi
    p_los *= -params.beta
    np.exp(p_los, out=p_los)
    p_los *= params.psi
    p_los += 1.0
    np.divide(1.0, p_los, out=p_los)
    # loss_db = fspl + p_los * mu_los + (1 - p_los) * mu_nlos, in the buffer of d
    loss_db = np.log10(d, out=d)
    loss_db *= 20.0
    loss_db += 20.0 * np.log10(params.frequency)
    loss_db += 20.0 * np.log10(4.0 * np.pi / SPEED_OF_LIGHT)
    loss_db += p_los * params.mu_los
    np.subtract(1.0, p_los, out=p_los)
    p_los *= params.mu_nlos
    loss_db += p_los
    gain = np.negative(loss_db, out=loss_db)
    gain /= 10.0
    return np.power(10.0, gain, out=gain)


def sum_user_rate(scenario, uav_positions: np.ndarray, params) -> float:
    """Objective f1: total rate of all users under nearest-UAV association.

    `scenario.nearest_uavs` screens every user against every UAV with one
    matmul and computes the direct distance only to each user's winner
    (and the direct (V, U') distances only for users the screen leaves
    tied); the link budget, `path_gain`, then runs in place on U-length
    buffers, in the operation order of the out-of-place expressions (the
    oracle `sum_user_rate_einsum` in tests/oracles.py), so the result is
    the same bit for bit.
    """
    uav_xyz = np.asarray(uav_positions, dtype=float)
    nearest, d_star, h_star = nearest_uavs(scenario, uav_xyz)
    rx = path_gain(d_star, h_star, params)
    rx *= params.user_tx_power

    totals = np.bincount(nearest, weights=rx, minlength=len(uav_xyz))
    sinr = totals[nearest]
    sinr -= rx
    sinr += params.noise_watts
    np.divide(rx, sinr, out=sinr)
    sinr += 1.0
    return float(params.bandwidth * np.sum(np.log2(sinr, out=sinr)))
