"""Probabilistic LoS air-to-ground channel: path loss, SINR, and user rate.

All powers are handled in watts internally; path losses are in dB.
The same model, `path_gain`, serves both the user-to-UAV links and the
cluster-to-BS link.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import SPEED_OF_LIGHT, nearest_uavs


# The free-space loss's term 20 log10(4 pi / c), in dB.
_FSPL_CONSTANT_DB = 20.0 * np.log10(4.0 * np.pi / SPEED_OF_LIGHT)

# Radians to degrees: a multiply by it equals `np.degrees` bit for bit, and
# takes less than half its time.
_DEGREES_PER_RADIAN = 180.0 / math.pi


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
    np.multiply(p_los, _DEGREES_PER_RADIAN, out=p_los)
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
    loss_db += _FSPL_CONSTANT_DB
    loss_db += p_los * params.mu_los
    np.subtract(1.0, p_los, out=p_los)
    p_los *= params.mu_nlos
    loss_db += p_los
    gain = np.divide(loss_db, -10.0, out=loss_db)  # -L / 10, bit for bit
    return np.power(10.0, gain, out=gain)


# Cap on the cells of one block's (block, V, U) float64 score array in
# `sum_user_rate`: 16,383 cells keep it, and so every temporary of the
# block, strictly under 128 KiB, glibc's default mmap threshold. Larger
# temporaries are mapped and unmapped on every call, at a page fault per
# 4 KiB touched.
_BLOCK_CELLS = 128 * 1024 // 8 - 1


def sum_user_rate(scenario, uav_positions: np.ndarray, params):
    """Objective f1: total rate of all users under nearest-UAV association,
    as a float for one fleet (V, 3), or as an (F,) array for a stack of
    fleets (F, V, 3), each entry the float that fleet gives alone.

    The fleets run in blocks of max(1, _BLOCK_CELLS // (V·U)); a block of one
    runs as a single (V, 3) fleet. `scenario.nearest_uavs` screens every
    user of the block against every UAV of its fleet with one matmul and
    computes the direct distance only to each user's winner (and the direct
    (V, U') distances only for users the screen leaves tied); the link
    budget, `path_gain`, then runs in place on the block's (block, U)
    buffers, in the operation order of the out-of-place expressions (the
    oracle `sum_user_rate_einsum` in tests/oracles.py), and each fleet's
    interference totals and rate sum run over its own row, so every result
    is the same bit for bit.
    """
    uav_xyz = np.asarray(uav_positions, dtype=float)
    if uav_xyz.ndim == 2:
        return float(_block_rates(scenario, uav_xyz, params))
    n_fleets, n_uavs = uav_xyz.shape[:2]
    size = max(1, _BLOCK_CELLS // (n_uavs * scenario.n_users))
    rates = np.empty(n_fleets)
    for start in range(0, n_fleets, size):
        if size == 1:
            rates[start] = _block_rates(scenario, uav_xyz[start], params)
        else:
            rates[start:start + size] = _block_rates(scenario, uav_xyz[start:start + size], params)
    return rates


def _block_rates(scenario, uav_xyz: np.ndarray, params):
    """f1 of one fleet (V, 3), a 0-d result, or of each of a stack (B, V, 3)."""
    nearest, d_star, h_star = nearest_uavs(scenario, uav_xyz)
    rx = path_gain(d_star, h_star, params)
    rx *= params.user_tx_power

    n = uav_xyz.shape[-2]
    if uav_xyz.ndim == 3:  # each fleet's users fill bins of their own
        nearest += np.arange(0, n * len(uav_xyz), n)[:, None]
    totals = np.bincount(nearest.ravel(), weights=rx.ravel(), minlength=uav_xyz.size // 3)
    sinr = totals[nearest]
    sinr -= rx
    sinr += params.noise_watts
    np.divide(rx, sinr, out=sinr)
    sinr += 1.0
    return params.bandwidth * np.sum(np.log2(sinr, out=sinr), axis=-1)
