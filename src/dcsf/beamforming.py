"""Virtual antenna array: array factor, gain normalization, cluster-to-BS SNR.

A multi-UAV cluster transmits as a collaborative array toward the BS with gain

    G = |F(u)|^2 * eta / D,   F(u) = sum_i w_i exp(j p r_i . u),   p = 2 pi / lambda,

where u is the unit vector from the cluster centroid to the BS and D, the
pattern normalization (1/4pi) * integral of |F|^2 over the sphere, has the
exact closed form sum_ij w_i w_j sinc(p d_ij) for isotropic elements. The
tests check it against spherical quadrature (tests/oracles.py), which is no
production path: at centimeter wavelengths and inter-UAV spacings of tens of
meters the integrand oscillates far too fast for quadrature to be practical.

The array factor carries no steering phase: the elements are not
phase-synchronized toward the BS, so a cluster's gain depends on its element
positions at sub-wavelength scale (a lambda/2 shift of one UAV along its BS
bearing can cost over 10 dB). This unsteered model is the current choice and
is pending review; a steered model would replace |F(u)|^2 by (sum_i w_i)^2.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import avg_path_loss


def array_factor(pos: np.ndarray, w: np.ndarray, p: float, theta: float, phi: float) -> complex:
    """Complex array factor of elements `pos` (n, 3) with weights `w` (n,) and
    phase constant p = 2 pi / lambda, in direction (theta, phi)."""
    st, ct = math.sin(theta), math.cos(theta)
    direction = np.array([st * math.cos(phi), st * math.sin(phi), ct])
    phases = p * (pos @ direction)
    return complex(np.sum(w * np.exp(1j * phases)))


def pairwise_sinc_sum(xyz: np.ndarray, weights: np.ndarray, phase_constant: float) -> float:
    """Sum_ij w_i w_j sinc(p * d_ij) with sinc(x) = sin(x)/x, sinc(0) = 1."""
    xyz = np.asarray(xyz, dtype=float)
    w = np.asarray(weights, dtype=float)
    diff = xyz[:, None, :] - xyz[None, :, :]
    x = phase_constant * np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
    return float(w @ s @ w)


def cluster_snr(
    member_ids,
    uav_positions: np.ndarray,
    weights: np.ndarray,
    bs_xyz: np.ndarray,
    params,
) -> float:
    """SNR of one cluster's link to the BS.

    Every UAV transmits P_v = `params.uav_tx_power`. Multi-UAV clusters
    transmit P_c = sum w^2 P_v with the collaborative array gain; singletons
    use the plain link budget. Path loss and BS direction are taken from the
    cluster's centroid (far-field BS), which must not coincide with the BS.
    """
    members = list(member_ids)
    if not members:
        raise ValueError("empty cluster")
    pos = np.asarray(uav_positions, dtype=float)[members]
    n = len(members)
    centroid = pos.sum(axis=0) / n
    delta = bs_xyz - centroid
    d = float(np.linalg.norm(delta))
    if d == 0:
        raise ValueError("cluster centroid coincides with the BS")
    dz = float(delta[2])
    path = 10.0 ** (-avg_path_loss(d, abs(dz), params) / 10.0)
    if n == 1:
        received = params.uav_tx_power * path
    else:
        w = np.asarray(weights, dtype=float)[members]
        # element by element, as sum_v w_v^2 P_v; factoring P_v out changes the last bits
        p_total = float(np.sum(w**2 * params.uav_tx_power))
        if p_total == 0.0:
            return 0.0
        p = 2.0 * math.pi / params.wavelength
        # through (theta, phi) rather than delta / d; the shortcut changes the last bits
        theta, phi = math.acos(dz / d), math.atan2(float(delta[1]), float(delta[0]))
        gain = abs(array_factor(pos, w, p, theta, phi)) ** 2 * params.eta / pairwise_sinc_sum(pos, w, p)
        received = p_total * gain * path
    return received / params.noise_watts
