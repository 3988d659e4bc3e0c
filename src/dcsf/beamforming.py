"""Virtual antenna array: array factor, gain normalization, cluster-to-BS SNR.

A multi-UAV cluster transmits as a collaborative array toward the BS with gain

    G = |F(u)|^2 * eta / D,   F(u) = sum_i w_i exp(j p r_i . u),   p = 2 pi / lambda,

where u is the unit vector from the cluster centroid to the BS and D, the
pattern normalization (1/4pi) * integral of |F|^2 over the sphere, has the
exact closed form sum_ij w_i w_j sinc(p d_ij) for isotropic elements. The
tests check it against spherical quadrature (tests/oracles.py), which is no
production path: at centimeter wavelengths and inter-UAV spacings of tens of
meters the integrand oscillates far too fast for quadrature to be practical.

The sinc factors come from one V x V table over the whole fleet,
`sinc_matrix(Q, params)`, built at most once per evaluation and once per
merge pass; each cluster reads its members' block, which equals, bit for
bit, the table of the members alone (the per-cluster oracle in
tests/oracles.py).

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
    return complex(np.add.reduce(w * np.exp(1j * phases)))


def sinc_matrix(uav_positions: np.ndarray, params) -> np.ndarray:
    """sinc(p * d_ij) for every pair of UAVs, with p = 2 pi / lambda,
    sinc(x) = sin(x)/x and sinc(0) = 1."""
    xyz = np.asarray(uav_positions, dtype=float)
    diff = xyz[:, None, :] - xyz[None, :, :]
    x = (2.0 * math.pi / params.wavelength) * np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))


def pairwise_sinc_sum(sinc: np.ndarray, weights: np.ndarray) -> float:
    """Sum_ij w_i w_j sinc(p * d_ij), given the elements' `sinc_matrix`."""
    return float(weights @ sinc @ weights)


def cluster_snr(
    member_ids,
    uav_positions: np.ndarray,
    weights: np.ndarray,
    bs_xyz: np.ndarray,
    params,
    sinc: np.ndarray,
) -> float:
    """SNR of one cluster's link to the BS.

    Every UAV transmits P_v = `params.uav_tx_power`. Multi-UAV clusters
    transmit P_c = sum w^2 P_v with the collaborative array gain, whose
    normalization reads `sinc`, the `sinc_matrix` of `uav_positions`;
    singletons use the plain link budget and do not read it. Path loss and BS
    direction are taken from the cluster's centroid (far-field BS), which
    must not coincide with the BS.
    """
    members = list(member_ids)
    if not members:
        raise ValueError("empty cluster")
    pos = np.asarray(uav_positions, dtype=float)[members]
    n = len(members)
    centroid = np.add.reduce(pos, axis=0) / n
    delta = bs_xyz - centroid
    d = math.sqrt(delta.dot(delta))
    if d == 0:
        raise ValueError("cluster centroid coincides with the BS")
    dz = float(delta[2])
    path = 10.0 ** (-avg_path_loss(d, abs(dz), params) / 10.0)
    if n == 1:
        received = params.uav_tx_power * path
    else:
        w = np.asarray(weights, dtype=float)[members]
        # element by element, as sum_v w_v^2 P_v; factoring P_v out changes the last bits
        p_total = float(np.add.reduce(w**2 * params.uav_tx_power))
        if p_total == 0.0:
            return 0.0
        p = 2.0 * math.pi / params.wavelength
        # through (theta, phi) rather than delta / d; the shortcut changes the last bits
        theta, phi = math.acos(dz / d), math.atan2(float(delta[1]), float(delta[0]))
        # the members' block, C-ordered like a table of the members alone (the matrix
        # product of another layout changes the last bits)
        block = sinc.take(members, 0).take(members, 1)
        gain = abs(array_factor(pos, w, p, theta, phi)) ** 2 * params.eta / pairwise_sinc_sum(block, w)
        received = p_total * gain * path
    return received / params.noise_watts
