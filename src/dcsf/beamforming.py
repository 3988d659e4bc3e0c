"""Virtual antenna array: gain normalization and cluster-to-BS SNR, in batches.

A multi-UAV cluster transmits as a collaborative array toward the BS with gain

    G = |F(u)|^2 * eta / D,   F(u) = sum_i w_i exp(j p r_i . u),   p = 2 pi / lambda,

where u is the unit vector from the cluster centroid to the BS and D, the
pattern normalization (1/4pi) * integral of |F|^2 over the sphere, has the
exact closed form sum_ij w_i w_j sinc(p d_ij) for isotropic elements. The
tests check it against spherical quadrature (tests/oracles.py), which is no
production path: at centimeter wavelengths and inter-UAV spacings of tens of
meters the integrand oscillates far too fast for quadrature to be practical.

`cluster_snr` rates clusters of one or more fleets in one call, each given
as a fleet index and a boolean membership row over the fleet's V UAVs.
Clusters of one size are gathered and rated together, so the cost per call
grows with the number of distinct cluster sizes rather than with the number
of clusters. Each group builds the sinc factors of its clusters' own members,
`sinc_matrix` of the gathered positions; a cluster's table equals, bit for
bit, its block of the whole fleet's table. The centroid-to-BS links go
through `channel.path_gain`, the link budget of the user uplinks.

The array factor carries no steering phase: the elements are not
phase-synchronized toward the BS, so a cluster's gain depends on its element
positions at sub-wavelength scale (a lambda/2 shift of one UAV along its BS
bearing can cost over 10 dB). This unsteered model is the current choice and
is pending review; a steered model would replace |F(u)|^2 by (sum_i w_i)^2.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import path_gain
from .scenario import squared_distances


def sinc_matrix(uav_positions: np.ndarray, params) -> np.ndarray:
    """sinc(p * d_ij) for every pair of UAVs of each stacked fleet (..., V,
    3) -> (..., V, V), with p = 2 pi / lambda, sinc(x) = sin(x)/x and sinc(0) = 1."""
    x = np.sqrt(squared_distances(np.asarray(uav_positions, dtype=float)))
    x *= 2.0 * math.pi / params.wavelength
    table = np.sin(x)
    zero = x == 0.0
    x[zero] = 1.0
    table /= x
    table[zero] = 1.0
    return table


def pairwise_sinc_sum(sinc: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum_ij w_i w_j sinc(p * d_ij) of each stacked set of elements, given
    their `sinc_matrix` tables `sinc` (..., n, n) and weights (..., n)."""
    return (weights[..., None, :] @ sinc @ weights[..., :, None])[..., 0, 0]


def cluster_snr(fleets: np.ndarray, members: np.ndarray, uav_positions: np.ndarray, weights: np.ndarray,
                bs_xyz: np.ndarray, params) -> np.ndarray:
    """SNR of each cluster's link to the BS.

    Cluster c is the UAVs set in row c of the boolean (C, V) `members`, of
    fleet `fleets[c]` of the stack `uav_positions` (N, V, 3) and `weights`
    (N, V). Every UAV transmits P_v = `params.uav_tx_power`. Multi-UAV
    clusters transmit P_c = sum w^2 P_v with the collaborative array gain,
    normalized by the members' own `sinc_matrix`; singletons use the plain
    link budget. Path loss and BS direction are taken from the cluster's
    centroid (far-field BS), which must not coincide with the BS.

    Clusters of one size are rated together, with no loop over clusters:
    stacked matrix products and reductions over their trailing per-cluster
    axes, and one `channel.path_gain` call for all their centroid links. The
    one-cluster-at-a-time oracle in tests/oracles.py agrees to rounding.
    """
    fleets, members = np.asarray(fleets), np.asarray(members)
    if members.dtype != bool or members.shape != (len(fleets), uav_positions.shape[1]):
        raise ValueError(f"members must be boolean ({len(fleets)}, {uav_positions.shape[1]}), "
                         f"not {members.dtype} {members.shape}")
    sizes = members.sum(axis=1)
    if not sizes.all():
        raise ValueError("empty cluster")
    snr = np.empty(len(fleets))
    p = 2.0 * math.pi / params.wavelength
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == n)
        # each row's members, in ascending order
        ids = np.nonzero(members[rows])[1].reshape(len(rows), n)
        fleet = fleets[rows][:, None]
        pos = uav_positions[fleet, ids]
        deltas = bs_xyz - np.add.reduce(pos, axis=1) / n
        d = np.sqrt((deltas[:, None, :] @ deltas[:, :, None]).ravel())
        if not d.all():
            raise ValueError("cluster centroid coincides with the BS")
        path = path_gain(d.copy(), np.abs(deltas[:, 2]), params) / params.noise_watts
        if n == 1:
            snr[rows] = params.uav_tx_power * path
            continue
        w = weights[fleet, ids]
        p_totals = np.add.reduce(w**2 * params.uav_tx_power, axis=1)
        phases = p * (pos @ (deltas / d[:, None])[:, :, None])[:, :, 0]
        gains = np.abs(np.add.reduce(w * np.exp(1j * phases), axis=1)) ** 2 * params.eta
        denominators = pairwise_sinc_sum(sinc_matrix(pos, params), w)
        # a cluster of all-zero weights transmits nothing: 0.0, not 0 / 0
        snr[rows] = np.divide(p_totals * gains * path, denominators, out=np.zeros(len(rows)), where=p_totals > 0)
    return snr
