"""Virtual antenna array: array factor, gain normalization, cluster-to-BS SNR.

The gain denominator (1/4pi) * integral of |F|^2 over the sphere has the exact
closed form sum_ij w_i w_j sinc(p d_ij) for isotropic elements; that is the
production path. Spherical quadrature exists purely as an independent oracle,
because at centimeter wavelengths and inter-UAV spacings of tens of meters the
integrand oscillates far too fast for quadrature to be practical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkGeometry, avg_path_loss


@dataclass(frozen=True)
class ArraySpec:
    """Element positions (n, 3) in meters, excitation weights (n,), wavelength."""

    positions: np.ndarray
    weights: np.ndarray
    wavelength: float

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pos.shape[0] != w.shape[0] or pos.shape[0] < 1 or pos.shape[1] != 3:
            raise ValueError("positions must be (n, 3) with matching weights (n,)")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be > 0")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def phase_constant(self) -> float:
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class QuadratureSpec:
    n_theta: int = 512
    n_phi: int = 1024

    def __post_init__(self):
        if self.n_theta < 8 or self.n_phi < 8:
            raise ValueError("quadrature resolution must be >= 8 per axis")


def array_factor(spec: ArraySpec, theta: float, phi: float) -> complex:
    """Complex array factor in direction (theta, phi)."""
    st, ct = math.sin(theta), math.cos(theta)
    direction = np.array([st * math.cos(phi), st * math.sin(phi), ct])
    phases = spec.phase_constant * (spec.positions @ direction)
    return complex(np.sum(spec.weights * np.exp(1j * phases)))


def pairwise_sinc_sum(xyz: np.ndarray, weights: np.ndarray, phase_constant: float) -> float:
    """Sum_ij w_i w_j sinc(p * d_ij) with sinc(x) = sin(x)/x, sinc(0) = 1."""
    xyz = np.asarray(xyz, dtype=float)
    w = np.asarray(weights, dtype=float)
    diff = xyz[:, None, :] - xyz[None, :, :]
    x = phase_constant * np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
    return float(w @ s @ w)


def denominator_closed_form(spec: ArraySpec) -> float:
    """(1/4pi) * integral of |F|^2 over the sphere, exact for isotropic elements."""
    return pairwise_sinc_sum(spec.positions, spec.weights, spec.phase_constant)


def denominator_quadrature(spec: ArraySpec, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Oracle evaluation of the same normalization by spherical quadrature.

    Gauss-Legendre in cos(theta), uniform midpoint rule in phi (spectrally
    accurate for the periodic azimuth).
    """
    nodes, gl_weights = np.polynomial.legendre.leggauss(quad.n_theta)
    # nodes are cos(theta) in [-1, 1]
    sin_theta = np.sqrt(1.0 - nodes**2)
    phis = -math.pi + (np.arange(quad.n_phi) + 0.5) * (2.0 * math.pi / quad.n_phi)
    dirs = np.empty((quad.n_theta, quad.n_phi, 3))
    dirs[:, :, 0] = sin_theta[:, None] * np.cos(phis)[None, :]
    dirs[:, :, 1] = sin_theta[:, None] * np.sin(phis)[None, :]
    dirs[:, :, 2] = nodes[:, None]
    phases = spec.phase_constant * np.tensordot(dirs, spec.positions.T, axes=1)
    field = np.tensordot(np.exp(1j * phases), spec.weights, axes=1)
    mag2 = np.abs(field) ** 2
    integral = (2.0 * math.pi / quad.n_phi) * float(gl_weights @ mag2.sum(axis=1))
    return integral / (4.0 * math.pi)


def array_gain(spec: ArraySpec, theta_bs: float, phi_bs: float, eta: float) -> float:
    """Gain toward (theta_bs, phi_bs): |F|^2 * eta / closed-form denominator."""
    denominator = denominator_closed_form(spec)
    if denominator <= 0:
        raise ValueError("degenerate array: all-zero weights")
    return abs(array_factor(spec, theta_bs, phi_bs)) ** 2 * eta / denominator


def direction_to(origin: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """(theta, phi) of the far-field direction from origin toward target."""
    delta = np.asarray(target, dtype=float) - np.asarray(origin, dtype=float)
    r = float(np.linalg.norm(delta))
    if r == 0:
        raise ValueError("coincident origin and target")
    return math.acos(float(delta[2]) / r), math.atan2(float(delta[1]), float(delta[0]))


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
    cluster's centroid (far-field BS).
    """
    members = list(member_ids)
    if not members:
        raise ValueError("empty cluster")
    pos = np.asarray(uav_positions, dtype=float)[members]
    bs_xyz = np.asarray(bs_xyz, dtype=float)
    centroid = pos.mean(axis=0)
    geom = LinkGeometry.between(centroid, bs_xyz)
    loss_db = avg_path_loss(geom, params)
    path = 10.0 ** (-loss_db / 10.0)
    if len(members) == 1:
        received = params.uav_tx_power * path
    else:
        w = np.asarray(weights, dtype=float)[members]
        # element by element, as sum_v w_v^2 P_v; factoring P_v out changes the last bits
        p_total = float(np.sum(w**2 * params.uav_tx_power))
        if p_total == 0.0:
            return 0.0
        spec = ArraySpec(pos, w, params.wavelength)
        theta, phi = direction_to(centroid, bs_xyz)
        received = p_total * array_gain(spec, theta, phi, params.eta) * path
    return received / params.noise_watts
