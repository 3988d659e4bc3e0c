import math

import numpy as np
import pytest

from dcsf import SystemParams
from dcsf.beamforming import (
    ArraySpec,
    QuadratureSpec,
    array_factor,
    array_gain,
    cluster_snr,
    denominator_closed_form,
    denominator_quadrature,
    direction_to,
)
from dcsf.channel import LinkGeometry, avg_path_loss

PARAMS = SystemParams()
LAM = PARAMS.wavelength


def _random_spec(rng, n=None, max_spacing_wavelengths=10.0):
    n = n or int(rng.integers(2, 7))
    pos = rng.uniform(0, max_spacing_wavelengths * LAM, (n, 3))
    w = rng.uniform(0.0, 1.0, n)
    if np.all(w == 0):
        w[0] = 1.0
    return ArraySpec(pos, w, LAM)


def test_single_element_denominator_is_weight_squared():
    spec = ArraySpec(np.zeros((1, 3)), np.array([0.7]), LAM)
    assert denominator_closed_form(spec) == pytest.approx(0.49, rel=1e-12)
    assert denominator_quadrature(spec, QuadratureSpec(64, 128)) == pytest.approx(0.49, rel=1e-6)


def test_colocated_elements_denominator_is_sum_squared():
    w = np.array([0.5, 1.0, 0.25])
    spec = ArraySpec(np.zeros((3, 3)), w, LAM)
    assert denominator_closed_form(spec) == pytest.approx(w.sum() ** 2, rel=1e-12)


def test_closed_form_matches_quadrature_small_arrays(rng):
    for _ in range(10):
        spec = _random_spec(rng)
        cf = denominator_closed_form(spec)
        quad = denominator_quadrature(spec)
        assert quad == pytest.approx(cf, rel=1e-3)


def test_half_wavelength_pair_sinc_identity():
    # two unit elements lambda/2 apart: denominator = 2 + 2 sinc(pi) = 2 exactly
    pos = np.array([[0.0, 0.0, 0.0], [LAM / 2, 0.0, 0.0]])
    spec = ArraySpec(pos, np.ones(2), LAM)
    assert denominator_closed_form(spec) == pytest.approx(2.0, rel=1e-12)


def test_array_factor_peak_is_weight_sum():
    pos = np.array([[0.0, 0.0, 0.0], [3 * LAM, 0.0, 0.0], [7 * LAM, 0.0, 0.0]])
    w = np.array([0.2, 0.9, 0.4])
    spec = ArraySpec(pos, w, LAM)
    # broadside (z axis): all phases vanish because positions have z = 0
    assert abs(array_factor(spec, 0.0, 0.0)) == pytest.approx(w.sum(), rel=1e-12)


def test_gain_normalization_integrates_to_eta(rng):
    # (1/4pi) integral of G over the sphere equals eta by construction
    spec = _random_spec(rng, n=4)
    quad = QuadratureSpec(128, 256)
    nodes, glw = np.polynomial.legendre.leggauss(quad.n_theta)
    phis = -math.pi + (np.arange(quad.n_phi) + 0.5) * (2 * math.pi / quad.n_phi)
    total = 0.0
    denom = denominator_closed_form(spec)
    for ct, gw in zip(nodes, glw):
        theta = math.acos(ct)
        for phi in phis:
            g = abs(array_factor(spec, theta, phi)) ** 2 / denom
            total += gw * g * (2 * math.pi / quad.n_phi)
    assert total / (4 * math.pi) == pytest.approx(1.0, rel=2e-3)


def test_array_gain_rejects_zero_weights():
    spec = ArraySpec(np.zeros((2, 3)), np.zeros(2), LAM)
    with pytest.raises(ValueError):
        array_gain(spec, 0.0, 0.0, 1.0)


def test_direction_to_axes():
    theta, phi = direction_to(np.zeros(3), np.array([0.0, 0.0, 5.0]))
    assert theta == pytest.approx(0.0, abs=1e-12)
    theta, phi = direction_to(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert phi == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        direction_to(np.zeros(3), np.zeros(3))


def test_singleton_cluster_snr_is_link_budget(params):
    q = np.array([[100.0, 100.0, 80.0]])
    bs = np.array([2000.0, 2000.0, 0.0])
    snr = cluster_snr([0], q, np.array([1.0]), bs, params)
    loss = avg_path_loss(LinkGeometry.between(q[0], bs), params)
    expected = 0.1 * 10 ** (-loss / 10.0) / params.noise_watts
    assert snr == pytest.approx(expected, rel=1e-12)


def test_zero_weights_give_zero_cluster_snr(params):
    q = np.array([[0.0, 0.0, 80.0], [10.0, 0.0, 80.0]])
    bs = np.array([2000.0, 2000.0, 0.0])
    snr = cluster_snr([0, 1], q, np.zeros(2), bs, params)
    assert snr == 0.0


def test_empty_cluster_rejected(params):
    with pytest.raises(ValueError):
        cluster_snr([], np.zeros((1, 3)), np.ones(1), np.ones(3), params)


def test_cophased_pair_beats_singleton(params):
    # two elements along the direction orthogonal to the BS bearing stay co-phased
    bs = np.array([2000.0, 0.0, 0.0])
    q = np.array([[0.0, -25 * LAM, 80.0], [0.0, 25 * LAM, 80.0]])
    snr_pair = cluster_snr([0, 1], q, np.ones(2), bs, params)
    centroid = q.mean(axis=0)
    loss = avg_path_loss(LinkGeometry.between(centroid, bs), params)
    snr_single = 0.1 * 10 ** (-loss / 10.0) / params.noise_watts
    assert snr_pair > 2.0 * snr_single  # beamforming gain on top of power pooling
