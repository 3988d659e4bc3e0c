import math

import numpy as np
import pytest

from dcsf import SystemParams
from dcsf.beamforming import cluster_snr, pairwise_sinc_sum, sinc_matrix
from oracles import array_factor, avg_path_loss, cluster_snr_one, cluster_snr_textbook, denominator_quadrature, sinc_sum_direct

PARAMS = SystemParams()
LAM = PARAMS.wavelength
P = 2.0 * math.pi / LAM


def _random_array(rng, n=None, max_spacing_wavelengths=10.0):
    n = n or int(rng.integers(2, 7))
    pos = rng.uniform(0, max_spacing_wavelengths * LAM, (n, 3))
    w = rng.uniform(0.0, 1.0, n)
    if np.all(w == 0):
        w[0] = 1.0
    return pos, w


def _snr(members, q, w, bs, params):
    """One cluster of one fleet through the batched `cluster_snr`."""
    return cluster_snr([(0, members)], q[None], w[None], bs, params)[0]


def _link_loss(a, b, params):
    delta = b - a
    return avg_path_loss(float(np.linalg.norm(delta)), abs(float(delta[2])), params)


def test_single_element_denominator_is_weight_squared():
    pos, w = np.zeros((1, 3)), np.array([0.7])
    assert pairwise_sinc_sum(sinc_matrix(pos, PARAMS), w) == pytest.approx(0.49, rel=1e-12)
    assert denominator_quadrature(pos, w, P, 64, 128) == pytest.approx(0.49, rel=1e-6)


def test_colocated_elements_denominator_is_sum_squared():
    w = np.array([0.5, 1.0, 0.25])
    assert pairwise_sinc_sum(sinc_matrix(np.zeros((3, 3)), PARAMS), w) == pytest.approx(w.sum() ** 2, rel=1e-12)


def test_closed_form_matches_quadrature_small_arrays(rng):
    for _ in range(10):
        pos, w = _random_array(rng)
        cf = pairwise_sinc_sum(sinc_matrix(pos, PARAMS), w)
        quad = denominator_quadrature(pos, w, P)
        assert quad == pytest.approx(cf, rel=1e-3)


def test_half_wavelength_pair_sinc_identity():
    # two unit elements lambda/2 apart: denominator = 2 + 2 sinc(pi) = 2 exactly
    pos = np.array([[0.0, 0.0, 0.0], [LAM / 2, 0.0, 0.0]])
    assert pairwise_sinc_sum(sinc_matrix(pos, PARAMS), np.ones(2)) == pytest.approx(2.0, rel=1e-12)


def test_array_factor_peak_is_weight_sum():
    pos = np.array([[0.0, 0.0, 0.0], [3 * LAM, 0.0, 0.0], [7 * LAM, 0.0, 0.0]])
    w = np.array([0.2, 0.9, 0.4])
    # broadside (z axis): all phases vanish because positions have z = 0
    assert abs(array_factor(pos, w, P, 0.0, 0.0)) == pytest.approx(w.sum(), rel=1e-12)


def test_gain_normalization_integrates_to_eta(rng):
    # (1/4pi) integral of G over the sphere equals eta by construction
    pos, w = _random_array(rng, n=4)
    n_theta, n_phi = 128, 256
    nodes, glw = np.polynomial.legendre.leggauss(n_theta)
    phis = -math.pi + (np.arange(n_phi) + 0.5) * (2 * math.pi / n_phi)
    total = 0.0
    denom = pairwise_sinc_sum(sinc_matrix(pos, PARAMS), w)
    for ct, gw in zip(nodes, glw):
        theta = math.acos(ct)
        for phi in phis:
            g = abs(array_factor(pos, w, P, theta, phi)) ** 2 / denom
            total += gw * g * (2 * math.pi / n_phi)
    assert total / (4 * math.pi) == pytest.approx(1.0, rel=2e-3)


def test_cluster_snr_matches_independent_oracle(params):
    rng = np.random.default_rng(11)
    sizes = [1, 1, 32, 32] + [int(v) for v in rng.integers(1, 33, 196)]
    for case, n_uavs in enumerate(sizes):
        q = np.column_stack([rng.uniform(0, 1000, n_uavs), rng.uniform(0, 1000, n_uavs),
                             rng.uniform(60, 120, n_uavs)])
        w = np.zeros(n_uavs) if case % 10 == 3 else rng.uniform(0, 1, n_uavs)
        members = sorted(rng.choice(n_uavs, size=int(rng.integers(1, n_uavs + 1)), replace=False))
        bs = np.array([rng.uniform(-8000, 8000), rng.uniform(-8000, 8000), rng.uniform(0, 50)])
        expected = cluster_snr_textbook(q[members], w[members], bs, params)
        assert _snr(members, q, w, bs, params) == pytest.approx(expected, rel=1e-9), case


def test_centroid_on_the_bs_is_rejected(params):
    q = np.array([[0.0, 0.0, 80.0], [10.0, 0.0, 80.0]])
    with pytest.raises(ValueError):
        _snr([0, 1], q, np.ones(2), np.array([5.0, 0.0, 80.0]), params)
    with pytest.raises(ValueError):
        _snr([0], q, np.ones(2), q[0].copy(), params)


def test_unsteered_gain_follows_sub_wavelength_shifts(params):
    # The array factor has no steering phase toward the BS, so moving one UAV
    # lambda/2 along its own BS bearing turns the pair's sum destructive, and
    # a full lambda restores it.
    bs = np.array([5000.0, 5000.0, 0.0])
    q = np.array([[400.0, 500.0, 90.0], [450.0, 520.0, 95.0]])
    w = np.array([0.8, 0.6])
    bearing = (bs - q[1]) / np.linalg.norm(bs - q[1])

    def snr_db(shift):
        moved = q.copy()
        moved[1] += shift * bearing
        return 10.0 * math.log10(_snr([0, 1], moved, w, bs, params))

    base = snr_db(0.0)
    assert snr_db(LAM / 2) < base - 10.0
    assert snr_db(LAM) == pytest.approx(base, abs=0.1)


def test_singleton_cluster_snr_is_link_budget(params):
    q = np.array([[100.0, 100.0, 80.0]])
    bs = np.array([2000.0, 2000.0, 0.0])
    snr = _snr([0], q, np.array([1.0]), bs, params)
    loss = _link_loss(q[0], bs, params)
    expected = 0.1 * 10 ** (-loss / 10.0) / params.noise_watts
    assert snr == pytest.approx(expected, rel=1e-12)


def test_zero_weights_give_zero_cluster_snr(params):
    q = np.array([[0.0, 0.0, 80.0], [10.0, 0.0, 80.0]])
    bs = np.array([2000.0, 2000.0, 0.0])
    snr = _snr([0, 1], q, np.zeros(2), bs, params)
    assert snr == 0.0


def test_empty_cluster_rejected(params):
    with pytest.raises(ValueError):
        cluster_snr([(0, [])], np.zeros((1, 1, 3)), np.ones((1, 1)), np.ones(3), params)


def test_cophased_pair_beats_singleton(params):
    # two elements along the direction orthogonal to the BS bearing stay co-phased
    bs = np.array([2000.0, 0.0, 0.0])
    q = np.array([[0.0, -25 * LAM, 80.0], [0.0, 25 * LAM, 80.0]])
    snr_pair = _snr([0, 1], q, np.ones(2), bs, params)
    centroid = q.mean(axis=0)
    loss = _link_loss(centroid, bs, params)
    snr_single = 0.1 * 10 ** (-loss / 10.0) / params.noise_watts
    assert snr_pair > 2.0 * snr_single  # beamforming gain on top of power pooling


def test_sinc_table_block_equals_the_per_cluster_sum():
    # 3,000 random clusters of fleets up to 48 UAVs, some closer than a wavelength
    rng = np.random.default_rng(3)
    for case in range(3000):
        n_uavs = int(rng.integers(1, 49))
        spread = 1000.0 if case % 4 else 2.0 * LAM
        q = rng.uniform(0.0, spread, (n_uavs, 3))
        w = rng.uniform(0.0, 1.0, n_uavs)
        members = sorted(rng.choice(n_uavs, size=int(rng.integers(1, n_uavs + 1)), replace=False))
        own = sinc_matrix(q[members], PARAMS)
        assert np.array_equal(sinc_matrix(q, PARAMS)[np.ix_(members, members)], own), case
        assert pairwise_sinc_sum(own, w[members]) == sinc_sum_direct(q[members], w[members], P), case
        # cluster_snr builds the members' own table, which equals their block of the fleet's
        bs = np.array([3000.0, -2000.0, 10.0])
        assert _snr(members, q, w, bs, PARAMS) == pytest.approx(cluster_snr_one(
            list(range(len(members))), q[members], w[members], bs, PARAMS, own), rel=1e-12), case


def test_batched_cluster_snr_equals_the_per_cluster_oracle():
    # 3,000 clusters over 100 calls, each mixing fleets (up to 48 UAVs) and
    # cluster sizes on both sides of numpy's 8-element summation unroll
    rng = np.random.default_rng(14)
    for case in range(100):
        n_uavs, n_fleets = int(rng.integers(1, 49)), int(rng.integers(1, 5))
        spread = 1000.0 if case % 4 else 2.0 * LAM
        q = rng.uniform(0.0, spread, (n_fleets, n_uavs, 3)) + [0.0, 0.0, 60.0]
        w = rng.uniform(0.0, 1.0, (n_fleets, n_uavs))
        w[0, : n_uavs // 2] = 0.0  # all-zero weights for the clusters drawn there
        sinc = np.stack([sinc_matrix(fleet, PARAMS) for fleet in q])
        bs = np.array([rng.uniform(-8000, 8000), rng.uniform(-8000, 8000), rng.uniform(0, 50)])
        clusters = [(int(rng.integers(0, n_fleets)),
                     sorted(rng.choice(n_uavs, size=int(rng.integers(1, n_uavs + 1)), replace=False).tolist()))
                    for _ in range(30)]
        clusters[:3] = [(0, [0]), (n_fleets - 1, list(range(n_uavs))), (0, list(range(max(1, n_uavs // 2))))]
        got = cluster_snr(clusters, q, w, bs, PARAMS)
        assert got.shape == (len(clusters),)
        for (fleet, members), snr in zip(clusters, got):
            assert snr == pytest.approx(cluster_snr_one(members, q[fleet], w[fleet], bs, PARAMS, sinc[fleet]),
                                        rel=1e-12), (case, fleet, members)
            if len(members) > 1 and not w[fleet, members].any():
                assert snr == 0.0, (case, fleet, members)
        # the stacked denominators of one size group, against the direct per-cluster sum
        size = len(clusters[1][1])
        group = [(fleet, members) for fleet, members in clusters if len(members) == size]
        blocks = np.stack([sinc[fleet][np.ix_(members, members)] for fleet, members in group])
        weights = np.stack([w[fleet, members] for fleet, members in group])
        for (fleet, members), denom in zip(group, pairwise_sinc_sum(blocks, weights)):
            assert denom == sinc_sum_direct(q[fleet, members], w[fleet, members], P), (case, fleet, members)
