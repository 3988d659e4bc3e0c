import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcsf import SystemParams
from dcsf.semantic import (
    SimilarityModel,
    SimilarityModelError,
    default_similarity_model,
    semantic_similarity,
    semantic_terms,
)
from oracles import semantic_terms_one

MODEL = default_similarity_model()
PARAMS = SystemParams()


def test_default_table_shape():
    assert MODEL.ks == tuple(range(1, 21))
    assert MODEL.floors[0] == pytest.approx(0.1)
    assert MODEL.floors[-1] == pytest.approx(0.38)
    assert MODEL.midpoints[0] == pytest.approx(12.0)
    assert MODEL.midpoints[-1] == pytest.approx(-4.0)
    assert all(c == 0.35 for c in MODEL.slopes)


def test_similarity_reference_value():
    # k=5: floor 0.1 + 0.28*4/19, midpoint 12 - 16*4/19, slope 0.35, at 20 dB
    xi = semantic_similarity(MODEL, 5, 100.0)
    assert xi == pytest.approx(0.9845567139970124, rel=1e-12)


def _fresh_parameters(model, k):
    ks = np.asarray(model.ks, dtype=float)
    return tuple(float(np.interp(k, ks, col)) for col in (model.floors, model.midpoints, model.slopes))


def test_integer_rows_equal_a_fresh_interpolation():
    gapped = SimilarityModel((1, 5, 20), (0.1, 0.2, 0.38), (12.0, 6.0, -4.0), (0.3, 0.35, 0.4))
    for model in (default_similarity_model(), gapped):
        assert model.rows.shape == (20, 3)  # row k - 1 for k = 1..20
        for k in range(1, 21):
            assert tuple(model.rows[k - 1].tolist()) == _fresh_parameters(model, k)
        # a fractional k, or a k outside the table's span, has no row
        for k in (2.5, 7.25, 0, 21, -3, 40.5):
            with pytest.raises(ValueError):
                semantic_similarity(model, k, 100.0)
            with pytest.raises(ValueError):
                semantic_similarity(model, [3, k], [100.0, 100.0])
    # a knot holds the table row; a k in a gap interpolates
    assert tuple(gapped.rows[5 - 1].tolist()) == (0.2, 6.0, 0.35)
    assert gapped.rows[3 - 1].tolist() == pytest.approx([0.15, 9.0, 0.325])
    # the rows are not part of the model's value
    assert gapped == SimilarityModel((1, 5, 20), (0.1, 0.2, 0.38), (12.0, 6.0, -4.0), (0.3, 0.35, 0.4))


def test_the_rows_stay_out_of_asdict():
    params = SystemParams()
    assert params.similarity.rows.shape == (20, 3)
    doc = asdict(params)
    assert doc == asdict(SystemParams())
    assert "rows" not in doc["similarity"] and "rows" not in repr(params.similarity)


def test_semantic_rate_reference_value():
    sr, _ = semantic_terms(100.0, 5, PARAMS)
    assert sr == pytest.approx(787645.3711976099, rel=1e-12)


def test_semantic_terms_of_a_dead_link_are_zero():
    assert semantic_terms(0.0, 5, PARAMS) == (0.0, 0.0)


@pytest.mark.parametrize("params", [
    PARAMS,
    SystemParams(k_min=3, k_max=9),
    SystemParams(similarity=SimilarityModel((1, 5, 20), (0.1, 0.2, 0.38), (12.0, 6.0, -4.0), (0.3, 0.35, 0.4))),
])
def test_semantic_terms_match_the_scalar_oracle_at_every_k(params):
    snrs = [-1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-30, 1e-12, 0.3, 1.0, 7.5, 1e3, 1e9, math.nan]
    snrs = np.array(snrs + np.random.default_rng(0).lognormal(0.0, 6.0, 50).tolist())
    ks = np.arange(params.k_min, params.k_max + 1)
    rates, xis = semantic_terms(snrs[:, None], ks, params)
    oracle = np.array([[semantic_terms_one(snr, k, params) for k in ks.tolist()] for snr in snrs.tolist()])
    assert rates.shape == xis.shape == (len(snrs), len(ks))
    np.testing.assert_allclose(rates, oracle[..., 0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(xis, oracle[..., 1], rtol=1e-12, atol=0.0)
    # a dead link gives exactly (0, 0)
    assert not rates[:3].any() and not xis[:3].any()
    # at 5e-324 and 1e-300 (-3233 and -3000 dB) exp overflows at every k: each similarity is its floor
    floors = params.similarity.rows[ks - params.similarity.ks[0], 0]
    assert xis[3].tolist() == xis[4].tolist() == floors.tolist()
    # a NaN SNR gives a NaN rate, not a dead link's zero
    assert np.isnan(rates[12]).all()


def test_similarity_logistic_midpoint():
    # at the midpoint SNR the curve sits halfway between floor and one
    a, b, _ = MODEL.rows[3 - MODEL.ks[0]]
    xi = semantic_similarity(MODEL, 3, 10 ** (b / 10.0))
    assert xi == pytest.approx(a + (1.0 - a) / 2.0, rel=1e-12)


def test_similarity_requires_positive_snr():
    with pytest.raises(ValueError):
        semantic_similarity(MODEL, 5, 0.0)
    with pytest.raises(ValueError):
        semantic_similarity(MODEL, 5, -1.0)
    with pytest.raises(ValueError):
        semantic_similarity(MODEL, [5, 6], [1.0, -0.0])


def test_similarity_bounded():
    for k in range(1, 21):
        for snr_db in (-40, -10, 0, 10, 40):
            xi = semantic_similarity(MODEL, k, 10 ** (snr_db / 10.0))
            assert 0.0 < xi < 1.0


@given(k=st.integers(1, 20), g1=st.floats(-40.0, 40.0), g2=st.floats(-40.0, 40.0))
def test_similarity_monotone_in_snr(k, g1, g2):
    lo, hi = sorted((g1, g2))
    xi_lo = semantic_similarity(MODEL, k, 10 ** (lo / 10.0))
    xi_hi = semantic_similarity(MODEL, k, 10 ** (hi / 10.0))
    assert xi_lo <= xi_hi + 1e-15


@given(k=st.integers(1, 19), g=st.floats(-40.0, 40.0))
def test_similarity_monotone_in_k(k, g):
    snr = 10 ** (g / 10.0)
    assert semantic_similarity(MODEL, k, snr) <= semantic_similarity(MODEL, k + 1, snr) + 1e-12


def test_table_validation_rejects_rising_midpoints():
    with pytest.raises(SimilarityModelError):
        SimilarityModel((1, 2), (0.1, 0.2), (0.0, 5.0), (0.3, 0.3))


def test_table_validation_rejects_falling_floors():
    with pytest.raises(SimilarityModelError):
        SimilarityModel((1, 2), (0.3, 0.1), (5.0, 0.0), (0.3, 0.3))


def test_table_validation_rejects_bad_slope_and_floor():
    with pytest.raises(SimilarityModelError):
        SimilarityModel((1,), (0.1,), (0.0,), (0.0,))
    with pytest.raises(SimilarityModelError):
        SimilarityModel((1,), (1.0,), (0.0,), (0.3,))


def test_rate_tradeoff_small_k_boosts_rate_factor():
    # the B*I/(kL) factor doubles when k halves; similarity tempers it
    xi10 = semantic_similarity(MODEL, 10, 1000.0)
    xi20 = semantic_similarity(MODEL, 20, 1000.0)
    r10, _ = semantic_terms(1000.0, 10, PARAMS)
    r20, _ = semantic_terms(1000.0, 20, PARAMS)
    assert r10 / r20 == pytest.approx(2.0 * xi10 / xi20, rel=1e-12)
