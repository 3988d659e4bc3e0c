import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcsf import Bounds, SystemParams, generate_scenario
from dcsf.channel import per_user_rates
from dcsf.beamforming import cluster_snr
from dcsf.problem import (
    ClusterAssignment,
    EncodingError,
    Individual,
    ObjectiveTriple,
    canonicalize_labels,
    close_pairs,
    cluster_semantic_terms,
    dominates,
    dominates_objectives,
    evaluate,
    violations_report,
)
from dcsf.semantic import semantic_similarity


def _individual(scn, rng, params=None):
    params = params or SystemParams()
    n = scn.n_uavs
    raw = rng.integers(1, n + 1, size=n)
    k_raw = rng.integers(params.k_min, params.k_max + 1, size=int(raw.max()))
    assignment, k = canonicalize_labels(raw, k_raw)
    q = scn.bounds.lower + rng.random((n, 3)) * (scn.bounds.upper - scn.bounds.lower)
    w = rng.random(n)
    return Individual(assignment, q, w, k)


def test_assignment_requires_canonical_labels():
    ClusterAssignment((1, 2, 1))
    with pytest.raises(EncodingError):
        ClusterAssignment((1, 3, 3))  # label 2 missing
    with pytest.raises(EncodingError):
        ClusterAssignment(())


def test_clusters_listing():
    a = ClusterAssignment((1, 2, 1, 3))
    assert a.clusters() == [[0, 2], [1], [3]]


def test_canonicalize_first_appearance_order():
    assignment, k = canonicalize_labels([3, 1, 3, 2], [10, 20, 30])
    assert assignment.labels == (1, 2, 1, 3)
    # k entries follow their clusters: 3 -> 1, 1 -> 2, 2 -> 3
    assert list(k) == [30, 10, 20]


def test_canonicalize_idempotent():
    assignment, k = canonicalize_labels([1, 2, 1], [5, 7])
    again, k2 = canonicalize_labels(assignment.labels, k)
    assert again.labels == assignment.labels
    assert list(k2) == list(k)


def test_canonicalize_drops_absent_labels():
    assignment, k = canonicalize_labels([4, 4, 2], [1, 2, 3, 4])
    assert assignment.labels == (1, 1, 2)
    assert list(k) == [4, 2]


def test_individual_shape_validation():
    a = ClusterAssignment((1, 1))
    with pytest.raises(EncodingError):
        Individual(a, np.zeros((2, 3)), np.zeros(2), np.array([1, 2]))  # k too long
    with pytest.raises(EncodingError):
        Individual(a, np.zeros((3, 3)), np.zeros(2), np.array([1]))


def test_objective_triple_rejects_non_finite():
    with pytest.raises(ValueError):
        ObjectiveTriple(float("inf"), 0.0, 0.0)


def _f2_by_cluster(ind, scn, params):
    """f2 by direct per-cluster recomputation."""
    f2 = 0.0
    for i, members in enumerate(ind.assignment.clusters()):
        snr = cluster_snr(members, ind.q, ind.w, scn.bs_xyz, params)
        if snr > 0:
            xi = semantic_similarity(params.similarity, int(ind.k[i]), snr)
            f2 += params.bandwidth * params.info_per_sentence / (int(ind.k[i]) * params.words_per_sentence) * xi
    return f2


def test_evaluate_matches_independent_scalar_paths(small_scenario, rng):
    params = SystemParams()
    ind = _individual(small_scenario, rng)
    obj = evaluate(ind, small_scenario, params)
    # f1 via the scalar per-user path
    assert obj.f1 == pytest.approx(per_user_rates(small_scenario, ind.q, params).sum(), rel=1e-9)
    assert obj.f2 == pytest.approx(_f2_by_cluster(ind, small_scenario, params), rel=1e-9)


def test_evaluate_reads_transmit_powers_from_params(small_scenario, rng):
    ind = _individual(small_scenario, rng)
    quiet = evaluate(ind.copy(), small_scenario, SystemParams())
    params = SystemParams(user_tx_power=1.0, uav_tx_power=1.0)
    loud = evaluate(ind, small_scenario, params)
    # more power lifts every SINR and SNR; the flight energy does not depend on it
    assert loud.f1 > quiet.f1
    assert loud.f2 > quiet.f2
    assert loud.f3 == quiet.f3
    assert loud.f1 == pytest.approx(per_user_rates(small_scenario, ind.q, params).sum(), rel=1e-9)
    assert loud.f2 == pytest.approx(_f2_by_cluster(ind, small_scenario, params), rel=1e-9)


def test_in_bounds_individual_with_spread_uavs_is_feasible_on_c1_c2(small_scenario):
    params = SystemParams()
    a = ClusterAssignment((1, 2, 3))
    q = np.array([[100.0, 100.0, 80.0], [400.0, 100.0, 80.0], [250.0, 400.0, 80.0]])
    ind = Individual(a, q, np.ones(3), np.array([5, 5, 5]))
    evaluate(ind, small_scenario, params)
    _, report = violations_report(ind, small_scenario, params)
    assert not any(v.startswith(("C1", "C2")) for v in report)


def test_violation_penalizes_bounds_and_proximity(small_scenario):
    params = SystemParams()
    a = ClusterAssignment((1, 2, 3))
    q = np.array([[-50.0, 100.0, 80.0], [100.0, 100.0, 80.0], [101.0, 100.0, 80.0]])
    ind = Individual(a, q, np.ones(3), np.array([5, 5, 5]))
    evaluate(ind, small_scenario, params)
    assert ind.violation > 0
    _, report = violations_report(ind, small_scenario, params)
    assert any(v.startswith("C1") for v in report)
    assert any(v.startswith("C2") for v in report)


def _close_pairs_double_loop(q, d_min):
    out = []
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            d = float(np.linalg.norm(q[i] - q[j]))
            if d < d_min:
                out.append((i, j, d))
    return out


def _violation_double_loop(ind, scn, params):
    lower, upper = scn.bounds.lower, scn.bounds.upper
    span = upper - lower
    total = 0.0
    total += float((np.maximum(lower - ind.q, 0.0) / span).sum()
                   + (np.maximum(ind.q - upper, 0.0) / span).sum())
    for _, _, d in _close_pairs_double_loop(ind.q, params.d_min):
        total += (params.d_min - d) / params.d_min
    total += float(np.maximum(params.xi_threshold - ind.cluster_xi, 0.0).sum())
    return total


def test_close_pairs_match_double_loop_on_crowded_fleets(rng):
    params = SystemParams()
    d_min = params.d_min
    for n in (2, 8, 24):
        scn = generate_scenario(10, n, Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0),
                                (2000.0, 2000.0, 0.0), seed=n)
        for spread in (2.0, 6.0, 15.0):  # box sides of a few d_min: most pairs are close
            q = np.array([250.0, 250.0, 80.0]) + rng.random((n, 3)) * spread
            assert close_pairs(q, d_min) == _close_pairs_double_loop(q, d_min)
            ind = Individual(ClusterAssignment(tuple(range(1, n + 1))), q, np.ones(n), np.full(n, 5))
            evaluate(ind, scn, params)
            assert ind.violation == _violation_double_loop(ind, scn, params)
            _, report = violations_report(ind, scn, params)
            c2 = [line for line in report if line.startswith("C2")]
            assert len(c2) == len(_close_pairs_double_loop(q, d_min))


def test_close_pairs_at_the_d_min_boundary(rng):
    d_min = SystemParams().d_min
    # exactly d_min apart along an axis: not a violation
    q = np.array([[0.0, 0.0, 80.0], [d_min, 0.0, 80.0], [0.0, d_min, 80.0]])
    assert close_pairs(q, d_min) == _close_pairs_double_loop(q, d_min) == []
    # pairs within a few ulps of d_min in random directions fall on both sides
    sides = set()
    for _ in range(200):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        scale = d_min * (1.0 + rng.integers(-4, 5) * np.finfo(float).eps)
        base = rng.random(3) * 100.0
        q = np.array([base, base + u * scale, base - u * scale / 2.0])
        expected = _close_pairs_double_loop(q, d_min)
        assert close_pairs(q, d_min) == expected
        sides.add((0, 1) in [(i, j) for i, j, _ in expected])
    assert sides == {True, False}


def test_low_similarity_contributes_violation(small_scenario):
    params = SystemParams()
    a = ClusterAssignment((1, 2, 3))
    q = np.array([[100.0, 100.0, 80.0], [400.0, 100.0, 80.0], [250.0, 400.0, 80.0]])
    # k_min with a weak weight forces low similarity toward the distant BS
    ind = Individual(a, q, np.full(3, 0.01), np.array([1, 1, 1]))
    evaluate(ind, small_scenario, params)
    if np.any(ind.cluster_xi < params.xi_threshold):
        assert ind.violation > 0


def test_dominance_feasible_beats_infeasible(small_scenario, rng):
    params = SystemParams()
    a = _individual(small_scenario, rng)
    b = _individual(small_scenario, rng)
    evaluate(a, small_scenario, params)
    evaluate(b, small_scenario, params)
    a.violation = 0.0
    b.violation = 2.0
    assert dominates(a, b)
    assert not dominates(b, a)


def test_dominance_among_infeasible_by_violation(small_scenario, rng):
    params = SystemParams()
    a = _individual(small_scenario, rng)
    b = _individual(small_scenario, rng)
    evaluate(a, small_scenario, params)
    evaluate(b, small_scenario, params)
    a.violation, b.violation = 1.0, 3.0
    assert dominates(a, b) and not dominates(b, a)


obj_triple = st.tuples(
    st.floats(0.0, 1e9, allow_nan=False),
    st.floats(0.0, 1e7, allow_nan=False),
    st.floats(0.0, 1e6, allow_nan=False),
)


@given(obj_triple)
def test_dominance_irreflexive(a):
    assert not dominates_objectives(a, a)


@given(obj_triple, obj_triple)
def test_dominance_antisymmetric(a, b):
    assert not (dominates_objectives(a, b) and dominates_objectives(b, a))


@given(obj_triple, obj_triple, obj_triple)
def test_dominance_transitive(a, b, c):
    if dominates_objectives(a, b) and dominates_objectives(b, c):
        assert dominates_objectives(a, c)


def test_to_dict_from_dict_roundtrip(small_scenario, rng):
    params = SystemParams()
    ind = _individual(small_scenario, rng)
    evaluate(ind, small_scenario, params)
    doc = ind.to_dict()
    back = Individual.from_dict(doc)
    assert back.assignment.labels == ind.assignment.labels
    assert np.array_equal(back.q, ind.q)
    assert np.array_equal(back.k, ind.k)
    assert back.objectives.as_tuple() == ind.objectives.as_tuple()
    assert back.violation == ind.violation


def test_copy_is_deep_for_arrays(small_scenario, rng):
    ind = _individual(small_scenario, rng)
    clone = ind.copy()
    clone.q[0, 0] += 1.0
    assert ind.q[0, 0] != clone.q[0, 0]
