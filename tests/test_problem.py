import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dcsf import Bounds, SystemParams, beamforming, channel, generate_scenario, solver
from dcsf.solver import _canonical, nondominated_sort
from dcsf.problem import (
    ClusterAssignment,
    EncodingError,
    Individual,
    ObjectiveTriple,
    cluster_semantic_terms,
    dominance_matrix,
    evaluate,
    violations_report,
)
from dcsf.scenario import Scenario, fleet_close_pairs, fleet_violations
from dcsf.semantic import semantic_terms
from oracles import (
    canonicalize_labels,
    close_pairs_double_loop,
    cluster_snr_one,
    clusters_of,
    f2_by_cluster,
    fake_pool,
    lent_terms,
    merge_labels,
    per_user_rates,
    random_individual,
    sum_user_rate_einsum,
    total_flight_energy_per_uav,
    violation_double_loop,
)


def test_assignment_requires_canonical_labels():
    ClusterAssignment((1, 2, 1))
    with pytest.raises(EncodingError):
        ClusterAssignment((1, 3, 3))  # label 2 missing
    with pytest.raises(EncodingError):
        ClusterAssignment(())


def _canonical_one(raw_labels, k_values):
    """`solver._canonical` of one row, its k padded to the row's length."""
    k_raw = np.zeros((1, max(len(raw_labels), len(k_values))), dtype=int)
    k_raw[0, : len(k_values)] = k_values
    [(assignment, k)] = _canonical(np.array([raw_labels]), k_raw)
    return assignment, k


def test_canonicalize_first_appearance_order():
    assignment, k = _canonical_one([3, 1, 3, 2], [10, 20, 30])
    assert assignment.labels == (1, 2, 1, 3)
    # k entries follow their clusters: 3 -> 1, 1 -> 2, 2 -> 3
    assert list(k) == [30, 10, 20]


def test_canonicalize_idempotent():
    assignment, k = _canonical_one([1, 2, 1], [5, 7])
    again, k2 = _canonical_one(assignment.labels, k)
    assert again.labels == assignment.labels
    assert list(k2) == list(k)


def test_canonicalize_drops_absent_labels():
    assignment, k = _canonical_one([4, 4, 2], [1, 2, 3, 4])
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


def test_evaluate_matches_independent_scalar_paths(small_scenario, rng):
    params = SystemParams()
    ind = random_individual(small_scenario, rng)
    obj = evaluate(ind, small_scenario, params)
    # f1 via the scalar per-user path
    assert obj.f1 == pytest.approx(per_user_rates(small_scenario, ind.q, params).sum(), rel=1e-9)
    assert obj.f2 == pytest.approx(f2_by_cluster(ind, small_scenario, params), rel=1e-9)


def test_evaluate_reads_transmit_powers_from_params(small_scenario, rng):
    ind = random_individual(small_scenario, rng)
    quiet = evaluate(ind.copy(), small_scenario, SystemParams())
    params = SystemParams(user_tx_power=1.0, uav_tx_power=1.0)
    loud = evaluate(ind, small_scenario, params)
    # more power lifts every SINR and SNR; the flight energy does not depend on it
    assert loud.f1 > quiet.f1
    assert loud.f2 > quiet.f2
    assert loud.f3 == quiet.f3
    assert loud.f1 == pytest.approx(per_user_rates(small_scenario, ind.q, params).sum(), rel=1e-9)
    assert loud.f2 == pytest.approx(f2_by_cluster(ind, small_scenario, params), rel=1e-9)


def test_in_bounds_individual_with_spread_uavs_is_feasible_on_c1_c2(small_scenario):
    params = SystemParams()
    a = ClusterAssignment((1, 2, 3))
    q = np.array([[100.0, 100.0, 80.0], [400.0, 100.0, 80.0], [250.0, 400.0, 80.0]])
    ind = Individual(a, q, np.ones(3), np.array([5, 5, 5]))
    evaluate(ind, small_scenario, params)
    report = violations_report(ind, small_scenario, params)
    assert not any(v.startswith(("C1", "C2")) for v in report)


def test_violation_penalizes_bounds_and_proximity(small_scenario):
    params = SystemParams()
    a = ClusterAssignment((1, 2, 3))
    q = np.array([[-50.0, 100.0, 80.0], [100.0, 100.0, 80.0], [101.0, 100.0, 80.0]])
    ind = Individual(a, q, np.ones(3), np.array([5, 5, 5]))
    evaluate(ind, small_scenario, params)
    assert ind.violation > 0
    report = violations_report(ind, small_scenario, params)
    assert any(v.startswith("C1") for v in report)
    assert any(v.startswith("C2") for v in report)


def one_fleet_close_pairs(q, d_min):
    """`fleet_close_pairs` on the one-fleet stack q[None], as (i, j, d)."""
    return [hit[1:] for hit in fleet_close_pairs(q[None], d_min)]


def test_close_pairs_match_double_loop_on_crowded_fleets(rng):
    params = SystemParams()
    d_min = params.d_min
    for n in (2, 8, 24):
        scn = generate_scenario(10, n, Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0),
                                (2000.0, 2000.0, 0.0), seed=n)
        for spread in (2.0, 6.0, 15.0):  # box sides of a few d_min: most pairs are close
            q = np.array([250.0, 250.0, 80.0]) + rng.random((n, 3)) * spread
            assert one_fleet_close_pairs(q, d_min) == close_pairs_double_loop(q, d_min)
            ind = Individual(ClusterAssignment(tuple(range(1, n + 1))), q, np.ones(n), np.full(n, 5))
            evaluate(ind, scn, params)
            assert ind.violation == violation_double_loop(ind, scn, params)
            report = violations_report(ind, scn, params)
            c2 = [line for line in report if line.startswith("C2")]
            assert len(c2) == len(close_pairs_double_loop(q, d_min))


def test_close_pairs_at_the_d_min_boundary(rng):
    d_min = SystemParams().d_min
    # exactly d_min apart along an axis: not a violation
    q = np.array([[0.0, 0.0, 80.0], [d_min, 0.0, 80.0], [0.0, d_min, 80.0]])
    assert one_fleet_close_pairs(q, d_min) == close_pairs_double_loop(q, d_min) == []
    # pairs within a few ulps of d_min in random directions fall on both sides
    sides = set()
    for _ in range(200):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        scale = d_min * (1.0 + rng.integers(-4, 5) * np.finfo(float).eps)
        base = rng.random(3) * 100.0
        q = np.array([base, base + u * scale, base - u * scale / 2.0])
        expected = close_pairs_double_loop(q, d_min)
        assert one_fleet_close_pairs(q, d_min) == expected
        sides.add((0, 1) in [(i, j) for i, j, _ in expected])
    assert sides == {True, False}


def test_batched_violation_and_f3_equal_the_double_loop_oracles(rng):
    """One population evaluation over crowded fleets, fleets with pairs a few
    ulps either side of d_min (inside the screen's slack), fleets with a UAV
    on a corner of the bounds and fleets outside the bounds gives each member
    the double loop's violation, the per-UAV f3 and the einsum oracle's f1,
    under ==;
    `fleet_violations` over the same stack gives the amounts the evaluation
    read and one line per breach the double loops find."""
    params = SystemParams()
    d_min = params.d_min
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    lower, upper = bounds.lower, bounds.upper
    for n in (2, 8, 24):
        scn = generate_scenario(30, n, bounds, (2000.0, 2000.0, 0.0), seed=n)
        batch = []
        for case in range(12):
            q = lower + rng.random((n, 3)) * (upper - lower)
            if case % 4 == 0:  # UAV 0 on a corner of the bounds: inside
                q[0] = np.where(rng.random(3) < 0.5, lower, upper)
            elif case % 4 == 1:  # crowded: a box a few d_min wide
                q = np.array([250.0, 250.0, 80.0]) + rng.random((n, 3)) * rng.choice([2.0, 6.0, 15.0])
            elif case % 4 == 2:  # UAV 1 within a few ulps of d_min from UAV 0
                u = rng.normal(size=3)
                q[1] = q[0] + u / np.linalg.norm(u) * d_min * (1.0 + rng.integers(-4, 5) * np.finfo(float).eps)
            elif case % 4 == 3:  # the last UAV, and perhaps others, beyond the bounds
                q += np.where(rng.random((n, 3)) < 0.2, rng.normal(scale=100.0, size=(n, 3)), 0.0)
                q[-1] = np.where(rng.random(3) < 0.5, lower - 1.0, upper + 1.0) * (1.0 + rng.random(3))
            batch.append(random_individual(scn, rng))
            batch[-1].q = q
        solver.evaluate_population(batch, scn, params)
        q = np.stack([ind.q for ind in batch])
        amounts, lines = fleet_violations(q, bounds, d_min)
        for ind, amount, fleet_lines in zip(batch, amounts, lines):
            assert ind.violation == violation_double_loop(ind, scn, params)
            assert ind.objectives.f3 == total_flight_energy_per_uav(scn, ind.q, params)
            assert ind.fleet_terms[2] == amount
            assert ind.fleet_terms[0] == ind.objectives.f1 == sum_user_rate_einsum(scn, ind.q, params)[0]
            assert (amount == 0.0) == (fleet_lines == [])
            outside = [i for i in range(n) if not all(lower[a] <= ind.q[i, a] <= upper[a] for a in range(3))]
            assert fleet_lines == (
                [f"C1: UAV {i} at {ind.q[i].tolist()} outside deployment region" for i in outside]
                + [f"C2: UAVs {i} and {j} at distance {d:.3f} m < d_min {d_min} m"
                   for i, j, d in close_pairs_double_loop(ind.q, d_min)])
            assert violations_report(ind, scn, params)[:len(fleet_lines)] == fleet_lines
        inside = [bool(((ind.q >= lower) & (ind.q <= upper)).all()) for ind in batch]
        assert True in inside and False in inside
        assert any(close_pairs_double_loop(ind.q, d_min) for ind in batch)
    # a NaN coordinate is outside the bounds
    q = np.array([[[100.0, 100.0, 80.0], [200.0, np.nan, 80.0]]])
    amounts, lines = fleet_violations(q, bounds, d_min)
    assert amounts[0] != 0.0 and lines == [["C1: UAV 1 at [200.0, nan, 80.0] outside deployment region"]]


def test_low_similarity_contributes_violation(small_scenario):
    params = SystemParams()
    a = ClusterAssignment((1, 2, 3))
    q = np.array([[100.0, 100.0, 80.0], [400.0, 100.0, 80.0], [250.0, 400.0, 80.0]])
    # k_min with a weak weight forces low similarity toward the distant BS
    ind = Individual(a, q, np.full(3, 0.01), np.array([1, 1, 1]))
    evaluate(ind, small_scenario, params)
    if np.any(semantic_terms(ind.cluster_snr, ind.k, params)[1] < params.xi_threshold):
        assert ind.violation > 0


def test_dominance_feasible_beats_infeasible(small_scenario, rng):
    params = SystemParams()
    a = random_individual(small_scenario, rng)
    b = random_individual(small_scenario, rng)
    evaluate(a, small_scenario, params)
    evaluate(b, small_scenario, params)
    a.violation = 0.0
    b.violation = 2.0
    assert nondominated_sort([a, b]) == [[0], [1]]


def test_dominance_among_infeasible_by_violation(small_scenario, rng):
    params = SystemParams()
    a = random_individual(small_scenario, rng)
    b = random_individual(small_scenario, rng)
    evaluate(a, small_scenario, params)
    evaluate(b, small_scenario, params)
    a.violation, b.violation = 1.0, 3.0
    assert nondominated_sort([a, b]) == [[0], [1]]


obj_triple = st.tuples(
    st.floats(0.0, 1e9, allow_nan=False),
    st.floats(0.0, 1e7, allow_nan=False),
    st.floats(0.0, 1e6, allow_nan=False),
)


@given(obj_triple)
def test_dominance_irreflexive(a):
    assert not dominance_matrix(fake_pool([a]))[0, 0]


@given(obj_triple, obj_triple)
def test_dominance_antisymmetric(a, b):
    dom = dominance_matrix(fake_pool([a, b]))
    assert not (dom[0, 1] and dom[1, 0])


@given(obj_triple, obj_triple, obj_triple)
def test_dominance_transitive(a, b, c):
    dom = dominance_matrix(fake_pool([a, b, c]))
    if dom[0, 1] and dom[1, 2]:
        assert dom[0, 2]


def test_a_child_one_weight_away_from_its_parent_rates_one_cluster(monkeypatch):
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(30, 16, bounds, (2000.0, 2000.0, 0.0), seed=5)
    params = SystemParams()
    rng = np.random.default_rng(5)
    real_snr = beamforming.cluster_snr
    calls = []  # clusters rated per cluster_snr call

    def counting_snr(fleets, *args, **kwargs):
        calls.append(len(fleets))
        return real_snr(fleets, *args, **kwargs)

    for _ in range(20):
        parent = random_individual(scn, rng)
        evaluate(parent, scn, params)
        child = Individual(parent.assignment, parent.q.copy(), parent.w.copy(), parent.k.copy())
        child.w[int(rng.integers(0, scn.n_uavs))] *= 0.5
        fresh = Individual(child.assignment, child.q.copy(), child.w.copy(), child.k.copy())
        evaluate(fresh, scn, params)
        calls.clear()
        monkeypatch.setattr(beamforming, "cluster_snr", counting_snr)
        evaluate(child, scn, params, parent)
        monkeypatch.setattr(beamforming, "cluster_snr", real_snr)
        assert sum(calls) == 1
        assert child.objectives == fresh.objectives and child.violation == fresh.violation
        assert np.array_equal(child.cluster_snr, fresh.cluster_snr)


def test_a_mixed_batch_stores_the_per_cluster_oracle_snrs():
    # children whose only stale clusters are singletons, children with a stale
    # multi-UAV cluster and unchanged children, rated in one batch
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(30, 10, bounds, (2000.0, 2000.0, 0.0), seed=8)
    params = SystemParams()
    rng = np.random.default_rng(8)
    assignment = ClusterAssignment((1, 2, 3, 3, 4, 4, 4, 5, 6, 6))
    singletons, multis = [0, 1, 7], [2, 3, 4, 5, 6, 8, 9]
    children, parents = [], []
    for _ in range(10):
        parent = Individual(assignment, bounds.lower + rng.random((10, 3)) * (bounds.upper - bounds.lower),
                            rng.random(10), rng.integers(params.k_min, params.k_max + 1, 6))
        evaluate(parent, scn, params)
        for moved in ([int(rng.choice(singletons))], [int(rng.choice(multis))], []):
            child = Individual(assignment, parent.q.copy(), parent.w.copy(), parent.k.copy())
            child.q[moved] += rng.uniform(-3.0, 3.0, (len(moved), 3))
            children.append(child)
            parents.append(parent)
    order = rng.permutation(len(children)).tolist()
    evaluate([children[i] for i in order], scn, params, [parents[i] for i in order])
    for child in children:
        sinc = beamforming.sinc_matrix(child.q, params)
        for members, snr in zip(clusters_of(assignment), child.cluster_snr.tolist()):
            assert snr == pytest.approx(cluster_snr_one(members, child.q, child.w, scn.bs_xyz, params, sinc),
                                        rel=1e-12), members


_LENDING_SCENARIO = generate_scenario(30, 8, Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0), (2000.0, 2000.0, 0.0),
                                      seed=3)


def _child_of(parent, structure, change, v, rng):
    """A child of `parent` with its clusters kept, relabelled, two merged,
    UAV v split off or drawn afresh, then one value of UAV v changed: Q by
    one ulp, w by one ulp, or w from 0.0 to -0.0 (UAV 0's w is 0.0)."""
    params = SystemParams()
    assignment, k, n = parent.assignment, parent.k.copy(), parent.assignment.n_clusters
    if structure == "relabel":  # the same clusters under other labels
        perm = rng.permutation(n)
        assignment, k = ClusterAssignment(tuple(int(perm[c - 1]) + 1 for c in assignment.labels)), k[np.argsort(perm)]
    elif structure == "merge" and n > 1:
        survivor, absorbed = rng.choice(n, 2, replace=False) + 1
        assignment, k = merge_labels(assignment, k, int(survivor), int(absorbed))
    elif structure == "split" and assignment.labels.count(assignment.labels[v]) > 1:
        labels = list(assignment.labels)
        labels[v] = n + 1
        assignment, k = ClusterAssignment(tuple(labels)), np.append(k, params.k_min)
    elif structure == "random":
        raw = rng.integers(1, len(parent.w) + 1, len(parent.w))
        assignment, k = canonicalize_labels(raw, rng.integers(params.k_min, params.k_max + 1, int(raw.max())))
    child = Individual(assignment, parent.q.copy(), parent.w.copy(), k)
    if change == "q-ulp":
        child.q[v, 0] = np.nextafter(child.q[v, 0], np.inf)
    elif change == "w-ulp":
        child.w[v] = np.nextafter(child.w[v], np.inf)
    elif change == "negative-zero":
        child.w[0] = -0.0
    return child


_CHILD = st.tuples(st.integers(-1, 2), st.sampled_from(["same", "relabel", "merge", "split", "random"]),
                   st.sampled_from(["none", "q-ulp", "w-ulp", "negative-zero"]), st.integers(0, 7))


@settings(max_examples=80, deadline=None)
@example(seed=0, specs=[(0, "same", "none", 1), (-1, "same", "none", 1), (0, "relabel", "w-ulp", 2),
                        (1, "merge", "none", 0), (1, "split", "q-ulp", 3), (2, "same", "negative-zero", 0),
                        (2, "random", "none", 5)])
@given(st.integers(0, 2**32 - 1), st.lists(_CHILD, min_size=1, max_size=8))
def test_batch_lending_equals_the_per_individual_rule(seed, specs):
    """A mixed batch takes, bit for bit, the SNRs and fleet terms the
    per-individual rule `lent_terms` lends, and `cluster_snr` rates exactly
    the clusters that rule leaves stale, in batch order."""
    scn, params = _LENDING_SCENARIO, SystemParams()
    rng = np.random.default_rng(seed)
    parents = [random_individual(scn, rng) for _ in range(3)]
    for parent in parents:
        parent.w[0] = 0.0
    evaluate(parents, scn, params)
    children, lenders = [], []
    for lender, structure, change, v in specs:
        children.append(_child_of(parents[max(lender, 0)], structure, change, v, rng))
        lenders.append(parents[lender] if lender >= 0 else None)
    rules = [lent_terms(child, lender) for child, lender in zip(children, lenders)]
    fresh = [Individual(c.assignment, c.q.copy(), c.w.copy(), c.k.copy()) for c in children]
    evaluate(fresh, scn, params)
    rated, real_snr = [], beamforming.cluster_snr

    def recording_snr(fleets, members, *args):
        rated.extend(zip(fleets.tolist(), map(tuple, map(np.flatnonzero, members))))
        return real_snr(fleets, members, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(beamforming, "cluster_snr", recording_snr)
        evaluate(children, scn, params, lenders)
    assert rated == [(f, members) for f, (child, (lent, _)) in enumerate(zip(children, rules))
                     for i, members in enumerate(clusters_of(child.assignment)) if i not in lent]
    for child, again, (lent, fleet_terms) in zip(children, fresh, rules):
        want = [lent.get(i, snr) for i, snr in enumerate(again.cluster_snr.tolist())]
        assert child.cluster_snr.tobytes() == np.array(want).tobytes()
        if fleet_terms is None:
            assert child.fleet_terms == again.fleet_terms
        else:
            assert child.fleet_terms is fleet_terms


def test_a_batch_score_equals_each_individuals_own_sums(rng):
    """f2 and the C6 sum of a batch mixing 1 to 40 clusters per individual
    (across numpy's 8-wide pairwise block) equal each individual's 1-D sums."""
    params = SystemParams()
    batch = []
    for n in rng.permutation(np.repeat(np.arange(1, 41), 3)).tolist():
        k = rng.integers(params.k_min, params.k_max + 1, n)
        ind = Individual(ClusterAssignment(tuple(range(1, n + 1))), np.zeros((n, 3)), np.ones(n), k)
        ind.fleet_terms = (float(rng.random()), float(rng.random()), float(rng.integers(0, 2)) * rng.random())
        # SNRs from -30 to 30 dB, some of them zero
        ind.cluster_snr = 10.0 ** rng.uniform(-3, 3, n) * (rng.random(n) > 0.1)
        batch.append(ind)
    objectives = cluster_semantic_terms(batch, params)
    for ind, objective in zip(batch, objectives, strict=True):
        f1, f3, violation = ind.fleet_terms
        rates, xis = semantic_terms(ind.cluster_snr, ind.k, params)
        assert ind.objectives is objective
        assert objective == ObjectiveTriple(f1, float(rates.copy().sum()), f3)
        assert ind.violation == violation + float(np.maximum(params.xi_threshold - xis, 0.0).sum())
    assert cluster_semantic_terms([], params) == []


def test_evaluate_without_a_parent_ignores_stale_stored_snrs(small_scenario, rng):
    params = SystemParams()
    for _ in range(10):
        ind = random_individual(small_scenario, rng)
        evaluate(ind, small_scenario, params)
        stale, stale_terms = ind.cluster_snr.copy(), ind.fleet_terms
        ind.q += 7.0
        evaluate(ind, small_scenario, params)
        fresh = Individual(ind.assignment, ind.q.copy(), ind.w.copy(), ind.k.copy())
        evaluate(fresh, small_scenario, params)
        assert not np.array_equal(ind.cluster_snr, stale)
        assert np.array_equal(ind.cluster_snr, fresh.cluster_snr)
        assert ind.fleet_terms != stale_terms and ind.fleet_terms == fresh.fleet_terms
        assert ind.objectives == fresh.objectives and ind.violation == fresh.violation


def test_evaluate_with_itself_as_parent_keeps_its_terms(small_scenario, rng, monkeypatch):
    """An individual lent its own terms keeps them all: `evaluate` scores
    no fleet for f1 and rates no cluster."""
    params = SystemParams()
    real_rate, real_snr = channel.sum_user_rate, beamforming.cluster_snr
    fleets, clusters = [], []

    def counting_rate(scenario, q, params):
        fleets.append(len(q))
        return real_rate(scenario, q, params)

    def counting_snr(rated, *args):
        clusters.append(len(rated))
        return real_snr(rated, *args)

    for _ in range(10):
        ind = random_individual(small_scenario, rng)
        evaluate(ind, small_scenario, params)
        before = ind.copy()
        monkeypatch.setattr(channel, "sum_user_rate", counting_rate)
        monkeypatch.setattr(beamforming, "cluster_snr", counting_snr)
        evaluate(ind, small_scenario, params, ind)
        monkeypatch.setattr(channel, "sum_user_rate", real_rate)
        monkeypatch.setattr(beamforming, "cluster_snr", real_snr)
        assert ind.objectives == before.objectives and ind.violation == before.violation
        assert ind.fleet_terms == before.fleet_terms
        assert ind.cluster_snr.tobytes() == before.cluster_snr.tobytes()
        for terms, before_terms in zip(semantic_terms(ind.cluster_snr, ind.k, params),
                                       semantic_terms(before.cluster_snr, before.k, params)):
            assert terms.tobytes() == before_terms.tobytes()
    assert fleets == [0] * 10 and clusters == []


def test_to_dict_from_dict_roundtrip(small_scenario, rng):
    params = SystemParams()
    ind = random_individual(small_scenario, rng)
    evaluate(ind, small_scenario, params)
    doc = ind.to_dict()
    back = Individual.from_dict(doc)
    assert back.assignment.labels == ind.assignment.labels
    assert np.array_equal(back.q, ind.q)
    assert np.array_equal(back.k, ind.k)
    assert back.objectives.as_tuple() == ind.objectives.as_tuple()
    assert back.violation == ind.violation


@pytest.mark.parametrize("field, value", [
    ("Q", [["1.5", "2", "60"], [3.0, 4.0, 60.0]]),
    ("Q", [[1.5, 2, 60], [3.0, True, 60.0]]),
    ("w", ["0.5", True]),
    ("w", [0.5, True]),
    ("violation", "0.0"),
    ("violation", False),
    ("objectives", [True, 2, 3.5]),
    ("objectives", ["1", 2, 3.5]),
    ("w", [0.5, math.nan]),
    ("Q", [[1.5, 2, math.inf], [3.0, 4.0, 60.0]]),
    ("violation", math.nan),
    ("w", [0.5, 10 ** 400]),  # an int beyond the range of a double
])
def test_from_dict_rejects_a_non_number_in_q_w_or_violation(field, value):
    doc = {"c": [1, 2], "Q": [[1.5, 2, 60], [3.0, 4.0, 60.0]], "w": [0.5, 1], "k": [5, 7],
           "objectives": None, "violation": 0}
    assert Individual.from_dict(doc).q.tolist() == [[1.5, 2.0, 60.0], [3.0, 4.0, 60.0]]
    doc[field] = value
    with pytest.raises(EncodingError, match="numbers only"):
        Individual.from_dict(doc)


def test_copy_is_deep_for_arrays(small_scenario, rng):
    ind = random_individual(small_scenario, rng)
    clone = ind.copy()
    clone.q[0, 0] += 1.0
    assert ind.q[0, 0] != clone.q[0, 0]



def _square_scenario(rng):
    """Users and launch positions uniform in a random square area; the BS anywhere."""
    side, (x0, y0) = rng.uniform(300.0, 2000.0), rng.uniform(-3000.0, 3000.0, 2)
    bounds = Bounds(x0, x0 + side, y0, y0 + side, 60.0, 120.0)
    n_users, n_uavs = int(rng.integers(5, 60)), int(rng.integers(2, 13))
    users = np.column_stack([rng.uniform((x0, y0), (x0 + side, y0 + side), (n_users, 2)), np.zeros(n_users)])
    launch = bounds.lower + rng.random((n_uavs, 3)) * (bounds.upper - bounds.lower)
    return Scenario(users, launch, [*rng.uniform(-8000.0, 8000.0, 2), rng.uniform(0.0, 50.0)], bounds, 0)


def _relabeled(scn, ind, rng):
    """The UAVs renumbered at random: Q, w, launch positions and labels permuted alike."""
    perm = rng.permutation(scn.n_uavs)
    k_raw = np.zeros((1, scn.n_uavs), dtype=int)
    k_raw[0, : len(ind.k)] = ind.k
    [(assignment, k)] = _canonical(np.array(ind.assignment.labels)[perm][None], k_raw)
    return (Scenario(scn.user_xyz, scn.uav_initial_xyz[perm], scn.bs_xyz, scn.bounds, scn.seed),
            Individual(assignment, ind.q[perm], ind.w[perm], k))


def _moved(scn, ind, move, bounds):
    return (Scenario(move(scn.user_xyz), move(scn.uav_initial_xyz), move(scn.bs_xyz), bounds, scn.seed),
            Individual(ind.assignment, move(ind.q), ind.w.copy(), ind.k.copy()))


def _shifted(scn, ind, rng):
    b, shift = scn.bounds, np.array([137.5, -42.25, 0.0])
    bounds = Bounds(b.x_min + 137.5, b.x_max + 137.5, b.y_min - 42.25, b.y_max - 42.25, b.z_min, b.z_max)
    return _moved(scn, ind, lambda xyz: xyz + shift, bounds)


def _rotated(scn, ind, rng):
    """A quarter turn about the area's center, which maps the square onto itself."""
    b = scn.bounds
    cx, cy = (b.x_min + b.x_max) / 2, (b.y_min + b.y_max) / 2

    def turn(xyz):
        return np.stack([cx - (xyz[..., 1] - cy), cy + (xyz[..., 0] - cx), xyz[..., 2]], axis=-1)
    return _moved(scn, ind, turn, b)


@pytest.mark.parametrize("transform", [_relabeled, _shifted, _rotated], ids=["relabel", "shift", "rotate"])
def test_objectives_are_invariant_under_relabeling_shift_and_rotation(transform):
    """Metamorphic relations: a relabeled, shifted or rotated scenario and
    individual describe the same deployment, so (f1, f2, f3) and the
    violation agree to 1e-9 relative.

    They agree only to rounding. The objectives and the violation are sums
    of per-UAV, per-user and per-cluster terms; relabeling the UAVs
    reorders those sums (re-canonicalizing reorders the clusters), and
    floating-point addition is not associative. f1, summed per user over
    the same serving UAVs, stays bit-equal. A shift or rotation rounds every
    coordinate anew, and with it the distances, path losses and array
    phases. A C6 shortfall, the small difference of the threshold and a
    similarity, magnifies that rounding in the violation. The measured worst
    cases here are 1.7e-12 for relabeling and 1.7e-10 for the shift and the
    rotation.
    """
    params, rng = SystemParams(), np.random.default_rng(0)
    for case in range(40):
        scn = _square_scenario(rng)
        for _ in range(10):
            ind = random_individual(scn, rng)
            evaluate(ind, scn, params)
            scn2, ind2 = transform(scn, ind, rng)
            evaluate(ind2, scn2, params)
            got, want = (*ind2.objectives.as_tuple(), ind2.violation), (*ind.objectives.as_tuple(), ind.violation)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), case
            if transform is _relabeled:
                assert ind2.objectives.f1 == ind.objectives.f1, case
