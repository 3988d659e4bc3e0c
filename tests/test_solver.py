import math

import numpy as np
import pytest

from dcsf import Bounds, SystemParams, beamforming, generate_scenario, metrics, problem
from dcsf.problem import (
    ClusterAssignment,
    Individual,
    ObjectiveTriple,
    canonicalize_labels,
    cluster_semantic_terms,
    dominates,
    evaluate,
)
from dcsf.solver import (
    P_C_INITIAL,
    P_M_INITIAL,
    SolverConfig,
    _decode_monolithic,
    _gene_bounds,
    _genes_of,
    _monolithic_bounds,
    _with_genes,
    crowding_distance,
    enumerate_merge_gains,
    final_front,
    gca_step,
    gso_step,
    initialize_population,
    merge_clusters,
    nondominated_sort,
    nsga2_generation,
    polynomial_mutation,
    run,
    sbx_crossover,
    select_best,
)

PARAMS = SystemParams()


def _fake_pool(objs, violations=None):
    """Individuals with injected objectives; the genome content is irrelevant."""
    a = ClusterAssignment((1,))
    pool = []
    for i, o in enumerate(objs):
        ind = Individual(a, np.array([[0.0, 0.0, 60.0]]), np.ones(1), np.array([5]))
        ind.objectives = ObjectiveTriple(*o)
        ind.violation = 0.0 if violations is None else violations[i]
        pool.append(ind)
    return pool


def brute_force_fronts(pool):
    remaining = list(range(len(pool)))
    fronts = []
    while remaining:
        front = [
            i for i in remaining
            if not any(dominates(pool[j], pool[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def brute_force_crowding(front_objs):
    n, m = front_objs.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(m):
        order = np.argsort(front_objs[:, j], kind="stable")
        lo, hi = front_objs[order[0], j], front_objs[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi > lo:
            for p in range(1, n - 1):
                dist[order[p]] += (front_objs[order[p + 1], j] - front_objs[order[p - 1], j]) / (hi - lo)
    return dist


def test_sort_and_crowding_match_brute_force(rng):
    for _ in range(50):
        m = int(rng.integers(2, 30))
        objs = rng.random((m, 3)) * [1e8, 1e6, 1e4]
        violations = np.where(rng.random(m) < 0.3, rng.random(m), 0.0)
        pool = _fake_pool(objs, violations)
        fronts = nondominated_sort(pool)
        assert [sorted(f) for f in fronts] == [sorted(f) for f in brute_force_fronts(pool)]
        for front in fronts:
            got = crowding_distance([pool[i] for i in front])
            want = brute_force_crowding(np.array([pool[i].objectives.as_tuple() for i in front]))
            assert np.array_equal(got, want)


def test_sort_handles_duplicates():
    pool = _fake_pool([(1.0, 1.0, 1.0)] * 4)
    fronts = nondominated_sort(pool)
    assert fronts == [[0, 1, 2, 3]]
    assert np.all(np.isinf(crowding_distance(pool)) | (crowding_distance(pool) == 0.0))


def test_select_best_keeps_first_front_whole_when_it_fits():
    objs = [(3.0, 1.0, 1.0), (1.0, 3.0, 1.0), (2.0, 2.0, 1.0), (0.5, 0.5, 2.0), (0.4, 0.4, 3.0)]
    pool = _fake_pool(objs)
    chosen = select_best(pool, 3)
    got = {ind.objectives.as_tuple() for ind in chosen}
    assert got == {objs[0], objs[1], objs[2]}


def test_merge_clusters_renumbers_and_keeps_lower_indexed_k():
    a = ClusterAssignment((1, 2, 3, 2))
    k = np.array([11, 22, 33])
    merged, k2 = merge_clusters(a, k, survivor=1, absorbed=2)
    assert merged.labels == (1, 1, 2, 1)
    assert list(k2) == [11, 33]
    # merging in either order yields the same partition and the same k
    merged, k2 = merge_clusters(a, k, survivor=3, absorbed=1)
    assert merged.labels == (2, 1, 2, 1)
    assert list(k2) == [22, 11]
    merged2, k3 = merge_clusters(a, k, survivor=1, absorbed=3)
    assert merged2.labels == (1, 2, 1, 2)
    assert list(k3) == [11, 22]
    with pytest.raises(ValueError):
        merge_clusters(a, k, 1, 1)


def _random_individual(scn, rng):
    n = scn.n_uavs
    raw = rng.integers(1, n + 1, size=n)
    k_raw = rng.integers(PARAMS.k_min, PARAMS.k_max + 1, size=int(raw.max()))
    assignment, k = canonicalize_labels(raw, k_raw)
    q = scn.bounds.lower + rng.random((n, 3)) * (scn.bounds.upper - scn.bounds.lower)
    w = rng.random(n)
    return Individual(assignment, q, w, k)


def test_gca_applied_merges_are_exhaustive_best_and_increase_f2(small_scenario, rng):
    scn = small_scenario
    for _ in range(10):
        ind = _random_individual(scn, rng)
        evaluate(ind, scn, PARAMS)
        f2_before = ind.objectives.f2
        baseline = f2_before
        # replay the greedy loop with explicit exhaustive enumeration
        expected = ind.copy()
        while expected.assignment.n_clusters > 1:
            gains = list(enumerate_merge_gains(expected, scn, PARAMS, baseline))
            best = max(gains, key=lambda g: g[2])
            if best[2] > 0:
                expected.assignment, expected.k = best[3], best[4]
            else:
                break
        gca_step([ind], scn, PARAMS)
        assert ind.assignment.labels == expected.assignment.labels
        assert list(ind.k) == list(expected.k)
        assert ind.objectives.f2 >= f2_before


def _gca_oracle(ind, scn, params):
    """The greedy loop replayed with every ordered merge evaluated from scratch."""
    expected = ind.copy()
    baseline = expected.objectives.f2
    merges = 0
    while expected.assignment.n_clusters > 1:
        best_gain, best = -math.inf, None
        for _, _, gain, assignment, k, _ in enumerate_merge_gains(expected, scn, params, baseline):
            if gain > best_gain:
                best_gain, best = gain, (assignment, k)
        if best_gain <= 0:
            break
        expected.assignment, expected.k = best
        merges += 1
    evaluate(expected, scn, params)
    return expected, merges


@pytest.mark.parametrize("n_uavs,n_individuals", [(8, 8), (16, 4), (24, 3)])
def test_gca_matches_exhaustive_oracle_and_rates_each_cluster_once(n_uavs, n_individuals, monkeypatch):
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, n_uavs, bounds, (2000.0, 2000.0, 0.0), seed=n_uavs)
    rng = np.random.default_rng(n_uavs)
    calls = []
    real_snr = beamforming.cluster_snr

    def counting_snr(*args, **kwargs):
        calls.append(1)
        return real_snr(*args, **kwargs)

    total_merges = 0
    for _ in range(n_individuals):
        ind = _random_individual(scn, rng)
        evaluate(ind, scn, PARAMS)
        n_clusters = ind.assignment.n_clusters
        expected, merges = _gca_oracle(ind, scn, PARAMS)
        total_merges += merges

        calls.clear()
        monkeypatch.setattr(beamforming, "cluster_snr", counting_snr)
        gca_step([ind], scn, PARAMS)
        monkeypatch.setattr(beamforming, "cluster_snr", real_snr)

        assert ind.assignment.labels == expected.assignment.labels
        assert list(ind.k) == list(expected.k)
        assert ind.objectives.f2 == expected.objectives.f2
        assert ind.violation == expected.violation
        # each cluster and each unordered pair rated once, then only the pairs
        # with each merged cluster, plus the final re-evaluation
        budget = n_clusters * (n_clusters - 1) // 2 + n_clusters + merges * n_clusters
        if merges:
            budget += ind.assignment.n_clusters
        assert len(calls) <= budget
    assert total_merges > 0


def test_gca_never_merges_when_no_gain(small_scenario):
    scn = small_scenario
    # a single all-UAV cluster cannot merge further
    a = ClusterAssignment((1, 1, 1))
    ind = Individual(a, scn.uav_initial_xyz.copy(), np.ones(3), np.array([5]))
    evaluate(ind, scn, PARAMS)
    gca_step([ind], scn, PARAMS)
    assert ind.assignment.n_clusters == 1


def _gso_oracle(ind, scn, params):
    """From-scratch exhaustive sweep, sequential over clusters, ascending k."""
    best = ind.copy()
    for i in range(best.assignment.n_clusters):
        candidates = []
        for k in range(params.k_min, params.k_max + 1):
            trial = best.copy()
            trial.k = best.k.copy()
            trial.k[i] = k
            rates, xis = cluster_semantic_terms(trial, scn, params)
            candidates.append((k, float(rates.sum()), float(xis[i])))
        feasible = [c for c in candidates if c[2] >= params.xi_threshold]
        if feasible:
            pick = max(feasible, key=lambda c: (c[1], -c[0]))
        else:
            pick = max(candidates, key=lambda c: (c[2], -c[0]))
        best.k[i] = pick[0]
    evaluate(best, scn, params)
    return best


def test_gso_matches_from_scratch_argmax(small_scenario, rng):
    scn = small_scenario
    for _ in range(10):
        ind = _random_individual(scn, rng)
        oracle = _gso_oracle(ind.copy(), scn, PARAMS)
        gso_step([ind], scn, PARAMS)
        assert list(ind.k) == list(oracle.k)
        assert ind.objectives.f2 == pytest.approx(oracle.objectives.f2, rel=1e-12)


def test_gso_computes_each_cluster_snr_once(monkeypatch):
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, 12, bounds, (2000.0, 2000.0, 0.0), seed=12)
    rng = np.random.default_rng(12)
    population = [_random_individual(scn, rng) for _ in range(6)]
    for ind in population:
        evaluate(ind, scn, PARAMS)
    oracles = [_gso_oracle(ind.copy(), scn, PARAMS) for ind in population]
    n_clusters = sum(ind.assignment.n_clusters for ind in population)
    calls = []
    real_snr = beamforming.cluster_snr

    def counting_snr(*args, **kwargs):
        calls.append(1)
        return real_snr(*args, **kwargs)

    monkeypatch.setattr(beamforming, "cluster_snr", counting_snr)
    gso_step(population, scn, PARAMS)
    # one SNR per cluster for the sweep, one more in the closing evaluate
    assert len(calls) == 2 * n_clusters
    for ind, oracle in zip(population, oracles):
        assert list(ind.k) == list(oracle.k)
        assert ind.objectives == oracle.objectives


def test_sbx_and_mutation_respect_bounds(rng):
    lower = np.zeros(10)
    upper = np.full(10, 5.0)
    for _ in range(100):
        g1 = rng.uniform(0, 5, 10)
        g2 = rng.uniform(0, 5, 10)
        c1, c2 = sbx_crossover(g1, g2, lower, upper, 15.0, rng)
        m = polynomial_mutation(g1, lower, upper, 20.0, rng)
        for child in (c1, c2, m):
            assert np.all(child >= lower) and np.all(child <= upper)


def test_initialize_population_structure(small_scenario):
    cfg = SolverConfig(population_size=8, t_ao=1, t_local=1, seed=0)
    pop = initialize_population(small_scenario, PARAMS, cfg)
    assert len(pop) == 8
    for ind in pop:
        assert len(ind.k) == ind.assignment.n_clusters
        assert np.all(ind.q >= small_scenario.bounds.lower)
        assert np.all(ind.q <= small_scenario.bounds.upper)
        assert np.all((ind.w >= PARAMS.w_min) & (ind.w <= PARAMS.w_max))
        assert np.all((ind.k >= PARAMS.k_min) & (ind.k <= PARAMS.k_max))


def test_nsga2_generation_preserves_size_and_discrete_genes(small_scenario, rng):
    cfg = SolverConfig(population_size=8, t_ao=1, t_local=1, seed=0)
    pop = initialize_population(small_scenario, PARAMS, cfg, rng)
    signatures = {(ind.assignment.labels, tuple(ind.k)) for ind in pop}
    out, _ = nsga2_generation(pop, [_genes_of(ind) for ind in pop], small_scenario, PARAMS,
                              _gene_bounds(small_scenario, PARAMS), _with_genes, 0.9, 0.5, rng)
    assert len(out) == 8
    # offspring inherit (c, k) untouched from some parent
    for ind in out:
        assert (ind.assignment.labels, tuple(ind.k)) in signatures


def test_nsga2_generation_returns_each_survivors_monolithic_genome(small_scenario, rng):
    bounds = lower, upper = _monolithic_bounds(small_scenario, PARAMS)
    genomes = [lower + rng.random(len(lower)) * (upper - lower) for _ in range(8)]
    pop = [_decode_monolithic(g, PARAMS) for g in genomes]
    for _ in range(3):
        pop, genomes = nsga2_generation(pop, genomes, small_scenario, PARAMS, bounds,
                                        lambda _, g: _decode_monolithic(g, PARAMS), 0.9, 0.5, rng)
    assert len(pop) == len(genomes) == 8
    for ind, g in zip(pop, genomes):
        decoded = _decode_monolithic(g, PARAMS)
        evaluate(decoded, small_scenario, PARAMS)
        assert decoded.to_dict() == ind.to_dict()


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_monolithic_run_evaluates_only_offspring(small_scenario, monkeypatch):
    calls = _count_calls(monkeypatch, problem, "evaluate")
    cfg = SolverConfig(population_size=8, t_ao=2, t_local=3, seed=0)
    run("monolithic-nsga2", small_scenario, PARAMS, cfg)
    offspring = 2 * (int(round(P_C_INITIAL * 8)) // 2) + int(round(P_M_INITIAL * 8))
    assert len(calls) == 8 + 2 * 3 * offspring


def test_llm_aoa_computes_one_hypervolume_per_outer_iteration(small_scenario, monkeypatch):
    calls = _count_calls(monkeypatch, metrics, "hypervolume")
    cfg = SolverConfig(population_size=8, t_ao=3, t_local=2, advisor_mode="fallback", seed=0)
    run("llm-aoa", small_scenario, PARAMS, cfg)
    assert len(calls) == 3


def test_run_is_seed_deterministic(small_scenario):
    cfg = SolverConfig(population_size=8, t_ao=2, t_local=2, seed=11)
    r1 = run("llm-aoa", small_scenario, PARAMS, cfg)
    r2 = run("llm-aoa", small_scenario, PARAMS, cfg)
    assert r1.history == r2.history
    f1 = [ind.to_dict() for ind in final_front(r1.population)]
    f2 = [ind.to_dict() for ind in final_front(r2.population)]
    assert f1 == f2


def test_run_history_and_modes(small_scenario):
    cfg = SolverConfig(population_size=8, t_ao=3, t_local=2, seed=1)
    for mode in ("llm-aoa", "aoa", "monolithic-nsga2"):
        res = run(mode, small_scenario, PARAMS, cfg)
        assert [row["iteration"] for row in res.history] == [1, 2, 3]
        assert len(res.population) == 8
        for row in res.history:
            assert row["hypervolume"] >= 0.0
    with pytest.raises(ValueError):
        run("nope", small_scenario, PARAMS, cfg)


def test_aoa_mode_ignores_advisor_setting(small_scenario):
    cfg = SolverConfig(population_size=8, t_ao=2, t_local=2, seed=5, advisor_mode="fallback")
    static = run("aoa", small_scenario, PARAMS, cfg)
    # static advisor echoes the initial probabilities forever
    assert all(row["p_c"] == P_C_INITIAL and row["p_m"] == P_M_INITIAL for row in static.history)


def test_fallback_advisor_can_move_probabilities(small_scenario):
    cfg = SolverConfig(population_size=8, t_ao=4, t_local=3, seed=5, advisor_mode="fallback")
    res = run("llm-aoa", small_scenario, PARAMS, cfg)
    # probabilities stay inside the advisor clamp bounds at all times
    for row in res.history:
        assert 0.1 <= row["p_c"] <= 0.95
        assert 0.01 <= row["p_m"] <= 0.9


def test_final_front_prefers_feasible():
    objs = [(1.0, 1.0, 1.0), (5.0, 5.0, 0.5)]
    pool = _fake_pool(objs, violations=[0.0, 1.0])
    front = final_front(pool)
    assert len(front) == 1 and front[0].violation == 0.0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(population_size=7)
    with pytest.raises(ValueError):
        SolverConfig(advisor_mode="bogus")
    with pytest.raises(ValueError):
        SolverConfig(t_ao=0)
