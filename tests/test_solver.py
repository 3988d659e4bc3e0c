import numpy as np
import pytest

from dcsf import Bounds, SystemParams, advisor, beamforming, channel, energy, generate_scenario, metrics, problem, solver
from dcsf.problem import ClusterAssignment, Individual, evaluate
from dcsf.semantic import SimilarityModel, semantic_terms
from dcsf.solver import (
    LLM_FAILURE_LIMIT,
    P_C_INITIAL,
    P_M_INITIAL,
    POLY_ETA,
    SBX_ETA,
    SolverConfig,
    _decode_monolithic,
    _gene_bounds,
    _genes_of,
    _monolithic_bounds,
    _with_genes,
    breed,
    crowding_distance,
    gca_step,
    gso_step,
    initialize_population,
    merge_clusters,
    nondominated_sort,
    nsga2_generation,
    run,
    select_best,
)
from oracles import (
    crowding,
    decode_monolithic_numpy,
    fake_pool,
    final_front_feasible_first,
    gca_replay,
    gso_sweep,
    nondominated_sort_double_loop,
    peeled_fronts,
    polynomial_mutation_loop,
    random_individual,
    sbx_crossover_loop,
)

PARAMS = SystemParams()


def test_sort_and_crowding_match_brute_force(rng):
    for _ in range(50):
        m = int(rng.integers(2, 30))
        objs = rng.random((m, 3)) * [1e8, 1e6, 1e4]
        violations = np.where(rng.random(m) < 0.3, rng.random(m), 0.0)
        pool = fake_pool(objs, violations)
        fronts = nondominated_sort(pool)
        assert [sorted(f) for f in fronts] == peeled_fronts(objs, violations)
        for front in fronts:
            got = crowding_distance([pool[i] for i in front])
            want = crowding(np.array([pool[i].objectives.as_tuple() for i in front]))
            assert np.array_equal(got, want)


def _tied_pool(rng, m, infeasible_share):
    """m members with few distinct values per objective, so ties and
    duplicates are common, and about `infeasible_share` of them infeasible at
    one of three violations; feasible members carry 0.0 or -0.0."""
    objs = rng.integers(0, 4, (m, 3)) * [1e7, 1e5, 1e3] + 1.0
    if m > 3:
        objs[m - 1] = objs[0]
    zeros = np.where(rng.random(m) < 0.5, -0.0, 0.0)
    violations = np.where(rng.random(m) < infeasible_share, rng.integers(1, 4, m) * 0.5, zeros)
    return fake_pool(objs, violations)


def test_sort_gives_the_double_loop_fronts_in_its_order(rng):
    # all-feasible, mixed and all-infeasible pools, -0.0 against 0.0, one member
    for case in range(600):
        pool = _tied_pool(rng, int(rng.integers(1, 61)), (0.0, 0.3, 0.5, 1.0)[case % 4])
        assert nondominated_sort(pool) == nondominated_sort_double_loop(pool), case
    signed = fake_pool([(1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (3.0, 0.5, 1.0)], [0.0, -0.0, 0.0])
    assert nondominated_sort(signed) == nondominated_sort_double_loop(signed) == [[1, 2], [0]]
    levels = fake_pool([(1.0, 1.0, 1.0)] * 5, [0.5, 0.25, 0.5, 0.25, 1.0])
    assert nondominated_sort(levels) == nondominated_sort_double_loop(levels) == [[1, 3], [0, 2], [4]]
    for violation in (0.0, 1.0):
        one = fake_pool([(1.0, 1.0, 1.0)], [violation])
        assert nondominated_sort(one) == nondominated_sort_double_loop(one) == [[0]]
    assert nondominated_sort([]) == nondominated_sort_double_loop([]) == [[]]


def test_selection_carries_the_survivors_double_loop_fronts(rng):
    """`select_best` picks the textbook survivors (whole fronts of the
    double loop, then the split front by descending crowding, ties to the
    lower index), and its fronts are the double loop's fronts of those
    survivors, member order included. Every kind of cut occurs."""
    kinds = dict.fromkeys(("front 0 split", "feasible front split", "infeasible front split", "exact fill"), 0)
    for case in range(600):
        pool = _tied_pool(rng, int(rng.integers(2, 41)), (0.0, 0.4, 1.0)[case % 3])
        m = int(rng.integers(1, len(pool) + 1))
        want: list[int] = []
        for r, front in enumerate(nondominated_sort_double_loop(pool)):
            if len(want) + len(front) <= m:
                want.extend(front)
                if len(want) == m:
                    kinds["exact fill"] += 1
                    break
                continue
            crowd = crowding(np.array([pool[i].objectives.as_tuple() for i in front]))
            order = sorted(range(len(front)), key=lambda j: (-crowd[j], front[j]))
            want.extend(front[j] for j in order[: m - len(want)])
            kind = "front 0" if r == 0 else "feasible front" if pool[front[0]].violation == 0.0 else "infeasible front"
            kinds[kind + " split"] += 1
            break
        chosen, fronts = select_best(pool, m)
        assert chosen == want, case
        assert fronts == nondominated_sort_double_loop([pool[i] for i in chosen]), case
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("mode", solver.MODES)
def test_each_generation_takes_and_returns_the_fresh_fronts(small_scenario, monkeypatch, mode):
    """In a run, the fronts each generation is given and returns equal the
    double loop's fronts of its population and of its survivors. The second
    scenario's BS is so far away that every member is infeasible, so its
    fronts are the distinct violation levels."""
    far = generate_scenario(20, 3, small_scenario.bounds, (1e6, 1e6, 0.0), seed=1)
    real_generation = solver.nsga2_generation
    checked = []

    def checked_generation(population, genomes, fronts, *rest):
        assert fronts == nondominated_sort_double_loop(population)
        survivors, genomes, fronts = real_generation(population, genomes, fronts, *rest)
        assert fronts == nondominated_sort_double_loop(survivors)
        checked.append(len(fronts))
        return survivors, genomes, fronts

    monkeypatch.setattr(solver, "nsga2_generation", checked_generation)
    cfg = SolverConfig(population_size=8, t_ao=3, t_local=4, seed=2)
    for scenario in (small_scenario, far):
        result = run(mode, scenario, PARAMS, cfg)
    assert all(ind.violation > 0.0 for ind in result.population)
    assert len(checked) == 2 * cfg.t_ao * cfg.t_local and max(checked) > 1


def test_row_sums_equal_the_sums_of_the_rows(rng):
    # GCA and GSO score candidates as row sums, which must equal their oracles' 1-D sums bit for bit
    mismatches = 0
    for _ in range(200):
        rows = rng.random((100, int(rng.integers(1, 48)))) * 10.0 ** rng.integers(-3, 7)
        sums = rows.sum(axis=1)
        mismatches += sum(sums[i] != rows[i].copy().sum() for i in range(len(rows)))
        # GSO sums the rows of a stack of such matrices, one per individual
        stacked = rows.reshape(4, 25, -1)
        mismatches += int((stacked.sum(axis=2).ravel() != sums).sum())
    assert mismatches == 0


def test_sort_handles_duplicates():
    pool = fake_pool([(1.0, 1.0, 1.0)] * 4)
    fronts = nondominated_sort(pool)
    assert fronts == [[0, 1, 2, 3]]
    assert np.all(np.isinf(crowding_distance(pool)) | (crowding_distance(pool) == 0.0))


def test_select_best_keeps_first_front_whole_when_it_fits():
    objs = [(3.0, 1.0, 1.0), (1.0, 3.0, 1.0), (2.0, 2.0, 1.0), (0.5, 0.5, 2.0), (0.4, 0.4, 3.0)]
    pool = fake_pool(objs)
    chosen, _ = select_best(pool, 3)
    got = {pool[i].objectives.as_tuple() for i in chosen}
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


def test_gca_applied_merges_are_exhaustive_best_and_increase_f2(small_scenario, rng):
    scn = small_scenario
    for _ in range(10):
        ind = random_individual(scn, rng)
        evaluate(ind, scn, PARAMS)
        f2_before = ind.objectives.f2
        # replay the greedy loop with explicit exhaustive enumeration
        expected, _ = gca_replay(ind, scn, PARAMS)
        gca_step([ind], scn, PARAMS)
        assert ind.assignment.labels == expected.assignment.labels
        assert list(ind.k) == list(expected.k)
        assert ind.objectives.f2 >= f2_before


@pytest.mark.parametrize("n_uavs,n_individuals", [(8, 8), (16, 4), (24, 3)])
def test_gca_matches_exhaustive_oracle_and_rates_each_cluster_once(n_uavs, n_individuals, monkeypatch):
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, n_uavs, bounds, (2000.0, 2000.0, 0.0), seed=n_uavs)
    rng = np.random.default_rng(n_uavs)
    calls = []  # clusters rated per cluster_snr call
    real_snr = beamforming.cluster_snr

    def counting_snr(clusters, *args, **kwargs):
        calls.append(len(clusters))
        return real_snr(clusters, *args, **kwargs)

    total_merges = 0
    for _ in range(n_individuals):
        ind = random_individual(scn, rng)
        evaluate(ind, scn, PARAMS)
        n_clusters = ind.assignment.n_clusters
        expected, applied_f2 = gca_replay(ind, scn, PARAMS)
        merges = len(applied_f2)
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
        assert sum(calls) <= budget
    assert total_merges > 0


def test_gca_never_merges_when_no_gain(small_scenario):
    scn = small_scenario
    # a single all-UAV cluster cannot merge further
    a = ClusterAssignment((1, 1, 1))
    ind = Individual(a, scn.uav_initial_xyz.copy(), np.ones(3), np.array([5]))
    evaluate(ind, scn, PARAMS)
    gca_step([ind], scn, PARAMS)
    assert ind.assignment.n_clusters == 1


@pytest.mark.parametrize("n_uavs", [8, 24])
def test_population_gca_merges_each_individual_as_its_replay_in_one_call_per_pass(n_uavs, monkeypatch):
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, n_uavs, bounds, (2000.0, 2000.0, 0.0), seed=n_uavs)
    rng = np.random.default_rng(n_uavs)
    for _ in range(20):  # an individual that merges at least twice and ends with several clusters
        multi = random_individual(scn, rng)
        evaluate(multi, scn, PARAMS)
        settled, applied_f2 = gca_replay(multi, scn, PARAMS)
        if len(applied_f2) >= 2 and settled.assignment.n_clusters > 1:
            break
    else:
        pytest.fail("no multi-merge individual drawn")
    # its merged result, evaluated afresh, cannot gain over its own f2: every merge from it
    # scored at most the f2 it started from
    no_gain = Individual(settled.assignment, settled.q.copy(), settled.w.copy(), settled.k.copy())
    one_cluster = Individual(ClusterAssignment((1,) * n_uavs), multi.q.copy(), multi.w.copy(), np.array([5]))
    population = [one_cluster, multi, no_gain, random_individual(scn, rng)]
    for ind in population:
        evaluate(ind, scn, PARAMS)
    replays = [gca_replay(ind, scn, PARAMS) for ind in population]
    merges = [len(applied) for _, applied in replays]
    assert merges[0] == merges[2] == 0 and merges[1] == max(merges)
    # pairs rated: all pairs in the first pass, then the survivor's pairs after each merge
    # that leaves more than one cluster
    pairs = 0
    for ind, n_merges in zip(population, merges):
        n = ind.assignment.n_clusters
        if n > 1:
            pairs += n * (n - 1) // 2 + sum(n - m - 1 for m in range(1, n_merges + 1) if n - m > 1)

    calls = []  # clusters rated per cluster_snr call
    real_snr = beamforming.cluster_snr

    def counting_snr(clusters, *args, **kwargs):
        calls.append(len(clusters))
        return real_snr(clusters, *args, **kwargs)

    monkeypatch.setattr(beamforming, "cluster_snr", counting_snr)
    gca_step(population, scn, PARAMS)
    assert len(calls) == 1 + max(merges)
    assert sum(calls) == pairs
    for ind, (expected, _) in zip(population, replays):
        assert ind.assignment.labels == expected.assignment.labels
        assert list(ind.k) == list(expected.k)
        assert ind.objectives == expected.objectives
        assert ind.violation == expected.violation
        assert ind.cluster_snr.tobytes() == expected.cluster_snr.tobytes()


def test_gca_members_stay_whole_at_every_pass(monkeypatch):
    """At every pass of a GCA step, and after it, each member's stored
    objectives and violation are those of a fresh evaluation of its current
    (c, Q, w, k): no member holds a merged assignment with its old scores."""
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, 12, bounds, (2000.0, 2000.0, 0.0), seed=12)
    rng = np.random.default_rng(12)
    population = [random_individual(scn, rng) for _ in range(6)]
    solver.evaluate_population(population, scn, PARAMS)
    real_snr = beamforming.cluster_snr
    passes, merges = [], _count_calls(monkeypatch, solver, "merge_clusters")

    def assert_whole():
        for ind in population:
            fresh = Individual(ind.assignment, ind.q.copy(), ind.w.copy(), ind.k.copy())
            evaluate(fresh, scn, PARAMS)
            assert ind.objectives == fresh.objectives and ind.violation == fresh.violation

    def checking_snr(clusters, *args):
        monkeypatch.setattr(beamforming, "cluster_snr", real_snr)  # the fresh evaluations' own
        assert_whole()
        monkeypatch.setattr(beamforming, "cluster_snr", checking_snr)
        passes.append(len(merges))
        return real_snr(clusters, *args)

    monkeypatch.setattr(beamforming, "cluster_snr", checking_snr)
    gca_step(population, scn, PARAMS)
    monkeypatch.setattr(beamforming, "cluster_snr", real_snr)
    assert_whole()
    assert passes[-1] > 0  # a pass came after an applied merge


def test_gso_matches_from_scratch_argmax(small_scenario, rng):
    scn = small_scenario
    for _ in range(10):
        ind = random_individual(scn, rng)
        oracle = gso_sweep(ind, scn, PARAMS)
        gso_step([ind], scn, PARAMS)
        assert list(ind.k) == list(oracle.k)
        assert ind.objectives.f2 == pytest.approx(oracle.objectives.f2, rel=1e-12)


def test_gso_computes_each_cluster_snr_once(monkeypatch):
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, 12, bounds, (2000.0, 2000.0, 0.0), seed=12)
    rng = np.random.default_rng(12)
    population = [random_individual(scn, rng) for _ in range(6)]
    for ind in population:
        evaluate(ind, scn, PARAMS)
    oracles = [gso_sweep(ind, scn, PARAMS) for ind in population]
    calls = []  # clusters rated per cluster_snr call
    real_snr = beamforming.cluster_snr

    def counting_snr(clusters, *args, **kwargs):
        calls.append(len(clusters))
        return real_snr(clusters, *args, **kwargs)

    monkeypatch.setattr(beamforming, "cluster_snr", counting_snr)
    gso_step(population, scn, PARAMS)
    # the sweep and the closing evaluate read the SNRs stored by evaluate
    assert sum(calls) == 0
    for ind, oracle in zip(population, oracles):
        assert list(ind.k) == list(oracle.k)
        assert ind.objectives == oracle.objectives


def test_population_gso_equals_the_sweep_of_each_individual():
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, 8, bounds, (2000.0, 2000.0, 0.0), seed=8)
    rng = np.random.default_rng(8)
    population = [random_individual(scn, rng) for _ in range(10)]
    # a cluster of several UAVs, all at zero weight, has zero SNR
    dead = next(ind for ind in population if max(map(len, ind.assignment.clusters())) > 1)
    dead_slot = max(range(dead.assignment.n_clusters), key=lambda c: len(dead.assignment.clusters()[c]))
    dead.w[list(dead.assignment.clusters()[dead_slot])] = 0.0
    for ind in population:
        evaluate(ind, scn, PARAMS)
    assert dead.cluster_snr[dead_slot] == 0.0
    counts = [ind.assignment.n_clusters for ind in population]
    assert 1 < len(set(counts)) < len(counts)  # mixed cluster counts, one of them shared
    oracles = [gso_sweep(ind, scn, PARAMS) for ind in population]
    gso_step(population, scn, PARAMS)
    assert dead.k[dead_slot] == PARAMS.k_min
    for ind, oracle in zip(population, oracles):
        assert list(ind.k) == list(oracle.k)
        assert ind.objectives == oracle.objectives
        assert ind.violation == oracle.violation


@pytest.mark.parametrize("xi_threshold, k", [(0.05, 1), (0.15, 2)])
def test_gso_breaks_an_exact_rate_tie_toward_the_smaller_k(small_scenario, rng, monkeypatch, xi_threshold, k):
    # at an SNR of 1e-300 (-3000 dB) each similarity is its floor, so both
    # rates are exactly 2e6 * 40 / 20 * 0.1 = 2e6 * 40 / 40 * 0.2 = 400000.0
    params = SystemParams(k_min=1, k_max=2, xi_threshold=xi_threshold,
                          similarity=SimilarityModel((1, 2), (0.1, 0.2), (10.0, 5.0), (0.35, 0.35)))
    monkeypatch.setattr(beamforming, "cluster_snr", lambda clusters, *args: np.full(len(clusters), 1e-300))
    rates, xis = semantic_terms(1e-300, np.arange(1, 3), params)
    assert (rates.tolist(), xis.tolist()) == ([400000.0, 400000.0], [0.1, 0.2])
    ind = random_individual(small_scenario, rng, params)
    ind.k[:] = 3 - k  # start at the other k
    oracle = gso_sweep(ind, small_scenario, params)
    evaluate(ind, small_scenario, params)
    gso_step([ind], small_scenario, params)
    assert list(ind.k) == list(oracle.k) == [k] * ind.assignment.n_clusters
    assert ind.objectives == oracle.objectives
    assert ind.violation == oracle.violation


def test_one_population_evaluation_and_one_gca_pass_each_make_one_cluster_snr_call(monkeypatch):
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, 16, bounds, (2000.0, 2000.0, 0.0), seed=16)
    rng = np.random.default_rng(16)
    population = [random_individual(scn, rng) for _ in range(6)]
    calls = []  # clusters rated per cluster_snr call
    real_snr = beamforming.cluster_snr

    def counting_snr(clusters, *args, **kwargs):
        calls.append(len(clusters))
        return real_snr(clusters, *args, **kwargs)

    monkeypatch.setattr(beamforming, "cluster_snr", counting_snr)
    solver.evaluate_population(population, scn, PARAMS)
    assert calls == [sum(ind.assignment.n_clusters for ind in population)]
    # children one weight away from their parents: one stale cluster each, rated together
    children = [Individual(ind.assignment, ind.q.copy(), ind.w.copy(), ind.k.copy()) for ind in population]
    for child in children:
        child.w[0] *= 0.5
    calls.clear()
    solver.evaluate_population(children, scn, PARAMS, population)
    assert calls == [len(children)]
    monkeypatch.setattr(beamforming, "cluster_snr", real_snr)
    for ind in population + children:
        fresh = Individual(ind.assignment, ind.q.copy(), ind.w.copy(), ind.k.copy())
        evaluate(fresh, scn, PARAMS)
        assert ind.objectives == fresh.objectives and ind.violation == fresh.violation
        assert ind.cluster_snr.tobytes() == fresh.cluster_snr.tobytes()
    # GCA: one call per merge pass, the last pass finding no gain
    monkeypatch.setattr(beamforming, "cluster_snr", counting_snr)
    for ind in population:
        calls.clear()
        n_clusters = ind.assignment.n_clusters
        gca_step([ind], scn, PARAMS)
        assert len(calls) <= n_clusters - ind.assignment.n_clusters + 1


def test_only_moved_fleets_compute_f3_and_c1_c2(monkeypatch):
    """`energy.total_flight_energy` takes one row per fleet whose positions
    changed: one call per population evaluation, and no rows at all for GCA
    and GSO re-evaluations, clones or weight-only children."""
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, 12, bounds, (2000.0, 2000.0, 0.0), seed=12)
    rng = np.random.default_rng(12)
    rows = []  # fleets passed per total_flight_energy call
    real_f3 = energy.total_flight_energy

    def counting_f3(scenario, uav_positions, params):
        rows.append(len(uav_positions))
        return real_f3(scenario, uav_positions, params)

    def fresh(ind):
        out = Individual(ind.assignment, ind.q.copy(), ind.w.copy(), ind.k.copy())
        evaluate(out, scn, PARAMS)
        return out

    monkeypatch.setattr(energy, "total_flight_energy", counting_f3)
    population = [random_individual(scn, rng) for _ in range(6)]
    solver.evaluate_population(population, scn, PARAMS)
    assert rows == [len(population)]

    rows.clear()
    labels = [ind.assignment.labels for ind in population]
    gca_step(population, scn, PARAMS)
    assert any(ind.assignment.labels != before for ind, before in zip(population, labels))
    ks = [ind.k.copy() for ind in population]
    gso_step(population, scn, PARAMS)
    assert any(not np.array_equal(ind.k, k) for ind, k in zip(population, ks))
    assert rows == []

    clones = [Individual(ind.assignment, ind.q.copy(), ind.w.copy(), ind.k.copy()) for ind in population]
    weight_only = [Individual(ind.assignment, ind.q.copy(), ind.w * 0.5, ind.k.copy()) for ind in population]
    solver.evaluate_population(clones + weight_only, scn, PARAMS, population + population)
    assert rows == []

    moved = [Individual(ind.assignment, ind.q.copy(), ind.w * 0.5, ind.k.copy()) for ind in population]
    for child in moved[::2]:
        child.q[0, 0] = np.nextafter(child.q[0, 0], 0.0)
    solver.evaluate_population(moved, scn, PARAMS, population)
    assert rows == [len(moved[::2])]

    for ind in population + clones + weight_only + moved:
        expected = fresh(ind)
        assert ind.fleet_terms == expected.fleet_terms
        assert ind.objectives == expected.objectives and ind.violation == expected.violation


def test_evaluation_errors_become_solver_errors(small_scenario):
    # hand-built: box clipping keeps the solver's own individuals away from both
    a = ClusterAssignment((1, 2, 3))
    at_bs = Individual(a, small_scenario.uav_initial_xyz.copy(), np.ones(3), np.array([5, 5, 5]))
    at_bs.q[2] = small_scenario.bs_xyz
    with pytest.raises(solver.SolverError, match="coincides with the BS"):
        solver.evaluate_population([at_bs], small_scenario, PARAMS)
    on_a_user = Individual(a, small_scenario.uav_initial_xyz.copy(), np.ones(3), np.array([5, 5, 5]))
    on_a_user.q[0] = small_scenario.user_xyz[0]  # zero user distance: f1 is NaN
    with np.errstate(all="ignore"), pytest.raises(solver.SolverError, match="non-finite objectives"):
        solver.evaluate_population([on_a_user], small_scenario, PARAMS)


def _picks(*rows):
    """A `pick` for `breed` that returns the given parent rows in order."""
    return iter(rows).__next__


def test_sbx_and_mutation_respect_bounds(rng):
    lower = np.zeros(10)
    upper = np.full(10, 5.0)
    for _ in range(100):
        genomes = rng.uniform(0, 5, (2, 10))
        _, children = breed(genomes, _picks(0, 1, 0), 1, 1, (lower, upper), rng)
        assert np.all(children >= lower) and np.all(children <= upper)


def _parent_pairs(n, rng):
    """Parent genomes of length n: random, identical, and half the genes equal
    or within 1e-14, where SBX must not cross."""
    g1, g2 = rng.uniform(-3.0, 7.0, n), rng.uniform(-3.0, 7.0, n)
    near = g2.copy()
    near[::2] = g1[::2]
    near[1::4] = g1[1::4] + 5e-15
    return [(g1, g2), (g1, g1.copy()), (g1, near)]


@pytest.mark.parametrize("n", [1, 2, 32, 48, 96])
def test_sbx_and_mutation_equal_the_per_gene_loops(n):
    """`breed`'s children of one SBX pair and two mutants are byte-equal to
    the per-gene loops' on the same draws, and leave the generator in the
    same state as drawing one value at a time (n = 1 mutates every gene)."""
    rng = np.random.default_rng(n)
    lower, upper = np.full(n, -2.0), np.full(n, 6.0)
    for trial in range(60):
        for g1, g2 in _parent_pairs(n, rng):
            fast, slow = np.random.default_rng([n, trial]), np.random.default_rng([n, trial])
            rows, got = breed(np.stack([g1, g2]), _picks(0, 1, 0, 1), 1, 2, (lower, upper), fast)
            want = [*sbx_crossover_loop(g1, g2, lower, upper, SBX_ETA, slow),
                    polynomial_mutation_loop(g1, lower, upper, POLY_ETA, slow),
                    polynomial_mutation_loop(g2, lower, upper, POLY_ETA, slow)]
            assert rows.tolist() == [0, 1, 0, 1]
            assert [c.tobytes() for c in got] == [c.tobytes() for c in want]
            assert fast.random() == slow.random()


class _Replay:
    """A generator stand-in that replays fixed draws, one at a time or in blocks."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        block, self.values = self.values[:size], self.values[size:]
        return np.array(block)


def test_sbx_and_mutation_equal_the_per_gene_loops_on_boundary_draws():
    """Draws of exactly 0.5 (the SBX crossing and spread branches, the
    mutation step branch) and exactly 1/n (no mutation) take the loops' side."""
    n = 4
    g1, g2 = np.array([0.0, 1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0, 0.0])
    lower, upper = np.full(n, -1.0), np.full(n, 4.0)
    draws = [0.5, 0.5, 0.25, 0.5, 0.75, 0.0, 0.5, 0.999, 0.25, 0.5, 0.1] * 4
    for start in range(len(draws) // 2):
        fast, slow = _Replay(draws[start:]), _Replay(draws[start:])
        _, got = breed(np.stack([g1, g2]), _picks(0, 1, 0), 1, 1, (lower, upper), fast)
        want = [*sbx_crossover_loop(g1, g2, lower, upper, SBX_ETA, slow),
                polynomial_mutation_loop(g1, lower, upper, POLY_ETA, slow)]
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]
        assert fast.values == slow.values


def test_monolithic_decode_equals_the_numpy_decode():
    """Half-way label and k genes round to even, and genes on or past the
    bounds clip, as `np.rint` and `np.clip` do; one stack decodes as its
    rows one at a time."""
    rng = np.random.default_rng(5)
    n_v = 6
    halves = np.arange(0.5, 21.0, 1.0)
    edges = np.array([1.0, float(n_v), PARAMS.k_min, PARAMS.k_max, 0.0, 21.0, -0.5, 0.49999999999999994])
    genomes = rng.uniform(0.0, 1.0, (300, 6 * n_v))
    genomes[:, :n_v] = rng.choice(np.concatenate([halves[: n_v + 1], edges]), (300, n_v))
    genomes[:, 5 * n_v:] = rng.choice(np.concatenate([halves, edges]), (300, n_v))
    for genes, got in zip(genomes, _decode_monolithic(genomes, PARAMS), strict=True):
        want = decode_monolithic_numpy(genes, PARAMS)
        assert got.assignment == want.assignment
        assert got.k.dtype == want.k.dtype and got.k.tolist() == want.k.tolist()
        assert got.q.tobytes() == want.q.tobytes() and got.w.tobytes() == want.w.tobytes()


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
    solver.evaluate_population(pop, small_scenario, PARAMS)
    out, _, _ = nsga2_generation(pop, [_genes_of(ind) for ind in pop], nondominated_sort(pop), small_scenario,
                                 PARAMS, _gene_bounds(small_scenario, PARAMS), _with_genes, 0.9, 0.5, rng)
    assert len(out) == 8
    # offspring inherit (c, k) untouched from some parent
    for ind in out:
        assert (ind.assignment.labels, tuple(ind.k)) in signatures


@pytest.mark.parametrize("monolithic", [True, False], ids=["monolithic", "positions-and-weights"])
def test_nsga2_generation_returns_each_survivors_genome(small_scenario, rng, monolithic):
    """`run` keeps the genomes a generation returns: each decodes to its
    survivor, its (Q, w) genes are byte-equal to the survivor's `_genes_of`,
    and GCA and GSO, which run between generations, leave those unchanged."""
    if monolithic:
        bounds = lower, upper = _monolithic_bounds(small_scenario, PARAMS)
        genomes = lower + rng.random((8, len(lower))) * (upper - lower)
        pop = _decode_monolithic(genomes, PARAMS)
        qw = slice(small_scenario.n_uavs, 5 * small_scenario.n_uavs)  # labels, (Q, w), k

        def decode(_, g):
            return _decode_monolithic(g, PARAMS)
    else:
        pop = initialize_population(small_scenario, PARAMS, SolverConfig(population_size=8), rng)
        genomes = [_genes_of(ind) for ind in pop]
        bounds, decode, qw = _gene_bounds(small_scenario, PARAMS), _with_genes, slice(None)
    solver.evaluate_population(pop, small_scenario, PARAMS)
    for _ in range(3):
        pop, genomes, _ = nsga2_generation(pop, genomes, nondominated_sort(pop), small_scenario, PARAMS,
                                           bounds, decode, 0.9, 0.5, rng)
    assert len(pop) == len(genomes) == 8
    for ind, g in zip(pop, genomes):
        [decoded] = decode([ind], g[None])
        evaluate(decoded, small_scenario, PARAMS)
        assert decoded.to_dict() == ind.to_dict()
        assert g[qw].tobytes() == _genes_of(ind).tobytes()
    before = [(ind.assignment, ind.k.tolist()) for ind in pop]
    gca_step(pop, small_scenario, PARAMS)
    gso_step(pop, small_scenario, PARAMS)
    assert [(ind.assignment, ind.k.tolist()) for ind in pop] != before  # the stages ran
    assert [_genes_of(ind).tobytes() for ind in pop] == [g[qw].tobytes() for g in genomes]


def _tournament_oracle(pool, rng):
    """The binary tournament from scratch: ranks from the peeled fronts,
    crowding from the per-member loop, ties to the lower index."""
    objs = np.array([ind.objectives.as_tuple() for ind in pool])
    rank, crowd = np.empty(len(pool), dtype=int), np.empty(len(pool))
    for r, front in enumerate(peeled_fronts(objs, np.array([ind.violation for ind in pool]))):
        rank[front], crowd[front] = r, crowding(objs[front])

    def pick():
        i, j = rng.integers(0, len(pool), size=2).tolist()
        if rank[i] != rank[j]:
            return i if rank[i] < rank[j] else j
        if crowd[i] != crowd[j]:
            return i if crowd[i] > crowd[j] else j
        return min(i, j)

    return pick


@pytest.mark.parametrize("monolithic", [True, False], ids=["monolithic", "positions-and-weights"])
def test_a_generation_equals_its_replay_one_child_at_a_time(small_scenario, monolithic):
    """Replayed one child at a time, with the per-gene loops and a one-row
    decode, on a generator cloned from the same state, a generation makes
    the same parents, children's genes and decoded offspring, and leaves its
    generator in the same state: no draw added or dropped. The monolithic
    genomes carry label and k genes at exact halves and on their bounds."""
    scn, n_v, m = small_scenario, small_scenario.n_uavs, 12
    rng = np.random.default_rng(29)
    if monolithic:
        bounds = lower, upper = _monolithic_bounds(scn, PARAMS)
        genomes = lower + rng.random((m, len(lower))) * (upper - lower)
        genomes[:, :n_v] = rng.choice([1.0, 1.5, 2.5, float(n_v)], (m, n_v))
        genomes[:, 5 * n_v:] = rng.choice([PARAMS.k_min, PARAMS.k_min + 0.5, 6.5, PARAMS.k_max], (m, n_v))
        pop = _decode_monolithic(genomes, PARAMS)

        def decode(_, genes):
            return _decode_monolithic(genes, PARAMS)

        def decode_one(_, genes):
            return decode_monolithic_numpy(genes, PARAMS)
    else:
        bounds = lower, upper = _gene_bounds(scn, PARAMS)
        pop = initialize_population(scn, PARAMS, SolverConfig(population_size=m), rng)
        genomes, decode = np.stack([_genes_of(ind) for ind in pop]), _with_genes

        def decode_one(parent, genes):
            return Individual(parent.assignment, genes[: 3 * n_v].reshape(n_v, 3), genes[3 * n_v:], parent.k)
    solver.evaluate_population(pop, scn, PARAMS)
    seen, children = [], []

    def recording(parents, genes):
        offspring = decode(parents, genes)
        seen.append((list(parents), genes.copy(), [ind.to_dict() for ind in offspring]))
        return offspring

    for p_c, p_m in [(0.8, 0.4), (0.5, 0.9), (0.9, 0.1)]:
        before, before_genomes = pop, np.array(genomes)
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        seen.clear()
        pop, genomes, _ = nsga2_generation(pop, genomes, nondominated_sort(pop), scn, PARAMS, bounds, recording,
                                           p_c, p_m, rng)
        [(parents, genes, offspring)] = seen
        children.append(genes)

        pick, rows, want = _tournament_oracle(before, replay), [], []
        for _ in range(int(round(p_c * m)) // 2):
            i1, i2 = pick(), pick()
            rows += [i1, i2]
            want += sbx_crossover_loop(before_genomes[i1], before_genomes[i2], lower, upper, SBX_ETA, replay)
        for _ in range(int(round(p_m * m))):
            rows.append(pick())
            want.append(polynomial_mutation_loop(before_genomes[rows[-1]], lower, upper, POLY_ETA, replay))
        assert [next(i for i, ind in enumerate(before) if ind is parent) for parent in parents] == rows
        assert genes.tobytes() == np.stack(want).tobytes()
        assert offspring == [decode_one(before[i], g).to_dict() for i, g in zip(rows, want)]
        assert rng.bit_generator.state == replay.bit_generator.state
    if monolithic:  # some offspring of the three generations still carry exact-half label and k genes
        children = np.concatenate(children)
        assert np.isin(children[:, :n_v], [1.5, 2.5]).any() and np.isin(children[:, 5 * n_v:], [6.5]).any()


def test_a_generation_with_no_offspring_keeps_its_population(small_scenario, rng):
    pop = initialize_population(small_scenario, PARAMS, SolverConfig(population_size=4), rng)
    solver.evaluate_population(pop, small_scenario, PARAMS)
    genomes = np.stack([_genes_of(ind) for ind in pop])
    state = rng.bit_generator.state
    # the advisor's lowest probabilities round to no pair and no mutant at M = 4
    out, out_genomes, _ = nsga2_generation(pop, genomes, nondominated_sort(pop), small_scenario, PARAMS,
                                           _gene_bounds(small_scenario, PARAMS), _with_genes, 0.1, 0.01, rng)
    assert sorted(map(id, out)) == sorted(map(id, pop))
    assert sorted(g.tobytes() for g in out_genomes) == sorted(g.tobytes() for g in genomes)
    assert rng.bit_generator.state == state  # a generation with no offspring draws nothing


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_fleets(monkeypatch):
    """Record the number of fleets each `channel.sum_user_rate` call scores:
    one fresh f1 per fleet."""
    fleets = []
    real = channel.sum_user_rate

    def counted(scenario, uav_positions, params):
        q = np.asarray(uav_positions)
        fleets.append(1 if q.ndim == 2 else len(q))
        return real(scenario, uav_positions, params)

    monkeypatch.setattr(channel, "sum_user_rate", counted)
    return fleets


def _count_scored(monkeypatch):
    """Record the number of individuals each `problem.cluster_semantic_terms`
    call scores: every evaluation ends in it, with a fresh f1 or the
    parent's."""
    scored = []
    real = problem.cluster_semantic_terms

    def counted(individuals, params):
        scored.append(len(individuals))
        return real(individuals, params)

    monkeypatch.setattr(problem, "cluster_semantic_terms", counted)
    return scored


def test_monolithic_run_evaluates_only_offspring(small_scenario, monkeypatch):
    # wrap every generation's decoder to count, independently of the solver,
    # the offspring whose (c, Q, w, k) differ from their parent's, and those
    # whose Q does
    differs, moved = [], []
    real_generation = solver.nsga2_generation

    def counted_generation(population, genomes, fronts, scenario, params, bounds, decode, *rest):
        def counted_decode(parents, genes):
            children = decode(parents, genes)
            fields = ("c", "Q", "w", "k")
            for parent, child in zip(parents, children, strict=True):
                differs.append(any(child.to_dict()[f] != parent.to_dict()[f] for f in fields))
                moved.append(child.q.tobytes() != parent.q.tobytes())
            return children

        return real_generation(population, genomes, fronts, scenario, params, bounds, counted_decode, *rest)

    monkeypatch.setattr(solver, "nsga2_generation", counted_generation)
    scored = _count_scored(monkeypatch)
    f1_fleets = _count_fleets(monkeypatch)
    cfg = SolverConfig(population_size=8, t_ao=2, t_local=3, seed=0)
    run("monolithic-nsga2", small_scenario, PARAMS, cfg)
    offspring = 2 * (int(round(P_C_INITIAL * 8)) // 2) + int(round(P_M_INITIAL * 8))
    assert len(differs) == 2 * 3 * offspring
    assert 0 < differs.count(False) < len(differs)  # clones are among the offspring
    assert sum(scored) == 8 + len(differs)
    # a fresh f1 for the initial population and each offspring that moved
    assert 8 <= sum(f1_fleets) == 8 + moved.count(True) <= sum(scored)


def test_a_clone_offspring_inherits_a_fresh_evaluation(small_scenario, rng, monkeypatch):
    pop = [random_individual(small_scenario, rng) for _ in range(8)]
    for ind in pop:
        evaluate(ind, small_scenario, PARAMS)
    genomes = [_genes_of(ind) for ind in pop]
    bounds = _gene_bounds(small_scenario, PARAMS)
    children = []

    def decode(parents, genes, nudge):
        # genes ignored: clones
        clones = _with_genes(parents, np.stack([_genes_of(parent) for parent in parents]))
        for parent, child in zip(parents, clones):
            child.w[0] += nudge
            children.append((parent, child))
        return clones

    scored = _count_scored(monkeypatch)
    f1_fleets = _count_fleets(monkeypatch)
    rated = _count_calls(monkeypatch, beamforming, "cluster_snr")
    nsga2_generation(pop, genomes, nondominated_sort(pop), small_scenario, PARAMS, bounds,
                     lambda parents, genes: decode(parents, genes, 0.0), 0.5, 0.5, rng)
    # the clones are scored at their k in one batch, lent every SNR and their f1: one f1 call, on no fleet
    assert scored == [8] and f1_fleets == [0] and rated == [] and len(children) == 8
    for parent, child in children:
        fresh = Individual(child.assignment, child.q.copy(), child.w.copy(), child.k.copy())
        evaluate(fresh, small_scenario, PARAMS)
        assert child.objectives == fresh.objectives
        assert child.violation == fresh.violation
        assert semantic_terms(child.cluster_snr, child.k, PARAMS)[1].tobytes() == \
            semantic_terms(fresh.cluster_snr, fresh.k, PARAMS)[1].tobytes()
        assert child.cluster_snr is not parent.cluster_snr
    # the same generation with one weight moved evaluates every offspring, with its parent's f1
    scored.clear()
    f1_fleets.clear()  # the fresh evaluations' own
    rated.clear()
    nsga2_generation(pop, genomes, nondominated_sort(pop), small_scenario, PARAMS, bounds,
                     lambda parents, genes: decode(parents, genes, 1e-6), 0.5, 0.5, rng)
    assert sum(scored) == 8 and sum(f1_fleets) == 0 and len(rated) == 1


def test_gso_re_evaluates_only_when_k_changes(small_scenario, rng, monkeypatch):
    ind = random_individual(small_scenario, rng)
    ind.k[:] = PARAMS.k_max
    evaluate(ind, small_scenario, PARAMS)
    k_before = ind.k.copy()
    # GSO's evaluations take f1 from the individual
    scored = _count_scored(monkeypatch)
    f1_fleets = _count_fleets(monkeypatch)
    gso_step([ind], small_scenario, PARAMS)
    assert not np.array_equal(ind.k, k_before) and sum(scored) == 1
    swept = ind.copy()
    gso_step([ind], small_scenario, PARAMS)  # the sweep's argmax keeps k
    assert np.array_equal(ind.k, swept.k) and sum(scored) == 1 and sum(f1_fleets) == 0
    assert ind.to_dict() == swept.to_dict()


def _assert_evaluated_afresh(ind, scn):
    fresh = Individual(ind.assignment, ind.q.copy(), ind.w.copy(), ind.k.copy())
    evaluate(fresh, scn, PARAMS)
    assert ind.objectives == fresh.objectives and ind.violation == fresh.violation
    assert semantic_terms(ind.cluster_snr, ind.k, PARAMS)[1].tobytes() == \
        semantic_terms(fresh.cluster_snr, fresh.k, PARAMS)[1].tobytes()


def test_gca_and_gso_score_without_f1(monkeypatch):
    """A merged or re-swept individual keeps its Q, so it is scored with its
    own f1: no fleet scored by `sum_user_rate`, and the values of a fresh
    evaluation."""
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, 12, bounds, (2000.0, 2000.0, 0.0), seed=12)
    rng = np.random.default_rng(12)
    population = [random_individual(scn, rng) for _ in range(6)]
    solver.evaluate_population(population, scn, PARAMS)
    f1_fleets = _count_fleets(monkeypatch)
    labels = [ind.assignment.labels for ind in population]
    gca_step(population, scn, PARAMS)
    merged = [ind for ind, before in zip(population, labels) if ind.assignment.labels != before]
    assert merged and sum(f1_fleets) == 0
    for ind in merged:
        _assert_evaluated_afresh(ind, scn)
    ks = [ind.k.copy() for ind in population]
    f1_fleets.clear()  # the fresh evaluations' own
    gso_step(population, scn, PARAMS)
    swept = [ind for ind, k in zip(population, ks) if not np.array_equal(ind.k, k)]
    assert swept and sum(f1_fleets) == 0
    for ind in swept:
        _assert_evaluated_afresh(ind, scn)


def test_a_weight_only_offspring_takes_its_parents_f1(small_scenario, rng, monkeypatch):
    parents = [random_individual(small_scenario, rng) for _ in range(4)]
    solver.evaluate_population(parents, small_scenario, PARAMS)
    children = [Individual(ind.assignment, ind.q.copy(), ind.w * 0.5, ind.k.copy()) for ind in parents]
    children[1].q[0] += 1.0  # one child moves a UAV
    f1_fleets = _count_fleets(monkeypatch)
    solver.evaluate_population(children, small_scenario, PARAMS, parents)
    assert f1_fleets == [1]  # one stacked call, on the one child that moved
    for parent, child in zip(parents, children):
        assert (child.objectives.f1 == parent.objectives.f1) == (child is not children[1])
        _assert_evaluated_afresh(child, small_scenario)


def test_a_failing_llm_advisor_is_called_until_the_breaker_trips(small_scenario):
    cfg = SolverConfig(population_size=8, t_ao=2, t_local=3, seed=0)
    prompts = []

    def dead(prompt):
        prompts.append(prompt)
        raise ConnectionError("endpoint down")

    res = run("llm-aoa", small_scenario, PARAMS, cfg, transport=dead)
    assert len(prompts) == LLM_FAILURE_LIMIT == 3
    # every failed call already fell back, so the run is the fallback run
    fallback = run("llm-aoa", small_scenario, PARAMS, cfg)
    assert res.history == fallback.history

    replies = []

    def healthy(prompt):
        replies.append(prompt)
        return '{"p_c": 0.7, "p_m": 0.3}'

    res = run("llm-aoa", small_scenario, PARAMS, cfg, transport=healthy)
    assert len(replies) == 2 * 3
    assert (res.history[-1]["p_c"], res.history[-1]["p_m"]) == (0.7, 0.3)


def test_llm_aoa_computes_one_hypervolume_per_outer_iteration(small_scenario, monkeypatch):
    calls = _count_calls(monkeypatch, metrics, "hypervolume")
    cfg = SolverConfig(population_size=8, t_ao=3, t_local=2, seed=0)
    run("llm-aoa", small_scenario, PARAMS, cfg)
    assert len(calls) == 3


def test_run_is_seed_deterministic(small_scenario):
    cfg = SolverConfig(population_size=8, t_ao=2, t_local=2, seed=11)
    r1 = run("llm-aoa", small_scenario, PARAMS, cfg)
    r2 = run("llm-aoa", small_scenario, PARAMS, cfg)
    assert r1.history == r2.history
    f1 = [ind.to_dict() for ind in r1.front]
    f2 = [ind.to_dict() for ind in r2.front]
    assert f1 == f2


@pytest.mark.parametrize("mode", solver.MODES)
def test_run_sorts_only_where_objectives_change(small_scenario, monkeypatch, mode):
    """`run` sorts once per generation and otherwise only where objectives
    changed: once after the initial evaluation in the monolithic mode, and
    after GCA and after GSO in each outer iteration of the AO modes. Its
    `front` is the first front of its population, and the last history row
    holds that front's metrics."""
    sorts = _count_calls(monkeypatch, solver, "nondominated_sort")
    alternating = mode != "monolithic-nsga2"
    several_fronts = False
    for t_ao, t_local, seed in [(3, 2, 0), (3, 2, 1), (1, 1, 0), (1, 1, 1)]:
        cfg = SolverConfig(population_size=8, t_ao=t_ao, t_local=t_local, seed=seed)
        before = len(sorts)
        res = run(mode, small_scenario, PARAMS, cfg)
        want = t_ao * (t_local + 2) if alternating else 1 + t_ao * t_local
        assert len(sorts) - before == want, cfg
        assert [id(ind) for ind in res.front] == [id(ind) for ind in final_front_feasible_first(res.population)]
        objs = np.array([ind.objectives.as_tuple() for ind in res.front])
        last = res.history[-1]
        assert last["sp"] == metrics.spacing_metric(objs)
        assert last["m3"] == metrics.max_spread_metric(objs)
        assert last["hypervolume"] == metrics.hypervolume(objs)
        several_fronts |= len(nondominated_sort_double_loop(res.population)) > 1
    assert several_fronts


def test_run_history_and_modes(small_scenario, monkeypatch):
    cfg = SolverConfig(population_size=8, t_ao=3, t_local=2, seed=1)
    for mode in ("llm-aoa", "aoa", "monolithic-nsga2"):
        res = run(mode, small_scenario, PARAMS, cfg)
        assert [row["iteration"] for row in res.history] == [1, 2, 3]
        assert len(res.population) == 8
        for row in res.history:
            assert row["hypervolume"] >= 0.0
    # an unknown mode fails before anything is evaluated
    calls = _count_calls(monkeypatch, problem, "evaluate")
    with pytest.raises(ValueError, match="unknown mode 'nope'"):
        run("nope", small_scenario, PARAMS, cfg)
    assert calls == []


def test_aoa_mode_ignores_advisor_setting(small_scenario, monkeypatch):
    calls = _count_calls(monkeypatch, advisor, "advise")
    prompts = []
    cfg = SolverConfig(population_size=8, t_ao=2, t_local=2, seed=5)
    res = run("aoa", small_scenario, PARAMS, cfg, transport=prompts.append)
    # aoa runs no advisor and keeps the initial probabilities throughout
    assert calls == [] and prompts == []
    assert all(row["p_c"] == P_C_INITIAL and row["p_m"] == P_M_INITIAL for row in res.history)


def test_fallback_advisor_can_move_probabilities(small_scenario, monkeypatch):
    updates = []
    real = advisor.advise

    def spy(*args, **kwargs):
        updates.append(real(*args, **kwargs))
        return updates[-1]

    monkeypatch.setattr(advisor, "advise", spy)
    cfg = SolverConfig(population_size=8, t_ao=4, t_local=3, seed=5)
    res = run("llm-aoa", small_scenario, PARAMS, cfg)
    # with no transport, llm-aoa asks the fallback rule once per generation
    assert len(updates) == cfg.t_ao * cfg.t_local
    assert {update.source for update in updates} == {"fallback"}
    # probabilities stay inside the advisor clamp bounds at all times
    for row in res.history:
        assert 0.1 <= row["p_c"] <= 0.95
        assert 0.01 <= row["p_m"] <= 0.9


def test_final_front_prefers_feasible():
    objs = [(1.0, 1.0, 1.0), (5.0, 5.0, 0.5)]
    pool = fake_pool(objs, violations=[0.0, 1.0])
    front = nondominated_sort(pool)[0]
    assert front == [0] and pool[front[0]].violation == 0.0


def test_final_front_equals_the_feasible_filter_oracle(rng):
    for case in range(300):
        pool = _tied_pool(rng, int(rng.integers(0, 31)), (0.0, 0.5, 1.0)[case % 3])
        front = [pool[i] for i in nondominated_sort(pool)[0]]
        assert [id(ind) for ind in front] == [id(ind) for ind in final_front_feasible_first(pool)], case


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(population_size=7)
    with pytest.raises(ValueError):
        SolverConfig(t_ao=0)
