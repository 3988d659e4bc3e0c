"""Acceptance suite: one test per shipped guarantee, pinned tolerances.

Each test prints a single PASS line on success (visible with -s; the -v test
name serves the same purpose otherwise).
"""

import json
import math
import statistics
import string
import time

import numpy as np
import pytest

from dcsf import Bounds, SystemParams, generate_scenario
from dcsf.advisor import P_C_BOUNDS, P_M_BOUNDS, AdvisorInput, advise, _parse_params
from dcsf.beamforming import cluster_snr, denominator_quadrature, pairwise_sinc_sum
from dcsf.cli import main
from dcsf.energy import RotorModel, flight_energy_xyz, hover_power, vertical_power
from dcsf.metrics import hypervolume_min
from dcsf.problem import (
    ClusterAssignment,
    Individual,
    ObjectiveTriple,
    canonicalize_labels,
    cluster_semantic_terms,
    evaluate,
)
from dcsf.solver import (
    SolverConfig,
    crowding_distance,
    enumerate_merge_gains,
    final_front,
    gca_step,
    gso_step,
    nondominated_sort,
    run,
)

PARAMS = SystemParams()
LAM = PARAMS.wavelength
P = 2.0 * math.pi / LAM


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1 & 2: beam-pattern normalization and the closed-form denominator


@pytest.fixture(scope="module")
def random_arrays():
    rng = np.random.default_rng(2024)
    arrays = []
    for _ in range(100):
        n = int(rng.integers(2, 7))
        pos = rng.uniform(0.0, 10.0 * LAM, (n, 3))
        w = rng.uniform(0.0, 1.0, n)
        if np.all(w < 1e-9):
            w[0] = 1.0
        arrays.append((pos, w))
    return arrays


def test_acceptance_01_beam_pattern_normalization(random_arrays):
    eta = PARAMS.eta
    start = time.perf_counter()
    worst = 0.0
    for pos, w in random_arrays:
        cf = pairwise_sinc_sum(pos, w, P)
        q = denominator_quadrature(pos, w, P, 512, 1024)
        # (1/4pi) integral of G over the sphere is eta * q / cf by construction
        rel = abs(eta * q / cf - eta) / eta
        worst = max(worst, rel)
        assert rel < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(1, f"100 arrays, worst normalization error {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_02_closed_form_matches_quadrature(random_arrays):
    worst = 0.0
    for pos, w in random_arrays:
        cf = pairwise_sinc_sum(pos, w, P)
        q = denominator_quadrature(pos, w, P, 512, 1024)
        rel = abs(q - cf) / cf
        worst = max(worst, rel)
        assert rel < 1e-3
    _report(2, f"closed form vs quadrature, worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 3: collaborative gain scaling


def test_acceptance_03_collaborative_gain_scaling():
    bs = np.array([20000.0, 0.0, 80.0])
    for n in (2, 4, 8):
        # elements along y, orthogonal to the BS bearing, stay co-phased
        spacing = 60.0 * LAM
        ys = (np.arange(n) - (n - 1) / 2.0) * spacing
        q = np.column_stack([np.zeros(n), ys, np.full(n, 80.0)])
        snr_multi = cluster_snr(list(range(n)), q, np.ones(n), bs, PARAMS)
        centroid = q.mean(axis=0, keepdims=True)
        snr_single = cluster_snr([0], centroid, np.ones(1), bs, PARAMS)
        ratio = snr_multi / snr_single
        assert ratio == pytest.approx(n * n * PARAMS.eta, rel=0.05), f"N={n}: ratio {ratio}"
    _report(3, "co-phased N=2,4,8 received power scales as N^2 * eta within 5%")


# ---------------------------------------------------------------------------
# 4: sorting and crowding against brute force


def _fake_pool(objs, violations):
    a = ClusterAssignment((1,))
    pool = []
    for o, v in zip(objs, violations):
        ind = Individual(a, np.array([[0.0, 0.0, 60.0]]), np.ones(1), np.array([5]))
        ind.objectives = ObjectiveTriple(*o)
        ind.violation = float(v)
        pool.append(ind)
    return pool


def _brute_fronts(objs, viol):
    """Independent vectorized constrained-domination front peeling."""
    f1, f2, f3 = objs[:, 0], objs[:, 1], objs[:, 2]
    no_worse = (f1[:, None] >= f1) & (f2[:, None] >= f2) & (f3[:, None] <= f3)
    better = (f1[:, None] > f1) | (f2[:, None] > f2) | (f3[:, None] < f3)
    pareto = no_worse & better
    feas = viol == 0.0
    dom = np.where(
        feas[:, None] & ~feas, True,
        np.where(
            ~feas[:, None] & feas, False,
            np.where(~feas[:, None] & ~feas, viol[:, None] < viol, pareto),
        ),
    )
    np.fill_diagonal(dom, False)
    remaining = np.ones(len(objs), dtype=bool)
    fronts = []
    while remaining.any():
        idx = np.where(remaining)[0]
        sub = dom[np.ix_(idx, idx)]
        nondom = idx[~sub.any(axis=0)]
        fronts.append(sorted(int(i) for i in nondom))
        remaining[nondom] = False
    return fronts


def _brute_crowding(front_objs):
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


def test_acceptance_04_sorting_and_crowding_exactness():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(2, 51))
        objs = rng.random((m, 3)) * [1e8, 1e6, 1e4]
        # duplicated rows and a mix of infeasible members stress the ties
        if m > 4 and rng.random() < 0.5:
            objs[1] = objs[0]
        viol = np.where(rng.random(m) < 0.25, rng.random(m), 0.0)
        pool = _fake_pool(objs, viol)
        got = [sorted(f) for f in nondominated_sort(pool)]
        want = _brute_fronts(objs, viol)
        assert got == want
        for front in got:
            cd = crowding_distance([pool[i] for i in front])
            ref = _brute_crowding(objs[front])
            assert np.array_equal(cd, ref)
    _report(4, "1000 random pools (M <= 50): fronts and crowding match brute force exactly")


# ---------------------------------------------------------------------------
# 5 & 6: greedy cluster merging and symbol sweep


def _random_individual(scn, rng, params=PARAMS):
    n = scn.n_uavs
    raw = rng.integers(1, n + 1, size=n)
    k_raw = rng.integers(params.k_min, params.k_max + 1, size=int(raw.max()))
    assignment, k = canonicalize_labels(raw, k_raw)
    q = scn.bounds.lower + rng.random((n, 3)) * (scn.bounds.upper - scn.bounds.lower)
    w = rng.random(n)
    return Individual(assignment, q, w, k)


def test_acceptance_05_gca_greedy_optimality():
    rng = np.random.default_rng(11)
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    total_merges = 0
    for i in range(50):
        n_v = int(rng.integers(2, 6))
        bs = (3000.0, 250.0, 0.0)
        scn = generate_scenario(15, n_v, bounds, bs, seed=100 + i)
        if i % 2 == 0:
            ind = _random_individual(scn, rng)
        else:
            # near-coherent fleet at an SNR on the steep part of the similarity
            # curve, where pooling transmitters genuinely raises f2
            labels = tuple(range(1, n_v + 1))
            q = np.column_stack([
                np.full(n_v, 250.0),
                250.0 + (np.arange(n_v) - (n_v - 1) / 2.0) * 8.0 + rng.normal(0, 0.5, n_v),
                np.full(n_v, 80.0),
            ])
            ind = Individual(ClusterAssignment(labels), q, np.ones(n_v),
                             np.ones(n_v, dtype=int))
        evaluate(ind, scn, PARAMS)
        baseline = ind.objectives.f2
        # exhaustive replay: each applied merge must be the best-gain merge
        oracle = ind.copy()
        while oracle.assignment.n_clusters > 1:
            gains = list(enumerate_merge_gains(oracle, scn, PARAMS, baseline))
            best = max(gains, key=lambda g: g[2])
            if best[2] > 0:
                oracle.assignment, oracle.k = best[3], best[4]
                total_merges += 1
                assert best[5] > baseline  # the merge strictly increases f2 over the baseline
            else:
                break
        gca_step([ind], scn, PARAMS)
        assert ind.assignment.labels == oracle.assignment.labels
        assert list(ind.k) == list(oracle.k)
        assert ind.objectives.f2 >= baseline
    _report(5, f"50 instances, {total_merges} applied merges all exhaustive-best and f2-increasing")


def _gso_oracle(ind, scn, params):
    best = ind.copy()
    for i in range(best.assignment.n_clusters):
        candidates = []
        for k in range(params.k_min, params.k_max + 1):
            trial = best.copy()
            trial.k[i] = k
            rates, xis = cluster_semantic_terms(trial, scn, params)
            candidates.append((k, float(rates.sum()), float(xis[i])))
        feasible = [c for c in candidates if c[2] >= params.xi_threshold]
        pick = (max(feasible, key=lambda c: (c[1], -c[0])) if feasible
                else max(candidates, key=lambda c: (c[2], -c[0])))
        best.k[i] = pick[0]
    evaluate(best, scn, params)
    return best


def test_acceptance_06_gso_exactness():
    rng = np.random.default_rng(13)
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    for i in range(50):
        n_v = int(rng.integers(2, 6))
        scn = generate_scenario(15, n_v, bounds, (2000.0, 2000.0, 0.0), seed=200 + i)
        ind = _random_individual(scn, rng)
        oracle = _gso_oracle(ind.copy(), scn, PARAMS)
        gso_step([ind], scn, PARAMS)
        assert list(ind.k) == list(oracle.k), f"instance {i}"
    _report(6, "50 individuals: every k matches the from-scratch exhaustive argmax")


# ---------------------------------------------------------------------------
# 7: energy closed forms


def test_acceptance_07_energy_closed_forms():
    rotor = RotorModel()
    assert hover_power(rotor) == 79.86 + 88.63
    assert vertical_power(rotor, -2.5) == 0.0
    assert vertical_power(rotor, 0.0) == 0.0
    climb = flight_energy_xyz(np.zeros(3), np.array([0.0, 0.0, 10.0]), rotor, 10.0, 2.0)
    assert climb == 200.0
    _report(7, "hover = P0 + P_ind, descent = 0, 10 m climb at 2 m/s with W=20 N = 200 J, all exact")


# ---------------------------------------------------------------------------
# 8: run determinism through the CLI


def test_acceptance_08_cli_determinism(tmp_path):
    scn = tmp_path / "scn.json"
    assert main(["generate", "--users", "25", "--uavs", "3", "--area", "500",
                 "--bs", "2000", "2000", "0", "--seed", "3", "--out", str(scn)]) == 0
    for out in ("runA", "runB"):
        assert main(["solve", "--scenario", str(scn), "--mode", "llm-aoa",
                     "--advisor", "static", "--seed", "7", "--pop", "8",
                     "--t-ao", "2", "--t-local", "2", "--out", str(tmp_path / out)]) == 0
    for name in ("history.csv", "pareto.json"):
        a = (tmp_path / "runA" / name).read_bytes()
        b = (tmp_path / "runB" / name).read_bytes()
        assert a == b, f"{name} differs between identical seeded runs"
    _report(8, "seed-7 static runs produce byte-identical history.csv and pareto.json")


# ---------------------------------------------------------------------------
# 9: paired scaled experiment, advisor on vs off


def _paired_hypervolumes(front_a, front_b):
    """Hypervolumes of two fronts under one shared normalization."""
    objs_a = np.array([ind.objectives.as_tuple() for ind in front_a])
    objs_b = np.array([ind.objectives.as_tuple() for ind in front_b])
    both = np.vstack([objs_a, objs_b])
    g = np.column_stack([-both[:, 0], -both[:, 1], both[:, 2]])
    lo, hi = g.min(axis=0), g.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    ref = np.full(3, 1.1)

    def hv(objs):
        gg = (np.column_stack([-objs[:, 0], -objs[:, 1], objs[:, 2]]) - lo) / span
        return hypervolume_min(gg, ref)

    return hv(objs_a), hv(objs_b)


def test_acceptance_09_advisor_beats_static_on_scaled_problem():
    bounds = Bounds(0.0, 500.0, 0.0, 500.0, 60.0, 120.0)
    scn = generate_scenario(50, 4, bounds, (5000.0, 5000.0, 0.0), seed=1)
    start = time.perf_counter()
    wins = 0
    ratios = []
    for seed in range(10):
        cfg = SolverConfig(population_size=20, t_ao=10, t_local=5, seed=seed,
                           advisor_mode="fallback")
        adaptive = run("llm-aoa", scn, PARAMS, cfg)
        static = run("aoa", scn, PARAMS, cfg)
        hv_a, hv_s = _paired_hypervolumes(final_front(adaptive.population),
                                          final_front(static.population))
        if hv_a >= hv_s:
            wins += 1
        ratios.append(hv_a / hv_s if hv_s > 0 else math.inf)
    elapsed = time.perf_counter() - start
    median_ratio = statistics.median(ratios)
    assert elapsed < 600.0
    assert wins >= 6, f"adaptive advisor won only {wins}/10 seeds (ratios {ratios})"
    assert median_ratio >= 1.0, f"median hypervolume ratio {median_ratio:.4f} < 1.0"
    _report(9, f"adaptive advisor >= static in {wins}/10 seeds, "
               f"median ratio {median_ratio:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10: full-scale sanity against headline magnitudes


def test_acceptance_10_full_scale_knee_magnitudes():
    bounds = Bounds(0.0, 1000.0, 0.0, 1000.0, 60.0, 120.0)
    scn = generate_scenario(500, 8, bounds, (5000.0, 5000.0, 0.0), seed=0)
    cfg = SolverConfig(population_size=30, t_ao=20, t_local=10, seed=0,
                       advisor_mode="fallback")
    result = run("llm-aoa", scn, PARAMS, cfg)
    front = final_front(result.population)
    objs = np.array([ind.objectives.as_tuple() for ind in front])
    from dcsf.metrics import knee_index

    knee = front[knee_index(objs)]
    f1, f2 = knee.objectives.f1, knee.objectives.f2
    assert 1.10e8 / 5.0 <= f1 <= 1.10e8 * 5.0, f"knee f1 {f1:.3e} outside 5x of 1.10e8"
    assert 4.12e6 / 5.0 <= f2 <= 4.12e6 * 5.0, f"knee f2 {f2:.3e} outside 5x of 4.12e6"
    _report(10, f"full scale knee f1 = {f1:.3e} bps, f2 = {f2:.3e} suts/s, both within 5x")


# ---------------------------------------------------------------------------
# 11: advisor robustness under fuzzed endpoint replies


def test_acceptance_11_advisor_fuzz():
    rng = np.random.default_rng(99)
    alphabet = string.printable
    inp = AdvisorInput(generation=1, p_c=0.8, p_m=0.4, sp=0.3, m3=1.2,
                       history=((0.2, 1.1),))
    checked_fallbacks = 0
    for i in range(1000):
        kind = i % 4
        if kind == 0:
            body = "".join(rng.choice(list(alphabet), size=int(rng.integers(0, 120))))
        elif kind == 1:
            body = json.dumps({"p_c": float(rng.normal(0, 10)), "p_m": float(rng.normal(0, 10))})
        elif kind == 2:
            junk = [["x", 0.3], [None, None], [True, 0.3], [[1], "y"], [0.5, "nan"]]
            pc, pm = junk[int(rng.integers(0, len(junk)))]
            body = json.dumps({"p_c": pc, "p_m": pm})
        else:
            body = "{" * int(rng.integers(1, 30)) + "}" * int(rng.integers(0, 30))
        upd = advise(inp, "llm", transport=lambda prompt, b=body: b)
        assert P_C_BOUNDS[0] <= upd.p_c <= P_C_BOUNDS[1]
        assert P_M_BOUNDS[0] <= upd.p_m <= P_M_BOUNDS[1]
        if _parse_params(body) is None:
            assert upd.source == "fallback"
            checked_fallbacks += 1
        else:
            assert upd.source == "llm"
    assert checked_fallbacks > 0
    _report(11, f"1000 fuzzed bodies: no crash, always in-bounds, "
                f"{checked_fallbacks} malformed bodies all degraded to fallback")
