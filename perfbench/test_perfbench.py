"""Tests of the benchmark's own code: the output checker, the hypervolume,
the tracer and the host-speed probe. They solve only a tiny scenario, so
they stay fast."""

from __future__ import annotations

import itertools
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
import run as run_mod
import tracer as tracer_mod
from dcsf import cli, problem, solver
from dcsf.metrics import hypervolume_min as program_hypervolume_min
from dcsf.scenario import SystemParams, load_scenario

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A tiny scenario and one `dcsf solve` run on it."""
    tmp = tmp_path_factory.mktemp("perfbench")
    scenario = tmp / "scenario.json"
    run = tmp / "run"
    assert cli.main(["generate", "--users", "40", "--uavs", "4", "--seed", "1", "--out", str(scenario)]) == 0
    assert cli.main(["solve", "--scenario", str(scenario), "--mode", "aoa", "--seed", "0",
                     "--pop", "8", "--t-ao", "1", "--t-local", "2", "--out", str(run)]) == 0
    return scenario, run


def _front(run):
    return json.loads((run / "pareto.json").read_text())


def test_checker_accepts_the_program_output(solved):
    scenario, run = solved
    rows = oracle.check_run(run, oracle.load_world(scenario), SystemParams())
    assert rows and all(r[3] == 0.0 for r in rows)


def test_recomputed_objectives_match_random_individuals(solved):
    """Feasible or not, every initial individual evaluates the same both ways."""
    scenario, _ = solved
    params = SystemParams()
    scn = load_scenario(scenario)
    world = oracle.load_world(scenario)
    population = solver.initialize_population(scn, params, solver.SolverConfig(population_size=20, seed=3))
    for ind in population:
        f1, f2, f3 = problem.evaluate(ind, scn, params).as_tuple()
        labels = list(ind.assignment.labels)
        rates, xis = oracle.cluster_terms(labels, ind.q, ind.w, ind.k, world, params)
        assert oracle.user_rate_bps(world, ind.q, params) == pytest.approx(f1, rel=1e-12)
        assert float(rates.sum()) == pytest.approx(f2, rel=1e-9)
        assert oracle.flight_energy_j(world, ind.q, params) == pytest.approx(f3, rel=1e-12)
        assert oracle.violation_scalar(ind.q, xis, world, params) == pytest.approx(ind.violation, abs=1e-12)


def test_checker_catches_a_perturbed_objective(solved):
    scenario, run = solved
    doc = _front(run)
    doc["front"][0]["objectives"][1] *= 1.0 + 1e-5
    with pytest.raises(oracle.CheckError, match="f2"):
        oracle.check_front_doc(doc, oracle.load_world(scenario), SystemParams())


def test_checker_catches_a_dominated_member(solved):
    """A copy of a member with another feasible k has the same f1 and f3 and a
    lower f2, since the symbol sweep chose k for the highest f2."""
    scenario, run = solved
    params = SystemParams()
    scn = load_scenario(scenario)
    doc = _front(run)
    best = problem.Individual.from_dict(doc["front"][0])
    problem.evaluate(best, scn, params)
    for k in range(params.k_min, params.k_max + 1):
        worse = best.copy()
        worse.k[0] = k
        problem.evaluate(worse, scn, params)
        if worse.violation == 0.0 and worse.objectives.f2 < best.objectives.f2:
            break
    else:
        pytest.fail("no feasible k with a lower f2")
    doc["front"].append(worse.to_dict())
    with pytest.raises(oracle.CheckError, match="dominates"):
        oracle.check_front_doc(doc, oracle.load_world(scenario), params)


def test_checker_catches_uavs_closer_than_d_min(solved):
    """Objectives and violation as the program computes them, but the member
    claims feasibility with two UAVs 1 m apart."""
    scenario, run = solved
    params = SystemParams()
    scn = load_scenario(scenario)
    ind = problem.Individual.from_dict(_front(run)["front"][0])
    ind.q[1] = ind.q[0] + np.array([1.0, 0.0, 0.0])
    problem.evaluate(ind, scn, params)
    assert ind.violation > 0.0
    ind.violation = 0.0
    with pytest.raises(oracle.CheckError, match="C2: UAVs 0 and 1"):
        oracle.check_front_doc({"front": [ind.to_dict()]}, oracle.load_world(scenario), params)


def test_front_check_rejects_mixed_feasibility():
    with pytest.raises(oracle.CheckError, match="mixes"):
        oracle.check_front([(1.0, 1.0, 1.0, 0.0), (2.0, 2.0, 0.5, 0.1)])
    oracle.check_front([(1.0, 2.0, 1.0, 0.0), (2.0, 1.0, 1.0, 0.0)])
    oracle.check_front([(1.0, 2.0, 1.0, 0.3), (2.0, 1.0, 1.0, 0.3)])


def _brute_force_volume(points, ref) -> int:
    """Unit cells of the integer grid below `ref` dominated by some point."""
    return sum(
        any(all(c >= p for c, p in zip(cell, point)) for point in points)
        for cell in itertools.product(*(range(r) for r in ref))
    )


@pytest.mark.parametrize("seed", range(5))
def test_hypervolume_matches_brute_force_count(seed):
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 6, size=(rng.integers(1, 8), 3))
    ref = (6, 6, 6)
    assert oracle.hypervolume_min(points, ref) == _brute_force_volume(points.tolist(), ref)


@pytest.mark.parametrize("seed", range(5))
def test_hypervolume_matches_program_on_normalized_points(seed):
    rng = np.random.default_rng(seed)
    rows = [(f1, f2, f3, 0.0) for f1, f2, f3 in rng.uniform([1e6, 1e5, 1e3], [3e7, 1e6, 5e4], size=(12, 3))]
    scale = (3e7, 1e6, 6e4)
    points = oracle.normalized_points(rows, scale)
    ref = np.array([0.0, 0.0, 1.0])
    assert oracle.front_hypervolume(rows, scale) == pytest.approx(program_hypervolume_min(points, ref), rel=1e-12)


def test_hypervolume_of_one_point_is_its_box_not_the_maximum():
    rows = [(1.5e7, 5e5, 3e4, 0.0)]
    assert oracle.front_hypervolume(rows, (3e7, 1e6, 6e4)) == pytest.approx(0.5 * 0.5 * 0.5)
    assert oracle.front_hypervolume([(1.5e7, 5e5, 3e4, 0.2)], (3e7, 1e6, 6e4)) == 0.0


def test_tracer_counts_calls_and_restores_the_modules(solved, tmp_path, monkeypatch):
    monkeypatch.setattr(tracer_mod, "LAYERS", tracer_mod.LAYERS + (("solver", "no_such_stage"),))
    original = solver.gca_step
    scenario, _ = solved
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert cli.main(["solve", "--scenario", str(scenario), "--mode", "llm-aoa", "--seed", "0",
                         "--pop", "4", "--t-ao", "1", "--t-local", "1", "--out", str(tmp_path / "run")]) == 0
    finally:
        t.uninstall()
    assert solver.gca_step is original
    assert t.absent == ["solver.no_such_stage"]
    calls = {name: stats[0] for name, stats in t.stats.items()}
    assert calls["cli._cmd_solve"] == calls["solver.run"] == calls["solver.gca_step"] == 1
    assert calls["advisor.advise"] == 1 and calls["solver.gso_step"] == 1
    assert calls["problem.evaluate"] == calls["channel.sum_user_rate"] > 0
    assert 0 <= t.merges_applied <= t.merges_scored
    total, own = t.stats["cli._cmd_solve"][1:]
    assert 0.0 < own < total
    t.save(tmp_path / "trace.npz")
    saved = np.load(tmp_path / "trace.npz")
    assert len(saved["name"]) == sum(calls.values())
    assert saved["parent"][0] == -1 and np.all(saved["end"] >= saved["start"])


def test_host_speed_probe_samples_during_the_work_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    probe = run_mod.HostSpeedProbe()
    with probe:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert probe.chunks >= 2
    assert 0.0 < probe.chunk_s <= probe.spent < 0.35
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "mono-u2000-v8",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
