import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcsf
from dcsf import Bounds, cli, scenario as scenario_mod
from dcsf.advisor import ENV_URL
from dcsf.cli import main
from dcsf.problem import ObjectiveTriple
from dcsf.scenario import _ROWS_PER_BLOCK, Scenario, json_pieces, launch_positions, write_json
from oracles import deployment_doc, json_file_text, random_individual


def _generate(tmp_path, seed=5):
    scn = tmp_path / "scn.json"
    rc = main([
        "generate", "--users", "25", "--uavs", "3", "--area", "500",
        "--bs", "2000", "2000", "0", "--seed", str(seed), "--out", str(scn),
    ])
    assert rc == 0
    return scn


def _solve(tmp_path, scn, out, mode="aoa", advisor="fallback", seed=7):
    rc = main([
        "solve", "--scenario", str(scn), "--mode", mode, "--advisor", advisor,
        "--seed", str(seed), "--pop", "8", "--t-ao", "2", "--t-local", "2",
        "--out", str(tmp_path / out),
    ])
    assert rc == 0
    return tmp_path / out


def test_generate_writes_scenario(tmp_path):
    scn = _generate(tmp_path)
    doc = json.loads(scn.read_text())
    assert len(doc["users"]) == 25
    assert len(doc["uavs_initial"]) == 3


def test_generate_rejects_an_invalid_scenario_without_writing(tmp_path, capsys):
    # a 3 m area cannot hold 8 UAVs d_min = 5 m apart
    scn = tmp_path / "scn.json"
    assert main(["generate", "--area", "3", "--uavs", "8", "--out", str(scn)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: invalid scenario") and "C2: UAVs 0 and 1" in line
    assert not scn.exists()


def test_solve_writes_all_artifacts(tmp_path):
    scn = _generate(tmp_path)
    out = _solve(tmp_path, scn, "run")
    for name in ("config.json", "history.csv", "pareto.json", "deployment.json", "report.json", "timings.json"):
        assert (out / name).exists(), name
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "iteration,sp,m3,hypervolume,p_c,p_m,front_size"
    assert len(history) == 3  # header + two outer iterations
    report = json.loads((out / "report.json").read_text())
    assert report["front_size"] >= 1
    assert len(report["knee_objectives"]) == 3


def test_solve_deployment_is_consistent(tmp_path):
    scn = _generate(tmp_path)
    out = _solve(tmp_path, scn, "run")
    dep = json.loads((out / "deployment.json").read_text())
    assert len(dep["users"]) == 25
    assert len(dep["uavs"]) == 3
    labels = {row["cluster"] for row in dep["uavs"]}
    assert labels == set(range(1, max(labels) + 1))
    for row in dep["users"]:
        assert 0 <= row["uav"] < 3


def test_solve_reruns_are_byte_identical(tmp_path):
    scn = _generate(tmp_path)
    a = _solve(tmp_path, scn, "runA")
    b = _solve(tmp_path, scn, "runB")
    for name in ("config.json", "history.csv", "pareto.json", "deployment.json", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # the wall clock goes to timings.json alone
    for run in (a, b):
        timings = json.loads((run / "timings.json").read_text())
        assert list(timings) == ["elapsed_seconds"] and timings["elapsed_seconds"] >= 0.0


def test_compare_reports_shared_scale_metrics(tmp_path, capsys):
    scn = _generate(tmp_path)
    a = _solve(tmp_path, scn, "runA", mode="llm-aoa", advisor="fallback")
    b = _solve(tmp_path, scn, "runB", mode="aoa")
    cmp_path = tmp_path / "cmp.json"
    capsys.readouterr()
    rc = main(["compare", str(a), str(b), "--out", str(cmp_path)])
    assert rc == 0
    # one text, printed and written
    assert capsys.readouterr().out == cmp_path.read_text()
    doc = json.loads(cmp_path.read_text())
    assert cmp_path.read_text() == json_file_text(doc)
    assert set(doc["runs"]) == {"runA", "runB"}
    assert "runA/runB" in doc["hypervolume_ratios"]
    for row in doc["runs"].values():
        assert row["hypervolume"] >= 0.0


def test_compare_rejects_runs_with_the_same_name(tmp_path, capsys):
    scn = _generate(tmp_path)
    a = _solve(tmp_path, scn, "a/run")
    b = tmp_path / "b" / "run"
    shutil.copytree(a, b)
    capsys.readouterr()
    rc = main(["compare", str(a), str(b)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'run'" in err


def test_export_deployment_matches_solve_output(tmp_path):
    scn = _generate(tmp_path)
    out = _solve(tmp_path, scn, "run")
    dep = tmp_path / "dep.json"
    rc = main(["export-deployment", "--scenario", str(scn), "--run", str(out),
               "--index", "knee", "--out", str(dep)])
    assert rc == 0
    assert dep.read_bytes() == (out / "deployment.json").read_bytes()


def _edge_deployment(seed):
    """A deployment on users at edge coordinates, over more than two blocks
    of rows, with edge objectives."""
    rng = np.random.default_rng(seed)
    users = rng.random((2 * _ROWS_PER_BLOCK + 40, 3)) * (1000.0, 1000.0, 0.0)
    users[:4] = [[5e-324, -0.0, 0.0], [1e16, 1e-05, 1e-07], [123.456, 0.1, 2.5e150], [-1e-300, 1.0, 3.0]]
    bounds = Bounds(0.0, 1000.0, 0.0, 1000.0, 60.0, 120.0)
    scn = Scenario(users, launch_positions(5, bounds), (5000.0, 5000.0, 0.0), bounds, 0)
    ind = random_individual(scn, rng)
    ind.objectives = ObjectiveTriple(1e16, 1e-05, 5e-324)
    ind.violation = -0.0
    return scn, ind


def test_deployment_file_equals_the_per_user_dict_document(tmp_path):
    path = tmp_path / "dep.json"
    for seed in range(3):
        scn, ind = _edge_deployment(seed)
        write_json(cli._deployment_doc(scn, ind), path)
        assert path.read_text() == json_file_text(deployment_doc(scn, ind))


def test_deployment_writer_hands_the_file_one_block_of_rows_at_most(tmp_path, monkeypatch):
    pieces = []

    class Spy(io.StringIO):
        def write(self, text):
            pieces.append(text)
            return len(text)

    monkeypatch.setattr(scenario_mod, "open", lambda *args, **kwargs: Spy(), raising=False)
    scn, ind = _edge_deployment(0)
    write_json(cli._deployment_doc(scn, ind), tmp_path / "dep.json")
    oracle = deployment_doc(scn, ind)
    assert "".join(pieces) == json_file_text(oracle)
    # a row's text, its line's indent and its comma
    row = max(len("".join(json_pieces(user, "\n    "))) + 6 for user in oracle["users"])
    assert max(map(len, pieces)) <= _ROWS_PER_BLOCK * row < len("".join(pieces)) / 2


def test_export_deployment_rejects_bad_index(tmp_path):
    scn = _generate(tmp_path)
    out = _solve(tmp_path, scn, "run")
    rc = main(["export-deployment", "--scenario", str(scn), "--run", str(out),
               "--index", "99", "--out", str(tmp_path / "dep.json")])
    assert rc == 1


@pytest.mark.parametrize("k", [0, -2, 99, 2.5])
def test_export_deployment_rejects_a_k_outside_the_symbol_range(tmp_path, capsys, k):
    scn = _generate(tmp_path)
    out = _solve(tmp_path, scn, "run")
    doc = json.loads((out / "pareto.json").read_text())
    doc["front"][0]["k"][0] = k
    (out / "pareto.json").write_text(json.dumps(doc))
    dep = tmp_path / "dep.json"
    capsys.readouterr()
    rc = main(["export-deployment", "--scenario", str(scn), "--run", str(out),
               "--index", "0", "--out", str(dep)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and str(k) in line
    assert not dep.exists()


@pytest.mark.parametrize("w", [-5.0, -1e-300, 1.0 + 2.0 ** -52, 7])
def test_export_deployment_rejects_weights_outside_their_bounds(tmp_path, capsys, w):
    """A member whose weights leave [w_min, w_max] is refused before it is
    evaluated, whichever member is exported: such weights would score as
    feasible with a semantic rate no solve can reach."""
    scn = _generate(tmp_path)
    out = _solve(tmp_path, scn, "run")
    doc = json.loads((out / "pareto.json").read_text())
    doc["front"][-1]["w"] = [w] * len(doc["front"][-1]["w"])
    (out / "pareto.json").write_text(json.dumps(doc))
    dep = tmp_path / "dep.json"
    capsys.readouterr()
    rc = main(["export-deployment", "--scenario", str(scn), "--run", str(out),
               "--index", "0", "--out", str(dep)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    member = len(doc["front"]) - 1
    assert err == f"error: front member {member}: w {[float(w)] * 3} not in [0.0, 1.0]\n"
    assert not dep.exists()


@pytest.mark.parametrize("uavs", [2, 4])
def test_export_deployment_rejects_a_front_of_another_fleet_size(tmp_path, capsys, uavs):
    out = _solve(tmp_path, _generate(tmp_path), "run")  # 3 UAVs
    other = tmp_path / "other.json"
    assert main(["generate", "--users", "25", "--uavs", str(uavs), "--area", "500",
                 "--bs", "2000", "2000", "0", "--out", str(other)]) == 0
    dep = tmp_path / "dep.json"
    capsys.readouterr()
    rc = main(["export-deployment", "--scenario", str(other), "--run", str(out), "--out", str(dep)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: front member 0 has 3 UAVs; the scenario has {uavs}\n"
    assert not dep.exists()


def test_missing_scenario_is_a_runtime_error(tmp_path):
    rc = main(["solve", "--scenario", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")])
    assert rc == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required --scenario
    assert exc.value.code == 2


def test_solve_and_export_reject_invalid_launch_positions(tmp_path, capsys):
    scn = _generate(tmp_path)
    doc = json.loads(scn.read_text())
    # two launch points west of the region (x_min = 0), 1 m apart (d_min = 5 m)
    doc["uavs_initial"][:2] = [[-50.0, 100.0, 60.0], [-50.0, 101.0, 60.0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    run = tmp_path / "run"
    for argv in (
        ["solve", "--scenario", str(bad), "--pop", "4", "--t-ao", "1", "--t-local", "1",
         "--out", str(run)],
        ["export-deployment", "--scenario", str(bad), "--run", str(run),
         "--out", str(tmp_path / "dep.json")],
    ):
        capsys.readouterr()
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: invalid scenario")
        assert "C1: UAV 0" in line and "C1: UAV 1" in line and "C2: UAVs 0 and 1" in line
    assert not run.exists()


def test_monolithic_mode_through_cli(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_URL, raising=False)
    scn = _generate(tmp_path)
    # config.json records the advisor that ran: none in aoa and monolithic-nsga2,
    # and the fallback rule for llm with no endpoint set
    for mode, advisor, recorded in (("monolithic-nsga2", "llm", None), ("aoa", "llm", None),
                                    ("llm-aoa", "fallback", "fallback"), ("llm-aoa", "llm", "fallback")):
        out = _solve(tmp_path, scn, f"run-{mode}-{advisor}", mode=mode, advisor=advisor)
        config = json.loads((out / "config.json").read_text())
        assert (config["mode"], config["advisor"]) == (mode, recorded)


def _solve_40x6(tmp_path, seed, capsys, bs=()):
    """llm-aoa on `dcsf generate --users 40 --uavs 6` (other options default)."""
    scn = tmp_path / "scn40x6.json"
    assert main(["generate", "--users", "40", "--uavs", "6", *(["--bs", *bs] if bs else []), "--out", str(scn)]) == 0
    out = tmp_path / f"run-seed{seed}"
    capsys.readouterr()
    rc = main(["solve", "--scenario", str(scn), "--seed", str(seed), "--pop", "8",
               "--t-ao", "2", "--t-local", "2", "--out", str(out)])
    assert rc == 0
    return out, capsys.readouterr()


def test_solve_reports_an_infeasible_front(tmp_path, capsys):
    # with the BS 1000 km away every cluster's SNR is near -50 dB, so each
    # similarity sits at its floor, at most 0.38, below the threshold at every k
    out, captured = _solve_40x6(tmp_path, 3, capsys, bs=("1000000", "1000000", "0"))
    report = json.loads((out / "report.json").read_text())
    front = json.loads((out / "pareto.json").read_text())["front"]
    assert report["feasible"] is False
    assert report["best_violation"] == min(m["violation"] for m in front) > 0.0
    assert "warning: no member of the front is feasible" in captured.err
    assert "llm-aoa: infeasible front of" in captured.out
    # the least-violating member's violations, in the report and on stderr
    assert report["violations"]
    for line in report["violations"]:
        assert line.startswith(("C1:", "C2:", "C6:"))
        assert line in captured.err


def test_solve_reports_a_feasible_front(tmp_path, capsys):
    out, captured = _solve_40x6(tmp_path, 0, capsys)
    report = json.loads((out / "report.json").read_text())
    assert report["feasible"] is True
    assert report["best_violation"] == 0.0
    assert report["violations"] == []
    assert captured.err == ""
    assert "llm-aoa: front of" in captured.out


# every command in one fresh process; prints the exit codes, then whether numpy.ma was imported
_EVERY_COMMAND = """
import sys
from dcsf.cli import main

root = sys.argv[1]
scn, runs = f"{root}/scn.json", [f"{root}/{mode}" for mode in ("llm-aoa", "aoa", "monolithic-nsga2")]
codes = [main(["generate", "--users", "40", "--uavs", "6", "--out", scn])]
for run in runs:
    codes.append(main(["solve", "--scenario", scn, "--mode", run.rsplit("/", 1)[1], "--pop", "8",
                       "--t-ao", "2", "--t-local", "2", "--out", run]))
codes.append(main(["compare", *runs, "--out", f"{root}/compare.json"]))
codes.append(main(["export-deployment", "--scenario", scn, "--run", runs[0], "--out", f"{root}/dep.json"]))
print(codes, "numpy.ma" in sys.modules)
"""


def test_no_command_imports_numpy_ma(tmp_path):
    """`numpy.ma` costs about 10 ms to import in a fresh process, and no
    command needs it: generate, a solve in each mode, compare and
    export-deployment run in one process and leave it unimported."""
    env = {**os.environ, "PYTHONPATH": str(Path(dcsf.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A scenario, a run on it, a non-JSON scenario, two scenarios with bad
    bounds and four malformed fronts."""
    root = tmp_path_factory.mktemp("inputs")
    scn = _generate(root)
    _solve(root, scn, "run")
    (root / "notjson.json").write_text("not json\n")
    for name, bounds in (("bounds-inf", {"x_max": math.inf}), ("bounds-str", {"x_min": "0", "x_max": "1000"})):
        doc = json.loads(scn.read_text())
        doc["bounds"].update(bounds)
        (root / f"{name}.json").write_text(json.dumps(doc))
    for name, text in (("run-obj", "{}"), ("run-list", "[]"), ("run-empty", '{"front": []}')):
        (root / name).mkdir()
        (root / name / "pareto.json").write_text(text)
    unscored = json.loads((root / "run" / "pareto.json").read_text())
    unscored["front"][0]["objectives"] = None
    (root / "run-unscored").mkdir()
    (root / "run-unscored" / "pareto.json").write_text(json.dumps(unscored))
    return root


BAD_INPUTS = {
    "bs-nan": (["generate", "--bs", "nan", "0", "0", "--out", "{root}/out.json"],
               "non-finite coordinate"),
    "alt-order": (["generate", "--alt-min", "120", "--alt-max", "60", "--out", "{root}/out.json"],
                  "bounds not well-ordered"),
    "pop-3": (["solve", "--scenario", "{root}/scn.json", "--pop", "3", "--out", "{root}/out"],
              "population size"),
    "t-ao-0": (["solve", "--scenario", "{root}/scn.json", "--t-ao", "0", "--out", "{root}/out"],
               "iteration counts"),
    "index-abc": (["export-deployment", "--scenario", "{root}/scn.json", "--run", "{root}/run",
                   "--index", "abc", "--out", "{root}/out.json"], "invalid literal"),
    "front-obj": (["compare", "{root}/run-obj"], "malformed front file"),
    "front-list": (["export-deployment", "--scenario", "{root}/scn.json", "--run", "{root}/run-list",
                    "--out", "{root}/out.json"], "malformed front file"),
    "front-empty": (["compare", "{root}/run", "{root}/run-empty"], "malformed front file"),
    "front-unscored": (["compare", "{root}/run", "{root}/run-unscored"], "malformed front file"),
    "scenario-not-json": (["solve", "--scenario", "{root}/notjson.json", "--out", "{root}/out"],
                          "malformed scenario file"),
    "bounds-inf": (["solve", "--scenario", "{root}/bounds-inf.json", "--out", "{root}/out"],
                   "malformed scenario file"),
    "bounds-str": (["solve", "--scenario", "{root}/bounds-str.json", "--out", "{root}/out"],
                   "malformed scenario file"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_a_bad_input_is_one_error_line(inputs, capsys, case):
    argv, message = BAD_INPUTS[case]
    capsys.readouterr()
    assert main([arg.format(root=inputs) for arg in argv]) == 1
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert out == "" and line.startswith("error: ") and message in line
    assert not (inputs / "out.json").exists() and not (inputs / "out").exists()
