import json
import shutil
from pathlib import Path

import pytest

from dcsf.cli import main


def _generate(tmp_path, seed=5):
    scn = tmp_path / "scn.json"
    rc = main([
        "generate", "--users", "25", "--uavs", "3", "--area", "500",
        "--bs", "2000", "2000", "0", "--seed", str(seed), "--out", str(scn),
    ])
    assert rc == 0
    return scn


def _solve(tmp_path, scn, out, mode="llm-aoa", advisor="static", seed=7):
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
    for name in ("config.json", "history.csv", "pareto.json", "deployment.json", "report.json"):
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
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    assert (a / "pareto.json").read_bytes() == (b / "pareto.json").read_bytes()


def test_compare_reports_shared_scale_metrics(tmp_path):
    scn = _generate(tmp_path)
    a = _solve(tmp_path, scn, "runA", mode="llm-aoa", advisor="fallback")
    b = _solve(tmp_path, scn, "runB", mode="aoa")
    cmp_path = tmp_path / "cmp.json"
    rc = main(["compare", str(a), str(b), "--out", str(cmp_path)])
    assert rc == 0
    doc = json.loads(cmp_path.read_text())
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


def test_export_deployment_rejects_bad_index(tmp_path):
    scn = _generate(tmp_path)
    out = _solve(tmp_path, scn, "run")
    rc = main(["export-deployment", "--scenario", str(scn), "--run", str(out),
               "--index", "99", "--out", str(tmp_path / "dep.json")])
    assert rc == 1


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


def test_monolithic_mode_through_cli(tmp_path):
    scn = _generate(tmp_path)
    out = _solve(tmp_path, scn, "runM", mode="monolithic-nsga2")
    config = json.loads((out / "config.json").read_text())
    assert config["mode"] == "monolithic-nsga2"


def _solve_40x6(tmp_path, seed, capsys):
    """llm-aoa on `dcsf generate --users 40 --uavs 6` (other options default)."""
    scn = tmp_path / "scn40x6.json"
    assert main(["generate", "--users", "40", "--uavs", "6", "--out", str(scn)]) == 0
    out = tmp_path / f"run-seed{seed}"
    capsys.readouterr()
    rc = main(["solve", "--scenario", str(scn), "--seed", str(seed), "--pop", "8",
               "--t-ao", "2", "--t-local", "2", "--out", str(out)])
    assert rc == 0
    return out, capsys.readouterr()


def test_solve_reports_an_infeasible_front(tmp_path, capsys):
    # solver seed 3 ends with no feasible member on this scenario
    out, captured = _solve_40x6(tmp_path, 3, capsys)
    report = json.loads((out / "report.json").read_text())
    front = json.loads((out / "pareto.json").read_text())["front"]
    assert report["feasible"] is False
    assert report["best_violation"] == min(m["violation"] for m in front) > 0.0
    assert "warning: no member of the front is feasible" in captured.err
    assert "llm-aoa: infeasible front of" in captured.out


def test_solve_reports_a_feasible_front(tmp_path, capsys):
    out, captured = _solve_40x6(tmp_path, 0, capsys)
    report = json.loads((out / "report.json").read_text())
    assert report["feasible"] is True
    assert report["best_violation"] == 0.0
    assert captured.err == ""
    assert "llm-aoa: front of" in captured.out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A scenario, a run on it, a non-JSON scenario and three malformed fronts."""
    root = tmp_path_factory.mktemp("inputs")
    _solve(root, _generate(root), "run")
    (root / "notjson.json").write_text("not json\n")
    for name, text in (("run-obj", "{}"), ("run-list", "[]"), ("run-empty", '{"front": []}')):
        (root / name).mkdir()
        (root / name / "pareto.json").write_text(text)
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
    "scenario-not-json": (["solve", "--scenario", "{root}/notjson.json", "--out", "{root}/out"],
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
