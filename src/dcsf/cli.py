"""Command-line interface: generate scenarios, run solvers, compare runs,
and export deployments.

All artifacts are written with stable formatting so repeated runs with the
same seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import metrics, problem, scenario as scenario_mod, solver
from .advisor import ENV_URL, LlmEndpoint
from .scenario import (Bounds, JsonRows, SystemParams, generate_scenario, json_pieces, load_scenario,
                       save_scenario, write_json)


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# generate

def _require_valid(scn, params, context: str):
    """Raise unless `scn` passes `validate_scenario`: launch positions meet C1
    (bounds) and C2 (d_min), and the BS lies outside the bounds."""
    problems = scenario_mod.validate_scenario(scn, params)
    if problems:
        raise scenario_mod.ScenarioError(f"{context}: " + "; ".join(problems))


def _cmd_generate(args) -> int:
    bounds = Bounds(0.0, args.area, 0.0, args.area, args.alt_min, args.alt_max)
    scn = generate_scenario(args.users, args.uavs, bounds, args.bs, args.seed)
    _require_valid(scn, SystemParams(), f"invalid scenario, {args.out} not written")
    save_scenario(scn, args.out)
    print(f"wrote {args.out}: {scn.n_users} users, {scn.n_uavs} UAVs, seed {scn.seed}")
    return 0


# ---------------------------------------------------------------------------
# solve

def _write_history(history, path: Path) -> None:
    lines = ["iteration,sp,m3,hypervolume,p_c,p_m,front_size"]
    for row in history:
        lines.append(",".join([
            str(row["iteration"]),
            _fmt(row["sp"]), _fmt(row["m3"]), _fmt(row["hypervolume"]),
            _fmt(row["p_c"]), _fmt(row["p_m"]), str(row["front_size"]),
        ]))
    path.write_text("\n".join(lines) + "\n")


def _write_pareto(front, path: Path) -> None:
    write_json({"front": [ind.to_dict() for ind in front]}, path)


def _knee(front) -> int:
    return metrics.knee_index(np.array([ind.objectives.as_tuple() for ind in front]))


def _deployment_doc(scn, ind) -> dict:
    # each user is served by its nearest UAV, as in f1
    serving = scenario_mod.nearest_uavs(scn, ind.q)[0]
    clusters = ind.assignment.clusters()
    uav_rows = []
    for v in range(scn.n_uavs):
        label = ind.assignment.labels[v]
        uav_rows.append({
            "uav": v,
            "position": [float(x) for x in ind.q[v]],
            "weight": float(ind.w[v]),
            "cluster": label,
            "k": int(ind.k[label - 1]),
            "singleton": len(clusters[label - 1]) == 1,
        })
    user_rows = JsonRows({"user": "%d", "position": ["%r", "%r", "%r"], "uav": "%d"},
                         zip(range(scn.n_users), *scn.user_rows.tolist(), serving.tolist()))
    return {
        "objectives": {
            "user_rate_bps": ind.objectives.f1,
            "semantic_rate_suts": ind.objectives.f2,
            "flight_energy_j": ind.objectives.f3,
        },
        "violation": ind.violation,
        "uavs": uav_rows,
        "users": user_rows,
    }


def _load_valid_scenario(path, params):
    scn = load_scenario(path)
    _require_valid(scn, params, f"invalid scenario {path}")
    return scn


def _cmd_solve(args) -> int:
    params = SystemParams()
    scn = _load_valid_scenario(args.scenario, params)
    config = solver.SolverConfig(
        population_size=args.pop,
        t_ao=args.t_ao,
        t_local=args.t_local,
        seed=args.seed,
    )
    transport = None
    advisor = args.advisor if args.mode == "llm-aoa" else None  # aoa and monolithic NSGA-II run none
    if advisor == "llm":
        transport = LlmEndpoint.from_env()
        if transport is None:
            print(f"warning: {ENV_URL} not set; the advisor will use the fallback rule",
                  file=sys.stderr)
            advisor = "fallback"

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    result = solver.run(args.mode, scn, params, config, transport=transport)
    elapsed = time.perf_counter() - start

    front = result.front
    knee_i = _knee(front)
    # the last history row holds the front metrics and (p_c, p_m) of this front
    last = result.history[-1]
    # the first front holds only feasible members when any exist, else members of one violation
    least_violating = front[0]
    best_violation = least_violating.violation
    feasible = best_violation == 0.0
    violations = [] if feasible else problem.violations_report(least_violating, scn, params)

    write_json({
        "mode": args.mode,
        "advisor": advisor,
        "seed": config.seed,
        "population_size": config.population_size,
        "t_ao": config.t_ao,
        "t_local": config.t_local,
        "p_c_initial": solver.P_C_INITIAL,
        "p_m_initial": solver.P_M_INITIAL,
        "scenario_seed": scn.seed,
        "n_users": scn.n_users,
        "n_uavs": scn.n_uavs,
    }, out / "config.json")
    _write_history(result.history, out / "history.csv")
    _write_pareto(front, out / "pareto.json")
    write_json(_deployment_doc(scn, front[knee_i]), out / "deployment.json")
    write_json({
        "front_size": len(front),
        "feasible": feasible,
        "best_violation": best_violation,
        "violations": violations,
        "knee_index": knee_i,
        "knee_objectives": list(front[knee_i].objectives.as_tuple()),
        "spacing": last["sp"],
        "max_spread": last["m3"],
        "hypervolume": last["hypervolume"],
        "final_p_c": last["p_c"],
        "final_p_m": last["p_m"],
    }, out / "report.json")
    # wall-clock data stays out of the deterministic artifacts
    write_json({"elapsed_seconds": round(elapsed, 3)}, out / "timings.json")
    if not feasible:
        print(f"warning: no member of the front is feasible (best violation {best_violation:.4g}):",
              *violations, sep="\n  ", file=sys.stderr)
    kind = "front" if feasible else "infeasible front"
    print(f"{args.mode}: {kind} of {len(front)}, knee f1={front[knee_i].objectives.f1:.4g} bps, "
          f"f2={front[knee_i].objectives.f2:.4g} suts/s, f3={front[knee_i].objectives.f3:.4g} J "
          f"({elapsed:.1f}s)")
    return 0


# ---------------------------------------------------------------------------
# compare

def _load_front(run_dir: Path, scored: bool = False):
    path = run_dir / "pareto.json"
    try:
        front = [problem.Individual.from_dict(d) for d in json.loads(path.read_text())["front"]]
        if not front:
            raise ValueError("empty front")
        if scored and any(ind.objectives is None for ind in front):
            raise ValueError("a member has no objectives")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed front file {path}: {exc}") from exc
    return front


def _cmd_compare(args) -> int:
    runs = [Path(r) for r in args.runs]
    names = [r.name or str(r) for r in runs]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"two runs are named {name!r}; runs are keyed by directory name")
    fronts = {name: _load_front(r, scored=True) for name, r in zip(names, runs)}
    objs_by_run = {name: np.array([ind.objectives.as_tuple() for ind in front])
                   for name, front in fronts.items()}
    # ranges shared across runs so hypervolumes are comparable
    ranges = metrics.objective_ranges(np.vstack(list(objs_by_run.values())))

    rows = {}
    for name, front in fronts.items():
        objs = objs_by_run[name]
        knee_i = metrics.knee_index(objs)
        rows[name] = {
            "front_size": len(front),
            "knee_objectives": list(front[knee_i].objectives.as_tuple()),
            "hypervolume": metrics.normalized_hypervolume(objs, ranges),
            "spacing": metrics.spacing_metric(objs),
            "max_spread": metrics.max_spread_metric(objs),
        }
    # every normalized point lies in [0, 1]^3 against a reference of 1.1, so
    # every hypervolume is at least 0.1^3
    ratios = {
        f"{a}/{b}": rows[a]["hypervolume"] / rows[b]["hypervolume"]
        for i, a in enumerate(names) for b in names[i + 1:]
    }
    text = "".join(json_pieces({"runs": rows, "hypervolume_ratios": ratios}))
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="ascii")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# export-deployment

def _cmd_export(args) -> int:
    params = SystemParams()
    scn = _load_valid_scenario(args.scenario, params)
    front = _load_front(Path(args.run))
    for i, ind in enumerate(front):
        if len(ind.w) != scn.n_uavs:
            raise ValueError(f"front member {i} has {len(ind.w)} UAVs; the scenario has {scn.n_uavs}")
        if not all(params.k_min <= k <= params.k_max for k in ind.k.tolist()):
            raise ValueError(f"front member {i}: k {ind.k.tolist()} not in [{params.k_min}, {params.k_max}]")
        if not all(params.w_min <= w <= params.w_max for w in ind.w.tolist()):
            raise ValueError(f"front member {i}: w {ind.w.tolist()} not in [{params.w_min}, {params.w_max}]")
    problem.evaluate(front, scn, params)
    if args.index == "knee":
        idx = _knee(front)
    else:
        idx = int(args.index)
        if not (0 <= idx < len(front)):
            print(f"error: index {idx} outside front of {len(front)}", file=sys.stderr)
            return 1
    write_json(_deployment_doc(scn, front[idx]), args.out)
    print(f"wrote {args.out} (front member {idx})")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcsf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a seeded scenario JSON file")
    g.add_argument("--users", type=int, default=500)
    g.add_argument("--uavs", type=int, default=8)
    g.add_argument("--area", type=float, default=1000.0, help="square side in meters")
    g.add_argument("--alt-min", type=float, default=60.0)
    g.add_argument("--alt-max", type=float, default=120.0)
    g.add_argument("--bs", type=float, nargs=3, default=[5000.0, 5000.0, 0.0],
                   metavar=("X", "Y", "Z"))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="scenario.json")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="run an optimizer and write run artifacts")
    s.add_argument("--scenario", required=True)
    s.add_argument("--mode", choices=solver.MODES, default="llm-aoa")
    s.add_argument("--advisor", choices=["llm", "fallback"], default="fallback",
                   help=f"llm-aoa's advisor: the chat endpoint at ${ENV_URL} or the fallback rule "
                        "(default); aoa and monolithic-nsga2 run none")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--pop", type=int, default=30)
    s.add_argument("--t-ao", type=int, default=50)
    s.add_argument("--t-local", type=int, default=10)
    s.add_argument("--out", default="run")
    s.set_defaults(func=_cmd_solve)

    c = sub.add_parser("compare", help="compare run directories on shared-scale metrics")
    c.add_argument("runs", nargs="+")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_compare)

    e = sub.add_parser("export-deployment", help="export one front member as a deployment plan")
    e.add_argument("--scenario", required=True)
    e.add_argument("--run", required=True, help="run directory containing pareto.json")
    e.add_argument("--index", default="knee", help='front index or "knee"')
    e.add_argument("--out", default="deployment.json")
    e.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, solver.SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
