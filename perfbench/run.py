"""Benchmark `dcsf solve` end to end, or per layer with `--trace 1`.

    python3 perfbench/run.py --workload aoa-u500-v24 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`. Each
workload generates its scenario with `dcsf generate`, then repeats whole
rounds of `dcsf solve` calls, made in this process through
`dcsf.cli.main`, while the next round is expected to end within `--seconds`
(at least one round). In an untraced run a timer interrupts the solves
every 100 ms to time a fixed calibration loop, and the solve time is
reported in units of that loop's time. Every solve's artifacts are checked
against `oracle.py`. The last line of standard output is one JSON object:
correct, attempted, failed and metrics (the end-to-end metrics, or with
`--trace 1` the per-layer ones). A solve whose front has no feasible member
counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5
# The host-speed probe runs one calibration chunk (about 5 ms) this often,
# so it takes about a fifteenth of an untraced run.
CAL_INTERVAL_S = 0.1

# One fresh interpreter per sample: `import dcsf`, then `dcsf generate`.
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from dcsf import cli; sys.exit(cli.main(sys.argv[2:]))"


@dataclass(frozen=True)
class Solve:
    mode: str
    seed: int
    t_ao: int

    def argv(self, scenario: Path, out: Path) -> list[str]:
        args = ["solve", "--scenario", str(scenario), "--mode", self.mode,
                "--seed", str(self.seed), "--t-ao", str(self.t_ao), "--out", str(out)]
        if self.mode == "llm-aoa":
            args += ["--advisor", "fallback"]
        return args


@dataclass(frozen=True)
class Workload:
    users: int
    uavs: int
    solves: tuple[Solve, ...]   # one round
    f1_scale: float             # bps; hypervolume scale of f1 (reference f1 = 0)
    f2_scale: float             # suts/s; hypervolume scale of f2 (reference f2 = 0)

    def generate_argv(self, out: Path) -> list[str]:
        # default area, altitudes and BS (5000, 5000, 0); scenario seed 0
        return ["generate", "--users", str(self.users), "--uavs", str(self.uavs),
                "--seed", "0", "--out", str(out)]


# Scenarios and solver seeds are fixed, so the quality metrics and the share
# of failed solves are the same for every benchmark seed.
WORKLOADS = {
    # GCA and the per-cluster physics under it dominate; V is the axis GCA scales on.
    "aoa-u500-v24": Workload(500, 24, (Solve("aoa", 0, 1),), 1e8, 2e6),
    # No GCA and no GSO: problem.evaluate and the f1 kernel dominate.
    "mono-u2000-v8": Workload(2000, 8, (Solve("monolithic-nsga2", 0, 5),), 3e7, 1e6),
    # The paper's method on the `dcsf generate` default scenario; the only
    # workload that runs GSO, the advisor and the per-generation front metrics.
    "llm-aoa-u500-v8-seeds": Workload(500, 8, tuple(Solve("llm-aoa", s, 5) for s in range(10)), 3e7, 1e6),
}


def _calibration_inputs():
    import numpy as np
    rng = np.random.default_rng(12345)
    users = rng.random((2000, 3)) * (1000.0, 1000.0, 0.0)
    uavs = rng.random((24, 3)) * (1000.0, 1000.0, 60.0) + (0.0, 0.0, 60.0)
    # The large buffers are made once, so a chunk that lands at a solve's
    # memory peak does not raise peak_rss_mib.
    return np, users, uavs, np.linspace(0.0, math.pi, 16), np.empty((2000, 8, 3)), np.empty((2000, 8))


def calibration_chunk(inputs) -> float:
    """Wall time of a fixed piece of work, about 5 ms on a 2-vCPU Xeon VM.

    It mixes what a solve spends its time on: a Python loop over pairs of
    small vectors (the C2 check), users x UAVs distance and log kernels (f1)
    and complex exponentials over array offsets (the beamforming gain), all
    single-threaded numpy and none of it from `dcsf`, so a change to the
    program cannot change it.
    """
    np, users, uavs, angles, diff, d = inputs
    start = time.perf_counter()
    acc = 0.0
    for i in range(len(uavs)):
        for j in range(i + 1, len(uavs)):
            acc += float(np.linalg.norm(uavs[i] - uavs[j]))
    for v in range(0, len(uavs) - 7, 3):
        np.subtract(users[:, None, :], uavs[None, v:v + 8, :], out=diff)
        np.einsum("uvk,uvk->uv", diff, diff, out=d)
        np.sqrt(d, out=d)
        np.divide(1e6, d, out=d)
        np.log1p(d, out=d)
        acc += float(d.sum())
    for v in range(len(uavs)):
        rel = uavs - uavs[v]
        phases = np.cos(angles)[:, None] * rel[:, 0] + np.sin(angles)[:, None] * rel[:, 1]
        acc += float(np.abs(np.exp(0.1j * phases).sum(axis=1)).sum())
    for t in range(300):
        acc += math.exp(-t * 1e-3) * math.sqrt(t + 1.0)
    if not acc > 0.0:
        raise AssertionError("calibration loop lost its result")
    return time.perf_counter() - start


class HostSpeedProbe:
    """Runs `calibration_chunk` every CAL_INTERVAL_S of wall time, solves included.

    The host's speed drifts by tens of percent over seconds to minutes. The
    probe interrupts the solves with a timer signal (handled in this thread,
    between bytecodes; no other thread or process runs) and times the fixed
    chunk there, so host speed is sampled all through the solves it divides.
    `spent` is the wall time taken inside the handler, which the caller
    takes off the solve times.
    """

    def __init__(self):
        self.inputs = _calibration_inputs()
        self.spent = 0.0    # wall time inside the handler
        self.chunk_s = 0.0  # sum of the chunks' own times
        self.chunks = 0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.chunk_s += calibration_chunk(self.inputs)
        self.chunks += 1
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def measure_setup(workload: Workload, work: Path) -> float:
    """Median wall time of fresh processes that import dcsf and write the scenario."""
    times = []
    for i in range(SETUP_SAMPLES):
        argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *workload.generate_argv(work / f"setup-{i}.json")]
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="orders each round's solves")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dcsf" / "__init__.py").is_file():
        print(f"error: no dcsf package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)

    setup_s = measure_setup(workload, work) if not args.trace else None

    sys.path.insert(0, str(SRC))
    import dcsf
    from dcsf import cli
    from dcsf.scenario import SystemParams

    import oracle
    from tracer import Tracer

    if Path(dcsf.__file__).resolve().parent != SRC / "dcsf":
        print(f"error: imported dcsf from {dcsf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    scenario = work / "scenario.json"
    if quiet(cli.main, workload.generate_argv(scenario)) != 0:
        print("error: dcsf generate failed", file=sys.stderr)
        return 1
    params = SystemParams()
    world = oracle.load_world(scenario)
    scale = (workload.f1_scale, workload.f2_scale, oracle.energy_ceiling_j(world, params))

    order = list(workload.solves)
    random.Random(args.seed).shuffle(order)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    probe = None if tracer else HostSpeedProbe()
    times, hvs, f1s, f2s = [], [], [], []
    attempted = rounds = 0
    errors, failed = [], []
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        for solve in order:
            run_dir = work / f"run-{solve.mode}-{solve.seed}"
            if tracer:
                tracer.solve_id = attempted
            if probe:
                with probe:
                    spent = probe.spent
                    start = time.perf_counter()
                    code = quiet(cli.main, solve.argv(scenario, run_dir))
                    elapsed = time.perf_counter() - start
                times.append(elapsed - (probe.spent - spent))
            else:
                start = time.perf_counter()
                code = quiet(cli.main, solve.argv(scenario, run_dir))
                times.append(time.perf_counter() - start)
            attempted += 1
            try:
                if code != 0:
                    raise oracle.CheckError(f"dcsf solve exited {code}")
                rows = oracle.check_run(run_dir, world, params)
            except (oracle.CheckError, OSError, KeyError, ValueError) as exc:
                errors.append(f"{solve}: {exc}")
                continue
            feasible = [r for r in rows if r[3] == 0.0]
            if not feasible:
                failed.append(f"{solve.mode} seed {solve.seed}")
            hvs.append(oracle.front_hypervolume(rows, scale))
            f1s.append(max((r[0] for r in feasible), default=0.0) / 1e6)
            f2s.append(max((r[1] for r in feasible), default=0.0) / 1e3)
        rounds += 1
        now = time.perf_counter()
        if now - began + (now - round_began) > args.seconds:
            break

    if tracer:
        tracer.uninstall()
        tracer.save(work / f"trace-seed{args.seed}.npz")
        for name in tracer.absent:
            print(f"warning: {name} not found; reported as 0", file=sys.stderr)
        metrics = {}
        for name in tracer.names:
            calls, total, own = tracer.stats[name]
            metrics[f"{name}.calls"] = {"value": calls // rounds, "unit": "count"}
            metrics[f"{name}.total_s"] = {"value": total / rounds, "unit": "s"}
            metrics[f"{name}.self_s"] = {"value": own / rounds, "unit": "s"}
        scored = tracer.merges_scored
        metrics["solver.gca.merges_applied"] = {"value": tracer.merges_applied // rounds, "unit": "count"}
        metrics["solver.gca.merge_yield"] = {
            "value": tracer.merges_applied / scored if scored else 0.0, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_calib": {"value": statistics.fmean(times) / (probe.chunk_s / probe.chunks), "unit": "calib"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
            "hypervolume": {"value": statistics.fmean(hvs) if hvs else 0.0, "unit": "1"},
            "user_rate_mbps": {"value": statistics.fmean(f1s) if f1s else 0.0, "unit": "Mbps"},
            "semantic_rate_ksuts": {"value": statistics.fmean(f2s) if f2s else 0.0, "unit": "ksuts/s"},
        }
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    chunk = f", {probe.chunks} calibration chunks of {1e3 * probe.chunk_s / probe.chunks:.3f} ms" if probe else " traced"
    print(f"{args.workload}: {rounds} round(s), {attempted} solves, mean {statistics.fmean(times):.3f} s"
          f"{chunk}; no feasible member: "
          f"{', '.join(failed[:len(order)]) or 'none'}{' (each round)' if rounds > 1 else ''}",
          file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
