"""Independent checks of the artifacts that `dcsf solve` writes.

Nothing here calls the program's model code. The scenario is read from its
JSON file, the constants from `SystemParams()`, and the objectives, the
constraints, constrained dominance and the hypervolume are recomputed from
the model's formulas by this module's own code:

- f1: nearest-UAV association (ties to the lowest UAV id), interference from
  the rest of the serving UAV's cohort, probabilistic-LoS path loss and the
  Shannon rate;
- f2: per cluster, the path loss from the cluster centroid to the BS; a
  multi-UAV cluster sends sum w^2 P with the virtual-antenna-array gain
  |AF|^2 eta / sum_ij w_i w_j sinc(2 pi d_ij / lambda); the similarity is the
  logistic table row of the cluster's k;
- f3: rotary-wing relocation energy, a horizontal leg at cruise speed plus a
  climb at climb speed, with free descent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The program and this module add the same terms in other orders and reach
# the array phases (about 5e4 rad at lambda = 0.125 m) by other routes; on the
# benchmark's fronts the objectives then agree to within 1e-12 relative. A
# wrong formula or a perturbed value moves them by far more than 1e-6.
REL_TOL = 1e-6
# Slack on the constraint checks, so that a value the program rounded onto
# the other side of a threshold is not called a violation.
CONSTRAINT_TOL = 1e-9


class CheckError(AssertionError):
    """A `dcsf solve` artifact disagrees with the independent computation."""


@dataclass(frozen=True)
class World:
    users: np.ndarray        # (U, 3) ground-user positions
    launch: np.ndarray       # (V, 3) UAV launch positions
    bs: np.ndarray           # (3,) base-station position
    lower: np.ndarray        # (3,) deployment-region minimum
    upper: np.ndarray        # (3,) deployment-region maximum


def load_world(path) -> World:
    doc = json.loads(Path(path).read_text())
    b = doc["bounds"]
    return World(
        users=np.asarray(doc["users"], dtype=float),
        launch=np.asarray(doc["uavs_initial"], dtype=float),
        bs=np.asarray(doc["bs"], dtype=float),
        lower=np.array([b["x_min"], b["y_min"], b["z_min"]], dtype=float),
        upper=np.array([b["x_max"], b["y_max"], b["z_max"]], dtype=float),
    )


# ---------------------------------------------------------------------------
# Model formulas

def _noise_watts(p) -> float:
    return p.bandwidth * 10.0 ** (p.noise_density_dbm / 10.0) / 1000.0


def _path_loss_db(d, h, p):
    """Probabilistic-LoS average path loss in dB for distance d, height gap h."""
    elevation = np.degrees(np.arcsin(h / d))
    p_los = 1.0 / (1.0 + p.psi * np.exp(-p.beta * (elevation - p.psi)))
    fspl = 20.0 * np.log10(4.0 * math.pi * d / p.wavelength)
    return fspl + p_los * p.mu_los + (1.0 - p_los) * p.mu_nlos


def user_rate_bps(world: World, q: np.ndarray, p) -> float:
    """f1: sum of the users' Shannon rates under nearest-UAV association."""
    gap = world.users[:, None, :] - q[None, :, :]
    dist = np.sqrt((gap ** 2).sum(axis=2))
    serving = dist.argmin(axis=1)
    rows = np.arange(len(world.users))
    d = dist[rows, serving]
    h = np.abs(world.users[:, 2] - q[serving, 2])
    rx = p.user_tx_power * 10.0 ** (-_path_loss_db(d, h, p) / 10.0)
    noise = _noise_watts(p)
    total = 0.0
    for v in range(len(q)):
        cohort = rx[serving == v]
        if len(cohort):
            sinr = cohort / (cohort.sum() - cohort + noise)
            total += float(np.log2(1.0 + sinr).sum())
    return p.bandwidth * total


def cluster_terms(labels, q, w, k, world: World, p) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster (semantic rate in suts/s, similarity)."""
    n_clusters = max(labels)
    rates = np.zeros(n_clusters)
    xis = np.zeros(n_clusters)
    wavenumber = 2.0 * math.pi / p.wavelength
    sim = p.similarity
    for c in range(n_clusters):
        members = [v for v, label in enumerate(labels) if label == c + 1]
        pos = q[members]
        centroid = pos.mean(axis=0)
        to_bs = world.bs - centroid
        d = float(np.sqrt(to_bs @ to_bs))
        path = 10.0 ** (-_path_loss_db(d, abs(to_bs[2]), p) / 10.0)
        if len(members) == 1:
            received = p.uav_tx_power * path
        else:
            wm = w[members]
            power = float((wm ** 2).sum()) * p.uav_tx_power
            if power == 0.0:
                continue
            af = np.sum(wm * np.exp(1j * wavenumber * (pos @ (to_bs / d))))
            gap = pos[:, None, :] - pos[None, :, :]
            x = wavenumber * np.sqrt((gap ** 2).sum(axis=2))
            norm = float(wm @ np.sinc(x / math.pi) @ wm)  # np.sinc(t) = sin(pi t)/(pi t)
            received = power * abs(af) ** 2 * p.eta / norm * path
        snr = received / _noise_watts(p)
        if snr <= 0.0:
            continue
        row = sim.ks.index(int(k[c]))
        a, b, slope = sim.floors[row], sim.midpoints[row], sim.slopes[row]
        xis[c] = a + (1.0 - a) / (1.0 + math.exp(-slope * (10.0 * math.log10(snr) - b)))
        rates[c] = p.bandwidth * p.info_per_sentence / (int(k[c]) * p.words_per_sentence) * xis[c]
    return rates, xis


def _cruise_power(p) -> float:
    r, v = p.rotor, p.v_xy
    induced = r.p_ind * math.sqrt(math.sqrt(1.0 + v ** 4 / (4.0 * r.v_ind ** 4)) - v ** 2 / (2.0 * r.v_ind ** 2))
    profile = r.p0 * (1.0 + 3.0 * v ** 2 / r.v_tip ** 2)
    parasite = 0.5 * r.d0 * r.rho * r.solidity * r.disk_area * v ** 3
    return induced + profile + parasite


def flight_energy_j(world: World, q: np.ndarray, p) -> float:
    """f3: horizontal legs at cruise power plus climbs at W * v_z; descent is free."""
    move = q - world.launch
    horizontal = np.hypot(move[:, 0], move[:, 1])
    climb = np.maximum(move[:, 2], 0.0)
    return float((_cruise_power(p) * horizontal / p.v_xy).sum() + (p.rotor.weight * climb).sum())


def energy_ceiling_j(world: World, p) -> float:
    """An f3 that no deployment inside the region exceeds: every UAV flies to
    its farthest corner and climbs to the ceiling."""
    corners = np.array([[x, y] for x in (world.lower[0], world.upper[0])
                        for y in (world.lower[1], world.upper[1])])
    reach = np.linalg.norm(world.launch[:, None, :2] - corners[None, :, :], axis=2).max(axis=1)
    climb = np.maximum(world.upper[2] - world.launch[:, 2], 0.0)
    return float((_cruise_power(p) * reach / p.v_xy).sum() + (p.rotor.weight * climb).sum())


# ---------------------------------------------------------------------------
# Checks

def constraint_violations(labels, q, xis, world: World, p) -> list[str]:
    """C1 (region), C2 (safety distance) and C6 (similarity) breaches."""
    out = []
    for v, pos in enumerate(q):
        if np.any(pos < world.lower) or np.any(pos > world.upper):
            out.append(f"C1: UAV {v} at {pos.tolist()} outside the region")
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            d = float(np.linalg.norm(q[i] - q[j]))
            if d < p.d_min - CONSTRAINT_TOL:
                out.append(f"C2: UAVs {i} and {j} {d:.6g} m apart, d_min {p.d_min} m")
    for c, xi in enumerate(xis):
        if xi < p.xi_threshold - CONSTRAINT_TOL:
            out.append(f"C6: cluster {c + 1} similarity {xi:.6g} < {p.xi_threshold}")
    return out


def violation_scalar(q, xis, world: World, p) -> float:
    """The constraint-violation sum that constrained domination ranks by."""
    span = world.upper - world.lower
    total = float((np.maximum(world.lower - q, 0.0) / span).sum()
                  + (np.maximum(q - world.upper, 0.0) / span).sum())
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            d = float(np.linalg.norm(q[i] - q[j]))
            if d < p.d_min:
                total += (p.d_min - d) / p.d_min
    return total + float(np.maximum(p.xi_threshold - xis, 0.0).sum())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def check_encoding(i: int, labels, q, w, k, n_uavs: int, p) -> None:
    if len(labels) != n_uavs or q.shape != (n_uavs, 3) or w.shape != (n_uavs,):
        raise CheckError(f"member {i}: c, Q or w is not sized to the fleet of {n_uavs}")
    if set(labels) != set(range(1, max(labels) + 1)):
        raise CheckError(f"member {i}: labels {labels} are not canonical 1..N")
    if len(k) != max(labels):
        raise CheckError(f"member {i}: {len(k)} symbol counts for {max(labels)} clusters")
    if any(kc != int(kc) or not p.k_min <= kc <= p.k_max for kc in k):
        raise CheckError(f"member {i}: k {list(k)} outside [{p.k_min}, {p.k_max}]")
    if np.any(w < p.w_min) or np.any(w > p.w_max):
        raise CheckError(f"member {i}: w outside [{p.w_min}, {p.w_max}]")


def constrained_dominates(a: tuple, b: tuple) -> bool:
    """(f1, f2, f3, violation): feasibility first, then Pareto on max f1, max f2, min f3."""
    if (a[3] == 0.0) != (b[3] == 0.0):
        return a[3] == 0.0
    if a[3] > 0.0:
        return a[3] < b[3]
    return (a[0] >= b[0] and a[1] >= b[1] and a[2] <= b[2]
            and (a[0] > b[0] or a[1] > b[1] or a[2] < b[2]))


def check_front(rows: list[tuple]) -> None:
    """The front is mutually non-dominated, and a front with a feasible member
    holds only feasible members."""
    if not rows:
        raise CheckError("empty front")
    if any(r[3] == 0.0 for r in rows) and any(r[3] != 0.0 for r in rows):
        raise CheckError("front mixes feasible and infeasible members")
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            if i != j and constrained_dominates(a, b):
                raise CheckError(f"front member {i} dominates member {j}")


def check_front_doc(doc: dict, world: World, p) -> list[tuple]:
    """Check every member of a parsed `pareto.json`; returns (f1, f2, f3,
    violation) per member. Raises CheckError on the first disagreement."""
    rows = []
    n_uavs = len(world.launch)
    for i, m in enumerate(doc["front"]):
        labels = [int(v) for v in m["c"]]
        q = np.asarray(m["Q"], dtype=float)
        w = np.asarray(m["w"], dtype=float)
        k = list(m["k"])
        check_encoding(i, labels, q, w, k, n_uavs, p)
        rates, xis = cluster_terms(labels, q, w, k, world, p)
        mine = (user_rate_bps(world, q, p), float(rates.sum()), flight_energy_j(world, q, p))
        for name, reported, own in zip(("f1", "f2", "f3"), m["objectives"], mine):
            if not _close(reported, own):
                raise CheckError(f"member {i}: reported {name} {reported!r}, recomputed {own!r}")
        violation = float(m["violation"])
        if violation == 0.0:
            breaches = constraint_violations(labels, q, xis, world, p)
            if breaches:
                raise CheckError(f"member {i} reported feasible but " + "; ".join(breaches))
        own_violation = violation_scalar(q, xis, world, p)
        if abs(violation - own_violation) > CONSTRAINT_TOL + REL_TOL * own_violation:
            raise CheckError(f"member {i}: reported violation {violation!r}, recomputed {own_violation!r}")
        rows.append((*[float(x) for x in m["objectives"]], violation))
    check_front(rows)
    return rows


def check_run(run_dir, world: World, p) -> list[tuple]:
    """Check a run directory's `pareto.json` (see `check_front_doc`) and that
    `report.json` gives the same front size."""
    run_dir = Path(run_dir)
    rows = check_front_doc(json.loads((run_dir / "pareto.json").read_text()), world, p)
    report = json.loads((run_dir / "report.json").read_text())
    if report["front_size"] != len(rows):
        raise CheckError(f"report.json front_size {report['front_size']} != {len(rows)} members")
    return rows


# ---------------------------------------------------------------------------
# Hypervolume on a fixed reference point and scale

def hypervolume_min(points, ref) -> float:
    """Exact volume dominated by minimization points up to `ref`.

    The distinct coordinates cut the box below `ref` into cells; a cell is
    dominated when its lower corner is no better than some point in every
    dimension. Cost is O(n^4) for n points, meant for fronts of tens.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(ref, dtype=float)
    pts = pts[np.all(pts < ref, axis=1)]
    if len(pts) == 0:
        return 0.0
    axes = [np.unique(np.append(pts[:, d], ref[d])) for d in range(3)]
    lo = np.meshgrid(*(a[:-1] for a in axes), indexing="ij")
    covered = np.zeros(lo[0].shape, dtype=bool)
    for x, y, z in pts:
        covered |= (lo[0] >= x) & (lo[1] >= y) & (lo[2] >= z)
    widths = [np.diff(a) for a in axes]
    volume = widths[0][:, None, None] * widths[1][None, :, None] * widths[2][None, None, :]
    return float(volume[covered].sum())


def normalized_points(rows, scale: tuple[float, float, float]) -> np.ndarray:
    """(f1, f2, f3) rows as minimization points (-f1/s1, -f2/s2, f3/s3), whose
    reference point (f1 = 0, f2 = 0, f3 = s3) sits at (0, 0, 1)."""
    objs = np.array([r[:3] for r in rows], dtype=float)
    return np.column_stack([-objs[:, 0] / scale[0], -objs[:, 1] / scale[1], objs[:, 2] / scale[2]])


def front_hypervolume(rows, scale: tuple[float, float, float]) -> float:
    """Hypervolume of the feasible members of `rows`; 0 when none is feasible."""
    feasible = [r for r in rows if r[3] == 0.0]
    if not feasible:
        return 0.0
    return hypervolume_min(normalized_points(feasible, scale), (0.0, 0.0, 1.0))
