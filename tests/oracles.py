"""Brute-force oracles, each kept once: what a fast path in `dcsf` computes,
done the slow and obvious way (scalar loops, from-scratch evaluation, the
textbook formula); plus the random inputs several test modules build."""

import json
import math
from dataclasses import asdict

import numpy as np

from dcsf import SystemParams
from dcsf.beamforming import sinc_matrix
from dcsf.energy import horizontal_power, vertical_power
from dcsf.problem import (
    ClusterAssignment,
    Individual,
    ObjectiveTriple,
    evaluate,
)
from dcsf.scenario import SPEED_OF_LIGHT, nearest_uavs
from dcsf.semantic import semantic_terms

PARAMS = SystemParams()


def canonicalize_labels(raw_labels, k_values) -> tuple[ClusterAssignment, np.ndarray]:
    """Relabel arbitrary positive cluster ids to first-appearance order 1..N,
    one individual at a time with a dict: k entries follow their clusters,
    and labels absent from `raw_labels` drop out with their k."""
    raw = [int(v) for v in raw_labels]
    k_values = np.asarray(k_values).tolist()
    mapping = {label: new for new, label in enumerate(dict.fromkeys(raw), start=1)}
    # the mapping's insertion order is first appearance, the new label order
    return ClusterAssignment(tuple(mapping[v] for v in raw)), np.array([k_values[old - 1] for old in mapping])


def clusters_of(assignment) -> tuple[tuple[int, ...], ...]:
    """UAV indices per cluster, in cluster-label order, one UAV at a time."""
    out = [[] for _ in range(max(assignment.labels))]
    for uav, label in enumerate(assignment.labels):
        out[label - 1].append(uav)
    return tuple(map(tuple, out))


def merge_labels(assignment, k, survivor: int, absorbed: int) -> tuple[ClusterAssignment, np.ndarray]:
    """Merge cluster `absorbed` into `survivor` (1-based labels) on the label
    tuple, one UAV at a time: the absorbed label becomes the survivor's, the
    labels above it move down by one, and the merged cluster keeps the
    lower-indexed cluster's k."""
    if survivor == absorbed:
        raise ValueError("cannot merge a cluster with itself")
    labels = []
    for label in assignment.labels:
        if label == absorbed:
            label = survivor
        if label > absorbed:
            label -= 1
        labels.append(label)
    k = np.asarray(k)
    new_k = np.delete(k, absorbed - 1)
    if survivor > absorbed:
        new_k[survivor - 2] = k[absorbed - 1]
    return ClusterAssignment(tuple(labels)), new_k


def random_individual(scn, rng, params=PARAMS):
    """Random labels and k, positions uniform in the bounds, weights in [0, 1)."""
    n = scn.n_uavs
    raw = rng.integers(1, n + 1, size=n)
    k_raw = rng.integers(params.k_min, params.k_max + 1, size=int(raw.max()))
    assignment, k = canonicalize_labels(raw, k_raw)
    q = scn.bounds.lower + rng.random((n, 3)) * (scn.bounds.upper - scn.bounds.lower)
    w = rng.random(n)
    return Individual(assignment, q, w, k)


def fake_pool(objs, violations=None):
    """Individuals with injected objectives; the genome content is irrelevant."""
    a = ClusterAssignment((1,))
    pool = []
    for i, o in enumerate(objs):
        ind = Individual(a, np.array([[0.0, 0.0, 60.0]]), np.ones(1), np.array([5]))
        ind.objectives = ObjectiveTriple(*o)
        ind.violation = 0.0 if violations is None else float(violations[i])
        pool.append(ind)
    return pool


def los_probability(d: float, h: float, psi: float, beta: float) -> float:
    """Elevation-dependent LoS probability, strictly inside (0, 1), of a link
    of length d > 0 with vertical separation 0 <= h <= d."""
    elevation_deg = math.degrees(math.asin(h / d))
    return 1.0 / (1.0 + psi * math.exp(-beta * (elevation_deg - psi)))


def free_space_path_loss(d: float, f: float) -> float:
    """FSPL in dB at distance d (m) and frequency f (Hz)."""
    return 20.0 * math.log10(d) + 20.0 * math.log10(f) + 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)


def avg_path_loss(d: float, h: float, params) -> float:
    """Average path loss L in dB of one link of length d > 0 with vertical
    separation 0 <= h <= d, whose gain 10^(-L/10) `channel.path_gain` takes
    for arrays of links: the composition of `los_probability` and
    `free_space_path_loss`."""
    p_los = los_probability(d, h, params.psi, params.beta)
    fspl = free_space_path_loss(d, params.frequency)
    return fspl + p_los * params.mu_los + (1.0 - p_los) * params.mu_nlos


def user_rate(sinr: float, bandwidth: float) -> float:
    """Shannon rate in bps; monotone in SINR."""
    if sinr < 0:
        raise ValueError("sinr must be >= 0")
    return bandwidth * math.log2(1.0 + sinr)


def associate_users(scenario, uav_positions) -> list[list[int]]:
    """Nearest-UAV association, the one f1 uses; ties broken by lowest UAV id.

    Returns one user-index list per UAV; the lists partition all users.
    """
    uav_positions = np.asarray(uav_positions, dtype=float)
    nearest = nearest_uavs(scenario, uav_positions)[0]
    cohorts: list[list[int]] = [[] for _ in range(len(uav_positions))]
    for u, v in enumerate(nearest):
        cohorts[v].append(u)
    return cohorts


def per_user_rates(scenario, uav_positions, params) -> np.ndarray:
    """Per-user rate vector through the scalar link budget, user by user."""
    uav_positions = np.asarray(uav_positions, dtype=float)
    cohorts = associate_users(scenario, uav_positions)
    rates = np.zeros(scenario.n_users)
    for v, members in enumerate(cohorts):
        if not members:
            continue
        rx = np.empty(len(members))
        for i, u in enumerate(members):
            delta = scenario.user_xyz[u] - uav_positions[v]
            loss_db = avg_path_loss(float(np.linalg.norm(delta)), abs(float(delta[2])), params)
            rx[i] = params.user_tx_power * 10.0 ** (-loss_db / 10.0)
        total = rx.sum()
        for i, u in enumerate(members):
            sinr = rx[i] / (total - rx[i] + params.noise_watts)
            rates[u] = user_rate(sinr, params.bandwidth)
    return rates


def nearest_uavs_einsum(user_xyz, uav_xyz):
    """Each user's nearest UAV as f1 was first vectorized: a (U, V, 3) einsum
    and the first argmin over each user's row of distances. Returns (nearest
    UAV, distance d, the (U, V) distances)."""
    diff = user_xyz[:, None, :] - uav_xyz[None, :, :]
    d = np.sqrt(np.einsum("uvk,uvk->uv", diff, diff))
    nearest = np.argmin(d, axis=1)
    return nearest, d[np.arange(len(user_xyz)), nearest], d


def sum_user_rate_einsum(scenario, uav_xyz, params):
    """f1 over `nearest_uavs_einsum`'s association. Returns (f1, nearest UAV
    per user)."""
    user_xyz = scenario.user_xyz
    nearest, d_star, _ = nearest_uavs_einsum(user_xyz, uav_xyz)
    h_star = np.abs(user_xyz[:, 2] - uav_xyz[nearest, 2])
    elevation_deg = np.degrees(np.arcsin(h_star / d_star))
    p_los = 1.0 / (1.0 + params.psi * np.exp(-params.beta * (elevation_deg - params.psi)))
    fspl = (
        20.0 * np.log10(d_star)
        + 20.0 * np.log10(params.frequency)
        + 20.0 * np.log10(4.0 * np.pi / SPEED_OF_LIGHT)
    )
    loss_db = fspl + p_los * params.mu_los + (1.0 - p_los) * params.mu_nlos
    rx = params.user_tx_power * 10.0 ** (-loss_db / 10.0)
    totals = np.bincount(nearest, weights=rx, minlength=len(uav_xyz))
    sinr = rx / (totals[nearest] - rx + params.noise_watts)
    return float(params.bandwidth * np.sum(np.log2(1.0 + sinr))), nearest


def sinc_sum_direct(xyz: np.ndarray, weights: np.ndarray, phase_constant: float) -> float:
    """Sum_ij w_i w_j sinc(p * d_ij) of one cluster from its own positions, as
    `beamforming.pairwise_sinc_sum` was computed before the fleet's sinc table."""
    xyz = np.asarray(xyz, dtype=float)
    w = np.asarray(weights, dtype=float)
    diff = xyz[:, None, :] - xyz[None, :, :]
    x = phase_constant * np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
    return float(w @ s @ w)


def denominator_quadrature(pos, w, p: float, n_theta: int = 512, n_phi: int = 1024) -> float:
    """The pattern normalization (1/4pi) * integral of |F|^2 over the sphere
    by quadrature: Gauss-Legendre in cos(theta), uniform midpoint rule in phi
    (spectrally accurate for the periodic azimuth)."""
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_theta)
    # nodes are cos(theta) in [-1, 1]
    sin_theta = np.sqrt(1.0 - nodes**2)
    phis = -math.pi + (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    dirs = np.empty((n_theta, n_phi, 3))
    dirs[:, :, 0] = sin_theta[:, None] * np.cos(phis)[None, :]
    dirs[:, :, 1] = sin_theta[:, None] * np.sin(phis)[None, :]
    dirs[:, :, 2] = nodes[:, None]
    phases = p * np.tensordot(dirs, np.asarray(pos, dtype=float).T, axes=1)
    field = np.tensordot(np.exp(1j * phases), np.asarray(w, dtype=float), axes=1)
    mag2 = np.abs(field) ** 2
    integral = (2.0 * math.pi / n_phi) * float(gl_weights @ mag2.sum(axis=1))
    return integral / (4.0 * math.pi)


def array_factor(pos: np.ndarray, w: np.ndarray, p: float, theta: float, phi: float) -> complex:
    """Complex array factor of elements `pos` (n, 3) with weights `w` (n,) and
    phase constant p = 2 pi / lambda, in direction (theta, phi)."""
    st, ct = math.sin(theta), math.cos(theta)
    direction = np.array([st * math.cos(phi), st * math.sin(phi), ct])
    phases = p * (pos @ direction)
    return complex(np.add.reduce(w * np.exp(1j * phases)))


def cluster_snr_one(members, uav_positions, weights, bs_xyz, params, sinc) -> float:
    """SNR of one cluster's link to the BS, one cluster at a time, through the
    scalar `avg_path_loss`: `uav_positions` (V, 3), `weights` (V,) and `sinc`,
    the `sinc_matrix` of `uav_positions`, belong to one fleet."""
    members = list(members)
    if not members:
        raise ValueError("empty cluster")
    pos = np.asarray(uav_positions, dtype=float)[members]
    n = len(members)
    centroid = np.add.reduce(pos, axis=0) / n
    delta = bs_xyz - centroid
    d = math.sqrt(delta.dot(delta))
    if d == 0:
        raise ValueError("cluster centroid coincides with the BS")
    dz = float(delta[2])
    path = 10.0 ** (-avg_path_loss(d, abs(dz), params) / 10.0)
    if n == 1:
        received = params.uav_tx_power * path
    else:
        w = np.asarray(weights, dtype=float)[members]
        p_total = float(np.add.reduce(w**2 * params.uav_tx_power))
        if p_total == 0.0:
            return 0.0
        phases = 2.0 * math.pi / params.wavelength * (pos @ (delta / d))
        block = sinc.take(members, 0).take(members, 1)
        gain = abs(np.add.reduce(w * np.exp(1j * phases))) ** 2 * params.eta / float(w @ block @ w)
        received = p_total * gain * path
    return received / params.noise_watts


def cluster_snr_textbook(q, w, bs, params):
    """SNR from the textbook formulas, sharing no code with `cluster_snr`:
    P * sum w^2 * |sum_i w_i exp(j p r_i . u)|^2 * eta / sum_ij w_i w_j sinc(p d_ij)
    * 10^(-L/10) / N, with u the unit vector from the centroid to the BS."""
    centroid = q.mean(axis=0)
    r = bs - centroid
    d = math.sqrt(float(r @ r))
    elevation = math.degrees(math.asin(abs(r[2]) / d))
    p_los = 1.0 / (1.0 + params.psi * math.exp(-params.beta * (elevation - params.psi)))
    fspl = 20.0 * math.log10(4.0 * math.pi * d * params.frequency / SPEED_OF_LIGHT)
    loss = fspl + p_los * params.mu_los + (1.0 - p_los) * params.mu_nlos
    if len(q) == 1:
        tx_gain = params.uav_tx_power
    else:
        power = params.uav_tx_power * float(np.sum(w**2))
        if power == 0.0:
            return 0.0
        p = 2.0 * math.pi / params.wavelength
        af = np.sum(w * np.exp(1j * p * (q @ (r / d))))
        dist = np.sqrt(((q[:, None, :] - q[None, :, :]) ** 2).sum(axis=2))
        denom = float(w @ np.sinc(p * dist / math.pi) @ w)
        tx_gain = power * abs(af) ** 2 * params.eta / denom
    return tx_gain * 10.0 ** (-loss / 10.0) / params.noise_watts


def semantic_terms_one(snr: float, k: int, params) -> tuple[float, float]:
    """(semantic rate, similarity) of one link at k symbols/word, in scalar
    math from a fresh interpolation of the table: B * I / (k * L) * xi, with
    (0, 0) for SNR <= 0 and the floor a_k where exp overflows."""
    if snr <= 0:
        return 0.0, 0.0
    model = params.similarity
    a, b, c = (float(np.interp(k, model.ks, column)) for column in (model.floors, model.midpoints, model.slopes))
    try:
        xi = a + (1.0 - a) / (1.0 + math.exp(-c * (10.0 * math.log10(snr) - b)))
    except OverflowError:  # exp(x) = inf: 1 / (1 + inf) adds 0.0 to the floor
        xi = a
    return params.bandwidth * params.info_per_sentence / (k * params.words_per_sentence) * xi, xi


def f2_by_cluster(ind, scn, params):
    """f2 by direct per-cluster recomputation."""
    sinc = sinc_matrix(ind.q, params)
    return sum(semantic_terms_one(cluster_snr_one(members, ind.q, ind.w, scn.bs_xyz, params, sinc),
                                  int(ind.k[i]), params)[0]
               for i, members in enumerate(clusters_of(ind.assignment)))


def close_pairs_double_loop(q, d_min):
    out = []
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            d = float(np.linalg.norm(q[i] - q[j]))
            if d < d_min:
                out.append((i, j, d))
    return out


def violation_double_loop(ind, scn, params):
    lower, upper = scn.bounds.lower, scn.bounds.upper
    span = upper - lower
    total = 0.0
    total += float((np.maximum(lower - ind.q, 0.0) / span).sum()
                   + (np.maximum(ind.q - upper, 0.0) / span).sum())
    for _, _, d in close_pairs_double_loop(ind.q, params.d_min):
        total += (params.d_min - d) / params.d_min
    _, xis = semantic_terms(ind.cluster_snr, ind.k, params)
    total += float(np.maximum(params.xi_threshold - xis, 0.0).sum())
    return total


def flight_energy_xyz(initial, target, rotor, v_xy: float, v_z: float) -> float:
    """Energy in joules for relocating one UAV from `initial` to `target`
    (length-3 sequences or arrays): the horizontal leg at v_xy, then the
    climb at v_z; descent costs nothing."""
    dx = float(target[0] - initial[0])
    dy = float(target[1] - initial[1])
    dz = float(target[2] - initial[2])
    horiz = math.hypot(dx, dy)
    energy = 0.0
    if horiz > 0:
        energy += horizontal_power(rotor, v_xy) * (horiz / v_xy)
    if dz > 0:
        energy += vertical_power(rotor, v_z) * (dz / v_z)
    return energy


def total_flight_energy_per_uav(scenario, uav_positions, params) -> float:
    """f3 of one fleet, UAV by UAV with `flight_energy_xyz` on numpy rows,
    summed left to right (an explicit loop: `sum` of floats is compensated
    from Python 3.12 on)."""
    uav_positions = np.asarray(uav_positions, dtype=float)
    total = 0.0
    for i in range(len(uav_positions)):
        total += flight_energy_xyz(scenario.uav_initial_xyz[i], uav_positions[i], params.rotor,
                                   params.v_xy, params.v_z)
    return total


def dominates(a: Individual, b: Individual) -> bool:
    """Constrained dominance: feasibility first, then Pareto on (f1, f2, -f3)."""
    if a.objectives is None or b.objectives is None:
        raise ValueError("both individuals must be evaluated first")
    a_feasible = a.violation == 0.0
    b_feasible = b.violation == 0.0
    if a_feasible and not b_feasible:
        return True
    if b_feasible and not a_feasible:
        return False
    if not a_feasible and not b_feasible:
        return a.violation < b.violation
    return dominates_objectives(a.objectives.as_tuple(), b.objectives.as_tuple())


def dominates_objectives(a: tuple[float, float, float], b: tuple[float, float, float]) -> bool:
    """Pareto dominance: maximize f1 and f2, minimize f3."""
    no_worse = a[0] >= b[0] and a[1] >= b[1] and a[2] <= b[2]
    better = a[0] > b[0] or a[1] > b[1] or a[2] < b[2]
    return no_worse and better


def nondominated_sort_double_loop(pool) -> list[list[int]]:
    """Fast non-dominated sort (Deb et al. 2002) with `dominates` over every
    pair: dominated-by lists, domination counts, then front by front."""
    n = len(pool)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(pool[i], pool[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(pool[j], pool[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts = [[i for i in range(n) if domination_count[i] == 0]]
    while True:
        next_front = []
        for i in fronts[-1]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        if not next_front:
            break
        fronts.append(next_front)
    return fronts


def final_front_feasible_first(population) -> list[Individual]:
    """The first front of the feasible members when any exist, else of the
    whole population, each by the double loop."""
    feasible = [ind for ind in population if ind.violation == 0.0]
    base = feasible if feasible else list(population)
    return [base[i] for i in nondominated_sort_double_loop(base)[0]]


def peeled_fronts(objs, viol):
    """Non-dominated fronts, each sorted, by vectorized constrained-domination
    peeling that shares no code with `problem.dominates`."""
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
    out = []
    while remaining.any():
        idx = np.where(remaining)[0]
        sub = dom[np.ix_(idx, idx)]
        nondom = idx[~sub.any(axis=0)]
        out.append(sorted(int(i) for i in nondom))
        remaining[nondom] = False
    return out


def crowding(front_objs):
    """Crowding distance of each row of one front's objectives."""
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


def lent_terms(ind, parent):
    """The per-individual lending rule of `problem.evaluate`: ({cluster
    slot: the parent's SNR} for each cluster of `ind` whose member set, Q
    rows and w equal, byte for byte, those of a cluster of the evaluated
    `parent`; the parent's fleet terms when all Q rows are byte-equal, else
    None). With no parent nothing is lent."""
    if parent is None:
        return {}, None
    same = ((ind.q.view(np.int64) == parent.q.view(np.int64)).all(axis=1)
            & (ind.w.view(np.int64) == parent.w.view(np.int64))).tolist()
    known = {members: snr for members, snr in zip(clusters_of(parent.assignment), parent.cluster_snr.tolist())
             if all(same[v] for v in members)}
    lent = {i: known[members] for i, members in enumerate(clusters_of(ind.assignment)) if members in known}
    return lent, parent.fleet_terms if ind.q.tobytes() == parent.q.tobytes() else None


def semantic_terms_from_scratch(ind, scenario, params):
    """Per-cluster (semantic rate, similarity) of `ind`, its SNRs computed afresh."""
    evaluate([ind], scenario, params)
    return semantic_terms(ind.cluster_snr, ind.k, params)


def enumerate_merge_gains(ind, scenario, params, baseline_f2: float):
    """All ordered-pair merges with their f2 gain versus the baseline, each
    merged individual evaluated from scratch.

    Yields (survivor, absorbed, gain, merged assignment, merged k, merged f2).
    """
    n = ind.assignment.n_clusters
    for b in range(1, n + 1):
        for b2 in range(1, n + 1):
            if b == b2:
                continue
            assignment, k = merge_labels(ind.assignment, ind.k, b, b2)
            rates, _ = semantic_terms_from_scratch(Individual(assignment, ind.q, ind.w, k), scenario, params)
            f2 = float(rates.sum())
            yield b, b2, f2 - baseline_f2, assignment, k, f2


def gca_replay(ind, scn, params):
    """The greedy merge loop of `gca_step` on an evaluated individual, every
    ordered merge rated from scratch: apply the first best merge while its
    gain over the individual's f2 is positive.

    Returns the merged individual, evaluated, and the f2 of each applied merge.
    """
    merged = ind.copy()
    baseline = ind.objectives.f2
    applied_f2 = []
    while merged.assignment.n_clusters > 1:
        best = max(enumerate_merge_gains(merged, scn, params, baseline), key=lambda g: g[2])
        if best[2] <= 0:
            break
        merged.assignment, merged.k = best[3], best[4]
        applied_f2.append(best[5])
    evaluate(merged, scn, params)
    return merged, applied_f2


def gso_sweep(ind, scn, params):
    """From-scratch exhaustive symbol sweep, sequential over clusters,
    ascending k; returns a new, evaluated individual."""
    best = ind.copy()
    for i in range(best.assignment.n_clusters):
        candidates = []
        for k in range(params.k_min, params.k_max + 1):
            trial = best.copy()
            trial.k[i] = k
            rates, xis = semantic_terms_from_scratch(trial, scn, params)
            candidates.append((k, float(rates.sum()), float(xis[i])))
        feasible = [c for c in candidates if c[2] >= params.xi_threshold]
        pick = (max(feasible, key=lambda c: (c[1], -c[0])) if feasible
                else max(candidates, key=lambda c: (c[2], -c[0])))
        best.k[i] = pick[0]
    evaluate(best, scn, params)
    return best


def sbx_crossover_loop(g1, g2, lower, upper, eta, rng):
    """SBX of one pair, one gene at a time: r for every gene, then u right
    after r when the gene crosses; `solver.breed` makes a pair's children
    from the same draws."""
    c1, c2 = g1.copy(), g2.copy()
    for i in range(len(g1)):
        if rng.random() <= 0.5 and abs(g1[i] - g2[i]) > 1e-14:
            u = rng.random()
            if u <= 0.5:
                beta = (2.0 * u) ** (1.0 / (eta + 1.0))
            else:
                beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
            c1[i] = 0.5 * ((1 + beta) * g1[i] + (1 - beta) * g2[i])
            c2[i] = 0.5 * ((1 - beta) * g1[i] + (1 + beta) * g2[i])
    return np.clip(c1, lower, upper), np.clip(c2, lower, upper)


def polynomial_mutation_loop(genes, lower, upper, eta, rng):
    """Polynomial mutation one gene at a time: r for every gene, then u right
    after r when the gene mutates."""
    out = genes.copy()
    n = len(genes)
    for i in range(n):
        if rng.random() < 1.0 / n:
            u = rng.random()
            if u < 0.5:
                delta = (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0
            else:
                delta = 1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0))
            out[i] = genes[i] + delta * (upper[i] - lower[i])
    return np.clip(out, lower, upper)


def decode_monolithic_numpy(genes, params) -> Individual:
    """The monolithic decode in numpy: `np.rint`, `np.clip` and `np.resize`."""
    n_v = len(genes) // 6
    raw_labels = np.clip(np.rint(genes[:n_v]).astype(int), 1, n_v)
    q = genes[n_v: 4 * n_v].reshape(n_v, 3).copy()
    w = genes[4 * n_v: 5 * n_v].copy()
    k_full = np.clip(np.rint(genes[5 * n_v:]).astype(int), params.k_min, params.k_max)
    assignment, k = canonicalize_labels(raw_labels, np.resize(k_full, int(raw_labels.max())))
    return Individual(assignment, q, w, k)


def json_file_text(doc) -> str:
    """What `scenario.write_json` writes: `json.dumps(doc, indent=2)` and a
    newline, json's own encoder."""
    return json.dumps(doc, indent=2) + "\n"


def scenario_doc(scn) -> dict:
    """The scenario file's document, built with `tolist()` as one nested list."""
    return {
        "users": scn.user_xyz.tolist(),
        "uavs_initial": scn.uav_initial_xyz.tolist(),
        "bs": scn.bs_xyz.tolist(),
        "bounds": asdict(scn.bounds),
        "seed": scn.seed,
    }


def deployment_doc(scn, ind) -> dict:
    """The deployment document with one dict per UAV and per user; each user
    is served by its nearest UAV, as in f1."""
    serving = nearest_uavs(scn, ind.q)[0]
    clusters = clusters_of(ind.assignment)
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
    user_rows = [
        {"user": u, "position": [float(x) for x in scn.user_xyz[u]], "uav": int(serving[u])}
        for u in range(scn.n_users)
    ]
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
