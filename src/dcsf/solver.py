"""Alternating-optimization solvers for the three-objective deployment problem.

The main pipeline alternates four stages per outer iteration: greedy cluster
merging on f2 (GCA), an advisor-guided NSGA-II pass over positions and weights,
an exhaustive per-cluster sweep of the symbol count (GSO), and an elitist
sort/truncate assessment. Two baselines share the machinery: the same stages
with fixed (p_c, p_m) and no advisor, and a flat NSGA-II over every variable
at once, which runs the generations alone.

All three modes run one outer loop (`run`) around the same NSGA-II
generation, `nsga2_generation`; they differ only in the genome and its
decoding, set up once before the loop, and in the stages around the
generations, which leave Q and w, and so the genomes, as they are. Parents
carry their objectives across generations, so each generation evaluates
only its offspring. They also carry their fronts, so `run` sorts only where
objectives change: a generation sorts its pool once, in the elitist
`select_best`, and hands the survivors' fronts to the next generation and
the advisor; the monolithic mode sorts once more, after the initial
evaluation, and the AO modes after GCA and, in a closing `select_best`,
after GSO. The sort peels only the feasible members; constrained dominance
orders the infeasible ones by violation alone. A generation handles its
offspring as one batch, from genes to objectives: the tournament picks and
the crossover and mutation draws are made one child pair or mutant at a
time, in the order of the random stream, and one array pass (`breed`) then
builds every child's genes; one decode call builds the offspring of that
(children, genes) stack, and one population evaluation scores them all.

Every evaluated individual also caches only what does not depend on k: one
SNR per cluster, which depends on the members' positions and weights, and its
fleet terms, f1, f3 and the C1 + C2 violation, which depend on the
positions alone. An offspring reuses its parent's SNR for each cluster it
kept unchanged, and its parent's fleet terms when it kept every position,
so a clone of its parent computes only its k-dependent sums. One
population evaluation computes the rest for all its pending individuals
in one `problem.evaluate` batch, in array passes: one
`channel.sum_user_rate` call on the stack of moved fleets, one
`energy.total_flight_energy` call and one `beamforming.cluster_snr` call.

GCA and GSO also run over the whole population at once. GCA merges every
individual in lockstep, one pass per merge, on boolean (clusters, V)
membership rows: each pass rates the pairs not yet rated, of all
individuals, each the OR of its two rows, in one `cluster_snr` and one
`semantic.semantic_terms` call. GSO rates every stored SNR at every k of
[k_min, k_max] in one `semantic_terms` call and sets every k by one argmax
over the rows. GCA's ordered merges are scored as matrix row sums. The
individuals GCA or GSO changed are scored again in one
`problem.cluster_semantic_terms` call, which derives f2 and the C6
violation, the terms that depend on k, from their stored SNRs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import advisor as advisor_mod
from . import beamforming, metrics, problem, semantic
from .problem import ClusterAssignment, Individual


class SolverError(RuntimeError):
    pass


# The modes `run` accepts: the paper's method and its two baselines.
MODES = ("llm-aoa", "aoa", "monolithic-nsga2")

# NSGA-II operator constants: the crossover and mutation probabilities (aoa
# and monolithic-nsga2 keep them; the llm-aoa advisor adapts them from there)
# and the SBX and polynomial-mutation distribution indices.
P_C_INITIAL = 0.8
P_M_INITIAL = 0.4
SBX_ETA = 15.0
POLY_ETA = 20.0
# Consecutive generations without an `llm`-sourced update after which llm-aoa
# drops its transport and the fallback rule advises for the rest of the run.
LLM_FAILURE_LIMIT = 3


@dataclass(frozen=True)
class SolverConfig:
    population_size: int = 30
    t_ao: int = 50            # outer alternating-optimization iterations
    t_local: int = 10         # NSGA-II generations per outer iteration
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population size must be even and >= 4")
        if self.t_ao < 1 or self.t_local < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass
class RunResult:
    population: list[Individual]
    history: list[dict]  # ends with the final p_c, p_m and front metrics
    front: list[Individual]  # the population's first front under constrained dominance


# ---------------------------------------------------------------------------
# Initialization

def initialize_population(scenario, params, config: SolverConfig, rng=None) -> list[Individual]:
    """Mixed initialization: random labels, uniform positions/weights, random k."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    m, n_v = config.population_size, scenario.n_uavs
    lower, upper = scenario.bounds.lower, scenario.bounds.upper
    raw, k_raw, q, w = np.empty((m, n_v), dtype=np.intp), np.zeros((m, n_v), dtype=int), [], []
    for i in range(m):
        raw[i] = rng.integers(1, n_v + 1, size=n_v)
        # one k per raw label up to the largest drawn, relabeled with the clusters
        k_raw[i, : raw[i].max()] = rng.integers(params.k_min, params.k_max + 1, size=raw[i].max())
        q.append(lower + rng.random((n_v, 3)) * (upper - lower))
        w.append(rng.uniform(params.w_min, params.w_max, size=n_v))
    return [Individual(assignment, q_i, w_i, k) for (assignment, k), q_i, w_i in zip(_canonical(raw, k_raw), q, w)]


def _canonical(raw: np.ndarray, k_raw: np.ndarray) -> list[tuple[ClusterAssignment, np.ndarray]]:
    """(assignment, k) of each row of the (M, V) positive raw labels: the
    labels renumbered 1..N in order of first appearance, in array passes,
    and raw label r's k, `k_raw[row, r - 1]`, following its cluster; raw
    labels absent from a row drop out with their k."""
    n_v = raw.shape[1]
    # each UAV's first UAV with the same raw label; the first appearances, in order, are 1..N
    first = (raw[:, :, None] == raw[:, None, :]).argmax(axis=2)
    appears = first == np.arange(n_v)
    labels = np.take_along_axis(np.cumsum(appears, axis=1), first, axis=1).tolist()
    row, uav = np.nonzero(appears)
    k = np.split(k_raw[row, raw[row, uav] - 1], np.cumsum(appears.sum(axis=1))[:-1])
    return [(ClusterAssignment(tuple(c)), k_i) for c, k_i in zip(labels, k)]


def evaluate_population(population, scenario, params, parents=None) -> None:
    """Evaluate every member that has no objectives yet in one
    `problem.evaluate` batch, which lends member i what `parents[i]` holds
    unchanged when `parents` is given, and is not called when no member is
    pending."""
    pending = [i for i, ind in enumerate(population) if ind.objectives is None]
    if not pending:
        return
    try:
        problem.evaluate([population[i] for i in pending], scenario, params,
                         None if parents is None else [parents[i] for i in pending])
    except ValueError as exc:
        raise SolverError(f"evaluation failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Stage 1: greedy cluster merging

def merge_clusters(members: np.ndarray, k: np.ndarray, survivor: int, absorbed: int):
    """Merge cluster slot `absorbed` into slot `survivor` (0-based) of the
    boolean (clusters, V) membership rows `members`: the survivor's row takes
    the absorbed one's UAVs and the absorbed row and k entry drop out, so the
    rows stay in label order.

    The merged cluster keeps the lower-indexed cluster's k; that k stands,
    and counts in C6, through the generations until the closing symbol sweep.
    """
    if survivor == absorbed:
        raise ValueError("cannot merge a cluster with itself")
    merged, kept = members[survivor] | members[absorbed], k[min(survivor, absorbed)]
    members, k = np.delete(members, absorbed, 0), np.delete(k, absorbed)
    s = survivor - (survivor > absorbed)
    members[s], k[s] = merged, kept
    return members, k


def _best_merge(rates: np.ndarray, merged: np.ndarray, baseline: float):
    """(gain, survivor, absorbed) of the first strictly best ordered merge,
    by 0-based slot, given the clusters' `rates` and the `merged` rate of
    each pair (the lower-indexed cluster's k).

    Each ordered candidate's f2 is the sum of one row of a matrix: the rate
    vector without the absorbed slot, in the label order `merge_clusters`
    gives, and the merged rate in the survivor's slot. A row sums bit for bit
    like the 1-D vector, so this reproduces, ties included, the f2 of each
    merged individual evaluated from scratch (the oracle
    `enumerate_merge_gains` in tests/oracles.py); `np.argmax` keeps the first
    of equal gains.
    """
    n = len(rates)
    # ordered merges (survivor b, absorbed a), b-major: the first of equal gains is the oracle's
    b, a = np.nonzero(~np.eye(n, dtype=bool))
    slots = np.arange(n - 1)
    trial = rates[slots + (slots >= a[:, None])]
    trial[np.arange(len(b)), b - (b > a)] = merged[b, a]
    gains = trial.sum(axis=1) - baseline
    best = int(np.argmax(gains))
    return float(gains[best]), int(b[best]), int(a[best])


class _Merging:
    """The greedy merge of one evaluated individual, one pass at a time.

    It holds the individual's clusters as boolean (clusters, V) membership
    rows, its k, cluster SNRs and cluster `rates` while it merges, and the
    SNR and merged rate of every pair of clusters across passes: a merge
    moves the pair's into the cluster SNRs and rates, drops the absorbed row
    and column and leaves only the survivor's pairs to rate again, at the
    lower-indexed cluster's k, which the merge keeps. The individual itself
    is left as it was until `gca_step` writes the result back.
    """

    def __init__(self, ind: Individual, rates: np.ndarray):
        self.ind = ind
        self.k, self.snr, self.rates = ind.k, ind.cluster_snr, rates
        n = len(ind.k)
        self.members = np.arange(1, n + 1)[:, None] == np.array(ind.assignment.labels)
        self.baseline = ind.objectives.f2
        self.pair_snr, self.merged = np.zeros((n, n)), np.zeros((n, n))
        self.lo, self.hi = np.triu_indices(n, 1)  # slots of the pairs to rate

    def step(self, snrs: np.ndarray, rates: np.ndarray) -> bool:
        """Take the pending pairs' `snrs` and merged `rates` and apply the best
        merge; True when a merge was applied and more than one cluster is left."""
        self.pair_snr[self.lo, self.hi] = self.pair_snr[self.hi, self.lo] = snrs
        self.merged[self.lo, self.hi] = self.merged[self.hi, self.lo] = rates
        gain, b, a = _best_merge(self.rates, self.merged, self.baseline)
        if gain <= 0:
            return False
        self.members, self.k = merge_clusters(self.members, self.k, b, a)
        s = b - (b > a)  # the survivor's slot after the merge
        self.snr = np.delete(self.snr, a)
        self.snr[s] = self.pair_snr[b, a]
        self.rates = np.delete(self.rates, a)
        self.rates[s] = self.merged[b, a]
        self.pair_snr = np.delete(np.delete(self.pair_snr, a, 0), a, 1)
        self.merged = np.delete(np.delete(self.merged, a, 0), a, 1)
        others = np.delete(np.arange(len(self.k)), s)
        self.lo, self.hi = np.minimum(others, s), np.maximum(others, s)
        return len(others) > 0


def gca_step(population, scenario, params) -> None:
    """Greedy best-gain cluster merging on f2, in place: each individual
    applies its best merge while that gains, and every individual with more
    than one cluster merges in lockstep with the others.

    Every merge gain, including those after a merge has been applied, is
    measured against the individual's f2 from the previous iteration. The
    clusters' own rates come from one `semantic_terms` call over the stored
    SNRs and k of the merging individuals. Each pass rates every pair it has
    not rated yet, over all individuals, in one `cluster_snr` and one
    `semantic_terms` call: every pair in the first pass, then only the pairs
    with each new cluster. When no individual merges any more, each merged
    one takes its assignment, k and SNRs at once, and all of them are scored
    again in one `cluster_semantic_terms` call, with their own fleet terms.
    """
    evaluate_population(population, scenario, params)
    individuals = [ind for ind in population if ind.assignment.n_clusters > 1]
    if not individuals:
        return
    rates, _ = semantic.semantic_terms(np.concatenate([ind.cluster_snr for ind in individuals]),
                                       np.concatenate([ind.k for ind in individuals]), params)
    ends = np.cumsum([len(ind.k) for ind in individuals]).tolist()
    merging = [_Merging(ind, rates[start:end]) for ind, start, end in zip(individuals, [0] + ends, ends)]
    q = np.stack([ind.q for ind in individuals])
    w = np.stack([ind.w for ind in individuals])
    active = list(range(len(merging)))
    while active:
        fleets = np.repeat(active, [len(merging[f].lo) for f in active])
        pairs = np.concatenate([merging[f].members[merging[f].lo] | merging[f].members[merging[f].hi]
                                for f in active])
        snrs = beamforming.cluster_snr(fleets, pairs, q, w, scenario.bs_xyz, params)
        # each pair is rated at the k of its lower-indexed cluster
        ks = np.concatenate([merging[f].k[merging[f].lo] for f in active])
        rates, _ = semantic.semantic_terms(snrs, ks, params)
        still, start = [], 0
        for f in active:
            end = start + len(merging[f].lo)
            if merging[f].step(snrs[start:end], rates[start:end]):
                still.append(f)
            start = end
        active = still
    changed = []
    for m in merging:
        if len(m.k) < len(m.ind.k):
            m.ind.assignment = ClusterAssignment(tuple((m.members.argmax(axis=0) + 1).tolist()))
            m.ind.k, m.ind.cluster_snr = m.k, m.snr
            changed.append(m.ind)
    problem.cluster_semantic_terms(changed, params)


# ---------------------------------------------------------------------------
# Stage 2: NSGA-II over positions and weights

def nondominated_sort(pool) -> list[list[int]]:
    """Fast non-dominated sort (Deb et al. 2002) under constrained dominance
    (Deb 2000); returns index fronts, the same fronts in the same member
    order as the pairwise double loop's peel of the whole pool.

    A feasible member (violation 0.0 or -0.0) dominates every infeasible
    one, and infeasible members are ordered by violation alone, so only the
    feasible members are peeled, on `problem.dominance_matrix` of those
    members, where constrained dominance is Pareto dominance. Its
    dominated-by lists are ascending, as the double loop built them. The
    infeasible members follow, one front per distinct violation in
    ascending order, each front in ascending index order. That is the
    peel's order: a member joins a front when its last dominator in
    processing order is processed, and every dominated-by list is
    ascending; every infeasible member of one violation has the same
    dominators (all feasible members and all lower violations), so each
    violation joins as one front, in ascending index order.
    """
    violation = np.array([ind.violation for ind in pool])
    feasible = np.flatnonzero(violation == 0.0)
    dominates = problem.dominance_matrix([pool[i] for i in feasible.tolist()])
    count = dominates.sum(axis=0).tolist()
    dominated = np.nonzero(dominates)[1].tolist()
    ends = np.cumsum(dominates.sum(axis=1)).tolist()
    dominated_by = [dominated[start:end] for start, end in zip([0] + ends, ends)]
    fronts = []
    front = [i for i, c in enumerate(count) if c == 0]
    while front:
        fronts.append(feasible[front].tolist())
        next_front = []
        for i in front:
            for j in dominated_by[i]:
                count[j] -= 1
                if count[j] == 0:
                    next_front.append(j)
        front = next_front
    infeasible = np.flatnonzero(violation != 0.0)
    if len(infeasible):
        order = infeasible[np.argsort(violation[infeasible], kind="stable")]
        levels = violation[order]
        fronts += [f.tolist() for f in np.split(order, np.flatnonzero(levels[1:] != levels[:-1]) + 1)]
    return fronts or [[]]


def crowding_distance(front) -> np.ndarray:
    """Crowding distances for one front of evaluated individuals.

    Boundary members per objective get +inf; interior members accumulate
    normalized neighbor gaps.
    """
    n = len(front)
    if n <= 2:
        return np.full(n, np.inf)
    objs = np.array([ind.objectives.as_tuple() for ind in front])
    distance = np.zeros(n)
    for m in range(objs.shape[1]):
        order = np.argsort(objs[:, m], kind="stable")
        lo, hi = objs[order[0], m], objs[order[-1], m]
        distance[order[0]] = distance[order[-1]] = np.inf
        if hi > lo:
            distance[order[1:-1]] += (objs[order[2:], m] - objs[order[:-2], m]) / (hi - lo)
    return distance


def _rank_and_crowd(pool, fronts) -> tuple[list, list]:
    """Each member's front rank and crowding distance within its front, from
    the pool's index `fronts`."""
    rank, crowd = np.empty(len(pool), dtype=int), np.empty(len(pool))
    for r, front in enumerate(fronts):
        rank[front] = r
        crowd[front] = crowding_distance([pool[i] for i in front])
    return rank.tolist(), crowd.tolist()


def select_best(pool, m: int) -> tuple[list[int], list[list[int]]]:
    """Elitist selection, (chosen, fronts): pool indices of the m survivors
    by (front rank, crowding), and the survivors' fronts as indices into
    `chosen`, equal to `nondominated_sort([pool[i] for i in chosen])`. With
    m = len(pool) it drops nobody and orders the pool by front.

    The pool is sorted once. Whole fronts are taken in rank order while
    they fit, and the loop stops when they fill m exactly; crowding is
    computed only for the one front that is split, the only one where it
    decides anything (Deb et al. 2002). A whole front keeps its pool order
    among the survivors, and by induction their peel gives it again. The
    peel orders the survivors of split front r by the position in front
    r - 1 of their last dominator, then by index, which is selection
    order; for r = 0, or an infeasible split front, every member has the
    same dominators, so selection order stands.
    """
    chosen: list[int] = []
    fronts: list[list[int]] = []
    previous: list[int] = []
    for front in nondominated_sort(pool):
        start = len(chosen)
        if start + len(front) <= m:
            chosen.extend(front)
            fronts.append(list(range(start, len(chosen))))
            if len(chosen) == m:
                break
            previous = front
            continue
        crowd = crowding_distance([pool[i] for i in front]).tolist()
        order = sorted(range(len(front)), key=lambda j: (-crowd[j], front[j]))
        chosen.extend(front[j] for j in order[: m - start])
        last = np.zeros(m - start, dtype=int)
        if previous and pool[front[0]].violation == 0.0:
            n = len(previous)
            dominated = problem.dominance_matrix([pool[i] for i in previous + chosen[start:]])[:n, n:]
            # the position in `previous` of each survivor's last dominator there
            last = n - 1 - np.argmax(dominated[::-1], axis=0)
        fronts.append((start + np.argsort(last, kind="stable")).tolist())
        break
    return chosen, fronts


def _tournament(rank: list, crowd: list, rng) -> int:
    """Binary tournament by (front rank, crowding), ties to the lower index."""
    i, j = rng.integers(0, len(rank), size=2).tolist()
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowd[i] != crowd[j]:
        return i if crowd[i] > crowd[j] else j
    return min(i, j)


def _gene_bounds(scenario, params):
    lower = np.concatenate([np.tile(scenario.bounds.lower, scenario.n_uavs),
                            np.full(scenario.n_uavs, params.w_min)])
    upper = np.concatenate([np.tile(scenario.bounds.upper, scenario.n_uavs),
                            np.full(scenario.n_uavs, params.w_max)])
    return lower, upper


def _genes_of(ind: Individual) -> np.ndarray:
    return np.concatenate([ind.q.ravel(), ind.w])


def _with_genes(parents, genes: np.ndarray) -> list[Individual]:
    """Offspring with the (Q, w) rows of `genes` and their parents' (c, k);
    the Q and w blocks of the whole stack are copied once."""
    n_v = genes.shape[1] // 4
    q = genes[:, : 3 * n_v].reshape(len(genes), n_v, 3).copy()
    w = genes[:, 3 * n_v:].copy()
    return [Individual(parent.assignment, q_i, w_i, parent.k.copy()) for parent, q_i, w_i in zip(parents, q, w)]


# gene i of SBX crosses when its r <= 0.5, which for doubles is r < this
_SBX_LIMIT = float(np.nextafter(0.5, 1.0))


def _hit_draws(rng, limits) -> tuple[list[int], list[float]]:
    """(gene indices, u draws) of the genes that hit: gene i draws r and hits
    when r < limits[i], and a gene that hits draws its u right after its r.

    The stream is the one that drawing one value at a time gives, drawn in
    blocks of exactly the draws still certain to be needed (one r per gene
    left, plus the pending u of a gene that hit last), so nothing is drawn
    that the one-at-a-time rule would not draw.
    """
    n = len(limits)
    genes: list[int] = []
    us: list[float] = []
    i, pending = 0, False
    while i < n or pending:
        for x in rng.random(n - i + pending).tolist():
            if pending:
                us.append(x)
                pending = False
            else:
                if x < limits[i]:
                    genes.append(i)
                    pending = True
                i += 1
    return genes, us


def breed(genomes: np.ndarray, pick, n_pairs: int, n_mutants: int, bounds, rng):
    """(parent rows, children genes): `n_pairs` SBX pairs, then `n_mutants`
    polynomial mutants, of the (M, genes) stack `genomes`, each parent row
    given by `pick()`.

    SBX crosses each gene whose parents differ with probability 1/2, by a
    spread factor beta drawn from its u; a mutant mutates each of the n
    genes with probability 1/n, by a step delta drawn from its u and scaled
    by the gene's range. The picks and draws are made one pair or mutant at
    a time, in that order; beta and delta are Python float powers, whose
    bits do not depend on numpy's SIMD level. One pass then builds every
    child: the parents' rows gathered, the crossed and mutated genes set,
    and one clip into `bounds` of the (children, genes) stack.
    """
    lower, upper = bounds
    n = genomes.shape[1]
    sbx_exp, poly_exp = 1.0 / (SBX_ETA + 1.0), 1.0 / (POLY_ETA + 1.0)
    rows: list[int] = []
    pairs, crossed, betas = [], [], []
    for p in range(n_pairs):
        i1, i2 = pick(), pick()
        limits = np.where(np.abs(genomes[i1] - genomes[i2]) > 1e-14, _SBX_LIMIT, 0.0).tolist()
        genes, us = _hit_draws(rng, limits)
        rows += [i1, i2]
        pairs += [p] * len(genes)
        crossed += genes
        betas += [(2.0 * u) ** sbx_exp if u <= 0.5 else (1.0 / (2.0 * (1.0 - u))) ** sbx_exp for u in us]
    mutants, mutated, deltas = [], [], []
    for j in range(n_mutants):
        rows.append(pick())
        genes, us = _hit_draws(rng, [1.0 / n] * n)
        mutants += [2 * n_pairs + j] * len(genes)
        mutated += genes
        deltas += [(2.0 * u) ** poly_exp - 1.0 if u < 0.5 else 1.0 - (2.0 * (1.0 - u)) ** poly_exp for u in us]

    parents = np.array(rows, dtype=np.intp)
    children = genomes[parents]
    first, crossed = 2 * np.array(pairs, dtype=np.intp), np.array(crossed, dtype=np.intp)
    a, b = genomes[parents[first], crossed], genomes[parents[first + 1], crossed]
    up, down = 1 + np.array(betas), 1 - np.array(betas)
    children[first, crossed] = 0.5 * (up * a + down * b)
    children[first + 1, crossed] = 0.5 * (down * a + up * b)
    mutants, mutated = np.array(mutants, dtype=np.intp), np.array(mutated, dtype=np.intp)
    children[mutants, mutated] = (genomes[parents[mutants], mutated]
                                  + np.array(deltas) * (upper[mutated] - lower[mutated]))
    return parents, np.clip(children, lower, upper, out=children)


def nsga2_generation(population, genomes, fronts, scenario, params, bounds, decode,
                     p_c: float, p_m: float, rng):
    """One NSGA-II generation: SBX offspring, polynomial mutants, elitist
    selection of the best M from parents plus offspring.

    `population` is evaluated; `genomes` is the (M, genes) stack of its
    real-valued genomes, `fronts` its index fronts as `nondominated_sort`
    gives them, `bounds` the (lower, upper) gene bounds, and
    `decode(parents, genes)` builds the offspring of a stack of genes, one
    per row, each from its parent. The offspring are handled as one batch:
    `breed` makes every child's genes, one `decode` call builds them, and
    one population evaluation scores them all, each lent what its parent
    holds unchanged. Parents keep their objectives. The pool of parents and
    offspring is sorted once, in the selection. Returns the M survivors, the
    stack of their genomes and their fronts, which the next generation takes
    as they are.
    """
    m = len(population)
    genomes = np.asarray(genomes)
    rank, crowd = _rank_and_crowd(population, fronts)
    rows, children = breed(genomes, lambda: _tournament(rank, crowd, rng),
                           int(round(p_c * m)) // 2, int(round(p_m * m)), bounds, rng)
    parents = [population[i] for i in rows.tolist()]
    offspring = decode(parents, children)
    evaluate_population(offspring, scenario, params, parents)
    pool = population + offspring
    chosen, fronts = select_best(pool, m)
    return [pool[i] for i in chosen], np.concatenate([genomes, children])[chosen], fronts


# ---------------------------------------------------------------------------
# Stage 3: greedy symbol optimization

def gso_step(population, scenario, params) -> None:
    """Per cluster, set k to the exhaustive argmax of its own semantic rate
    (ties toward smaller k): f2 sums the clusters' rates, so this maximizes f2.

    Candidates violating the similarity threshold are skipped; if no candidate
    reaches it, the max-similarity value is taken and the violation stands.
    The stored SNRs of every cluster of the population, which do not depend
    on k, give one (cluster, k) table of rates and similarities in one
    `semantic.semantic_terms` call, and one masked argmax over its rows. The
    individuals whose k changed are scored again in one
    `cluster_semantic_terms` call, with their own SNRs and fleet terms.
    """
    evaluate_population(population, scenario, params)
    snr = np.concatenate([ind.cluster_snr for ind in population])
    rates, xis = semantic.semantic_terms(snr[:, None], np.arange(params.k_min, params.k_max + 1), params)
    feasible = xis >= params.xi_threshold
    # the first best rate among threshold-meeting candidates, else the first best similarity
    best = params.k_min + np.where(feasible.any(axis=1), np.argmax(np.where(feasible, rates, -np.inf), axis=1),
                                   np.argmax(xis, axis=1))
    changed, ends = [], np.cumsum([len(ind.k) for ind in population]).tolist()
    for ind, start, end in zip(population, [0] + ends, ends):
        if not np.array_equal(ind.k, best[start:end]):
            ind.k[:] = best[start:end]
            changed.append(ind)
    problem.cluster_semantic_terms(changed, params)


# ---------------------------------------------------------------------------
# Full runs

def _objectives(individuals) -> np.ndarray:
    return np.array([ind.objectives.as_tuple() for ind in individuals])


def _history_record(t: int, front, p_c: float, p_m: float) -> dict:
    """One `history` row: the metrics of the first `front` after outer iteration t."""
    objs = _objectives(front)
    return {
        "iteration": t, "sp": metrics.spacing_metric(objs), "m3": metrics.max_spread_metric(objs),
        "hypervolume": metrics.hypervolume(objs), "p_c": p_c, "p_m": p_m, "front_size": len(objs),
    }


def run(mode: str, scenario, params, config: SolverConfig, transport=None) -> RunResult:
    """Execute a full optimization run.

    Modes (`MODES`): "llm-aoa" (the advisor sets p_c and p_m each generation,
    through `transport` when one is given; see `advisor.advise`), "aoa"
    (fixed P_C_INITIAL and P_M_INITIAL, no advisor) and "monolithic-nsga2"
    (flat NSGA-II over all variables, fixed p_c and p_m). All three run this
    one outer loop; only the AO modes open each outer iteration with GCA and
    close it with GSO and an elitist select. `fronts` are always the fronts
    of `population`, sorted only where objectives change. History carries
    one record per outer iteration, of its first front; `front` is the last.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    rng = np.random.default_rng(config.seed)
    alternating = mode != "monolithic-nsga2"
    if alternating:
        # offspring keep their parent's (c, k); the genome is (Q, w)
        population = initialize_population(scenario, params, config, rng)
        genomes = np.stack([_genes_of(ind) for ind in population])
        bounds, decode = _gene_bounds(scenario, params), _with_genes
    else:
        bounds = lower, upper = _monolithic_bounds(scenario, params)
        genomes = lower + rng.random((config.population_size, len(lower))) * (upper - lower)
        population = _decode_monolithic(genomes, params)

        def decode(_, genes):
            return _decode_monolithic(genes, params)
    evaluate_population(population, scenario, params)
    if not alternating:
        fronts = nondominated_sort(population)

    p_c, p_m = P_C_INITIAL, P_M_INITIAL
    llm_failures = 0
    window: list[tuple[float, float]] = []
    history: list[dict] = []
    for t in range(1, config.t_ao + 1):
        if alternating:
            gca_step(population, scenario, params)  # GCA and GSO keep Q and w, and so the genomes
            fronts = nondominated_sort(population)  # GCA changed f2
        for gen in range(config.t_local):
            population, genomes, fronts = nsga2_generation(
                population, genomes, fronts, scenario, params, bounds, decode, p_c, p_m, rng)
            if mode != "llm-aoa":
                continue  # fixed (p_c, p_m): no advisor, no front metrics
            objs = _objectives([population[i] for i in fronts[0]])
            sp, m3 = metrics.spacing_metric(objs), metrics.max_spread_metric(objs)
            inp = advisor_mod.AdvisorInput(
                generation=(t - 1) * config.t_local + gen + 1,
                p_c=p_c, p_m=p_m, sp=sp, m3=m3,
                objective_ranges=metrics.objective_ranges(objs),
                history=tuple(window[-5:]),
            )
            update = advisor_mod.advise(inp, transport)
            p_c, p_m = update.p_c, update.p_m
            if transport is not None:
                # circuit breaker: a dead endpoint stops costing a timeout per generation
                llm_failures = 0 if update.source == "llm" else llm_failures + 1
                if llm_failures == LLM_FAILURE_LIMIT:
                    transport = None
            window.append((sp, m3))
        if alternating:
            gso_step(population, scenario, params)
            # GSO changed f2: sort, and order the population by front, the
            # order in which the next outer iteration's tournaments draw it
            chosen, fronts = select_best(population, config.population_size)
            population, genomes = [population[i] for i in chosen], genomes[chosen]
        front = [population[i] for i in fronts[0]]
        history.append(_history_record(t, front, p_c, p_m))
    return RunResult(population, history, front)


# ---------------------------------------------------------------------------
# Monolithic baseline: flat NSGA-II over (c, Q, w, k)

def _monolithic_bounds(scenario, params):
    """Genome bounds: labels, then the (Q, w) genes of `_gene_bounds`, then k."""
    n_v = scenario.n_uavs
    lower, upper = _gene_bounds(scenario, params)
    return (np.concatenate([np.full(n_v, 1.0), lower, np.full(n_v, float(params.k_min))]),
            np.concatenate([np.full(n_v, float(n_v)), upper, np.full(n_v, float(params.k_max))]))


def _decode_monolithic(genes: np.ndarray, params) -> list[Individual]:
    """One individual per row of the genome stack `genes`: the label and k
    genes are rounded half to even and clipped into their bounds, and Q and
    w taken as they are. Raw label r takes the r-th k gene, and `_canonical`
    renumbers the labels."""
    n_v = genes.shape[1] // 6  # labels, Q (3 per UAV), w, k
    raw = np.clip(np.rint(genes[:, :n_v]), 1, n_v).astype(np.intp)
    q = genes[:, n_v: 4 * n_v].reshape(len(genes), n_v, 3).copy()
    w = genes[:, 4 * n_v: 5 * n_v].copy()
    k_full = np.clip(np.rint(genes[:, 5 * n_v:]), params.k_min, params.k_max).astype(int)
    return [Individual(assignment, q_i, w_i, k) for (assignment, k), q_i, w_i in zip(_canonical(raw, k_full), q, w)]
