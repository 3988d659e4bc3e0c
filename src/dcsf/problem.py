"""Solution encoding, objective evaluation, constraints, and dominance.

An individual is {cluster assignment c, UAV positions Q, excitation weights w,
per-cluster symbol counts k}. Cluster labels are kept canonical (consecutive
1..N_cluster), which makes the structural constraints (non-empty clusters,
exactly one cluster per UAV, sizes summing to the fleet) hold by construction.

Each evaluated individual caches only what does not depend on k: one SNR
per cluster, and its fleet terms, f1, f3 and the C1 + C2 violation, which
depend on Q alone. `evaluate` sets them for a batch of individuals at
once, in array passes, lending each one what its parent, when given, holds
unchanged; it ends in `cluster_semantic_terms`, the one function that
derives what depends on k, f2 and the C6 violation, and sets the
objectives. `dominance_matrix` compares feasible members only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import beamforming, channel, energy, semantic
from .scenario import fleet_violations


class EncodingError(ValueError):
    """Raised for individuals whose structure violates the encoding invariants."""


@dataclass(frozen=True)
class ObjectiveTriple:
    f1: float  # bps, maximized
    f2: float  # suts/s, maximized
    f3: float  # joules, minimized

    def __post_init__(self):
        if not all(map(math.isfinite, (self.f1, self.f2, self.f3))):
            raise ValueError(f"non-finite objectives {self}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.f1, self.f2, self.f3)


@dataclass(frozen=True)
class ClusterAssignment:
    """Canonical per-UAV cluster labels: consecutive integers starting at 1."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if not self.labels:
            raise EncodingError("empty assignment")
        if set(self.labels) != set(range(1, self.n_clusters + 1)):
            raise EncodingError(f"labels {self.labels} are not canonical 1..{self.n_clusters}")

    @property
    def n_clusters(self) -> int:
        return max(self.labels)


@dataclass
class Individual:
    """One candidate solution with cached fitness."""

    assignment: ClusterAssignment
    q: np.ndarray  # (N_V, 3) UAV positions
    w: np.ndarray  # (N_V,) excitation weights
    k: np.ndarray  # (N_cluster,) integer symbols/word per cluster
    objectives: ObjectiveTriple | None = None
    violation: float = 0.0
    cluster_snr: np.ndarray | None = field(default=None, repr=False)  # per cluster; k-independent
    # (f1, f3, C1 + C2 violation); k-independent
    fleet_terms: tuple[float, float, float] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.k = np.asarray(self.k, dtype=int)
        if len(self.k) != self.assignment.n_clusters:
            raise EncodingError(
                f"k length {len(self.k)} != cluster count {self.assignment.n_clusters}"
            )
        if self.q.shape != (len(self.assignment.labels), 3):
            raise EncodingError(f"Q shape {self.q.shape} mismatched to fleet size")
        if self.w.shape != (len(self.assignment.labels),):
            raise EncodingError(f"w shape {self.w.shape} mismatched to fleet size")

    def copy(self) -> "Individual":
        arrays = ("q", "w", "k", "cluster_snr")
        return replace(self, **{name: None if getattr(self, name) is None else getattr(self, name).copy()
                                for name in arrays})

    def to_dict(self) -> dict:
        return {
            "c": list(self.assignment.labels),
            "Q": self.q.tolist(),
            "w": self.w.tolist(),
            "k": self.k.tolist(),
            "objectives": list(self.objectives.as_tuple()) if self.objectives else None,
            "violation": self.violation,
        }

    @staticmethod
    def from_dict(doc: dict) -> "Individual":
        if not all(type(v) is int for v in [*doc["c"], *doc["k"]]):
            raise EncodingError(f"c {doc['c']} and k {doc['k']} must hold integers only")
        objectives = doc.get("objectives")
        numbers = [*(v for row in doc["Q"] for v in row), *doc["w"], doc.get("violation", 0.0),
                   *(objectives or ())]
        # |v| <= the largest double: false for NaN and infinities, exact for any int
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in numbers):
            raise EncodingError("Q, w, violation and objectives must hold finite numbers only")
        return Individual(ClusterAssignment(tuple(doc["c"])), doc["Q"], doc["w"], doc["k"],
                          None if objectives is None else ObjectiveTriple(*objectives),
                          float(doc.get("violation", 0.0)))


def evaluate(individuals, scenario, params, parents=None):
    """Set each individual's `cluster_snr` (one per cluster) and
    `fleet_terms`, f1, f3 and the C1 + C2 violation, which k does not
    change, and then, in `cluster_semantic_terms`, its objectives and
    violation at its k; returns the objectives. One individual, with its
    parent or None, is a batch of one that returns its `ObjectiveTriple`.

    From the evaluated `parents[i]` (or None; with no `parents`, every term
    is computed), an individual takes the SNR of each cluster whose member
    set, Q rows and w equal, byte for byte, those of a cluster of the
    parent, and the fleet terms when all its Q rows are byte-equal to the
    parent's; so a clone of its parent is lent every term that k does not
    change. One byte compare of the batch's stacked Q and w with its
    lenders' marks each UAV unchanged or not; a cluster is lent when none
    of its members changed, all of them carry one parent label L, and the
    parent's cluster L has as many members (one bincount and a min and max
    per cluster). Its SNR is gathered from the lenders' concatenated SNRs.
    The rest is computed over the whole batch at once: one
    `channel.sum_user_rate`, one `energy.total_flight_energy` and one
    `scenario.fleet_violations` call on the moved fleets (the first even
    when none moved), one `beamforming.cluster_snr` call on the clusters
    left unrated, and one `cluster_semantic_terms` call on the batch. An
    empty batch sets nothing.
    """
    single = isinstance(individuals, Individual)
    if single:
        individuals, parents = [individuals], [parents]
    if not individuals:
        return []
    parents = parents or [None] * len(individuals)
    q, w = np.stack([ind.q for ind in individuals]), np.stack([ind.w for ind in individuals])
    counts = np.array([ind.assignment.n_clusters for ind in individuals])
    starts = np.cumsum(counts) - counts
    # each UAV's cluster, numbered over the batch
    cluster = np.array([ind.assignment.labels for ind in individuals]) - 1 + starts[:, None]
    snr = np.zeros(int(counts.sum()))
    lent = np.zeros(len(snr), dtype=bool)
    moved = np.ones(len(individuals), dtype=bool)
    rows = [f for f, parent in enumerate(parents) if parent is not None]
    if rows:
        lenders = [parents[f] for f in rows]
        q_same = (q[rows].view(np.int64) == np.stack([parent.q for parent in lenders]).view(np.int64)).all(axis=2)
        same = q_same & (w[rows].view(np.int64) == np.stack([parent.w for parent in lenders]).view(np.int64))
        moved[rows] = ~q_same.all(axis=1)
        lender_counts = np.array([parent.assignment.n_clusters for parent in lenders])
        # each UAV's cluster in its lender, numbered over the lenders
        source = (np.array([parent.assignment.labels for parent in lenders]) - 1
                  + (np.cumsum(lender_counts) - lender_counts)[:, None]).ravel()
        member = cluster[rows].ravel()
        lo, hi = np.full(len(snr), len(source)), np.full(len(snr), -1)
        np.minimum.at(lo, member, source)
        np.maximum.at(hi, member, source)
        # one lender cluster (a cluster with no lender keeps lo > hi), no changed member, and one size
        lent = (lo == hi) & (np.bincount(member[~same.ravel()], minlength=len(snr)) == 0)
        lent[lent] = np.bincount(source)[lo[lent]] == np.bincount(cluster.ravel())[lent]
        snr[lent] = np.concatenate([parent.cluster_snr for parent in lenders])[lo[lent]]
        for f, parent in zip(rows, lenders):
            if not moved[f]:
                individuals[f].fleet_terms = parent.fleet_terms

    moved = np.flatnonzero(moved)
    fleets = q[moved]
    f1 = channel.sum_user_rate(scenario, fleets, params).tolist()
    if len(moved):
        f3 = energy.total_flight_energy(scenario, fleets, params).tolist()
        violations, _ = fleet_violations(fleets, scenario.bounds, params.d_min)
        for f, terms in zip(moved.tolist(), zip(f1, f3, violations)):
            individuals[f].fleet_terms = terms

    stale = np.flatnonzero(~lent)
    if len(stale):
        owner = np.repeat(np.arange(len(individuals)), counts)[stale]
        snr[stale] = beamforming.cluster_snr(owner, cluster[owner] == stale[:, None], q, w, scenario.bs_xyz, params)
    for ind, start, n in zip(individuals, starts.tolist(), counts.tolist()):
        ind.cluster_snr = snr[start: start + n]
    objectives = cluster_semantic_terms(individuals, params)
    return objectives[0] if single else objectives


def cluster_semantic_terms(individuals, params) -> list[ObjectiveTriple]:
    """Set and return the objectives and violations of a batch of
    individuals whose `cluster_snr` and fleet terms are set: f2 sums each
    cluster's semantic rate at its k, and the C6 violation adds each
    cluster's similarity shortfall to the fleet's C1 + C2, both from one
    `semantic.semantic_terms` call over the stored SNRs and k of all the
    batch's clusters. Zero-SNR clusters contribute nothing.

    For each cluster count n, f2 and the C6 sum of the individuals with n
    clusters are the row sums of one (individuals, n) array; a row sums bit
    for bit like the 1-D vector, so each equals the individual's own sum.
    """
    if not individuals:
        return []
    counts = [len(ind.k) for ind in individuals]
    starts = np.cumsum(counts) - counts
    rates, xis = semantic.semantic_terms(np.concatenate([ind.cluster_snr for ind in individuals]),
                                         np.concatenate([ind.k for ind in individuals]), params)
    shortfall = np.maximum(params.xi_threshold - xis, 0.0)
    by_count: dict[int, list[int]] = {}
    for f, n in enumerate(counts):
        by_count.setdefault(n, []).append(f)
    f2, c6 = np.empty(len(individuals)), np.empty(len(individuals))
    for n, rows in by_count.items():
        cells = starts[rows][:, None] + np.arange(n)
        f2[rows], c6[rows] = rates[cells].sum(axis=1), shortfall[cells].sum(axis=1)
    for ind, rate, shortfall_sum in zip(individuals, f2.tolist(), c6.tolist()):
        f1, f3, violation = ind.fleet_terms
        ind.objectives, ind.violation = ObjectiveTriple(f1, rate, f3), violation + shortfall_sum
    return [ind.objectives for ind in individuals]


def violations_report(individual: Individual, scenario, params) -> list[str]:
    """The individual's breaches, one human-readable line each: C1 and C2 as
    `scenario.fleet_violations` words them, then C6 per cluster."""
    if individual.cluster_snr is None:
        evaluate(individual, scenario, params)
    report = fleet_violations(individual.q[None], scenario.bounds, params.d_min)[1][0]
    _, xis = semantic.semantic_terms(individual.cluster_snr, individual.k, params)
    for c, xi in enumerate(xis.tolist()):
        if xi < params.xi_threshold:
            report.append(f"C6: cluster {c + 1} similarity {xi:.4f} < {params.xi_threshold}")
    return report


def dominance_matrix(pool) -> np.ndarray:
    """D[i, j]: pool[i] Pareto-dominates pool[j] on (f1, f2, -f3). The pool
    holds feasible members only, among which constrained dominance is Pareto
    dominance; `solver.nondominated_sort` orders the infeasible ones by
    violation itself."""
    f1, f2, f3 = np.array([ind.objectives.as_tuple() for ind in pool]).reshape(-1, 3).T
    no_worse = (f1[:, None] >= f1) & (f2[:, None] >= f2) & (f3[:, None] <= f3)
    better = (f1[:, None] > f1) | (f2[:, None] > f2) | (f3[:, None] < f3)
    return no_worse & better
