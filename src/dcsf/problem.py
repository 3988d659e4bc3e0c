"""Solution encoding, objective evaluation, constraints, and dominance.

An individual is {cluster assignment c, UAV positions Q, excitation weights w,
per-cluster symbol counts k}. Cluster labels are kept canonical (consecutive
1..N_cluster), which makes the structural constraints (non-empty clusters,
exactly one cluster per UAV, sizes summing to the fleet) hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import beamforming, channel, energy, semantic
from .scenario import close_pairs, deployment_violations


class EncodingError(ValueError):
    """Raised for individuals whose structure violates the encoding invariants."""


@dataclass(frozen=True)
class ObjectiveTriple:
    f1: float  # bps, maximized
    f2: float  # suts/s, maximized
    f3: float  # joules, minimized

    def __post_init__(self):
        if not all(np.isfinite([self.f1, self.f2, self.f3])):
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
        present = set(self.labels)
        n_cluster = max(self.labels)
        if present != set(range(1, n_cluster + 1)):
            raise EncodingError(f"labels {self.labels} are not canonical 1..{n_cluster}")

    @property
    def n_clusters(self) -> int:
        return max(self.labels)

    def clusters(self) -> list[list[int]]:
        """UAV indices per cluster, in cluster-label order."""
        out: list[list[int]] = [[] for _ in range(self.n_clusters)]
        for uav, label in enumerate(self.labels):
            out[label - 1].append(uav)
        return out


def canonicalize_labels(raw_labels, k_values) -> tuple[ClusterAssignment, np.ndarray]:
    """Relabel arbitrary positive cluster ids to first-appearance order 1..N.

    k entries follow their clusters; labels absent from `raw_labels` drop out.
    Idempotent: canonical input maps to itself.
    """
    raw = [int(v) for v in raw_labels]
    k_values = np.asarray(k_values)
    mapping: dict[int, int] = {}
    for label in raw:
        if label not in mapping:
            mapping[label] = len(mapping) + 1
    new_labels = tuple(mapping[v] for v in raw)
    old_sorted = sorted(mapping, key=mapping.get)
    if len(k_values) == max(raw):
        new_k = np.array([k_values[old - 1] for old in old_sorted])
    else:
        raise EncodingError(
            f"k has {len(k_values)} entries but assignment has max label {max(raw)}"
        )
    return ClusterAssignment(new_labels), new_k


@dataclass
class Individual:
    """One candidate solution with cached fitness."""

    assignment: ClusterAssignment
    q: np.ndarray  # (N_V, 3) UAV positions
    w: np.ndarray  # (N_V,) excitation weights
    k: np.ndarray  # (N_cluster,) integer symbols/word per cluster
    objectives: ObjectiveTriple | None = None
    violation: float = 0.0
    cluster_xi: np.ndarray | None = field(default=None, repr=False)

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
        return Individual(
            self.assignment,
            self.q.copy(),
            self.w.copy(),
            self.k.copy(),
            self.objectives,
            self.violation,
            None if self.cluster_xi is None else self.cluster_xi.copy(),
        )

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
        ind = Individual(
            ClusterAssignment(tuple(int(v) for v in doc["c"])),
            np.asarray(doc["Q"], dtype=float),
            np.asarray(doc["w"], dtype=float),
            np.asarray(doc["k"], dtype=int),
        )
        if doc.get("objectives") is not None:
            ind.objectives = ObjectiveTriple(*doc["objectives"])
        ind.violation = float(doc.get("violation", 0.0))
        return ind


def cluster_terms(members, k: int, q: np.ndarray, w: np.ndarray, scenario, params) -> tuple[float, float]:
    """(semantic rate, similarity) of the cluster `members` at k symbols/word.

    `members` are UAV indices in ascending order. A zero-SNR cluster gives (0, 0).
    """
    snr = beamforming.cluster_snr(members, q, w, scenario.bs_xyz, params)
    return semantic.semantic_terms(snr, k, params)


def cluster_semantic_terms(individual: Individual, scenario, params) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster (semantic rate, similarity). Zero-SNR clusters contribute nothing."""
    clusters = individual.assignment.clusters()
    rates = np.zeros(len(clusters))
    xis = np.zeros(len(clusters))
    for i, members in enumerate(clusters):
        rates[i], xis[i] = cluster_terms(members, int(individual.k[i]), individual.q, individual.w,
                                         scenario, params)
    return rates, xis


def evaluate(individual: Individual, scenario, params) -> ObjectiveTriple:
    """Compute and cache (f1, f2, f3) plus the constraint-violation scalar."""
    f1 = channel.sum_user_rate(scenario, individual.q, params)
    rates, xis = cluster_semantic_terms(individual, scenario, params)
    f2 = float(rates.sum())
    f3 = energy.total_flight_energy(scenario, individual.q, params)
    individual.objectives = ObjectiveTriple(f1, f2, f3)
    individual.cluster_xi = xis
    individual.violation = _violation_scalar(individual, scenario, params, xis)
    return individual.objectives


def _violation_scalar(individual: Individual, scenario, params, xis: np.ndarray) -> float:
    total = 0.0
    lower, upper = scenario.bounds.lower, scenario.bounds.upper
    span = upper - lower
    below = np.maximum(lower - individual.q, 0.0) / span
    above = np.maximum(individual.q - upper, 0.0) / span
    total += float(below.sum() + above.sum())
    for _, _, d in close_pairs(individual.q, params.d_min):
        total += (params.d_min - d) / params.d_min
    total += float(np.maximum(params.xi_threshold - xis, 0.0).sum())
    return total


def violations_report(individual: Individual, scenario, params) -> tuple[float, list[str]]:
    """Violation scalar plus a per-constraint listing (C1, C2, C6)."""
    if individual.cluster_xi is None:
        evaluate(individual, scenario, params)
    report = deployment_violations(individual.q, scenario.bounds, params.d_min)
    for c, xi in enumerate(individual.cluster_xi):
        if xi < params.xi_threshold:
            report.append(f"C6: cluster {c + 1} similarity {xi:.4f} < {params.xi_threshold}")
    return individual.violation, report


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
