"""Multi-UAV data collection and semantic forwarding: models, optimizer, CLI.

The package optimizes a UAV fleet's deployment over three objectives at once:
total user uplink rate, total semantic forwarding rate to the base station,
and fleet relocation energy. The main solver alternates greedy cluster
merging, an advisor-guided NSGA-II over positions and weights, and an
exhaustive per-cluster symbol-count sweep.
"""

from .advisor import AdvisorInput, LlmEndpoint, ParamUpdate, advise
from .beamforming import cluster_snr
from .channel import avg_path_loss, sum_user_rate
from .energy import RotorModel, flight_energy_xyz, hover_power, total_flight_energy
from .metrics import hypervolume, knee_index, max_spread_metric, spacing_metric
from .problem import ClusterAssignment, Individual, ObjectiveTriple, evaluate
from .scenario import (
    Bounds,
    Scenario,
    SystemParams,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .semantic import SimilarityModel, default_similarity_model, semantic_similarity, semantic_terms
from .solver import RunResult, SolverConfig, final_front, run

__version__ = "0.1.0"

__all__ = [
    "AdvisorInput",
    "Bounds",
    "ClusterAssignment",
    "Individual",
    "LlmEndpoint",
    "ObjectiveTriple",
    "ParamUpdate",
    "RotorModel",
    "RunResult",
    "Scenario",
    "SimilarityModel",
    "SolverConfig",
    "SystemParams",
    "advise",
    "avg_path_loss",
    "cluster_snr",
    "default_similarity_model",
    "evaluate",
    "final_front",
    "flight_energy_xyz",
    "generate_scenario",
    "hover_power",
    "hypervolume",
    "knee_index",
    "load_scenario",
    "max_spread_metric",
    "run",
    "save_scenario",
    "semantic_similarity",
    "semantic_terms",
    "spacing_metric",
    "sum_user_rate",
    "total_flight_energy",
    "__version__",
]
