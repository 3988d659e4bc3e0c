"""World model: ground users, UAV fleet, base station, bounds, and system constants.

Everything here is immutable after construction and cheap to serialize, so
scenarios can be generated once, written to JSON, and replayed exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .energy import RotorModel
from .semantic import SimilarityModel, default_similarity_model

SPEED_OF_LIGHT = 299_792_458.0


class ScenarioError(ValueError):
    """Raised for scenarios or bounds that violate the world-model invariants."""


@dataclass(frozen=True)
class Position3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ScenarioError(f"non-finite coordinate in {self!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_sequence(seq) -> "Position3":
        x, y, z = (float(v) for v in seq)
        return Position3(x, y, z)


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned deployment region, min < max per axis."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.z_min < self.z_max):
            raise ScenarioError(f"bounds not well-ordered: {self}")

    @property
    def lower(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min, self.z_min])

    @property
    def upper(self) -> np.ndarray:
        return np.array([self.x_max, self.y_max, self.z_max])

    def contains(self, pos: Position3) -> bool:
        return bool(
            self.x_min <= pos.x <= self.x_max
            and self.y_min <= pos.y <= self.y_max
            and self.z_min <= pos.z <= self.z_max
        )


@dataclass(frozen=True)
class GroundUser:
    id: int
    pos: Position3


@dataclass(frozen=True)
class Uav:
    id: int
    initial_pos: Position3


@dataclass(frozen=True)
class Scenario:
    users: tuple[GroundUser, ...]
    uavs: tuple[Uav, ...]
    bs_pos: Position3
    bounds: Bounds
    seed: int

    def __post_init__(self):
        if len(self.users) < 1 or len(self.uavs) < 1:
            raise ScenarioError("need at least one user and one UAV")
        # Precomputed coordinate arrays shared by the fast evaluation paths.
        object.__setattr__(
            self, "user_xyz", np.array([u.pos.as_array() for u in self.users])
        )
        object.__setattr__(
            self, "uav_initial_xyz", np.array([v.initial_pos.as_array() for v in self.uavs])
        )
        object.__setattr__(self, "bs_xyz", self.bs_pos.as_array())

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_uavs(self) -> int:
        return len(self.uavs)


@dataclass(frozen=True)
class SystemParams:
    """All physical and protocol constants, with production-scale defaults."""

    bandwidth: float = 2e6          # Hz
    noise_density_dbm: float = -174.0  # dBm/Hz
    wavelength: float = 0.125       # m; carrier frequency is derived from this
    psi: float = 9.61               # LoS model constant
    beta: float = 0.16              # LoS model constant
    mu_los: float = 1.6             # dB excess loss, LoS
    mu_nlos: float = 20.0           # dB excess loss, NLoS
    eta: float = 1.0                # array efficiency in (0, 1]
    d_min: float = 5.0              # m inter-UAV safety distance
    k_min: int = 1
    k_max: int = 20
    xi_threshold: float = 0.6       # minimum acceptable semantic similarity
    info_per_sentence: float = 40.0  # suts/sentence
    words_per_sentence: float = 20.0
    w_min: float = 0.0
    w_max: float = 1.0
    v_xy: float = 10.0              # m/s horizontal cruise speed
    v_z: float = 2.0                # m/s climb speed
    user_tx_power: float = 0.1      # W, every ground user
    uav_tx_power: float = 0.1       # W, every UAV
    rotor: RotorModel = field(default_factory=RotorModel)
    similarity: SimilarityModel = field(default_factory=default_similarity_model)

    def __post_init__(self):
        if self.bandwidth <= 0 or self.wavelength <= 0:
            raise ScenarioError("bandwidth and wavelength must be > 0")
        if not (1 <= self.k_min <= self.k_max):
            raise ScenarioError("need 1 <= k_min <= k_max")
        if not (0 <= self.w_min < self.w_max):
            raise ScenarioError("need 0 <= w_min < w_max")
        if not (0 <= self.xi_threshold <= 1):
            raise ScenarioError("xi_threshold must be in [0, 1]")
        if not (0 < self.eta <= 1):
            raise ScenarioError("eta must be in (0, 1]")
        if self.user_tx_power <= 0 or self.uav_tx_power <= 0:
            raise ScenarioError("user_tx_power and uav_tx_power must be > 0")

    @property
    def frequency(self) -> float:
        """Carrier frequency in Hz, coherent with the wavelength."""
        return SPEED_OF_LIGHT / self.wavelength

    @property
    def noise_watts(self) -> float:
        """Total noise power B * N0 in watts."""
        return self.bandwidth * 10 ** ((self.noise_density_dbm - 30.0) / 10.0)


def launch_positions(n_uavs: int, bounds: Bounds) -> np.ndarray:
    """Deterministic launch grid: altitude z_min along the western edge,
    evenly spaced in y with equal margins."""
    ys = np.linspace(bounds.y_min, bounds.y_max, n_uavs + 2)[1:-1]
    out = np.empty((n_uavs, 3))
    out[:, 0] = bounds.x_min
    out[:, 1] = ys
    out[:, 2] = bounds.z_min
    return out


def generate_scenario(
    n_users: int,
    n_uavs: int,
    bounds: Bounds,
    bs_pos: Position3,
    seed: int,
) -> Scenario:
    """Seeded scenario: users uniform on the ground plane, UAVs on the launch grid."""
    if n_users < 1 or n_uavs < 1:
        raise ScenarioError("need n_users >= 1 and n_uavs >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(bounds.x_min, bounds.x_max, n_users)
    ys = rng.uniform(bounds.y_min, bounds.y_max, n_users)
    users = tuple(
        GroundUser(i, Position3(float(xs[i]), float(ys[i]), 0.0)) for i in range(n_users)
    )
    launch = launch_positions(n_uavs, bounds)
    uavs = tuple(Uav(i, Position3.from_sequence(launch[i])) for i in range(n_uavs))
    return Scenario(users, uavs, bs_pos, bounds, seed)


def associate_users(scenario: Scenario, uav_positions: np.ndarray) -> list[list[int]]:
    """Nearest-UAV association; ties broken by lowest UAV id.

    Returns one user-index list per UAV; the lists partition all users.
    """
    uav_positions = np.asarray(uav_positions, dtype=float)
    diffs = scenario.user_xyz[:, None, :] - uav_positions[None, :, :]
    d2 = np.einsum("uvk,uvk->uv", diffs, diffs)
    nearest = np.argmin(d2, axis=1)  # argmin returns the first (lowest) index on ties
    cohorts: list[list[int]] = [[] for _ in range(len(uav_positions))]
    for u, v in enumerate(nearest):
        cohorts[v].append(u)
    return cohorts


# Relative slack on d_min^2 when screening pairs by vectorized squared
# distance, far above the few ulps by which it can differ from the norm.
_SCREEN_SLACK = 1e-9


def close_pairs(q: np.ndarray, d_min: float) -> list[tuple[int, int, float]]:
    """(i, j, d) for UAV pairs i < j closer than d_min, in (i, j) order.

    A vectorized squared distance screens the pairs; d itself is the scalar
    `np.linalg.norm`, so the values match a double loop over all pairs exactly.
    """
    diff = q[:, None, :] - q[None, :, :]
    near = np.triu((diff**2).sum(axis=2) < d_min * d_min * (1.0 + _SCREEN_SLACK), k=1)
    out = []
    for i, j in zip(*np.nonzero(near)):
        d = float(np.linalg.norm(q[i] - q[j]))
        if d < d_min:
            out.append((int(i), int(j), d))
    return out


def validate_scenario(scenario: Scenario, params: SystemParams) -> list[str]:
    """Deployment-constraint check: every UAV inside bounds, pairwise safety
    distance, and the BS outside the bounds (the cluster-to-BS link model is
    far-field, and keeps every cluster centroid off the BS).

    Returns a list of human-readable violations; empty means ok.
    """
    problems = []
    if scenario.bounds.contains(scenario.bs_pos):
        problems.append(f"BS at {scenario.bs_pos} inside deployment region")
    for v in scenario.uavs:
        if not scenario.bounds.contains(v.initial_pos):
            problems.append(f"C1: UAV {v.id} at {v.initial_pos} outside deployment region")
    for i, j, d in close_pairs(scenario.uav_initial_xyz, params.d_min):
        problems.append(
            f"C2: UAVs {scenario.uavs[i].id} and {scenario.uavs[j].id} "
            f"at distance {d:.3f} m < d_min {params.d_min} m"
        )
    return problems


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "users": [[u.pos.x, u.pos.y, u.pos.z] for u in scenario.users],
        "uavs_initial": [[v.initial_pos.x, v.initial_pos.y, v.initial_pos.z] for v in scenario.uavs],
        "bs": [scenario.bs_pos.x, scenario.bs_pos.y, scenario.bs_pos.z],
        "bounds": asdict(scenario.bounds),
        "seed": scenario.seed,
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON document (see scenario_to_dict for the schema)."""
    doc = json.loads(Path(path).read_text())
    try:
        bounds = Bounds(**doc["bounds"])
        users = tuple(GroundUser(i, Position3.from_sequence(p)) for i, p in enumerate(doc["users"]))
        uavs = tuple(Uav(i, Position3.from_sequence(p)) for i, p in enumerate(doc["uavs_initial"]))
        bs = Position3.from_sequence(doc["bs"])
        seed = int(doc["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc
    for u in users:
        if not (bounds.x_min <= u.pos.x <= bounds.x_max and bounds.y_min <= u.pos.y <= bounds.y_max):
            raise ScenarioError(f"user {u.id} outside area bounds")
    return Scenario(users, uavs, bs, bounds, seed)
