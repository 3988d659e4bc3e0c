"""World model: ground users, UAV fleet, base station, bounds, and system constants.

A scenario is plain arrays: `user_xyz` (U x 3), `uav_initial_xyz` (V x 3)
and `bs_xyz` (3,), plus the deployment `Bounds` and the seed. Construction
copies them to float arrays, checks their shapes and that every coordinate is
finite, and marks them read-only, so everything here is immutable after
construction. Scenarios are generated once, written to JSON, and replayed
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .energy import RotorModel
from .semantic import SimilarityModel, default_similarity_model

SPEED_OF_LIGHT = 299_792_458.0


class ScenarioError(ValueError):
    """Raised for scenarios or bounds that violate the world-model invariants."""


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

    def contains(self, xyz) -> bool:
        """Whether the length-3 point `xyz` lies in the region, faces included."""
        return bool(np.all(self.lower <= xyz) and np.all(xyz <= self.upper))


@dataclass(frozen=True, eq=False)
class Scenario:
    user_xyz: np.ndarray         # (U, 3) ground users
    uav_initial_xyz: np.ndarray  # (V, 3) UAV launch positions
    bs_xyz: np.ndarray           # (3,) base station
    bounds: Bounds
    seed: int

    def __post_init__(self):
        for name, ndim in (("user_xyz", 2), ("uav_initial_xyz", 2), ("bs_xyz", 1)):
            xyz = np.array(getattr(self, name), dtype=float)
            if xyz.ndim != ndim or xyz.shape[-1] != 3 or xyz.size == 0:
                expected = "(n >= 1, 3)" if ndim == 2 else "(3,)"
                raise ScenarioError(f"{name} has shape {xyz.shape}, expected {expected}")
            if not np.isfinite(xyz).all():
                raise ScenarioError(f"non-finite coordinate in {name}")
            xyz.setflags(write=False)
            object.__setattr__(self, name, xyz)

    @property
    def n_users(self) -> int:
        return len(self.user_xyz)

    @property
    def n_uavs(self) -> int:
        return len(self.uav_initial_xyz)


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
    bs_xyz,
    seed: int,
) -> Scenario:
    """Seeded scenario: users uniform on the ground plane, UAVs on the launch
    grid, the BS at the (x, y, z) sequence `bs_xyz`."""
    if n_users < 1 or n_uavs < 1:
        raise ScenarioError("need n_users >= 1 and n_uavs >= 1")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(bounds.x_min, bounds.x_max, n_users)
    ys = rng.uniform(bounds.y_min, bounds.y_max, n_users)
    users = np.column_stack([xs, ys, np.zeros(n_users)])
    return Scenario(users, launch_positions(n_uavs, bounds), bs_xyz, bounds, seed)


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


def deployment_violations(q: np.ndarray, bounds: Bounds, d_min: float) -> list[str]:
    """C1 (every UAV inside the bounds) and C2 (pairwise safety distance)
    violations of the UAV positions `q`, one human-readable line each."""
    problems = [
        f"C1: UAV {i} at {pos.tolist()} outside deployment region"
        for i, pos in enumerate(q)
        if not bounds.contains(pos)
    ]
    problems += [
        f"C2: UAVs {i} and {j} at distance {d:.3f} m < d_min {d_min} m"
        for i, j, d in close_pairs(q, d_min)
    ]
    return problems


def validate_scenario(scenario: Scenario, params: SystemParams) -> list[str]:
    """Launch positions against C1 and C2, and the BS outside the bounds (the
    cluster-to-BS link model is far-field, and keeps every cluster centroid
    off the BS).

    Returns a list of human-readable violations; empty means ok.
    """
    problems = []
    if scenario.bounds.contains(scenario.bs_xyz):
        problems.append(f"BS at {scenario.bs_xyz.tolist()} inside deployment region")
    return problems + deployment_violations(scenario.uav_initial_xyz, scenario.bounds, params.d_min)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    doc = {
        "users": scenario.user_xyz.tolist(),
        "uavs_initial": scenario.uav_initial_xyz.tolist(),
        "bs": scenario.bs_xyz.tolist(),
        "bounds": asdict(scenario.bounds),
        "seed": scenario.seed,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON document (see save_scenario for the schema)."""
    try:
        doc = json.loads(Path(path).read_text())
        bounds = Bounds(**doc["bounds"])
        scn = Scenario(doc["users"], doc["uavs_initial"], doc["bs"], bounds, int(doc["seed"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc
    xy = scn.user_xyz[:, :2]
    outside = np.flatnonzero(((xy < bounds.lower[:2]) | (xy > bounds.upper[:2])).any(axis=1))
    if len(outside):
        raise ScenarioError(f"user {outside[0]} outside area bounds")
    return scn
