"""World model: ground users, UAV fleet, base station, bounds, and system constants.

A scenario is plain arrays: `user_xyz` (U x 3), `uav_initial_xyz` (V x 3)
and `bs_xyz` (3,), plus the deployment `Bounds` and the seed. Construction
copies them to float arrays, checks their shapes and that every coordinate is
finite, and marks them read-only, so everything here is immutable after
construction; so are the users' rows and the scale that `nearest_uavs`
screens and measures with, built once with them. Scenarios are generated once, written to JSON, and
replayed exactly. `write_json` writes the scenario and every run artifact
as the text of `json.dumps(doc, indent=2)`: one `json.dumps` call per
file, and the row tables from their arrays.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, asdict
from functools import cached_property
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .energy import RotorModel
from .semantic import SimilarityModel, default_similarity_model

SPEED_OF_LIGHT = 299_792_458.0


class ScenarioError(ValueError):
    """Raised for scenarios or bounds that violate the world-model invariants."""


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned deployment region: finite real numbers, min < max per axis."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ScenarioError(f"bound {f.name} = {value!r} is not a finite real number")
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.z_min < self.z_max):
            raise ScenarioError(f"bounds not well-ordered: {self}")

    @property
    def lower(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min, self.z_min])

    @property
    def upper(self) -> np.ndarray:
        return np.array([self.x_max, self.y_max, self.z_max])


@dataclass(frozen=True, eq=False)
class Scenario:
    user_xyz: np.ndarray         # (U, 3) ground users
    uav_initial_xyz: np.ndarray  # (V, 3) UAV launch positions
    bs_xyz: np.ndarray           # (3,) base station
    bounds: Bounds
    seed: int
    user_rows: np.ndarray = field(init=False, repr=False)    # (3, U) users' [x; y; z]
    screen_rows: np.ndarray = field(init=False, repr=False)  # (4, U) users' [2x; 2y; 2z; -1]
    user_sq_norm_max: float = field(init=False, repr=False)  # max_u |u|²

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
        rows = np.ascontiguousarray(self.user_xyz.T)
        screen = np.vstack([2.0 * rows, np.full(self.n_users, -1.0)])
        for name, value in (("user_rows", rows), ("screen_rows", screen)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        sq_norms = np.einsum("uk,uk->u", self.user_xyz, self.user_xyz)
        object.__setattr__(self, "user_sq_norm_max", float(sq_norms.max()))

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
        if self.v_xy <= 0 or self.v_z <= 0:
            raise ScenarioError("v_xy and v_z must be > 0")
        if self.info_per_sentence <= 0 or self.words_per_sentence <= 0:
            raise ScenarioError("info_per_sentence and words_per_sentence must be > 0")
        ks = self.similarity.ks
        if not (ks[0] <= self.k_min and self.k_max <= ks[-1]):
            raise ScenarioError(f"similarity table spans k = {ks[0]}..{ks[-1]}, "
                                f"not [k_min, k_max] = [{self.k_min}, {self.k_max}]")

    # derived once per instance; the instance is frozen, so they cannot go stale
    @cached_property
    def frequency(self) -> float:
        """Carrier frequency in Hz, coherent with the wavelength."""
        return SPEED_OF_LIGHT / self.wavelength

    @cached_property
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


# Relative slack of the nearest-UAV screen, on the scale max_u |u|² +
# max_v |q_v|² of a fleet's scores: over 150 times the rounding that can
# separate the screen from the direct distances (see `nearest_uavs`).
_NEAREST_SLACK = 2.0 ** -40


def nearest_uavs(scenario: Scenario, uav_xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index, distance d and height difference |Δz| of each user's link to
    its nearest UAV in `uav_xyz`; ties go to the lowest index. `uav_xyz` is
    one fleet (V, 3), which gives (U,) results, or a stack of fleets
    (F, V, 3), which gives (F, U) results, each row that fleet's alone.

    Nearest means the first minimum of the direct distances, each summed as
    (dx² + dz²) + dy² and then square-rooted. That reproduces, bit for bit,
    a (U, V, 3) `einsum("uvk,uvk->uv")` and its first `argmin` (the oracle
    in tests/oracles.py); (dx² + dy²) + dz² does not.

    A screen finds the candidates first. User u rates UAV q_v by the score
    s_v(u) = [q_v, |q_v|²] · [2u; -1] = |u|² - |u - q_v|², all of them, of
    every fleet, in one (F·V, 4) @ (4, U) matmul on the scenario's
    `screen_rows`; the higher the score, the nearer the UAV. UAV v is a
    candidate for u when s_v(u) is at least u's top score in v's fleet less
    _NEAREST_SLACK · M, with one scale per fleet, M = max_u |u|² +
    max_v |q_v|². The margin argument, in units of u·M with u = 2⁻⁵³: each
    computed score is within 13 of its exact value (a 4-term dot product
    whose terms sum in magnitude to at most 2|q_v|² + |u|² ≤ 2M, plus the
    rounding of |q_v|² and of the floor), whatever order the BLAS kernel
    sums in; each direct d² is within 10 of its exact value, as d² ≤ 2M;
    and two d² more than 8 apart have different square roots. The slack is
    2¹³ = 8192, over 150 times the 2·13 + 2·10 + 8 = 54 these add up to, so
    a UAV outside it is strictly farther than the top-scored UAV after the
    square root and is never the oracle's choice: the nearest UAV is always
    a candidate (barring underflow, which needs every coordinate below
    about 1e-150 m). A user with one candidate is served by it. The users
    with more, exact ties such as duplicated UAVs and margins inside the
    slack, or with none (a non-finite score), go through the direct (V, U')
    distances to their own fleet, `_first_nearest`. A screen on d² alone
    would not do: two d² one ulp apart can share a d, and then the first of
    them wins, not the smaller.

    The winners' coordinates are gathered, and d and |Δz| are computed once
    per user in the direct order, so d is the oracle's, bit for bit.
    """
    rows = scenario.user_rows
    fleets = uav_xyz.shape[:-1]  # (V,) or (F, V)
    n = fleets[-1]
    uavs = uav_xyz.reshape(-1, 3)
    coefficients = np.empty((len(uavs), 4))
    coefficients[:, :3] = uavs
    sq_norms = np.einsum("vk,vk->v", uavs, uavs, out=coefficients[:, 3])
    scores = (coefficients @ scenario.screen_rows).reshape(*fleets, rows.shape[1])
    scale = scenario.user_sq_norm_max + sq_norms.reshape(fleets).max(axis=-1, keepdims=True)  # M per fleet
    floor = scores.max(axis=-2)
    floor -= _NEAREST_SLACK * scale
    candidate = scores >= floor[..., None, :]
    nearest = _first_true(candidate)
    undecided = candidate.sum(axis=-2, dtype=np.min_scalar_type(n)) != 1
    if undecided.any():
        undecided = np.flatnonzero(undecided)
        fleet, user = np.divmod(undecided, rows.shape[1])
        nearest.flat[undecided] = _first_nearest(rows[:, user], uav_xyz.reshape(-1, n, 3)[fleet])

    # each winner's row of `uavs`
    winner = nearest if uav_xyz.ndim == 2 else nearest + np.arange(0, len(uavs), n)[:, None]
    near = np.take(uavs.T, winner, axis=1)
    h = np.subtract(rows[2], near[2])
    d = _direct_squares(rows, near, h)
    return nearest, np.sqrt(d, out=d), np.abs(h, out=h)


def _first_nearest(user_rows: np.ndarray, fleets: np.ndarray) -> np.ndarray:
    """Index of each user's nearest UAV, the first minimum of the direct
    (V, U) distances after the square root, for users given as (3, U) rows,
    each against its own fleet of `fleets` (U, V, 3)."""
    d = _direct_squares(user_rows, fleets.T)
    np.sqrt(d, out=d)
    return _first_true(d == d.min(axis=0))


def _direct_squares(user_rows: np.ndarray, points: np.ndarray, dz: np.ndarray | None = None) -> np.ndarray:
    """|u - p|² of users given as (3, ...) rows, summed as (dx² + dz²) + dy²
    one coordinate at a time, to points given as (3, ...) coordinate rows
    that broadcast against them: (3, U) or (3, F, U), one point per user and
    fleet, (3, V, U), each user's own fleet, or, in `squared_distances`,
    every other point of a set. `dz`, when given, is the z difference
    already computed."""
    d = user_rows[0] - points[0]
    d *= d
    if dz is None:
        square = user_rows[2] - points[2]
        square *= square
    else:
        square = dz * dz
    d += square
    np.subtract(user_rows[1], points[1], out=square)
    square *= square
    d += square
    return d


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Row index, as `intp`, of the first True of each column of a (V, U)
    mask, or of each of a stack of them (F, V, U), that has one.

    Found without an argmax over V (for which numpy moves the V axis last
    and runs U short argmaxes): row v gets rank n - v where it is True and 0
    elsewhere, so the highest rank of a column is n minus its first True row.
    The ranks use the smallest unsigned dtype that holds n.
    """
    n = mask.shape[-2]
    rank = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))
    return n - (mask.view(np.uint8) * rank[:, None]).max(axis=-2).astype(np.intp)


def squared_distances(xyz: np.ndarray) -> np.ndarray:
    """|r_i - r_j|² for every pair of points of each stacked set, (..., n, 3)
    -> (..., n, n), in the order of `_direct_squares`, which reproduces, bit
    for bit, `einsum("ijk,ijk->ij")` over the pairwise differences of one
    set; no (..., n, n, 3) difference array is held."""
    rows = np.moveaxis(xyz, -1, 0)
    return _direct_squares(rows[..., :, None], rows[..., None, :])


# Relative slack on d_min^2 when screening pairs by vectorized squared
# distance, far above the few ulps by which it can differ from the norm.
_SCREEN_SLACK = 1e-9


def fleet_close_pairs(q: np.ndarray, d_min: float) -> list[tuple[int, int, int, float]]:
    """(fleet, i, j, d) for UAV pairs i < j closer than d_min, in (fleet, i,
    j) order, over a stack of fleets `q` (N, V, 3).

    The fleets' `squared_distances` screen the pairs; d itself is the scalar
    `np.linalg.norm`, so the values match a double loop over all pairs exactly.
    """
    near = np.triu(squared_distances(q) < d_min * d_min * (1.0 + _SCREEN_SLACK), k=1)
    out = []
    for f, i, j in zip(*(index.tolist() for index in np.nonzero(near))):
        d = float(np.linalg.norm(q[f, i] - q[f, j]))
        if d < d_min:
            out.append((f, i, j, d))
    return out


def fleet_violations(q: np.ndarray, bounds: Bounds, d_min: float) -> tuple[list[float], list[list[str]]]:
    """C1 (every UAV inside the bounds) and C2 (pairwise safety distance) over
    a stack of fleets `q` (N, V, 3).

    Returns each fleet's violation, the normalized bound excess (0.0 inside
    the bounds) plus (d_min - d) / d_min per close pair in (i, j) order, and
    its breaches, one human-readable line each: C1 per UAV outside the bounds
    (faces included; a NaN coordinate is outside), then C2 per close pair.
    """
    lower, upper = bounds.lower, bounds.upper
    span = upper - lower
    inside = ((lower <= q) & (q <= upper)).all(axis=2)
    amounts, lines = [0.0] * len(q), [[] for _ in range(len(q))]
    for f in np.flatnonzero(~inside.all(axis=1)).tolist():
        fleet = q[f]
        amounts[f] = float((np.maximum(lower - fleet, 0.0) / span).sum()
                           + (np.maximum(fleet - upper, 0.0) / span).sum())
        lines[f] = [f"C1: UAV {i} at {fleet[i].tolist()} outside deployment region"
                    for i in np.flatnonzero(~inside[f]).tolist()]
    for f, i, j, d in fleet_close_pairs(q, d_min):
        amounts[f] += (d_min - d) / d_min
        lines[f].append(f"C2: UAVs {i} and {j} at distance {d:.3f} m < d_min {d_min} m")
    return amounts, lines


def validate_scenario(scenario: Scenario, params: SystemParams) -> list[str]:
    """Launch positions against C1 and C2, and the BS outside the bounds (the
    cluster-to-BS link model is far-field, and keeps every cluster centroid
    off the BS).

    Returns a list of human-readable violations; empty means ok.
    """
    bounds, bs = scenario.bounds, scenario.bs_xyz
    problems = []
    if np.all(bounds.lower <= bs) and np.all(bs <= bounds.upper):
        problems.append(f"BS at {bs.tolist()} inside deployment region")
    return problems + fleet_violations(scenario.uav_initial_xyz[None], bounds, params.d_min)[1][0]


@dataclass(frozen=True)
class JsonRows:
    """A JSON list whose items share one shape, written from rows of values
    in place of one document per item; only a top-level value of
    `write_json` may be one. `item` is that shape, with "%r" at each finite
    float leaf and "%d" at each int leaf, and no "%r" or "%d" key; `rows`,
    read once, yields each item's leaf values as a tuple of Python floats
    and ints, in the order of `item`'s leaves."""

    item: dict | list
    rows: Iterable[tuple]


# Items of a `JsonRows` per write: about 33 KB of deployment users.
_ROWS_PER_BLOCK = 256


def write_json(doc: dict, path: str | Path) -> None:
    """Write `json.dumps(doc, indent=2)` and a newline to `path`, from one
    `json.dumps` of the dict `doc` in which each top-level `JsonRows` stands
    as "[]". Each row table is written in its place, _ROWS_PER_BLOCK items
    at a time, each formatted through the template that `json.dumps`
    renders from `item` at the items' indent. A top-level member is found
    by its line, a newline, two spaces and its key: json escapes every
    newline inside a string, and deeper members are indented further. The
    top-level keys must be str."""
    if not all(isinstance(key, str) for key in doc):
        raise TypeError("top-level keys must be str")
    rest = json.dumps({key: [] if isinstance(value, JsonRows) else value for key, value in doc.items()}, indent=2)
    with open(path, "w", encoding="ascii") as f:
        for key, value in doc.items():
            if not isinstance(value, JsonRows):
                continue
            member = "\n  " + json.dumps(key) + ": "
            head, rest = rest.split(member + "[]", 1)
            f.write(head + member)
            template = ("\n    " + json.dumps(value.item, indent=2).replace("\n", "\n    ")).replace("%", "%%")
            template = template.replace('"%%r"', "%r").replace('"%%d"', "%d")
            opening = "["
            rows = iter(value.rows)
            while block := list(islice(rows, _ROWS_PER_BLOCK)):
                f.write(opening + ",".join([template % row for row in block]))
                opening = ","
            f.write("[]" if opening == "[" else "\n  ]")
        f.write(rest + "\n")


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    doc = {
        "users": JsonRows(["%r", "%r", "%r"], zip(*scenario.user_rows.tolist())),
        "uavs_initial": scenario.uav_initial_xyz.tolist(),
        "bs": scenario.bs_xyz.tolist(),
        "bounds": asdict(scenario.bounds),
        "seed": scenario.seed,
    }
    write_json(doc, path)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON document (see save_scenario for the schema)."""
    try:
        doc = json.loads(Path(path).read_text())
        bounds = Bounds(**doc["bounds"])
        if type(doc["seed"]) is not int:
            raise ValueError(f"seed {doc['seed']!r} is not an integer")
        for name, rows in (("users", doc["users"]), ("uavs_initial", doc["uavs_initial"]),
                           ("bs", [doc["bs"]])):
            if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
                raise ValueError(f"{name} holds a value that is not a number")
        scn = Scenario(doc["users"], doc["uavs_initial"], doc["bs"], bounds, doc["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc
    xy = scn.user_xyz[:, :2]
    outside = np.flatnonzero(((xy < bounds.lower[:2]) | (xy > bounds.upper[:2])).any(axis=1))
    if len(outside):
        raise ScenarioError(f"user {outside[0]} outside area bounds")
    return scn
