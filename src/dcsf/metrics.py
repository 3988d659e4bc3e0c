"""Front-quality metrics: spacing, maximum spread, hypervolume, knee selection.

All metrics normalize each objective dimension by the front's own min/max,
except `normalized_hypervolume`, which takes the ranges explicitly; degenerate
dimensions contribute zero. Objectives are (f1 max, f2 max, f3 min)
throughout.
"""

from __future__ import annotations

import math

import numpy as np


def _scale(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each column mapped from [lo, hi] to [0, 1]; a degenerate column maps to 0."""
    span = hi - lo
    out = np.zeros_like(points, dtype=float)
    ok = span > 0
    out[:, ok] = (points[:, ok] - lo[ok]) / span[ok]
    return out


def _normalize(front: np.ndarray) -> np.ndarray:
    return _scale(front, front.min(axis=0), front.max(axis=0))


def _minimization(front: np.ndarray) -> np.ndarray:
    """(f1, f2, f3) rows as the minimization objectives (-f1, -f2, f3)."""
    return np.column_stack([-front[:, 0], -front[:, 1], front[:, 2]])


def objective_ranges(front_objectives) -> tuple[tuple[float, float], ...]:
    """(min, max) of each objective over the rows of `front_objectives`."""
    front = np.atleast_2d(np.asarray(front_objectives, dtype=float))
    return tuple((float(front[:, i].min()), float(front[:, i].max())) for i in range(front.shape[1]))


def spacing_metric(front_objectives) -> float:
    """SP: stddev of nearest-neighbor city-block distances on the normalized front.

    Zero means perfectly even spacing; fronts of fewer than 2 points return 0.
    """
    front = np.atleast_2d(np.asarray(front_objectives, dtype=float))
    n = len(front)
    if n < 2:
        return 0.0
    norm = _normalize(front)
    dists = np.abs(norm[:, None, :] - norm[None, :, :]).sum(axis=2)
    np.fill_diagonal(dists, np.inf)
    d = dists.min(axis=1)
    mean = d.mean()
    return float(math.sqrt(np.sum((mean - d) ** 2) / (n - 1)))


def max_spread_metric(front_objectives) -> float:
    """M3*: diagonal extent of the normalized front's bounding box."""
    front = np.atleast_2d(np.asarray(front_objectives, dtype=float))
    if len(front) < 2:
        return 0.0
    norm = _normalize(front)
    extents = norm.max(axis=0) - norm.min(axis=0)
    return float(math.sqrt(np.sum(extents**2)))


def _staircase_area(points_2d: np.ndarray, ref_x: float, ref_y: float) -> float:
    """Area dominated (toward smaller values) by 2D minimization points, up to ref."""
    pts = points_2d[(points_2d[:, 0] < ref_x) & (points_2d[:, 1] < ref_y)]
    if len(pts) == 0:
        return 0.0
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    area = 0.0
    prev_y = ref_y
    for x, y in pts:
        if y < prev_y:
            area += (ref_x - x) * (prev_y - y)
            prev_y = y
    return area


def normalized_hypervolume(front_objectives, ranges) -> float:
    """Dominated hypervolume of a 3-objective (max, max, min) front on the
    scale of `ranges`, one (min, max) per objective as `objective_ranges`
    gives them.

    Objectives are turned into minimization and mapped to [0, 1] by the
    ranges (a degenerate range maps to 0); the reference point is 1.1 in
    every dimension. Fronts measured on one set of ranges are comparable.
    """
    front = np.atleast_2d(np.asarray(front_objectives, dtype=float))
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = ranges
    lo, hi = np.array([-hi1, -hi2, lo3]), np.array([-lo1, -lo2, hi3])
    return hypervolume_min(_scale(_minimization(front), lo, hi), np.full(3, 1.1))


def hypervolume(front_objectives) -> float:
    """`normalized_hypervolume` of a front on its own ranges; 0 for no front."""
    front = np.atleast_2d(np.asarray(front_objectives, dtype=float))
    if len(front) == 0:
        return 0.0
    return normalized_hypervolume(front, objective_ranges(front))


def hypervolume_min(points: np.ndarray, ref: np.ndarray) -> float:
    """Exact 3D hypervolume for minimization points against `ref` (z-sweep)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    pts = pts[np.all(pts < ref, axis=1)]
    if len(pts) == 0:
        return 0.0
    # the distinct z values, ascending: np.unique's sort and neighbour compare,
    # without its first call's lazy import of numpy.ma
    z = np.sort(pts[:, 2])
    z_levels = z[np.concatenate(([True], z[1:] != z[:-1]))]
    hv = 0.0
    for i, z in enumerate(z_levels):
        z_next = z_levels[i + 1] if i + 1 < len(z_levels) else ref[2]
        active = pts[pts[:, 2] <= z][:, :2]
        hv += (z_next - z) * _staircase_area(active, ref[0], ref[1])
    return float(hv)


def normalized_ideal_distance(front_objectives) -> np.ndarray:
    """Per-member Euclidean distance to the normalized ideal (max f1, max f2, min f3)."""
    front = np.atleast_2d(np.asarray(front_objectives, dtype=float))
    norm = _normalize(_minimization(front))  # ideal maps to 0 per dimension
    return np.sqrt((norm**2).sum(axis=1))


def knee_index(front_objectives) -> int:
    """Index of the front member closest to the normalized ideal point."""
    d = normalized_ideal_distance(front_objectives)
    return int(np.argmin(d))
