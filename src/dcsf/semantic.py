"""Semantic-similarity surrogate and semantic transmission rate (objective f2).

The similarity xi(k, SNR) is a per-k logistic curve in SNR-dB, defined at
every integer k of the table's span; the parameters of a k between two table
rows are linearly interpolated. The table is monotone by construction:
floors rise and midpoints fall with k, so more symbols per word never hurt.
Both functions work elementwise over arrays, so one call rates a batch of
clusters, a GCA pass's pairs or GSO's (cluster, k) table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SimilarityModelError(ValueError):
    """Raised when a similarity table violates the monotonicity invariants."""


@dataclass(frozen=True)
class SimilarityModel:
    """Logistic parameter table: xi(k, g) = a_k + (1 - a_k) / (1 + exp(-c_k (g - b_k)))."""

    ks: tuple[int, ...]
    floors: tuple[float, ...]     # a_k, non-decreasing in k, each in [0, 1)
    midpoints: tuple[float, ...]  # b_k in dB, non-increasing in k
    slopes: tuple[float, ...]     # c_k > 0

    def __post_init__(self):
        n = len(self.ks)
        if n < 1 or not (len(self.floors) == len(self.midpoints) == len(self.slopes) == n):
            raise SimilarityModelError("table columns must be non-empty and equal length")
        if list(self.ks) != sorted(set(self.ks)):
            raise SimilarityModelError("k values must be strictly increasing")
        for a in self.floors:
            if not (0.0 <= a < 1.0):
                raise SimilarityModelError(f"floor {a} outside [0, 1)")
        for c in self.slopes:
            if c <= 0:
                raise SimilarityModelError(f"slope {c} must be > 0")
        if any(b2 > b1 + 1e-12 for b1, b2 in zip(self.midpoints, self.midpoints[1:])):
            raise SimilarityModelError("midpoints must be non-increasing in k")
        if any(a2 < a1 - 1e-12 for a1, a2 in zip(self.floors, self.floors[1:])):
            raise SimilarityModelError("floors must be non-decreasing in k")
        # row k - ks[0]: (a, b, c) at integer k of the table's span, linearly
        # interpolated between the table's k values and built once; a plain
        # attribute, not a field: asdict, repr and == ignore it
        span = np.arange(self.ks[0], self.ks[-1] + 1)
        rows = np.stack([np.interp(span, self.ks, column)
                         for column in (self.floors, self.midpoints, self.slopes)], axis=1)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)


def default_similarity_model(k_min: int = 1, k_max: int = 20) -> SimilarityModel:
    """Default table: floors 0.1 -> 0.38, midpoints 12 dB -> -4 dB, slope 0.35."""
    ks = tuple(range(k_min, k_max + 1))
    n = len(ks)
    t = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.0])
    floors = tuple(float(v) for v in 0.1 + 0.28 * t)
    midpoints = tuple(float(v) for v in 12.0 - 16.0 * t)
    slopes = tuple(0.35 for _ in ks)
    return SimilarityModel(ks, floors, midpoints, slopes)


def semantic_similarity(model: SimilarityModel, k, snr):
    """xi in [0, 1), non-decreasing in both SNR and k, elementwise over the
    broadcast of `k` (integers of the model's span) and `snr` (> 0).

    Where exp overflows (an SNR far below the midpoint), 1 / (1 + inf) adds
    0.0, so the similarity is exactly the floor a_k.
    """
    snr = np.asarray(snr, dtype=float)
    if np.any(snr <= 0):
        raise ValueError("snr must be > 0")
    row = np.asarray(k) - model.ks[0]
    if not np.all((row % 1 == 0) & (row >= 0) & (row < len(model.rows))):
        raise ValueError(f"k must hold integers in {model.ks[0]}..{model.ks[-1]} only")
    a, b, c = np.moveaxis(model.rows[row.astype(np.intp)], -1, 0)
    with np.errstate(over="ignore"):
        return a + (1.0 - a) / (1.0 + np.exp(-c * (10.0 * np.log10(snr) - b)))


def semantic_terms(snr, k, params) -> tuple[np.ndarray, np.ndarray]:
    """(semantic rates in suts/s, similarities) at k symbols/word over links
    with the given SNRs, elementwise over the broadcast of `snr` and `k`:
    B * I / (k * L) * xi. A link with SNR <= 0 gives (0, 0); a NaN SNR gives
    NaN."""
    snr = np.asarray(snr, dtype=float)
    live = ~(snr <= 0)
    xis = np.where(live, semantic_similarity(params.similarity, k, np.where(live, snr, 1.0)), 0.0)
    return params.bandwidth * params.info_per_sentence / (np.asarray(k) * params.words_per_sentence) * xis, xis
