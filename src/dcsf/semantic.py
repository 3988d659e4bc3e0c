"""Semantic-similarity surrogate and semantic transmission rate (objective f2).

The similarity xi(k, SNR) is a per-k logistic curve in SNR-dB, defined at
every integer k of the table's span; the parameters of a k between two table
rows are linearly interpolated. The table is monotone by construction:
floors rise and midpoints fall with k, so more symbols per word never hurt.
"""

from __future__ import annotations

import math
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
        # (a, b, c) at every integer k of the table's span, linearly interpolated
        # between the table's k values and built once; a plain attribute, not a
        # field: asdict, repr and == ignore it
        ks = np.asarray(self.ks, dtype=float)
        object.__setattr__(self, "rows", {
            k: tuple(float(np.interp(k, ks, column)) for column in (self.floors, self.midpoints, self.slopes))
            for k in range(self.ks[0], self.ks[-1] + 1)})


def default_similarity_model(k_min: int = 1, k_max: int = 20) -> SimilarityModel:
    """Default table: floors 0.1 -> 0.38, midpoints 12 dB -> -4 dB, slope 0.35."""
    ks = tuple(range(k_min, k_max + 1))
    n = len(ks)
    t = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.0])
    floors = tuple(float(v) for v in 0.1 + 0.28 * t)
    midpoints = tuple(float(v) for v in 12.0 - 16.0 * t)
    slopes = tuple(0.35 for _ in ks)
    return SimilarityModel(ks, floors, midpoints, slopes)


def semantic_similarity(model: SimilarityModel, k: int, snr: float) -> float:
    """xi in [0, 1), non-decreasing in both SNR and k, at an integer k of the
    model's span."""
    if snr <= 0:
        raise ValueError("snr must be > 0")
    row = model.rows.get(k)
    if row is None:
        raise ValueError(f"k = {k} is not an integer in {model.ks[0]}..{model.ks[-1]}")
    return _logistic(row, 10.0 * math.log10(snr))


def _logistic(row: tuple[float, float, float], gamma_db: float) -> float:
    """a + (1 - a) / (1 + exp(-c (gamma_db - b))): the similarity of the
    table row (a, b, c) at an SNR of gamma_db dB."""
    a, b, c = row
    try:
        return a + (1.0 - a) / (1.0 + math.exp(-c * (gamma_db - b)))
    except OverflowError:  # exp(x) = inf for x > ~709.78: 1 / (1 + inf) adds 0.0 to the floor
        return a


def semantic_terms(snr: float, k: int, params) -> tuple[float, float]:
    """(semantic rate in suts/s, similarity) at k symbols/word over a link with
    the given SNR: B * I / (k * L) * xi. A link with SNR <= 0 gives (0, 0)."""
    if snr <= 0:
        return 0.0, 0.0
    xi = semantic_similarity(params.similarity, k, snr)
    return params.bandwidth * params.info_per_sentence / (k * params.words_per_sentence) * xi, xi


def semantic_rows(snr: float, params) -> tuple[list[float], list[float]]:
    """(rates, similarities) at every k of [k_min, k_max], in ascending k:
    `semantic_terms(snr, k, params)` for each k, bit for bit, with the SNR's
    dB value taken once."""
    ks = range(params.k_min, params.k_max + 1)
    if snr <= 0:
        return [0.0] * len(ks), [0.0] * len(ks)
    gamma_db = 10.0 * math.log10(snr)
    rows = params.similarity.rows
    xis = [_logistic(rows[k], gamma_db) for k in ks]
    scale = params.bandwidth * params.info_per_sentence
    return [scale / (k * params.words_per_sentence) * xi for k, xi in zip(ks, xis)], xis
