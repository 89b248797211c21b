"""Sequence-length calibration from a traverse's self-similarity profile.

Matching a traverse against itself at increasing frame offsets shows how fast
the descriptor stream decorrelates. The smallest offset whose median cosine
distance reaches a threshold (0.7 by default) is a lower bound on the window
length over which change can be measured robustly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching import _row_scales
from .series import DescriptorSeries, _freeze, _seal


@dataclass(frozen=True)
class SelfDistanceProfile:
    """Median cosine distance between rows at each frame offset 1..d_max."""

    offsets: np.ndarray
    median_distance: np.ndarray

    def __post_init__(self) -> None:
        offsets = _freeze(self.offsets, np.int64)
        medians = _freeze(self.median_distance)
        if offsets.ndim != 1 or offsets.size < 1 or offsets.shape != medians.shape:
            raise ValueError("profile needs one median per offset")
        if np.any(np.diff(offsets) <= 0):
            raise ValueError("offsets must be strictly increasing")
        if medians.min() < 0.0 or medians.max() > 2.0:
            raise ValueError("median distances must lie in [0, 2]")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "median_distance", medians)


def self_distance_profile(series: DescriptorSeries, d_max: int) -> SelfDistanceProfile:
    """Median over t of the cosine distance between rows t and t+d, for d = 1..d_max."""
    d_max = int(d_max)
    t_count = series.frame_count
    if not 1 <= d_max < t_count:
        raise ValueError(f"d_max must be in [1, {t_count - 1}], got {d_max}")
    data = series.data
    scales = _row_scales(data)
    medians = np.empty(d_max)
    for i, d in enumerate(range(1, d_max + 1)):
        dots = np.einsum("td,td->t", data[:-d], data[d:])
        dist = np.clip(1.0 - dots * scales[:-d] * scales[d:], 0.0, 2.0)
        medians[i] = np.median(dist)
    return SelfDistanceProfile(_seal(np.arange(1, d_max + 1)), _seal(medians))


def estimate_span(
    profile: SelfDistanceProfile, threshold: float = 0.7, multiplier: float = 1.0
) -> int:
    """Smallest offset whose median distance reaches the threshold.

    The raw value is a lower bound on the usable window length; ``multiplier``
    lets callers scale it up (rounded, at least 1) before use.
    """
    threshold = float(threshold)
    if not 0.0 < threshold < 2.0:
        raise ValueError(f"threshold must lie in (0, 2), got {threshold}")
    if multiplier <= 0:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    hits = profile.median_distance >= threshold
    if not hits.any():
        raise ValueError("profile never crosses threshold; increase d_max or lower threshold")
    raw = int(profile.offsets[int(np.argmax(hits))])
    return max(1, round(raw * float(multiplier)))
