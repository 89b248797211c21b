"""Sequence-length calibration from a traverse's self-similarity profile.

Matching a traverse against itself at increasing frame offsets shows how fast
the descriptor stream decorrelates. The smallest offset whose median cosine
distance reaches a threshold (0.7 by default) is a lower bound on the window
length over which change can be measured robustly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matching import _cosine_block
from .series import DescriptorSeries, _freeze, _row_scales, _seal

# rows per profile GEMM block: 128 to 512 rows ran within 10% of each other at
# 3000 x 2048, d_max 512, on 2 cores with OpenBLAS
PROFILE_BLOCK_ROWS = 256


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


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def self_distance_profile(series: DescriptorSeries, d_max: int) -> SelfDistanceProfile:
    """Median over t of the cosine distance between rows t and t+d, for d = 1..d_max.

    One ``_cosine_block`` of rows [b0, b1) against rows [b0 + 1, b1 + d_max) puts the
    distances of rows t and t + d on its diagonal d - 1, copied into one d_max x T buffer.
    """
    d_max = int(d_max)
    t_count = series.frame_count
    if not 1 <= d_max < t_count:
        raise ValueError(f"d_max must be in [1, {t_count - 1}], got {d_max}")
    # checked before it is requested: an overcommitted buffer is granted and can
    # end in the OOM killer instead of an error
    need, ram = 8 * d_max * t_count, _physical_memory()
    if ram is not None and need > ram:
        raise ValueError(
            f"the d_max x T = {d_max} x {t_count} float64 distance buffer takes "
            f"{need / 2**20:.1f} MiB, more than the {ram / 2**20:.1f} MiB of physical memory; "
            "lower d_max"
        )
    data = series.data
    scales = _row_scales(data)
    # dists[d - 1, t] = the distance of rows t and t + d, filled for t < T - d
    dists = np.empty((d_max, t_count))
    for b0 in range(0, t_count - 1, PROFILE_BLOCK_ROWS):
        b1 = min(b0 + PROFILE_BLOCK_ROWS, t_count - 1)
        c1 = min(b1 + d_max, t_count)
        block = _cosine_block(data[b0:b1], scales[b0:b1], data[b0 + 1 : c1], scales[b0 + 1 : c1])
        for d in range(1, d_max + 1):
            diag = block.diagonal(d - 1)
            dists[d - 1, b0 : b0 + diag.size] = diag
        del block, diag  # the next GEMM then allocates its block while holding none
    medians = np.array([np.median(dists[d - 1, : t_count - d]) for d in range(1, d_max + 1)])
    return SelfDistanceProfile(_seal(np.arange(1, d_max + 1)), _seal(medians))


def _check_span_args(threshold: float, multiplier: float, d_max: Optional[int] = None) -> None:
    """Reject a threshold outside (0, 2), a multiplier <= 0 and a d_max below 1."""
    if not 0.0 < float(threshold) < 2.0:
        raise ValueError(f"threshold must lie in (0, 2), got {float(threshold)}")
    if multiplier <= 0:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    if d_max is not None and int(d_max) < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")


def estimate_span(
    profile: SelfDistanceProfile, threshold: float = 0.7, multiplier: float = 1.0
) -> int:
    """Smallest offset whose median distance reaches the threshold.

    The raw value is a lower bound on the usable window length; ``multiplier``
    lets callers scale it up (rounded, at least 1) before use.
    """
    _check_span_args(threshold, multiplier)
    hits = profile.median_distance >= float(threshold)
    if not hits.any():
        raise ValueError("profile never crosses threshold; increase d_max or lower threshold")
    raw = int(profile.offsets[int(np.argmax(hits))])
    return max(1, round(raw * float(multiplier)))
