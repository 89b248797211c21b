"""Seeded synthetic traverse-pair generator with exact ground truth.

The latent route signal is per-dimension Gaussian noise smoothed along time,
so nearby frames overlap and the self-similarity decay has a known scale.
Each traverse adds its own constant descriptor offset (the first-order model
of a global appearance change) plus i.i.d. per-frame noise; the query can
additionally be time-warped to mimic velocity variation. All randomness comes
from one seed, so outputs are bitwise reproducible.

Scale convention: each offset component is drawn with standard deviation
``offset_scale`` times the latent signal's RMS row norm, so at 0.5 the offset
vector dominates the place-specific signal (norm about ``0.5 * sqrt(D)`` row
norms) and single-frame cosine ranking degrades visibly, while differencing
cancels it exactly. Noise components use ``noise_scale`` times the per-element
latent RMS: per-frame jitter at a fraction of a typical activation magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .series import DescriptorSeries, GroundTruth, _seal
from .transform import _window_mean

WarpPoints = Sequence[tuple[float, float]]


def _validated_warp(points: WarpPoints) -> np.ndarray:
    pts = np.array([(float(s), float(t)) for s, t in points], dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise ValueError("warp needs at least two (source, target) control points")
    if np.any(np.diff(pts[:, 0]) <= 0) or np.any(np.diff(pts[:, 1]) <= 0):
        raise ValueError("warp control points must be strictly increasing in both coordinates")
    if not (pts[0] == 0.0).all() or not (pts[-1] == 1.0).all():
        raise ValueError("warp control points must span [0, 1] in both coordinates")
    return pts


@dataclass(frozen=True)
class SynthParams:
    """Knobs for one reference/query traverse pair."""

    frames: int
    dims: int
    latent_smooth_window: int = 1
    offset_scale: float = 0.0
    noise_scale: float = 0.0
    warp: Optional[WarpPoints] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.frames) < 2:
            raise ValueError(f"frames must be >= 2, got {self.frames}")
        if int(self.dims) < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        if int(self.latent_smooth_window) < 1:
            raise ValueError("latent_smooth_window must be >= 1")
        if self.offset_scale < 0 or self.noise_scale < 0:
            raise ValueError("offset_scale and noise_scale must be non-negative")
        object.__setattr__(self, "frames", int(self.frames))
        object.__setattr__(self, "dims", int(self.dims))
        object.__setattr__(self, "latent_smooth_window", int(self.latent_smooth_window))
        if self.warp is not None:
            object.__setattr__(
                self, "warp", tuple((float(s), float(t)) for s, t in _validated_warp(self.warp))
            )


def _warped_source_positions(frames: int, points: np.ndarray) -> np.ndarray:
    """Fractional source row per output row under the piecewise-linear warp."""
    targets = np.linspace(0.0, 1.0, frames)
    return np.interp(targets, points[:, 1], points[:, 0]) * (frames - 1)


def _interp_rows(mat: np.ndarray, positions: np.ndarray) -> np.ndarray:
    idx0 = np.clip(np.floor(positions).astype(np.int64), 0, mat.shape[0] - 1)
    idx1 = np.minimum(idx0 + 1, mat.shape[0] - 1)
    frac = (positions - idx0)[:, None]
    return (1.0 - frac) * mat[idx0] + frac * mat[idx1]


def time_warp(series: DescriptorSeries, control_points: WarpPoints) -> DescriptorSeries:
    """Resample rows by linear interpolation at warped time positions.

    Control points are (source_fraction, target_fraction) pairs; output length
    equals input length.
    """
    pts = _validated_warp(control_points)
    sources = _warped_source_positions(series.frame_count, pts)
    return DescriptorSeries(_seal(_interp_rows(series.data, sources)))


def generate_traverse_pair(
    params: SynthParams,
) -> tuple[DescriptorSeries, DescriptorSeries, GroundTruth]:
    """Reference series, query series, and exact per-query ground truth.

    The ground truth maps each query frame to its (rounded) warped source
    frame; without a warp it is the identity. Returned ground truth carries
    radius 0 in frames mode; widen it with ``dataclasses.replace`` as needed.
    """
    rng = np.random.default_rng(params.seed)
    # centered box mean of exactly w draws: (w - 1) // 2 rows before, the rest after
    before = (params.latent_smooth_window - 1) // 2
    after = params.latent_smooth_window - 1 - before
    latent = _window_mean(rng.standard_normal((params.frames, params.dims)), before, after)
    rms = float(np.sqrt(np.mean(latent**2)))
    rms_row = rms * np.sqrt(params.dims)

    offset_ref = rng.standard_normal(params.dims) * (params.offset_scale * rms_row)
    offset_query = rng.standard_normal(params.dims) * (params.offset_scale * rms_row)
    noise_ref = rng.standard_normal((params.frames, params.dims)) * (params.noise_scale * rms)
    noise_query = rng.standard_normal((params.frames, params.dims)) * (params.noise_scale * rms)

    if params.warp is not None:
        sources = _warped_source_positions(params.frames, _validated_warp(params.warp))
        query_base = _interp_rows(latent, sources)
    else:
        sources = np.arange(params.frames, dtype=np.float64)
        query_base = latent

    ref = DescriptorSeries(_seal(latent + offset_ref + noise_ref))
    query = DescriptorSeries(_seal(query_base + offset_query + noise_query))
    pairs = _seal(np.clip(np.rint(sources).astype(np.int64), 0, params.frames - 1))
    return ref, query, GroundTruth(pairs, radius_mode="frames", radius=0.0)
