"""Smoothed and change-based (delta) transforms over descriptor series.

The delta transform measures per-dimension change across a window of ``2*l``
consecutive frames: the mean of the ``l`` frames ahead of ``t`` minus the mean
of the ``l`` frames up to ``t``. It is a sliding dot product along the time
axis with the antisymmetric step filter

    w = (-1/l, ..., -1/l, +1/l, ..., +1/l)        (length 2*l)

oriented so that an increasing signal yields positive deltas. Differencing
cancels any constant per-traverse offset, which is what makes the result
robust to global appearance change between repeated traverses.

Two boundary policies exist: ``edge-replicate`` pads by repeating the first
and last rows and keeps the output length at T (so frame indices stay aligned
with the input and with ground truth), while ``valid-only`` returns only the
T - 2l + 1 frames whose window lies fully inside the series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import DescriptorSeries

EDGE_REPLICATE = "edge-replicate"
VALID_ONLY = "valid-only"


@dataclass(frozen=True)
class DeltaConfig:
    """Window length and boundary policy of one delta transform."""

    window: int
    padding: str = EDGE_REPLICATE

    def __post_init__(self) -> None:
        window = int(self.window)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        object.__setattr__(self, "window", window)
        if self.padding not in (EDGE_REPLICATE, VALID_ONLY):
            raise ValueError(
                f"padding must be {EDGE_REPLICATE!r} or {VALID_ONLY!r}, got {self.padding!r}"
            )


def _prefix_sums(data: np.ndarray) -> np.ndarray:
    """Return C with C[i] = sum of rows [0, i), so sums of row slices are C[b]-C[a]."""
    csum = np.empty((data.shape[0] + 1, data.shape[1]))
    csum[0] = 0.0
    np.cumsum(data, axis=0, out=csum[1:])
    return csum


def _window_mean(data: np.ndarray, before: int, after: int) -> np.ndarray:
    """Mean of rows [t - before, t + after] at each t, clipped to the array and
    divided by the in-range count. A one-row window returns ``data`` copied bit for bit."""
    if before == after == 0:
        return data.copy()
    t_count = data.shape[0]
    csum = _prefix_sums(data)
    t = np.arange(t_count)
    starts = np.clip(t - before, 0, t_count)
    stops = np.clip(t + after + 1, 0, t_count)
    return (csum[stops] - csum[starts]) / (stops - starts)[:, None].astype(float)


def smooth(series: DescriptorSeries, window: int) -> DescriptorSeries:
    """Centered moving average over rows [t - floor(w/2), t + ceil(w/2)].

    Near the boundaries the window is clipped to the series and the divisor is
    the actual number of in-range samples, so a constant series stays constant.
    """
    window = int(window)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    t_count = series.frame_count
    if window > t_count:
        raise ValueError("window exceeds series")
    lo = window // 2
    hi = window - lo
    out = _window_mean(series.data, lo, hi)
    valid = (lo, t_count - hi) if lo <= t_count - hi else (0, 0)
    return DescriptorSeries(out, positions=series.positions, valid_range=valid)


def delta(series: DescriptorSeries, cfg: DeltaConfig) -> DescriptorSeries:
    """Change descriptor: mean of the l leading frames minus mean of the l trailing.

    At frame t the leading half covers rows t+1 .. t+l and the trailing half
    rows t-l+1 .. t, matching a sliding dot product with the step filter of
    length 2l described in the module docstring. The valid-only output is the
    edge-replicate output restricted to its ``valid_range``.
    """
    l = cfg.window
    t_count = series.frame_count
    if cfg.padding == VALID_ONLY and t_count < 2 * l:
        raise ValueError("series too short for span")
    csum = _prefix_sums(np.pad(series.data, ((l, l), (0, 0)), mode="edge"))
    t = np.arange(t_count) + l
    out = ((csum[t + l + 1] - csum[t + 1]) - (csum[t + 1] - csum[t - l + 1])) / l
    valid = (l - 1, t_count - l) if l - 1 <= t_count - l else (0, 0)
    if cfg.padding == VALID_ONLY:
        start, end = valid
        pos = series.positions[start:end] if series.positions is not None else None
        return DescriptorSeries(out[start:end], positions=pos, valid_range=None)
    return DescriptorSeries(out, positions=series.positions, valid_range=valid)


def delta_bank(series: DescriptorSeries, spans: Sequence[int]) -> tuple[DescriptorSeries, ...]:
    """One edge-replicate delta per span, in the order given.

    Edge replication keeps every member frame-aligned with the source series
    and with each other. The order is the caller's: ``multi_delta_distance``
    does not depend on it.
    """
    if not spans:
        raise ValueError("delta bank needs a non-empty span set")
    return tuple(delta(series, DeltaConfig(window=span)) for span in spans)
