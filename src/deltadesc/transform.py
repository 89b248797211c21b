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
T - 2l + 1 frames whose window lies fully inside the series. Every window sum,
``smooth``'s too, is a difference of two row slices of the running sums of one
padded copy of the series (``_box_sums``), so a call holds that and its output.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .series import DescriptorSeries, _seal

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


def _box_sums(padded: np.ndarray, width: int) -> np.ndarray:
    """Row i is the sum of ``padded`` rows i+1 .. i+width; ``padded`` becomes its running sums.

    The running sums are a loop over rows: each step adds two contiguous rows,
    where ``np.cumsum(axis=0)`` strides down every column. Both add left to
    right, so the bits are the same.
    """
    for prev, row in pairwise(padded):
        np.add(prev, row, out=row)
    return padded[width:] - padded[:-width]


def _window_mean(data: np.ndarray, before: int, after: int) -> np.ndarray:
    """Mean of rows [t - before, t + after] at each t, clipped to the array and
    divided by the in-range count. A one-row window returns ``data`` copied bit for bit."""
    if before == after == 0:
        return data.copy()
    out = _box_sums(np.pad(data, ((before + 1, after), (0, 0))), before + after + 1)
    t = np.arange(len(data))
    out /= (np.minimum(t + after + 1, len(data)) - np.maximum(t - before, 0))[:, None]
    return out


def smooth(series: DescriptorSeries, window: int) -> DescriptorSeries:
    """Centered moving average over rows [t - floor(w/2), t + ceil(w/2)].

    Near the boundaries the window is clipped to the series and the divisor is
    the actual number of in-range samples, so a constant series stays constant.
    """
    window = int(window)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > series.frame_count:
        raise ValueError("window exceeds series")
    lo = window // 2
    hi = window - lo
    out = _window_mean(series.data, lo, hi)
    return DescriptorSeries(_seal(out))


def delta_valid_range(t_count: int, span: int) -> tuple[int, int]:
    """Half-open rows ``[span - 1, T - span)`` of a span-``span`` delta untouched by padding.

    These are the T - 2*span + 1 frames whose window of 2*span rows lies
    fully inside a series of ``t_count`` frames.
    """
    if t_count < 2 * span:
        raise ValueError("series too short for span")
    return span - 1, t_count - span


def delta(series: DescriptorSeries, cfg: DeltaConfig) -> DescriptorSeries:
    """Change descriptor: mean of the l leading frames minus mean of the l trailing.

    At frame t the leading half covers rows t+1 .. t+l and the trailing half
    rows t-l+1 .. t, matching a sliding dot product with the step filter of
    length 2l described in the module docstring. The valid-only output is the
    edge-replicate output restricted to the rows of ``delta_valid_range``.
    """
    l = cfg.window
    t_count = series.frame_count
    start, end = delta_valid_range(t_count, l) if cfg.padding == VALID_ONLY else (0, t_count)
    return DescriptorSeries(_seal(_delta_rows(series.data, l, start, end)))


def _delta_rows(data: np.ndarray, span: int, start: int, end: int) -> np.ndarray:
    """Rows [start, end) of the edge-replicate span-``span`` delta of ``data`` along its rows."""
    # sums[t + span] is the window ahead of output row t, sums[t] the window up to it
    sums = _box_sums(np.pad(data, ((span, span), (0, 0)), mode="edge"), span)
    out = sums[span + start : span + end] - sums[start:end]
    out /= span
    return out


class SpanBank(Sequence):
    """Edge-replicate deltas of ``source``, one per span of ``spans``, built on demand.

    A bank holds its source, its spans and each member's ``_row_scales``: each
    member is built once to take its norms and then dropped. Indexing or
    iterating builds a member again, bit for bit ``delta(source,
    DeltaConfig(span))``, and hands it the bank's norms. ``multi_delta_distance``
    matches a bank through products with its source and needs no member. A
    slice is a tuple of members.
    """

    __slots__ = ("source", "spans", "row_scales")
    source: DescriptorSeries
    spans: tuple[int, ...]
    row_scales: tuple[np.ndarray, ...]

    def __init__(self, source: DescriptorSeries, spans: Sequence[int]) -> None:
        if not spans:
            raise ValueError("delta bank needs a non-empty span set")
        spans = tuple(int(s) for s in spans)
        scales = tuple(delta(source, DeltaConfig(window=s)).row_scales for s in spans)
        for name, value in (("source", source), ("spans", spans), ("row_scales", scales)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.spans)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        member = delta(self.source, DeltaConfig(window=self.spans[index]))
        vars(member)["row_scales"] = self.row_scales[index]  # the cached norms: no second pass
        return member

    def __setattr__(self, name, value):
        raise AttributeError("a span bank is immutable")


def delta_bank(series: DescriptorSeries, spans: Sequence[int]) -> SpanBank:
    """One edge-replicate delta per span, in the order given, as a ``SpanBank``.

    Edge replication keeps every member frame-aligned with the source series
    and with each other. The bank keeps the series and each member's norms, not
    the members. The order is the caller's: ``multi_delta_distance`` does not
    depend on it.
    """
    return SpanBank(series, spans)
