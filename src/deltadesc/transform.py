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
``smooth``'s too, is a difference of two running sums of the padded series.
``_running_sums`` streams those sums in blocks without building the padded
copy, so a call holds its output and a few blocks of rows. The sums take the
series' rows in order from any iterable, so a series read as it comes, such as
a query file's row blocks, is transformed with no T x D array at all
(``delta_rows``, ``_smooth_blocks``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .series import DescriptorSeries, _check_finite, _norm_scales, _seal

EDGE_REPLICATE = "edge-replicate"
VALID_ONLY = "valid-only"
# output rows per block of running sums; each block also carries the last 2*span
# (or window-width) sums of the block before
BOX_BLOCK_ROWS = 64


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


def _running_sums(
    rows: Iterable[np.ndarray], before: int, after: int, reach: int, edge: bool,
    carry: Optional[tuple[int, np.ndarray]] = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (i0, sums): sums[j] is the sum of padded rows 0 .. i0 + j.

    The padded rows are ``before`` copies of the first of ``rows``, ``rows``,
    each added before the next is asked for, and ``after`` copies of the last
    with ``edge``, or zero rows without it; no padded copy is built. ``sums`` is
    a view of one reused buffer, valid until the next block, and starts with
    the last ``reach`` sums of the block before, so each window of ``reach`` + 1
    sums lies in one block. Each sum is ``np.add(prev, row)`` over the rows in
    order, as ``np.cumsum(axis=0)`` of the padded copy would add them. With
    ``carry``, the last (i0, sums) that a call on the rows before yielded, the
    sums go on from it, in its buffer; a call's last block is yielded whenever
    it holds a sum that no block before held.
    """
    padded = _padded(rows, before, after, edge)
    if carry is None:
        first = next(padded)
        buf, i0, kept = np.empty((BOX_BLOCK_ROWS + reach, len(first))), 0, 0
        buf[0] = first
    else:
        i0, sums = carry
        buf, kept = sums if sums.base is None else sums.base, min(reach, len(sums))
        buf[:kept] = sums[len(sums) - kept :]
        i0 += len(sums) - kept
    slots = list(buf)  # views made once: the row loop makes no array object per row
    fill = max(kept, 1)
    for row in padded:
        if fill == len(buf):  # a full block, yielded: go on from its last reach sums
            buf[:reach] = buf[fill - reach :]
            i0, fill, kept = i0 + fill - reach, reach, reach
        np.add(slots[fill - 1], row, out=slots[fill])
        fill += 1
        if fill == len(buf):
            yield i0, buf
    if kept < fill < len(buf):
        yield i0, buf[:fill]


def _padded(rows: Iterable[np.ndarray], before: int, after: int, edge: bool) -> Iterator:
    """``rows`` after ``before`` and before ``after`` copies of its end rows, or of zeros."""
    rows = iter(rows)
    row = next(rows)
    pad = row if edge else np.zeros_like(row)
    yield from chain(repeat(pad, before), [row])
    for row in rows:
        yield row
    yield from repeat(row if edge else pad, after)


def _window_mean(data: np.ndarray, before: int, after: int) -> np.ndarray:
    """Mean of rows [t - before, t + after] at each t, clipped to the array and
    divided by the in-range count. A one-row window returns ``data`` copied bit for bit."""
    if before == after == 0:
        return data.copy()
    out = np.empty_like(data)
    for _ in _window_mean_blocks(data, len(data), before, after, out):
        pass
    return out


def _window_mean_blocks(
    rows: Iterable[np.ndarray], count: int, before: int, after: int,
    out: Optional[np.ndarray] = None,
) -> Iterator[np.ndarray]:
    """``_window_mean``'s rows of the ``count`` rows ``rows`` yields, in blocks: views of
    ``out``, which holds all of them, or else of one reused buffer, valid until the next."""
    width, scratch = before + after + 1, None
    # over ``before`` + 1 leading zero rows, sums[t + width] - sums[t] is the window of row t
    for t0, sums in _running_sums(rows, before + 1, after, width, edge=False):
        n = len(sums) - width
        if out is None and scratch is None:
            scratch = np.empty((BOX_BLOCK_ROWS, sums.shape[1]))
        block = scratch[:n] if out is None else out[t0 : t0 + n]
        np.subtract(sums[width:], sums[:-width], out=block)
        t = np.arange(t0, t0 + n)
        block /= (np.minimum(t + after + 1, count) - np.maximum(t - before, 0))[:, None]
        yield block


def _smooth_blocks(
    rows: Iterable[np.ndarray], count: int, window: int, out: Optional[np.ndarray] = None
) -> Iterator[np.ndarray]:
    """``smooth``'s rows of the ``count`` rows ``rows`` yields, as ``_window_mean_blocks``
    gives them; ``window`` is checked on the call."""
    window = int(window)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > count:
        raise ValueError("window exceeds series")
    return _window_mean_blocks(rows, count, window // 2, window - window // 2, out)


def smooth(series: DescriptorSeries, window: int) -> DescriptorSeries:
    """Centered moving average over rows [t - floor(w/2), t + ceil(w/2)].

    Near the boundaries the window is clipped to the series and the divisor is
    the actual number of in-range samples, so a constant series stays constant.
    """
    out = np.empty_like(series.data)
    for _ in _smooth_blocks(series.data, series.frame_count, window, out):
        pass
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
    out = np.empty((end - start, series.dim))
    for _ in _delta_blocks(series.data, l, start, end, out):
        pass
    return DescriptorSeries(_seal(out))


def delta_rows(rows: Iterable[np.ndarray], span: int) -> Iterator[np.ndarray]:
    """The edge-replicate span-``span`` delta of the series whose rows ``rows`` yields in
    order, as row blocks in order, each valid until the next is asked for: bit for bit the
    rows of ``delta(series, DeltaConfig(span))``, with no T x D array made. ``span`` is
    checked on the call."""
    span = DeltaConfig(window=span).window
    return (block for _, block in _delta_blocks(rows, span))


def _delta_blocks(
    rows: Iterable[np.ndarray], span: int, start: int = 0, end: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t0, rows): rows t0, t0 + 1, ... of the edge-replicate span-``span`` delta of
    the series whose rows ``rows`` yields in order.

    The blocks cover rows [start, end), to the series' end by default, in order.
    They are views of ``out``, which holds rows [start, end), or else of one
    reused buffer, valid until the next block.
    """
    reach, trail = 2 * span, None
    for i0, sums in _running_sums(rows, span, span, reach, edge=True):
        t0, t1 = max(i0, start), i0 + len(sums) - reach
        t1 = t1 if end is None else min(t1, end)
        if t0 >= t1:
            continue
        if trail is None:  # one block of rows each, as wide as the sums
            trail = np.empty((BOX_BLOCK_ROWS, sums.shape[1]))
            scratch = np.empty_like(trail) if out is None else None
        # for output row t, sums[t + 2l] - sums[t + l] is the window ahead and
        # sums[t + l] - sums[t] the window up to it
        s, n = sums[t0 - i0 : t1 - i0 + reach], t1 - t0
        block = scratch[:n] if out is None else out[t0 - start : t1 - start]
        np.subtract(s[reach:], s[span:-span], out=block)
        block -= np.subtract(s[span:-span], s[:-reach], out=trail[:n])
        block /= span
        yield t0, block


def _delta_scales(rows: Iterable[np.ndarray], span: int) -> Iterator[np.ndarray]:
    """``_row_scales`` of the span-``span`` delta of the series whose rows ``rows`` yields,
    taken from its delta blocks and yielded block by block, in order.

    A non-finite delta value raises as a built member's series would, named by its
    row in the series; such a value makes its row norm non-finite.
    """
    for t0, block in _delta_blocks(rows, span):
        norms = np.linalg.norm(block, axis=1)
        if not np.isfinite(norms).all():
            _check_finite(block, "descriptor", t0)
        yield _norm_scales(norms)


@dataclass(frozen=True, eq=False)
class SpanBank(Sequence):
    """Edge-replicate deltas of ``source``, one per span of ``spans``, built on demand.

    A bank holds its source, its spans and each member's ``_row_scales``, which
    it takes from the member's delta blocks without building the member.
    ``multi_delta_distance`` matches a bank of two or more spans through
    products with its source and needs no member, so a bank pays off only
    where it is matched that way. Indexing or iterating builds a member, bit
    for bit ``delta(source, DeltaConfig(span))``; a slice is a tuple of members.
    """

    source: DescriptorSeries
    spans: tuple[int, ...]
    row_scales: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.spans:
            raise ValueError("delta bank needs a non-empty span set")
        spans = tuple(DeltaConfig(window=s).window for s in self.spans)
        object.__setattr__(self, "spans", spans)
        scales = tuple(_seal(np.concatenate([*_delta_scales(self.source.data, s)])) for s in spans)
        object.__setattr__(self, "row_scales", scales)

    def __len__(self) -> int:
        return len(self.spans)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self))[index])
        return delta(self.source, DeltaConfig(window=self.spans[index]))


def delta_bank(series: DescriptorSeries, spans: Sequence[int]) -> SpanBank:
    """One edge-replicate delta per span, in the order given, as a ``SpanBank``.

    Edge replication keeps every member frame-aligned with the source series
    and with each other. The order is the caller's: ``multi_delta_distance``
    does not depend on it.
    """
    return SpanBank(series, spans)
