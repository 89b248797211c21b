"""Cosine distance matrices, diagonal sequence aggregation, and retrieval.

Distances are plain cosine distances in [0, 2]. Rows with (near-)zero norm
compare at distance 1.0: the delta of a stationary segment is the zero vector,
and treating it as maximally uninformative avoids spuriously confident matches
between unrelated stationary segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# ZERO_NORM stays importable here, beside the dead-row rule in this module's docstring
from .series import ZERO_NORM, DescriptorSeries, _freeze, _row_scales, _seal  # noqa: F401
from .transform import SpanBank, _delta_rows

# rows per pass over a Q x R matrix, in seq_match and _cosine_block: at R = 8000 a
# block is 1 MiB, so it stays in a 2 MiB L2 cache across all the passes over it
SEQ_BLOCK_ROWS = 16


@dataclass(frozen=True)
class DistanceMatrix:
    """Q x R matrix of cosine distances between query and reference rows.

    ``values`` follows ``_freeze``'s rule: a sealed float64 result is adopted
    without a copy, anything else is copied.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _freeze(self.values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"distance matrix must be Q x R, got shape {values.shape}")
        # min and max propagate NaN, so one pass each checks finiteness and range
        lo, hi = values.min(), values.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("distance matrix contains non-finite entries")
        if lo < 0.0 or hi > 2.0:
            raise ValueError("cosine distances must lie in [0, 2]")
        object.__setattr__(self, "values", values)

    @property
    def query_count(self) -> int:
        return self.values.shape[0]

    @property
    def ref_count(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MatchSet:
    """Per-query best reference index and its distance."""

    ref_indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        idx = _freeze(self.ref_indices, np.int64)
        dist = _freeze(self.distances)
        if idx.ndim != 1 or idx.shape != dist.shape or idx.size < 1:
            raise ValueError("match set needs one (index, distance) pair per query")
        if np.any(idx < 0):
            raise ValueError("match indices must be non-negative")
        # NaN fails both comparisons, so this also rejects non-finite distances
        if not (0.0 <= dist.min() and dist.max() <= 2.0):
            raise ValueError("match distances must lie in [0, 2]")
        object.__setattr__(self, "ref_indices", idx)
        object.__setattr__(self, "distances", dist)

    @property
    def query_count(self) -> int:
        return self.ref_indices.size


def _cosine_block(
    q: np.ndarray, q_scale: np.ndarray, r: np.ndarray, r_scale: np.ndarray
) -> np.ndarray:
    """Q x R cosine distances from one GEMM, given each side's ``_row_scales``.

    The scales, ``1 - x`` and the clip run over ``SEQ_BLOCK_ROWS`` rows of the
    product at a time, so their four passes find the block in cache.
    """
    vals = q @ r.T
    for b0 in range(0, len(vals), SEQ_BLOCK_ROWS):
        block = vals[b0 : b0 + SEQ_BLOCK_ROWS]
        block *= q_scale[b0 : b0 + SEQ_BLOCK_ROWS, None]
        block *= r_scale
        np.subtract(1.0, block, out=block)
        np.clip(block, 0.0, 2.0, out=block)
    return vals


def cosine_distance(a, b) -> float:
    """1 - cos(a, b); 1.0 when either vector has norm below 1e-12."""
    a = np.asarray(a, dtype=np.float64).reshape(1, -1)
    b = np.asarray(b, dtype=np.float64).reshape(1, -1)
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    return float(_cosine_block(a, _row_scales(a), b, _row_scales(b))[0, 0])


def distance_matrix(query: DescriptorSeries, ref: DescriptorSeries) -> DistanceMatrix:
    """All-pairs cosine distances, one row per query frame: a one-member bank each side."""
    return multi_delta_distance((query,), (ref,))


def seq_match(m: DistanceMatrix, length: int) -> DistanceMatrix:
    """Average distances along the main diagonal direction over ``length`` steps.

    Entry (q, r) becomes the mean of m[q+k][r+k] for k in
    [-floor(L/2), ceil(L/2) - 1], restricted to in-bounds pairs and normalized
    by the in-bounds count. No velocity search: the aggregation line has
    slope exactly one.

    The output is the only Q x R array allocated. It is filled in blocks of
    ``SEQ_BLOCK_ROWS`` query rows, small enough to stay in cache: each block
    sums the shifts in increasing k, then divides by its in-bounds count
    ``min(ceil(L/2), Q-q, R-r) + min(floor(L/2), q, r)``. Away from the first
    floor(L/2) and the last ceil(L/2) - 1 columns, the count is
    ``min(ceil(L/2), Q-q) + min(floor(L/2), q)``, one integer per row; only the
    edge columns take the full count. The divisors are the same either way.
    """
    length = int(length)
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    values = m.values
    q_count, r_count = values.shape
    lo, hi = length // 2, (length + 1) // 2
    out = np.zeros((q_count, r_count))
    # interior columns [c0, c1); the edges are [0, c0) and [c1, R)
    c0 = min(lo, r_count)
    c1 = max(c0, r_count - hi + 1)
    for b0 in range(0, q_count, SEQ_BLOCK_ROWS):
        b1 = min(b0 + SEQ_BLOCK_ROWS, q_count)
        for k in range(-lo, hi):
            q0, q1 = max(b0, -k), min(b1, q_count - k)
            r0, r1 = max(0, -k), min(r_count, r_count - k)
            if q1 <= q0 or r1 <= r0:
                continue
            out[q0:q1, r0:r1] += values[q0 + k : q1 + k, r0 + k : r1 + k]
        q = np.arange(b0, b1)[:, None]
        out[b0:b1, c0:c1] /= np.minimum(hi, q_count - q) + np.minimum(lo, q)
        for e0, e1 in ((0, c0), (c1, r_count)):
            if e0 < e1:
                r = np.arange(e0, e1)
                cnt = np.minimum(np.minimum(hi, q_count - q), r_count - r)
                cnt += np.minimum(np.minimum(lo, q), r)
                out[b0:b1, e0:e1] /= cnt
    return DistanceMatrix(_seal(out))


def multi_delta_distance(
    q_members: Sequence[DescriptorSeries], r_members: Sequence[DescriptorSeries]
) -> DistanceMatrix:
    """Per-cell minimum cosine distance over every (query, reference) member pairing.

    Each side is a span bank, such as ``delta_bank``'s output: its members must
    share frame count and dimension, which is checked before any GEMM. With n
    query and m reference members every cell takes the minimum of n*m
    distances. ``np.minimum`` is exact, so the member order does not change a bit.

    A reference ``SpanBank`` of two or more spans is matched by
    ``_bank_distances``, with n GEMMs instead of n*m. Anything else takes one
    GEMM per pairing, which is the factored path's oracle.
    """
    if not q_members or not r_members:
        raise ValueError("empty bank")
    for members in (q_members, r_members):
        first = members[0]
        if any(m.frame_count != first.frame_count or m.dim != first.dim for m in members):
            raise ValueError("bank members must share frame count and dimension")
    if q_members[0].dim != r_members[0].dim:
        raise ValueError(
            f"dimension mismatch: query D={q_members[0].dim}, reference D={r_members[0].dim}"
        )
    if isinstance(r_members, SpanBank) and len(r_members) > 1:
        return DistanceMatrix(_seal(_bank_distances(q_members, r_members)))
    best = None
    for qs in q_members:
        for rs in r_members:
            vals = _cosine_block(qs.data, qs.row_scales, rs.data, rs.row_scales)
            best = vals if best is None else np.minimum(best, vals, out=best)
    return DistanceMatrix(_seal(best))


def _bank_distances(q_members: Sequence[DescriptorSeries], bank: SpanBank) -> np.ndarray:
    """Q x R minimum over pairings with one GEMM per query member.

    A delta is a linear filter along time, so the dot products of the span-l
    member with query rows q are the span-l delta, taken along the reference
    axis, of the source's dot products with q. Each query member takes one
    GEMM with the source, and each span filters that R x Q Gram matrix with
    ``transform``'s kernel. The Gram matrix is centred by the source's column
    mean first: a delta's weights sum to zero, so the result is unchanged in
    exact arithmetic, and the filter's running sums stay small. The scales are
    the members' own ``_row_scales``, so rows below ``ZERO_NORM`` still compare
    at exactly 1.0. The result is within rounding of the direct path.
    """
    source = bank.source.data
    r_count = len(source)
    mean = source.mean(axis=0)
    q_scales = [qs.row_scales for qs in q_members]
    r_scales = [rs.row_scales for rs in bank]
    # R x Q, so the filters run down contiguous rows. 1 - x is monotone, so the
    # largest scaled dot product gives the smallest distance, bit for bit.
    sims = np.full((r_count, q_members[0].frame_count), -np.inf)
    for qs, q_scale in zip(q_members, q_scales):
        gram = source @ qs.data.T
        gram -= mean @ qs.data.T  # the product of the centred source, with no centred copy
        gram *= q_scale  # scaling columns commutes with the filter
        for span, r_scale in zip(bank.spans, r_scales):
            vals = _delta_rows(gram, span, 0, r_count)
            vals *= r_scale[:, None]
            np.maximum(sims, vals, out=sims)
            del vals  # before the next span's filter allocates its buffers
        del gram  # before the next product or the Q x R result is allocated
    dist = np.subtract(1.0, sims.T, order="C")
    return np.clip(dist, 0.0, 2.0, out=dist)


def retrieve_best(m: DistanceMatrix) -> MatchSet:
    """Argmin per query row; ties break toward the smallest reference index."""
    values = m.values
    # row by row: np.argmin(values, axis=1) would copy the whole read-only matrix
    idx = np.fromiter((row.argmin() for row in values), dtype=np.int64, count=m.query_count)
    return MatchSet(_seal(idx), _seal(values[np.arange(m.query_count), idx]))
