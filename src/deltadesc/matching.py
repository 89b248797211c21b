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

from .series import DescriptorSeries, _freeze, _seal

ZERO_NORM = 1e-12
# query rows per seq_match block: the block's sums stay in cache across the L shifts
SEQ_BLOCK_ROWS = 64


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


def _row_scales(data: np.ndarray) -> np.ndarray:
    """1/|row|, or 0 for rows with norm below ``ZERO_NORM`` so that they compare at exactly 1.0."""
    norms = np.linalg.norm(data, axis=1)
    return np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= ZERO_NORM)


def _cosine_block(
    q: np.ndarray, q_scale: np.ndarray, r: np.ndarray, r_scale: np.ndarray
) -> np.ndarray:
    """Q x R cosine distances from one GEMM, given each side's ``_row_scales``."""
    vals = q @ r.T
    vals *= q_scale[:, None]
    vals *= r_scale[None, :]
    np.subtract(1.0, vals, out=vals)
    return np.clip(vals, 0.0, 2.0, out=vals)


def cosine_distance(a, b) -> float:
    """1 - cos(a, b); 1.0 when either vector has norm below 1e-12."""
    a = np.asarray(a, dtype=np.float64).reshape(1, -1)
    b = np.asarray(b, dtype=np.float64).reshape(1, -1)
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    return float(_cosine_block(a, _row_scales(a), b, _row_scales(b))[0, 0])


def distance_matrix(query: DescriptorSeries, ref: DescriptorSeries) -> DistanceMatrix:
    """All-pairs cosine distances, one row per query frame."""
    if query.dim != ref.dim:
        raise ValueError(f"dimension mismatch: query D={query.dim}, reference D={ref.dim}")
    q, r = query.data, ref.data
    return DistanceMatrix(_seal(_cosine_block(q, _row_scales(q), r, _row_scales(r))))


def seq_match(m: DistanceMatrix, length: int) -> DistanceMatrix:
    """Average distances along the main diagonal direction over ``length`` steps.

    Entry (q, r) becomes the mean of m[q+k][r+k] for k in
    [-floor(L/2), ceil(L/2) - 1], restricted to in-bounds pairs and normalized
    by the in-bounds count. No velocity search: the aggregation line has
    slope exactly one.

    The output is the only Q x R array allocated. It is filled in blocks of
    ``SEQ_BLOCK_ROWS`` query rows: each block sums the shifts in increasing k,
    then divides by its closed-form in-bounds count
    ``min(ceil(L/2), Q-q, R-r) + min(floor(L/2), q, r)``.
    """
    length = int(length)
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    values = m.values
    q_count, r_count = values.shape
    lo, hi = length // 2, (length + 1) // 2
    out = np.zeros((q_count, r_count))
    r = np.arange(r_count)
    for b0 in range(0, q_count, SEQ_BLOCK_ROWS):
        b1 = min(b0 + SEQ_BLOCK_ROWS, q_count)
        for k in range(-lo, hi):
            q0, q1 = max(b0, -k), min(b1, q_count - k)
            r0, r1 = max(0, -k), min(r_count, r_count - k)
            if q1 <= q0 or r1 <= r0:
                continue
            out[q0:q1, r0:r1] += values[q0 + k : q1 + k, r0 + k : r1 + k]
        q = np.arange(b0, b1)[:, None]
        cnt = np.minimum(np.minimum(hi, q_count - q), r_count - r)
        cnt += np.minimum(np.minimum(lo, q), r)
        out[b0:b1] /= cnt
    return DistanceMatrix(_seal(out))


def multi_delta_distance(
    q_members: Sequence[DescriptorSeries], r_members: Sequence[DescriptorSeries]
) -> DistanceMatrix:
    """Per-cell minimum cosine distance over every (query, reference) member pairing.

    Each side is a span bank, such as ``delta_bank``'s output: its members must
    share frame count and dimension, which is checked before any GEMM. With n
    query and m reference members every cell takes the minimum of n*m
    distances. ``np.minimum`` is exact, so the member order does not change a bit.
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
    r_scales = [_row_scales(rs.data) for rs in r_members]
    best = None
    for qs in q_members:
        q_scale = _row_scales(qs.data)
        for rs, r_scale in zip(r_members, r_scales):
            vals = _cosine_block(qs.data, q_scale, rs.data, r_scale)
            best = vals if best is None else np.minimum(best, vals, out=best)
    return DistanceMatrix(_seal(best))


def retrieve_best(m: DistanceMatrix) -> MatchSet:
    """Argmin per query row; ties break toward the smallest reference index."""
    values = m.values
    # row by row: np.argmin(values, axis=1) would copy the whole read-only matrix
    idx = np.fromiter((row.argmin() for row in values), dtype=np.int64, count=m.query_count)
    return MatchSet(_seal(idx), _seal(values[np.arange(m.query_count), idx]))
