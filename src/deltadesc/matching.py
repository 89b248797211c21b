"""Cosine distance matrices, diagonal sequence aggregation, and retrieval.

Distances are plain cosine distances in [0, 2]. Rows with (near-)zero norm
compare at distance 1.0: the delta of a stationary segment is the zero vector,
and treating it as maximally uninformative avoids spuriously confident matches
between unrelated stationary segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .series import DescriptorSeries
from .transform import DeltaBank

ZERO_NORM = 1e-12


@dataclass(frozen=True)
class DistanceMatrix:
    """Q x R matrix of cosine distances between query and reference rows."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"distance matrix must be Q x R, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("distance matrix contains non-finite entries")
        if values.min() < 0.0 or values.max() > 2.0:
            raise ValueError("cosine distances must lie in [0, 2]")
        values.setflags(write=False)
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
        idx = np.array(self.ref_indices, dtype=np.int64)
        dist = np.array(self.distances, dtype=np.float64)
        if idx.ndim != 1 or idx.shape != dist.shape or idx.size < 1:
            raise ValueError("match set needs one (index, distance) pair per query")
        if np.any(idx < 0):
            raise ValueError("match indices must be non-negative")
        if dist.min() < 0.0 or dist.max() > 2.0 or not np.all(np.isfinite(dist)):
            raise ValueError("match distances must lie in [0, 2]")
        idx.setflags(write=False)
        dist.setflags(write=False)
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
    return DistanceMatrix(_cosine_block(q, _row_scales(q), r, _row_scales(r)))


def seq_match(m: DistanceMatrix, length: int) -> DistanceMatrix:
    """Average distances along the main diagonal direction over ``length`` steps.

    Entry (q, r) becomes the mean of m[q+k][r+k] for k in
    [-floor(L/2), ceil(L/2) - 1], restricted to in-bounds pairs and normalized
    by the in-bounds count. No velocity search: the aggregation line has
    slope exactly one.
    """
    length = int(length)
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    q_count, r_count = m.values.shape
    acc = np.zeros((q_count, r_count))
    cnt = np.zeros((q_count, r_count))
    for k in range(-(length // 2), (length + 1) // 2):
        q0, q1 = max(0, -k), min(q_count, q_count - k)
        r0, r1 = max(0, -k), min(r_count, r_count - k)
        if q1 <= q0 or r1 <= r0:
            continue
        acc[q0:q1, r0:r1] += m.values[q0 + k : q1 + k, r0 + k : r1 + k]
        cnt[q0:q1, r0:r1] += 1.0
    return DistanceMatrix(acc / cnt)


Bank = Union[DeltaBank, Sequence[DescriptorSeries]]


def _bank_members(bank: Bank) -> Sequence[DescriptorSeries]:
    members = bank.series if isinstance(bank, DeltaBank) else tuple(bank)
    if len(members) == 0:
        raise ValueError("empty bank")
    return members


def multi_delta_distance(query_bank: Bank, ref_bank: Bank) -> DistanceMatrix:
    """Per-cell minimum cosine distance over all span combinations.

    With n query spans and m reference spans every cell considers n*m
    combinations; members must be frame-aligned (edge-replicate deltas).
    """
    q_members = _bank_members(query_bank)
    r_members = _bank_members(ref_bank)
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
    return DistanceMatrix(best)


def retrieve_best(m: DistanceMatrix) -> MatchSet:
    """Argmin per query row; ties break toward the smallest reference index."""
    idx = np.argmin(m.values, axis=1)
    return MatchSet(idx, m.values[np.arange(m.query_count), idx])
