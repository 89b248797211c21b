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
from .transform import SpanBank, _delta_blocks

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

    Each side is a span bank, such as ``delta_bank``'s output, or a list of
    members that share frame count and dimension, which is checked before any
    GEMM. With n query and m reference members every cell takes the minimum of
    n*m distances. ``np.minimum`` is exact, so the member order does not change
    a bit.

    A reference ``SpanBank`` of two or more spans is matched by
    ``_bank_distances`` through products with its source: one product in all
    when the query is a ``SpanBank`` too (ceil(D / R) GEMMs over blocks of its
    rows), else one per query member. Anything else takes one GEMM per
    pairing, which is the factored path's oracle.
    """
    if not q_members or not r_members:
        raise ValueError("empty bank")
    q_dim, r_dim = _bank_shape(q_members)[1], _bank_shape(r_members)[1]
    if q_dim != r_dim:
        raise ValueError(f"dimension mismatch: query D={q_dim}, reference D={r_dim}")
    if isinstance(r_members, SpanBank) and len(r_members) > 1:
        return DistanceMatrix(_seal(_bank_distances(q_members, r_members)))
    refs = list(r_members)  # a bank builds its members once, not once per query member
    best = None
    for qs in q_members:
        for rs in refs:
            vals = _cosine_block(qs.data, qs.row_scales, rs.data, rs.row_scales)
            best = vals if best is None else np.minimum(best, vals, out=best)
    return DistanceMatrix(_seal(best))


def _bank_shape(members: Sequence[DescriptorSeries]) -> tuple[int, int]:
    """Frame count and dimension shared by the members, read without building a bank's members."""
    if isinstance(members, SpanBank):
        return members.source.data.shape
    first = members[0]
    if any(m.frame_count != first.frame_count or m.dim != first.dim for m in members):
        raise ValueError("bank members must share frame count and dimension")
    return first.data.shape


def _bank_distances(q_members: Sequence[DescriptorSeries], bank: SpanBank) -> np.ndarray:
    """Q x R minimum over pairings from one GEMM per query source.

    A delta is a linear filter along time, so the dot products of the span-l
    reference member with the span-k query member are the product of the two
    sources, filtered by the span-l delta down its reference axis and by the
    span-k delta along its query axis. A query ``SpanBank`` is one source with
    its spans; each member of any other query is a source of its own with the
    identity filter, written as span 0. The reference source and a query
    bank's source are centred by their column means, with no centred copy
    (``_centred_product``): a delta's weights sum to zero, so the result is
    unchanged in exact arithmetic, and the filters' running sums stay small.
    The scales are the members' own ``_row_scales``, so rows below
    ``ZERO_NORM`` still compare at exactly 1.0. Each reference span's delta of
    the product goes to the query filters a block of rows at a time, so the
    product and the running best are the only R x Q matrices. The result is
    within rounding of the direct path, and that rounding grows with the
    reference length: the largest difference seen was 3.9e-12 at 20-60 frames,
    the lengths ``FACTORED_BOUND`` (1e-11) in the tests covers, 4.3e-11 at
    150-200, and 2.6e-10 over 3000 random draws at 400-500, which is not a
    worst case (see ``LONG_REFERENCE_ERROR`` in the tests). Argmins moved only
    between near-ties.
    """
    source = bank.source.data
    mean = source.mean(axis=0)
    sims = None
    for q, q_mean, q_spans, q_scales in _query_sources(q_members):
        # R x Q, so the reference filters run down contiguous rows
        gram = _centred_product(source, mean, q, q_mean)
        if sims is None:
            # 1 - x is monotone, so the largest scaled dot product gives the smallest
            # distance, bit for bit
            sims = np.full(gram.shape, -np.inf)
        q_scales = [scale / span if span else scale for span, scale in zip(q_spans, q_scales)]
        for span, r_scale in zip(bank.spans, bank.row_scales):
            for t0, rows in _delta_blocks(gram, span, 0, len(gram)):
                rows *= r_scale[t0 : t0 + len(rows), None]
                _filter_columns(rows, q_spans, q_scales, sims[t0 : t0 + len(rows)])
        del gram  # before the next product or the Q x R result is allocated
    dist = np.subtract(1.0, sims.T, order="C")
    return np.clip(dist, 0.0, 2.0, out=dist)


def _query_sources(q_members: Sequence[DescriptorSeries]):
    """Yield (source data, column mean, spans, row scales) per query source.

    A ``SpanBank`` is its raw source, centred by ``_centred_product``; each member
    of any other query is its data with no mean and span 0, the identity.
    """
    if isinstance(q_members, SpanBank):
        data = q_members.source.data
        yield data, data.mean(axis=0), q_members.spans, q_members.row_scales
    else:
        for qs in q_members:
            yield qs.data, None, (0,), (qs.row_scales,)


def _centred_product(
    source: np.ndarray, mean: np.ndarray, q: np.ndarray, q_mean: np.ndarray | None
) -> np.ndarray:
    """R x Q product of the centred reference with the query, centred where it has a mean.

    Neither centred source is copied whole. A query with a mean is centred into
    one reused buffer ceil(D / R) blocks of rows at a time, so no block is much
    larger than the product; D <= R is one GEMM. Blocks are whole 8-row panels:
    on OpenBLAS that keeps the 2000 x 4096 bench product the same bits as one
    GEMM of a centred copy (667 rows did not).
    """
    gram = np.empty((len(source), len(q)))
    step = len(q)
    if q_mean is not None:
        step = -(-step // -(-q.shape[1] // len(source)))  # ceil(Q / ceil(D / R))
        step = -(-step // 8) * 8
        buf = np.empty((min(step, len(q)), q.shape[1]))
    for j0 in range(0, len(q), step):
        rows = q[j0 : j0 + step]
        if q_mean is not None:
            rows = np.subtract(rows, q_mean, out=buf[: len(rows)])
        cols = gram[:, j0 : j0 + len(rows)]
        np.matmul(source, rows.T, out=cols)
        cols -= mean @ rows.T
    return gram


def _filter_columns(
    vals: np.ndarray, spans: Sequence[int], scales: Sequence[np.ndarray], best: np.ndarray
) -> None:
    """Raise ``best`` to each span's delta of ``vals`` along its columns, times its scales.

    ``SEQ_BLOCK_ROWS`` rows go at a time, through two buffers reused by every
    block, so each pass finds its rows in cache. The running sums S of one
    edge-padded copy of a block serve every span: the span-l delta at column t
    is S[t+l] - 2 S[t] + S[t-l], with the 1/l folded into the scales. Span 0
    passes ``vals`` through.
    """
    pad, cols = max(spans), vals.shape[1]
    padded, out = np.empty((SEQ_BLOCK_ROWS, cols + 2 * pad)), np.empty((SEQ_BLOCK_ROWS, cols))
    for b0 in range(0, len(vals), SEQ_BLOCK_ROWS):
        block, top = vals[b0 : b0 + SEQ_BLOCK_ROWS], best[b0 : b0 + SEQ_BLOCK_ROWS]
        sums, o = padded[: len(block)], out[: len(block)]
        if pad:
            sums[:, :pad], sums[:, pad + cols :] = block[:, :1], block[:, -1:]
            sums[:, pad : pad + cols] = block
            np.cumsum(sums, axis=1, out=sums)
        for span, scale in zip(spans, scales):
            if span:
                mid = sums[:, pad : pad + cols]
                np.subtract(sums[:, pad + span : pad + span + cols], mid, out=o)
                o -= mid
                o += sums[:, pad - span : pad - span + cols]
            np.multiply(o if span else block, scale, out=o)
            np.maximum(top, o, out=top)


def retrieve_best(m: DistanceMatrix) -> MatchSet:
    """Argmin per query row; ties break toward the smallest reference index."""
    values = m.values
    # row by row: np.argmin(values, axis=1) would copy the whole read-only matrix
    idx = np.fromiter((row.argmin() for row in values), dtype=np.int64, count=m.query_count)
    return MatchSet(_seal(idx), _seal(values[np.arange(m.query_count), idx]))
