"""Cosine distance matrices, diagonal sequence aggregation, and retrieval.

Distances are plain cosine distances in [0, 2]. Rows with (near-)zero norm
compare at distance 1.0: the delta of a stationary segment is the zero vector,
and treating it as maximally uninformative avoids spuriously confident matches
between unrelated stationary segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

# ZERO_NORM stays importable here, beside the dead-row rule in this module's docstring
from .series import ZERO_NORM, DescriptorSeries, _freeze, _row_scales, _seal  # noqa: F401
from .transform import SpanBank, _running_sums

# rows per pass over a Q x R matrix, in seq_match, _cosine_block and the span-bank
# filters: at R = 8000 a block is 1 MiB, so it stays in a 2 MiB L2 cache across passes
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

    A query ``SpanBank`` against a reference ``SpanBank`` of two or more spans is
    matched by ``_bank_distances`` through one product of the two sources, made
    and filtered in the Q x R result. Anything else, a list of members on
    either side included, takes one GEMM per pairing, which is the factored
    path's oracle, and builds a reference bank's members and norms on each
    call: pass ``list(bank)`` once built to match many queries against it.
    """
    if not q_members or not r_members:
        raise ValueError("empty bank")
    q_dim, r_dim = _bank_shape(q_members)[1], _bank_shape(r_members)[1]
    if q_dim != r_dim:
        raise ValueError(f"dimension mismatch: query D={q_dim}, reference D={r_dim}")
    if isinstance(q_members, SpanBank) and isinstance(r_members, SpanBank) and len(r_members) > 1:
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


def _bank_distances(q_bank: SpanBank, bank: SpanBank) -> np.ndarray:
    """Q x R minimum over pairings from one product of the two sources, made in the result.

    A delta is a linear filter along time, so the dot products of the span-l
    reference member with the span-k query member are the product of the two
    sources, filtered by the span-l delta along its reference axis and by the
    span-k delta along its query axis. Both sources are centred by their column
    means, with no centred copy (``_centred_product``): a delta's weights sum to
    zero, so the result is unchanged in exact arithmetic, and the filters'
    running sums stay small. The scales are the members' own ``_row_scales``,
    so rows below ``ZERO_NORM`` still compare at exactly 1.0. The result, the
    one tile of ``_bank_tiles``, is the only Q x R matrix, and is within
    rounding of the direct path; the rounding grows with the reference length.
    Over 3000 random cases it reached 3.9e-12 at 20-60 frames, 4.3e-11 at
    150-200 and 2.6e-10 at 400-500 (``LONG_REFERENCE_ERROR``). Those are not
    bounds: one draw at 60 reference frames and D 2 reaches 4.1e-11, above the
    tests' ``FACTORED_BOUND`` (1e-11). Argmins moved only between near-ties.
    """
    q = q_bank.source.data
    (dist,) = _bank_tiles(lambda t0, t1: q[t0:t1], q_bank.spans, q_bank.row_scales, bank,
                          [(0, len(q))])
    return dist


def _bank_tiles(
    read: Callable, spans: Sequence[int], scales: Sequence[np.ndarray], bank: SpanBank, tiles: list
) -> Iterator[np.ndarray]:
    """Yield ``_bank_distances``' rows [a0, a1) of each (a0, a1) of ``tiles`` in order, each a
    new array, for the query bank of ``spans`` whose source rows [t0, t1) ``read`` gives,
    asked for in order, and whose members' ``_row_scales`` are ``scales``, each row's
    set once ``read`` has given the row.

    A tile copies the rows it shares with the tile before. The query filters
    carry their running sums from tile to tile, with edge padding only at the
    query's ends, so each query row goes through the GEMM once. A row comes out
    max(spans) product rows after its own, into the slot of a product row
    already filtered. Every tile is centred by the first tile's column means,
    which for one tile are ``q.mean(axis=0)``.
    """
    q_count, pad, width = len(scales[0]), max(spans), len(bank.source.data)
    carry, q_mean, last, done = [None] * len(bank), None, np.empty(width), 0
    dist, l0 = np.empty((0, width)), 0
    for a0, a1 in tiles:
        shared = dist[a0 - l0 :].copy()
        dist = gram = new = None  # the tile before goes before this one is made
        dist, l0 = np.empty((a1 - a0, width)), a0
        dist[: len(shared)] = shared
        while done - pad < a1:  # query row done - pad is the next to come out
            t = max(a0, done - pad)
            gram = dist[t - a0 : t - a0 + max(0, min(a1 - t, q_count - done))]
            if len(gram):
                rows = read(done, done + len(gram))
                q_mean = rows.mean(axis=0) if q_mean is None else q_mean
                _centred_product(bank.source.data, rows, gram.T, q_mean)
                rows = None  # read once: gone before the filters and seqmatch
                if done + len(gram) == q_count:
                    last[:] = gram[-1]  # the query's last product row, for its edge copies
            # past the query's last row, its edge copies, as many as the tile needs
            copies = a1 + pad - done - len(gram) if done + len(gram) >= q_count else 0
            ends = np.broadcast_to(last, (copies, width))
            carry = _filter_product(dist, a0, (gram, ends), carry, bank, spans, scales)
            done += len(gram) + copies
        new = dist[len(shared) :]  # 1 - x is monotone: the largest scaled dot is the nearest
        np.subtract(1.0, new, out=new)
        np.clip(new, 0.0, 2.0, out=new)
        yield dist


def _centred_product(
    source: np.ndarray, q: np.ndarray, out: np.ndarray, q_mean: np.ndarray
) -> None:
    """Write the R x Q product of the reference source, centred by its column means, and of
    the query rows ``q``, centred by ``q_mean``, into ``out``, a transposed view of the result.

    Neither centred source is copied whole. The query is centred into one reused
    buffer ceil(D / R) blocks of rows at a time, so no block is much larger than
    the product, and at most 256 rows: 8 MiB at D = 4096, about what the
    filters hold at R = 2000. Blocks are whole 8-row panels: on OpenBLAS that
    keeps the 2000 x 4096 bench product the same bits as one GEMM of a centred
    copy (667 rows did not).
    """
    mean = source.mean(axis=0)
    step = -(-len(q) // -(-q.shape[1] // len(source)))  # ceil(Q / ceil(D / R))
    step = min(-(-step // 8) * 8, 256)
    buf = np.empty((min(step, len(q)), q.shape[1]))
    for j0 in range(0, len(q), step):
        rows = q[j0 : j0 + step]
        rows = np.subtract(rows, q_mean, out=buf[: len(rows)])
        cols = out[:, j0 : j0 + len(rows)]
        np.matmul(source, rows.T, out=cols)
        cols -= mean @ rows.T


def _filter_product(
    dist: np.ndarray, a0: int, pieces: tuple, carry: list, bank: SpanBank, spans: Sequence[int],
    scales: Sequence[np.ndarray],
) -> list:
    """Feed the product rows of ``pieces`` through the filters, carried on from ``carry``,
    and write each query row they complete, the largest of its pairings' scaled dot
    products, into the tile ``dist`` from query row ``a0``; return the new carry.

    The reference spans' deltas run along the rows (``_reference_deltas``) in
    lockstep, the query spans' down them through ``_running_sums``, padded by
    the largest query span before the first row, with each 1/k in the scales.
    """
    # scratch that every stream spends before it yields; the query filters use out too
    pad, padded = max(spans), np.empty((SEQ_BLOCK_ROWS, dist.shape[1] + 2 * max(bank.spans)))
    out = np.empty((SEQ_BLOCK_ROWS, dist.shape[1]))
    streams = []
    for lr, sums in zip(zip(bank.spans, bank.row_scales), carry):
        rows = chain.from_iterable(_reference_deltas(pieces, *lr, padded, out))
        streams.append(_running_sums(rows, 0 if sums else pad, 0, 2 * pad, True, sums))
    for blocks in zip(*streams):
        t0, t1 = blocks[0][0], blocks[0][0] + len(blocks[0][1]) - 2 * pad
        for b0 in range(t0, t1, SEQ_BLOCK_ROWS):
            n, j = min(SEQ_BLOCK_ROWS, t1 - b0), b0 - t0 + pad  # j: row b0 in the sums
            top, o = dist[b0 - a0 : b0 - a0 + n], out[:n]
            top.fill(-np.inf)
            for _, sums in blocks:
                for span, scale in zip(spans, scales):
                    np.subtract(sums[j + span : j + span + n], sums[j : j + n], out=o)
                    o -= sums[j : j + n]
                    o += sums[j - span : j - span + n]
                    o *= scale[b0 : b0 + n, None] / span
                    np.maximum(top, o, out=top)
    return list(blocks)


def _reference_deltas(
    pieces: Sequence[np.ndarray], span: int, scale: np.ndarray, padded: np.ndarray,
    trail: np.ndarray,
) -> Iterator[np.ndarray]:
    """Yield the rows of the edge-replicate span-``span`` delta along each row of the
    ``pieces``, in order, times ``scale``, ``SEQ_BLOCK_ROWS`` rows of a piece at a time.

    Each block is valid until the next; ``padded`` and ``trail`` are scratch. The
    arithmetic is ``_delta_blocks``': the running sums S of each edge-padded row,
    then (S[t+2l] - S[t+l]) - (S[t+l] - S[t]), then / l.
    """
    cols, reach = pieces[0].shape[1], 2 * span
    out = np.empty((SEQ_BLOCK_ROWS, cols))
    for t0, gram in ((t0, g) for g in pieces for t0 in range(0, len(g), SEQ_BLOCK_ROWS)):
        block = gram[t0 : t0 + SEQ_BLOCK_ROWS]
        s, rows = padded[: len(block), : cols + reach], out[: len(block)]
        s[:, :span], s[:, span:-span], s[:, -span:] = block[:, :1], block, block[:, -1:]
        np.cumsum(s, axis=1, out=s)
        np.subtract(s[:, reach:], s[:, span:-span], out=rows)
        rows -= np.subtract(s[:, span:-span], s[:, :-reach], out=trail[: len(block)])
        rows /= span
        rows *= scale
        yield rows


def retrieve_best(m: DistanceMatrix) -> MatchSet:
    """Argmin per query row; ties break toward the smallest reference index."""
    values = m.values
    # row by row: np.argmin(values, axis=1) would copy the whole read-only matrix
    idx = np.fromiter((row.argmin() for row in values), dtype=np.int64, count=m.query_count)
    return MatchSet(_seal(idx), _seal(values[np.arange(m.query_count), idx]))
