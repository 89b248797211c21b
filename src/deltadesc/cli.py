"""Command-line pipeline orchestrating the library end to end.

One subcommand per procedure: ``synth``, ``transform``, ``match``,
``calibrate``, ``evaluate``, ``rank-dims``, ``shuffle``, plus ``run`` which
chains transform -> (PCA) -> query tiles of distances -> (seqmatch) ->
retrieve -> evaluate in a single invocation. ``run`` and ``match`` read the
query once, from its file, as its tiles are matched: its rows go through the
transform and any reference-fitted projection, or as a span bank's source,
into the tiles, so no Q x D array of it is made. A fit on the query or on both
sides takes the transformed query as one tile; only a CSV query is read whole.
Staged invocations with float64 intermediate files reproduce the
single-invocation outputs byte for byte, except for span banks of two or more
spans without PCA: ``run`` matches both sides through products of their
series, with the query's filters carried from tile to tile, so the distances
agree only within rounding.

Exit codes: 0 success, 2 configuration error or out of memory, 3 data error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, fields
from itertools import chain, islice, tee
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import io as ddio
from .calibration import _check_span_args, estimate_span, self_distance_profile
from .evaluation import PrCurve, correct_matches, evaluate_pr, max_f1, precision_at_full_recall
from .evaluation import median_pair_products, rank_dimensions
from .matching import DistanceMatrix, MatchSet, _bank_shape, _bank_tiles
from .matching import distance_matrix, multi_delta_distance, retrieve_best, seq_match
from .reduction import PcaModel, pca_fit, pca_transform, project_rows
from .series import DescriptorSeries, GroundTruth, _check_finite, _check_radius, _seal
from .series import apply_permutation
from .synth import SynthParams, generate_traverse_pair
from .transform import EDGE_REPLICATE, VALID_ONLY, DeltaConfig, SpanBank, delta, delta_bank
from .transform import _delta_scales, _smooth_blocks, delta_rows, delta_valid_range, smooth

TRANSFORMS = ("raw", "smooth", "delta", "multi-delta")
FIT_SOURCES = ("ref", "query", "both")
# bytes of a query tile's live Q x R matrices: under seqmatch a tile's distances and
# seq_match's output share it, half each
MATCH_TILE_BYTES = 32 * 2**20


@contextmanager
def _stage(name: str):
    """Re-raise stage failures with the stage name so the CLI diagnostic names it. A failure
    that a stage has named keeps its one name: a query's late read fault, raised where the
    match stage asks for its rows, stays a ``[load]`` fault."""
    try:
        yield
    except (ValueError, ddio.DataError, OSError, MemoryError) as exc:
        if hasattr(exc, "stage"):
            raise
        # numpy's _ArrayMemoryError is not built from a message
        kind = MemoryError if isinstance(exc, MemoryError) else type(exc)
        named = kind(f"[{name}] {exc}")
        named.stage = name
        raise named from exc


def _staged(rows: Iterable, name: str) -> Iterator:
    """``rows``, with any failure while they are made named by stage ``name``."""
    with _stage(name):
        yield from rows


def _finite_rows(blocks: Iterable[np.ndarray], name: str) -> Iterator[np.ndarray]:
    """The rows of the query's row ``blocks``, made in stage ``name``: each block is checked
    to be finite there, and a non-finite value is named by its row in the query."""
    t0 = 0
    with _stage(name):
        for block in blocks:
            _check_finite(block, "descriptor", t0)
            t0 += len(block)
            yield from block


def _check_transform_flags(transform: str, window, spans, padding: str) -> None:
    """Reject a missing window and any transform flag that ``transform`` would silently ignore."""
    if padding not in (EDGE_REPLICATE, VALID_ONLY):
        raise ValueError(f"unknown padding {padding!r}")
    if window is not None and transform not in ("smooth", "delta"):
        raise ValueError(f"--window is read only by smooth and delta, not by {transform!r}")
    if spans is not None and transform != "multi-delta":
        raise ValueError(f"--spans is read only by multi-delta, not by {transform!r}")
    if padding != EDGE_REPLICATE and transform != "delta":
        raise ValueError(f"--padding {padding} is read only by delta, not by {transform!r}")
    if transform in ("smooth", "delta") and (window is None or int(window) < 1):
        raise ValueError(f"transform {transform!r} needs --window >= 1")


def _check_seqmatch_length(length: int) -> None:
    if int(length) < 1:
        raise ValueError("seqmatch length must be >= 1")


def _check_summary_flags(
    transform: str, window, seqmatch_length: int, pca_k, spans=None, padding=EDGE_REPLICATE
) -> None:
    """Reject values of the flags that summary.json records, as ``run`` and ``evaluate`` do."""
    if transform not in TRANSFORMS:
        raise ValueError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
    _check_transform_flags(transform, window, spans, padding)
    _check_seqmatch_length(seqmatch_length)
    if pca_k is not None and int(pca_k) < 1:
        raise ValueError("pca_k must be >= 1")


def _check_positions_flag(positions_path: Optional[str], radius_mode: str) -> None:
    if bool(positions_path) != (radius_mode == "meters"):
        raise ValueError("--radius-mode meters needs --ref-positions; no other mode reads it")


@dataclass
class RunConfig:
    """Everything one end-to-end pipeline invocation needs."""

    ref_path: str
    query_path: str
    out_dir: str
    gt_path: Optional[str] = None
    positions_path: Optional[str] = None
    transform: str = "raw"
    window: Optional[int] = None
    spans: Optional[Sequence[int]] = None
    padding: str = EDGE_REPLICATE
    seqmatch_length: int = 1
    pca_k: Optional[int] = None
    pca_fit_on: Optional[str] = None
    radius: float = 0.0
    radius_mode: str = "frames"

    def validate(self) -> None:
        _check_summary_flags(
            self.transform, self.window, self.seqmatch_length, self.pca_k, self.spans, self.padding
        )
        if self.padding == VALID_ONLY and not self.gt_path:
            raise ValueError("--padding valid-only restricts scoring under run and needs --gt")
        if self.transform == "multi-delta" and not self.spans:
            raise ValueError("multi-delta needs a non-empty --spans list")
        if any(int(s) < 1 for s in self.spans or ()):
            raise ValueError(f"--spans must all be >= 1, got {list(self.spans)}")
        if self.pca_fit_on not in (None, *FIT_SOURCES):
            raise ValueError(f"pca fit source must be one of {FIT_SOURCES}")
        if self.pca_fit_on is not None and self.pca_k is None:
            raise ValueError(f"--pca-fit {self.pca_fit_on} is read only with --pca-k")
        if self.radius_mode not in ("frames", "meters"):
            raise ValueError(f"radius_mode must be 'frames' or 'meters', got {self.radius_mode!r}")
        _check_radius(self.radius)
        unread = self.radius or self.radius_mode == "meters" or self.positions_path
        if unread and not self.gt_path:
            raise ValueError("--radius, --radius-mode meters and --ref-positions need --gt")
        _check_positions_flag(self.positions_path, self.radius_mode)


def _transform_members(
    series: DescriptorSeries,
    transform: str,
    window: Optional[int],
    spans: Optional[Sequence[int]] = None,
    bank: bool = False,
    padding: str = EDGE_REPLICATE,
) -> Sequence[DescriptorSeries]:
    """The series to match: a one-member list, or for multi-delta one delta per span.

    With ``bank`` they come as a ``delta_bank``, which builds no member: ask for
    one only where ``multi_delta_distance`` matches it through its series.
    """
    if transform == "multi-delta":
        if bank:
            return delta_bank(series, spans)
        return [delta(series, DeltaConfig(window=s)) for s in spans]
    if transform == "smooth":
        return [smooth(series, window)]
    if transform == "delta":
        return [delta(series, DeltaConfig(window=window, padding=padding))]
    return [series]


class QueryRows(NamedTuple):
    """A query that ``_match`` reads as it matches: its frame count, each member's dimension,
    its frames in order, each a tuple of the members' rows, valid until the next frame is
    asked for, and for a span bank its spans, whose one member is the bank's source."""

    count: int
    dims: tuple[int, ...]
    frames: Iterator[tuple[np.ndarray, ...]]
    spans: tuple[int, ...] = ()


def _query_rows(
    rows: Iterator[np.ndarray],
    shape: tuple[int, int],
    transform: str,
    window: Optional[int],
    spans: Sequence[int],
    models: Sequence[PcaModel],
    bank: bool = False,
) -> QueryRows:
    """``_transform_members`` of the query whose rows ``rows`` yields, projected by ``models``
    if there are any, each row made as ``_match`` asks for it: no member and no loaded query
    is built. With ``bank``, the rows are the bank's source."""
    count, dim = shape
    if transform == "smooth":
        members = [_finite_rows(_smooth_blocks(rows, count, window), "transform")]
    elif transform == "delta":
        members = [_finite_rows(delta_rows(rows, window), "transform")]
    elif transform == "raw" or bank:
        # copied as taken: a row still referenced once the stream ends must not keep its buffer
        members = [map(np.copy, rows)]
    else:  # the spans' deltas read the rows at different lags, so they read copied rows
        lags = zip(tee(map(np.copy, rows), len(spans)), spans)
        members = [_finite_rows(delta_rows(r, span), "transform") for r, span in lags]
    if models:
        members = [_finite_rows(project_rows(m, r, count), "pca") for m, r in zip(models, members)]
    dims = tuple(m.k for m in models) or (dim,) * len(members)
    return QueryRows(count, dims, zip(*members), tuple(spans) if bank else ())


def _pca_fit_series(tq: DescriptorSeries, tr: DescriptorSeries, fit_on: str) -> DescriptorSeries:
    """The series a query or both-sides fit takes; a reference fit takes the reference members."""
    return DescriptorSeries(_seal(np.vstack([tr.data, tq.data]))) if fit_on == "both" else tq


def _project(models: Sequence[PcaModel], members: list) -> None:
    """Replace each member with its model's projection, so no name keeps a pre-PCA member alive."""
    for i, model in enumerate(models):
        members[i] = pca_transform(model, members[i])


def _check_ground_truth(
    gt: GroundTruth, path: str, q_count: int, r_count: Optional[int] = None
) -> None:
    """Raise a data error naming ``path`` unless ``gt`` fits the traverses."""
    try:
        gt.check_traverses(q_count, r_count)
    except ValueError as exc:
        raise ddio.DataError(f"{path}: {exc}") from exc


def _match(
    query: QueryRows,
    r_members: Sequence[DescriptorSeries],
    seqmatch_length: int,
    out_distances: Optional[str] = None,
) -> MatchSet:
    """Distances (min over pairings for banks), optional seqmatch, best reference per query.

    The query's rows are read from its ``QueryRows`` stream as the tiles need
    them. Every query takes one tile rule: tiles of ``MATCH_TILE_BYTES``, halved
    with L > 1 for seq_match's output, each widened by seqmatch's halo, L//2
    rows before and ceil(L/2) - 1 after, so every kept row sums the same
    in-bounds shifts as the Q x R matrix would. Members take their tiles from
    ``_row_tiles``, a span bank's source (against a reference bank of two or
    more spans) from ``_bank_matrices``. The ``out_distances`` file, if named,
    checks the free disk before the first tile and then takes each tile's kept
    rows.
    """
    length = int(seqmatch_length)
    with _stage("distance"):
        q_count, r_count = query.count, _bank_shape(r_members)[0]
    rows = max(1, MATCH_TILE_BYTES // (8 * r_count))  # query rows of the whole budget
    if length > 1:
        rows = max(1, rows // 2)
    kept = [(b0, min(b0 + rows, q_count)) for b0 in range(0, q_count, rows)]
    widened = [(max(0, b0 - length // 2), min(q_count, b1 + (length + 1) // 2 - 1))
               for b0, b1 in kept]
    if query.spans:
        tiles = _bank_matrices(query, r_members, widened)
    else:
        tiles = (distance_matrix(t[0], r_members[0]) if len(t) * len(r_members) == 1
                 else multi_delta_distance(t, r_members) for t in _row_tiles(query, widened))
    idx, dist = np.empty(q_count, np.int64), np.empty(q_count)
    writer = out_distances and ddio.distance_rows_writer(out_distances, q_count, r_count)
    with writer or nullcontext(lambda rows: None) as write_rows:
        for (b0, b1), (a0, a1) in zip(kept, widened):
            m = None  # release the last tile's matrix before this one is built
            with _stage("distance"):
                m = next(tiles)
            if length > 1:
                with _stage("seqmatch"):
                    m = seq_match(m, length)
            with _stage("retrieve"):
                best = retrieve_best(m)
            keep = slice(b0 - a0, b1 - a0)
            idx[b0:b1], dist[b0:b1] = best.ref_indices[keep], best.distances[keep]
            write_rows(m.values[keep])
    return MatchSet(_seal(idx), _seal(dist))


def _bank_matrices(
    query: QueryRows, r_members: SpanBank, widened: Sequence[tuple[int, int]]
) -> Iterator[DistanceMatrix]:
    """The distances of each tile (a0, a1) of ``widened``, in order, for the query span bank
    whose source rows ``query.frames`` yields. A bank of one tile is read whole and
    matched as a ``SpanBank``; a longer one through ``_bank_tiles``, its rows read
    once and each span's row scales taken from them once, a block ahead of the
    tiles. A non-finite delta value is a ``[transform]`` fault named by its row.
    """
    if len(widened) == 1:
        (source,) = next(_row_tiles(query, widened))
        with _stage("transform"):  # the bank's norms check its deltas
            bank = SpanBank(source, query.spans)
        yield multi_delta_distance(bank, r_members)
        return
    rows, *lags = tee((frame[0] for frame in query.frames), 1 + len(query.spans))
    scales = [np.empty(query.count) for _ in query.spans]
    blocks = [chain.from_iterable(_staged(_delta_scales(r, span), "transform"))
              for r, span in zip(lags, query.spans)]

    def read(t0: int, t1: int) -> np.ndarray:
        out = np.empty((t1 - t0, query.dims[0]))
        for t, row, *values in zip(range(t0, t1), rows, *blocks):
            out[t - t0] = row
            for scale, value in zip(scales, values):
                scale[t] = value
        return out

    # map keeps no tile: each goes once its seqmatch is done
    yield from map(DistanceMatrix, map(_seal, _bank_tiles(read, query.spans, scales,
                                                           r_members, widened)))


def _row_tiles(
    query: QueryRows, widened: Sequence[tuple[int, int]]
) -> Iterator[list[DescriptorSeries]]:
    """For each (a0, a1) of ``widened``, in order, the members' rows [a0, a1) as a list of
    series: rows it shares with the tile before come from that tile, the rest from
    ``query.frames``."""
    last, l0 = [], 0  # the tile before and its first row
    for a0, a1 in widened:
        tile = [np.empty((a1 - a0, dim)) for dim in query.dims]
        shared = l0 + len(last[0]) - a0 if last else 0
        for new, old in zip(tile, last):
            new[:shared] = old[a0 - l0 :]
        for i, frame in enumerate(islice(query.frames, a1 - a0 - shared), shared):
            for new, row in zip(tile, frame):
                new[i] = row
        if a1 == widened[-1][1]:  # end the stream, so its buffers go before this tile is matched
            next(query.frames, None)
        last, l0 = tile, a0
        yield [DescriptorSeries(_seal(t)) for t in tile]


def _score(
    matches: MatchSet,
    gt: GroundTruth,
    ref_positions: Optional[np.ndarray],
    out_matches: Optional[Path],
    out_pr: Optional[Path],
    query_valid_range: Optional[tuple[int, int]] = None,
) -> PrCurve:
    """PR curve of the matches; writes the scored match CSV and the curve where asked."""
    with _stage("evaluate"):
        curve = evaluate_pr(matches, gt, ref_positions, query_valid_range)
        correct = correct_matches(matches, gt, ref_positions)
    if out_matches:
        ddio.write_matches_csv(out_matches, matches, correct)
    if out_pr:
        ddio.write_pr_csv(out_pr, curve)
    return curve


def _summary(
    curve: Optional[PrCurve],
    gt: Optional[GroundTruth],
    transform: Optional[str],
    window: Optional[int],
    seqmatch_length: int,
    pca_k: Optional[int],
) -> dict:
    """summary.json's fixed key set; scores and radius are None without ground truth."""
    return {
        "precision_at_full_recall": precision_at_full_recall(curve) if curve is not None else None,
        "max_f1": max_f1(curve) if curve is not None else None,
        "radius": gt.radius if gt is not None else None,
        "radius_mode": gt.radius_mode if gt is not None else None,
        "transform": transform,
        "window": window,
        "seqmatch_length": seqmatch_length,
        "pca_k": pca_k,
    }


def run_pipeline(cfg: RunConfig) -> dict:
    """Execute the full pipeline and write matches.csv, pr.csv, summary.json.

    Returns the summary dictionary. Raises ValueError for configuration
    problems and DataError/OSError for input problems; the CLI maps these to
    exit codes 2 and 3.
    """
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # One order for every run: load the reference and open the query, whose header the checks
    # read; transform the reference, and fit and project it under a reference fit; then read
    # the query. The loaded reference goes before a fit, else once the query's first rows
    # exist: released before that read, it raised long-route from 129 to 143 MiB.
    ref_fit = cfg.pca_k is not None and cfg.pca_fit_on in (None, "ref")
    query_fit = cfg.pca_k is not None and not ref_fit
    # the one place that orders a span bank: distinct spans, shortest first
    spans = sorted({int(s) for s in cfg.spans or ()})
    # Both sides are span banks, each its source and no member, where multi_delta_distance
    # matches them through their sources: two or more spans without PCA.
    bank = cfg.transform == "multi-delta" and len(spans) > 1 and cfg.pca_k is None
    with ExitStack() as stack:  # closes the query on every exit path
        with _stage("load"):
            ref = ddio.read_descriptors(cfg.ref_path)
            q_shape, q_rows = stack.enter_context(ddio.open_descriptors(cfg.query_path))
            q_count, q_dim = q_shape
            if q_dim != ref.dim:
                raise ddio.DataError(f"{cfg.query_path}: {q_dim} dimensions, "
                                     f"the reference has {ref.dim}")
            gt = ref_positions = None
            if cfg.gt_path:
                gt = ddio.read_ground_truth(cfg.gt_path, cfg.radius_mode, cfg.radius)
                _check_ground_truth(gt, cfg.gt_path, q_count, ref.frame_count)
            if cfg.positions_path:
                ref_positions = ddio.read_positions(cfg.positions_path)
                if len(ref_positions) != ref.frame_count:
                    raise ddio.DataError(f"{cfg.positions_path}: {len(ref_positions)} positions "
                                         f"for {ref.frame_count} reference frames")
        with _stage("transform"):
            # frame-aligned members; valid-only restricts scoring to the unpadded queries
            scored = delta_valid_range(q_count, cfg.window) if cfg.padding == VALID_ONLY else None
            r_members = _transform_members(ref, cfg.transform, cfg.window, spans, bank)
        with _stage("pca"):
            ref = None if ref_fit else ref
            models = [pca_fit(r, cfg.pca_k) for r in r_members] if ref_fit else []
            _project(models, r_members)
        with _stage("load"):
            rows = chain.from_iterable(_staged(q_rows(), "load"))
            rows, ref = chain([next(rows)], rows), None
        with _stage("transform"):
            query = _query_rows(rows, q_shape, cfg.transform, cfg.window, spans, models, bank)
        if query_fit:
            with _stage("transform"):  # a fit reads every row before the first is projected
                query = next(_row_tiles(query, [(0, q_count)]))
            with _stage("pca"):  # fitted on the query or on both sides, one per member
                models = [
                    pca_fit(_pca_fit_series(q, r, cfg.pca_fit_on), cfg.pca_k)
                    for q, r in zip(query, r_members)
                ]
                _project(models, r_members)
                _project(models, query)
            query = QueryRows(q_count, tuple(m.k for m in models), zip(*(q.data for q in query)))
        matches = _match(query, r_members, cfg.seqmatch_length)
    with _stage("pca"):
        for i, model in enumerate(models):
            # saved once the query has been read to its end, so a bad query leaves no model
            name = f"pca_model_span{spans[i]}.bin" if len(models) > 1 else "pca_model.bin"
            ddio.save_pca_model(out_dir / name, model)

    curve = None
    if gt is None:
        ddio.write_matches_csv(out_dir / "matches.csv", matches)
    else:
        curve = _score(
            matches, gt, ref_positions, out_dir / "matches.csv", out_dir / "pr.csv", scored
        )

    window = int(cfg.window) if cfg.transform in ("smooth", "delta") else None
    pca_k = int(cfg.pca_k) if cfg.pca_k is not None else None
    summary = _summary(curve, gt, cfg.transform, window, int(cfg.seqmatch_length), pca_k)
    with _stage("write"):
        ddio.write_summary_json(out_dir / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _parse_warp(text: str) -> tuple[tuple[float, float], ...]:
    try:
        pairs = []
        for chunk in text.split(","):
            s, t = chunk.split(":")
            pairs.append((float(s), float(t)))
        return tuple(pairs)
    except ValueError as exc:
        raise ValueError(f"cannot parse warp {text!r}; expected 's:t,s:t,...'") from exc


def _write_traverse_pair(
    args: argparse.Namespace, ref: DescriptorSeries, query: DescriptorSeries, gt: GroundTruth
) -> int:
    ddio.write_descriptors(args.out_ref, ref, dtype=args.dtype)
    ddio.write_descriptors(args.out_query, query, dtype=args.dtype)
    ddio.write_ground_truth(args.out_gt, gt)
    print(f"wrote {args.out_ref}, {args.out_query}, {args.out_gt}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    params = SynthParams(
        frames=args.frames,
        dims=args.dims,
        latent_smooth_window=args.latent_smooth_window,
        offset_scale=args.offset_scale,
        noise_scale=args.noise_scale,
        warp=_parse_warp(args.warp) if args.warp else None,
        seed=args.seed,
    )
    return _write_traverse_pair(args, *generate_traverse_pair(params))


def cmd_transform(args: argparse.Namespace) -> int:
    _check_transform_flags(args.transform, args.window, None, args.padding)
    series = ddio.read_descriptors(args.input)
    with _stage("transform"):
        (out,) = _transform_members(series, args.transform, args.window, padding=args.padding)
    ddio.write_descriptors(args.output, out, dtype=args.dtype)
    print(f"wrote {args.output}")
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    _check_seqmatch_length(args.seqmatch_length)
    with ExitStack() as stack:  # closes the query files on every exit path
        opened = [stack.enter_context(ddio.open_descriptors(p)) for p in args.query]
        refs = [ddio.read_descriptors(p) for p in args.ref]
        shapes = [shape for shape, _ in opened]
        with _stage("distance"):  # read in step, the files must agree in shape up front
            if len(set(shapes)) > 1:
                raise ValueError("bank members must share frame count and dimension")
        members = [chain.from_iterable(_staged(rows(), "load")) for _, rows in opened]
        query = QueryRows(shapes[0][0], tuple(dim for _, dim in shapes), zip(*members))
        matches = _match(query, refs, args.seqmatch_length, args.out_distances)
    ddio.write_matches_csv(args.out_matches, matches)
    print(f"wrote {args.out_matches}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    _check_span_args(args.threshold, args.multiplier, args.d_max)
    series = ddio.read_descriptors(args.input)
    d_max = args.d_max or max(1, min(series.frame_count // 4, 512))
    with _stage("calibrate"):
        profile = self_distance_profile(series, d_max)
        # the span first, so a profile that never crosses the threshold is not written
        span = estimate_span(profile, threshold=args.threshold, multiplier=args.multiplier)
        if args.out_profile:
            ddio.write_profile_csv(args.out_profile, profile)
    print(span)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_radius(args.radius)
    _check_positions_flag(args.ref_positions, args.radius_mode)
    annotations = (args.transform, args.window, args.seqmatch_length, args.pca_k)
    if annotations != (None, None, 1, None) and not args.out_summary:
        raise ValueError("--transform, --window, --seqmatch-length and --pca-k need --out-summary")
    if args.out_summary:  # checked as run checks them; no --transform is checked as raw
        _check_summary_flags(args.transform or "raw", *annotations[1:])
    matches = ddio.read_matches_csv(args.matches)
    gt = ddio.read_ground_truth(args.gt, radius_mode=args.radius_mode, radius=args.radius)
    _check_ground_truth(gt, args.gt, matches.query_count)
    ref_positions = ddio.read_positions(args.ref_positions) if args.ref_positions else None
    curve = _score(matches, gt, ref_positions, args.out_matches, args.out_pr)
    summary = _summary(curve, gt, args.transform, args.window, args.seqmatch_length, args.pca_k)
    if args.out_summary:
        ddio.write_summary_json(args.out_summary, summary)
    print(
        f"precision_at_full_recall={summary['precision_at_full_recall']!r} "
        f"max_f1={summary['max_f1']!r}"
    )
    return 0


def _read_pair(args: argparse.Namespace) -> tuple[DescriptorSeries, DescriptorSeries, GroundTruth]:
    """The ``--ref``, ``--query`` and ``--gt`` files, the ground truth checked against both."""
    ref, query = ddio.read_descriptors(args.ref), ddio.read_descriptors(args.query)
    gt = ddio.read_ground_truth(args.gt)
    _check_ground_truth(gt, args.gt, query.frame_count, ref.frame_count)
    return ref, query, gt


def cmd_rank_dims(args: argparse.Namespace) -> int:
    if args.top_k < 1:
        raise ValueError(f"--top-k must be >= 1, got {args.top_k}")
    ref, query, gt = _read_pair(args)
    with _stage("rank-dims"):
        medians = median_pair_products(ref, query, gt)
        order = rank_dimensions(medians, args.top_k)
    if args.out:
        ddio.write_dimension_ranking_csv(args.out, order, medians)
    print(" ".join(str(int(d)) for d in order))
    return 0


def cmd_shuffle(args: argparse.Namespace) -> int:
    pair = _read_pair(args)
    with _stage("shuffle"):
        shuffled = apply_permutation(*pair, args.seed)
    return _write_traverse_pair(args, *shuffled)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    summary = run_pipeline(cfg)
    print(
        f"wrote {Path(args.out_dir) / 'summary.json'}: "
        f"precision_at_full_recall={summary['precision_at_full_recall']!r} "
        f"max_f1={summary['max_f1']!r}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_dtype(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--dtype", choices=("float32", "float64"), default=default,
                   help=f"payload precision for written descriptor files (default {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltadesc",
        description="Change-based descriptor matching and evaluation for repeated route traverses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic traverse pair with ground truth")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--latent-smooth-window", type=int, default=1)
    p.add_argument("--offset-scale", type=float, default=0.0)
    p.add_argument("--noise-scale", type=float, default=0.0)
    p.add_argument("--warp", type=str, default=None,
                   help="piecewise-linear warp control points 'src:tgt,src:tgt,...' over [0,1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-ref", required=True)
    p.add_argument("--out-query", required=True)
    p.add_argument("--out-gt", required=True)
    _add_dtype(p, "float32")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("transform", help="smooth or delta-transform one descriptor file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--transform", choices=("smooth", "delta"), required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--padding", choices=(EDGE_REPLICATE, VALID_ONLY), default=EDGE_REPLICATE)
    _add_dtype(p, "float64")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("match", help="match query files against reference files")
    p.add_argument("--query", nargs="+", required=True,
                   help="one file, or several frame-aligned files forming a span bank")
    p.add_argument("--ref", nargs="+", required=True)
    p.add_argument("--seqmatch-length", type=int, default=1)
    p.add_argument("--out-matches", required=True)
    p.add_argument("--out-distances", default=None)
    p.set_defaults(handler=cmd_match)

    p = sub.add_parser("calibrate", help="estimate the span lower bound from self-similarity")
    p.add_argument("--input", required=True)
    p.add_argument("--d-max", type=int, default=None,
                   help="largest frame offset to probe (default: T/4, capped at 512)")
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument("--multiplier", type=float, default=1.0)
    p.add_argument("--out-profile", default=None)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("evaluate", help="score a match CSV against ground truth")
    p.add_argument("--matches", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--radius", type=float, default=0.0)
    p.add_argument("--radius-mode", choices=("frames", "meters"), default="frames")
    p.add_argument("--ref-positions", default=None)
    p.add_argument("--out-matches", default=None,
                   help="rewrite the match CSV with a correctness column")
    p.add_argument("--out-pr", default=None)
    p.add_argument("--out-summary", default=None)
    p.add_argument("--transform", default=None, help="summary annotation only")
    p.add_argument("--window", type=int, default=None, help="summary annotation only")
    p.add_argument("--seqmatch-length", type=int, default=1, help="summary annotation only")
    p.add_argument("--pca-k", type=int, default=None, help="summary annotation only")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("rank-dims", help="rank dimensions by true-pair co-activation")
    p.add_argument("--ref", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--top-k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_rank_dims)

    p = sub.add_parser("shuffle", help="order-preserving shuffle of a traverse pair")
    p.add_argument("--ref", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-ref", required=True)
    p.add_argument("--out-query", required=True)
    p.add_argument("--out-gt", required=True)
    _add_dtype(p, "float64")
    p.set_defaults(handler=cmd_shuffle)

    p = sub.add_parser("run", help="full pipeline: transform, PCA, match, seqmatch, evaluate")
    # dests are RunConfig's field names, so cmd_run copies the namespace field by field
    p.add_argument("--ref", dest="ref_path", required=True)
    p.add_argument("--query", dest="query_path", required=True)
    p.add_argument("--gt", dest="gt_path", default=None)
    p.add_argument("--ref-positions", dest="positions_path", default=None)
    p.add_argument("--transform", choices=TRANSFORMS, default="raw")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--spans", type=int, nargs="+", default=None)
    p.add_argument("--padding", choices=(EDGE_REPLICATE, VALID_ONLY), default=EDGE_REPLICATE)
    p.add_argument("--seqmatch-length", type=int, default=1)
    p.add_argument("--pca-k", type=int, default=None)
    p.add_argument("--pca-fit", dest="pca_fit_on", choices=FIT_SOURCES, default=None)
    p.add_argument("--radius", type=float, default=0.0)
    p.add_argument("--radius-mode", choices=("frames", "meters"), default="frames")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ddio.DataError, OSError) as exc:
        print(f"deltadesc: data error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"deltadesc: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
