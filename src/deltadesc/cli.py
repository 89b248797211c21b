"""Command-line pipeline orchestrating the library end to end.

One subcommand per procedure: ``synth``, ``transform``, ``match``,
``calibrate``, ``evaluate``, ``rank-dims``, ``shuffle``, plus ``run`` which
chains transform -> (PCA) -> distance matrix -> (seqmatch) -> retrieve ->
evaluate in a single invocation. Staged invocations with float64 intermediate
files reproduce the single-invocation outputs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import io as ddio
from .calibration import estimate_span, self_distance_profile
from .evaluation import PrCurve, correct_matches, evaluate_pr, max_f1, precision_at_full_recall
from .evaluation import median_pair_products, rank_dimensions
from .matching import DistanceMatrix, MatchSet
from .matching import distance_matrix, multi_delta_distance, retrieve_best, seq_match
from .reduction import pca_fit, pca_transform
from .series import DescriptorSeries, GroundTruth, _seal, apply_permutation
from .synth import SynthParams, generate_traverse_pair
from .transform import EDGE_REPLICATE, VALID_ONLY, DeltaConfig, delta, delta_bank, smooth

TRANSFORMS = ("raw", "smooth", "delta", "multi-delta")
FIT_SOURCES = ("ref", "query", "both")


@contextmanager
def _stage(name: str):
    """Re-raise stage failures with the stage name so the CLI diagnostic names it."""
    try:
        yield
    except (ValueError, ddio.DataError, OSError) as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def _check_unread_flags(transform: str, window, spans, padding: str) -> None:
    """Reject a transform flag that ``transform`` would silently ignore."""
    if padding not in (EDGE_REPLICATE, VALID_ONLY):
        raise ValueError(f"unknown padding {padding!r}")
    if window is not None and transform not in ("smooth", "delta"):
        raise ValueError(f"--window is read only by smooth and delta, not by {transform!r}")
    if spans is not None and transform != "multi-delta":
        raise ValueError(f"--spans is read only by multi-delta, not by {transform!r}")
    if padding != EDGE_REPLICATE and transform != "delta":
        raise ValueError(f"--padding {padding} is read only by delta, not by {transform!r}")


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
    pca_fit_on: str = "ref"
    radius: float = 0.0
    radius_mode: str = "frames"

    def validate(self) -> None:
        if self.transform not in TRANSFORMS:
            raise ValueError(f"transform must be one of {TRANSFORMS}, got {self.transform!r}")
        _check_unread_flags(self.transform, self.window, self.spans, self.padding)
        if self.transform in ("smooth", "delta"):
            if self.window is None or int(self.window) < 1:
                raise ValueError(f"transform {self.transform!r} needs --window >= 1")
        if self.padding == VALID_ONLY and not self.gt_path:
            raise ValueError("--padding valid-only restricts scoring under run and needs --gt")
        if self.transform == "multi-delta" and not self.spans:
            raise ValueError("multi-delta needs a non-empty --spans list")
        if any(int(s) < 1 for s in self.spans or ()):
            raise ValueError(f"--spans must all be >= 1, got {list(self.spans)}")
        if int(self.seqmatch_length) < 1:
            raise ValueError("seqmatch length must be >= 1")
        if self.pca_k is not None and int(self.pca_k) < 1:
            raise ValueError("pca_k must be >= 1")
        if self.pca_fit_on not in FIT_SOURCES:
            raise ValueError(f"pca fit source must be one of {FIT_SOURCES}")
        if self.radius_mode not in ("frames", "meters"):
            raise ValueError(f"radius_mode must be 'frames' or 'meters', got {self.radius_mode!r}")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        if self.radius_mode == "meters" and self.gt_path and not self.positions_path:
            raise ValueError("meters mode requires reference positions")


def _transform_members(
    series: DescriptorSeries,
    transform: str,
    window: Optional[int],
    padding: str,
    spans: Optional[Sequence[int]] = None,
) -> list[DescriptorSeries]:
    """The series to match: one per span for multi-delta, otherwise one."""
    if transform == "multi-delta":
        return list(delta_bank(series, spans))
    if transform == "smooth":
        return [smooth(series, window)]
    if transform == "delta":
        return [delta(series, DeltaConfig(window=window, padding=padding))]
    return [series]


def _pca_fit_series(tq: DescriptorSeries, tr: DescriptorSeries, fit_on: str) -> DescriptorSeries:
    if fit_on == "both":
        return DescriptorSeries(_seal(np.vstack([tr.data, tq.data])))
    return tr if fit_on == "ref" else tq


def _check_dense_fits(q_count: int, r_count: int, matrices: int) -> None:
    """Refuse a dense match whose Q x R float64 matrices exceed physical memory."""
    need = matrices * q_count * r_count * 8
    try:
        ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return  # physical memory unknown on this platform
    if need > ram:
        raise ValueError(
            f"matching {q_count} query x {r_count} reference frames holds {matrices} dense "
            f"float64 matrices, {need / 2**30:.1f} GiB, more than the "
            f"{ram / 2**30:.1f} GiB of physical memory; "
            "split the traverses into shorter segments or subsample their frames"
        )


def _match(
    q_members: list[DescriptorSeries], r_members: list[DescriptorSeries], seqmatch_length: int
) -> tuple[DistanceMatrix, MatchSet]:
    """Distances (min over pairings for banks), optional seqmatch, best reference per query."""
    pairings = len(q_members) * len(r_members)
    with _stage("distance"):
        # a second matrix: seq_match's output, or the running minimum over pairings
        matrices = 2 if seqmatch_length > 1 or pairings > 1 else 1
        _check_dense_fits(q_members[0].frame_count, r_members[0].frame_count, matrices)
        if pairings == 1:
            m = distance_matrix(q_members[0], r_members[0])
        else:
            m = multi_delta_distance(q_members, r_members)
    if seqmatch_length > 1:
        with _stage("seqmatch"):
            m = seq_match(m, seqmatch_length)
    with _stage("retrieve"):
        return m, retrieve_best(m)


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

    with _stage("load"):
        ref = ddio.read_descriptors(cfg.ref_path)
        query = ddio.read_descriptors(cfg.query_path)
        gt = (
            ddio.read_ground_truth(cfg.gt_path, radius_mode=cfg.radius_mode, radius=cfg.radius)
            if cfg.gt_path
            else None
        )
        ref_positions = ddio.read_positions(cfg.positions_path) if cfg.positions_path else None

    # the one place that orders a span bank: distinct spans, shortest first
    spans = sorted({int(s) for s in cfg.spans or ()})
    with _stage("transform"):
        # frame-aligned members; valid-only restricts scoring to the unpadded queries
        q_members, r_members = (
            _transform_members(series, cfg.transform, cfg.window, EDGE_REPLICATE, spans)
            for series in (query, ref)
        )
        scored = q_members[0].valid_range if cfg.padding == VALID_ONLY else None
        if scored is not None and scored[0] >= scored[1]:
            raise ValueError("series too short for span")
    # the members replace the loaded series: release them before PCA and matching
    del query, ref
    if cfg.pca_k is not None:
        with _stage("pca"):
            # one model per bank member, named by its span
            names = (
                ["pca_model.bin"]
                if len(q_members) == 1
                else [f"pca_model_span{s}.bin" for s in spans]
            )
            # index in place so that no name keeps a pre-PCA member alive
            for i, name in enumerate(names):
                model = pca_fit(
                    _pca_fit_series(q_members[i], r_members[i], cfg.pca_fit_on), cfg.pca_k
                )
                q_members[i] = pca_transform(model, q_members[i])
                r_members[i] = pca_transform(model, r_members[i])
                ddio.save_pca_model(out_dir / name, model)

    _, matches = _match(q_members, r_members, cfg.seqmatch_length)

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
    _check_unread_flags(args.transform, args.window, None, args.padding)
    series = ddio.read_descriptors(args.input)
    with _stage("transform"):
        (out,) = _transform_members(series, args.transform, args.window, args.padding)
    ddio.write_descriptors(args.output, out, dtype=args.dtype)
    print(f"wrote {args.output}")
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    queries = [ddio.read_descriptors(p) for p in args.query]
    refs = [ddio.read_descriptors(p) for p in args.ref]
    m, matches = _match(queries, refs, args.seqmatch_length)
    ddio.write_matches_csv(args.out_matches, matches)
    if args.out_distances:
        ddio.write_distance_matrix(args.out_distances, m)
    print(f"wrote {args.out_matches}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    series = ddio.read_descriptors(args.input)
    d_max = args.d_max
    if d_max is None:
        d_max = max(1, min(series.frame_count // 4, 512))
    with _stage("calibrate"):
        profile = self_distance_profile(series, d_max)
        if args.out_profile:
            ddio.write_profile_csv(args.out_profile, profile)
        span = estimate_span(profile, threshold=args.threshold, multiplier=args.multiplier)
    print(span)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    matches = ddio.read_matches_csv(args.matches)
    gt = ddio.read_ground_truth(args.gt, radius_mode=args.radius_mode, radius=args.radius)
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


def cmd_rank_dims(args: argparse.Namespace) -> int:
    ref = ddio.read_descriptors(args.ref)
    query = ddio.read_descriptors(args.query)
    gt = ddio.read_ground_truth(args.gt)
    with _stage("rank-dims"):
        medians = median_pair_products(ref, query, gt)
        order = rank_dimensions(medians, args.top_k)
    if args.out:
        ddio.write_dimension_ranking_csv(args.out, order, medians)
    print(" ".join(str(int(d)) for d in order))
    return 0


def cmd_shuffle(args: argparse.Namespace) -> int:
    ref = ddio.read_descriptors(args.ref)
    query = ddio.read_descriptors(args.query)
    gt = ddio.read_ground_truth(args.gt)
    with _stage("shuffle"):
        shuffled = apply_permutation(ref, query, gt, args.seed)
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
    p.add_argument("--pca-fit", dest="pca_fit_on", choices=FIT_SOURCES, default="ref")
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
    except ValueError as exc:
        print(f"deltadesc: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
