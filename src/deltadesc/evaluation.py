"""Ground-truth scoring: PR curves, scalar summaries, and dimension ranking.

A retrieved match is correct when it falls within the localization radius of
the true reference frame, measured either in frame indices or in meters
between reference positions. Precision-recall curves sweep the retrieval
threshold over the set of observed best-match distances, so they are exact
rank statistics rather than grid approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matching import MatchSet
from .series import DescriptorSeries, GroundTruth, _freeze, _seal


@dataclass(frozen=True)
class PrCurve:
    """Threshold sweep points plus the inputs needed for scalar summaries.

    Points are ordered by increasing threshold; ``retrieved`` means best-match
    distance <= threshold, precision is correct_retrieved / retrieved (1.0
    when nothing is retrieved) and recall is correct_retrieved / query_count.
    """

    thresholds: np.ndarray
    precisions: np.ndarray
    recalls: np.ndarray
    radius: float
    radius_mode: str
    correct_total: int
    query_count: int

    def __post_init__(self) -> None:
        for name in ("thresholds", "precisions", "recalls"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if not (self.thresholds.size == self.precisions.size == self.recalls.size >= 1):
            raise ValueError("curve needs at least one (threshold, precision, recall) point")

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.thresholds, self.precisions, self.recalls])


def correct_matches(
    matches: MatchSet, gt: GroundTruth, ref_positions: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean mask of queries whose best match lies within the localization radius."""
    if gt.radius_mode == "frames":
        return np.abs(matches.ref_indices - gt.pairs) <= gt.radius
    if ref_positions is None:
        raise ValueError("meters mode requires reference positions")
    pos = np.asarray(ref_positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"reference positions must be R x 2, got shape {pos.shape}")
    ref_count = pos.shape[0]
    gt.check_reference(ref_count)
    if int(matches.ref_indices.max()) >= ref_count:
        raise ValueError("match index out of range for the given positions")
    gap = np.linalg.norm(pos[matches.ref_indices] - pos[gt.pairs], axis=1)
    return gap <= gt.radius


def evaluate_pr(
    matches: MatchSet,
    gt: GroundTruth,
    ref_positions: Optional[np.ndarray] = None,
    query_valid_range: Optional[tuple[int, int]] = None,
) -> PrCurve:
    """PR curve over the observed best-match distances.

    ``ref_positions`` (R x 2, meters) is required in meters mode.
    ``query_valid_range`` optionally restricts scoring to a half-open frame
    interval, e.g. to drop padding-affected rows; the default scores every
    query, padding included.
    """
    if matches.query_count != gt.query_count:
        raise ValueError(
            f"match set covers {matches.query_count} queries, ground truth {gt.query_count}"
        )
    correct = correct_matches(matches, gt, ref_positions)
    distances = matches.distances
    if query_valid_range is not None:
        start, end = int(query_valid_range[0]), int(query_valid_range[1])
        if not 0 <= start < end <= matches.query_count:
            raise ValueError(f"query_valid_range {(start, end)} selects no queries")
        correct = correct[start:end]
        distances = distances[start:end]
    q_count = distances.size

    order = np.argsort(distances, kind="stable")
    d_sorted = distances[order]
    cum_correct = np.cumsum(correct[order])
    # last index of each tie group = one point per unique observed distance
    last = np.nonzero(np.append(np.diff(d_sorted) != 0.0, True))[0]
    retrieved = (last + 1).astype(np.float64)
    correct_retrieved = cum_correct[last].astype(np.float64)
    precision = np.where(retrieved > 0, correct_retrieved / np.maximum(retrieved, 1.0), 1.0)
    recall = correct_retrieved / q_count
    return PrCurve(
        thresholds=_seal(d_sorted[last]),
        precisions=_seal(precision),
        recalls=_seal(recall),
        radius=gt.radius,
        radius_mode=gt.radius_mode,
        correct_total=int(correct.sum()),
        query_count=q_count,
    )


def precision_at_full_recall(curve: PrCurve) -> float:
    """Precision with every query's best match retrieved: correct / query count."""
    return curve.correct_total / curve.query_count


def max_f1(curve: PrCurve) -> float:
    """Maximum over curve points of 2PR/(P+R), taking 0 where P + R = 0."""
    p, r = curve.precisions, curve.recalls
    denom = p + r
    f1 = np.where(denom > 0.0, 2.0 * p * r / np.where(denom > 0.0, denom, 1.0), 0.0)
    return float(f1.max())


def median_pair_products(
    ref: DescriptorSeries, query: DescriptorSeries, gt: GroundTruth
) -> np.ndarray:
    """Per-dimension median of element-wise products over true pairs."""
    if ref.dim != query.dim:
        raise ValueError(f"dimension mismatch: reference D={ref.dim}, query D={query.dim}")
    if gt.query_count != query.frame_count:
        raise ValueError(
            f"ground truth covers {gt.query_count} queries, expected {query.frame_count}"
        )
    gt.check_reference(ref.frame_count)
    return np.median(query.data * ref.data[gt.pairs], axis=0)


def rank_dimensions(medians: np.ndarray, top_k: int) -> np.ndarray:
    """The ``top_k`` dimensions whose true pairs co-activate most.

    ``medians`` is ``median_pair_products``' output. Dimensions are ordered
    by it, descending, ties toward the lower index.
    """
    top_k = int(top_k)
    if not 1 <= top_k <= medians.size:
        raise ValueError(f"top_k must be in [1, {medians.size}], got {top_k}")
    return np.argsort(-medians, kind="stable")[:top_k]
