"""Descriptor time-series containers and row-level operations.

A traverse is an ordered stream of global image descriptors held as a T x D
matrix, one row per observed place, optionally with per-frame planar positions
(meters). ``valid_range`` is a half-open ``[start, end)`` interval of rows
that no transform padding touched; ``None`` means no padding information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def _seal(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly computed array read-only so that ``_freeze`` adopts it."""
    arr.setflags(write=False)
    return arr


def _freeze(arr, dtype=np.float64) -> np.ndarray:
    """Adopt ``arr`` if it is a read-only ``dtype`` ndarray that owns its data, else copy it.

    Every value type takes its arrays through here. A producer that seals a
    fresh result with ``_seal`` hands it over and writes to it no more. Any
    other array, such as a caller's writable one or a view, is copied and frozen.
    """
    if not (
        type(arr) is np.ndarray
        and arr.dtype == dtype
        and arr.flags.owndata
        and not arr.flags.writeable
    ):
        arr = _seal(np.array(arr, dtype=dtype))
    return arr


def _check_finite(arr: np.ndarray, what: str) -> None:
    # min and max propagate NaN, so the pair tests finiteness without a bool array
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        t, d = np.argwhere(~np.isfinite(np.atleast_2d(arr)))[0]
        raise ValueError(f"non-finite {what} value at row {t}, column {d}")


@dataclass(frozen=True)
class DescriptorSeries:
    """Immutable T x D descriptor matrix for one traverse.

    ``data`` and ``positions`` follow ``_freeze``'s rule: sealed float64
    arrays are adopted, anything else is copied.
    """

    data: np.ndarray
    positions: Optional[np.ndarray] = None
    valid_range: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        data = _freeze(self.data)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(
                f"descriptor data must be T x D with T, D >= 1, got shape {data.shape}"
            )
        _check_finite(data, "descriptor")
        object.__setattr__(self, "data", data)
        if self.positions is not None:
            pos = _freeze(self.positions)
            if pos.shape != (data.shape[0], 2):
                raise ValueError(
                    f"positions must be {data.shape[0]} x 2, got shape {pos.shape}"
                )
            _check_finite(pos, "position")
            object.__setattr__(self, "positions", pos)
        if self.valid_range is not None:
            start, end = int(self.valid_range[0]), int(self.valid_range[1])
            if not 0 <= start <= end <= data.shape[0]:
                raise ValueError(
                    f"valid_range {(start, end)} out of bounds for {data.shape[0]} frames"
                )
            object.__setattr__(self, "valid_range", (start, end))

    @property
    def frame_count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class GroundTruth:
    """True reference frame index per query, plus the localization radius.

    ``radius_mode`` is ``"frames"`` (index difference) or ``"meters"``
    (Euclidean distance between reference positions).
    """

    pairs: np.ndarray
    radius_mode: str = "frames"
    radius: float = 0.0

    def __post_init__(self) -> None:
        pairs = _freeze(self.pairs, np.int64)
        if pairs.ndim != 1 or pairs.size < 1:
            raise ValueError("ground truth needs one reference index per query")
        if np.any(pairs < 0):
            raise ValueError("ground-truth reference indices must be non-negative")
        object.__setattr__(self, "pairs", pairs)
        if self.radius_mode not in ("frames", "meters"):
            raise ValueError(f"radius_mode must be 'frames' or 'meters', got {self.radius_mode!r}")
        radius = float(self.radius)
        if not np.isfinite(radius) or radius < 0:
            raise ValueError(f"radius must be finite and non-negative, got {radius}")
        object.__setattr__(self, "radius", radius)

    @property
    def query_count(self) -> int:
        return self.pairs.size

    def check_reference(self, ref_count: int) -> None:
        """Raise if any true index falls outside [0, ref_count)."""
        if int(self.pairs.max()) >= ref_count:
            raise ValueError(
                f"ground-truth index {int(self.pairs.max())} out of range for "
                f"{ref_count} reference frames"
            )


def apply_permutation(
    ref: DescriptorSeries,
    query: DescriptorSeries,
    gt: GroundTruth,
    seed: int,
) -> tuple[DescriptorSeries, DescriptorSeries, GroundTruth]:
    """Shuffle both traverses with one seeded permutation and remap ground truth.

    The same permutation is applied to reference and query, so cross-traverse
    correspondence is preserved while within-traverse adjacency is destroyed.
    ``valid_range`` is dropped: it cannot describe a non-contiguous row set.
    """
    if ref.frame_count != query.frame_count:
        raise ValueError(
            f"reference and query must have equal frame counts, "
            f"got {ref.frame_count} and {query.frame_count}"
        )
    if gt.query_count != query.frame_count:
        raise ValueError(
            f"ground truth covers {gt.query_count} queries, expected {query.frame_count}"
        )
    gt.check_reference(ref.frame_count)

    perm = np.random.default_rng(seed).permutation(ref.frame_count)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)

    def shuffle(series: DescriptorSeries) -> DescriptorSeries:
        pos = _seal(series.positions[perm]) if series.positions is not None else None
        return DescriptorSeries(_seal(series.data[perm]), positions=pos)

    # new query q' holds old query perm[q'], whose true match (old ref index)
    # now sits at new ref index inverse[...]
    new_pairs = _seal(inverse[gt.pairs[perm]])
    new_gt = GroundTruth(new_pairs, radius_mode=gt.radius_mode, radius=gt.radius)
    return shuffle(ref), shuffle(query), new_gt
