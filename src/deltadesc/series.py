"""Descriptor time-series containers and row-level operations.

A traverse is an ordered stream of global image descriptors held as a T x D
matrix, one row per observed place. Metric positions, where a run needs them,
travel as their own R x 2 array (``io.read_positions``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

ZERO_NORM = 1e-12
# rows per norm block: the squared temporary is one block, not a copy of the series
NORM_BLOCK_ROWS = 256


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


def _check_finite(arr: np.ndarray, what: str, row0: int = 0) -> None:
    """Raise naming the first non-finite value; ``arr`` holds the rows from ``row0`` on."""
    # min and max propagate NaN, so the pair tests finiteness without a bool array
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        t, d = np.argwhere(~np.isfinite(np.atleast_2d(arr)))[0]
        raise ValueError(f"non-finite {what} value at row {row0 + t}, column {d}")


def _norm_scales(norms: np.ndarray) -> np.ndarray:
    """1/norm, or 0 for norms below ``ZERO_NORM`` so that those rows compare at exactly 1.0."""
    return np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= ZERO_NORM)


def _row_scales(data: np.ndarray) -> np.ndarray:
    """``_norm_scales`` of the row norms of ``data``.

    ``np.linalg.norm`` reduces each row of a block as it would the row of the
    whole matrix, so the blocks change no bit.
    """
    norms = np.empty(len(data))
    for b0 in range(0, len(data), NORM_BLOCK_ROWS):
        norms[b0 : b0 + NORM_BLOCK_ROWS] = np.linalg.norm(data[b0 : b0 + NORM_BLOCK_ROWS], axis=1)
    return _norm_scales(norms)


@dataclass(frozen=True)
class DescriptorSeries:
    """Immutable T x D descriptor matrix for one traverse.

    ``data`` follows ``_freeze``'s rule: a sealed float64 array is adopted,
    anything else is copied.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        data = _freeze(self.data)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(
                f"descriptor data must be T x D with T, D >= 1, got shape {data.shape}"
            )
        _check_finite(data, "descriptor")
        object.__setattr__(self, "data", data)

    @property
    def frame_count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @cached_property
    def row_scales(self) -> np.ndarray:
        """``_row_scales`` of ``data``, computed once: a reference is scaled once per route."""
        return _seal(_row_scales(self.data))


def _check_radius(radius: float) -> float:
    """``radius`` as a float; raise unless it is finite and non-negative."""
    radius = float(radius)
    if not np.isfinite(radius) or radius < 0:
        raise ValueError(f"radius must be finite and non-negative, got {radius}")
    return radius


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
        object.__setattr__(self, "radius", _check_radius(self.radius))

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

    def check_traverses(self, q_count: int, r_count: Optional[int] = None) -> None:
        """Raise unless there is one true index per query frame, each in [0, r_count) if given."""
        if self.query_count != q_count:
            raise ValueError(f"ground truth covers {self.query_count} queries, expected {q_count}")
        if r_count is not None:
            self.check_reference(r_count)


def apply_permutation(
    ref: DescriptorSeries,
    query: DescriptorSeries,
    gt: GroundTruth,
    seed: int,
) -> tuple[DescriptorSeries, DescriptorSeries, GroundTruth]:
    """Shuffle both traverses with one seeded permutation and remap ground truth.

    The same permutation is applied to reference and query, so cross-traverse
    correspondence is preserved while within-traverse adjacency is destroyed.
    """
    if ref.frame_count != query.frame_count:
        raise ValueError(
            f"reference and query must have equal frame counts, "
            f"got {ref.frame_count} and {query.frame_count}"
        )
    gt.check_traverses(query.frame_count, ref.frame_count)

    perm = np.random.default_rng(seed).permutation(ref.frame_count)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)

    def shuffle(series: DescriptorSeries) -> DescriptorSeries:
        return DescriptorSeries(_seal(series.data[perm]))

    # new query q' holds old query perm[q'], whose true match (old ref index)
    # now sits at new ref index inverse[...]
    new_pairs = _seal(inverse[gt.pairs[perm]])
    new_gt = GroundTruth(new_pairs, radius_mode=gt.radius_mode, radius=gt.radius)
    return shuffle(ref), shuffle(query), new_gt
