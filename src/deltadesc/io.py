"""File formats: the binary descriptor container plus CSV/JSON exports.

Binary container layout (little-endian), 28-byte header then payload:

    bytes 0-3    magic "DVPR"
    bytes 4-7    format version (uint32, currently 1)
    bytes 8-15   frame count T (uint64)
    bytes 16-23  dimension D (uint64)
    bytes 24-27  dtype code (uint32): 1 = float32, 2 = float64
    bytes 28-    T*D values, row-major

Code 1 is the interchange default; code 2 exists so staged pipelines can move
intermediate series and PCA models between processes without rounding. CSV
descriptor input (one frame per row, optional header) is accepted wherever a
path ends in ``.csv``. All CSV output uses a header row, '.' decimals, and LF
line endings; floats are written with shortest-roundtrip repr so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .calibration import SelfDistanceProfile
from .evaluation import PrCurve
from .matching import DistanceMatrix, MatchSet
from .reduction import PcaModel
from .series import DescriptorSeries, GroundTruth, _seal

MAGIC = b"DVPR"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQI")
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_NAME = {"float32": 1, "float64": 2}

PathLike = Union[str, Path]


class DataError(Exception):
    """Unreadable, malformed, or internally inconsistent input data."""


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# binary container
# ---------------------------------------------------------------------------

def _pack_block(values: np.ndarray, code: int) -> bytes:
    arr = np.ascontiguousarray(values.astype(_DTYPE_CODES[code]))
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, arr.shape[0], arr.shape[1], code)
    return header + arr.tobytes(order="C")


def _unpack_block(buf: bytes, offset: int, where: str) -> tuple[np.ndarray, int]:
    if len(buf) - offset < _HEADER.size:
        raise DataError(
            f"{where}: truncated header, expected {_HEADER.size} bytes, "
            f"got {len(buf) - offset}"
        )
    magic, version, t_count, dim, code = _HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise DataError(f"{where}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise DataError(f"{where}: unsupported format version {version}")
    if code not in _DTYPE_CODES:
        raise DataError(f"{where}: unsupported dtype code {code}")
    dtype = _DTYPE_CODES[code]
    payload = t_count * dim * dtype.itemsize
    end = offset + _HEADER.size + payload
    if len(buf) < end:
        raise DataError(
            f"{where}: truncated payload, expected {payload} bytes, "
            f"got {len(buf) - offset - _HEADER.size}"
        )
    values = np.frombuffer(buf, dtype=dtype, count=t_count * dim, offset=offset + _HEADER.size)
    # astype copies out of ``buf``, so the result owns its data
    return _seal(values.reshape(t_count, dim).astype(np.float64)), end


def write_descriptors(path: PathLike, series: DescriptorSeries, dtype: str = "float32") -> None:
    """Write a series to the binary container (float32 interchange by default)."""
    if dtype not in _CODE_FOR_NAME:
        raise ValueError(f"dtype must be 'float32' or 'float64', got {dtype!r}")
    Path(path).write_bytes(_pack_block(series.data, _CODE_FOR_NAME[dtype]))


def read_descriptors(path: PathLike) -> DescriptorSeries:
    """Read a descriptor series from the binary container or from CSV."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        values = _read_csv_matrix(path)
    else:
        buf = path.read_bytes()
        values, end = _unpack_block(buf, 0, str(path))
        if end != len(buf):
            raise DataError(f"{path}: {len(buf) - end} trailing bytes after payload")
    try:
        return DescriptorSeries(values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_csv_matrix(path: Path) -> np.ndarray:
    try:
        try:
            values = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError:
            values = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64, skiprows=1)
    except (ValueError, OSError) as exc:
        raise DataError(f"{path}: cannot parse CSV matrix ({exc})") from exc
    if values.size == 0:
        raise DataError(f"{path}: empty CSV matrix")
    return _seal(values)


def read_positions(path: PathLike) -> np.ndarray:
    """Read a T x 2 planar position track (CSV or binary container)."""
    series = read_descriptors(path)
    if series.dim != 2:
        raise DataError(f"{path}: positions must have 2 columns, got {series.dim}")
    return series.data


def write_distance_matrix(path: PathLike, m: DistanceMatrix) -> None:
    Path(path).write_bytes(_pack_block(m.values, _CODE_FOR_NAME["float64"]))


def read_distance_matrix(path: PathLike) -> DistanceMatrix:
    buf = Path(path).read_bytes()
    values, end = _unpack_block(buf, 0, str(path))
    if end != len(buf):
        raise DataError(f"{path}: {len(buf) - end} trailing bytes after payload")
    try:
        return DistanceMatrix(values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_pca_model(path: PathLike, model: PcaModel) -> None:
    """Store a PCA model as three consecutive float64 container blocks."""
    code = _CODE_FOR_NAME["float64"]
    blocks = (
        _pack_block(model.mean.reshape(1, -1), code)
        + _pack_block(model.components, code)
        + _pack_block(model.explained_variance.reshape(1, -1), code)
    )
    Path(path).write_bytes(blocks)


def load_pca_model(path: PathLike) -> PcaModel:
    buf = Path(path).read_bytes()
    where = str(path)
    mean, offset = _unpack_block(buf, 0, where)
    components, offset = _unpack_block(buf, offset, where)
    variance, offset = _unpack_block(buf, offset, where)
    if offset != len(buf):
        raise DataError(f"{where}: {len(buf) - offset} trailing bytes after model blocks")
    try:
        return PcaModel(
            mean=mean.reshape(-1),
            components=components,
            explained_variance=variance.reshape(-1),
        )
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV / JSON
# ---------------------------------------------------------------------------

def _write_lines(path: PathLike, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ground_truth(path: PathLike, gt: GroundTruth) -> None:
    lines = ["query_idx,ref_idx"]
    lines += [f"{q},{int(r)}" for q, r in enumerate(gt.pairs)]
    _write_lines(path, lines)


def read_ground_truth(
    path: PathLike, radius_mode: str = "frames", radius: float = 0.0
) -> GroundTruth:
    """Read (query_idx, ref_idx) rows; queries must cover 0..Q-1 exactly."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.int64)
    except (ValueError, OSError) as exc:
        raise DataError(f"{path}: cannot parse ground-truth CSV ({exc})") from exc
    if rows.size == 0 or rows.shape[1] != 2:
        raise DataError(f"{path}: ground truth needs two columns (query_idx, ref_idx)")
    order = np.argsort(rows[:, 0], kind="stable")
    rows = rows[order]
    if not np.array_equal(rows[:, 0], np.arange(rows.shape[0])):
        raise DataError(f"{path}: query indices must cover 0..{rows.shape[0] - 1} exactly once")
    try:
        return GroundTruth(rows[:, 1], radius_mode=radius_mode, radius=radius)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_matches_csv(
    path: PathLike, matches: MatchSet, correct: Optional[np.ndarray] = None
) -> None:
    lines = [
        f"{q},{int(r)},{_fmt(d)}"
        for q, (r, d) in enumerate(zip(matches.ref_indices, matches.distances))
    ]
    if correct is None:
        _write_lines(path, ["query_idx,ref_idx,distance"] + lines)
    else:
        lines = [f"{line},{int(c)}" for line, c in zip(lines, correct)]
        _write_lines(path, ["query_idx,ref_idx,distance,correct"] + lines)


def read_matches_csv(path: PathLike) -> MatchSet:
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)
    except (ValueError, OSError) as exc:
        raise DataError(f"{path}: cannot parse match CSV ({exc})") from exc
    if rows.size == 0 or rows.shape[1] < 3:
        raise DataError(f"{path}: match CSV needs query_idx, ref_idx, distance columns")
    order = np.argsort(rows[:, 0], kind="stable")
    rows = rows[order]
    if not np.array_equal(rows[:, 0], np.arange(rows.shape[0])):
        raise DataError(f"{path}: query indices must cover 0..{rows.shape[0] - 1} exactly once")
    try:
        return MatchSet(rows[:, 1].astype(np.int64), rows[:, 2])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_pr_csv(path: PathLike, curve: PrCurve) -> None:
    lines = ["threshold,precision,recall"]
    lines += [
        f"{_fmt(t)},{_fmt(p)},{_fmt(r)}"
        for t, p, r in zip(curve.thresholds, curve.precisions, curve.recalls)
    ]
    _write_lines(path, lines)


def write_profile_csv(path: PathLike, profile: SelfDistanceProfile) -> None:
    lines = ["offset,median_distance"]
    lines += [
        f"{int(d)},{_fmt(m)}" for d, m in zip(profile.offsets, profile.median_distance)
    ]
    _write_lines(path, lines)


def write_dimension_ranking_csv(
    path: PathLike, order: np.ndarray, medians: np.ndarray
) -> None:
    lines = ["rank,dimension,median_product"]
    lines += [
        f"{rank},{int(dim)},{_fmt(medians[dim])}" for rank, dim in enumerate(order)
    ]
    _write_lines(path, lines)


def write_summary_json(path: PathLike, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
