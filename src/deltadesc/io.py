"""File formats: the binary descriptor container plus CSV/JSON exports.

Binary container layout (little-endian), 28-byte header then payload:

    bytes 0-3    magic "DVPR"
    bytes 4-7    format version (uint32, currently 1)
    bytes 8-15   frame count T (uint64)
    bytes 16-23  dimension D (uint64)
    bytes 24-27  dtype code (uint32): 1 = float32, 2 = float64
    bytes 28-    T*D values, row-major

Code 1 is the interchange default; code 2 exists so staged pipelines can move
intermediate series and PCA models between processes without rounding. A PCA
model file is three blocks in sequence: the mean, the components and the
explained variances. Blocks are read and written CHUNK_BYTES of the file at a
time, straight between the stream and the float64 matrix, so neither side
holds a copy of the payload, and a distance file takes rows as they come. A
short or overlong file is found by reading to its end, so a pipe works as well
as a regular file. CSV descriptor input (one frame per row, optional header)
is accepted wherever a path ends in ``.csv``. All CSV output uses a header
row, '.' decimals, and LF line endings; floats are written with
shortest-roundtrip repr so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import shutil
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Optional, Union

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
# bytes of the file converted at a time: the one buffer a read or a write holds
# besides the float64 matrix, whatever the payload
CHUNK_BYTES = 2**20

PathLike = Union[str, Path]


class DataError(Exception):
    """Unreadable, malformed, or internally inconsistent input data."""


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# binary container
# ---------------------------------------------------------------------------

def _block_writer(fh: BinaryIO, t_count: int, dim: int, code: int) -> Callable:
    """Write a block's header; return a function that appends its rows, CHUNK_BYTES at a time."""
    dtype = _DTYPE_CODES[code]
    fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, t_count, dim, code))
    step = max(1, CHUNK_BYTES // (dim * dtype.itemsize))

    def append(values: np.ndarray) -> None:
        for start in range(0, len(values), step):
            # a copy only where the dtype or the layout differs from the file's
            fh.write(np.ascontiguousarray(values[start : start + step], dtype=dtype))

    return append


def _bytes_left(fh: BinaryIO) -> int:
    """Read the stream to its end, CHUNK_BYTES at a time, and count what was left."""
    left = 0
    while chunk := fh.read(CHUNK_BYTES):
        left += len(chunk)
    return left


def _read_block(fh: BinaryIO, where: str) -> np.ndarray:
    """Read one container block into a new float64 matrix, CHUNK_BYTES of the file at a time."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise DataError(
            f"{where}: truncated header, expected {_HEADER.size} bytes, got {len(head)}"
        )
    magic, version, t_count, dim, code = _HEADER.unpack(head)
    if magic != MAGIC:
        raise DataError(f"{where}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise DataError(f"{where}: unsupported format version {version}")
    if code not in _DTYPE_CODES:
        raise DataError(f"{where}: unsupported dtype code {code}")
    dtype = _DTYPE_CODES[code]
    payload = t_count * dim * dtype.itemsize

    def truncated(got: int) -> DataError:
        return DataError(f"{where}: truncated payload, expected {payload} bytes, got {got}")

    try:
        values = np.empty((t_count, dim))
    except (MemoryError, ValueError, OverflowError):
        # a header that claims more than memory holds is most often a damaged one
        got = _bytes_left(fh)
        if got < payload:
            raise truncated(got) from None
        raise
    flat = values.reshape(-1)
    step = CHUNK_BYTES // dtype.itemsize
    chunk = memoryview(bytearray(min(payload, step * dtype.itemsize)))
    for start in range(0, flat.size, step):
        count = min(step, flat.size - start)
        view = chunk[: count * dtype.itemsize]
        # a buffered readinto fills the view unless the stream ends first
        got = fh.readinto(view)
        if got < len(view):
            raise truncated(start * dtype.itemsize + got)
        flat[start : start + count] = np.frombuffer(view, dtype=dtype)
    return _seal(values)


def _read_blocks(path: PathLike, count: int, after: str) -> list[np.ndarray]:
    """Read ``count`` blocks in sequence and reject any bytes after the last."""
    with open(path, "rb") as fh:
        blocks = [_read_block(fh, str(path)) for _ in range(count)]
        trailing = _bytes_left(fh)
    if trailing:
        raise DataError(f"{path}: {trailing} trailing bytes after {after}")
    return blocks


def write_descriptors(path: PathLike, series: DescriptorSeries, dtype: str = "float32") -> None:
    """Write a series to the binary container (float32 interchange by default)."""
    if dtype not in _CODE_FOR_NAME:
        raise ValueError(f"dtype must be 'float32' or 'float64', got {dtype!r}")
    with open(path, "wb") as fh:
        _block_writer(fh, *series.data.shape, _CODE_FOR_NAME[dtype])(series.data)


def read_descriptors(path: PathLike) -> DescriptorSeries:
    """Read a descriptor series from the binary container or from CSV."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        values = _read_csv_matrix(path)
    else:
        (values,) = _read_blocks(path, 1, "payload")
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


@contextmanager
def distance_rows_writer(path: PathLike, q_count: int, r_count: int) -> Iterator[Callable]:
    """Check the free disk for a new Q x R float64 distance file, then yield its row appender."""
    size, where = _HEADER.size + 8 * q_count * r_count, Path(path).parent
    free = shutil.disk_usage(where).free
    if size > free:
        raise ValueError(
            f"a {q_count} x {r_count} float64 distance file takes {size / 2**30:.1f} GiB, "
            f"more than the {free / 2**30:.1f} GiB free in {where}"
        )
    with open(path, "wb") as fh:
        yield _block_writer(fh, q_count, r_count, _CODE_FOR_NAME["float64"])


def write_distance_matrix(path: PathLike, m: DistanceMatrix) -> None:
    with distance_rows_writer(path, *m.values.shape) as append:
        append(m.values)


def read_distance_matrix(path: PathLike) -> DistanceMatrix:
    (values,) = _read_blocks(path, 1, "payload")
    try:
        return DistanceMatrix(values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_pca_model(path: PathLike, model: PcaModel) -> None:
    """Store a PCA model as three consecutive float64 container blocks."""
    with open(path, "wb") as fh:
        for values in (model.mean[None], model.components, model.explained_variance[None]):
            _block_writer(fh, *values.shape, _CODE_FOR_NAME["float64"])(values)


def load_pca_model(path: PathLike) -> PcaModel:
    mean, components, variance = _read_blocks(path, 3, "model blocks")
    try:
        return PcaModel(mean, components, variance)  # a 1 x D block flattens to the mean
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


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
