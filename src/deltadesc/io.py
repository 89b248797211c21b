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
as a regular file. ``open_descriptors`` opens a file once and checks its header
on entry, so a caller can check a series' shape, a pipe's (``/dev/fd/N``) too,
before it reads the payload from the same handle as float64 row blocks. A
caller may transform and match those blocks as they come, so no T x D matrix
of the series is made, or fill one matrix with them (``read_descriptors``); a
late fault, such as a payload cut short, trailing bytes or a value that is not
finite, raises when its block is read. A CSV table is the one input read whole:
it is parsed on entry, a header row, optional for descriptor input (any path
ending in ``.csv``), then a comma-separated row per item; one without rows is a
DataError naming the file.
Tables are written with LF endings and shortest-roundtrip floats, so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import json
import shutil
import struct
import warnings
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Optional, Union

import numpy as np

from .calibration import SelfDistanceProfile
from .evaluation import PrCurve
from .matching import DistanceMatrix, MatchSet
from .reduction import PcaModel
from .series import DescriptorSeries, GroundTruth, _check_finite, _seal

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


@contextmanager
def _data_errors(path: PathLike, message: str = "{}") -> Iterator[None]:
    """Re-raise a ValueError or OSError as a DataError: ``path``, then ``message`` of it."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise DataError(f"{path}: {message.format(exc)}") from exc


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


def _read_header(fh: BinaryIO, where: str) -> tuple[int, int, np.dtype]:
    """Read and check one block's header: its frame count, dimension and payload dtype."""
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
    return t_count, dim, _DTYPE_CODES[code]


def _payload_blocks(
    fh: BinaryIO, where: str, header: tuple, out: Optional[np.ndarray] = None
) -> Iterator[np.ndarray]:
    """Yield the payload after its read ``header`` as float64 row blocks, CHUNK_BYTES of the
    file at a time: views of ``out`` where given, else of one reused buffer, each valid until
    the next. A short payload raises at the block where it ends."""
    t_count, dim, dtype = header
    row_bytes = dim * dtype.itemsize
    payload = t_count * row_bytes
    step = max(1, min(t_count, CHUNK_BYTES // max(row_bytes, 1)))  # rows a block

    def truncated(got: int) -> DataError:
        return DataError(f"{where}: truncated payload, expected {payload} bytes, got {got}")

    try:
        chunk = memoryview(bytearray(step * row_bytes))
        buf = np.empty((step, dim)) if out is None else out
    except (MemoryError, ValueError, OverflowError):
        # a header that claims more than memory holds is most often a damaged one
        got = _bytes_left(fh)
        if got < payload:
            raise truncated(got) from None
        raise
    for t0 in range(0, t_count, step):
        n = min(step, t_count - t0)
        view = chunk[: n * row_bytes]
        # a buffered readinto fills the view unless the stream ends first
        got = fh.readinto(view)
        if got < len(view):
            raise truncated(t0 * row_bytes + got)
        block = buf[:n] if out is None else out[t0 : t0 + n]
        block[...] = np.frombuffer(view, dtype=dtype).reshape(n, dim)
        yield block


def _filled(shape: tuple[int, int], blocks: Callable) -> np.ndarray:
    """A new ``shape`` float64 matrix, sealed once ``blocks(out)`` has filled it.

    A header that claims more than memory holds is most often a damaged one, so
    if the matrix cannot be made, ``blocks()`` is read through, one block at a
    time: its truncation, if it has one, is what raises.
    """
    try:
        values = np.empty(shape)
    except (MemoryError, ValueError, OverflowError):
        for _ in blocks():
            pass
        raise
    for _ in blocks(values):
        pass
    return _seal(values)


def _read_block(fh: BinaryIO, where: str) -> np.ndarray:
    """One block, header and payload, as float64, CHUNK_BYTES of the file at a time."""
    header = _read_header(fh, where)
    return _filled(header[:2], partial(_payload_blocks, fh, where, header))


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


@contextmanager
def open_descriptors(path: PathLike) -> Iterator[tuple[tuple[int, int], Callable]]:
    """Open a descriptor file once; yield its (T, D), read and checked on entry, and a function
    that reads its rows from the same handle.

    Called as ``rows(out=None)``, that function yields the series as float64
    row blocks in order, CHUNK_BYTES of the file at a time: views of a T x D
    ``out`` where given, else of one reused buffer, each valid until the next.
    The last block is yielded only once no byte follows it. Each block of a
    stream is checked to be finite, naming the file, row and column; a matrix
    that the blocks fill is checked whole, as a series, by ``read_descriptors``. A CSV
    table is parsed and checked on entry, and its rows are the one block of the
    parsed table.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        values = _load_csv(path, "CSV matrix", np.float64, optional_header=True)
        with _data_errors(path):
            DescriptorSeries(values)  # checks the table's shape and values

        def table_rows(out: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
            if out is not None:
                out[...] = values
            yield values if out is None else out

        yield values.shape, table_rows
        return
    with open(path, "rb") as fh:
        header = _read_header(fh, str(path))
        t_count, dim = header[:2]
        if t_count < 1 or dim < 1:
            raise DataError(f"{path}: descriptor data must be T x D with T, D >= 1, "
                            f"got shape {(t_count, dim)}")

        def rows(out: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
            t0 = 0
            for block in _payload_blocks(fh, str(path), header, out):
                if out is None:
                    with _data_errors(path):
                        _check_finite(block, "descriptor", t0)
                t0 += len(block)
                # one byte read while the block's chunk is live; the rest only to count them
                if t0 == t_count and fh.read(1):
                    raise DataError(f"{path}: {1 + _bytes_left(fh)} trailing bytes after payload")
                yield block

        yield (t_count, dim), rows


def read_descriptors(path: PathLike) -> DescriptorSeries:
    """Read a descriptor series, binary or CSV: one T x D matrix that its row blocks fill."""
    with open_descriptors(path) as (shape, rows), _data_errors(path):
        return DescriptorSeries(_filled(shape, rows))


def read_positions(path: PathLike) -> np.ndarray:
    """Read a T x 2 planar position track (CSV or binary container)."""
    series = read_descriptors(path)
    if series.dim != 2:
        raise DataError(f"{path}: positions must have 2 columns, got {series.dim}")
    return series.data


@contextmanager
def distance_rows_writer(path: PathLike, q_count: int, r_count: int) -> Iterator[Callable]:
    """Check the free disk for a new Q x R float64 distance file, then yield its row appender.
    A regular file is removed again if the caller fails before its last row, such as on a
    query file that ends short, so a failed match leaves no partial file."""
    path = Path(path)
    size, where = _HEADER.size + 8 * q_count * r_count, path.parent
    free = shutil.disk_usage(where).free
    if size > free:
        raise ValueError(
            f"a {q_count} x {r_count} float64 distance file takes {size / 2**30:.1f} GiB, "
            f"more than the {free / 2**30:.1f} GiB free in {where}"
        )
    try:
        with open(path, "wb") as fh:
            yield _block_writer(fh, q_count, r_count, _CODE_FOR_NAME["float64"])
    except BaseException:
        if path.is_file() and not path.is_symlink():  # never a pipe or a /dev/fd link
            path.unlink()
        raise


def write_distance_matrix(path: PathLike, m: DistanceMatrix) -> None:
    with distance_rows_writer(path, *m.values.shape) as append:
        append(m.values)


def read_distance_matrix(path: PathLike) -> DistanceMatrix:
    (values,) = _read_blocks(path, 1, "payload")
    with _data_errors(path):
        return DistanceMatrix(values)


def save_pca_model(path: PathLike, model: PcaModel) -> None:
    """Store a PCA model as three consecutive float64 container blocks."""
    with open(path, "wb") as fh:
        for values in (model.mean[None], model.components, model.explained_variance[None]):
            _block_writer(fh, *values.shape, _CODE_FOR_NAME["float64"])(values)


def load_pca_model(path: PathLike) -> PcaModel:
    mean, components, variance = _read_blocks(path, 3, "model blocks")
    with _data_errors(path):
        return PcaModel(mean, components, variance)  # a 1 x D block flattens to the mean


# ---------------------------------------------------------------------------
# CSV / JSON
# ---------------------------------------------------------------------------

def _load_csv(path: PathLike, what: str, dtype, optional_header: bool = False) -> np.ndarray:
    """A table's rows past its header, which ``optional_header`` skips only if it fails to parse."""
    load = partial(np.loadtxt, path, delimiter=",", ndmin=2, dtype=dtype)
    with _data_errors(path, f"cannot parse {what} ({{}})"), warnings.catch_warnings():
        # an empty table is named below, instead of by numpy's warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = load(skiprows=0 if optional_header else 1)
        except ValueError:
            if not optional_header:
                raise
            rows = load(skiprows=1)
    if rows.size == 0:
        raise DataError(f"{path}: {what} has no rows")
    return _seal(rows)


def _in_query_order(path: PathLike, rows: np.ndarray) -> np.ndarray:
    """``rows`` stably sorted by their first column, which must cover 0..Q-1 exactly once."""
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    if not np.array_equal(rows[:, 0], np.arange(len(rows))):
        raise DataError(f"{path}: query indices must cover 0..{len(rows) - 1} exactly once")
    return rows


def _write_csv(path: PathLike, **columns: np.ndarray) -> None:
    """A header row of the column names, then one row per index: integer and boolean
    columns as integers, float columns by ``_fmt``."""
    cells = [
        map(str, map(int, c)) if c.dtype.kind in "biu" else map(_fmt, c)
        for c in map(np.asarray, columns.values())
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n")


def write_ground_truth(path: PathLike, gt: GroundTruth) -> None:
    _write_csv(path, query_idx=np.arange(gt.query_count), ref_idx=gt.pairs)


def read_ground_truth(
    path: PathLike, radius_mode: str = "frames", radius: float = 0.0
) -> GroundTruth:
    """Read (query_idx, ref_idx) rows; queries must cover 0..Q-1 exactly."""
    rows = _load_csv(path, "ground-truth CSV", np.int64)
    if rows.shape[1] != 2:
        raise DataError(f"{path}: ground truth needs two columns (query_idx, ref_idx)")
    rows = _in_query_order(path, rows)
    with _data_errors(path):
        return GroundTruth(rows[:, 1], radius_mode=radius_mode, radius=radius)


def write_matches_csv(
    path: PathLike, matches: MatchSet, correct: Optional[np.ndarray] = None
) -> None:
    flags = {} if correct is None else {"correct": correct}
    _write_csv(path, query_idx=np.arange(matches.query_count), ref_idx=matches.ref_indices,
               distance=matches.distances, **flags)


def read_matches_csv(path: PathLike) -> MatchSet:
    rows = _load_csv(path, "match CSV", np.float64)
    if rows.shape[1] < 3:
        raise DataError(f"{path}: match CSV needs query_idx, ref_idx, distance columns")
    rows = _in_query_order(path, rows)
    with _data_errors(path):
        return MatchSet(rows[:, 1].astype(np.int64), rows[:, 2])


def write_pr_csv(path: PathLike, curve: PrCurve) -> None:
    _write_csv(path, threshold=curve.thresholds, precision=curve.precisions, recall=curve.recalls)


def write_profile_csv(path: PathLike, profile: SelfDistanceProfile) -> None:
    _write_csv(path, offset=profile.offsets, median_distance=profile.median_distance)


def write_dimension_ranking_csv(path: PathLike, order: np.ndarray, medians: np.ndarray) -> None:
    medians = np.asarray(medians, np.float64)[order]
    _write_csv(path, rank=np.arange(len(order)), dimension=order, median_product=medians)


def write_summary_json(path: PathLike, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
