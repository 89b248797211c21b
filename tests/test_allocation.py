"""Allocation peaks of loading, the transforms and the tiled match path, in float64 matrices.

Each call is traced with tracemalloc from an already-built input, so the peak
is what the call itself allocates. The unit is one 1000 x 1000 float64 matrix,
the Q x R distance matrix or the T x D descriptor matrix. The bounds pin the
memory model: delta and smooth hold their output plus a block or two of
rows, with no padded copy of the series, distance builds one matrix in
place, seq_match allocates only its output plus per-block counts,
retrieve_best allocates per-query vectors only, a sealed array is adopted
without a copy, reading or writing a file holds the float64 matrix plus one
chunk of the file, a PCA fit hands eigh its Gram matrix with no centred copy
of the series left, and the self-distance
profile holds its d_max x T products, one GEMM block and a few T-vectors.
The tiled match holds two half tiles, a distance tile and seq_match's output,
which share the tile budget, whether or not it streams the kept rows to a
distance file, where the whole match would hold two Q x R matrices. Row
scales hold one block of squares at a time, not a squared copy of the series. A span bank keeps its
source and its norms and takes them from blocks of rows, never building a
member. Matching two banks holds one Q x R matrix, the result, which holds
the product and then the best, plus blocks of rows; a wide query source is
centred a block of rows at a time, not copied whole. The result is adopted
without a copy. A query bank over several tiles holds one tile's matrices, one
block of its source rows and the filters, whose running sums it carries from
tile to tile, and builds no member. ``run`` and
``match`` read a query file as its tiles are matched, so a query 20 times longer
than its reference never takes a Q x D array: they hold one chunk of the file and
its float64 rows, the reference and its delta, the running sums, the delta block
and its trailing windows, two tiles of query rows (one and the one before, which
hands over its last L - 1 rows) and one tile's distances and seq_match output
with its counts. A query span bank is read the same way: its blocks of source
rows, each read once, take no more rows than the member tiles, its norms take
one stream of delta blocks per span, and it adds the span-bank filters' blocks
and one block of centred query rows. ``synth`` holds the smoothed latent, the
draw buffer that takes its squares for the RMS and the window mean's running
sums, about two T x D matrices, where making each traverse whole held about six;
its row blocks are written as they are made.
"""

import tracemalloc

import numpy as np
import pytest

import deltadesc.cli
import deltadesc.matching
import deltadesc.reduction
import deltadesc.transform

from deltadesc import (
    VALID_ONLY,
    DeltaConfig,
    DescriptorSeries,
    DistanceMatrix,
    GroundTruth,
    SynthParams,
    delta,
    delta_bank,
    distance_matrix,
    multi_delta_distance,
    pca_fit,
    read_descriptors,
    retrieve_best,
    self_distance_profile,
    seq_match,
    smooth,
    write_descriptors,
    write_ground_truth,
)
from deltadesc.calibration import PROFILE_BLOCK_ROWS
from deltadesc.io import CHUNK_BYTES
from deltadesc.matching import SEQ_BLOCK_ROWS, _row_scales
from deltadesc.transform import BOX_BLOCK_ROWS

from test_cli import query_rows
from test_synth import WARP, synth_argv

FRAMES = 1000
MATRIX_BYTES = FRAMES * FRAMES * 8


def peak_matrices(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / MATRIX_BYTES


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(0)
    query = DescriptorSeries(rng.normal(size=(FRAMES, 16)))
    ref = DescriptorSeries(rng.normal(size=(FRAMES, 16)))
    return query, ref, distance_matrix(query, ref)


@pytest.fixture(scope="module")
def square_series():
    return DescriptorSeries(np.random.default_rng(3).normal(size=(FRAMES, FRAMES)))


def blocks(*rows):
    """Matrices held by buffers of the given row counts, each FRAMES wide."""
    return sum(rows) * FRAMES * 8 / MATRIX_BYTES


@pytest.mark.parametrize("padding", ["edge-replicate", VALID_ONLY])
def test_delta_holds_its_output_and_two_blocks(square_series, padding):
    # measured 1.162 and 1.131: the running sums with their 2 * 16 carried rows, and
    # the trailing windows
    bound = 1.0 + blocks(BOX_BLOCK_ROWS + 32, BOX_BLOCK_ROWS) + 0.02
    assert peak_matrices(delta, square_series, DeltaConfig(16, padding=padding)) <= bound


def test_smooth_holds_its_output_and_one_block(square_series):
    # measured 1.091: the running sums with their 16 carried rows
    assert peak_matrices(smooth, square_series, 16) <= 1.0 + blocks(BOX_BLOCK_ROWS + 16) + 0.02


def test_distance_matrix_holds_one_matrix(inputs):
    query, ref, _ = inputs
    assert peak_matrices(distance_matrix, query, ref) <= 1.05


def test_seq_match_holds_its_output_only(inputs):
    assert peak_matrices(seq_match, inputs[2], 8) <= 1.25


def test_retrieve_best_copies_no_matrix(inputs):
    assert peak_matrices(retrieve_best, inputs[2]) <= 0.05


def test_adopting_a_result_copies_nothing(inputs):
    assert peak_matrices(DistanceMatrix, inputs[2].values) <= 0.01


def test_adopting_a_sealed_series_copies_nothing():
    data = np.random.default_rng(1).normal(size=(FRAMES, FRAMES))
    data.setflags(write=False)
    assert peak_matrices(DescriptorSeries, data) <= 0.01


def test_reading_float32_holds_the_payload_and_one_chunk(tmp_path):
    path = tmp_path / "series.dvpr"
    data = np.random.default_rng(2).normal(size=(FRAMES, FRAMES))
    write_descriptors(path, DescriptorSeries(data))
    # measured 1.132: the float64 matrix and one chunk of the file, where reading the
    # whole file first held 1.50
    assert peak_matrices(read_descriptors, path) <= 1.0 + CHUNK_BYTES / MATRIX_BYTES + 0.01


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_writing_holds_one_chunk(square_series, tmp_path, dtype):
    # measured 0.132 at float32, the converted rows of one chunk, and 0.001 at float64,
    # which writes the series' own rows; packing the whole payload held 1.5 and 3.0
    chunk = CHUNK_BYTES if dtype == "float32" else 0
    bound = (chunk + 8192) / MATRIX_BYTES + 0.01  # 8192: the file object's buffer
    assert peak_matrices(write_descriptors, tmp_path / "s.dvpr", square_series, dtype) <= bound


def test_pca_fit_frees_the_centred_copy_before_eigh(monkeypatch):
    frames, dim = 2000, 500
    series = DescriptorSeries(np.random.default_rng(8).normal(size=(frames, dim)))
    eigh, entered = np.linalg.eigh, []

    def spy(gram):
        entered.append(tracemalloc.get_traced_memory()[0])
        return eigh(gram)

    # tracemalloc does not see LAPACK's own buffers, so the pin is on what eigh is handed
    monkeypatch.setattr(deltadesc.reduction.np.linalg, "eigh", spy)
    peak_matrices(pca_fit, series, 16)
    # measured 2.004 MB: the D x D Gram matrix and the mean, where the T x D centred
    # copy (8 MB) was live too
    assert entered[0] <= (dim * dim + dim) * 8 + 4096


def test_self_distance_profile_holds_its_products_and_one_block():
    frames, d_max = 8000, 512
    series = DescriptorSeries(np.random.default_rng(4).normal(size=(frames, 64)))
    products = d_max * frames
    block = PROFILE_BLOCK_ROWS * (PROFILE_BLOCK_ROWS + d_max - 1)
    bound = (products + block + 4 * frames) * 8 / MATRIX_BYTES
    assert peak_matrices(self_distance_profile, series, d_max) <= bound


def test_tiled_match_holds_two_tiles(inputs, monkeypatch, tmp_path):
    query, ref, _ = inputs
    rows, length = 100, 8
    monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", rows * FRAMES * 8)
    # the distances and seq_match's output share the budget: two tiles of rows / 2 kept
    # rows, each widened by seqmatch's halo
    tiles = 2 * (rows // 2 + length - 1) * FRAMES
    counts = 2 * SEQ_BLOCK_ROWS * FRAMES  # seq_match's per-block sums and divisions
    # measured 0.144 matrices without the file and 0.143 with it; 0.03 covers the norms,
    # the per-query vectors and the file's buffer. Two tiles of the whole budget measured
    # 0.244, and building the whole match 2.03.
    bound = (tiles + counts) * 8 / MATRIX_BYTES + 0.03
    for out in (None, tmp_path / "d.dvpr"):
        assert peak_matrices(deltadesc.cli._match, query_rows([query]), [ref], length, out) <= bound
    assert (tmp_path / "d.dvpr").stat().st_size == 28 + MATRIX_BYTES


def test_row_scales_hold_no_copy_of_the_series():
    data = np.random.default_rng(5).normal(size=(8000, 64))  # 3.9 MiB
    # measured 0.19 MiB: the norms, the scales and one block of squares
    assert peak_matrices(_row_scales, data) * MATRIX_BYTES <= data.nbytes / 8


def test_delta_bank_keeps_its_source_and_the_scales(square_series):
    tracemalloc.start()
    try:
        bank = delta_bank(square_series, (2, 4))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no member is built: measured 0.268, the running sums with their 2 * 4 carried
    # rows, the delta block, its trailing windows and its squares
    assert peak / MATRIX_BYTES <= blocks(BOX_BLOCK_ROWS + 8, *[BOX_BLOCK_ROWS] * 3) + 0.02
    # what stays is the caller's source and one vector of norms per span, 16 KB; a member
    # would be 8 MB
    assert bank.source is square_series
    assert kept <= sum(s.nbytes for s in bank.row_scales) + 8192


def filter_rows(spans, q_pad):
    """Rows of the span-bank filters, each R wide: per reference span, the query filter's
    running sums with their 2 * q_pad carried rows and one block of its delta along the
    rows; then the shared padded sums and output block."""
    return len(spans) * (BOX_BLOCK_ROWS + 2 * q_pad + SEQ_BLOCK_ROWS) + 2 * SEQ_BLOCK_ROWS


def test_two_span_banks_hold_one_matrix_and_blocks():
    rng = np.random.default_rng(6)
    qb, rb = (delta_bank(DescriptorSeries(rng.normal(size=(FRAMES, 16))), (2, 4)) for _ in "qr")
    # measured 1.230, where a product and a running best beside it held 2.268. The result
    # holds the product, then the best. 0.03 covers numpy's buffers for strided operands,
    # up to 16000 values (0.016), and the vectors of Q or R entries.
    bound = 1.0 + blocks(filter_rows(rb.spans, 4)) + 0.03
    assert peak_matrices(multi_delta_distance, qb, rb) <= bound


def test_a_bank_result_is_adopted_without_a_copy(monkeypatch):
    rng = np.random.default_rng(6)
    qb, rb = (delta_bank(DescriptorSeries(rng.normal(size=(50, 4))), (2, 4)) for _ in "qr")
    made, bank_distances = [], deltadesc.matching._bank_distances

    def keep(*args):
        made.append(bank_distances(*args))
        return made[-1]

    monkeypatch.setattr(deltadesc.matching, "_bank_distances", keep)
    assert multi_delta_distance(qb, rb).values is made[0]


def test_a_wide_query_bank_is_centred_in_blocks_no_larger_than_the_product():
    frames, dim = 200, 800
    rng = np.random.default_rng(9)
    qb, rb = (delta_bank(DescriptorSeries(rng.normal(size=(frames, dim))), (2, 4, 8)) for _ in "qr")
    # measured 2.95 R x Q matrices, where a running best beside the product held 3.48 and a
    # centred copy of the whole query source 5.23. The centring holds the result and one
    # block of centred rows, 56 x 800 (1.12); the peak is the filter phase, each block 200
    # wide. 0.4 covers numpy's buffers for strided operands, up to 2 x 16 x 200 values
    # (0.16), the running sums' row views (0.08) and the vectors of R or Q entries.
    peak = peak_matrices(multi_delta_distance, qb, rb) * MATRIX_BYTES / (frames * frames * 8)
    assert peak <= 1.0 + filter_rows(rb.spans, 8) / frames + 0.4


def test_a_query_bank_over_several_tiles_holds_one_tile(monkeypatch):
    rng = np.random.default_rng(10)
    qb, rb = (delta_bank(DescriptorSeries(rng.normal(size=(FRAMES, 16))), (2, 4)) for _ in "qr")
    rows, length = 100, 5
    monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", rows * FRAMES * 8)
    builds = []
    monkeypatch.setattr(deltadesc.transform, "delta", lambda *args: builds.append(args))
    # under seqmatch the bank shares the budget, as any query does: two matrices of rows / 2
    # rows, whose kept rows are widened by seqmatch's halo only
    tile = rows // 2
    matrices = 2 * tile * FRAMES + 2 * SEQ_BLOCK_ROWS * FRAMES  # seq_match's counts too
    # measured 0.304 matrices, where the whole match would hold two Q x R matrices. Tiles
    # widened by the longest span on either side held 0.284, since their filters went with
    # each tile; carried, the query filter's running sums stay live through seq_match. Tiles
    # of built members held 0.195 and their members 0.032 more: at D = 16 the query filter's
    # running sums weigh more than the members. 0.03 covers the bank's norms, numpy's
    # buffers for strided operands and the per-query vectors.
    bound = (matrices + tile * qb.source.dim) * 8 / MATRIX_BYTES + blocks(filter_rows(rb.spans, 4))
    assert peak_matrices(deltadesc.cli._match, query_rows(qb), rb, length) <= bound + 0.03
    assert builds == []


def test_run_and_match_stream_a_long_query_with_no_q_by_d_array(tmp_path, monkeypatch):
    frames, dim, window, length, rows = 200, 512, 4, 4, 100
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(size=(frames, dim)), axis=0)
    ref, query, gt = tmp_path / "ref.dvpr", tmp_path / "query.dvpr", tmp_path / "gt.csv"
    write_descriptors(ref, DescriptorSeries(walk))
    # a query 20 times longer than its reference, which sees each reference frame 20 times
    q_count = 20 * frames
    noise = rng.normal(size=(q_count, dim))
    write_descriptors(query, DescriptorSeries(np.repeat(walk, 20, axis=0) + noise))
    write_ground_truth(gt, GroundTruth(np.arange(q_count) // 20))
    del walk, noise
    # 40 tiles of 100 kept rows: the distances and seq_match's output share the budget
    monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", 2 * rows * 8 * frames)
    stream = CHUNK_BYTES + CHUNK_BYTES // (4 * dim) * dim * 8  # a float32 chunk and its rows
    reference = 2 * frames * dim * 8
    transform = (BOX_BLOCK_ROWS + 2 * window + 2 * BOX_BLOCK_ROWS) * dim * 8
    tiles = 2 * (rows + length - 1) * (dim + frames) * 8 + 2 * SEQ_BLOCK_ROWS * frames * 8
    # measured 6.34 MB for run and 5.39 MB for match, against 16.4 MB for one Q x D array;
    # 0.05 covers the per-query vectors, the CSV text and numpy's small temporaries
    bound = stream + reference + transform + tiles + 0.05 * MATRIX_BYTES
    # a span bank of the same longest span: its 40 tiles read each source row once, in
    # blocks no larger than the member tiles' rows, and its norms take one stream of delta
    # blocks per span. It adds the filters' blocks and one block of centred query rows,
    # ceil(100 / ceil(512 / 200)) rows in whole 8-row panels. Measured 7.50 MB, against
    # 6.33 MB when each tile was widened by 2 * 4 + 3 halo rows and took its own norms.
    filters = (filter_rows((2, 4), window) * frames + 40 * dim) * 8
    run = ["run", "--ref", ref, "--query", query, "--gt", gt, "--seqmatch-length", length,
           "--radius", 2, "--out-dir", tmp_path]
    match = ["match", "--query", query, "--ref", ref, "--seqmatch-length", length,
             "--out-matches", tmp_path / "m.csv"]
    for argv, held in (
        ([*run, "--transform", "delta", "--window", window], bound),
        (match, bound),
        ([*run, "--transform", "multi-delta", "--spans", 2, window], bound + filters),
    ):
        assert held < q_count * dim * 8 / 2
        assert peak_matrices(deltadesc.cli.main, [str(a) for a in argv]) * MATRIX_BYTES <= held


def test_synth_holds_the_latent_its_squares_and_a_few_blocks(tmp_path):
    window = 20
    params = SynthParams(FRAMES, FRAMES, window, 0.5, 0.1, WARP, seed=7)
    deltadesc.cli.main(synth_argv(SynthParams(2, 2, warp=WARP), tmp_path))  # numpy's lazy imports
    # measured 2.105, where the whole traverses held 6.02: the latent and the draw buffer that
    # takes its squares, and the window mean's running sums with their 20 carried rows. The
    # row blocks come after the draws are freed: one block, its noise, its warped rows and
    # the float32 chunk, 0.5 in all. 0.03 covers numpy's small temporaries.
    bound = 2.0 + blocks(BOX_BLOCK_ROWS + window) + 0.03
    assert peak_matrices(deltadesc.cli.main, synth_argv(params, tmp_path)) <= bound
