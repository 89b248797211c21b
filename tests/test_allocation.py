"""Allocation peaks of loading, the transforms and the dense match path, in float64 matrices.

Each call is traced with tracemalloc from an already-built input, so the peak
is what the call itself allocates. The unit is one 1000 x 1000 float64 matrix,
the Q x R distance matrix or the T x D descriptor matrix. The bounds pin the
memory model: delta and smooth hold one padded copy of the series plus their
output, distance builds one matrix in place, seq_match allocates only
its output plus per-block counts, retrieve_best allocates per-query vectors
only, a sealed array is adopted without a copy, and reading a float32 file
holds the file's bytes plus the float64 payload.
"""

import tracemalloc

import numpy as np
import pytest

from deltadesc import (
    VALID_ONLY,
    DeltaConfig,
    DescriptorSeries,
    DistanceMatrix,
    delta,
    distance_matrix,
    read_descriptors,
    retrieve_best,
    seq_match,
    smooth,
    write_descriptors,
)

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


@pytest.mark.parametrize("padding", ["edge-replicate", VALID_ONLY])
def test_delta_holds_the_padded_copy_and_its_output(square_series, padding):
    assert peak_matrices(delta, square_series, DeltaConfig(16, padding=padding)) <= 2.1


def test_smooth_holds_the_padded_copy_and_its_output(square_series):
    assert peak_matrices(smooth, square_series, 16) <= 2.1


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


def test_reading_float32_holds_the_file_and_the_payload(tmp_path):
    path = tmp_path / "series.dvpr"
    data = np.random.default_rng(2).normal(size=(FRAMES, FRAMES))
    write_descriptors(path, DescriptorSeries(data))
    assert peak_matrices(read_descriptors, path) <= 1.55
