"""Allocation peaks of the dense match path, in units of one Q x R float64 matrix.

Each call is traced with tracemalloc from an already-built input, so the peak
is what the call itself allocates. The bounds pin the memory model: distance
builds one matrix in place, seq_match allocates only its output plus
per-block counts, and retrieve_best allocates per-query vectors only.
"""

import tracemalloc

import numpy as np
import pytest

from deltadesc import DescriptorSeries, DistanceMatrix, distance_matrix, retrieve_best, seq_match

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


def test_distance_matrix_holds_one_matrix(inputs):
    query, ref, _ = inputs
    assert peak_matrices(distance_matrix, query, ref) <= 1.05


def test_seq_match_holds_its_output_only(inputs):
    assert peak_matrices(seq_match, inputs[2], 8) <= 1.25


def test_retrieve_best_copies_no_matrix(inputs):
    assert peak_matrices(retrieve_best, inputs[2]) <= 0.05


def test_adopting_a_result_copies_nothing(inputs):
    assert peak_matrices(DistanceMatrix, inputs[2].values) <= 0.01
