"""Cosine distances, bank minima and self-distance profiles against a pure-loop oracle.

The oracle is written out element by element, so it shares nothing with the
library's GEMM kernel or with ``cosine_distance``. Rows come in four kinds:
ordinary rows, rows of exact zeros, dead rows with a norm below 1e-12, and
tiny rows whose norm is small but above the threshold. Profiles long enough to
cross the profile's GEMM blocks are checked against a per-offset row-dot loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadesc import DescriptorSeries, distance_matrix, multi_delta_distance, self_distance_profile
from deltadesc.calibration import PROFILE_BLOCK_ROWS as B

# row norm per kind; "dead" sits well below the 1e-12 threshold, "tiny" well above it
ROW_NORMS = {"live": None, "zero": 0.0, "dead": 3e-14, "tiny": 1e-10}
kinds = st.sampled_from(sorted(ROW_NORMS))


def oracle_distance(a, b) -> float:
    """1 - a.b / (|a||b|), clipped to [0, 2]; 1.0 when either norm is below 1e-12."""
    na = math.sqrt(sum(float(x) * float(x) for x in a))
    nb = math.sqrt(sum(float(y) * float(y) for y in b))
    if na < 1e-12 or nb < 1e-12:
        return 1.0
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    return min(max(1.0 - dot / (na * nb), 0.0), 2.0)


def is_dead(row) -> bool:
    return math.sqrt(sum(float(x) * float(x) for x in row)) < 1e-12


def make_rows(row_kinds, dim, rng) -> np.ndarray:
    rows = rng.normal(size=(len(row_kinds), dim))
    for i, kind in enumerate(row_kinds):
        norm = ROW_NORMS[kind]
        if norm is None:
            rows[i] *= rng.uniform(0.1, 10.0)
        else:
            rows[i] *= norm / np.linalg.norm(rows[i])
    return rows


def oracle_matrix(q_rows, r_rows) -> np.ndarray:
    return np.array([[oracle_distance(a, b) for b in r_rows] for a in q_rows])


@settings(max_examples=60, deadline=None)
@given(
    q_kinds=st.lists(kinds, min_size=1, max_size=7),
    r_kinds=st.lists(kinds, min_size=1, max_size=7),
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_distance_matrix_matches_oracle(q_kinds, r_kinds, dim, seed):
    rng = np.random.default_rng(seed)
    q_rows, r_rows = make_rows(q_kinds, dim, rng), make_rows(r_kinds, dim, rng)
    got = distance_matrix(DescriptorSeries(q_rows), DescriptorSeries(r_rows)).values
    expected = oracle_matrix(q_rows, r_rows)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    for i, a in enumerate(q_rows):
        for j, b in enumerate(r_rows):
            if is_dead(a) or is_dead(b):
                assert got[i, j] == 1.0


@settings(max_examples=40, deadline=None)
@given(
    frames=st.integers(min_value=1, max_value=5),
    dim=st.integers(min_value=1, max_value=5),
    q_banks=st.integers(min_value=1, max_value=3),
    r_banks=st.integers(min_value=1, max_value=3),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_multi_delta_distance_is_oracle_min_over_pairings(
    frames, dim, q_banks, r_banks, data, seed
):
    rng = np.random.default_rng(seed)
    member_kinds = st.lists(kinds, min_size=frames, max_size=frames)
    q_bank = [make_rows(data.draw(member_kinds), dim, rng) for _ in range(q_banks)]
    r_bank = [make_rows(data.draw(member_kinds), dim, rng) for _ in range(r_banks)]
    got = multi_delta_distance(
        [DescriptorSeries(m) for m in q_bank], [DescriptorSeries(m) for m in r_bank]
    ).values
    pairings = [oracle_matrix(qm, rm) for qm in q_bank for rm in r_bank]
    np.testing.assert_allclose(got, np.minimum.reduce(pairings), rtol=0, atol=1e-12)
    for i in range(frames):
        for j in range(frames):
            if all(is_dead(qm[i]) or is_dead(rm[j]) for qm in q_bank for rm in r_bank):
                assert got[i, j] == 1.0


@settings(max_examples=40, deadline=None)
@given(
    row_kinds=st.lists(kinds, min_size=2, max_size=12),
    dim=st.integers(min_value=1, max_value=5),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_self_distance_profile_matches_oracle(row_kinds, dim, data, seed):
    rows = make_rows(row_kinds, dim, np.random.default_rng(seed))
    d_max = data.draw(st.integers(min_value=1, max_value=len(rows) - 1))
    got = self_distance_profile(DescriptorSeries(rows), d_max).median_distance
    expected = [
        np.median([oracle_distance(rows[t], rows[t + d]) for t in range(len(rows) - d)])
        for d in range(1, d_max + 1)
    ]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def rowwise_profile(rows, d_max) -> np.ndarray:
    """Median cosine distance per offset from one row-wise dot product per offset."""
    norms = np.linalg.norm(rows, axis=1)
    scales = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= 1e-12)
    medians = []
    for d in range(1, d_max + 1):
        dots = np.einsum("td,td->t", rows[:-d], rows[d:])
        medians.append(np.median(np.clip(1.0 - dots * scales[:-d] * scales[d:], 0.0, 2.0)))
    return np.array(medians)


@pytest.mark.parametrize("frames", [B - 1, B, B + 1, 2 * B + 1])
def test_self_distance_profile_across_gemm_blocks(frames):
    rng = np.random.default_rng(frames)
    row_kinds = rng.choice(sorted(ROW_NORMS), size=frames, p=[0.1, 0.7, 0.1, 0.1])
    rows = make_rows(row_kinds, 5, rng)
    # offsets that stay inside a block, reach into the next one, and span all rows
    for d_max in sorted({1, min(B // 2 + 1, frames - 1), min(B + 1, frames - 1), frames - 1}):
        got = self_distance_profile(DescriptorSeries(rows), d_max).median_distance
        np.testing.assert_allclose(got, rowwise_profile(rows, d_max), rtol=0, atol=1e-12)
