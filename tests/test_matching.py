from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deltadesc.cli
import deltadesc.matching
import deltadesc.series
import deltadesc.transform
from deltadesc import (
    DeltaConfig,
    DescriptorSeries,
    DistanceMatrix,
    MatchSet,
    cosine_distance,
    delta,
    delta_bank,
    distance_matrix,
    multi_delta_distance,
    retrieve_best,
    seq_match,
)

from test_cli import query_rows

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def seq_match_oracle(values, length):
    """Full-size accumulator and count arrays, the original dense formulation."""
    q_count, r_count = values.shape
    acc = np.zeros((q_count, r_count))
    cnt = np.zeros((q_count, r_count))
    for k in range(-(length // 2), (length + 1) // 2):
        q0, q1 = max(0, -k), min(q_count, q_count - k)
        r0, r1 = max(0, -k), min(r_count, r_count - k)
        if q1 <= q0 or r1 <= r0:
            continue
        acc[q0:q1, r0:r1] += values[q0 + k : q1 + k, r0 + k : r1 + k]
        cnt[q0:q1, r0:r1] += 1.0
    return acc / cnt


def seq_match_cells(values, length):
    """Per-cell double loop: the in-bounds shifts summed in increasing k, then their mean."""
    q_count, r_count = values.shape
    out = np.empty((q_count, r_count))
    for q in range(q_count):
        for r in range(r_count):
            total, count = 0.0, 0
            for k in range(-(length // 2), (length + 1) // 2):
                if 0 <= q + k < q_count and 0 <= r + k < r_count:
                    total += float(values[q + k, r + k])
                    count += 1
            out[q, r] = total / count
    return out


def random_distances(seed, q_count, r_count):
    """Uniform distances in [0, 2] with some exact zeros, twos and repeated values."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 2.0, size=(q_count, r_count))
    pick = rng.random((q_count, r_count))
    values[pick < 0.1] = 0.0
    values[pick > 0.95] = 2.0
    values[(pick > 0.5) & (pick < 0.6)] = 0.5
    return values


class TestCosineDistance:
    def test_hand_cases(self):
        assert cosine_distance([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
        assert cosine_distance([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0 - INV_SQRT2, abs=1e-12)

    def test_zero_vector_convention(self):
        assert cosine_distance([0.0, 0.0], [1.0, 2.0]) == 1.0
        assert cosine_distance([0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_distance([1.0, 2.0], [1.0, 2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale_a=st.floats(min_value=1e-3, max_value=1e3),
        scale_b=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_symmetric_and_scale_invariant(self, seed, scale_a, scale_b):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=6), rng.normal(size=6)
        d = cosine_distance(a, b)
        assert abs(d - cosine_distance(b, a)) <= 1e-9
        assert abs(d - cosine_distance(scale_a * a, scale_b * b)) <= 1e-9
        assert 0.0 <= d <= 2.0


class TestDistanceMatrix:
    def test_self_match_has_zero_diagonal(self):
        series = DescriptorSeries(np.random.default_rng(0).normal(size=(10, 5)))
        m = distance_matrix(series, series)
        np.testing.assert_allclose(np.diag(m.values), 0.0, atol=1e-12)

    def test_one_by_one(self):
        q = DescriptorSeries(np.array([[1.0, 0.0]]))
        r = DescriptorSeries(np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(distance_matrix(q, r).values, [[1.0]], atol=1e-15)

    def test_two_by_two_hand_case(self):
        q = DescriptorSeries(np.array([[1.0, 0.0], [1.0, 1.0]]))
        r = DescriptorSeries(np.array([[1.0, 0.0], [0.0, 1.0]]))
        expected = np.array([[0.0, 1.0], [1.0 - INV_SQRT2, 1.0 - INV_SQRT2]])
        np.testing.assert_allclose(distance_matrix(q, r).values, expected, atol=1e-12)

    def test_zero_rows_give_unit_distance(self):
        q = DescriptorSeries(np.array([[0.0, 0.0], [1.0, 0.0]]))
        r = DescriptorSeries(np.array([[2.0, 0.0]]))
        np.testing.assert_array_equal(distance_matrix(q, r).values, [[1.0], [0.0]])

    def test_matches_scalar_op(self):
        rng = np.random.default_rng(1)
        q = DescriptorSeries(rng.normal(size=(7, 4)))
        r = DescriptorSeries(rng.normal(size=(9, 4)))
        m = distance_matrix(q, r).values
        for i in range(7):
            for j in range(9):
                assert m[i, j] == pytest.approx(cosine_distance(q.data[i], r.data[j]), abs=1e-12)

    def test_dimension_mismatch(self):
        q = DescriptorSeries(np.ones((2, 3)))
        r = DescriptorSeries(np.ones((2, 4)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            distance_matrix(q, r)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[3.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[np.inf]]))


class _AdoptionCases:
    """``_freeze``'s ownership rule, seen through one value type's ``held`` array."""

    def test_read_only_owning_float64_is_adopted(self):
        values = np.full((3, 4), 0.5)
        values.setflags(write=False)
        held = self.held(values)
        assert np.shares_memory(held, values)
        assert not held.flags.writeable

    def test_writable_input_is_copied(self):
        values = np.full((3, 4), 0.5)
        held = self.held(values)
        values[:] = 1.5
        np.testing.assert_array_equal(held, 0.5)
        assert not np.shares_memory(held, values)
        assert values.flags.writeable

    def test_read_only_view_is_copied(self):
        base = np.full((3, 4), 0.5)
        view = base[:, :2]
        view.setflags(write=False)
        held = self.held(view)
        base[:] = 1.5
        np.testing.assert_array_equal(held, 0.5)

    def test_float32_is_converted(self):
        values = np.full((2, 2), 0.25, dtype=np.float32)
        values.setflags(write=False)
        held = self.held(values)
        assert held.dtype == np.float64
        np.testing.assert_array_equal(held, 0.25)


class TestDescriptorSeriesAdoption(_AdoptionCases):
    @staticmethod
    def held(values):
        return DescriptorSeries(values).data


class TestDistanceMatrixAdoption(_AdoptionCases):
    @staticmethod
    def held(values):
        return DistanceMatrix(values).values

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_non_finite_rejected(self, bad):
        values = np.full((2, 3), 0.5)
        values[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DistanceMatrix(values)

    @pytest.mark.parametrize("bad", [3.0, -0.1])
    def test_out_of_range_rejected(self, bad):
        values = np.full((2, 3), 0.5)
        values[0, 1] = bad
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            DistanceMatrix(values)

    def test_nan_wins_over_range(self):
        values = np.array([[3.0, np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            DistanceMatrix(values)

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (2, 0), (1, 2, 2)],
                             ids=["1-d", "no-rows", "no-columns", "3-d"])
    def test_non_matrix_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="distance matrix must be Q x R, got shape"):
            DistanceMatrix(np.full(shape, 0.5))

    def test_results_are_adopted_read_only(self):
        rng = np.random.default_rng(8)
        q = DescriptorSeries(rng.normal(size=(5, 3)))
        r = DescriptorSeries(rng.normal(size=(6, 3)))
        for m in (distance_matrix(q, r), multi_delta_distance([q, q], [r]),
                  seq_match(distance_matrix(q, r), 3)):
            assert m.values.flags.owndata and not m.values.flags.writeable


class TestMatchSet:
    @pytest.mark.parametrize("indices, distances, message", [
        ([0, 1], [0.1], r"one \(index, distance\) pair per query"),
        ([], [], r"one \(index, distance\) pair per query"),
        ([0, -1], [0.1, 0.2], "indices must be non-negative"),
        ([0], [2.5], r"distances must lie in \[0, 2\]"),
        ([0], [np.nan], r"distances must lie in \[0, 2\]"),
    ], ids=["lengths-differ", "empty", "negative-index", "distance-above-two", "nan-distance"])
    def test_rejected(self, indices, distances, message):
        with pytest.raises(ValueError, match=message):
            MatchSet(np.array(indices, dtype=np.int64), np.array(distances, dtype=np.float64))


class TestSeqMatch:
    def test_length_one_is_identity(self):
        values = np.random.default_rng(2).uniform(0, 2, size=(6, 8))
        m = DistanceMatrix(values)
        np.testing.assert_array_equal(seq_match(m, 1).values, values)

    def test_three_by_three_hand_case(self):
        values = np.ones((3, 3))
        np.fill_diagonal(values, 0.0)
        out = seq_match(DistanceMatrix(values), 3).values
        assert out[1, 1] == 0.0  # mean of the three diagonal zeros
        assert out[0, 0] == 0.0  # only two in-bounds terms, both zero
        assert out[0, 1] == 1.0  # off-diagonal line stays at one

    def test_boundary_count_normalization(self):
        values = np.arange(16, dtype=float).reshape(4, 4) / 16.0
        out = seq_match(DistanceMatrix(values), 3).values
        # corner (0, 0): k in {0, +1} -> mean of m[0,0], m[1,1]
        assert out[0, 0] == pytest.approx((values[0, 0] + values[1, 1]) / 2)
        # corner (3, 3): k in {-1, 0} -> mean of m[2,2], m[3,3]
        assert out[3, 3] == pytest.approx((values[2, 2] + values[3, 3]) / 2)
        # interior (1, 2): k in {-1, 0, 1}
        assert out[1, 2] == pytest.approx((values[0, 1] + values[1, 2] + values[2, 3]) / 3)

    def test_constant_matrix_fixed_point(self):
        m = DistanceMatrix(np.full((5, 7), 0.75))
        np.testing.assert_allclose(seq_match(m, 4).values, 0.75, atol=1e-15)

    def test_direct_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 2, size=(9, 11))
        for length in (2, 3, 8):
            out = seq_match(DistanceMatrix(values), length).values
            for q in range(9):
                for r in range(11):
                    terms = [
                        values[q + k, r + k]
                        for k in range(-(length // 2), (length + 1) // 2)
                        if 0 <= q + k < 9 and 0 <= r + k < 11
                    ]
                    assert out[q, r] == pytest.approx(np.mean(terms), abs=1e-12)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            seq_match(DistanceMatrix(np.zeros((2, 2))), 0)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        q_count=st.integers(min_value=1, max_value=40),
        r_count=st.integers(min_value=1, max_value=40),
        length=st.integers(min_value=1, max_value=50),
    )
    def test_equals_dense_oracle_bit_for_bit(self, seed, q_count, r_count, length):
        values = random_distances(seed, q_count, r_count)
        out = seq_match(DistanceMatrix(values), length).values
        assert np.array_equal(out, seq_match_oracle(values, length))

    @pytest.mark.parametrize("q_count", [63, 64, 65, 129])
    @pytest.mark.parametrize("length", [1, 2, 8, 33, 200])
    def test_block_edges_equal_dense_oracle(self, q_count, length):
        values = random_distances(q_count, q_count, 70)
        out = seq_match(DistanceMatrix(values), length).values
        assert np.array_equal(out, seq_match_oracle(values, length))

    def test_negative_zero_sums_like_the_oracle(self):
        values = np.full((3, 3), -0.0)
        out = seq_match(DistanceMatrix(values), 1).values
        assert out.tobytes() == seq_match_oracle(values, 1).tobytes()


class TestCacheSizedBlocks:
    """``seq_match`` and ``_cosine_block`` in blocks of ``SEQ_BLOCK_ROWS`` rows, and the
    blocked ``_row_scales``, against unblocked formulations, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        q_count=st.integers(min_value=1, max_value=40),
        r_count=st.integers(min_value=1, max_value=40),
        length=st.integers(min_value=1, max_value=9),
        block_rows=st.sampled_from([1, 3, 16]),
    )
    @example(seed=0, q_count=3, r_count=40, length=9, block_rows=16)
    @example(seed=1, q_count=40, r_count=2, length=8, block_rows=3)
    @example(seed=2, q_count=5, r_count=4, length=9, block_rows=1)
    def test_seq_match_equals_the_per_cell_loop(self, seed, q_count, r_count, length, block_rows):
        values = random_distances(seed, q_count, r_count)
        with mock.patch.object(deltadesc.matching, "SEQ_BLOCK_ROWS", block_rows):
            out = seq_match(DistanceMatrix(values), length).values
        assert np.array_equal(out, seq_match_cells(values, length))

    @pytest.mark.parametrize("block_rows", [1, 3, 16])
    @pytest.mark.parametrize("q_count", [1, 16, 17, 50])
    def test_cosine_block_equals_the_one_shot_expression(self, q_count, block_rows):
        rng = np.random.default_rng(q_count)
        q, r = rng.normal(size=(q_count, 12)), rng.normal(size=(37, 12))
        q[::4], r[::5] = 0.0, 0.0  # zero-norm rows, which compare at exactly 1.0
        q_scale, r_scale = deltadesc.matching._row_scales(q), deltadesc.matching._row_scales(r)
        want = np.clip(1.0 - (q @ r.T) * q_scale[:, None] * r_scale[None, :], 0.0, 2.0)
        with mock.patch.object(deltadesc.matching, "SEQ_BLOCK_ROWS", block_rows):
            got = deltadesc.matching._cosine_block(q, q_scale, r, r_scale)
        assert np.array_equal(got, want)
        assert np.all(got[::4] == 1.0) and np.all(got[:, ::5] == 1.0)

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("dim", [1, 7, 512])
    def test_row_scales_equal_the_whole_matrix_norms(self, rows, dim):
        rng = np.random.default_rng(rows * dim)
        data = rng.normal(size=(rows, dim)) * rng.uniform(1e-14, 1e3, size=(rows, 1))
        data[::9] = 0.0
        norms = np.linalg.norm(data, axis=1)
        want = np.divide(1.0, norms, out=np.zeros(rows), where=norms >= deltadesc.matching.ZERO_NORM)
        assert np.array_equal(deltadesc.matching._row_scales(data), want)

    def test_series_scales_are_computed_once(self, monkeypatch):
        series = DescriptorSeries(np.random.default_rng(12).normal(size=(20, 3)))
        spy = mock.Mock(wraps=deltadesc.series._row_scales)
        monkeypatch.setattr(deltadesc.series, "_row_scales", spy)
        first = series.row_scales
        assert series.row_scales is first and spy.call_count == 1
        assert not first.flags.writeable


class TestMultiDelta:
    def test_singleton_banks_equal_plain_matching(self):
        rng = np.random.default_rng(4)
        ref = DescriptorSeries(rng.normal(size=(40, 5)))
        query = DescriptorSeries(rng.normal(size=(40, 5)))
        qb, rb = delta_bank(query, (4,)), delta_bank(ref, (4,))
        expected = distance_matrix(delta(query, DeltaConfig(4)), delta(ref, DeltaConfig(4)))
        np.testing.assert_array_equal(
            multi_delta_distance(qb, rb).values, expected.values
        )

    def test_minimum_over_all_combinations(self):
        rng = np.random.default_rng(5)
        ref = DescriptorSeries(rng.normal(size=(120, 6)))
        query = DescriptorSeries(rng.normal(size=(120, 6)))
        spans = (30, 40, 50, 60)
        qb, rb = delta_bank(query, spans), delta_bank(ref, spans)
        out = multi_delta_distance(qb, list(rb)).values
        combos = [distance_matrix(qs, rs).values for qs in qb for rs in rb]
        assert len(combos) == 16
        np.testing.assert_array_equal(out, np.minimum.reduce(combos))
        for combo in combos:
            assert np.all(out <= combo + 1e-15)

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="empty bank"):
            multi_delta_distance([], [])

    @pytest.mark.parametrize("side", ["query", "ref"])
    @pytest.mark.parametrize("shape", [(30, 5), (40, 6)], ids=["frames", "dims"])
    def test_misaligned_members_rejected_before_any_gemm(self, side, shape, monkeypatch):
        rng = np.random.default_rng(7)
        aligned = [DescriptorSeries(rng.normal(size=(40, 5))) for _ in range(2)]
        misaligned = [aligned[0], DescriptorSeries(rng.normal(size=shape))]
        banks = (misaligned, aligned) if side == "query" else (aligned, misaligned)

        def no_gemm(*args):
            raise AssertionError("GEMM ran before the alignment check")

        monkeypatch.setattr("deltadesc.matching._cosine_block", no_gemm)
        with pytest.raises(ValueError, match="bank members must share frame count and dimension"):
            multi_delta_distance(*banks)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        q_spans=st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
        r_spans=st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    def test_member_order_changes_no_bit(self, seed, q_spans, r_spans, data):
        # np.minimum is exact, so the order of a bank's members is free
        rng = np.random.default_rng(seed)
        ref_data, query_data = rng.normal(size=(30, 5)), rng.normal(size=(25, 5))
        query_data[8:18] = query_data[8]  # a stationary stretch: zero deltas, dead rows
        qb = delta_bank(DescriptorSeries(query_data), q_spans)
        rb = delta_bank(DescriptorSeries(ref_data), r_spans)
        q_order = data.draw(st.permutations(range(len(qb))))
        r_order = data.draw(st.permutations(range(len(rb))))
        permuted = multi_delta_distance([qb[i] for i in q_order], [rb[i] for i in r_order])
        assert np.array_equal(permuted.values, multi_delta_distance(qb, list(rb)).values)

    def test_offset_robustness_in_delta_space(self):
        # constant descriptor offsets leave delta-space distances untouched
        rng = np.random.default_rng(6)
        data = rng.normal(size=(60, 8))
        offset = rng.normal(size=8) * 5.0
        x = DescriptorSeries(data)
        y = DescriptorSeries(data + offset)
        cfg = DeltaConfig(5)
        base = distance_matrix(delta(x, cfg), delta(x, cfg)).values
        shifted = distance_matrix(delta(x, cfg), delta(y, cfg)).values
        np.testing.assert_allclose(shifted, base, atol=1e-6)
        raw_diag = np.diag(distance_matrix(x, y).values)
        assert np.all(raw_diag > 0.0)


# Largest |factored - direct| distance this strategy is meant to show on references of
# 20-60 frames, the lengths its test draws. The worst seen over 3000 random cases was
# 3.9e-12, at reference rows whose delta norm is ~1e-3 of the source's, but it does not
# cover every draw: 20 query and 60 reference frames, D 2, query spans {3} and reference
# spans {1, 2} at seed 2147483648 give 4.1e-11. The error grows with the reference
# length: the worst seen was 4.3e-11 at 150-200 frames and LONG_REFERENCE_ERROR at
# 400-500. It needs offsets well below ~100: there the direct path's rounding noise in a
# delta that is exactly zero can exceed ZERO_NORM, and such a row compares at an
# arbitrary distance.
FACTORED_BOUND = 1e-11
# the worst |factored - direct| distance seen over 3000 random cases with 400-500-frame
# references, all at D = 2 with a query bank. It is not the worst case: one draw of the
# long-reference test below, seed 323153949 with query spans {1, 3} as a bank, reference
# bank {1, 4, 8}, D 2, 26 query and 479 reference frames, is in ROADMAP.md at 1.97e-9 (drawn
# as this test draws, reference walk first, those parameters give 6.7e-12). That cell's
# reference row has a span-1 delta norm of 1.7e-3, and the cell is not its row's best
# match. The test still holds because it compares argmins outside near-ties, not errors:
# such a cell moves an argmin only if it lies within its own error (~2e-9) of the best.
LONG_REFERENCE_ERROR = 2.6e-10


def stationary_walk(rng, frames, dims, offset):
    """A random walk plus a per-traverse offset, with one stationary stretch (zero deltas)."""
    walk = np.cumsum(rng.normal(size=(frames, dims)), axis=0) * 0.3
    walk += rng.normal(size=(frames, dims)) * 0.1 + rng.normal(size=dims) * offset
    start = int(rng.integers(0, frames - 4))
    walk[start : start + int(rng.integers(4, 20))] = walk[start]
    return DescriptorSeries(walk)


def filter_columns(vals, spans, scales, best, block_rows):
    """The query filter as it ran before the filters moved into the result: raise ``best``
    to each span's delta of ``vals`` along its columns, times its scales, from the
    running sums of one copy of each block, edge-padded by the largest span."""
    pad, cols = max(spans), vals.shape[1]
    for b0 in range(0, len(vals), block_rows):
        block, top = vals[b0 : b0 + block_rows], best[b0 : b0 + block_rows]
        sums = np.concatenate([np.repeat(block[:, :1], pad, 1), block,
                               np.repeat(block[:, -1:], pad, 1)], axis=1)
        np.cumsum(sums, axis=1, out=sums)
        for span, scale in zip(spans, scales):
            mid = sums[:, pad : pad + cols]
            o = np.subtract(sums[:, pad + span : pad + span + cols], mid)
            o -= mid
            o += sums[:, pad - span : pad - span + cols]
            o *= scale
            np.maximum(top, o, out=top)


def two_matrix_filters(gram, q_bank, bank, block_rows):
    """The reference delta down the R x Q product with ``_delta_blocks``, the query filter
    into an R x Q running best, then 1 - x of its transpose: the filters' former oracle."""
    sims = np.full(gram.shape, -np.inf)
    scales = [scale / span for span, scale in zip(q_bank.spans, q_bank.row_scales)]
    for span, r_scale in zip(bank.spans, bank.row_scales):
        for t0, rows in deltadesc.transform._delta_blocks(gram, span, 0, len(gram)):
            rows *= r_scale[t0 : t0 + len(rows), None]
            filter_columns(rows, q_bank.spans, scales, sims[t0 : t0 + len(rows)], block_rows)
    dist = np.subtract(1.0, sims.T, order="C")
    return np.clip(dist, 0.0, 2.0, out=dist)


class TestFactoredBank:
    """Two span banks matched through the product of their sources, against the direct n*m
    path."""

    @settings(max_examples=150, deadline=None)
    @given(
        q_count=st.integers(20, 60),
        r_count=st.integers(20, 60),
        dim=st.integers(2, 8),
        q_spans=st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
        # spans past a block of 1 or 3 rows, and past the reference
        r_spans=st.lists(
            st.one_of(st.integers(2, 8), st.integers(60, 250)), min_size=1, max_size=3, unique=True
        ),
        wide=st.booleans(),
        block_rows=st.sampled_from([1, 3, deltadesc.transform.BOX_BLOCK_ROWS]),
        data=st.data(),
    )
    def test_factored_equals_direct_within_bound(
        self, q_count, r_count, dim, q_spans, r_spans, wide, block_rows, data
    ):
        # D in (R, 4R]: a query bank's source is centred in two or more blocks of rows. The
        # worst error seen over 1500 random wide query banks was 7.9e-14.
        if wide:
            dim = data.draw(st.integers(r_count + 1, 4 * r_count), label="wide dim")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        ref = stationary_walk(rng, r_count, dim, offset=5.0)
        query = stationary_walk(rng, q_count, dim, offset=5.0)
        # the query bank is filtered through its source too
        gemms = mock.Mock(wraps=np.matmul)
        with mock.patch.object(deltadesc.transform, "BOX_BLOCK_ROWS", block_rows):
            qb, rb = delta_bank(query, q_spans), delta_bank(ref, [1, *r_spans])
            with mock.patch.object(deltadesc.matching.np, "matmul", gemms):
                got = multi_delta_distance(qb, rb).values
        # one GEMM per block of centred query rows
        assert gemms.call_count >= (2 if wide else 1)
        direct = multi_delta_distance(list(qb), list(rb)).values
        np.testing.assert_allclose(got, direct, rtol=0, atol=FACTORED_BOUND)
        # the block size of the streamed running sums changes no bit
        assert np.array_equal(got, multi_delta_distance(qb, rb).values)

        # where every pairing has a row below ZERO_NORM, the cell is exactly 1.0
        def dead(members):
            return np.array([np.linalg.norm(m.data, axis=1) < deltadesc.matching.ZERO_NORM
                             for m in members])

        q_dead, r_dead = dead(qb), dead(rb)
        all_dead = np.all(q_dead[:, None, :, None] | r_dead[None, :, None, :], axis=(0, 1))
        assert np.all(got[all_dead] == 1.0)
        assert np.all(got[:, np.all(r_dead, axis=0)] == 1.0)
        assert np.all(got[np.all(q_dead, axis=0)] == 1.0)

        # argmins agree except where the direct best is a near-tie
        q = np.arange(q_count)
        ranked = np.sort(direct, axis=1)
        clear = ranked[:, 1] - ranked[:, 0] > 2 * FACTORED_BOUND if r_count > 1 else True
        assert np.array_equal(got.argmin(axis=1)[clear], direct.argmin(axis=1)[clear])
        assert np.all(direct[q, got.argmin(axis=1)] - ranked[:, 0] <= 2 * FACTORED_BOUND)

    @settings(max_examples=150, deadline=None)
    @given(
        q_count=st.integers(1, 70),
        r_count=st.integers(1, 70),
        dim=st.integers(1, 6),
        # spans past a block of 1, 3, 16 or 64 rows, and past either series
        q_spans=st.lists(
            st.one_of(st.integers(1, 8), st.integers(17, 90)), min_size=1, max_size=3, unique=True
        ),
        r_spans=st.lists(
            st.one_of(st.integers(1, 8), st.integers(17, 90)), min_size=2, max_size=3, unique=True
        ),
        box_rows=st.sampled_from([1, 3, deltadesc.transform.BOX_BLOCK_ROWS]),
        seq_rows=st.sampled_from([1, 3, deltadesc.matching.SEQ_BLOCK_ROWS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_filters_in_the_result_equal_the_two_matrix_filters(
        self, q_count, r_count, dim, q_spans, r_spans, box_rows, seq_rows, seed
    ):
        rng = np.random.default_rng(seed)
        ref = DescriptorSeries(rng.normal(size=(r_count, dim)) + 3.0)
        qb = delta_bank(DescriptorSeries(rng.normal(size=(q_count, dim)) + 3.0), q_spans)
        rb = delta_bank(ref, r_spans)
        # the same product reaches both: the GEMM into the result's transposed view may round
        # differently from one into an R x Q array
        products, centred_product = [], deltadesc.matching._centred_product

        def same_product(source, q, out, q_mean):
            products.append(np.empty(out.shape))
            centred_product(source, q, products[-1], q_mean)
            out[...] = products[-1]

        with mock.patch.object(deltadesc.matching, "_centred_product", same_product), \
                mock.patch.object(deltadesc.transform, "BOX_BLOCK_ROWS", box_rows), \
                mock.patch.object(deltadesc.matching, "SEQ_BLOCK_ROWS", seq_rows):
            got = deltadesc.matching._bank_distances(qb, rb)
            (product,) = products
            want = two_matrix_filters(product, qb, rb, seq_rows)
        assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        q_count=st.integers(20, 60),
        r_count=st.integers(400, 500),
        dim=st.integers(2, 8),
        q_spans=st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
        r_spans=st.lists(
            st.one_of(st.integers(2, 8), st.integers(60, 250)), min_size=1, max_size=3, unique=True
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_long_reference_argmins_equal_direct_outside_near_ties(
        self, q_count, r_count, dim, q_spans, r_spans, seed
    ):
        rng = np.random.default_rng(seed)
        ref = stationary_walk(rng, r_count, dim, offset=5.0)
        query = stationary_walk(rng, q_count, dim, offset=5.0)
        qb, rb = delta_bank(query, q_spans), delta_bank(ref, [1, *r_spans])
        got = multi_delta_distance(qb, rb).values
        direct = multi_delta_distance(list(qb), list(rb)).values
        ranked = np.sort(direct, axis=1)
        clear = ranked[:, 1] - ranked[:, 0] > 2 * LONG_REFERENCE_ERROR
        assert np.array_equal(got.argmin(axis=1)[clear], direct.argmin(axis=1)[clear])
        picked = direct[np.arange(q_count), got.argmin(axis=1)]
        assert np.all(picked - ranked[:, 0] <= 2 * LONG_REFERENCE_ERROR)

    @settings(max_examples=40, deadline=None)
    @given(
        # past several blocks of the default size, which the bound test above stays inside
        r_count=st.integers(65, 300),
        r_spans=st.lists(
            st.one_of(st.integers(1, 8), st.integers(60, 350)), min_size=2, max_size=3, unique=True
        ),
        block_rows=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_size_changes_no_bit_of_a_long_reference(
        self, r_count, r_spans, block_rows, seed
    ):
        rng = np.random.default_rng(seed)
        ref, query = stationary_walk(rng, r_count, 5, 5.0), stationary_walk(rng, 30, 5, 5.0)
        qb = delta_bank(query, (2, 6))
        want = multi_delta_distance(qb, delta_bank(ref, r_spans)).values
        with mock.patch.object(deltadesc.transform, "BOX_BLOCK_ROWS", block_rows):
            got = multi_delta_distance(qb, delta_bank(ref, r_spans)).values
        assert np.array_equal(got, want)

    def test_stationary_reference_rows_compare_at_exactly_one(self):
        rng = np.random.default_rng(12)
        ref_data = rng.normal(size=(80, 6)) + 5.0
        ref_data[20:60] = ref_data[20]  # spans up to 8 see only this row at t = 27 .. 51
        ref, query = DescriptorSeries(ref_data), DescriptorSeries(rng.normal(size=(50, 6)))
        rb = delta_bank(ref, (1, 4, 8))
        got = multi_delta_distance(delta_bank(query, (2, 4)), rb).values
        assert all(np.linalg.norm(m.data[27:52], axis=1).max() < 1e-12 for m in rb)
        assert np.all(got[:, 27:52] == 1.0)
        assert np.all(got[:, :19] != 1.0)

    def test_centring_keeps_a_large_offset_out_of_the_running_sums(self):
        # the oracle matches deltas of the walks without their offsets: equal in exact
        # arithmetic. No span is 1, whose last edge-replicate delta is exactly zero: the
        # direct path turns that zero into rounding noise above ZERO_NORM at this offset.
        # A list of query members would take the direct path, whose deltas carry the offset
        # (ROADMAP item 6), so the query is a bank with an offset of its own.
        rng = np.random.default_rng(5)
        walk = np.cumsum(rng.normal(size=(400, 32)), axis=0) * 0.3
        ref = DescriptorSeries(walk + rng.normal(size=32) * 1000.0)
        oracle_ref = list(delta_bank(DescriptorSeries(walk), (2, 8)))
        q_walk = np.cumsum(rng.normal(size=(100, 32)), axis=0) * 0.3
        query = DescriptorSeries(q_walk + rng.normal(size=32) * 1000.0)
        oracle = multi_delta_distance(list(delta_bank(DescriptorSeries(q_walk), (2, 8))), oracle_ref)
        got = multi_delta_distance(delta_bank(query, (2, 8)), delta_bank(ref, (2, 8)))
        # both sources centred: 1.3e-11, against 7.3e-11 for the direct path
        np.testing.assert_allclose(got.values, oracle.values, rtol=0, atol=3e-11)

    @pytest.mark.parametrize("length", [1, 5])
    def test_a_query_bank_over_several_tiles_equals_one_tile(self, length, monkeypatch):
        # one tile filters the query source; several tiles carry the query filters from
        # one tile to the next, and build no member
        rng = np.random.default_rng(13)
        query = delta_bank(stationary_walk(rng, 70, 6, offset=5.0), (1, 3, 8))
        ref = delta_bank(stationary_walk(rng, 50, 6, offset=5.0), (2, 4))
        one_tile = deltadesc.cli._match(query_rows(query), ref, length)
        tiles = mock.Mock(wraps=deltadesc.cli.retrieve_best)
        monkeypatch.setattr(deltadesc.cli, "retrieve_best", tiles)
        builds = mock.Mock(wraps=deltadesc.transform.delta)
        monkeypatch.setattr(deltadesc.transform, "delta", builds)
        # tiles of 30 kept rows, with seqmatch's halo and no span halo: with seqmatch the
        # distances and its output share the budget. Three tiles at L = 1 and at L = 5
        shared = 2 if length > 1 else 1
        monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", shared * 30 * 8 * 50)
        tiled = deltadesc.cli._match(query_rows(query), ref, length)
        assert tiles.call_count == 3
        assert builds.call_count == 0
        np.testing.assert_allclose(
            tiled.distances, one_tile.distances, rtol=0, atol=FACTORED_BOUND
        )
        # argmins agree except where the best is a near-tie
        dense = seq_match(multi_delta_distance(list(query), list(ref)), length).values
        ranked = np.sort(dense, axis=1)
        clear = ranked[:, 1] - ranked[:, 0] > 2 * FACTORED_BOUND
        assert clear.sum() > 60
        assert np.array_equal(tiled.ref_indices[clear], one_tile.ref_indices[clear])

    @pytest.mark.parametrize("length", [1, 5])
    def test_each_query_row_goes_through_the_gemm_once(self, length, monkeypatch):
        # a tile reads no halo rows: over all tiles, the centred products take every query
        # row once, whatever the longest span against the tile
        rng = np.random.default_rng(15)
        query = delta_bank(stationary_walk(rng, 120, 6, offset=5.0), (2, 16))
        ref = delta_bank(stationary_walk(rng, 40, 6, offset=5.0), (2, 4))
        products = mock.Mock(wraps=deltadesc.matching._centred_product)
        monkeypatch.setattr(deltadesc.matching, "_centred_product", products)
        tiles = mock.Mock(wraps=deltadesc.cli.retrieve_best)
        monkeypatch.setattr(deltadesc.cli, "retrieve_best", tiles)
        shared = 2 if length > 1 else 1
        monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", shared * 20 * 8 * 40)
        deltadesc.cli._match(query_rows(query), ref, length)
        assert tiles.call_count == 6
        assert sum(len(call.args[1]) for call in products.call_args_list) == 120

    @settings(max_examples=100, deadline=None)
    @given(
        q_count=st.integers(20, 89),
        r_count=st.integers(20, 60),
        dim=st.integers(2, 8),
        # spans shorter than a tile, and up to twice the longest tile
        q_spans=st.lists(
            st.one_of(st.integers(1, 8), st.integers(9, 39)), min_size=1, max_size=3, unique=True
        ),
        r_spans=st.lists(st.integers(2, 8), min_size=1, max_size=2, unique=True),
        length=st.integers(1, 8),
        # tile budgets from one row to more rows than the query has
        rows=st.integers(1, 99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_tiled_query_bank_equals_the_dense_direct_match(
        self, q_count, r_count, dim, q_spans, r_spans, length, rows, seed
    ):
        rng = np.random.default_rng(seed)
        ref = stationary_walk(rng, r_count, dim, offset=5.0)
        query = stationary_walk(rng, q_count, dim, offset=5.0)
        qb, rb = delta_bank(query, q_spans), delta_bank(ref, [1, *r_spans])
        dense = seq_match(multi_delta_distance(list(qb), list(rb)), length)
        want = retrieve_best(dense)
        # ``rows`` kept rows a tile, as any query takes: under seqmatch the distances and its
        # output share the budget, and each tile is widened by seqmatch's halo only
        shared = 2 if length > 1 else 1
        with mock.patch.object(deltadesc.cli, "MATCH_TILE_BYTES", shared * rows * 8 * r_count):
            got = deltadesc.cli._match(query_rows(qb), rb, length)
        np.testing.assert_allclose(got.distances, want.distances, rtol=0, atol=FACTORED_BOUND)
        # argmins agree except where the dense best is a near-tie
        q, ranked = np.arange(q_count), np.sort(dense.values, axis=1)
        clear = ranked[:, 1] - ranked[:, 0] > 2 * FACTORED_BOUND
        assert np.array_equal(got.ref_indices[clear], want.ref_indices[clear])
        assert np.all(dense.values[q, got.ref_indices] - ranked[:, 0] <= 2 * FACTORED_BOUND)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        q_spans=st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
        r_spans=st.lists(st.integers(1, 8), min_size=2, max_size=4, unique=True),
        data=st.data(),
    )
    def test_span_order_changes_no_bit(self, seed, q_spans, r_spans, data):
        rng = np.random.default_rng(seed)
        ref = stationary_walk(rng, 40, 5, offset=5.0)
        query = stationary_walk(rng, 30, 5, offset=5.0)
        q_order = data.draw(st.permutations(q_spans))
        r_order = data.draw(st.permutations(r_spans))
        want = multi_delta_distance(delta_bank(query, q_spans), delta_bank(ref, r_spans))
        got = multi_delta_distance(delta_bank(query, q_order), delta_bank(ref, r_order))
        assert np.array_equal(got.values, want.values)

    def test_singletons_and_lists_take_the_direct_path(self, monkeypatch):
        def no_factoring(*args):
            raise AssertionError("factored path ran")

        monkeypatch.setattr(deltadesc.matching, "_bank_distances", no_factoring)
        series = DescriptorSeries(np.random.default_rng(11).normal(size=(30, 8)))
        multi_delta_distance(delta_bank(series, (2, 4)), delta_bank(series, (4,)))
        multi_delta_distance(list(delta_bank(series, (2, 4))), list(delta_bank(series, (2, 4))))
        # a list of members against a reference bank is matched member by member too
        multi_delta_distance(list(delta_bank(series, (2, 4))), delta_bank(series, (2, 4)))
        multi_delta_distance(delta_bank(series, (2, 4)), list(delta_bank(series, (2, 4))))
        monkeypatch.undo()
        spy = mock.Mock(wraps=deltadesc.matching._bank_distances)
        monkeypatch.setattr(deltadesc.matching, "_bank_distances", spy)
        multi_delta_distance(delta_bank(series, (2, 4)), delta_bank(series, (2, 4)))
        assert spy.call_count == 1


class TestRetrieveBest:
    def test_self_match_diagonal(self):
        series = DescriptorSeries(np.random.default_rng(7).normal(size=(8, 4)))
        matches = retrieve_best(distance_matrix(series, series))
        np.testing.assert_array_equal(matches.ref_indices, np.arange(8))

    def test_argmin_hand_case(self):
        m = DistanceMatrix(np.array([[0.5, 0.2, 0.9]]))
        matches = retrieve_best(m)
        assert matches.ref_indices[0] == 1
        assert matches.distances[0] == 0.2

    def test_tie_breaks_to_lower_index(self):
        m = DistanceMatrix(np.array([[0.3, 0.3]]))
        assert retrieve_best(m).ref_indices[0] == 0

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        q_count=st.integers(min_value=1, max_value=40),
        r_count=st.integers(min_value=1, max_value=40),
        levels=st.integers(min_value=1, max_value=4),
    )
    def test_equals_argmin_of_writable_copy(self, seed, q_count, r_count, levels):
        # few distinct levels give tied minima, and levels == 1 gives constant rows
        rng = np.random.default_rng(seed)
        values = rng.integers(0, levels, size=(q_count, r_count)) / 2.0
        values[rng.integers(0, q_count)] = 1.0
        matches = retrieve_best(DistanceMatrix(values))
        expected = np.argmin(values.copy(), axis=1)
        np.testing.assert_array_equal(matches.ref_indices, expected)
        np.testing.assert_array_equal(matches.distances, values[np.arange(q_count), expected])
