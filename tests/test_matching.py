import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadesc import (
    DeltaConfig,
    DescriptorSeries,
    DistanceMatrix,
    cosine_distance,
    delta,
    delta_bank,
    distance_matrix,
    multi_delta_distance,
    retrieve_best,
    seq_match,
)

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

    def test_results_are_adopted_read_only(self):
        rng = np.random.default_rng(8)
        q = DescriptorSeries(rng.normal(size=(5, 3)))
        r = DescriptorSeries(rng.normal(size=(6, 3)))
        for m in (distance_matrix(q, r), multi_delta_distance([q, q], [r]),
                  seq_match(distance_matrix(q, r), 3)):
            assert m.values.flags.owndata and not m.values.flags.writeable


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
        out = multi_delta_distance(qb, rb).values
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
        assert np.array_equal(permuted.values, multi_delta_distance(qb, rb).values)

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
