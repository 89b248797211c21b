from collections.abc import Sequence
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deltadesc.transform
from deltadesc import (
    EDGE_REPLICATE,
    VALID_ONLY,
    DeltaConfig,
    DescriptorSeries,
    delta,
    delta_bank,
    delta_valid_range,
    smooth,
)
from deltadesc.series import _row_scales
from deltadesc.transform import BOX_BLOCK_ROWS, SpanBank, _running_sums, _window_mean


def delta_by_direct_means(data: np.ndarray, window: int) -> np.ndarray:
    """Independent oracle: leading-l mean minus trailing-l mean, frame by frame."""
    t_count = data.shape[0]
    rows = []
    for t in range(window - 1, t_count - window):
        lead = np.mean(data[t + 1 : t + window + 1], axis=0)
        trail = np.mean(data[t - window + 1 : t + 1], axis=0)
        rows.append(lead - trail)
    return np.array(rows)


def prefix_sums_by_gathers(data: np.ndarray) -> np.ndarray:
    csum = np.empty((data.shape[0] + 1, data.shape[1]))
    csum[0] = 0.0
    np.cumsum(data, axis=0, out=csum[1:])
    return csum


def window_mean_by_gathers(data: np.ndarray, before: int, after: int) -> np.ndarray:
    """Oracle: the clipped index-vector window mean the box-sum kernel replaced."""
    if before == after == 0:
        return data.copy()
    t_count = data.shape[0]
    csum = prefix_sums_by_gathers(data)
    t = np.arange(t_count)
    starts = np.clip(t - before, 0, t_count)
    stops = np.clip(t + after + 1, 0, t_count)
    return (csum[stops] - csum[starts]) / (stops - starts)[:, None].astype(float)


def delta_by_gathers(data: np.ndarray, window: int, padding: str) -> np.ndarray:
    """Oracle: the four-gather delta over edge-padded prefix sums the kernel replaced."""
    t_count = data.shape[0]
    csum = prefix_sums_by_gathers(np.pad(data, ((window, window), (0, 0)), mode="edge"))
    t = np.arange(t_count) + window
    out = (
        (csum[t + window + 1] - csum[t + 1]) - (csum[t + 1] - csum[t - window + 1])
    ) / window
    return out[window - 1 : t_count - window] if padding == VALID_ONLY else out


# block sizes for the streamed running sums: every row its own block, a few rows, the default
BLOCK_ROWS = st.sampled_from([1, 3, BOX_BLOCK_ROWS])


def streamed(block_rows):
    return mock.patch.object(deltadesc.transform, "BOX_BLOCK_ROWS", block_rows)


class TestBoxSumKernel:
    """The streamed running sums reproduce the gather formulas bit for bit, across blocks.

    Frames run past several default blocks, and windows past a block and past the series.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.integers(min_value=1, max_value=300),
        dims=st.integers(min_value=1, max_value=6),
        window=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=10_000),
        block_rows=BLOCK_ROWS,
    )
    @example(frames=300, dims=3, window=100, seed=0, block_rows=BOX_BLOCK_ROWS)
    @example(frames=10, dims=2, window=40, seed=1, block_rows=3)
    def test_delta_equals_gathers(self, frames, dims, window, seed, block_rows):
        data = np.random.default_rng(seed).normal(size=(frames, dims)) * 10.0
        series = DescriptorSeries(data)
        want = delta_by_gathers(data, window, EDGE_REPLICATE)
        with streamed(block_rows):
            out = delta(series, DeltaConfig(window))
            # a bank takes the same rows' norms from the blocks, without the member
            scales = delta_bank(series, (window,)).row_scales[0]
        assert np.array_equal(out.data, want)
        assert np.array_equal(scales, _row_scales(want))
        if frames < 2 * window:
            with pytest.raises(ValueError, match="series too short for span"):
                delta(series, DeltaConfig(window, padding=VALID_ONLY))
        else:
            with streamed(block_rows):
                out = delta(series, DeltaConfig(window, padding=VALID_ONLY))
            assert np.array_equal(out.data, delta_by_gathers(data, window, VALID_ONLY))

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.integers(min_value=1, max_value=300),
        dims=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        block_rows=BLOCK_ROWS,
        data=st.data(),
    )
    def test_window_mean_equals_gathers(self, frames, dims, seed, block_rows, data):
        before = data.draw(st.integers(min_value=0, max_value=frames + 3), label="before")
        after = data.draw(st.integers(min_value=0, max_value=frames + 3), label="after")
        rows = np.random.default_rng(seed).normal(size=(frames, dims)) * 10.0
        with streamed(block_rows):
            got = _window_mean(rows, before, after)
        assert np.array_equal(got, window_mean_by_gathers(rows, before, after))

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.integers(min_value=2, max_value=300),
        # narrow and wide rows: the row loop replaced np.cumsum on both sides of D = 128-512
        dims=st.one_of(st.integers(min_value=1, max_value=127), st.integers(513, 1100)),
        seed=st.integers(min_value=0, max_value=10_000),
        pad=st.tuples(st.integers(0, 70), st.integers(0, 70)),
        edge=st.booleans(),
        block_rows=BLOCK_ROWS,
        data=st.data(),
    )
    def test_running_and_box_sums_equal_cumsum(
        self, frames, dims, seed, pad, edge, block_rows, data
    ):
        count = frames + sum(pad)
        width = data.draw(st.integers(min_value=1, max_value=count - 1), label="width")
        rng = np.random.default_rng(seed)
        # magnitudes from 1e-8 to 1e8, so any change in the order of the additions shows
        rows = rng.normal(size=(frames, dims)) * 10.0 ** rng.integers(-8, 9, size=(frames, 1))
        csum = np.cumsum(np.pad(rows, (pad, (0, 0)), mode="edge" if edge else "constant"), axis=0)
        got, end = np.full_like(csum, np.nan), width
        with streamed(block_rows):
            for i0, sums in _running_sums(rows, *pad, width, edge):
                # each block carries the last ``width`` sums of the one before
                assert i0 == end - width and len(sums) <= block_rows + width
                end = i0 + len(sums)
                got[i0:end] = sums
                box = csum[i0 + width : end] - csum[i0 : end - width]
                assert np.array_equal(sums[width:] - sums[:-width], box)
        assert end == count
        assert np.array_equal(got, csum)

        # rows handed over one at a time through one reused buffer, as the span-bank
        # filters hand them, give the same sums
        def one_buffer():
            buf = np.empty(dims)
            for row in rows:
                buf[:] = row
                yield buf

        with streamed(block_rows):
            for i0, sums in _running_sums(one_buffer(), *pad, width, edge):
                assert np.array_equal(sums, csum[i0 : i0 + len(sums)])

        # rows handed over in pieces, each call carrying on from the last block of the
        # call before, as the span-bank filters carry their sums from tile to tile, give
        # the same sums; only the first piece takes the padding before, the last the one
        # after
        cuts = sorted(data.draw(st.lists(st.integers(1, frames - 1), max_size=4), label="cuts"))
        pieces = np.split(rows, cuts)
        got[:], carry = np.nan, None
        with streamed(block_rows):
            for k, piece in enumerate(pieces):
                if not len(piece):
                    continue
                before = pad[0] if carry is None else 0
                after = pad[1] if k == len(pieces) - 1 else 0
                for carry in _running_sums(piece, before, after, width, edge, carry):
                    i0, sums = carry
                    got[i0 : i0 + len(sums)] = sums
        assert np.array_equal(got, csum)


class TestSmooth:
    def test_constant_series_unchanged(self):
        series = DescriptorSeries(np.full((9, 3), 2.5))
        for window in (1, 2, 5, 9):
            np.testing.assert_allclose(smooth(series, window).data, series.data, atol=1e-12)

    def test_three_point_hand_case(self):
        out = smooth(DescriptorSeries(np.array([[0.0], [3.0], [6.0]])), 2)
        np.testing.assert_allclose(out.data.ravel(), [1.5, 3.0, 4.5])

    def test_window_one_hand_case(self):
        # window 1 averages rows [t, t+1]
        out = smooth(DescriptorSeries(np.array([[2.0], [4.0]])), 1)
        np.testing.assert_allclose(out.data.ravel(), [3.0, 4.0])

    def test_direct_mean_oracle(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(30, 4))
        series = DescriptorSeries(data)
        for window in (1, 2, 3, 7, 30):
            out = smooth(series, window).data
            lo, hi = window // 2, window - window // 2
            for t in range(30):
                sel = data[max(0, t - lo) : min(30, t + hi + 1)]
                np.testing.assert_allclose(out[t], sel.mean(axis=0), atol=1e-9)

    def test_window_exceeding_series_rejected(self):
        with pytest.raises(ValueError, match="window exceeds series"):
            smooth(DescriptorSeries(np.ones((4, 2))), 5)

    def test_window_below_one_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 1, got 0"):
            smooth(DescriptorSeries(np.ones((4, 2))), 0)

    def test_full_cover_window_gives_global_mean(self):
        # at T=2 the two-frame window covers the series from every row
        rng = np.random.default_rng(1)
        data = rng.normal(size=(2, 5))
        out = smooth(DescriptorSeries(data), 2)
        np.testing.assert_allclose(out.data, np.tile(data.mean(axis=0), (2, 1)), atol=1e-9)
        # for longer series, rows whose clipped window spans everything
        data = np.random.default_rng(2).normal(size=(10, 3))
        out = smooth(DescriptorSeries(data), 10)
        for t in (4, 5):
            np.testing.assert_allclose(out.data[t], data.mean(axis=0), atol=1e-9)


class TestDelta:
    def test_constant_series_gives_zeros(self):
        series = DescriptorSeries(np.full((12, 3), 7.0))
        for window in (1, 2, 5):
            np.testing.assert_allclose(
                delta(series, DeltaConfig(window)).data, 0.0, atol=1e-12
            )

    def test_linear_ramp_closed_form(self):
        # ramp of slope s yields delta = s * window in the interior
        t = np.arange(50, dtype=float)
        series = DescriptorSeries(t[:, None])
        out = delta(series, DeltaConfig(2, padding=VALID_ONLY))
        np.testing.assert_allclose(out.data, 2.0, atol=1e-12)

    def test_four_frame_hand_case(self):
        series = DescriptorSeries(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = delta(series, DeltaConfig(1, padding=VALID_ONLY))
        np.testing.assert_allclose(out.data.ravel(), [1.0, 1.0, 1.0])
        out = delta(series, DeltaConfig(1))
        np.testing.assert_allclose(out.data.ravel(), [1.0, 1.0, 1.0, 0.0])
        assert delta_valid_range(4, 1) == (0, 3)

    def test_direct_mean_oracle_both_modes(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(40, 6))
        series = DescriptorSeries(data)
        for window in (1, 2, 5, 13):
            expected = delta_by_direct_means(data, window)
            valid = delta(series, DeltaConfig(window, padding=VALID_ONLY))
            np.testing.assert_allclose(valid.data, expected, atol=1e-9)
            padded = delta(series, DeltaConfig(window))
            start, end = delta_valid_range(40, window)
            assert (start, end) == (window - 1, 40 - window)
            np.testing.assert_allclose(padded.data[start:end], expected, atol=1e-9)

    def test_valid_only_shapes_and_positions(self):
        series = DescriptorSeries(np.random.default_rng(4).normal(size=(20, 3)))
        out = delta(series, DeltaConfig(4, padding=VALID_ONLY))
        assert out.frame_count == 20 - 8 + 1

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.integers(min_value=1, max_value=60),
        dims=st.integers(min_value=1, max_value=6),
        window=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_valid_only_is_edge_replicate_sliced(self, frames, dims, window, seed):
        series = DescriptorSeries(np.random.default_rng(seed).normal(size=(frames, dims)) * 10.0)
        if frames < 2 * window:
            with pytest.raises(ValueError, match="series too short for span"):
                delta_valid_range(frames, window)
            return
        start, end = delta_valid_range(frames, window)
        assert end - start == frames - 2 * window + 1
        padded = delta(series, DeltaConfig(window)).data
        valid = delta(series, DeltaConfig(window, padding=VALID_ONLY)).data
        assert np.array_equal(valid, padded[start:end])

    def test_too_short_series_rejected(self):
        series = DescriptorSeries(np.ones((7, 2)))
        with pytest.raises(ValueError, match="series too short for span"):
            delta(series, DeltaConfig(4, padding=VALID_ONLY))
        # edge replication has no length requirement
        assert delta(series, DeltaConfig(4)).frame_count == 7

    def test_offset_invariance(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(60, 8))
        offset = rng.normal(size=8)
        offset *= 10.0 * np.sqrt(np.mean(data**2)) * np.sqrt(8) / np.linalg.norm(offset)
        cfg = DeltaConfig(6)
        base = delta(DescriptorSeries(data), cfg).data
        shifted = delta(DescriptorSeries(data + offset), cfg).data
        np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=(30, 5))
        a, b = 2.5, -1.25
        cfg = DeltaConfig(3)
        combo = delta(DescriptorSeries(a * x + b * y), cfg).data
        parts = a * delta(DescriptorSeries(x), cfg).data + b * delta(DescriptorSeries(y), cfg).data
        np.testing.assert_allclose(combo, parts, atol=1e-9)

    def test_time_reversal_antisymmetry(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(25, 4))
        cfg = DeltaConfig(4, padding=VALID_ONLY)
        forward = delta(DescriptorSeries(data), cfg).data
        backward = delta(DescriptorSeries(data[::-1]), cfg).data
        np.testing.assert_allclose(backward, -forward[::-1], atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        frames=st.integers(min_value=8, max_value=60),
        dims=st.integers(min_value=1, max_value=6),
        window=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_oracle_equivalence_property(self, frames, dims, window, seed):
        data = np.random.default_rng(seed).normal(size=(frames, dims))
        out = delta(DescriptorSeries(data), DeltaConfig(window, padding=VALID_ONLY))
        np.testing.assert_allclose(out.data, delta_by_direct_means(data, window), atol=1e-9)


class TestDeltaConfig:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            DeltaConfig(0)

    def test_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            DeltaConfig(2, padding="mirror")


class TestDeltaBank:
    def test_singleton_bank_equals_plain_delta(self):
        rng = np.random.default_rng(8)
        series = DescriptorSeries(rng.normal(size=(50, 4)))
        bank = delta_bank(series, (16,))
        np.testing.assert_array_equal(
            bank[0].data, delta(series, DeltaConfig(16)).data
        )

    def test_four_span_bank_alignment(self):
        rng = np.random.default_rng(9)
        series = DescriptorSeries(rng.normal(size=(200, 4)))
        bank = delta_bank(series, (30, 40, 50, 60))
        assert len(bank) == 4
        for member in bank:
            assert member.frame_count == 200 and member.dim == 4

    def test_constant_input_gives_zero_bank(self):
        series = DescriptorSeries(np.full((20, 3), 4.0))
        bank = delta_bank(series, (2, 4))
        for member in bank:
            np.testing.assert_allclose(member.data, 0.0, atol=1e-12)

    def test_bank_carries_its_source_and_spans(self):
        series = DescriptorSeries(np.random.default_rng(10).normal(size=(40, 3)))
        bank = delta_bank(series, [np.int64(8), 2, 4])
        assert isinstance(bank, SpanBank) and isinstance(bank, Sequence) and len(bank) == 3
        assert bank.source is series
        assert bank.spans == (8, 2, 4) and all(type(s) is int for s in bank.spans)
        # every member is rebuilt on demand, bit for bit, and the bank's norms are its own
        for member, span, scales in zip(bank, bank.spans, bank.row_scales):
            want = delta(series, DeltaConfig(span))
            assert np.array_equal(member.data, want.data)
            assert np.array_equal(member.row_scales, scales)
            assert np.array_equal(scales, want.row_scales)
        assert np.array_equal(bank[-1].data, delta(series, DeltaConfig(4)).data)
        # a slice or a list is a plain sequence of members, without the source
        assert type(bank[1:]) is tuple and type(list(bank)) is list
        assert [m.data.tolist() for m in bank[1:]] == [m.data.tolist() for m in list(bank)[1:]]
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'spans'"):
            bank.spans = (1, 2, 3)

    def test_overflowing_deltas_raise_as_a_built_member_would(self):
        data = np.zeros((200, 3))
        data[150::2, 2], data[151::2, 2] = 1e308, -1e308  # finite, but their deltas are not
        series = DescriptorSeries(data)
        # tier-1 fails on any warning, and the overflow warns
        with np.errstate(over="ignore", invalid="ignore"):
            for build, arg in ((delta, DeltaConfig(1)), (delta_bank, (1, 4))):
                with pytest.raises(ValueError) as caught:
                    build(series, arg)
                # row 150 lies in the third block of the default size
                assert str(caught.value) == "non-finite descriptor value at row 150, column 2"

    def test_finite_deltas_whose_norms_overflow_keep_the_member_scales(self):
        data = np.zeros((100, 8))
        data[70:] = 1e200  # a step whose span-4 delta rows are finite, with norms above 1e308
        series = DescriptorSeries(data)
        with np.errstate(over="ignore"):
            bank, member = delta_bank(series, (4,)), delta(series, DeltaConfig(4))
            assert np.array_equal(bank.row_scales[0], member.row_scales)
        assert np.isfinite(member.data).all() and bank.row_scales[0][69] == 0.0

    def test_empty_spans_rejected(self):
        series = DescriptorSeries(np.ones((10, 2)))
        with pytest.raises(ValueError, match="span set"):
            delta_bank(series, ())

    @pytest.mark.parametrize("span", [0, -2])
    def test_span_below_one_rejected_as_a_delta_window(self, span):
        series = DescriptorSeries(np.ones((10, 2)))
        with pytest.raises(ValueError, match=f"^window must be >= 1, got {span}$"):
            delta_bank(series, (span, 4))
