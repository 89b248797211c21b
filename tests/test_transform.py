import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadesc import (
    EDGE_REPLICATE,
    VALID_ONLY,
    DeltaConfig,
    DescriptorSeries,
    delta,
    delta_bank,
    smooth,
)
from deltadesc.transform import _window_mean


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


class TestBoxSumKernel:
    """The box-sum kernel reproduces the gather formulas bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.integers(min_value=1, max_value=60),
        dims=st.integers(min_value=1, max_value=6),
        window=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_delta_equals_gathers(self, frames, dims, window, seed):
        data = np.random.default_rng(seed).normal(size=(frames, dims)) * 10.0
        series = DescriptorSeries(data)
        out = delta(series, DeltaConfig(window))
        assert np.array_equal(out.data, delta_by_gathers(data, window, EDGE_REPLICATE))
        if frames < 2 * window:
            with pytest.raises(ValueError, match="series too short for span"):
                delta(series, DeltaConfig(window, padding=VALID_ONLY))
        else:
            out = delta(series, DeltaConfig(window, padding=VALID_ONLY))
            assert np.array_equal(out.data, delta_by_gathers(data, window, VALID_ONLY))

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.integers(min_value=1, max_value=60),
        dims=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_window_mean_equals_gathers(self, frames, dims, seed, data):
        before = data.draw(st.integers(min_value=0, max_value=frames + 3), label="before")
        after = data.draw(st.integers(min_value=0, max_value=frames + 3), label="after")
        rows = np.random.default_rng(seed).normal(size=(frames, dims)) * 10.0
        assert np.array_equal(
            _window_mean(rows, before, after), window_mean_by_gathers(rows, before, after)
        )


class TestSmooth:
    def test_constant_series_unchanged(self):
        series = DescriptorSeries(np.full((9, 3), 2.5))
        for window in (1, 2, 5, 9):
            np.testing.assert_allclose(smooth(series, window).data, series.data, atol=1e-12)

    def test_three_point_hand_case(self):
        out = smooth(DescriptorSeries(np.array([[0.0], [3.0], [6.0]])), 2)
        np.testing.assert_allclose(out.data.ravel(), [1.5, 3.0, 4.5])
        assert out.valid_range == (1, 2)

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
        assert out.valid_range == (0, 3)

    def test_direct_mean_oracle_both_modes(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(40, 6))
        series = DescriptorSeries(data)
        for window in (1, 2, 5, 13):
            expected = delta_by_direct_means(data, window)
            valid = delta(series, DeltaConfig(window, padding=VALID_ONLY))
            np.testing.assert_allclose(valid.data, expected, atol=1e-9)
            padded = delta(series, DeltaConfig(window))
            start, end = padded.valid_range
            assert (start, end) == (window - 1, 40 - window)
            np.testing.assert_allclose(padded.data[start:end], expected, atol=1e-9)

    def test_valid_only_shapes_and_positions(self):
        rng = np.random.default_rng(4)
        pos = rng.normal(size=(20, 2))
        series = DescriptorSeries(rng.normal(size=(20, 3)), positions=pos)
        out = delta(series, DeltaConfig(4, padding=VALID_ONLY))
        assert out.frame_count == 20 - 8 + 1
        np.testing.assert_array_equal(out.positions, pos[3:16])

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

    def test_empty_spans_rejected(self):
        series = DescriptorSeries(np.ones((10, 2)))
        with pytest.raises(ValueError, match="span set"):
            delta_bank(series, ())
