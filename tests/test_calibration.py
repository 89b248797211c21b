import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadesc import (
    DescriptorSeries,
    SelfDistanceProfile,
    SynthParams,
    cosine_distance,
    estimate_span,
    generate_traverse_pair,
    self_distance_profile,
)


def profile_by_brute_force(data: np.ndarray, d_max: int) -> np.ndarray:
    """Independent oracle: loop over every (t, t+d) pair with the scalar distance."""
    medians = []
    for d in range(1, d_max + 1):
        dists = [cosine_distance(data[t], data[t + d]) for t in range(data.shape[0] - d)]
        medians.append(np.median(dists))
    return np.array(medians)


class TestSelfDistanceProfile:
    def test_constant_series_all_zero(self):
        series = DescriptorSeries(np.full((20, 4), 3.0))
        prof = self_distance_profile(series, 8)
        np.testing.assert_array_equal(prof.offsets, np.arange(1, 9))
        np.testing.assert_allclose(prof.median_distance, 0.0, atol=1e-12)

    def test_alternating_orthogonal_rows(self):
        rows = np.zeros((16, 2))
        rows[0::2, 0] = 1.0
        rows[1::2, 1] = 1.0
        prof = self_distance_profile(DescriptorSeries(rows), 6)
        np.testing.assert_allclose(prof.median_distance[0::2], 1.0, atol=1e-12)  # odd offsets
        np.testing.assert_allclose(prof.median_distance[1::2], 0.0, atol=1e-12)  # even offsets

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(10, 5))
        prof = self_distance_profile(DescriptorSeries(data), 3)
        np.testing.assert_allclose(prof.median_distance, profile_by_brute_force(data, 3), atol=1e-12)
        # offset 3 on a 10-frame series summarizes exactly 7 pairs
        assert len(data) - 3 == 7

    def test_d_max_bounds(self):
        series = DescriptorSeries(np.random.default_rng(1).normal(size=(10, 3)))
        with pytest.raises(ValueError):
            self_distance_profile(series, 10)
        with pytest.raises(ValueError):
            self_distance_profile(series, 0)


    @pytest.mark.parametrize("offsets, medians, message", [
        ([1, 2, 3], [0.1, 0.2], "one median per offset"),
        ([], [], "one median per offset"),
        ([1, 3, 2], [0.1, 0.2, 0.3], "offsets must be strictly increasing"),
        ([1, 2], [0.1, 2.5], r"median distances must lie in \[0, 2\]"),
    ], ids=["lengths-differ", "empty", "unordered", "above-two"])
    def test_profile_rejected(self, offsets, medians, message):
        with pytest.raises(ValueError, match=message):
            SelfDistanceProfile(np.array(offsets, dtype=np.int64), np.array(medians, dtype=float))


class TestEstimateSpan:
    def test_constructed_crossing(self):
        values = np.array([0.1, 0.2, 0.4, 0.69, 0.7, 0.9])
        prof = SelfDistanceProfile(np.arange(1, 7), values)
        assert estimate_span(prof, 0.7) == 5

    def test_generator_constructed_crossing_at_five(self):
        params = SynthParams(frames=600, dims=48, latent_smooth_window=7, seed=1)
        ref, _, _ = generate_traverse_pair(params)
        prof = self_distance_profile(ref, 20)
        np.testing.assert_allclose(
            prof.median_distance, profile_by_brute_force(ref.data, 20), atol=1e-9
        )
        assert estimate_span(prof, 0.7) == 5

    def test_constant_series_never_crosses(self):
        series = DescriptorSeries(np.full((30, 4), 2.0))
        prof = self_distance_profile(series, 10)
        with pytest.raises(ValueError, match="never crosses threshold"):
            estimate_span(prof, 0.7)

    def test_multiplier_scales_result(self):
        prof = SelfDistanceProfile(np.arange(1, 5), np.array([0.1, 0.8, 0.9, 1.0]))
        assert estimate_span(prof, 0.7) == 2
        assert estimate_span(prof, 0.7, multiplier=1.5) == 3
        assert estimate_span(prof, 0.7, multiplier=0.1) == 1

    def test_threshold_validation(self):
        prof = SelfDistanceProfile(np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError):
            estimate_span(prof, 0.0)
        with pytest.raises(ValueError):
            estimate_span(prof, 2.0)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        low=st.floats(min_value=0.05, max_value=1.9),
        high=st.floats(min_value=0.05, max_value=1.9),
    )
    def test_monotone_in_threshold(self, seed, low, high):
        if low > high:
            low, high = high, low
        values = np.random.default_rng(seed).uniform(0, 2, size=12)
        prof = SelfDistanceProfile(np.arange(1, 13), values)
        try:
            span_high = estimate_span(prof, high)
        except ValueError:
            return  # higher threshold unreached; nothing to compare
        assert estimate_span(prof, low) <= span_high


class TestSpanEnvelope:
    @pytest.mark.parametrize("window", [10, 20, 40])
    def test_span_tracks_latent_window(self, window):
        for seed in (0, 1):
            params = SynthParams(
                frames=1200, dims=64, latent_smooth_window=window, seed=seed
            )
            ref, _, _ = generate_traverse_pair(params)
            span = estimate_span(self_distance_profile(ref, 3 * window), 0.7)
            assert window / 2 <= span <= 2 * window
