from dataclasses import replace

import numpy as np
import pytest

from deltadesc import (
    DeltaConfig,
    DescriptorSeries,
    SynthParams,
    delta,
    distance_matrix,
    generate_traverse_pair,
    retrieve_best,
    time_warp,
)


class TestTimeWarp:
    def test_identity_warp(self):
        rng = np.random.default_rng(0)
        series = DescriptorSeries(rng.normal(size=(25, 4)))
        out = time_warp(series, [(0.0, 0.0), (1.0, 1.0)])
        np.testing.assert_allclose(out.data, series.data, atol=1e-12)

    def test_double_speed_first_half_on_ramp(self):
        # target 0.5 maps to source 0.25: first half samples the first quarter
        ramp = DescriptorSeries(np.arange(4, dtype=float)[:, None])
        out = time_warp(ramp, [(0.0, 0.0), (0.25, 0.5), (1.0, 1.0)])
        np.testing.assert_allclose(out.data.ravel(), [0.0, 0.5, 1.5, 3.0], atol=1e-12)

    def test_constant_series_unchanged(self):
        series = DescriptorSeries(np.full((10, 3), 1.5))
        out = time_warp(series, [(0.0, 0.0), (0.3, 0.6), (1.0, 1.0)])
        np.testing.assert_allclose(out.data, 1.5, atol=1e-12)

    def test_positions_warped_identically(self):
        pos = np.arange(8, dtype=float).repeat(2).reshape(8, 2)
        series = DescriptorSeries(np.arange(8, dtype=float)[:, None], positions=pos)
        pts = [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]
        out = time_warp(series, pts)
        np.testing.assert_allclose(out.positions[:, 0], out.data.ravel(), atol=1e-12)

    def test_length_preserved(self):
        series = DescriptorSeries(np.random.default_rng(1).normal(size=(17, 3)))
        out = time_warp(series, [(0.0, 0.0), (0.6, 0.4), (1.0, 1.0)])
        assert out.frame_count == 17

    def test_invalid_control_points(self):
        series = DescriptorSeries(np.ones((5, 2)))
        with pytest.raises(ValueError):
            time_warp(series, [(0.0, 0.0)])
        with pytest.raises(ValueError):
            time_warp(series, [(0.0, 0.0), (0.5, 0.4), (0.3, 1.0)])  # not increasing
        with pytest.raises(ValueError):
            time_warp(series, [(0.1, 0.0), (1.0, 1.0)])  # does not span [0, 1]


class TestGenerator:
    def test_clean_pair_is_identical(self):
        params = SynthParams(frames=50, dims=8, latent_smooth_window=5, seed=3)
        ref, query, gt = generate_traverse_pair(params)
        np.testing.assert_array_equal(ref.data, query.data)
        np.testing.assert_array_equal(gt.pairs, np.arange(50))
        matches = retrieve_best(distance_matrix(query, ref))
        np.testing.assert_array_equal(matches.ref_indices, np.arange(50))

    def test_identical_seeds_bitwise_identical(self):
        params = SynthParams(
            frames=40, dims=6, latent_smooth_window=4,
            offset_scale=0.3, noise_scale=0.2, seed=11,
        )
        a = generate_traverse_pair(params)
        b = generate_traverse_pair(params)
        assert a[0].data.tobytes() == b[0].data.tobytes()
        assert a[1].data.tobytes() == b[1].data.tobytes()
        assert a[2].pairs.tobytes() == b[2].pairs.tobytes()

    def test_offset_hurts_raw_but_not_delta_diagonal(self):
        params = SynthParams(
            frames=200, dims=32, latent_smooth_window=10, offset_scale=0.5, seed=5
        )
        ref, query, _ = generate_traverse_pair(params)
        raw_diag = np.diag(distance_matrix(query, ref).values)
        assert np.all(raw_diag > 0.0)
        cfg = DeltaConfig(8)
        delta_diag = np.diag(distance_matrix(delta(query, cfg), delta(ref, cfg)).values)
        assert delta_diag.max() < 1e-6

    def test_raw_and_delta_matchsets_agree_without_corruption(self):
        params = SynthParams(frames=120, dims=16, latent_smooth_window=8, seed=6)
        ref, query, _ = generate_traverse_pair(params)
        raw = retrieve_best(distance_matrix(query, ref))
        cfg = DeltaConfig(6)
        dlt = retrieve_best(distance_matrix(delta(query, cfg), delta(ref, cfg)))
        np.testing.assert_array_equal(raw.ref_indices, dlt.ref_indices)

    def test_offset_scale_monotone_in_raw_diagonal(self):
        diags = []
        delta_diags = []
        cfg = DeltaConfig(8)
        for scale in (0.2, 0.5, 1.0):
            params = SynthParams(
                frames=300, dims=32, latent_smooth_window=10, offset_scale=scale, seed=9
            )
            ref, query, _ = generate_traverse_pair(params)
            diags.append(float(np.mean(np.diag(distance_matrix(query, ref).values))))
            delta_diags.append(
                float(
                    np.mean(
                        np.diag(
                            distance_matrix(delta(query, cfg), delta(ref, cfg)).values
                        )
                    )
                )
            )
        assert diags[0] < diags[1] < diags[2]
        assert max(delta_diags) - min(delta_diags) < 1e-6

    def test_warped_ground_truth_is_valid_and_matches_sources(self):
        warp = ((0.0, 0.0), (0.3, 0.5), (1.0, 1.0))
        params = SynthParams(frames=60, dims=32, latent_smooth_window=8, warp=warp, seed=7)
        ref, query, gt = generate_traverse_pair(params)
        assert gt.query_count == 60
        assert gt.pairs.min() >= 0 and gt.pairs.max() < 60
        # fractional sources: target 0.5 (frame 29.5) maps near source 0.3
        assert abs(gt.pairs[30] - 0.3 * 59) <= 1.0
        # clean warped pair still matches its ground truth at radius 1
        matches = retrieve_best(distance_matrix(query, ref))
        assert np.all(np.abs(matches.ref_indices - gt.pairs) <= 1)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SynthParams(frames=1, dims=4)
        with pytest.raises(ValueError):
            SynthParams(frames=10, dims=0)
        with pytest.raises(ValueError):
            SynthParams(frames=10, dims=4, offset_scale=-0.1)
        with pytest.raises(ValueError):
            SynthParams(frames=10, dims=4, warp=((0.0, 0.0),))


def test_gt_radius_widened_with_replace():
    params = SynthParams(frames=30, dims=4, latent_smooth_window=3, seed=1)
    _, _, gt = generate_traverse_pair(params)
    widened = replace(gt, radius=2.0)
    assert widened.radius == 2.0 and gt.radius == 0.0


@pytest.mark.parametrize("window", [1, 2, 5, 20])
def test_clean_reference_is_box_mean_of_first_draws(window):
    # offset and noise at 0: the reference is the latent signal, a centered box
    # mean of exactly `window` draws, count-normalized where it meets the ends
    frames, dims, seed = 60, 5, 4
    params = SynthParams(frames=frames, dims=dims, latent_smooth_window=window, seed=seed)
    ref, _, _ = generate_traverse_pair(params)
    draws = np.random.default_rng(seed).standard_normal((frames, dims))
    before = (window - 1) // 2
    after = window - 1 - before
    expected = np.empty_like(draws)
    for t in range(frames):
        rows = range(max(0, t - before), min(frames, t + after + 1))
        for d in range(dims):
            expected[t, d] = sum(draws[i, d] for i in rows) / len(rows)
    if window == 1:
        np.testing.assert_array_equal(ref.data, draws)
    else:
        np.testing.assert_allclose(ref.data, expected, rtol=0, atol=1e-12)
