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
    read_descriptors,
    read_ground_truth,
    retrieve_best,
    time_warp,
)
from deltadesc.cli import main
from deltadesc.io import CHUNK_BYTES
from deltadesc.synth import _interp_rows, _validated_warp, _warped_source_positions
from deltadesc.transform import _window_mean

# a width at which synth's float64 row blocks are 3 rows each
WIDE = CHUNK_BYTES // (8 * 3)
WARP = ((0.0, 0.0), (0.3, 0.5), (1.0, 1.0))


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


def test_latent_smooth_window_below_one_rejected():
    with pytest.raises(ValueError, match="latent_smooth_window must be >= 1"):
        SynthParams(frames=10, dims=4, latent_smooth_window=0)


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


def whole_array_pair(params):
    """The pair made from whole arrays, one per draw, in the draw order: the oracle that the
    streamed row blocks must equal bit for bit."""
    rng = np.random.default_rng(params.seed)
    before = (params.latent_smooth_window - 1) // 2
    after = params.latent_smooth_window - 1 - before
    latent = _window_mean(rng.standard_normal((params.frames, params.dims)), before, after)
    rms = float(np.sqrt(np.mean(latent**2)))
    rms_row = rms * np.sqrt(params.dims)
    offset_ref = rng.standard_normal(params.dims) * (params.offset_scale * rms_row)
    offset_query = rng.standard_normal(params.dims) * (params.offset_scale * rms_row)
    noise_ref = rng.standard_normal((params.frames, params.dims)) * (params.noise_scale * rms)
    noise_query = rng.standard_normal((params.frames, params.dims)) * (params.noise_scale * rms)
    if params.warp is not None:
        sources = _warped_source_positions(params.frames, _validated_warp(params.warp))
        query_base = _interp_rows(latent, sources)
    else:
        sources = np.arange(params.frames, dtype=np.float64)
        query_base = latent
    pairs = np.clip(np.rint(sources).astype(np.int64), 0, params.frames - 1)
    return latent + offset_ref + noise_ref, query_base + offset_query + noise_query, pairs


def synth_argv(params, tmp_path, dtype="float32"):
    """``deltadesc synth``'s arguments for ``params``, its three files in ``tmp_path``."""
    argv =["synth", "--frames", params.frames, "--dims", params.dims,
            "--latent-smooth-window", params.latent_smooth_window,
            "--offset-scale", repr(params.offset_scale), "--noise-scale", repr(params.noise_scale),
            "--seed", params.seed, "--dtype", dtype, "--out-ref", tmp_path / "r.dvpr",
            "--out-query", tmp_path / "q.dvpr", "--out-gt", tmp_path / "gt.csv"]
    if params.warp is not None:
        argv += ["--warp", ",".join(f"{s!r}:{t!r}" for s, t in params.warp)]
    return [str(a) for a in argv]


# frames, dims, latent window, offset scale, noise scale
ORACLE_CASES = {
    "below-one-block": (2, WIDE, 2, 0.5, 0.1),
    "one-block": (3, WIDE, 2, 0.5, 0.1),
    "just-past-one-block": (4, WIDE, 3, 0.5, 0.1),
    "several-blocks": (11, WIDE, 4, 0.5, 0.1),
    "one-dimension": (50, 1, 6, 0.5, 0.1),
    "latent-window-of-one": (40, 7, 1, 0.5, 0.1),
    "no-noise-no-offset": (30, 5, 3, 0.0, 0.0),
}


@pytest.mark.parametrize("warp", [None, WARP], ids=["no-warp", "warp"])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_row_blocks_equal_the_whole_array_pair(case, warp, tmp_path):
    assert CHUNK_BYTES // (8 * WIDE) == 3
    frames, dims, window, offset, noise = ORACLE_CASES[case]
    params = SynthParams(frames, dims, window, offset, noise, warp, seed=7)
    want = whole_array_pair(params)
    ref, query, gt = generate_traverse_pair(params)
    assert ref.data.tobytes() == want[0].tobytes()
    assert query.data.tobytes() == want[1].tobytes()
    assert gt.pairs.tobytes() == want[2].tobytes()
    for dtype in ("float32", "float64"):
        assert main(synth_argv(params, tmp_path, dtype)) == 0
        for name, values in zip(("r.dvpr", "q.dvpr"), want):
            written = read_descriptors(tmp_path / name).data
            assert written.tobytes() == values.astype(dtype).astype(np.float64).tobytes()
        assert read_ground_truth(tmp_path / "gt.csv").pairs.tobytes() == want[2].tobytes()


FAILING_PAIRS = {
    # the offsets overflow on both sides, so the reference fails at its first value
    "reference-first-row": SynthParams(50, 4, offset_scale=1e308, seed=7),
    # one noise value overflows, in the reference's fourth block
    "reference-late-block": SynthParams(11, WIDE, noise_scale=3.7e307, seed=0),
    # only the query's offset overflows, once the whole reference is written
    "query": SynthParams(50, 4, offset_scale=6.9e307, seed=2),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", FAILING_PAIRS)
def test_a_failed_synth_writes_nothing(case, tmp_path, capsys):
    params = FAILING_PAIRS[case]
    ref, query, _ = whole_array_pair(params)
    bad = query if case == "query" else ref
    assert (case == "query") == np.isfinite(ref).all()
    row, column = np.argwhere(~np.isfinite(bad))[0]
    assert (case == "reference-late-block") == (row >= 3)
    message = f"non-finite descriptor value at row {row}, column {column}"
    with pytest.raises(ValueError, match=message):
        generate_traverse_pair(params)
    assert main(synth_argv(params, tmp_path)) == 2
    assert capsys.readouterr().err == f"deltadesc: config error: {message}\n"
    assert list(tmp_path.iterdir()) == []
