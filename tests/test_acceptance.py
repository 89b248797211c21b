"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The end-to-end scenario (2000 frames, 128 dims, latent window 20,
offset 0.5, noise 0.1, seed 7) is generated once and shared. Regression values
were frozen from the first oracle run of this implementation.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import deltadesc as dd
from deltadesc.cli import RunConfig, run_pipeline

from test_transform import delta_by_direct_means

# frozen from the first oracle run of the criterion-3 scenario
FROZEN_RAW_MAX_F1 = 0.1716155007549069
FROZEN_DELTA_MAX_F1 = 1.0
FROZEN_DELTA_SEQ_MAX_F1 = 1.0
REGRESSION_TOL = 0.02


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:2d}: PASS - {text}")


@pytest.fixture(scope="module")
def scenario():
    params = dd.SynthParams(
        frames=2000, dims=128, latent_smooth_window=20,
        offset_scale=0.5, noise_scale=0.1, seed=7,
    )
    ref, query, gt = dd.generate_traverse_pair(params)
    return params, ref, query, replace(gt, radius=2.0)


def max_f1_of(query, ref, gt, seqmatch=1):
    m = dd.distance_matrix(query, ref)
    if seqmatch > 1:
        m = dd.seq_match(m, seqmatch)
    return dd.max_f1(dd.evaluate_pr(dd.retrieve_best(m), gt))


def test_criterion_01_convolution_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(100):
        data = np.random.default_rng(seed).normal(size=(200, 32))
        series = dd.DescriptorSeries(data)
        for window in (1, 2, 8, 16):
            out = dd.delta(series, dd.DeltaConfig(window, padding=dd.VALID_ONLY))
            expected = delta_by_direct_means(data, window)
            np.testing.assert_allclose(out.data, expected, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle equivalence took {elapsed:.2f}s, budget 5s"
    report(1, f"sliding dot product equals direct means on 100 series x 4 windows "
              f"within 1e-9 in {elapsed:.2f}s")


def test_criterion_02_offset_invariance(scenario):
    # algebraic half: constant row offset cancels to 1e-9, up to 10x signal RMS
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(200, 32))
        signal_rms_norm = np.sqrt(np.mean(np.sum(data**2, axis=1)))
        direction = rng.normal(size=32)
        offset = direction / np.linalg.norm(direction) * 10.0 * signal_rms_norm
        cfg = dd.DeltaConfig(8)
        base = dd.delta(dd.DescriptorSeries(data), cfg).data
        shifted = dd.delta(dd.DescriptorSeries(data + offset), cfg).data
        np.testing.assert_allclose(shifted, base, atol=1e-9)

    # matching half: per-traverse offsets at scale 0.5 (zero noise) leave the
    # delta diagonal at numerical zero while the raw diagonal degrades
    params = dd.SynthParams(
        frames=2000, dims=128, latent_smooth_window=20, offset_scale=0.5, seed=7
    )
    ref, query, _ = dd.generate_traverse_pair(params)
    raw_diag_min = min(
        dd.cosine_distance(query.data[t], ref.data[t]) for t in range(0, 2000, 50)
    )
    assert raw_diag_min > 0.1
    cfg = dd.DeltaConfig(16)
    dq, dr = dd.delta(query, cfg), dd.delta(ref, cfg)
    delta_diag_max = max(
        dd.cosine_distance(dq.data[t], dr.data[t]) for t in range(0, 2000, 50)
    )
    assert delta_diag_max < 1e-6
    report(2, f"offset cancellation holds; raw diagonal >= {raw_diag_min:.3f}, "
              f"delta diagonal <= {delta_diag_max:.1e}")


def test_criterion_03_synthetic_end_to_end_superiority(scenario):
    start = time.perf_counter()
    _, ref, query, gt = scenario
    cfg = dd.DeltaConfig(16)
    dq, dr = dd.delta(query, cfg), dd.delta(ref, cfg)
    raw_f1 = max_f1_of(query, ref, gt)
    delta_f1 = max_f1_of(dq, dr, gt)
    delta_seq_f1 = max_f1_of(dq, dr, gt, seqmatch=8)

    assert delta_f1 >= raw_f1 + 0.2
    assert delta_seq_f1 >= delta_f1
    assert raw_f1 == pytest.approx(FROZEN_RAW_MAX_F1, abs=REGRESSION_TOL)
    assert delta_f1 == pytest.approx(FROZEN_DELTA_MAX_F1, abs=REGRESSION_TOL)
    assert delta_seq_f1 == pytest.approx(FROZEN_DELTA_SEQ_MAX_F1, abs=REGRESSION_TOL)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"end-to-end scenario took {elapsed:.1f}s, budget 60s"
    report(3, f"max F1 raw={raw_f1:.3f}, delta={delta_f1:.3f}, "
              f"delta+seqmatch={delta_seq_f1:.3f} in {elapsed:.1f}s")


def test_criterion_04_pca_robustness(scenario):
    _, ref, query, gt = scenario
    cfg = dd.DeltaConfig(16)
    dq, dr = dd.delta(query, cfg), dd.delta(ref, cfg)

    raw_full = max_f1_of(query, ref, gt)
    delta_full = max_f1_of(dq, dr, gt)

    raw_model = dd.pca_fit(ref, 50)
    delta_model = dd.pca_fit(dr, 50)
    raw_pca = max_f1_of(
        dd.pca_transform(raw_model, query), dd.pca_transform(raw_model, ref), gt
    )
    delta_pca = max_f1_of(
        dd.pca_transform(delta_model, dq), dd.pca_transform(delta_model, dr), gt
    )

    assert delta_pca >= 0.95 * delta_full
    assert (raw_full - raw_pca) > (delta_full - delta_pca)
    report(4, f"delta keeps {delta_pca / delta_full:.3f} of F1 at k=50/128; "
              f"raw degrades {raw_full - raw_pca:+.3f} vs delta {delta_full - delta_pca:+.3f}")


def test_criterion_05_calibration_sanity():
    spans = {}
    for window in (10, 20, 40):
        params = dd.SynthParams(frames=1200, dims=64, latent_smooth_window=window, seed=0)
        ref, _, _ = dd.generate_traverse_pair(params)
        profile = dd.self_distance_profile(ref, 3 * window)
        span = dd.estimate_span(profile, threshold=0.7)
        assert window / 2 <= span <= 2 * window
        spans[window] = span
    constant = dd.DescriptorSeries(np.full((100, 8), 3.0))
    with pytest.raises(ValueError, match="never crosses threshold"):
        dd.estimate_span(dd.self_distance_profile(constant, 25), 0.7)
    report(5, f"estimated spans {spans} inside [w/2, 2w]; constant series raises")


def test_criterion_06_degenerate_case_identities():
    rng = np.random.default_rng(42)
    values = rng.uniform(0, 2, size=(40, 50))
    m = dd.DistanceMatrix(values)
    np.testing.assert_array_equal(dd.seq_match(m, 1).values, values)

    series = dd.DescriptorSeries(rng.normal(size=(60, 12)))
    other = dd.DescriptorSeries(rng.normal(size=(60, 12)))
    bank_m = dd.multi_delta_distance(dd.delta_bank(series, (5,)), dd.delta_bank(other, (5,)))
    plain_m = dd.distance_matrix(
        dd.delta(series, dd.DeltaConfig(5)), dd.delta(other, dd.DeltaConfig(5))
    )
    np.testing.assert_array_equal(bank_m.values, plain_m.values)

    params = dd.SynthParams(frames=400, dims=32, latent_smooth_window=10, seed=11)
    ref, query, gt = dd.generate_traverse_pair(params)
    gt = replace(gt, radius=2.0)
    raw_curve = dd.evaluate_pr(dd.retrieve_best(dd.distance_matrix(query, ref)), gt)
    dcfg = dd.DeltaConfig(8)
    delta_curve = dd.evaluate_pr(
        dd.retrieve_best(
            dd.distance_matrix(dd.delta(query, dcfg), dd.delta(ref, dcfg))
        ),
        gt,
    )
    assert dd.precision_at_full_recall(raw_curve) == 1.0
    assert dd.precision_at_full_recall(delta_curve) == 1.0
    report(6, "seqmatch L=1 identity, singleton multi-delta identity, "
              "clean pair reaches precision 1.0 at full recall for raw and delta")


def test_criterion_07_shuffle_experiment(scenario):
    _, ref, query, gt = scenario
    s_ref, s_query, s_gt = dd.apply_permutation(ref, query, replace(gt, radius=0.0), seed=123)
    s_gt = replace(s_gt, radius=1.0)
    cfg = dd.DeltaConfig(2)
    raw_f1 = max_f1_of(s_query, s_ref, s_gt)
    delta_f1 = max_f1_of(dd.delta(s_query, cfg), dd.delta(s_ref, cfg), s_gt)
    assert delta_f1 >= raw_f1
    report(7, f"after order-preserving shuffle: delta l=2 F1 {delta_f1:.3f} >= "
              f"raw F1 {raw_f1:.3f} at radius 1")


def test_criterion_08_evaluation_correctness():
    matches = dd.MatchSet(ref_indices=[0, 1, 7, 9], distances=[0.1, 0.2, 0.3, 0.4])
    gt = dd.GroundTruth([0, 1, 2, 3], radius=2.0)
    curve = dd.evaluate_pr(matches, gt)
    np.testing.assert_array_equal(curve.thresholds, [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_array_equal(curve.precisions, [1.0, 1.0, 2 / 3, 0.5])
    np.testing.assert_array_equal(curve.recalls, [0.25, 0.5, 0.5, 0.5])
    assert dd.precision_at_full_recall(curve) == 0.5

    rng = np.random.default_rng(0)
    for _ in range(1000):
        q = int(rng.integers(1, 60))
        r = int(rng.integers(1, 60))
        mset = dd.MatchSet(
            ref_indices=rng.integers(0, r, size=q),
            distances=rng.uniform(0, 2, size=q),
        )
        g = dd.GroundTruth(rng.integers(0, r, size=q), radius=float(rng.integers(0, 4)))
        c = dd.evaluate_pr(mset, g)
        assert np.all(np.diff(c.recalls) >= 0)
        independent = np.sum(np.abs(mset.ref_indices - g.pairs) <= g.radius) / q
        assert dd.precision_at_full_recall(c) == independent
    report(8, "hand curve exact; recall monotone and full-recall precision equals "
              "correct/Q on 1000 random match sets")


def test_criterion_09_format_fidelity_and_determinism(scenario, tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "roundtrip.dvpr"
    for _ in range(50):
        t_count = int(rng.integers(1, 40))
        dim = int(rng.integers(1, 24))
        data = rng.normal(size=(t_count, dim)).astype(np.float32)
        series = dd.DescriptorSeries(data)
        dd.write_descriptors(path, series)
        assert dd.read_descriptors(path).data.tobytes() == series.data.tobytes()

    _, ref, query, gt = scenario
    dd.write_descriptors(tmp_path / "ref.dvpr", ref)
    dd.write_descriptors(tmp_path / "query.dvpr", query)
    dd.write_ground_truth(tmp_path / "gt.csv", gt)
    outputs = []
    for tag in ("a", "b"):
        cfg = RunConfig(
            ref_path=str(tmp_path / "ref.dvpr"),
            query_path=str(tmp_path / "query.dvpr"),
            gt_path=str(tmp_path / "gt.csv"),
            out_dir=str(tmp_path / tag),
            transform="delta",
            window=16,
            seqmatch_length=8,
            radius=2.0,
        )
        run_pipeline(cfg)
        outputs.append(tmp_path / tag)
    for name in ("matches.csv", "pr.csv", "summary.json"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    report(9, "50 write/read roundtrips bitwise exact; pipeline outputs byte-identical "
              "across repeated runs")


@pytest.mark.skip(
    reason="Real-data reproduction path is documented, not gated: with user-supplied "
    "NetVLAD descriptors (Oxford RobotCar at 0.5 m spacing, Nordland), the calibrate "
    "command reports span lower bounds near 38/36/57 and 14/8 and delta+seqmatch "
    "dominates raw in PR; see README 'Working with real descriptors'."
)
def test_criterion_10_real_data_reproduction_path():
    pass


# frozen from the first oracle run of the criterion-11 scenario, per seed
FROZEN_BANK_MAX_F1 = {1: 0.9727295471603704, 2: 0.9695, 7: 0.9742177722152691}
VELOCITY_WARP = ((0.0, 0.0), (0.2, 0.2), (0.24, 0.36), (0.5, 0.5), (0.7, 0.55), (1.0, 1.0))
VELOCITY_BANK = (4, 8, 16)
VELOCITY_SINGLE_SPANS = (2, 3, 4, 6, 8, 12, 16, 32)


def test_criterion_11_span_bank_robust_to_velocity_change():
    # the query speeds up to 3x, then slows to 1/4 speed: no single span fits
    # the whole route, and the minimum over a bank of spans beats each of them
    start = time.perf_counter()
    lines = []
    for seed, frozen in FROZEN_BANK_MAX_F1.items():
        params = dd.SynthParams(
            frames=2000, dims=128, latent_smooth_window=20, offset_scale=0.5,
            noise_scale=0.8, warp=VELOCITY_WARP, seed=seed,
        )
        ref, query, gt = dd.generate_traverse_pair(params)
        gt = replace(gt, radius=2.0)

        def f1(m):
            return dd.max_f1(dd.evaluate_pr(dd.retrieve_best(m), gt))

        bank_f1 = f1(dd.multi_delta_distance(
            dd.delta_bank(query, VELOCITY_BANK), dd.delta_bank(ref, VELOCITY_BANK)
        ))
        best_single = max(
            f1(dd.distance_matrix(dd.delta(query, cfg), dd.delta(ref, cfg)))
            for cfg in map(dd.DeltaConfig, VELOCITY_SINGLE_SPANS)
        )
        assert bank_f1 > best_single, f"seed {seed}: bank {bank_f1} vs single {best_single}"
        assert bank_f1 == pytest.approx(frozen, abs=REGRESSION_TOL)
        lines.append(f"seed {seed} bank={bank_f1:.4f} > single={best_single:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"velocity scenario took {elapsed:.1f}s, budget 30s"
    report(11, f"span bank {VELOCITY_BANK} beats every single span under a velocity "
               f"change: {'; '.join(lines)} in {elapsed:.1f}s")


# frozen from the first oracle run of the criterion-15 scenario, per seed: max F1 of
# raw + seqmatch 16 and of delta 8, each without the warp and with it
FROZEN_CAMERA_MOTION_MAX_F1 = {
    1: (0.9692849949647533, 0.7754172989377845, 1.0, 0.9765),
    2: (0.9375, 0.728732747804266, 1.0, 0.9745),
    7: (0.973, 0.774, 1.0, 0.978),
}


def test_criterion_15_delta_robust_to_camera_motion():
    # the paper's claim against sequential filtering, which assumes the query's speed:
    # criterion 11's velocity change costs raw + seqmatch 16 far more F1 than delta 8
    start = time.perf_counter()
    lines = []
    for seed, frozen in FROZEN_CAMERA_MOTION_MAX_F1.items():
        f1 = []
        for warp in (None, VELOCITY_WARP):
            params = dd.SynthParams(
                frames=2000, dims=128, latent_smooth_window=20, offset_scale=0.25,
                noise_scale=0.5, warp=warp, seed=seed,
            )
            ref, query, gt = dd.generate_traverse_pair(params)
            gt = replace(gt, radius=2.0)
            cfg = dd.DeltaConfig(8)
            f1 += [max_f1_of(query, ref, gt, seqmatch=16),
                   max_f1_of(dd.delta(query, cfg), dd.delta(ref, cfg), gt)]
        seq_still, delta_still, seq_warped, delta_warped = f1
        assert delta_warped > seq_warped, f"seed {seed}: delta {delta_warped} vs {seq_warped}"
        seq_loss, delta_loss = seq_still - seq_warped, delta_still - delta_warped
        assert delta_loss <= seq_loss / 4, f"seed {seed}: losses {delta_loss} vs {seq_loss}"
        got = (seq_still, seq_warped, delta_still, delta_warped)
        assert got == pytest.approx(frozen, abs=REGRESSION_TOL)
        lines.append(f"seed {seed} raw+seq16 {seq_still:.3f}->{seq_warped:.3f}, "
                     f"delta8 {delta_still:.3f}->{delta_warped:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"camera-motion scenario took {elapsed:.1f}s, budget 30s"
    report(15, f"delta 8 loses at most a quarter of raw + seqmatch 16's F1 under a velocity "
               f"change: {'; '.join(lines)} in {elapsed:.1f}s")
