import json
import os
import weakref

import numpy as np
import pytest

import deltadesc.cli
import deltadesc.io
from deltadesc import (
    DeltaConfig,
    DescriptorSeries,
    delta,
    evaluate_pr,
    load_pca_model,
    max_f1,
    precision_at_full_recall,
    read_descriptors,
    read_ground_truth,
    read_matches_csv,
    write_descriptors,
    write_pr_csv,
)
from deltadesc.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def synth_files(tmp_path):
    ref, query, gt = tmp_path / "ref.dvpr", tmp_path / "query.dvpr", tmp_path / "gt.csv"
    code = run_cli(
        "synth", "--frames", 300, "--dims", 24, "--latent-smooth-window", 10,
        "--offset-scale", 0.5, "--noise-scale", 0.1, "--seed", 3,
        "--out-ref", ref, "--out-query", query, "--out-gt", gt,
    )
    assert code == 0
    return ref, query, gt


class TestSynthCommand:
    def test_outputs_deterministic(self, tmp_path):
        paths = {}
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            run_cli(
                "synth", "--frames", 50, "--dims", 8, "--seed", 9,
                "--offset-scale", 0.2, "--noise-scale", 0.05,
                "--out-ref", d / "r.dvpr", "--out-query", d / "q.dvpr",
                "--out-gt", d / "gt.csv",
            )
            paths[tag] = d
        for name in ("r.dvpr", "q.dvpr", "gt.csv"):
            assert (paths["a"] / name).read_bytes() == (paths["b"] / name).read_bytes()

    def test_warp_flag(self, tmp_path):
        code = run_cli(
            "synth", "--frames", 40, "--dims", 6, "--warp", "0:0,0.25:0.5,1:1",
            "--out-ref", tmp_path / "r.dvpr", "--out-query", tmp_path / "q.dvpr",
            "--out-gt", tmp_path / "gt.csv",
        )
        assert code == 0
        gt = read_ground_truth(tmp_path / "gt.csv")
        assert gt.pairs[-1] == 39 and gt.pairs[0] == 0

    def test_bad_warp_is_config_error(self, tmp_path):
        code = run_cli(
            "synth", "--frames", 10, "--dims", 2, "--warp", "nonsense",
            "--out-ref", tmp_path / "r", "--out-query", tmp_path / "q",
            "--out-gt", tmp_path / "g",
        )
        assert code == 2


class TestStagedPipelineComposability:
    def test_staged_equals_single_invocation(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        single = tmp_path / "single"
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "delta", "--window", 8, "--seqmatch-length", 4,
            "--radius", 2, "--out-dir", single,
        ) == 0

        staged = tmp_path / "staged"
        staged.mkdir()
        dref, dquery = staged / "ref_delta.dvpr", staged / "query_delta.dvpr"
        assert run_cli("transform", "--input", ref, "--output", dref,
                       "--transform", "delta", "--window", 8) == 0
        assert run_cli("transform", "--input", query, "--output", dquery,
                       "--transform", "delta", "--window", 8) == 0
        assert run_cli("match", "--query", dquery, "--ref", dref,
                       "--seqmatch-length", 4, "--out-matches", staged / "raw_matches.csv") == 0
        assert run_cli(
            "evaluate", "--matches", staged / "raw_matches.csv", "--gt", gt,
            "--radius", 2, "--out-matches", staged / "matches.csv",
            "--out-pr", staged / "pr.csv", "--out-summary", staged / "summary.json",
            "--transform", "delta", "--window", 8, "--seqmatch-length", 4,
        ) == 0

        for name in ("matches.csv", "pr.csv", "summary.json"):
            assert (staged / name).read_bytes() == (single / name).read_bytes(), name

    def test_multi_delta_staged_equals_single(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        single = tmp_path / "single"
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "multi-delta", "--spans", 4, 8, "--radius", 2,
            "--out-dir", single,
        ) == 0

        staged = tmp_path / "staged"
        staged.mkdir()
        bank = {}
        for span in (4, 8):
            for tag, src in (("ref", ref), ("query", query)):
                out = staged / f"{tag}_span{span}.dvpr"
                assert run_cli("transform", "--input", src, "--output", out,
                               "--transform", "delta", "--window", span) == 0
                bank[(tag, span)] = out
        assert run_cli(
            "match",
            "--query", bank[("query", 4)], bank[("query", 8)],
            "--ref", bank[("ref", 4)], bank[("ref", 8)],
            "--out-matches", staged / "raw_matches.csv",
        ) == 0
        assert run_cli(
            "evaluate", "--matches", staged / "raw_matches.csv", "--gt", gt,
            "--radius", 2, "--out-matches", staged / "matches.csv",
            "--out-pr", staged / "pr.csv",
        ) == 0
        for name in ("matches.csv", "pr.csv"):
            assert (staged / name).read_bytes() == (single / name).read_bytes(), name


class TestRunCommand:
    def test_deterministic_outputs(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli(
                "run", "--ref", ref, "--query", query, "--gt", gt,
                "--transform", "delta", "--window", 8, "--pca-k", 10,
                "--seqmatch-length", 4, "--radius", 2, "--out-dir", out,
            ) == 0
            outs.append(out)
        for name in ("matches.csv", "pr.csv", "summary.json", "pca_model.bin"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_summary_keys_fixed(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        out = tmp_path / "out"
        run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "delta", "--window", 8, "--radius", 2, "--out-dir", out,
        )
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary.keys()) == [
            "precision_at_full_recall", "max_f1", "radius", "radius_mode",
            "transform", "window", "seqmatch_length", "pca_k",
        ]
        assert summary["transform"] == "delta" and summary["window"] == 8
        assert summary["pca_k"] is None

    def test_without_gt_writes_matches_only(self, synth_files, tmp_path):
        ref, query, _ = synth_files
        out = tmp_path / "nogt"
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--transform", "raw",
            "--out-dir", out,
        ) == 0
        assert (out / "matches.csv").exists()
        assert not (out / "pr.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["precision_at_full_recall"] is None

    def test_multi_delta_pca_saves_one_model_per_span(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        out = tmp_path / "bank"
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "multi-delta", "--spans", 8, 4, "--pca-k", 6,
            "--radius", 2, "--out-dir", out,
        ) == 0
        names = sorted(p.name for p in out.glob("pca_model*.bin"))
        assert names == ["pca_model_span4.bin", "pca_model_span8.bin"]
        ref_series = read_descriptors(ref)
        for span in (4, 8):
            model = load_pca_model(out / f"pca_model_span{span}.bin")
            assert model.components.shape == (24, 6)
            # each model is fitted on the reference delta of its own span
            expected_mean = delta(ref_series, DeltaConfig(span)).data.mean(axis=0)
            np.testing.assert_allclose(model.mean, expected_mean, atol=1e-12)
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary.keys()) == [
            "precision_at_full_recall", "max_f1", "radius", "radius_mode",
            "transform", "window", "seqmatch_length", "pca_k",
        ]

    def test_single_span_bank_keeps_plain_model_name(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        out = tmp_path / "one"
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "multi-delta", "--spans", 8, "--pca-k", 6,
            "--radius", 2, "--out-dir", out,
        ) == 0
        assert sorted(p.name for p in out.glob("pca_model*.bin")) == ["pca_model.bin"]

    def test_bank_spans_are_deduplicated_and_sorted(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        out = tmp_path / "bank"
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "multi-delta", "--spans", 16, 8, 16, "--pca-k", 6,
            "--radius", 2, "--out-dir", out,
        ) == 0
        names = sorted(p.name for p in out.glob("pca_model*.bin"))
        assert names == ["pca_model_span16.bin", "pca_model_span8.bin"]
        ref_series = read_descriptors(ref)
        for span in (8, 16):
            model = load_pca_model(out / f"pca_model_span{span}.bin")
            expected_mean = delta(ref_series, DeltaConfig(span)).data.mean(axis=0)
            np.testing.assert_allclose(model.mean, expected_mean, atol=1e-12)

    def test_loaded_series_are_released_before_pca(self, synth_files, tmp_path, monkeypatch):
        ref, query, gt = synth_files
        loaded, alive_at_pca = [], []
        read, fit = deltadesc.io.read_descriptors, deltadesc.cli.pca_fit

        def read_and_watch(path):
            series = read(path)
            loaded.append(weakref.ref(series))
            return series

        def fit_and_check(*args, **kwargs):
            alive_at_pca.append([w() is not None for w in loaded])
            return fit(*args, **kwargs)

        monkeypatch.setattr(deltadesc.io, "read_descriptors", read_and_watch)
        monkeypatch.setattr(deltadesc.cli, "pca_fit", fit_and_check)
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "delta", "--window", 8, "--pca-k", 6, "--out-dir", tmp_path / "o",
        ) == 0
        assert alive_at_pca == [[False, False]]

    def test_valid_only_scores_the_unpadded_queries(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        out = {}
        for padding in ("edge-replicate", "valid-only"):
            out[padding] = tmp_path / padding
            assert run_cli(
                "run", "--ref", ref, "--query", query, "--gt", gt,
                "--transform", "delta", "--window", 8, "--padding", padding,
                "--radius", 2, "--out-dir", out[padding],
            ) == 0
        edge, valid = out["edge-replicate"], out["valid-only"]
        # the same frame-aligned match: one row per query, border references included
        assert (valid / "matches.csv").read_bytes() == (edge / "matches.csv").read_bytes()
        # scored over delta's valid range (7, 292) of the 300 queries
        curve = evaluate_pr(
            read_matches_csv(edge / "matches.csv"), read_ground_truth(gt, radius=2),
            query_valid_range=(7, 292),
        )
        assert curve.query_count == 285
        write_pr_csv(tmp_path / "expected_pr.csv", curve)
        assert (valid / "pr.csv").read_bytes() == (tmp_path / "expected_pr.csv").read_bytes()
        summary = json.loads((valid / "summary.json").read_text())
        assert summary["max_f1"] == max_f1(curve)
        assert summary["precision_at_full_recall"] == precision_at_full_recall(curve)

    def test_smooth_transform_runs(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "smooth", "--window", 6, "--radius", 2,
            "--out-dir", tmp_path / "sm",
        ) == 0


class TestCalibrateCommand:
    def test_prints_span_and_writes_profile(self, tmp_path, capsys):
        ref = tmp_path / "ref.dvpr"
        run_cli(
            "synth", "--frames", 600, "--dims", 48, "--latent-smooth-window", 7,
            "--seed", 1, "--out-ref", ref, "--out-query", tmp_path / "q.dvpr",
            "--out-gt", tmp_path / "gt.csv",
        )
        capsys.readouterr()
        assert run_cli("calibrate", "--input", ref, "--d-max", 20,
                       "--out-profile", tmp_path / "profile.csv") == 0
        assert capsys.readouterr().out.strip() == "5"
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert lines[0] == "offset,median_distance" and len(lines) == 21

    def test_never_crossing_is_config_error(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join("1.0,1.0" for _ in range(50)) + "\n")
        assert run_cli("calibrate", "--input", flat, "--d-max", 10) == 2
        assert "never crosses" in capsys.readouterr().err


class TestShuffleCommand:
    def test_shuffle_remaps_consistently(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        out_ref, out_query, out_gt = (
            tmp_path / "s_ref.dvpr", tmp_path / "s_query.dvpr", tmp_path / "s_gt.csv"
        )
        assert run_cli(
            "shuffle", "--ref", ref, "--query", query, "--gt", gt, "--seed", 5,
            "--out-ref", out_ref, "--out-query", out_query, "--out-gt", out_gt,
        ) == 0
        original = read_descriptors(ref)
        shuffled = read_descriptors(out_ref)
        np.testing.assert_allclose(
            np.sort(shuffled.data, axis=0), np.sort(original.data, axis=0), atol=1e-7
        )
        gt_new = read_ground_truth(out_gt)
        assert gt_new.query_count == original.frame_count


class TestRankDimsCommand:
    def test_writes_ranking(self, synth_files, tmp_path, capsys):
        ref, query, gt = synth_files
        out = tmp_path / "dims.csv"
        assert run_cli("rank-dims", "--ref", ref, "--query", query, "--gt", gt,
                       "--top-k", 5, "--out", out) == 0
        printed = capsys.readouterr().out.split()
        assert len(printed) == 5
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,dimension,median_product" and len(lines) == 6


class TestMatchCommand:
    def test_exports_distance_matrix(self, synth_files, tmp_path):
        ref, query, _ = synth_files
        dist = tmp_path / "dist.dvpr"
        assert run_cli("match", "--query", query, "--ref", ref,
                       "--out-matches", tmp_path / "m.csv", "--out-distances", dist) == 0
        from deltadesc import read_distance_matrix

        m = read_distance_matrix(dist)
        assert m.query_count == 300 and m.ref_count == 300
        matches = read_matches_csv(tmp_path / "m.csv")
        assert matches.query_count == 300


class TestExitCodes:
    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert run_cli("calibrate", "--input", tmp_path / "nothere.dvpr") == 3

    def test_corrupt_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.dvpr"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        assert run_cli("calibrate", "--input", bad) == 3
        assert "bad magic" in capsys.readouterr().err

    def test_meters_without_positions_is_config_error(self, synth_files, tmp_path, capsys):
        ref, query, gt = synth_files
        code = run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--radius-mode", "meters", "--radius", 10, "--out-dir", tmp_path / "o",
        )
        assert code == 2
        assert "positions" in capsys.readouterr().err

    def test_window_too_large_is_config_error(self, synth_files, tmp_path, capsys):
        ref, query, gt = synth_files
        code = run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "smooth", "--window", 10_000, "--out-dir", tmp_path / "o",
        )
        assert code == 2
        assert "[transform]" in capsys.readouterr().err

    def test_multi_delta_valid_only_is_config_error(self, synth_files, tmp_path, capsys):
        ref, query, gt = synth_files
        code = run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "multi-delta", "--spans", 4, 8, "--padding", "valid-only",
            "--out-dir", tmp_path / "o",
        )
        assert code == 2
        assert "--padding" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.json").exists()

    def test_valid_only_without_gt_is_config_error_before_loading(self, tmp_path, capsys):
        missing = tmp_path / "nothere.dvpr"
        code = run_cli("run", "--ref", missing, "--query", missing, "--transform", "delta",
                       "--window", 4, "--padding", "valid-only", "--out-dir", tmp_path / "o")
        assert code == 2
        assert "--padding" in capsys.readouterr().err

    def test_valid_only_span_beyond_half_the_query_is_config_error(
        self, synth_files, tmp_path, capsys
    ):
        ref, query, gt = synth_files
        code = run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt, "--transform", "delta",
            "--window", 151, "--padding", "valid-only", "--out-dir", tmp_path / "o",
        )
        assert code == 2
        assert "[transform] series too short for span" in capsys.readouterr().err
        assert not (tmp_path / "o" / "matches.csv").exists()

    def test_dense_match_over_physical_memory_is_config_error(self, tmp_path, capsys):
        frames = 200_000
        need = frames * frames * 8
        if os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >= need:
            pytest.skip("physical memory holds a 200000 x 200000 float64 matrix")
        path = tmp_path / "long.dvpr"
        write_descriptors(path, DescriptorSeries(np.ones((frames, 1))))
        code = run_cli("run", "--ref", path, "--query", path, "--transform", "raw",
                       "--out-dir", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "200000" in err and "298.0 GiB" in err
        assert not (tmp_path / "o" / "matches.csv").exists()
        code = run_cli("match", "--query", path, "--ref", path, "--seqmatch-length", 4,
                       "--out-matches", tmp_path / "m.csv")
        assert code == 2
        assert "596.0 GiB" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("spans", [(0, 4), (4, 0)])
    def test_non_positive_span_is_config_error(self, synth_files, tmp_path, capsys, spans):
        ref, query, gt = synth_files
        code = run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "multi-delta", "--spans", *spans, "--out-dir", tmp_path / "o",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--spans" in err and "[transform]" not in err

    def test_non_positive_span_is_caught_before_loading(self, synth_files, tmp_path, capsys):
        _, query, _ = synth_files
        code = run_cli(
            "run", "--ref", tmp_path / "nothere.dvpr", "--query", query,
            "--transform", "multi-delta", "--spans", 0, 4, "--out-dir", tmp_path / "o",
        )
        assert code == 2
        assert "--spans" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--query", "--ref"])
    @pytest.mark.parametrize("shape", [(30, 6), (40, 5)], ids=["frames", "dims"])
    def test_misaligned_match_bank_is_config_error(self, tmp_path, capsys, option, shape):
        rng = np.random.default_rng(5)
        a, b, single = tmp_path / "a.dvpr", tmp_path / "b.dvpr", tmp_path / "s.dvpr"
        write_descriptors(a, DescriptorSeries(rng.normal(size=(40, 6))))
        write_descriptors(b, DescriptorSeries(rng.normal(size=shape)))
        write_descriptors(single, DescriptorSeries(rng.normal(size=(50, 6))))
        other = "--ref" if option == "--query" else "--query"
        code = run_cli("match", option, a, b, other, single, "--out-matches", tmp_path / "m.csv")
        assert code == 2
        assert "bank members must share frame count and dimension" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("flags, named", [
        (("--transform", "delta", "--window", 4, "--spans", 8, 16), "--spans"),
        (("--transform", "smooth", "--window", 4, "--spans", 8), "--spans"),
        (("--transform", "multi-delta", "--spans", 8, "--window", 99), "--window"),
        (("--transform", "raw", "--window", 4), "--window"),
        (("--transform", "smooth", "--window", 4, "--padding", "valid-only"), "--padding"),
        (("--transform", "raw", "--padding", "valid-only"), "--padding"),
    ], ids=["delta-spans", "smooth-spans", "multi-delta-window", "raw-window",
            "smooth-padding", "raw-padding"])
    def test_unread_flag_is_config_error_before_loading(self, tmp_path, capsys, flags, named):
        missing = tmp_path / "nothere.dvpr"
        code = run_cli("run", "--ref", missing, "--query", missing, *flags,
                       "--out-dir", tmp_path / "o")
        assert code == 2
        assert named in capsys.readouterr().err

    def test_transform_command_rejects_padding_under_smooth(self, tmp_path, capsys):
        code = run_cli("transform", "--input", tmp_path / "nothere.dvpr",
                       "--output", tmp_path / "out.dvpr", "--transform", "smooth",
                       "--window", 4, "--padding", "valid-only")
        assert code == 2
        assert "--padding" in capsys.readouterr().err
        assert not (tmp_path / "out.dvpr").exists()

    def test_non_finite_csv_input_is_data_error(self, synth_files, tmp_path, capsys):
        _, query, gt = synth_files
        ref = tmp_path / "ref.csv"
        data = read_descriptors(query).data.copy()
        data[5, 3] = np.nan
        np.savetxt(ref, data, delimiter=",")
        code = run_cli("run", "--ref", ref, "--query", query, "--gt", gt,
                       "--out-dir", tmp_path / "o")
        assert code == 3
        err = capsys.readouterr().err
        assert "ref.csv" in err and "row 5, column 3" in err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--bogus")
        assert err.value.code == 2
