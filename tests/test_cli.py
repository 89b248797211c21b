import json
import os
import shutil
import subprocess
import sys
import threading
import weakref
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltadesc.calibration
import deltadesc.cli
import deltadesc.io
import deltadesc.matching
import deltadesc.series
import deltadesc.transform
from deltadesc import (
    DeltaConfig,
    DescriptorSeries,
    SpanBank,
    delta,
    delta_bank,
    distance_matrix,
    evaluate_pr,
    load_pca_model,
    max_f1,
    multi_delta_distance,
    pca_fit,
    pca_transform,
    precision_at_full_recall,
    read_descriptors,
    read_ground_truth,
    read_matches_csv,
    retrieve_best,
    save_pca_model,
    seq_match,
    write_descriptors,
    write_pr_csv,
)
from deltadesc.cli import QueryRows, main


def run_cli(*args):
    return main([str(a) for a in args])


def query_rows(query) -> QueryRows:
    """The row stream that ``cli._match`` reads, for a list of members (their rows zipped)
    or a ``SpanBank`` (its source rows, with its spans)."""
    members, spans = ([query.source], query.spans) if isinstance(query, SpanBank) else (query, ())
    return QueryRows(members[0].frame_count, tuple(m.dim for m in members),
                     zip(*(m.data for m in members)), spans)


def watch_reads(monkeypatch, on_read=lambda name: None):
    """(file name, weakref) of each file read through ``io.open_descriptors``' row stream,
    in read order, once its first rows exist. The weakref is to the array that holds them:
    the loaded series' matrix for a whole read, and the stream's reused block buffer, alive
    as long as the stream, for a streamed one. ``on_read`` is called with the file name just
    before each read."""
    loaded, opener = [], deltadesc.io.open_descriptors

    @contextmanager
    def open_and_watch(path):
        with opener(path) as (shape, rows):

            def rows_and_watch(*args):
                on_read(Path(path).name)
                blocks = rows(*args)
                first = next(blocks)
                loaded.append((Path(path).name, weakref.ref(first.base)))
                yield first
                yield from blocks

            yield shape, rows_and_watch

    monkeypatch.setattr(deltadesc.io, "open_descriptors", open_and_watch)
    return loaded


@contextmanager
def piped(path):
    """``path``'s bytes as ``/dev/fd/N``, the read end of an os.pipe fed by a thread."""
    r, w = os.pipe()

    def feed():
        with suppress(BrokenPipeError), open(w, "wb") as fh:
            fh.write(Path(path).read_bytes())

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)  # a feeder the run never drained gets a broken pipe
        feeder.join(timeout=10)
    assert not feeder.is_alive()


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
        # run matches the reference bank through its Gram matrix, staged match takes
        # member files and one GEMM per pairing: the matches and the curve's precision
        # and recall are byte-equal, distances and thresholds agree within a bound
        ref, query, gt = synth_files
        single = tmp_path / "single"
        spy = mock.Mock(wraps=deltadesc.matching._bank_distances)
        with mock.patch.object(deltadesc.matching, "_bank_distances", spy):
            assert run_cli(
                "run", "--ref", ref, "--query", query, "--gt", gt,
                "--transform", "multi-delta", "--spans", 4, 8, "--radius", 2,
                "--out-dir", single,
            ) == 0
        assert spy.call_count == 1

        staged = tmp_path / "staged"
        staged.mkdir()
        members = {"ref": [], "query": []}
        for span in (4, 8):
            for tag, src in (("ref", ref), ("query", query)):
                out = staged / f"{tag}_span{span}.dvpr"
                assert run_cli("transform", "--input", src, "--output", out,
                               "--transform", "delta", "--window", span) == 0
                members[tag].append(out)
        assert run_cli(
            "match", "--query", *members["query"], "--ref", *members["ref"],
            "--out-matches", staged / "raw_matches.csv",
        ) == 0
        assert run_cli(
            "evaluate", "--matches", staged / "raw_matches.csv", "--gt", gt,
            "--radius", 2, "--out-matches", staged / "matches.csv",
            "--out-pr", staged / "pr.csv",
        ) == 0
        # the bound of test_matching.py's factored-path oracle
        bound = 1e-11
        for name, exact, bounded in (("matches.csv", [0, 1, 3], [2]), ("pr.csv", [1, 2], [0])):
            want = np.loadtxt(single / name, delimiter=",", skiprows=1, ndmin=2)
            got = np.loadtxt(staged / name, delimiter=",", skiprows=1, ndmin=2)
            assert got.shape == want.shape, name
            assert np.array_equal(got[:, exact], want[:, exact]), name
            np.testing.assert_allclose(got[:, bounded], want[:, bounded], rtol=0, atol=bound)


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

    def test_multi_delta_pca_saves_one_model_per_span(self, synth_files, tmp_path, monkeypatch):
        ref, query, gt = synth_files
        out = tmp_path / "bank"
        builds = mock.Mock(wraps=delta)
        streams = mock.Mock(wraps=deltadesc.transform.delta_rows)
        monkeypatch.setattr(deltadesc.cli, "delta", builds)
        monkeypatch.setattr(deltadesc.transform, "delta", builds)
        monkeypatch.setattr(deltadesc.cli, "delta_rows", streams)
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "multi-delta", "--spans", 8, 4, "--pca-k", 6,
            "--radius", 2, "--out-dir", out,
        ) == 0
        # each member once, the reference's built and the query's streamed: projected
        # members need no bank
        assert builds.call_count == 2 and streams.call_count == 2
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

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_loaded_series_are_released_before_pca(
        self, synth_files, tmp_path, monkeypatch, source
    ):
        ref, query, gt = synth_files
        alive_at_pca, fit = [], deltadesc.cli.pca_fit
        loaded = watch_reads(monkeypatch)

        def fit_and_check(*args, **kwargs):
            alive_at_pca.append([(name, w() is not None) for name, w in loaded])
            return fit(*args, **kwargs)

        monkeypatch.setattr(deltadesc.cli, "pca_fit", fit_and_check)
        with piped(query) if source == "pipe" else nullcontext(query) as query_path:
            assert run_cli(
                "run", "--ref", ref, "--query", query_path, "--gt", gt, "--transform", "delta",
                "--window", 8, "--pca-k", 6, "--out-dir", tmp_path / "o",
            ) == 0
        # fitted on the reference: the query, from a file or a pipe alike, is not yet read
        # when the model is fitted, and the reference's loaded series is already gone
        assert alive_at_pca == [[("ref.dvpr", False)]]
        assert [name for name, _ in loaded] == ["ref.dvpr", Path(query_path).name]

    def test_a_csv_query_is_parsed_once_under_a_reference_fit(
        self, synth_files, tmp_path, monkeypatch
    ):
        # a CSV has no header to read for the frame count, so the query is read up front
        ref, query, gt = synth_files
        csv_query = tmp_path / "query.csv"
        np.savetxt(csv_query, read_descriptors(query).data, delimiter=",", fmt="%.17g")
        args = ("--ref", ref, "--gt", gt, "--transform", "delta", "--window", 8,
                "--seqmatch-length", 4, "--pca-k", 6, "--radius", 2)
        assert run_cli("run", "--query", query, *args, "--out-dir", tmp_path / "binary") == 0
        parsed, load_csv = [], deltadesc.io._load_csv

        def count(path, *a, **k):
            parsed.append(Path(path).name)
            return load_csv(path, *a, **k)

        monkeypatch.setattr(deltadesc.io, "_load_csv", count)
        assert run_cli("run", "--query", csv_query, *args, "--out-dir", tmp_path / "csv") == 0
        assert parsed.count("query.csv") == 1
        for name in ("matches.csv", "pr.csv", "summary.json", "pca_model.bin"):
            got, want = (tmp_path / d / name for d in ("csv", "binary"))
            assert got.read_bytes() == want.read_bytes(), name

    def test_a_fifo_query_under_a_reference_fit_finishes(self, synth_files, tmp_path):
        # a named pipe is opened once: its header is read at load and its payload, from the
        # same handle, once the reference is done, with a reference fit or without one; a
        # second open would wait for a writer that never comes
        ref, query, gt = synth_files
        fifo = tmp_path / "query.fifo"
        os.mkfifo(fifo)
        env = {**os.environ, "PYTHONPATH": str(Path(deltadesc.cli.__file__).parents[1])}
        args = ("--ref", ref, "--gt", gt, "--transform", "delta", "--window", 8,
                "--seqmatch-length", 4, "--radius", 2)
        for pca, names in [(("--pca-k", 6), ("pca_model.bin",)), ((), ())]:
            file_dir, fifo_dir = tmp_path / f"file{len(pca)}", tmp_path / f"fifo{len(pca)}"
            assert run_cli("run", "--query", query, *args, *pca, "--out-dir", file_dir) == 0

            def write():
                with suppress(BrokenPipeError), open(fifo, "wb") as fh:
                    fh.write(query.read_bytes())

            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            try:
                out = subprocess.run(
                    [sys.executable, "-m", "deltadesc", "run", "--query", str(fifo),
                     *map(str, args + pca), "--out-dir", str(fifo_dir)],
                    env=env, capture_output=True, text=True, timeout=60,
                )
            finally:
                writer.join(timeout=10)
                if writer.is_alive():  # the run never opened the pipe: release the writer
                    os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
                    writer.join(timeout=10)
            assert not writer.is_alive()
            assert (out.returncode, out.stderr) == (0, "")
            for name in ("matches.csv", "pr.csv", "summary.json", *names):
                assert (fifo_dir / name).read_bytes() == (file_dir / name).read_bytes(), name

    @pytest.mark.parametrize("fit_on", ["ref", "query", "both"])
    def test_pca_fit_sources_write_the_library_oracle_bytes(
        self, synth_files, tmp_path, monkeypatch, fit_on
    ):
        ref, query, gt = synth_files
        out = tmp_path / "run"
        spy = mock.Mock(wraps=deltadesc.cli._match)
        monkeypatch.setattr(deltadesc.cli, "_match", spy)
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt, "--transform", "delta",
            "--window", 8, "--seqmatch-length", 4, "--pca-k", 6, "--pca-fit", fit_on,
            "--radius", 2, "--out-dir", out,
        ) == 0
        # every fit source hands _match the query as its row stream
        assert isinstance(spy.call_args.args[0], QueryRows)
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        tq, tr = (delta(read_descriptors(p), DeltaConfig(8)) for p in (query, ref))
        model = pca_fit(tr if fit_on == "ref" else deltadesc.cli._pca_fit_series(tq, tr, fit_on), 6)
        # the library's dense path: the whole Q x R matrix, seqmatch, best reference
        q, r = (pca_transform(model, t) for t in (tq, tr))
        matches = retrieve_best(seq_match(distance_matrix(q, r), 4))
        deltadesc.cli._score(matches, read_ground_truth(gt, radius=2), None,
                             oracle / "matches.csv", oracle / "pr.csv")
        save_pca_model(oracle / "pca_model.bin", model)
        for name in ("matches.csv", "pr.csv", "pca_model.bin"):
            assert (out / name).read_bytes() == (oracle / name).read_bytes(), name

    def test_loaded_reference_is_released_before_the_query_is_transformed(
        self, synth_files, tmp_path, monkeypatch
    ):
        ref, query, gt = synth_files
        alive_at_delta, transform, stream = [], deltadesc.cli.delta, deltadesc.cli.delta_rows
        loaded = watch_reads(monkeypatch)

        def delta_and_check(*args, **kwargs):
            alive_at_delta.append([w() is not None for _, w in loaded])
            return transform(*args, **kwargs)

        def delta_rows_and_check(*args):  # runs when the query's first delta row is asked for
            alive_at_delta.append([w() is not None for _, w in loaded])
            yield from stream(*args)

        monkeypatch.setattr(deltadesc.cli, "delta", delta_and_check)
        monkeypatch.setattr(deltadesc.cli, "delta_rows", delta_rows_and_check)
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "delta", "--window", 8, "--out-dir", tmp_path / "o",
        ) == 0
        # the reference is transformed before the query's rows are read, and the query's
        # stream second, once the reference's loaded series is gone
        assert alive_at_delta == [[True], [False, True]]

    def test_the_query_is_read_after_the_reference_is_transformed(
        self, synth_files, tmp_path, monkeypatch
    ):
        # one order with or without a fit: the query's first rows are read once the reference
        # is transformed, while the loaded reference is alive; it goes before the query's
        # transform. Released before that read, it raised long-route's peak RSS 129 -> 143 MiB
        ref, query, gt = synth_files
        events, transform, stream = [], deltadesc.cli.delta, deltadesc.cli.delta_rows

        def alive():
            return [(name, w() is not None) for name, w in loaded]

        loaded = watch_reads(monkeypatch, lambda name: events.append(("read", name, alive())))

        def delta_and_check(*args, **kwargs):
            events.append(("delta", alive()))
            return transform(*args, **kwargs)

        def delta_rows_and_check(*args):  # runs when the query's first delta row is asked for
            events.append(("delta", alive()))
            yield from stream(*args)

        monkeypatch.setattr(deltadesc.cli, "delta", delta_and_check)
        monkeypatch.setattr(deltadesc.cli, "delta_rows", delta_rows_and_check)
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt, "--transform", "delta",
            "--window", 8, "--seqmatch-length", 4, "--out-dir", tmp_path / "o",
        ) == 0
        assert events == [
            ("read", "ref.dvpr", []),
            ("delta", [("ref.dvpr", True)]),
            ("read", "query.dvpr", [("ref.dvpr", True)]),
            ("delta", [("ref.dvpr", False), ("query.dvpr", True)]),
        ]

    def test_each_bank_keeps_its_source_and_no_member(self, synth_files, tmp_path, monkeypatch):
        ref, query, gt = synth_files
        members, alive_at_match = [], []
        build, match = deltadesc.transform.delta, deltadesc.cli.multi_delta_distance
        loaded = watch_reads(monkeypatch)

        def build_and_watch(*args):
            member = build(*args)
            members.append(weakref.ref(member))
            return member

        def match_and_check(q_members, r_members):
            (_, ref_read), (_, query_read) = loaded
            alive_at_match.append([w() is not None for w in (ref_read, query_read, *members)])
            assert isinstance(q_members, SpanBank) and isinstance(r_members, SpanBank)
            # the query's one tile is its source, filled from the query's stream
            assert np.array_equal(q_members.source.data, read_descriptors(query).data)
            assert r_members.source.data is ref_read()
            return match(q_members, r_members)

        monkeypatch.setattr(deltadesc.transform, "delta", build_and_watch)
        monkeypatch.setattr(deltadesc.cli, "multi_delta_distance", match_and_check)
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "multi-delta", "--spans", 4, 8, "--out-dir", tmp_path / "o",
        ) == 0
        # each bank holds its source and takes its norms without building a member: the
        # reference's is the loaded series, and the query's stream, its reused block buffer
        # too, has ended before its one tile is matched
        assert members == []
        assert alive_at_match == [[True, False]]

    def test_one_span_multi_delta_matches_exactly_like_delta(
        self, synth_files, tmp_path, monkeypatch
    ):
        ref, query, gt = synth_files
        banks = mock.Mock(wraps=delta_bank)
        scales = mock.Mock(wraps=deltadesc.transform._delta_scales)
        monkeypatch.setattr(deltadesc.cli, "delta_bank", banks)
        monkeypatch.setattr(deltadesc.transform, "_delta_scales", scales)
        out = {}
        for name, flags in (("multi", ("--transform", "multi-delta", "--spans", 8)),
                            ("delta", ("--transform", "delta", "--window", 8))):
            out[name] = tmp_path / name
            assert run_cli(
                "run", "--ref", ref, "--query", query, "--gt", gt, *flags,
                "--seqmatch-length", 4, "--radius", 2, "--out-dir", out[name],
            ) == 0
        for name in ("matches.csv", "pr.csv"):
            assert (out["multi"] / name).read_bytes() == (out["delta"] / name).read_bytes()
        # one span is one delta a side: no bank, and no norms but the members' own
        assert banks.call_count == 0 and scales.call_count == 0

    def test_a_query_over_several_tiles_stays_a_bank(self, synth_files, tmp_path, monkeypatch):
        ref, query, gt = synth_files
        banks = mock.Mock(wraps=delta_bank)
        scales = mock.Mock(wraps=deltadesc.transform._delta_scales)
        transformed = mock.Mock(wraps=delta)
        built = mock.Mock(wraps=delta)
        monkeypatch.setattr(deltadesc.cli, "delta_bank", banks)
        monkeypatch.setattr(deltadesc.transform, "_delta_scales", scales)
        monkeypatch.setattr(deltadesc.cli, "_delta_scales", scales)
        monkeypatch.setattr(deltadesc.cli, "delta", transformed)
        monkeypatch.setattr(deltadesc.transform, "delta", built)
        # six tiles of 50 kept rows: the bank does not fit one tile, so under seqmatch it
        # shares the budget, as member tiles do, with no span halo
        monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", 2 * 50 * 8 * 300)
        tiles = mock.Mock(wraps=deltadesc.cli.retrieve_best)
        monkeypatch.setattr(deltadesc.cli, "retrieve_best", tiles)
        assert run_cli(
            "run", "--ref", ref, "--query", query, "--gt", gt,
            "--transform", "multi-delta", "--spans", 4, 8, 16, "--seqmatch-length", 4,
            "--radius", 2, "--out-dir", tmp_path / "o",
        ) == 0
        assert tiles.call_count == 6
        # the reference is one bank of its loaded series, the query is read from its stream,
        # and no member is built
        (call,) = banks.call_args_list
        assert np.array_equal(call.args[0].data, read_descriptors(ref).data)
        assert transformed.call_count == 0 and built.call_count == 0
        # the three spans' norms of the reference, then of the query's row stream, once
        # each: no tile takes norms of its own
        assert scales.call_count == 3 * 2
        assert all(isinstance(c.args[0], np.ndarray) for c in scales.call_args_list[:3])
        assert not any(isinstance(c.args[0], np.ndarray) for c in scales.call_args_list[3:])

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
        assert run_cli("calibrate", "--input", flat, "--d-max", 10,
                       "--out-profile", tmp_path / "p.csv") == 2
        assert "never crosses" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_buffer_over_physical_memory_is_config_error(
        self, synth_files, tmp_path, capsys, monkeypatch
    ):
        # the limit is patched low, so the refused buffer is 0.7 MiB and nothing large is asked for
        ref, _, _ = synth_files
        blocks = mock.Mock(wraps=deltadesc.calibration._cosine_block)
        monkeypatch.setattr(deltadesc.calibration, "_cosine_block", blocks)
        monkeypatch.setattr(deltadesc.calibration, "_physical_memory", lambda: 100_000)
        assert run_cli("calibrate", "--input", ref, "--d-max", 299,
                       "--out-profile", tmp_path / "p.csv") == 2
        assert capsys.readouterr().err.splitlines() == [
            "deltadesc: config error: [calibrate] the d_max x T = 299 x 300 float64 distance "
            "buffer takes 0.7 MiB, more than the 0.1 MiB of physical memory; lower d_max"
        ]
        assert blocks.call_count == 0 and not (tmp_path / "p.csv").exists()


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


@pytest.fixture(scope="module")
def long_pair(tmp_path_factory):
    """A 3000-frame pair: two query tiles at the default budget, a 69 MiB distance file."""
    d = tmp_path_factory.mktemp("long")
    ref, query, gt = d / "ref.dvpr", d / "query.dvpr", d / "gt.csv"
    assert run_cli(
        "synth", "--frames", 3000, "--dims", 8, "--latent-smooth-window", 10,
        "--offset-scale", 0.5, "--noise-scale", 0.1, "--seed", 4,
        "--out-ref", ref, "--out-query", query, "--out-gt", gt,
    ) == 0
    return ref, query, gt


class TestTiledMatch:
    def test_match_writes_the_same_csv_with_and_without_out_distances(self, long_pair, tmp_path):
        ref, query, _ = long_pair
        common = ("match", "--query", query, "--ref", ref, "--seqmatch-length", 8)
        assert run_cli(*common, "--out-matches", tmp_path / "alone.csv") == 0
        assert run_cli(*common, "--out-matches", tmp_path / "with.csv",
                       "--out-distances", tmp_path / "d") == 0
        assert (tmp_path / "alone.csv").read_bytes() == (tmp_path / "with.csv").read_bytes()
        # both query tiles' rows, after the 28-byte header
        assert (tmp_path / "d").stat().st_size == 28 + 8 * 3000 * 3000

    @pytest.mark.parametrize("spans", [None, (2, 4)])
    def test_reference_scales_are_computed_once_per_route(self, spans, monkeypatch):
        rng = np.random.default_rng(9)
        query = DescriptorSeries(rng.normal(size=(50, 4)))
        ref = DescriptorSeries(rng.normal(size=(30, 4)))
        # five tiles of 10 kept rows: at L = 3 the distances and seq_match's output share
        # the budget
        monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", 2 * 10 * 8 * 30)
        # the zero-norm rule, which every norm pass ends in: a series' or a bank's
        spy = mock.Mock(wraps=deltadesc.series._norm_scales)
        monkeypatch.setattr(deltadesc.series, "_norm_scales", spy)
        monkeypatch.setattr(deltadesc.transform, "_norm_scales", spy)
        # a bank takes its members' norms when it is built, and keeps them; against a
        # reference bank the query is a bank too, as run makes it
        if spans is None:
            q_members, r_members = [query], [ref]
            tiles = [11, 11, 12, 12, 12]  # one query tile of 11 or 12 halo-widened rows each
        else:
            q_members, r_members = delta_bank(query, spans), delta_bank(ref, spans)
            # per span: the whole query when its bank is built, and once more as _match
            # reads it as a row stream, one block of norms each; no tile takes its own
            tiles = [50, 50] * 2
        deltadesc.cli._match(query_rows(q_members), r_members, 3)
        # one call per reference member, however many tiles
        sizes = sorted(len(call.args[0]) for call in spy.call_args_list)
        assert sizes == sorted(tiles + [30] * len(r_members))

    def test_a_one_row_budget_halved_still_takes_one_row_a_tile(self, monkeypatch):
        rng = np.random.default_rng(12)
        query = DescriptorSeries(rng.normal(size=(30, 6)))
        ref = DescriptorSeries(rng.normal(size=(20, 6)))
        dense = seq_match(multi_delta_distance([query], [ref]), 8)
        want = retrieve_best(dense)
        # one row of distances: half of it rounds down to zero rows, and must not
        monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", 8 * 20)
        tiles = mock.Mock(wraps=deltadesc.cli.distance_matrix)
        monkeypatch.setattr(deltadesc.cli, "distance_matrix", tiles)
        got = deltadesc.cli._match(query_rows([query]), [ref], 8)
        assert tiles.call_count == 30
        np.testing.assert_allclose(got.distances, want.distances, rtol=0, atol=1e-12)
        # a different argmin is a tie: its dense distance equals the best within 1e-12
        assert np.all(dense.values[np.arange(30), got.ref_indices] - want.distances <= 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        q_count=st.integers(1, 80),
        r_count=st.integers(1, 80),
        dim=st.integers(1, 40),
        banks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        length=st.integers(1, 20),
        data=st.data(),
    )
    def test_tiled_match_equals_the_dense_match(
        self, q_count, r_count, dim, banks, length, data
    ):
        rows = data.draw(st.integers(1, q_count + 1), label="tile rows")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)

        def bank(frames, members):
            dead = rng.random(frames) < 0.2  # zero rows compare at exactly 1.0
            return [DescriptorSeries(rng.normal(size=(frames, dim)) * ~dead[:, None])
                    for _ in range(members)]

        q_members, r_members = bank(q_count, banks[0]), bank(r_count, banks[1])
        if data.draw(st.booleans(), label="reference as a span bank"):
            # against these member queries it is matched member by member too
            r_members = delta_bank(r_members[0], range(1, banks[1] + 1))
        # the oracle: the library's whole Q x R matrix, seqmatch at L = 1 changing no bit
        dense = seq_match(multi_delta_distance(q_members, r_members), length)
        want = retrieve_best(dense)
        written = []

        @contextmanager
        def writer(path, q_rows, r_cols):
            assert (path, q_rows, r_cols) == ("d.dvpr", q_count, r_count)
            yield written.append

        with mock.patch.object(deltadesc.cli, "MATCH_TILE_BYTES", rows * 8 * r_count), \
                mock.patch.object(deltadesc.io, "distance_rows_writer", writer):
            got = deltadesc.cli._match(query_rows(q_members), r_members, length, "d.dvpr")
        np.testing.assert_allclose(got.distances, want.distances, rtol=0, atol=1e-12)
        # a different argmin is a tie: its dense distance equals the best within 1e-12
        q = np.arange(q_count)
        assert np.all(dense.values[q, got.ref_indices] - want.distances <= 1e-12)
        # the streamed writer gets every query row once, in order
        np.testing.assert_allclose(np.vstack(written), dense.values, rtol=0, atol=1e-12)


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

    def test_out_distances_over_free_disk_is_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        frames = 200_000
        if shutil.disk_usage(tmp_path).free >= 28 + frames * frames * 8:
            pytest.skip("the disk holds a 200000 x 200000 float64 distance file")
        path = tmp_path / "long.dvpr"
        write_descriptors(path, DescriptorSeries(np.ones((frames, 1))))
        calls = []
        monkeypatch.setattr(deltadesc.cli, "distance_matrix", lambda *a: calls.append(a))
        code = run_cli("match", "--query", path, "--ref", path, "--out-matches", tmp_path / "m.csv",
                       "--out-distances", tmp_path / "d.bin")
        assert code == 2
        err = capsys.readouterr().err
        assert "200000 x 200000" in err and "298.0 GiB" in err
        # refused before any distance is computed or any output is created
        assert calls == []
        assert not (tmp_path / "m.csv").exists() and not (tmp_path / "d.bin").exists()

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
        (("--transform", "delta", "--window", 4, "--pca-fit", "both"), "--pca-fit"),
        (("--transform", "delta", "--window", 4, "--pca-fit", "ref"), "--pca-fit"),
        (("--radius", 2, "--radius-mode", "meters"), "need --gt"),
        (("--radius", 2), "need --gt"),
        (("--radius-mode", "meters"), "need --gt"),
        (("--ref-positions", "pos.csv"), "need --gt"),
        (("--gt", "gt.csv", "--ref-positions", "pos.csv"), "--ref-positions"),
        (("--transform", "multi-delta"), "multi-delta needs a non-empty --spans list"),
    ], ids=["delta-spans", "smooth-spans", "multi-delta-window", "raw-window",
            "smooth-padding", "raw-padding", "pca-fit-without-k", "pca-fit-ref-without-k",
            "radius-meters-without-gt", "radius-without-gt", "meters-without-gt",
            "positions-without-gt",
            "positions-in-frames-mode", "multi-delta-without-spans"])
    def test_unread_flag_is_config_error_before_loading(self, tmp_path, capsys, flags, named):
        missing = tmp_path / "nothere.dvpr"
        code = run_cli("run", "--ref", missing, "--query", missing, *flags,
                       "--out-dir", tmp_path / "o")
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["run", "evaluate"])
    def test_bad_radius_is_config_error_before_reading(self, tmp_path, capsys, command, radius):
        # the flag is blamed, not the ground-truth file, and no file is opened
        missing = tmp_path / "nothere.csv"
        if command == "run":
            args = ["--ref", missing, "--query", missing, "--out-dir", tmp_path / "o"]
        else:
            args = ["--matches", missing, "--out-pr", tmp_path / "pr.csv"]
        code = run_cli(command, *args, "--gt", missing, "--radius", radius)
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: radius must be finite and non-negative, got {float(radius)}" in err
        assert not (tmp_path / "o" / "matches.csv").exists() and not (tmp_path / "pr.csv").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("padding", "bogus", "unknown padding 'bogus'"),
        ("pca_fit_on", "bogus", "pca fit source must be one of"),
        ("radius_mode", "bogus", "radius_mode must be 'frames' or 'meters', got 'bogus'"),
    ], ids=["padding", "pca-fit-source", "radius-mode"])
    def test_run_pipeline_rejects_a_bad_config_before_reading(
        self, tmp_path, field, value, message
    ):
        # values that the parser's choices keep out of the CLI, given to the library directly
        missing = str(tmp_path / "nothere.dvpr")
        cfg = deltadesc.cli.RunConfig(missing, missing, str(tmp_path / "o"), gt_path=missing,
                                      pca_k=4, **{field: value})
        with pytest.raises(ValueError, match=message):
            deltadesc.cli.run_pipeline(cfg)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("pca", [(), ("--pca-k", 4)], ids=["loaded", "header"])
    def test_query_of_another_dimension_is_data_error_before_transform(
        self, synth_files, tmp_path, capsys, monkeypatch, pca
    ):
        # with a reference fit or without one, the query's header gives its D at load
        ref, query, gt = synth_files
        narrow = tmp_path / "narrow.dvpr"
        write_descriptors(narrow, DescriptorSeries(read_descriptors(query).data[:, :8]))
        calls = []
        monkeypatch.setattr(deltadesc.cli, "delta", lambda *a: calls.append(a))
        code = run_cli("run", "--ref", ref, "--query", narrow, "--gt", gt, "--transform", "delta",
                       "--window", 4, *pca, "--out-dir", tmp_path / "o")
        assert code == 3
        assert f"[load] {narrow}: 8 dimensions, the reference has 24" in capsys.readouterr().err
        assert calls == []
        assert list((tmp_path / "o").iterdir()) == []

    def test_match_of_another_dimension_stays_config_error(self, synth_files, tmp_path, capsys):
        ref, query, _ = synth_files
        narrow = tmp_path / "narrow.dvpr"
        write_descriptors(narrow, DescriptorSeries(read_descriptors(query).data[:, :8]))
        code = run_cli("match", "--query", narrow, "--ref", ref, "--out-matches", tmp_path / "m.csv")
        assert code == 2
        assert "[distance] dimension mismatch: query D=8, reference D=24" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_evaluate_rejects_positions_in_frames_mode_before_loading(self, tmp_path, capsys):
        missing = tmp_path / "nothere.csv"
        code = run_cli("evaluate", "--matches", missing, "--gt", missing,
                       "--ref-positions", missing, "--out-pr", tmp_path / "pr.csv")
        assert code == 2
        assert "needs --ref-positions; no other mode reads it" in capsys.readouterr().err
        assert not (tmp_path / "pr.csv").exists()

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

    @pytest.mark.parametrize("case", ["short-gt", "gt-index", "positions-rows"])
    def test_inputs_that_disagree_are_data_errors_before_transform(
        self, synth_files, tmp_path, capsys, monkeypatch, case
    ):
        ref, query, gt = synth_files
        lines = gt.read_text().splitlines()
        bad = tmp_path / ("bad.dvpr" if case == "positions-rows" else "bad.csv")
        if case == "short-gt":
            bad.write_text("\n".join(lines[:-1]) + "\n")
            extra = ["--gt", bad]
        elif case == "gt-index":
            bad.write_text("\n".join([lines[0], "0,99999", *lines[2:]]) + "\n")
            extra = ["--gt", bad]
        else:
            write_descriptors(bad, DescriptorSeries(np.zeros((301, 2))))
            extra = ["--gt", gt, "--ref-positions", bad, "--radius-mode", "meters"]
        calls = []
        monkeypatch.setattr(deltadesc.cli, "delta", lambda *a: calls.append(a))
        code = run_cli("run", "--ref", ref, "--query", query, *extra, "--transform", "delta",
                       "--window", 4, "--out-dir", tmp_path / "o")
        assert code == 3
        err = capsys.readouterr().err
        assert "[load]" in err and bad.name in err
        assert calls == []
        assert not (tmp_path / "o" / "matches.csv").exists()

    @pytest.mark.parametrize("command", ["evaluate", "shuffle", "rank-dims"])
    def test_staged_ground_truth_that_does_not_fit_is_data_error(
        self, synth_files, tmp_path, capsys, command
    ):
        ref, query, gt = synth_files
        short = tmp_path / "short.csv"
        short.write_text("\n".join(gt.read_text().splitlines()[:200]) + "\n")
        if command == "evaluate":
            matches = tmp_path / "m.csv"
            assert run_cli("match", "--query", query, "--ref", ref, "--out-matches", matches) == 0
            args = ["--matches", matches, "--gt", short]
        elif command == "shuffle":
            args = ["--ref", ref, "--query", query, "--gt", short, "--seed", 1,
                    "--out-ref", tmp_path / "r", "--out-query", tmp_path / "q",
                    "--out-gt", tmp_path / "g"]
        else:
            args = ["--ref", ref, "--query", query, "--gt", short, "--top-k", 3]
        capsys.readouterr()
        assert run_cli(command, *args) == 3
        err = capsys.readouterr().err
        assert "short.csv" in err and "ground truth covers 199 queries, expected 300" in err

    @pytest.mark.parametrize("length", [0, -3])
    def test_match_rejects_non_positive_seqmatch_length_before_loading(
        self, tmp_path, capsys, length
    ):
        missing = tmp_path / "nothere.dvpr"
        code = run_cli("match", "--query", missing, "--ref", missing,
                       "--seqmatch-length", length, "--out-matches", tmp_path / "m.csv")
        assert code == 2
        assert "seqmatch length must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_transform_command_rejects_zero_window_before_loading(self, tmp_path, capsys):
        code = run_cli("transform", "--input", tmp_path / "nothere.dvpr",
                       "--output", tmp_path / "out.dvpr", "--transform", "delta",
                       "--window", 0)
        assert code == 2
        assert "--window >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out.dvpr").exists()

    @pytest.mark.parametrize("module", ["deltadesc", "deltadesc.cli"])
    def test_python_m_runs_the_cli_without_a_warning(self, tmp_path, module):
        env = {**os.environ, "PYTHONPATH": str(Path(deltadesc.cli.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", module, "synth", "--frames", "20", "--dims", "3",
             "--out-ref", "r.dvpr", "--out-query", "q.dvpr", "--out-gt", "gt.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert (tmp_path / "gt.csv").exists()

    @pytest.mark.parametrize("flags", [
        ("--threshold", 5), ("--threshold", 0), ("--multiplier", 0), ("--d-max", 0),
    ], ids=["threshold-high", "threshold-zero", "multiplier", "d-max"])
    def test_calibrate_rejects_flags_before_reading(self, synth_files, tmp_path, capsys, flags):
        ref, _, _ = synth_files
        spy = mock.Mock(wraps=deltadesc.io.read_descriptors)
        with mock.patch.object(deltadesc.io, "read_descriptors", spy):
            code = run_cli("calibrate", "--input", ref, *flags,
                           "--out-profile", tmp_path / "p.csv")
        assert code == 2
        assert flags[0].lstrip("-").replace("-", "_") in capsys.readouterr().err
        assert spy.call_count == 0 and not (tmp_path / "p.csv").exists()

    def test_rank_dims_rejects_top_k_below_one_before_reading(self, synth_files, tmp_path, capsys):
        ref, query, gt = synth_files
        spy = mock.Mock(wraps=deltadesc.io.read_descriptors)
        with mock.patch.object(deltadesc.io, "read_descriptors", spy):
            code = run_cli("rank-dims", "--ref", ref, "--query", query, "--gt", gt,
                           "--top-k", 0, "--out", tmp_path / "dims.csv")
        assert code == 2
        assert "--top-k must be >= 1, got 0" in capsys.readouterr().err
        assert spy.call_count == 0 and not (tmp_path / "dims.csv").exists()

    @pytest.mark.parametrize("flags", [
        ("--transform", "delta"), ("--window", 8), ("--pca-k", 8), ("--seqmatch-length", 4),
    ], ids=["transform", "window", "pca-k", "seqmatch-length"])
    def test_evaluate_rejects_summary_annotations_without_summary(
        self, synth_files, tmp_path, capsys, flags
    ):
        ref, query, gt = synth_files
        matches = tmp_path / "m.csv"
        assert run_cli("match", "--query", query, "--ref", ref, "--out-matches", matches) == 0
        capsys.readouterr()
        spies = [mock.Mock(wraps=getattr(deltadesc.io, name))
                 for name in ("read_descriptors", "read_matches_csv")]
        with mock.patch.object(deltadesc.io, "read_descriptors", spies[0]), \
                mock.patch.object(deltadesc.io, "read_matches_csv", spies[1]):
            code = run_cli("evaluate", "--matches", matches, "--gt", gt, *flags,
                           "--out-pr", tmp_path / "pr.csv")
        assert code == 2
        assert "need --out-summary" in capsys.readouterr().err
        assert [spy.call_count for spy in spies] == [0, 0]
        assert not (tmp_path / "pr.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--transform", "bogus"), "transform must be one of"),
        (("--transform", "delta", "--window", -3), "transform 'delta' needs --window >= 1"),
        (("--seqmatch-length", 0), "seqmatch length must be >= 1"),
        (("--pca-k", -1), "pca_k must be >= 1"),
    ], ids=["transform", "window", "seqmatch-length", "pca-k"])
    def test_evaluate_rejects_bad_summary_annotations_before_reading(
        self, synth_files, tmp_path, capsys, flags, message
    ):
        _, _, gt = synth_files
        spy = mock.Mock(wraps=deltadesc.io.read_matches_csv)
        with mock.patch.object(deltadesc.io, "read_matches_csv", spy):
            code = run_cli("evaluate", "--matches", tmp_path / "nothere.csv", "--gt", gt,
                           *flags, "--out-summary", tmp_path / "s.json")
        assert code == 2
        assert message in capsys.readouterr().err
        assert spy.call_count == 0 and not (tmp_path / "s.json").exists()

    def test_truncated_query_with_pca_is_data_error_and_writes_no_model(
        self, synth_files, tmp_path, capsys
    ):
        ref, query, gt = synth_files
        cut = tmp_path / "cut.dvpr"
        cut.write_bytes(query.read_bytes()[:-100])
        code = run_cli("run", "--ref", ref, "--query", cut, "--gt", gt, "--transform", "delta",
                       "--window", 8, "--pca-k", 6, "--out-dir", tmp_path / "o")
        assert code == 3
        err = capsys.readouterr().err
        assert "[load]" in err and "cut.dvpr: truncated payload" in err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("fault", ["cut", "trailing", "nan"])
    def test_a_late_query_fault_is_one_load_error_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, fault
    ):
        # The query is read as its tiles are matched: in blocks of 40 rows here, in tiles of
        # 40 kept rows, and projected 64 rows at a time, so each fault is found once the first
        # tile is matched. It is still one [load] error naming the file, and no matches and
        # no model are written.
        ref, query, gt = (tmp_path / name for name in ("ref.dvpr", "query.dvpr", "gt.csv"))
        assert run_cli("synth", "--frames", 300, "--dims", 512, "--latent-smooth-window", 10,
                       "--noise-scale", 0.1, "--seed", 3, "--out-ref", ref, "--out-query", query,
                       "--out-gt", gt) == 0
        row = 512 * 4  # a float32 row
        data = bytearray(query.read_bytes())
        if fault == "cut":
            data = data[: 28 + 100 * row + 50]
        elif fault == "trailing":
            data += b"xyz"
        else:
            at = 28 + (297 * 512 + 5) * 4
            data[at : at + 4] = np.float32(np.nan).tobytes()
        bad = tmp_path / "bad.dvpr"
        bad.write_bytes(bytes(data))
        monkeypatch.setattr(deltadesc.io, "CHUNK_BYTES", 40 * row)
        monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", 2 * 40 * 8 * 300)
        tiles = mock.Mock(wraps=deltadesc.cli.distance_matrix)
        monkeypatch.setattr(deltadesc.cli, "distance_matrix", tiles)
        code = run_cli("run", "--ref", ref, "--query", bad, "--gt", gt, "--transform", "delta",
                       "--window", 8, "--seqmatch-length", 4, "--pca-k", 64, "--radius", 2,
                       "--out-dir", tmp_path / "o")
        assert code == 3 and tiles.call_count >= 1
        message = {
            "cut": f"truncated payload, expected {300 * row} bytes, got {100 * row + 50}",
            "trailing": "3 trailing bytes after payload",
            "nan": "non-finite descriptor value at row 297, column 5",
        }[fault]
        assert capsys.readouterr().err == f"deltadesc: data error: [load] {bad}: {message}\n"
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("flags, rows, tiles", [
        (("--transform", "delta", "--window", 2), 40, 6),
        (("--transform", "multi-delta", "--spans", 2, 4), 300, 0),
        (("--transform", "multi-delta", "--spans", 2, 4), 200, 1),
        (("--transform", "multi-delta", "--spans", 2, 4), 32, 7),
    ], ids=["delta-tiles", "bank-one-tile", "bank-two-tiles", "bank-32-row-tiles"])
    def test_a_late_non_finite_delta_names_its_transform_and_query_row(
        self, tmp_path, capsys, monkeypatch, flags, rows, tiles
    ):
        # alternating +-1e308 from row 250 on: each window's sum is finite until the query's
        # last row is edge-replicated, so the first non-finite delta value is at row 298. It is
        # found once ``tiles`` tiles are matched: a member's as its block of delta rows,
        # [256, 300), is made for the seventh tile of 40 rows, and a bank's as the norms of
        # that block are taken, from the query's row stream, for the tile that reads row 256
        # (its second tile of 200 rows, its eighth of 32). A bank over several tiles has no
        # tile edge of its own, so either is named by its row in the query, as one tile is.
        rng = np.random.default_rng(4)
        data = rng.normal(size=(300, 4))
        data[250:, 0] = 1e308 * (-1.0) ** np.arange(50)
        ref, query = tmp_path / "ref.dvpr", tmp_path / "query.dvpr"
        write_descriptors(ref, DescriptorSeries(rng.normal(size=(300, 4))), dtype="float64")
        write_descriptors(query, DescriptorSeries(data), dtype="float64")
        monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", rows * 8 * 300)
        matched = mock.Mock(wraps=deltadesc.cli.retrieve_best)
        monkeypatch.setattr(deltadesc.cli, "retrieve_best", matched)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("run", "--ref", ref, "--query", query, *flags,
                           "--out-dir", tmp_path / "o")
        assert code == 2 and matched.call_count == tiles
        message = "[transform] non-finite descriptor value at row 298, column 0"
        assert capsys.readouterr().err == f"deltadesc: config error: {message}\n"
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("rows", [200, 32])
    def test_a_query_bank_near_the_float64_limit_ends_over_tiles_as_in_one_tile(
        self, tmp_path, capsys, monkeypatch, rows
    ):
        # alternating +-1e308 in rows [250, 290): every delta of the whole series is finite,
        # but the product of the centred sources overflows, in one tile as in several. Tiles
        # of the source's own rows, each edge-replicated, named a non-finite delta at a tile
        # edge instead (row 266 for 32-row tiles)
        rng = np.random.default_rng(4)
        data = rng.normal(size=(300, 4))
        data[250:290, 0] = 1e308 * (-1.0) ** np.arange(40)
        ref, query = tmp_path / "ref.dvpr", tmp_path / "query.dvpr"
        write_descriptors(ref, DescriptorSeries(rng.normal(size=(300, 4))), dtype="float64")
        write_descriptors(query, DescriptorSeries(data), dtype="float64")
        argv = ("run", "--ref", ref, "--query", query, "--transform", "multi-delta",
                "--spans", 2, 4, "--out-dir")
        errors = []
        for budget in (300, rows):
            monkeypatch.setattr(deltadesc.cli, "MATCH_TILE_BYTES", budget * 8 * 300)
            with np.errstate(over="ignore", invalid="ignore"):
                assert run_cli(*argv, tmp_path / f"o{budget}") == 2
            errors.append(capsys.readouterr().err)
        message = "[distance] distance matrix contains non-finite entries"
        assert errors == [f"deltadesc: config error: {message}\n"] * 2

    def test_a_query_cut_short_leaves_no_distance_file(self, synth_files, tmp_path, capsys):
        # match streams its query, so the distance file exists before the cut is found
        ref, query, _ = synth_files
        cut = tmp_path / "cut.dvpr"
        cut.write_bytes(query.read_bytes()[:-100])
        code = run_cli("match", "--query", cut, "--ref", ref, "--out-matches", tmp_path / "m.csv",
                       "--out-distances", tmp_path / "d.dvpr")
        assert code == 3 and "[load]" in capsys.readouterr().err
        assert not (tmp_path / "d.dvpr").exists() and not (tmp_path / "m.csv").exists()

    def test_evaluate_takes_a_default_seqmatch_length_without_summary(self, synth_files, tmp_path):
        ref, query, gt = synth_files
        matches = tmp_path / "m.csv"
        assert run_cli("match", "--query", query, "--ref", ref, "--out-matches", matches) == 0
        assert run_cli("evaluate", "--matches", matches, "--gt", gt,
                       "--seqmatch-length", 1) == 0

    def test_memory_error_is_config_error_naming_the_stage(self, synth_files, capsys, monkeypatch):
        # numpy's own error, whose __init__ takes a shape and a dtype; nothing is allocated
        try:
            from numpy._core._exceptions import _ArrayMemoryError
        except ImportError:  # numpy < 2
            from numpy.core._exceptions import _ArrayMemoryError
        ref, _, _ = synth_files

        def refuse(series, d_max):
            raise _ArrayMemoryError((99999, 100000), np.dtype(np.float64))

        monkeypatch.setattr(deltadesc.cli, "self_distance_profile", refuse)
        assert run_cli("calibrate", "--input", ref) == 2
        assert capsys.readouterr().err.splitlines() == [
            "deltadesc: config error: [calibrate] Unable to allocate 74.5 GiB for an array "
            "with shape (99999, 100000) and data type float64"
        ]

    @pytest.mark.parametrize("role", ["gt", "matches", "input"])
    def test_header_only_csv_is_one_line_data_error(self, synth_files, tmp_path, capsys, role):
        ref, query, gt = synth_files
        empty = tmp_path / "empty.csv"
        empty.write_text("query_idx,ref_idx,distance\n")
        if role == "input":
            args = ["calibrate", "--input", empty]
        else:
            matches = tmp_path / "m.csv"
            assert run_cli("match", "--query", query, "--ref", ref, "--out-matches", matches) == 0
            files = {"matches": matches, "gt": gt, role: empty}
            args = ["evaluate", "--matches", files["matches"], "--gt", files["gt"]]
        capsys.readouterr()
        assert run_cli(*args) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"deltadesc: data error: {empty}: ")
        assert err[0].endswith("has no rows")

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--bogus")
        assert err.value.code == 2
