import json
import os
import struct
import threading
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltadesc.io

from deltadesc import (
    DataError,
    DescriptorSeries,
    DistanceMatrix,
    GroundTruth,
    MatchSet,
    PrCurve,
    SelfDistanceProfile,
    load_pca_model,
    pca_fit,
    read_descriptors,
    read_distance_matrix,
    read_ground_truth,
    read_matches_csv,
    read_positions,
    save_pca_model,
    write_descriptors,
    write_dimension_ranking_csv,
    write_distance_matrix,
    write_ground_truth,
    write_matches_csv,
    write_pr_csv,
    write_profile_csv,
    write_summary_json,
)


def oracle_block(arr, dtype):
    """The container bytes of one block, built from the whole payload at once."""
    code = {"float32": 1, "float64": 2}[dtype]
    header = struct.pack("<4sIQQI", b"DVPR", 1, arr.shape[0], arr.shape[1], code)
    return header + np.ascontiguousarray(arr, dtype="<f4" if code == 1 else "<f8").tobytes()


class TestBinaryRoundtrip:
    def test_float32_roundtrip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "series.dvpr"
        for _ in range(10):
            data = rng.normal(size=(10, 8)).astype(np.float32)
            series = DescriptorSeries(data)
            write_descriptors(path, series)
            loaded = read_descriptors(path)
            assert loaded.data.tobytes() == series.data.tobytes()

    def test_float64_roundtrip_is_exact(self, tmp_path):
        data = np.random.default_rng(1).normal(size=(7, 3))
        path = tmp_path / "series.dvpr"
        write_descriptors(path, DescriptorSeries(data), dtype="float64")
        np.testing.assert_array_equal(read_descriptors(path).data, data)

    def test_rewrite_is_byte_identical(self, tmp_path):
        series = DescriptorSeries(np.random.default_rng(2).normal(size=(5, 4)))
        a, b = tmp_path / "a.dvpr", tmp_path / "b.dvpr"
        write_descriptors(a, series)
        write_descriptors(b, series)
        assert a.read_bytes() == b.read_bytes()

    def test_minimal_file_layout(self, tmp_path):
        path = tmp_path / "one.dvpr"
        write_descriptors(path, DescriptorSeries(np.array([[1.5]])))
        raw = path.read_bytes()
        assert len(raw) == 28 + 4  # header + one float32
        magic, version, t, d, code = struct.unpack("<4sIQQI", raw[:28])
        assert magic == b"DVPR" and version == 1 and (t, d, code) == (1, 1, 1)
        assert struct.unpack("<f", raw[28:])[0] == 1.5

    def test_header_is_little_endian(self, tmp_path):
        path = tmp_path / "two.dvpr"
        write_descriptors(path, DescriptorSeries(np.zeros((3, 2))))
        assert path.read_bytes()[8:16] == (3).to_bytes(8, "little")


class TestBinaryErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dvpr"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(DataError, match="bad magic"):
            read_descriptors(path)

    def test_truncated_payload_names_counts(self, tmp_path):
        path = tmp_path / "trunc.dvpr"
        write_descriptors(path, DescriptorSeries(np.ones((4, 4))))
        whole = path.read_bytes()
        path.write_bytes(whole[:-8])
        with pytest.raises(DataError, match="expected 64 bytes, got 56"):
            read_descriptors(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.dvpr"
        path.write_bytes(b"DVPR\x01")
        with pytest.raises(DataError, match="truncated header"):
            read_descriptors(path)

    def test_write_rejects_an_unknown_dtype(self, tmp_path):
        path = tmp_path / "half.dvpr"
        with pytest.raises(ValueError, match="dtype must be 'float32' or 'float64', got 'float16'"):
            write_descriptors(path, DescriptorSeries(np.ones((2, 2))), dtype="float16")
        assert not path.exists()

    def test_unsupported_dtype_code(self, tmp_path):
        path = tmp_path / "odd.dvpr"
        path.write_bytes(struct.pack("<4sIQQI", b"DVPR", 1, 1, 1, 9) + bytes(4))
        with pytest.raises(DataError, match="unsupported dtype code 9"):
            read_descriptors(path)

    def test_non_finite_payload_reports_cell(self, tmp_path):
        path = tmp_path / "nan.dvpr"
        payload = np.array([[1.0, 2.0], [np.nan, 4.0]], dtype="<f4")
        path.write_bytes(struct.pack("<4sIQQI", b"DVPR", 1, 2, 2, 1) + payload.tobytes())
        with pytest.raises(DataError, match="row 1, column 0"):
            read_descriptors(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.dvpr"
        write_descriptors(path, DescriptorSeries(np.ones((2, 2))))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataError, match="trailing bytes"):
            read_descriptors(path)


class TestDescriptorShape:
    """``open_descriptors``: the shape on entry, then the series' row blocks from the same
    handle."""

    def test_container_shape_comes_from_the_header_alone(self, tmp_path):
        path = tmp_path / "head.dvpr"
        write_descriptors(path, DescriptorSeries(np.ones((7, 3))))
        path.write_bytes(path.read_bytes()[:28])  # no payload: entry never reads one
        with deltadesc.io.open_descriptors(path) as (shape, read):
            assert shape == (7, 3)
            with pytest.raises(DataError, match="truncated payload, expected 84 bytes, got 0"):
                next(read())

    def test_csv_table_is_parsed_and_checked_on_entry(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("d0,d1\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        with deltadesc.io.open_descriptors(path) as (shape, read):
            assert shape == (3, 2)
            path.unlink()  # parsed whole on entry, so the file is not read again
            (rows,) = read()
            np.testing.assert_array_equal(rows, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        bad = tmp_path / "nan.csv"
        bad.write_text("1.0,2.0\n3.0,nan\n")
        with pytest.raises(DataError, match="nan.csv: .*row 1, column 1"):
            with deltadesc.io.open_descriptors(bad):
                pytest.fail("a non-finite table was opened")

    def test_a_pipe_gives_its_shape_then_its_payload_from_one_open(self):
        # 160 kB, more than a pipe holds: the feeder blocks until the payload is read
        data = np.random.default_rng(3).normal(size=(200, 100))
        r, w = os.pipe()

        def feed():
            with open(w, "wb") as fh:
                fh.write(struct.pack("<4sIQQI", b"DVPR", 1, 200, 100, 2) + data.tobytes())

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            with deltadesc.io.open_descriptors(f"/dev/fd/{r}") as (shape, read):
                assert shape == (200, 100)
                # each block is valid until the next is read
                assert b"".join(block.tobytes() for block in read()) == data.tobytes()
        finally:
            feeder.join(timeout=30)
            os.close(r)
        assert not feeder.is_alive()

    @pytest.mark.parametrize("head, message", [
        (b"NOPE" + bytes(24), "bad magic"),
        (b"DVPR\x01", "truncated header, expected 28 bytes, got 5"),
        (struct.pack("<4sIQQI", b"DVPR", 2, 1, 1, 1), "unsupported format version 2"),
    ], ids=["bad-magic", "short-header", "format-version"])
    def test_bad_header_rejected(self, tmp_path, head, message):
        path = tmp_path / "bad.dvpr"
        path.write_bytes(head)
        with pytest.raises(DataError, match=message):
            with deltadesc.io.open_descriptors(path):
                pytest.fail("a bad header was opened")

    @pytest.mark.parametrize("exit_by", ["unread", "read", "raise"])
    def test_the_handle_is_closed_on_exit(self, tmp_path, monkeypatch, exit_by):
        path = tmp_path / "series.dvpr"
        write_descriptors(path, DescriptorSeries(np.ones((4, 2))))
        handles = []

        def open_and_keep(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(deltadesc.io, "open", open_and_keep, raising=False)
        with pytest.raises(RuntimeError) if exit_by == "raise" else nullcontext():
            with deltadesc.io.open_descriptors(path) as (shape, read):
                assert len(handles) == 1 and not handles[0].closed
                if exit_by == "read":
                    (rows,) = read()
                    np.testing.assert_array_equal(rows, np.ones(shape))
                if exit_by == "raise":
                    raise RuntimeError("the caller failed")
        assert len(handles) == 1 and handles[0].closed


class TestCsvDescriptors:
    def test_headerless_fixture(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.5,6.5\n")
        series = read_descriptors(path)
        assert series.frame_count == 3 and series.dim == 2
        np.testing.assert_array_equal(series.data, [[1.0, 2.0], [3.0, 4.0], [5.5, 6.5]])

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "headered.csv"
        path.write_text("d0,d1\n1.0,2.0\n3.0,4.0\n")
        assert read_descriptors(path).frame_count == 2

    def test_garbage_csv_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\nc,d\n")
        with pytest.raises(DataError):
            read_descriptors(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_path_and_cell(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"1.0,2.0\n3.0,{bad}\n")
        with pytest.raises(DataError, match=r"bad\.csv: non-finite .* row 1, column 1"):
            read_descriptors(path)

    def test_positions_need_two_columns(self, tmp_path):
        path = tmp_path / "pos.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="2 columns"):
            read_positions(path)


class TestGroundTruthCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "gt.csv"
        gt = GroundTruth([4, 2, 0, 1], radius_mode="frames", radius=0.0)
        write_ground_truth(path, gt)
        assert path.read_text().splitlines()[0] == "query_idx,ref_idx"
        loaded = read_ground_truth(path, radius_mode="meters", radius=3.0)
        np.testing.assert_array_equal(loaded.pairs, gt.pairs)
        assert loaded.radius_mode == "meters" and loaded.radius == 3.0

    def test_incomplete_queries_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("query_idx,ref_idx\n0,1\n2,3\n")
        with pytest.raises(DataError, match="cover 0..1"):
            read_ground_truth(path)

    def test_file_layout(self, tmp_path):
        path = tmp_path / "gt.csv"
        write_ground_truth(path, GroundTruth([4, 2, 0, 1]))
        assert path.read_bytes() == b"query_idx,ref_idx\n0,4\n1,2\n2,0\n3,1\n"

    def test_three_columns_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("query_idx,ref_idx,extra\n0,1,5\n1,0,5\n")
        with pytest.raises(DataError, match=r"gt\.csv: ground truth needs two columns"):
            read_ground_truth(path)

    def test_unparsable_cell_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("query_idx,ref_idx\n0,1\n1,x\n")
        with pytest.raises(DataError, match=r"gt\.csv: cannot parse ground-truth CSV \("):
            read_ground_truth(path)


class TestMatchCsv:
    def test_roundtrip_with_and_without_correct(self, tmp_path):
        matches = MatchSet(ref_indices=[3, 1], distances=[0.25, 0.5])
        bare = tmp_path / "m.csv"
        write_matches_csv(bare, matches)
        assert bare.read_text().splitlines()[0] == "query_idx,ref_idx,distance"
        loaded = read_matches_csv(bare)
        np.testing.assert_array_equal(loaded.ref_indices, matches.ref_indices)
        np.testing.assert_array_equal(loaded.distances, matches.distances)

        flagged = tmp_path / "mc.csv"
        write_matches_csv(flagged, matches, correct=np.array([True, False]))
        lines = flagged.read_text().splitlines()
        assert lines[0] == "query_idx,ref_idx,distance,correct"
        assert lines[1].endswith(",1") and lines[2].endswith(",0")
        loaded = read_matches_csv(flagged)  # correctness column ignored on read
        np.testing.assert_array_equal(loaded.distances, matches.distances)

    def test_file_layout_with_and_without_correct(self, tmp_path):
        matches = MatchSet(ref_indices=[3, 1, 0], distances=[0.25, 0.1 + 0.2, 1e-20])
        path = tmp_path / "m.csv"
        write_matches_csv(path, matches)
        assert path.read_bytes() == (
            b"query_idx,ref_idx,distance\n0,3,0.25\n1,1,0.30000000000000004\n2,0,1e-20\n"
        )
        write_matches_csv(path, matches, correct=np.array([True, False, True]))
        assert path.read_bytes() == (
            b"query_idx,ref_idx,distance,correct\n"
            b"0,3,0.25,1\n1,1,0.30000000000000004,0\n2,0,1e-20,1\n"
        )

    def test_two_columns_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("query_idx,ref_idx\n0,1\n1,0\n")
        with pytest.raises(DataError, match=r"m\.csv: match CSV needs query_idx, ref_idx, dist"):
            read_matches_csv(path)

    def test_unparsable_cell_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("query_idx,ref_idx,distance\n0,1,0.5\n1,0,near\n")
        with pytest.raises(DataError, match=r"m\.csv: cannot parse match CSV \("):
            read_matches_csv(path)


class TestEmptyCsv:
    """A CSV with no data row is one data error that names the file; numpy says nothing."""

    @pytest.mark.parametrize("text", ["query_idx,ref_idx\n", ""], ids=["header-only", "empty"])
    @pytest.mark.parametrize("read", [read_ground_truth, read_matches_csv, read_descriptors])
    def test_no_rows_rejected_without_a_warning(self, tmp_path, recwarn, read, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=r"t\.csv: .*CSV.* has no rows$"):
            read(path)
        assert [str(w.message) for w in recwarn] == []


class TestCurveAndProfileCsv:
    def test_pr_csv_layout(self, tmp_path):
        curve = PrCurve(
            thresholds=np.array([0.1, 0.2]),
            precisions=np.array([1.0, 0.5]),
            recalls=np.array([0.5, 0.5]),
            correct_total=1,
            query_count=2,
        )
        path = tmp_path / "pr.csv"
        write_pr_csv(path, curve)
        assert path.read_text() == "threshold,precision,recall\n0.1,1.0,0.5\n0.2,0.5,0.5\n"

    def test_profile_csv_layout(self, tmp_path):
        profile = SelfDistanceProfile(np.array([1, 2]), np.array([0.25, 0.75]))
        path = tmp_path / "profile.csv"
        write_profile_csv(path, profile)
        assert path.read_text() == "offset,median_distance\n1,0.25\n2,0.75\n"

    def test_dimension_ranking_csv_layout(self, tmp_path):
        path = tmp_path / "dims.csv"
        write_dimension_ranking_csv(path, np.array([2, 0]), np.array([0.5, -0.25, 1.0]))
        assert path.read_bytes() == b"rank,dimension,median_product\n0,2,1.0\n1,0,0.5\n"


class TestSummaryJson:
    def test_fixed_keys_in_order(self, tmp_path):
        path = tmp_path / "summary.json"
        summary = {
            "precision_at_full_recall": 0.5,
            "max_f1": 2 / 3,
            "radius": 2.0,
            "radius_mode": "frames",
            "transform": "delta",
            "window": 16,
            "seqmatch_length": 8,
            "pca_k": None,
        }
        write_summary_json(path, summary)
        loaded = json.loads(path.read_text())
        assert list(loaded.keys()) == list(summary.keys())
        assert loaded["pca_k"] is None
        assert loaded["max_f1"] == pytest.approx(2 / 3)


class TestDistanceMatrixIo:
    def test_roundtrip(self, tmp_path):
        values = np.random.default_rng(3).uniform(0, 2, size=(4, 6))
        path = tmp_path / "dist.dvpr"
        write_distance_matrix(path, DistanceMatrix(values))
        np.testing.assert_array_equal(read_distance_matrix(path).values, values)


class TestPcaModelIo:
    def test_roundtrip_preserves_model_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        model = pca_fit(DescriptorSeries(rng.normal(size=(30, 8))), 5)
        path = tmp_path / "model.bin"
        save_pca_model(path, model)
        loaded = load_pca_model(path)
        np.testing.assert_array_equal(loaded.mean, model.mean)
        np.testing.assert_array_equal(loaded.components, model.components)
        np.testing.assert_array_equal(loaded.explained_variance, model.explained_variance)

    def test_truncated_model_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        model = pca_fit(DescriptorSeries(rng.normal(size=(10, 4))), 2)
        path = tmp_path / "model.bin"
        save_pca_model(path, model)
        path.write_bytes(path.read_bytes()[:60])
        with pytest.raises(DataError):
            load_pca_model(path)


class TestStreamedBlocks:
    """Blocks are read and written CHUNK_BYTES at a time; a small chunk splits rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.integers(1, 40),
        dim=st.integers(1, 12),
        dtype=st.sampled_from(["float32", "float64"]),
        # a few values per chunk, so that rows straddle chunks on the way in
        chunk=st.sampled_from([8, 24, 40, 136]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_is_bitwise_and_files_match_oracle(
        self, tmp_path_factory, frames, dim, dtype, chunk, seed
    ):
        data = np.random.default_rng(seed).normal(size=(frames, dim)) * 1e3
        path = tmp_path_factory.mktemp("blocks") / "series.dvpr"
        with mock.patch.object(deltadesc.io, "CHUNK_BYTES", chunk):
            write_descriptors(path, DescriptorSeries(data), dtype=dtype)
            loaded = read_descriptors(path).data
        assert path.read_bytes() == oracle_block(data, dtype)
        expected = data.astype(np.float32).astype(np.float64) if dtype == "float32" else data
        assert loaded.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [24, 2**20])
    def test_model_and_distance_files_match_oracle(self, tmp_path, chunk):
        rng = np.random.default_rng(6)
        model = pca_fit(DescriptorSeries(rng.normal(size=(40, 9))), 4)
        values = rng.uniform(0, 2, size=(5, 7))
        with mock.patch.object(deltadesc.io, "CHUNK_BYTES", chunk):
            save_pca_model(tmp_path / "model.bin", model)
            write_distance_matrix(tmp_path / "dist.dvpr", DistanceMatrix(values))
            loaded = load_pca_model(tmp_path / "model.bin")
            dist = read_distance_matrix(tmp_path / "dist.dvpr").values
        assert (tmp_path / "model.bin").read_bytes() == b"".join([
            oracle_block(model.mean.reshape(1, -1), "float64"),
            oracle_block(model.components, "float64"),
            oracle_block(model.explained_variance.reshape(1, -1), "float64"),
        ])
        assert (tmp_path / "dist.dvpr").read_bytes() == oracle_block(values, "float64")
        assert loaded.components.tobytes() == model.components.tobytes()
        assert dist.tobytes() == values.tobytes()

    @pytest.mark.parametrize("cut", [1, 6, 8, 30, 63])
    def test_payload_cut_mid_chunk_names_counts(self, tmp_path, cut):
        path = tmp_path / "trunc.dvpr"
        write_descriptors(path, DescriptorSeries(np.ones((4, 4))))
        path.write_bytes(path.read_bytes()[: 28 + 64 - cut])
        with mock.patch.object(deltadesc.io, "CHUNK_BYTES", 16):
            with pytest.raises(DataError, match=f"expected 64 bytes, got {64 - cut}$"):
                read_descriptors(path)

    # past numpy's largest array, and past any machine's memory
    @pytest.mark.parametrize("frames", [2**40, 2**22])
    def test_header_claiming_more_than_memory_is_truncated(self, tmp_path, frames):
        path = tmp_path / "huge.dvpr"
        path.write_bytes(struct.pack("<4sIQQI", b"DVPR", 1, frames, 2**20, 1) + bytes(12))
        with pytest.raises(DataError, match=f"expected {frames * 2**22} bytes, got 12$"):
            read_descriptors(path)

    def test_model_with_trailing_bytes_rejected(self, tmp_path):
        model = pca_fit(DescriptorSeries(np.random.default_rng(7).normal(size=(10, 4))), 2)
        path = tmp_path / "model.bin"
        save_pca_model(path, model)
        path.write_bytes(path.read_bytes() + bytes(3))
        with pytest.raises(DataError, match="3 trailing bytes after model blocks"):
            load_pca_model(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_from_a_pipe(self, tmp_path):
        # 2.4 MB: each chunk is larger than a pipe holds, so it takes several reads
        data = np.random.default_rng(8).normal(size=(2000, 300))
        source = tmp_path / "series.dvpr"
        write_descriptors(source, DescriptorSeries(data))
        pipe = tmp_path / "pipe.dvpr"
        os.mkfifo(pipe)
        feeder = threading.Thread(
            target=lambda: pipe.write_bytes(source.read_bytes()), daemon=True
        )
        feeder.start()
        try:
            loaded = read_descriptors(pipe)
        finally:
            feeder.join(timeout=30)
        assert not feeder.is_alive()
        assert loaded.data.tobytes() == read_descriptors(source).data.tobytes()
