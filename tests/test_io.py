import json
import struct

import numpy as np
import pytest

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
    write_distance_matrix,
    write_ground_truth,
    write_matches_csv,
    write_pr_csv,
    write_profile_csv,
    write_summary_json,
)


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
