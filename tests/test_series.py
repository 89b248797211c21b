import numpy as np
import pytest

import deltadesc.series
from deltadesc import (
    VALID_ONLY,
    DeltaConfig,
    DescriptorSeries,
    GroundTruth,
    apply_permutation,
    cosine_distance,
    delta,
    pca_fit,
    pca_transform,
    read_descriptors,
    smooth,
    write_descriptors,
)


def test_cosine_distance_matches_normalized_euclidean():
    # cosine distance equals half the squared Euclidean gap between unit rows
    rng = np.random.default_rng(5)
    a = rng.normal(size=(30, 8))
    b = rng.normal(size=(30, 8))
    na = a / np.linalg.norm(a, axis=1, keepdims=True)
    nb = b / np.linalg.norm(b, axis=1, keepdims=True)
    for i in range(30):
        cos = cosine_distance(a[i], b[i])
        half_sq = 0.5 * np.sum((na[i] - nb[i]) ** 2)
        assert abs(cos - half_sq) <= 1e-9


class TestDescriptorSeries:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DescriptorSeries(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            DescriptorSeries(np.zeros(4))

    def test_rejects_non_finite(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="row 1, column 1"):
            DescriptorSeries(bad)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinities(self, bad):
        data = np.ones((3, 2))
        data[2, 0] = bad
        with pytest.raises(ValueError, match="row 2, column 0"):
            DescriptorSeries(data)

    def test_data_is_immutable(self):
        series = DescriptorSeries(np.ones((2, 2)))
        with pytest.raises(ValueError):
            series.data[0, 0] = 5.0


def _read_back(series, path):
    if path.suffix == ".csv":
        np.savetxt(path, series.data, delimiter=",")
    else:
        write_descriptors(path, series)
    return read_descriptors(path)


PRODUCERS = {
    "read_descriptors-binary": lambda s, model, tmp: _read_back(s, tmp / "s.dvpr"),
    "read_descriptors-csv": lambda s, model, tmp: _read_back(s, tmp / "s.csv"),
    "delta": lambda s, model, tmp: delta(s, DeltaConfig(window=3)),
    "delta-valid-only": lambda s, model, tmp: delta(s, DeltaConfig(3, padding=VALID_ONLY)),
    "smooth": lambda s, model, tmp: smooth(s, 4),
    "pca_transform": lambda s, model, tmp: pca_transform(model, s),
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_producers_hand_over_their_result(name, tmp_path, monkeypatch):
    series = DescriptorSeries(np.random.default_rng(6).normal(size=(20, 5)))
    model = pca_fit(series, 3)
    handed = []
    freeze = deltadesc.series._freeze

    def spy(arr, dtype=np.float64):
        handed.append(arr)
        return freeze(arr, dtype)

    monkeypatch.setattr(deltadesc.series, "_freeze", spy)
    data = PRODUCERS[name](series, model, tmp_path).data
    assert data.flags.owndata and not data.flags.writeable
    # the series holds the very array the producer handed over: no copy was made
    assert any(arr is data for arr in handed)


class TestGroundTruth:
    def test_basic(self):
        gt = GroundTruth([0, 1, 2], radius_mode="frames", radius=2.0)
        assert gt.query_count == 3
        gt.check_reference(3)
        with pytest.raises(ValueError):
            gt.check_reference(2)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            GroundTruth([-1, 0])
        with pytest.raises(ValueError):
            GroundTruth([0, 1], radius_mode="pixels")
        with pytest.raises(ValueError):
            GroundTruth([0, 1], radius=-1.0)

    @pytest.mark.parametrize("pairs, radius, message", [
        ([], 0.0, "one reference index per query"),
        ([0, 1], np.nan, "radius must be finite and non-negative, got nan"),
        ([0, 1], np.inf, "radius must be finite and non-negative, got inf"),
    ], ids=["empty", "nan-radius", "inf-radius"])
    def test_rejects_with_a_message(self, pairs, radius, message):
        with pytest.raises(ValueError, match=message):
            GroundTruth(np.array(pairs, dtype=np.int64), radius=radius)


def _first_seed_with_permutation(size, wanted):
    for seed in range(5000):
        if tuple(np.random.default_rng(seed).permutation(size)) == wanted:
            return seed
    raise AssertionError(f"no small seed yields permutation {wanted}")


class TestApplyPermutation:
    def test_identity_permutation_is_noop(self):
        seed = _first_seed_with_permutation(3, (0, 1, 2))
        rng = np.random.default_rng(10)
        ref = DescriptorSeries(rng.normal(size=(3, 4)))
        query = DescriptorSeries(rng.normal(size=(3, 4)))
        gt = GroundTruth([0, 1, 2])
        s_ref, s_query, s_gt = apply_permutation(ref, query, gt, seed)
        np.testing.assert_array_equal(s_ref.data, ref.data)
        np.testing.assert_array_equal(s_query.data, query.data)
        np.testing.assert_array_equal(s_gt.pairs, gt.pairs)

    def test_hand_traced_remap(self):
        # permutation (2, 0, 1): new row i holds old row perm[i], so the
        # gt pair (q=0 -> r=0) must become (q'=1 -> r'=1)
        seed = _first_seed_with_permutation(3, (2, 0, 1))
        ref = DescriptorSeries(np.arange(6, dtype=float).reshape(3, 2))
        query = DescriptorSeries(np.arange(6, 12, dtype=float).reshape(3, 2))
        gt = GroundTruth([0, 2, 1])
        s_ref, s_query, s_gt = apply_permutation(ref, query, gt, seed)
        np.testing.assert_array_equal(s_ref.data, ref.data[[2, 0, 1]])
        assert s_gt.pairs[1] == 1

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        ref = DescriptorSeries(rng.normal(size=(20, 5)))
        query = DescriptorSeries(rng.normal(size=(20, 5)))
        gt = GroundTruth(np.arange(20))
        first = apply_permutation(ref, query, gt, 42)
        second = apply_permutation(ref, query, gt, 42)
        np.testing.assert_array_equal(first[0].data, second[0].data)
        np.testing.assert_array_equal(first[1].data, second[1].data)
        np.testing.assert_array_equal(first[2].pairs, second[2].pairs)

    def test_preserves_row_multiset_and_inverts(self):
        rng = np.random.default_rng(12)
        ref = DescriptorSeries(rng.normal(size=(15, 3)))
        query = DescriptorSeries(rng.normal(size=(15, 3)))
        gt = GroundTruth(rng.integers(0, 15, size=15))
        s_ref, s_query, s_gt = apply_permutation(ref, query, gt, 7)
        np.testing.assert_array_equal(
            np.sort(s_ref.data, axis=0), np.sort(ref.data, axis=0)
        )
        perm = np.random.default_rng(7).permutation(15)
        np.testing.assert_array_equal(s_ref.data[np.argsort(perm)][perm], s_ref.data)
        np.testing.assert_array_equal(s_query.data, query.data[perm])
        # undo: old row j sits at new index inverse[j]
        inverse = np.argsort(perm)
        np.testing.assert_array_equal(s_ref.data[inverse], ref.data)
        np.testing.assert_array_equal(perm[s_gt.pairs[inverse]], gt.pairs)

    def test_correspondence_preserved(self):
        # matching the shuffled pair still pairs the same underlying rows
        rng = np.random.default_rng(13)
        base = rng.normal(size=(12, 6))
        ref = DescriptorSeries(base)
        query = DescriptorSeries(base.copy())
        gt = GroundTruth(np.arange(12))
        s_ref, s_query, s_gt = apply_permutation(ref, query, gt, 99)
        np.testing.assert_array_equal(s_query.data, s_ref.data)
        np.testing.assert_array_equal(s_gt.pairs, np.arange(12))

    def test_length_mismatch_rejected(self):
        ref = DescriptorSeries(np.ones((3, 2)))
        query = DescriptorSeries(np.ones((4, 2)))
        with pytest.raises(ValueError, match="equal frame counts"):
            apply_permutation(ref, query, GroundTruth([0, 0, 0, 0]), 1)
