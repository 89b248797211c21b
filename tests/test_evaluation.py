import numpy as np
import pytest

from deltadesc import (
    DescriptorSeries,
    GroundTruth,
    MatchSet,
    PrCurve,
    correct_matches,
    evaluate_pr,
    max_f1,
    median_pair_products,
    precision_at_full_recall,
    rank_dimensions,
)


def hand_case():
    """Four queries: two correct at distances 0.1/0.2, two wrong at 0.3/0.4."""
    matches = MatchSet(ref_indices=[0, 1, 7, 9], distances=[0.1, 0.2, 0.3, 0.4])
    gt = GroundTruth([0, 1, 2, 3], radius_mode="frames", radius=2.0)
    return matches, gt


class TestEvaluatePr:
    def test_all_correct(self):
        matches = MatchSet(ref_indices=[0, 1, 2], distances=[0.3, 0.1, 0.2])
        gt = GroundTruth([0, 1, 2], radius=0.0)
        curve = evaluate_pr(matches, gt)
        np.testing.assert_array_equal(curve.precisions, 1.0)
        assert curve.recalls[-1] == 1.0
        assert precision_at_full_recall(curve) == 1.0

    def test_four_query_hand_sweep(self):
        curve = evaluate_pr(*hand_case())
        np.testing.assert_array_equal(curve.thresholds, [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(curve.precisions, [1.0, 1.0, 2 / 3, 0.5])
        np.testing.assert_array_equal(curve.recalls, [0.25, 0.5, 0.5, 0.5])
        assert precision_at_full_recall(curve) == 0.5
        assert max_f1(curve) == 2 / 3

    def test_tied_distances_collapse_to_one_point(self):
        matches = MatchSet(ref_indices=[0, 5], distances=[0.3, 0.3])
        gt = GroundTruth([0, 1], radius=1.0)
        curve = evaluate_pr(matches, gt)
        np.testing.assert_array_equal(curve.thresholds, [0.3])
        np.testing.assert_array_equal(curve.precisions, [0.5])
        np.testing.assert_array_equal(curve.recalls, [0.5])

    def test_meters_mode(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        matches = MatchSet(ref_indices=[1, 3], distances=[0.1, 0.2])
        gt = GroundTruth([0, 3], radius_mode="meters", radius=12.0)
        curve = evaluate_pr(matches, gt, ref_positions=positions)
        # query 0 matched 10 m from truth (inside), query 1 matched exactly
        assert curve.correct_total == 2
        tight = GroundTruth([0, 3], radius_mode="meters", radius=5.0)
        assert evaluate_pr(matches, tight, ref_positions=positions).correct_total == 1

    def test_meters_mode_requires_positions(self):
        matches = MatchSet(ref_indices=[0], distances=[0.1])
        gt = GroundTruth([0], radius_mode="meters", radius=1.0)
        with pytest.raises(ValueError, match="requires reference positions"):
            evaluate_pr(matches, gt)

    def test_query_count_mismatch(self):
        matches = MatchSet(ref_indices=[0, 1], distances=[0.1, 0.2])
        with pytest.raises(ValueError, match="queries"):
            evaluate_pr(matches, GroundTruth([0]))

    def test_valid_range_restriction(self):
        matches = MatchSet(ref_indices=[9, 1, 2, 9], distances=[0.1, 0.2, 0.3, 0.4])
        gt = GroundTruth([0, 1, 2, 3], radius=0.0)
        full = evaluate_pr(matches, gt)
        inner = evaluate_pr(matches, gt, query_valid_range=(1, 3))
        assert precision_at_full_recall(full) == 0.5
        assert precision_at_full_recall(inner) == 1.0
        assert inner.query_count == 2

    def test_recall_monotone_and_summary_oracle_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = int(rng.integers(1, 40))
            r = int(rng.integers(1, 40))
            matches = MatchSet(
                ref_indices=rng.integers(0, r, size=q),
                distances=rng.uniform(0, 2, size=q),
            )
            gt = GroundTruth(rng.integers(0, r, size=q), radius=float(rng.integers(0, 3)))
            curve = evaluate_pr(matches, gt)
            assert np.all(np.diff(curve.recalls) >= 0)
            assert np.all((curve.precisions >= 0) & (curve.precisions <= 1))
            assert np.all((curve.recalls >= 0) & (curve.recalls <= 1))
            independent = np.sum(np.abs(matches.ref_indices - gt.pairs) <= gt.radius) / q
            assert precision_at_full_recall(curve) == independent

    def test_invariant_under_monotone_distance_transform(self):
        rng = np.random.default_rng(1)
        distances = rng.uniform(0, 1, size=25)
        idx = rng.integers(0, 30, size=25)
        gt = GroundTruth(rng.integers(0, 30, size=25), radius=1.0)
        base = evaluate_pr(MatchSet(idx, distances), gt)
        warped = evaluate_pr(MatchSet(idx, np.sqrt(distances) * 1.7), gt)
        np.testing.assert_array_equal(base.precisions, warped.precisions)
        np.testing.assert_array_equal(base.recalls, warped.recalls)


class TestSummaries:
    def test_precision_at_full_recall_counts(self):
        matches = MatchSet(ref_indices=[0, 1, 2, 9], distances=[0.1, 0.2, 0.3, 0.4])
        gt = GroundTruth([0, 1, 2, 3], radius=0.0)
        assert precision_at_full_recall(evaluate_pr(matches, gt)) == 0.75

    def test_max_f1_single_point(self):
        curve = PrCurve(
            thresholds=np.array([0.5]),
            precisions=np.array([1.0]),
            recalls=np.array([0.5]),
            correct_total=1,
            query_count=2,
        )
        assert max_f1(curve) == pytest.approx(2 / 3)

    def test_max_f1_zero_when_nothing_works(self):
        curve = PrCurve(
            thresholds=np.array([0.5]),
            precisions=np.array([0.0]),
            recalls=np.array([0.0]),
            correct_total=0,
            query_count=3,
        )
        assert max_f1(curve) == 0.0


class TestRankDimensions:
    def test_one_hot_dimension_wins(self):
        rows = np.zeros((5, 4))
        rows[:, 0] = 1.0
        series = DescriptorSeries(rows)
        gt = GroundTruth(np.arange(5))
        order = rank_dimensions(median_pair_products(series, series, gt), 1)
        assert order[0] == 0

    def test_median_tie_breaks_to_lower_index(self):
        # pair products per dimension: [1, 3] and [2, 0] -> medians [1.5, 1.5]
        query = DescriptorSeries(np.array([[1.0, 3.0], [2.0, 0.0]]))
        ref = DescriptorSeries(np.array([[1.0, 1.0], [1.0, 1.0]]))
        gt = GroundTruth([0, 1])
        products = query.data * ref.data[gt.pairs]
        np.testing.assert_array_equal(np.median(products, axis=0), [1.5, 1.5])
        np.testing.assert_array_equal(
            rank_dimensions(median_pair_products(ref, query, gt), 2), [0, 1]
        )

    def test_full_ranking_against_direct_median(self):
        rng = np.random.default_rng(2)
        ref = DescriptorSeries(rng.normal(size=(30, 10)))
        query = DescriptorSeries(rng.normal(size=(30, 10)))
        gt = GroundTruth(rng.integers(0, 30, size=30))
        order = rank_dimensions(median_pair_products(ref, query, gt), 10)
        medians = np.median(query.data * ref.data[gt.pairs], axis=0)
        assert np.all(np.diff(medians[order]) <= 0)
        assert sorted(order) == list(range(10))

    def test_top_k_bounds(self):
        series = DescriptorSeries(np.ones((3, 4)))
        gt = GroundTruth([0, 1, 2])
        with pytest.raises(ValueError):
            rank_dimensions(median_pair_products(series, series, gt), 5)
        with pytest.raises(ValueError):
            rank_dimensions(median_pair_products(series, series, gt), 0)


class TestMedianPairProducts:
    def test_rank_dimensions_is_stable_argsort_of_medians(self):
        rng = np.random.default_rng(3)
        ref = DescriptorSeries(rng.normal(size=(20, 6)))
        query = DescriptorSeries(rng.normal(size=(20, 6)))
        gt = GroundTruth(rng.integers(0, 20, size=20))
        medians = median_pair_products(ref, query, gt)
        np.testing.assert_array_equal(
            rank_dimensions(medians, 6), np.argsort(-medians, kind="stable")
        )

    def test_short_ground_truth_does_not_broadcast(self):
        # one true pair against ten query frames would broadcast to a 10 x D product
        rng = np.random.default_rng(4)
        ref = DescriptorSeries(rng.normal(size=(10, 3)))
        query = DescriptorSeries(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError, match="ground truth covers 1 queries, expected 10"):
            median_pair_products(ref, query, GroundTruth([5]))

    def test_dimension_mismatch(self):
        series = DescriptorSeries(np.ones((3, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            median_pair_products(series, DescriptorSeries(np.ones((3, 4))), GroundTruth([0, 1, 2]))


class TestRejectedInputs:
    def test_empty_valid_range(self):
        matches, gt = hand_case()
        with pytest.raises(ValueError, match=r"query_valid_range \(2, 2\) selects no queries"):
            evaluate_pr(matches, gt, query_valid_range=(2, 2))

    @pytest.mark.parametrize("indices, positions, message", [
        ([0, 1], np.zeros((4, 3)), r"reference positions must be R x 2, got shape \(4, 3\)"),
        ([0, 7], np.zeros((4, 2)), "match index out of range for the given positions"),
    ], ids=["positions-not-r-by-2", "match-beyond-positions"])
    def test_meters_mode_positions(self, indices, positions, message):
        matches = MatchSet(indices, [0.1, 0.2])
        gt = GroundTruth([0, 1], radius_mode="meters", radius=5.0)
        with pytest.raises(ValueError, match=message):
            correct_matches(matches, gt, positions)


class TestCorrectMatches:
    def test_frames_radius(self):
        matches = MatchSet(ref_indices=[0, 3, 6], distances=[0.1, 0.1, 0.1])
        gt = GroundTruth([0, 1, 2], radius=2.0)
        np.testing.assert_array_equal(correct_matches(matches, gt), [True, True, False])
