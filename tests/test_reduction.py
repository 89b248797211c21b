from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltadesc.reduction
from deltadesc import DescriptorSeries, PcaModel, pca_fit, pca_transform
from deltadesc.reduction import project_rows

INV_SQRT2 = 1.0 / np.sqrt(2.0)
EPS = np.finfo(np.float64).eps
KINDS = ("gaussian", "rank-deficient", "constant-columns", "large-offset")


def line_series(n=12, seed=0):
    # points exactly on y = x
    t = np.random.default_rng(seed).normal(size=n)
    return DescriptorSeries(np.column_stack([t, t])), t


class TestPcaFit:
    def test_line_case(self):
        series, _ = line_series()
        model = pca_fit(series, 1)
        np.testing.assert_allclose(model.components[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-12)
        full = pca_fit(series, 2)
        assert full.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_sign_convention_is_positive(self):
        rng = np.random.default_rng(1)
        series = DescriptorSeries(rng.normal(size=(30, 6)))
        model = pca_fit(series, 6)
        peaks = model.components[
            np.argmax(np.abs(model.components), axis=0), np.arange(6)
        ]
        assert np.all(peaks > 0)

    def test_total_variance_preserved_at_full_rank(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(40, 5)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5])
        series = DescriptorSeries(data)
        model = pca_fit(series, 5)
        total = np.var(data - data.mean(axis=0), axis=0, ddof=1).sum()
        assert model.explained_variance.sum() == pytest.approx(total, abs=1e-8)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(3)
        model = pca_fit(DescriptorSeries(rng.normal(size=(25, 8))), 4)
        gram = model.components.T @ model.components
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(20, 5))
        model_a = pca_fit(DescriptorSeries(data), 3)
        model_b = pca_fit(DescriptorSeries(data[rng.permutation(20)]), 3)
        np.testing.assert_allclose(model_a.mean, model_b.mean, atol=1e-9)
        np.testing.assert_allclose(model_a.components, model_b.components, atol=1e-9)
        np.testing.assert_allclose(
            model_a.explained_variance, model_b.explained_variance, atol=1e-9
        )

    def test_parameter_validation(self):
        series = DescriptorSeries(np.random.default_rng(5).normal(size=(10, 4)))
        with pytest.raises(ValueError):
            pca_fit(series, 0)
        with pytest.raises(ValueError):
            pca_fit(series, 5)
        with pytest.raises(ValueError):
            pca_fit(DescriptorSeries(np.ones((1, 4))), 1)


def svd_oracle(data):
    """Variances and components (as rows) from the thin SVD of the centered rows."""
    centered = data - data.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    return singular**2 / (len(data) - 1), vt


def make_data(kind, t_count, dim, rng):
    data = rng.normal(size=(t_count, dim)) * rng.uniform(0.1, 10.0, size=dim)
    if kind == "rank-deficient":
        rank = int(rng.integers(1, min(t_count, dim) + 1))
        data = rng.normal(size=(t_count, rank)) @ rng.normal(size=(rank, dim))
    elif kind == "constant-columns":
        cols = rng.random(dim) < 0.5
        data[:, cols] = rng.normal(size=cols.sum())
    elif kind == "large-offset":
        data = 1e6 + 1e4 * rng.normal(size=(t_count, dim))
    return data


def check_against_svd(data, k):
    """pca_fit agrees with the SVD oracle up to the round-off of forming a Gram matrix.

    The Gram matrix squares the condition number, so variances may differ by
    about eps * lambda_1 * max(T, D); by Davis-Kahan, the top-j projectors then
    differ by at most that error over the eigengap below j, and are compared
    only where that bound resolves the subspace.
    """
    t_count, dim = data.shape
    model = pca_fit(DescriptorSeries(data), k)
    components = model.components
    np.testing.assert_allclose(components.T @ components, np.eye(k), rtol=0, atol=1e-12)
    peaks = components[np.argmax(np.abs(components), axis=0), np.arange(k)]
    assert np.all(peaks > 0)
    variance, vt = svd_oracle(data)
    tol = 16 * EPS * variance[0] * max(t_count, dim)
    np.testing.assert_allclose(model.explained_variance, variance[:k], rtol=0, atol=tol)
    below = np.append(variance, 0.0)  # past the last singular value the variance is 0
    for j in range(1, k + 1):
        gap = below[j - 1] - below[j]
        if gap > 1e3 * tol:
            got = components[:, :j] @ components[:, :j].T
            expected = vt[:j].T @ vt[:j]
            assert np.linalg.norm(got - expected, 2) <= tol / gap


class TestPcaOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        shape=st.sampled_from(["tall", "square", "wide"]),
        small=st.integers(min_value=1, max_value=10),
        extra=st.integers(min_value=1, max_value=8),
        kind=st.sampled_from(KINDS),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_svd(self, shape, small, extra, kind, data, seed):
        t_count, dim = {
            "tall": (small + extra, small),
            "square": (max(small, 2), max(small, 2)),
            "wide": (max(small, 2), max(small, 2) + extra),
        }[shape]
        k = data.draw(st.integers(min_value=1, max_value=min(t_count, dim)))
        check_against_svd(make_data(kind, t_count, dim, np.random.default_rng(seed)), k)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("t_count, dim", [(3, 5), (6, 10), (40, 200)])
    def test_all_components_below_dim_are_orthonormal(self, t_count, dim, kind):
        # centering leaves rank <= T - 1, so component T has no direction to map back
        check_against_svd(make_data(kind, t_count, dim, np.random.default_rng(t_count)), t_count)

    def test_large_offset_tail_is_round_off(self):
        data = make_data("large-offset", 60, 8, np.random.default_rng(6))
        data[:, 1] = data[:, 0]  # exact rank deficiency: the last variance is 0
        check_against_svd(data, 8)


class TestPcaTransform:
    def test_distances_preserved_at_full_rank(self):
        rng = np.random.default_rng(7)
        series = DescriptorSeries(rng.normal(size=(20, 6)))
        model = pca_fit(series, 6)
        z = pca_transform(model, series).data
        for i in range(0, 20, 3):
            for j in range(0, 20, 4):
                before = np.linalg.norm(series.data[i] - series.data[j])
                after = np.linalg.norm(z[i] - z[j])
                assert after == pytest.approx(before, abs=1e-6)

    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(8)
        series = DescriptorSeries(rng.normal(size=(15, 4)))
        model = pca_fit(series, 3)
        out = pca_transform(model, DescriptorSeries(model.mean[None, :]))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_line_projection_gives_signed_arclength(self):
        series, t = line_series()
        model = pca_fit(series, 1)
        coords = pca_transform(model, series).data.ravel()
        expected = (t - t.mean()) * np.sqrt(2.0)
        np.testing.assert_allclose(coords, expected, atol=1e-9)

    def test_round_trip_at_full_rank(self):
        rng = np.random.default_rng(9)
        series = DescriptorSeries(rng.normal(size=(30, 5)))
        model = pca_fit(series, 5)
        z = pca_transform(model, series).data
        recovered = z @ model.components.T + model.mean
        np.testing.assert_allclose(recovered, series.data, atol=1e-6)

    def test_projection_idempotent_in_subspace(self):
        rng = np.random.default_rng(10)
        series = DescriptorSeries(rng.normal(size=(30, 6)))
        model = pca_fit(series, 3)
        z = pca_transform(model, series).data
        reconstructed = DescriptorSeries(z @ model.components.T + model.mean)
        z_again = pca_transform(model, reconstructed).data
        np.testing.assert_allclose(z_again, z, atol=1e-9)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        model = pca_fit(DescriptorSeries(rng.normal(size=(10, 4))), 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pca_transform(model, DescriptorSeries(np.ones((3, 5))))


    @pytest.mark.parametrize("dim, k, frames, blocks", [
        (2048, 128, 3 * 64 + 2, [64, 64, 66]),  # 4 rows are the fewest past 100³ multiply-adds
        (512, 64, 2 * 64 + 20, [64, 84]),  # and 31 rows here
        (24, 6, 300, [300]),  # the whole product is below the bound: one block
    ])
    def test_a_streamed_projection_has_the_whole_products_bits(
        self, dim, k, frames, blocks, monkeypatch
    ):
        rng = np.random.default_rng(13)
        model = pca_fit(DescriptorSeries(rng.normal(size=(300, dim))), k)
        series = DescriptorSeries(rng.normal(size=(frames, dim)))
        whole = pca_transform(model, series).data
        spy = mock.Mock(wraps=deltadesc.reduction._project)
        monkeypatch.setattr(deltadesc.reduction, "_project", spy)
        rows = np.vstack(list(project_rows(model, iter(series.data), frames)))
        # a short last block joins the one before it
        assert [len(call.args[1]) for call in spy.call_args_list] == blocks
        assert rows.tobytes() == whole.tobytes()


class TestPcaModel:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PcaModel(
                mean=np.zeros(2),
                components=np.array([[1.0, 1.0], [0.0, 0.0]]),
                explained_variance=np.array([1.0, 1.0]),
            )

    @pytest.mark.parametrize("components, variance, message", [
        (np.eye(3)[:, :2], [2.0, 1.0], "components must be D x k with D matching the mean"),
        (np.ones(2), [1.0], "components must be D x k with D matching the mean"),
        (np.eye(2), [1.0], "need one explained variance per retained component"),
        (np.eye(2)[:, :0], [], "need one explained variance per retained component"),
    ], ids=["dim-differs", "one-dimensional", "variance-count", "no-components"])
    def test_rejects_bad_shapes(self, components, variance, message):
        with pytest.raises(ValueError, match=message):
            PcaModel(np.zeros(2), components, np.array(variance, dtype=float))

    def test_rejects_increasing_variance(self):
        with pytest.raises(ValueError):
            PcaModel(
                mean=np.zeros(2),
                components=np.eye(2),
                explained_variance=np.array([1.0, 2.0]),
            )
