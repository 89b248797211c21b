import numpy as np
import pytest

from deltadesc import DescriptorSeries, PcaModel, pca_fit, pca_transform

INV_SQRT2 = 1.0 / np.sqrt(2.0)


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

    def test_metadata_carried_through(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(size=(12, 2))
        series = DescriptorSeries(rng.normal(size=(12, 5)), positions=pos, valid_range=(2, 10))
        model = pca_fit(series, 2)
        out = pca_transform(model, series)
        assert out.dim == 2
        np.testing.assert_array_equal(out.positions, pos)
        assert out.valid_range == (2, 10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        model = pca_fit(DescriptorSeries(rng.normal(size=(10, 4))), 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pca_transform(model, DescriptorSeries(np.ones((3, 5))))


class TestPcaModel:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PcaModel(
                mean=np.zeros(2),
                components=np.array([[1.0, 1.0], [0.0, 0.0]]),
                explained_variance=np.array([1.0, 1.0]),
            )

    def test_rejects_increasing_variance(self):
        with pytest.raises(ValueError):
            PcaModel(
                mean=np.zeros(2),
                components=np.eye(2),
                explained_variance=np.array([1.0, 2.0]),
            )
