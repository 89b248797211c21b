"""PCA fitting and projection for descriptor compression studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import DescriptorSeries, _freeze, _seal


@dataclass(frozen=True)
class PcaModel:
    """Column means, orthonormal components (D x k), and per-component variance."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self) -> None:
        mean = _freeze(self.mean).reshape(-1)
        components = _freeze(self.components)
        variance = _freeze(self.explained_variance).reshape(-1)
        if components.ndim != 2 or components.shape[0] != mean.size:
            raise ValueError("components must be D x k with D matching the mean")
        k = components.shape[1]
        if not 1 <= k <= mean.size or variance.size != k:
            raise ValueError("need one explained variance per retained component")
        gram = components.T @ components
        if not np.allclose(gram, np.eye(k), atol=1e-8):
            raise ValueError("components must have orthonormal columns")
        if np.any(np.diff(variance) > 1e-12) or variance.min() < -1e-12:
            raise ValueError("explained variance must be non-increasing and non-negative")
        for arr, name in ((mean, "mean"), (components, "components"), (variance, "explained_variance")):
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.components.shape[1]

    @property
    def input_dim(self) -> int:
        return self.mean.size


def pca_fit(series: DescriptorSeries, k: int) -> PcaModel:
    """Fit a k-component PCA model via SVD of the centered rows.

    Sign convention is deterministic: each component is flipped so its
    largest-magnitude entry is positive.
    """
    t_count, dim = series.frame_count, series.dim
    if t_count < 2:
        raise ValueError(f"need at least 2 frames to fit, got {t_count}")
    k = int(k)
    if not 1 <= k <= min(t_count, dim):
        raise ValueError(f"k must be in [1, {min(t_count, dim)}], got {k}")
    mean = series.data.mean(axis=0)
    centered = series.data - mean
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].T.copy()
    flip = components[np.argmax(np.abs(components), axis=0), np.arange(k)] < 0
    components[:, flip] *= -1.0
    variance = singular[:k] ** 2 / (t_count - 1)
    return PcaModel(_seal(mean), _seal(components), _seal(variance))


def pca_transform(model: PcaModel, series: DescriptorSeries) -> DescriptorSeries:
    """Project rows onto the model components: (x - mean) @ components.

    Positions and valid_range carry through unchanged.
    """
    if series.dim != model.input_dim:
        raise ValueError(f"dimension mismatch: series D={series.dim}, model D={model.input_dim}")
    z = (series.data - model.mean) @ model.components
    return DescriptorSeries(_seal(z), positions=series.positions, valid_range=series.valid_range)
