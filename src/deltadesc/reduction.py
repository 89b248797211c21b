"""PCA fitting and projection for descriptor compression studies."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .series import DescriptorSeries, _freeze, _seal
from .transform import BOX_BLOCK_ROWS


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
    """Fit a k-component PCA model from the top eigenpairs of the smaller Gram matrix.

    The Gram matrix of the centered rows is D x D when T >= D, else T x T; then
    its eigenvectors map back through ``centeredᵀ`` and QR keeps them orthonormal
    past the centered rank of T - 1. Variances are eigenvalues / (T - 1), clamped
    at 0: the Gram matrix squares the condition number, so near-null variances
    carry round-off of about eps * largest variance * max(T, D).

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
    # eigh sorts ascending: the top k eigenpairs are the last k, reversed
    if t_count >= dim:
        gram = centered.T @ centered
        del centered  # only the Gram product reads it: free it before eigh's own buffers
        eigval, eigvec = np.linalg.eigh(gram)
        components = eigvec[:, ::-1][:, :k].copy()
    else:
        eigval, eigvec = np.linalg.eigh(centered @ centered.T)
        components = np.linalg.qr(centered.T @ eigvec[:, ::-1][:, :k])[0]
    flip = components[np.argmax(np.abs(components), axis=0), np.arange(k)] < 0
    components[:, flip] *= -1.0
    variance = np.maximum(eigval[::-1][:k], 0.0) / (t_count - 1)
    return PcaModel(_seal(mean), _seal(components), _seal(variance))


def _project(model: PcaModel, data: np.ndarray) -> np.ndarray:
    return (data - model.mean) @ model.components


def pca_transform(model: PcaModel, series: DescriptorSeries) -> DescriptorSeries:
    """Project rows onto the model components: (x - mean) @ components."""
    if series.dim != model.input_dim:
        raise ValueError(f"dimension mismatch: series D={series.dim}, model D={model.input_dim}")
    return DescriptorSeries(_seal(_project(model, series.data)))


def project_rows(model: PcaModel, rows: Iterable[np.ndarray], count: int) -> Iterator[np.ndarray]:
    """The rows of ``pca_transform`` of the series whose ``count`` rows ``rows`` yields in
    order, as new row blocks in order, with no T x D array made: the same bits.

    A product of one row is a GEMV, and OpenBLAS multiplies one of at most 100³
    multiply-adds in its small-matrix kernel; both round differently from a
    larger product (by up to 3.9e-12 at 2048 -> 128, where blocks of 1 to 3 rows
    differed and blocks of 4 to 706 rows gave the whole product's bits). So each
    block has ``BOX_BLOCK_ROWS`` rows, or the fewest past that bound if more, and
    a shorter last block joins the one before it. A one-component model is the
    exception: its product is a GEMV whatever the rows, and its streamed rows
    differed from the whole product's by up to 4.2e-15 at 3000 x 2048 -> 1.
    """
    fewest = max(2, 100**3 // (model.input_dim * model.k) + 1)
    step = max(BOX_BLOCK_ROWS, fewest)
    buf = np.empty((min(count, step + fewest - 1), model.input_dim))
    fill, left = 0, count
    for row in rows:
        buf[fill] = row
        fill, left = fill + 1, left - 1
        if fill >= step and not 0 < left < fewest or left == 0:
            yield _project(model, buf[:fill])
            fill = 0
