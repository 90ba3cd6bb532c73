"""Class-conditional PCA and the feature reconstruction error score.

Each class gets a mean vector and an orthonormal basis of top principal
directions of its centered features (sample covariance, 1/(n-1)). The score
of a query feature is the Euclidean norm of its residual after centering,
projecting onto the class basis, and lifting back: points on the class
manifold score ~0, points far from it score high.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, UsageError


@dataclass(frozen=True)
class ClassSubspace:
    """Mean, orthonormal basis, and full eigenvalue spectrum for one class."""

    mean: np.ndarray          # (D,)
    basis: np.ndarray         # (D, L), orthonormal columns
    spectrum: np.ndarray      # all sample-covariance eigenvalues, descending
    n_fit: int

    @property
    def n_components(self) -> int:
        return self.basis.shape[1]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the kept components."""
        return self.spectrum[: self.n_components]

    @property
    def discarded_variance(self) -> float:
        return float(self.spectrum[self.n_components :].sum())

    def fre_scores(self, z: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Residual norms of the queries ``z[rows]`` (every row of z by default)."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.mean.shape[0]:
            raise DataError(f"queries have shape {z.shape}, expected (*, {self.mean.shape[0]})")
        # one copy of the queried rows becomes their residual in place; its norm
        # is taken as np.linalg.norm(residual, axis=1) takes it
        residual = z.copy() if rows is None else z[rows]
        residual -= self.mean
        if self.n_components:
            residual -= (residual @ self.basis) @ self.basis.T
        residual *= residual
        return np.sqrt(np.add.reduce(residual, axis=1))


@dataclass(frozen=True)
class ClassPcaModel:
    d: int
    classes: dict[int, ClassSubspace]


def class_covariance_eig(centered: np.ndarray):
    """Descending eigenpairs of the sample covariance (1/(n-1)) of centered rows.

    One ``eigh`` of the D x D covariance serves every n. Eigenvalues below
    zero are clamped to 0, and every eigenvalue past the rank min(n-1, D) is
    0. Only the leading rank columns are a fitted basis, each with the sign
    ``eigh`` gives it: a fre score reads only their projector.
    """
    n, d = centered.shape
    eigvals, eigvecs = np.linalg.eigh((centered.T @ centered) / (n - 1))
    order = np.argsort(eigvals)[::-1]
    eigvals = np.where(eigvals[order] > 0.0, eigvals[order], 0.0)
    eigvals[min(n - 1, d):] = 0.0
    return eigvals, eigvecs[:, order]


def _pick_dimension(spectrum: np.ndarray, rank: int, n_components: int | None,
                    variance_fraction: float | None) -> int:
    if n_components is not None:
        return min(n_components, rank)
    total = spectrum.sum()
    if total <= 0.0:
        return 0
    cumulative = np.cumsum(spectrum[:rank])
    keep = int(np.searchsorted(cumulative, variance_fraction * total) + 1)
    return min(keep, rank)


def fit_class_pca(features_by_class: dict[int, np.ndarray], n_components: int | None = None,
                  variance_fraction: float | None = None) -> ClassPcaModel:
    """Fit one subspace per class from its labeled features.

    Exactly one of ``n_components`` (fixed dimension, capped at min(D, n-1))
    or ``variance_fraction`` (smallest dimension whose eigenvalue prefix sum
    reaches that fraction of total variance) selects the kept dimension;
    the default is a 0.95 variance fraction. Classes with fewer than 2
    samples fall back to a mean-only subspace with a warning.
    """
    if n_components is not None and variance_fraction is not None:
        raise ConfigError("pass n_components or variance_fraction, not both")
    if n_components is None and variance_fraction is None:
        variance_fraction = 0.95
    if variance_fraction is not None and not 0 < variance_fraction <= 1:
        raise ConfigError("variance_fraction must lie in (0, 1]")
    if n_components is not None and n_components < 1:
        raise ConfigError("n_components must be >= 1")
    if not features_by_class:
        raise DataError("no classes to fit")

    d = None
    classes: dict[int, ClassSubspace] = {}
    for k in sorted(features_by_class):
        feats = np.asarray(features_by_class[k], dtype=np.float64)
        if feats.ndim != 2:
            raise DataError(f"class {k}: features must be 2-D")
        if d is None:
            d = feats.shape[1]
        elif feats.shape[1] != d:
            raise DataError(f"class {k}: dimension {feats.shape[1]} != {d}")
        n_k = feats.shape[0]
        mean = feats.mean(axis=0)
        if n_k < 2:
            warnings.warn(f"class {k} has {n_k} sample(s); using a mean-only subspace",
                          stacklevel=2)
            classes[k] = ClassSubspace(mean, np.zeros((d, 0)), np.zeros(d), n_k)
            continue
        centered = feats - mean
        spectrum, eigvecs = class_covariance_eig(centered)
        rank = min(n_k - 1, d)
        keep = _pick_dimension(spectrum, rank, n_components, variance_fraction)
        classes[k] = ClassSubspace(mean, eigvecs[:, :keep].copy(), spectrum, n_k)
    return ClassPcaModel(d, classes)


def fre_scores(model: ClassPcaModel, z: np.ndarray, k: int,
               rows: np.ndarray | None = None) -> np.ndarray:
    """Vectorized residual norms of the queries ``z[rows]`` (every row of z by
    default) against class k."""
    if k not in model.classes:
        raise UsageError(f"class {k} has no fitted subspace")
    return model.classes[k].fre_scores(z, rows)
