"""Synthetic feature datasets: Gaussian mixtures, long-tailed class sizes,
parametric test-set shifts, and mirrored out-of-distribution sets.

All generators are pure functions of their spec + seed; identical inputs give
bit-identical matrices. Feature values are stored as float32 (the on-disk
format's precision); numerical routines upcast to float64 internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .seeding import rng_for

SHIFT_KINDS = ("additive_gaussian", "feature_scale", "feature_dropout_mask", "mean_drift")

# Intensity 1..5 magnitude schedules. The corruption protocol this mirrors
# defines no numeric magnitudes, so these are artifact-defined and are echoed
# into every run manifest.
DEFAULT_SHIFT_MAGNITUDES: dict[str, tuple[float, ...]] = {
    "additive_gaussian": (0.25, 0.5, 1.0, 1.5, 2.0),
    "feature_scale": (1.1, 1.25, 1.5, 2.0, 3.0),
    "feature_dropout_mask": (0.05, 0.1, 0.2, 0.3, 0.4),
    "mean_drift": (0.25, 0.5, 1.0, 1.5, 2.0),
}


def first_repeat(ids: np.ndarray) -> int | None:
    """The index of the first id equal to an earlier one, or None if all differ."""
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if repeats.size else None


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense n x d feature block with unique sample ids and optional labels; the
    ids are always ``str``: a ``<U`` array is kept, any other cast to its text."""

    values: np.ndarray
    ids: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float32)
        if values.ndim != 2:
            raise DataError(f"values must be 2-D, got shape {values.shape}")
        ids = np.asarray(self.ids).astype(str, copy=False)
        if ids.shape != (values.shape[0],):
            raise DataError("ids length does not match row count")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (values.shape[0],):
                raise DataError("labels length does not match row count")
            if labels.size and labels.min() < 0:
                raise DataError("labels must be nonnegative class indices")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", labels)
        if not np.all(np.isfinite(values)):
            raise DataError("values contain NaN or Inf")
        if first_repeat(ids) is not None:
            raise DataError("sample ids are not unique")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def take(self, indices) -> "FeatureMatrix":
        indices = np.asarray(indices)
        return FeatureMatrix(self.values[indices], self.ids[indices],
                             None if self.labels is None else self.labels[indices])


@dataclass(frozen=True)
class DatasetSpec:
    """Gaussian-mixture dataset with geometric class-size decay.

    Class k is an isotropic Gaussian of std ``noise_sigma`` centered at
    ``class_separation * e_k`` (the k-th coordinate axis), with
    ``n_k = round(n_per_class * imbalance_ratio**(-k/(K-1)))`` samples.
    """

    k: int
    d: int
    n_per_class: int
    imbalance_ratio: float = 1.0
    class_separation: float = 3.0
    noise_sigma: float = 1.0
    seed: int = 0

    def validate(self) -> list[int]:
        """The per-class sizes, once every field and the smallest size are checked."""
        if self.k < 2:
            raise ConfigError(f"need at least 2 classes, got k={self.k}")
        if self.d < 2:
            raise ConfigError(f"need at least 2 dimensions, got d={self.d}")
        if self.d < self.k:
            raise ConfigError(f"d={self.d} < k={self.k}: class centers need one axis each")
        for name in ("imbalance_ratio", "class_separation", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.imbalance_ratio < 1.0:
            raise ConfigError(f"imbalance_ratio must be >= 1, got {self.imbalance_ratio}")
        if self.n_per_class < 1:
            raise ConfigError("n_per_class must be positive")
        if self.noise_sigma <= 0 or self.class_separation <= 0:
            raise ConfigError("noise_sigma and class_separation must be positive")
        sizes = [_round_half_up(self.n_per_class * self.imbalance_ratio ** (-k / (self.k - 1)))
                 for k in range(self.k)]
        if min(sizes) < 1:
            raise ConfigError("imbalance_ratio too large for n_per_class: "
                              "the smallest class rounds to 0")
        return sizes


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def class_sizes(spec: DatasetSpec) -> list[int]:
    """Per-class sample counts under geometric decay, rounded half-up.

    The rounded per-class counts define the total exactly; class 0 is always
    ``n_per_class`` since the decay factor there is 1.
    """
    return spec.validate()


def class_centers(spec: DatasetSpec) -> np.ndarray:
    return np.eye(spec.k, spec.d) * spec.class_separation


def _row_ids(prefix: str, rows: np.ndarray) -> np.ndarray:
    """``np.array([f"{prefix}{i:08d}" for i in rows])`` for nonempty ``rows`` >= 0."""
    width = max(8, len(str(rows.max())))
    ids = np.empty(len(rows), dtype=f"<U{len(prefix) + width}")
    for start in range(0, len(rows), 1024):  # blocks under malloc's 128 KiB mmap threshold
        block = rows[start:start + 1024].astype(f"<U{width}")
        ids[start:start + 1024] = np.strings.add(prefix, np.strings.zfill(block, 8))
    return ids


def generate_mixture(spec: DatasetSpec, id_prefix: str = "") -> FeatureMatrix:
    """Draw the labeled Gaussian mixture described by ``spec``.

    Deterministic given ``spec.seed``; rows are grouped by class. ``id_prefix``
    distinguishes train/test/OOD universes written into the same experiment.
    """
    sizes = class_sizes(spec)
    centers = class_centers(spec)
    rng = rng_for(spec.seed, "mixture")
    values = np.empty((sum(sizes), spec.d), dtype=np.float32)
    start = 0
    for k, n_k in enumerate(sizes):
        # each class block is drawn in float64 and cast to float32 as it is stored
        noise = rng.standard_normal((n_k, spec.d))
        noise *= spec.noise_sigma
        noise += centers[k]
        values[start:start + n_k] = noise
        start += n_k
    labels = np.repeat(np.arange(spec.k, dtype=np.int64), sizes)
    return FeatureMatrix(values, _row_ids(id_prefix, np.arange(values.shape[0])), labels)


def generate_ood(spec: DatasetSpec, n: int, seed: int) -> FeatureMatrix:
    """Unlabeled out-of-distribution set: the mixture mirrored through the origin.

    Mirrored centers sit at distance 2*separation from their own class and
    sqrt(2)*separation from every other, i.e. farther from all in-distribution
    modes than any in-distribution point typically is.
    """
    spec.validate()
    if n < 1:
        raise ConfigError("ood sample count must be positive")
    centers = -class_centers(spec)
    rng = rng_for(seed, "ood")
    assignment = rng.integers(0, spec.k, size=n)
    values = centers[assignment] + spec.noise_sigma * rng.standard_normal((n, spec.d))
    return FeatureMatrix(values.astype(np.float32), _row_ids("ood-", np.arange(n)), None)


@dataclass(frozen=True)
class ShiftSpec:
    """One parametric test-set corruption: a kind plus an intensity in 1..5."""

    kind: str
    intensity: int

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise ConfigError(
                f"unknown shift kind {self.kind!r}; valid kinds: {', '.join(SHIFT_KINDS)}"
            )
        if not 1 <= self.intensity <= 5:
            raise ConfigError(f"intensity must be in 1..5, got {self.intensity}")

    @property
    def magnitude(self) -> float:
        return DEFAULT_SHIFT_MAGNITUDES[self.kind][self.intensity - 1]


def full_shift_suite(kinds=SHIFT_KINDS, intensities=(1, 2, 3, 4, 5)) -> list[ShiftSpec]:
    return [ShiftSpec(kind, level) for kind in kinds for level in intensities]


def apply_shift(data: FeatureMatrix, shift: ShiftSpec, seed: int) -> FeatureMatrix:
    """Return ``data`` with shifted values; it shares ``data``'s ids and labels."""
    rng = rng_for(seed, "shift", shift.kind, shift.intensity)
    x = data.values.astype(np.float64)
    mag = shift.magnitude
    if shift.kind == "additive_gaussian":
        shifted = x + mag * rng.standard_normal(x.shape)
    elif shift.kind == "feature_scale":
        shifted = x * mag
    elif shift.kind == "feature_dropout_mask":
        keep = rng.random(x.shape) >= mag
        shifted = x * keep
    else:  # mean_drift, the last kind ShiftSpec admits
        direction = rng.standard_normal(data.d)
        direction /= np.linalg.norm(direction)
        shifted = x + mag * direction
    return FeatureMatrix(np.asarray(shifted, dtype=np.float32), data.ids, data.labels)


def balanced_test_spec(spec: DatasetSpec, n_per_class: int) -> DatasetSpec:
    """Companion balanced test spec: same geometry, uniform class sizes, the
    next data seed."""
    return replace(spec, n_per_class=n_per_class, imbalance_ratio=1.0, seed=spec.seed + 1)
