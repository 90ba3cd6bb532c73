"""Evaluation metrics: accuracy, calibration (ECE, NLL, Brier), OOD AUROC,
mean corruption error, acquisition sampling bias, and query-cost accounting.

The metric functions are pure; ``write_jsonl``, ``write_reports_jsonl`` and
``read_reports_jsonl`` write and read files. Natural logarithms throughout.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError
from .io import replacing

MCE_NORMALIZATION = "none"  # plain mean error; no baseline-model normalization
ECE_BINS = 15


def _rows(name: str, probs, labels) -> tuple[np.ndarray, np.ndarray]:
    probs, labels = np.asarray(probs, dtype=np.float64), np.asarray(labels)
    if probs.shape[0] == 0:
        raise DataError(f"{name} undefined for empty input")
    return probs, labels


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    probs, labels = _rows("accuracy", probs, labels)
    return float((probs.argmax(axis=1) == labels).mean())


def ece(probs: np.ndarray, labels: np.ndarray) -> float:
    """Expected calibration error over ``ECE_BINS`` equal-width confidence bins.

    Confidence is the max class probability; each nonempty bin contributes
    its sample share times |accuracy - mean confidence|.
    """
    probs, labels = _rows("ece", probs, labels)
    n = probs.shape[0]
    sums = probs.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-4:
        raise DataError("probability rows must sum to 1")
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(np.float64)
    # bin b covers [b/ECE_BINS, (b+1)/ECE_BINS); confidence 1.0 joins the last bin
    idx = np.minimum((conf * ECE_BINS).astype(np.int64), ECE_BINS - 1)
    nonzero = np.bincount(idx, minlength=ECE_BINS) > 0
    gaps = np.abs(np.bincount(idx, weights=correct, minlength=ECE_BINS)[nonzero]
                  - np.bincount(idx, weights=conf, minlength=ECE_BINS)[nonzero])
    return float(gaps.sum() / n)


def brier(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean over samples of the squared distance to the one-hot label."""
    probs, labels = _rows("brier", probs, labels)
    onehot = np.zeros_like(probs)
    onehot[np.arange(probs.shape[0]), labels] = 1.0
    return float(((probs - onehot) ** 2).sum(axis=1).mean())


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; probabilities clamped below at 1e-12."""
    probs, labels = _rows("nll", probs, labels)
    p_true = np.clip(probs[np.arange(probs.shape[0]), labels], 1e-12, None)
    return float(-np.log(p_true).mean())


def auroc(scores_in: np.ndarray, scores_out: np.ndarray) -> float:
    """Probability a random out-score exceeds a random in-score (ties half).

    Rank-based Mann-Whitney computation; higher score means more
    out-of-distribution.
    """
    scores_in = np.asarray(scores_in, dtype=np.float64)
    scores_out = np.asarray(scores_out, dtype=np.float64)
    if scores_in.size == 0 or scores_out.size == 0:
        raise DataError("auroc needs both score sets nonempty")
    combined = np.concatenate([scores_in, scores_out])
    _, tie_group, counts = np.unique(combined, return_inverse=True, return_counts=True,
                                     equal_nan=False)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[tie_group]  # average 1-based rank
    n_in = scores_in.size
    n_out = scores_out.size
    rank_sum_out = ranks[n_in:].sum()
    u = rank_sum_out - n_out * (n_out + 1) / 2.0
    return float(u / (n_in * n_out))


def sampling_bias(class_counts, n_classes: int) -> float:
    """One minus the acquired-label entropy over the balanced entropy.

    0 for uniform acquisition across the configured classes, 1 when a single
    class absorbs everything; classes with zero count contribute nothing.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    if n_classes < 2:
        raise ConfigError("sampling bias needs at least 2 configured classes")
    total = counts.sum()
    if total < 1:
        raise DataError("sampling bias undefined for an empty acquisition")
    p = counts[counts > 0] / total
    entropy = float(-(p * np.log(p)).sum())
    return float(1.0 - entropy / np.log(n_classes))


def mce(per_shift_errors) -> float:
    """Unweighted mean classification error across shift kind/intensity cells.

    No baseline normalization is applied (reports carry an explicit
    ``mce_normalization: none`` marker).
    """
    values = np.asarray(per_shift_errors, dtype=np.float64).ravel()
    if not values.size:
        raise DataError("mce undefined with no shift cells")
    return float(np.mean(values))


@dataclass(frozen=True)
class QueryCost:
    forward_passes: int
    wall_ms: float

    @staticmethod
    def from_snapshots(passes_before: int, passes_after: int,
                       t_before: float, t_after: float) -> "QueryCost":
        return QueryCost(passes_after - passes_before, (t_after - t_before) * 1000.0)


@dataclass
class IterationReport:
    """Everything deterministic measured in one active-learning iteration (one JSONL
    row). The query's wall time is not, so ``RunResult.query_wall_ms`` holds it."""

    iteration: int
    labeled_count: int
    accuracy: float
    ece: float
    nll: float
    brier: float
    sampling_bias: float
    auroc_ood: float | None
    mce: float | None
    per_shift: list = field(default_factory=list)
    forward_passes_used: int = 0
    sampling_bias_acquired: float | None = None
    deficit_fills: int = 0
    truncated: bool = False
    mce_normalization: str = MCE_NORMALIZATION

    def to_dict(self) -> dict:
        return asdict(self)


CURVE_METRICS = ("accuracy", "ece", "nll", "brier", "sampling_bias", "auroc_ood", "mce")


def write_jsonl(rows, path) -> None:
    """Write one JSON object a line through ``io.replacing``: never a partial file."""
    with replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_reports_jsonl(reports: list[IterationReport], path) -> None:
    write_jsonl((report.to_dict() for report in reports), path)


def read_reports_jsonl(path) -> list[dict]:
    """The rows of a ``report.jsonl``. A DataError unless there is at least one, each a JSON
    object holding every ``IterationReport`` field, with an integer ``iteration`` and each
    curve metric a number or null."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
    except ValueError as exc:  # bad UTF-8, or a line that is not JSON
        raise DataError(f"{path}: unreadable report ({exc})") from None
    names = {f.name for f in fields(IterationReport)}
    if not rows or not all(isinstance(row, dict) and names <= row.keys() for row in rows):
        raise DataError(f"{path}: not one or more lines, each a JSON object holding "
                        f"every field of {sorted(names)}")
    for row in rows:
        for name in ("iteration",) + CURVE_METRICS:
            kinds = int if name == "iteration" else (int, float, type(None))
            if isinstance(row[name], bool) or not isinstance(row[name], kinds):
                raise DataError(f"{path}: {name} is {row[name]!r}, not "
                                + ("an integer" if kinds is int else "a number or null"))
    return rows
