"""Hot numeric kernels: greedy k-center, nearest-center distances, max dot
product against a reference set, and confidence-bin accumulation.

``max_dot`` and ``nearest_sq_dist`` are matmul-bound and chunk their
intermediates so memory stays bounded on large query sets.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# greedy k-center selection
# ---------------------------------------------------------------------------


def kcenter_greedy(points: np.ndarray, min_sq_dist: np.ndarray, m: int) -> np.ndarray:
    """Pick ``m`` row indices by farthest-point traversal.

    ``min_sq_dist`` holds each row's squared distance to its nearest existing
    center; rows already covered exactly (distance 0) are never re-picked.
    Ties go to the lowest row index.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    picks = np.empty(m, dtype=np.int64)
    current = np.array(min_sq_dist, dtype=np.float64)  # a copy: updated in place
    for j in range(m):
        idx = int(np.argmax(current))
        picks[j] = idx
        diff = points - points[idx]
        np.minimum(current, np.einsum("nd,nd->n", diff, diff), out=current)
    return picks


def nearest_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each point's squared distance to its nearest center, clamped at 0.

    Centers are taken 256 at a time, so the intermediate is n x 256 rather
    than n x #centers. With no centers every distance is inf.
    """
    sq_p = np.einsum("nd,nd->n", points, points)
    out = np.full(points.shape[0], np.inf)
    chunk = 256
    for start in range(0, centers.shape[0], chunk):
        block = centers[start : start + chunk]
        d2 = sq_p[:, None] - 2.0 * points @ block.T + np.einsum("nd,nd->n", block, block)
        np.minimum(out, d2.min(axis=1), out=out)
    np.maximum(out, 0.0, out=out)
    return out


# ---------------------------------------------------------------------------
# maximum dot product against a reference set
# ---------------------------------------------------------------------------


def max_dot(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Row-wise max of ``queries @ refs.T``; refs must be nonempty."""
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    if refs.shape[0] == 0:
        raise ValueError("reference set is empty")
    out = np.empty(queries.shape[0], dtype=np.float64)
    # chunk the matmul so the intermediate stays ~32 MB
    chunk = max(1, int(4e6) // refs.shape[0])
    for start in range(0, queries.shape[0], chunk):
        block = queries[start : start + chunk]
        out[start : start + chunk] = (block @ refs.T).max(axis=1)
    return out


# ---------------------------------------------------------------------------
# confidence-bin accumulation for calibration error
# ---------------------------------------------------------------------------


def confidence_bin_stats(conf: np.ndarray, correct: np.ndarray, n_bins: int):
    """Per-bin (count, sum of correctness, sum of confidence) over equal-width bins.

    Bin b covers [b/n_bins, (b+1)/n_bins); confidence 1.0 lands in the last bin.
    """
    conf = np.ascontiguousarray(conf, dtype=np.float64)
    correct = np.ascontiguousarray(correct, dtype=np.float64)
    idx = np.minimum((conf * n_bins).astype(np.int64), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins).astype(np.float64)
    conf_sums = np.bincount(idx, weights=conf, minlength=n_bins)
    acc_sums = np.bincount(idx, weights=correct, minlength=n_bins)
    return counts, acc_sums, conf_sums
