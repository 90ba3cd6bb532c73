"""Hot numeric kernels: greedy k-center, nearest-center distances, and max
dot product against a reference set.

``max_dot`` and ``nearest_sq_dist`` are matmul-bound and take their rows in
blocks, so memory stays bounded on large query sets. Blocking leaves each
output element's expression alone, but BLAS picks its kernel and tiling by
matrix shape and thread count, so another block shape can move the last bit
of a result. The block rules are therefore fixed:

- ``nearest_sq_dist`` takes ``BLOCK_ROWS`` points at a time against
  ``CENTER_CHUNK`` centers at a time, ~1 MB, in one product buffer sized for
  the last (largest) block, that every block reuses. A short last row block
  joins the one before it, so the buffer holds at most 959 rows (< 2 MB, one
  core's L2).
- ``max_dot`` takes ``max_dot_rows(len(refs)) = 4e6 // len(refs)`` query rows
  at a time, ~32 MB.
"""

from __future__ import annotations

import numpy as np

CENTER_CHUNK = 256
# 2**17 // CENTER_CHUNK = 512 rows, rounded down to a multiple of 48. With one
# BLAS thread (OpenBLAS 0.3.31, AVX-512 dgemm) these blocks give the unblocked
# distances bit for bit on every shape tried, as do 240- and 1008-row blocks;
# 96- and 48-row blocks and 1024-row blocks do not.
BLOCK_ROWS = 480


# ---------------------------------------------------------------------------
# greedy k-center selection
# ---------------------------------------------------------------------------


def kcenter_greedy(points: np.ndarray, min_sq_dist: np.ndarray, m: int) -> np.ndarray:
    """Pick ``m`` row indices by farthest-point traversal.

    ``min_sq_dist`` holds each row's squared distance to its nearest existing
    center, -inf for a row never to pick. No row is picked twice, even once
    every distance left is 0. Ties go to the lowest row index.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    picks = np.empty(m, dtype=np.int64)
    current = np.array(min_sq_dist, dtype=np.float64)  # a copy: updated in place
    diff = np.empty_like(points)
    for j in range(m):
        idx = int(np.argmax(current))
        picks[j] = idx
        np.subtract(points, points[idx], out=diff)
        np.minimum(current, np.einsum("nd,nd->n", diff, diff), out=current)
        current[idx] = -np.inf  # its distance is 0: argmax of all zeros would pick it again
    return picks


def nearest_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each point's squared distance to its nearest center, clamped at 0.

    With no centers every distance is inf.
    """
    sq_p = np.einsum("nd,nd->n", points, points)
    sq_c = np.einsum("nd,nd->n", centers, centers)
    out = np.full(points.shape[0], np.inf)
    # a short last block could take another BLAS kernel (one row is a matrix-vector product)
    starts = list(range(0, points.shape[0], BLOCK_ROWS))
    if len(starts) > 1 and points.shape[0] - starts[-1] < BLOCK_ROWS:
        starts.pop()
    work = np.empty((len(points) - (starts or [0])[-1]) * min(len(centers), CENTER_CHUNK))
    for start, stop in zip(starts, starts[1:] + [points.shape[0]]):
        nearest = out[start:stop]
        for first in range(0, centers.shape[0], CENTER_CHUNK):
            chunk = slice(first, first + CENTER_CHUNK)
            # (sq_p - 2 p.c) + sq_c in place: a - b is a + (-b) bit for bit
            d2 = work[:(stop - start) * len(sq_c[chunk])].reshape(stop - start, -1)
            np.matmul(points[start:stop], centers[chunk].T, out=d2)
            d2 *= -2.0
            d2 += sq_p[start:stop, None]
            d2 += sq_c[chunk]
            np.minimum(nearest, d2.min(axis=1), out=nearest)
    np.maximum(out, 0.0, out=out)
    return out


# ---------------------------------------------------------------------------
# maximum dot product against a reference set
# ---------------------------------------------------------------------------


def max_dot_rows(n_refs: int) -> int:
    """Query rows per ``max_dot`` block: ``4e6 // n_refs``, ~32 MB of products."""
    return max(1, int(4e6) // n_refs)


def max_dot(queries: np.ndarray, refs: np.ndarray,
            work: np.ndarray | None = None) -> np.ndarray:
    """Row-wise max of ``queries @ refs.T``; refs must be nonempty.

    Each block's products go into ``work``, a float64 buffer of at least
    ``min(len(queries), max_dot_rows(len(refs))) * len(refs)`` elements that a
    caller may reuse across calls; without one, one is allocated.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    if refs.shape[0] == 0:
        raise ValueError("reference set is empty")
    n, n_refs = queries.shape[0], refs.shape[0]
    chunk = max_dot_rows(n_refs)
    if work is None:
        work = np.empty(min(n, chunk) * n_refs)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, chunk):
        block = queries[start : start + chunk]
        product = work[: block.shape[0] * n_refs].reshape(block.shape[0], n_refs)
        np.matmul(block, refs.T, out=product)
        product.max(axis=1, out=out[start : start + chunk])
    return out
