"""Kernel outputs against brute force and at their edge cases."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conal import kernels


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def test_max_dot_matches_brute_force(rng):
    queries = rng.standard_normal((200, 8))
    refs = rng.standard_normal((50, 8))
    refs /= np.linalg.norm(refs, axis=1, keepdims=True)
    fast = kernels.max_dot(queries, refs)
    slow = np.array([max(q @ r for r in refs) for q in queries])
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


def test_max_dot_rejects_empty_refs(rng):
    with pytest.raises(ValueError):
        kernels.max_dot(rng.standard_normal((3, 4)), np.zeros((0, 4)))


def test_nearest_sq_dist_matches_brute_force(rng):
    points = rng.standard_normal((40, 5))
    centers = rng.standard_normal((300, 5))  # more than one 256-row chunk
    slow = ((points[:, None, :] - centers[None]) ** 2).sum(axis=2).min(axis=1)
    np.testing.assert_allclose(kernels.nearest_sq_dist(points, centers), slow,
                               rtol=1e-10, atol=1e-10)
    assert np.all(kernels.nearest_sq_dist(points, np.zeros((0, 5))) == np.inf)


# The formula before row blocking: every point against 256 centers at a time.
# With one BLAS thread the row-blocked kernel must equal it bit for bit, on
# the preset's coreset shapes (the 2000-point subset against 100..1000
# labeled centers, the 1000-row OOD set against as many, d = 32), on row
# counts that are not a multiple of the block, one row past a block, on shapes
# where blocks of 1024 rows (not a multiple of 48) or of 96 rows differ, and on
# 0 points or 0 centers.
_EXACT_SCRIPT = textwrap.dedent("""
    import numpy as np
    from conal import kernels

    def unblocked(points, centers):
        sq_p = np.einsum("nd,nd->n", points, points)
        out = np.full(points.shape[0], np.inf)
        for start in range(0, centers.shape[0], 256):
            block = centers[start : start + 256]
            d2 = sq_p[:, None] - 2.0 * points @ block.T + np.einsum("nd,nd->n", block, block)
            np.minimum(out, d2.min(axis=1), out=out)
        np.maximum(out, 0.0, out=out)
        return out

    rows = kernels.BLOCK_ROWS
    shapes = [(n, m, 32) for n in (1000, 2000) for m in range(100, 1001, 100)]
    shapes += [(n, m, d) for n in (1, 37, rows + 1, 2 * rows + 1, 5003)
               for m in (1, 7, 255, 257, 333, 1000) for d in (8, 32)]
    shapes += [(14000, m, d) for m in (255, 500) for d in (16, 32)]
    shapes += [(0, 5, 4), (0, 0, 4), (40, 0, 4), (2 * rows + 1, 0, 4)]
    rng = np.random.default_rng(11)
    bad = []
    for n, m, d in shapes:
        points, centers = rng.standard_normal((n, d)), rng.standard_normal((m, d))
        if not np.array_equal(kernels.nearest_sq_dist(points, centers), unblocked(points, centers)):
            bad.append((n, m, d))
    assert not bad, f"differ from the unblocked formula: {bad}"
""")


def test_nearest_sq_dist_equals_unblocked_formula_with_one_blas_thread():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run([sys.executable, "-c", _EXACT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
