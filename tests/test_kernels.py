"""Kernel outputs against brute force and at their edge cases."""

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


def test_bin_stats_confidence_one_lands_in_last_bin():
    conf = np.array([1.0, 0.999, 0.0])
    correct = np.array([1.0, 0.0, 1.0])
    counts, acc_sums, conf_sums = kernels.confidence_bin_stats(conf, correct, 10)
    assert counts[-1] == 2  # 1.0 and 0.999
    assert counts[0] == 1


def test_nearest_sq_dist_matches_brute_force(rng):
    points = rng.standard_normal((40, 5))
    centers = rng.standard_normal((300, 5))  # more than one 256-row chunk
    slow = ((points[:, None, :] - centers[None]) ** 2).sum(axis=2).min(axis=1)
    np.testing.assert_allclose(kernels.nearest_sq_dist(points, centers), slow,
                               rtol=1e-10, atol=1e-10)
    assert np.all(kernels.nearest_sq_dist(points, np.zeros((0, 5))) == np.inf)
