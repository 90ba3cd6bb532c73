import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conal.errors import ConfigError, DataError, UsageError
from conal.pca import fit_class_pca
from conal.seeding import rng_for
from conal.strategies import (SelectionRequest, VALID_STRATEGIES,
                              featuresim_scores, fre_scores_batch, get_strategy,
                              score_bald, score_entropy, score_featuresim, score_fre,
                              select_global, select_kcenter_greedy, select_per_class,
                              select_random)


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert score_entropy(np.array([[1.0, 0.0, 0.0]]))[0] == 0.0

    def test_uniform_is_log_k(self):
        assert score_entropy(np.full((1, 4), 0.25))[0] == pytest.approx(np.log(4), abs=1e-12)

    def test_hand_value(self):
        assert score_entropy(np.array([[0.7, 0.2, 0.1]]))[0] == pytest.approx(0.8018, abs=1e-4)

    def test_non_stochastic_rejected(self):
        with pytest.raises(DataError):
            score_entropy(np.array([[0.7, 0.7]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_bounds(self, k, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k), size=20)
        scores = score_entropy(probs)
        assert (scores >= -1e-12).all() and (scores <= np.log(k) + 1e-12).all()


class TestBald:
    def test_identical_slices_zero(self):
        probs = np.random.default_rng(0).dirichlet(np.ones(3), size=10)
        stacked = np.stack([probs, probs, probs])
        np.testing.assert_allclose(score_bald(stacked), 0.0, atol=1e-12)

    def test_total_disagreement_is_log2(self):
        stacked = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert score_bald(stacked)[0] == pytest.approx(np.log(2), abs=1e-12)

    def test_bounded_by_mean_entropy(self):
        rng = np.random.default_rng(1)
        stacked = rng.dirichlet(np.ones(4), size=(5, 30))
        scores = score_bald(stacked)
        upper = score_entropy(stacked.mean(axis=0))
        assert (scores >= 0.0).all()
        assert (scores <= upper + 1e-12).all()

    def test_tau_too_small(self):
        with pytest.raises(UsageError):
            score_bald(np.ones((1, 2, 2)) / 2)

    def test_slices_read_as_drawn_equal_the_stack(self):
        stacked = np.random.default_rng(7).dirichlet(np.ones(10), size=(50, 2000))
        # the whole-tensor means, reduced by numpy over the slice axis
        mean_entropy = np.stack([score_entropy(s) for s in stacked]).mean(axis=0)
        reference = np.maximum(score_entropy(stacked.mean(axis=0)) - mean_entropy, 0.0)
        assert np.array_equal(score_bald(s for s in stacked), score_bald(stacked))
        assert np.array_equal(score_bald(stacked), reference)

    def test_one_drawn_slice_rejected(self):
        with pytest.raises(UsageError):
            score_bald(s for s in np.ones((1, 2, 2)) / 2)


class TestFeaturesim:
    def test_query_in_reference_set_scores_its_norm(self):
        refs = np.array([[3.0, 4.0], [0.0, 1.0]])
        assert score_featuresim(np.array([3.0, 4.0]), refs) == pytest.approx(5.0, abs=1e-12)

    def test_orthogonal_query_scores_zero(self):
        refs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert score_featuresim(np.array([0.0, 0.0, 2.0]), refs) == pytest.approx(0.0, abs=1e-12)

    def test_hand_dot_product(self):
        # single labeled feature (1,0); query (3,4) -> 3
        assert score_featuresim(np.array([3.0, 4.0]),
                                np.array([[1.0, 0.0]])) == pytest.approx(3.0, abs=1e-12)

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(2)
        refs = rng.standard_normal((20, 5))
        for _ in range(50):
            q = rng.standard_normal(5) * rng.uniform(0.1, 10)
            assert abs(score_featuresim(q, refs)) <= np.linalg.norm(q) + 1e-9

    def test_batch_grouping_and_fallback(self, caplog):
        rng = np.random.default_rng(3)
        labeled = rng.standard_normal((10, 4))
        labels = np.array([0] * 5 + [1] * 5)
        queries = rng.standard_normal((6, 4))
        predicted = np.array([0, 0, 1, 1, 2, 2])  # class 2 has no labeled rows
        with caplog.at_level("WARNING"):
            scores = featuresim_scores(queries, predicted, labeled, labels)
        assert "global pool" in caplog.text
        unit = labeled / np.linalg.norm(labeled, axis=1, keepdims=True)
        for i in range(4):
            refs = unit[labels == predicted[i]]
            assert scores[i] == pytest.approx((refs @ queries[i]).max(), abs=1e-9)
        for i in (4, 5):
            assert scores[i] == pytest.approx((unit @ queries[i]).max(), abs=1e-9)

    def test_pure_function(self):
        rng = np.random.default_rng(4)
        refs = rng.standard_normal((5, 3))
        q = rng.standard_normal(3)
        assert score_featuresim(q, refs) == score_featuresim(q, refs)


class TestFreStrategy:
    def test_delegates_to_pca(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((30, 4))
        model = fit_class_pca({1: pts}, n_components=2)
        sub = model.classes[1]
        assert score_fre(sub.mean, 1, model) == pytest.approx(0.0, abs=1e-12)
        v = rng.standard_normal(4)
        v -= sub.basis @ (sub.basis.T @ v)
        v /= np.linalg.norm(v)
        assert score_fre(sub.mean + 2 * v, 1, model) == pytest.approx(2.0, abs=1e-9)

    def test_batch_fallback(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((20, 4))
        model = fit_class_pca({0: feats}, n_components=2)
        fallback = fit_class_pca({0: feats}, n_components=2)
        queries = rng.standard_normal((4, 4))
        predicted = np.array([0, 0, 3, 3])
        scores = fre_scores_batch(queries, predicted, model, fallback)
        assert np.isfinite(scores).all()


def make_candidates(entries):
    """(ids, predicted, scores) arrays from (id, class, score) triples."""
    ids, predicted, scores = zip(*entries) if entries else ((), (), ())
    return np.array(ids), np.array(predicted, dtype=np.int64), np.array(scores)


class TestSelectPerClass:
    def test_one_per_class_when_m_equals_k(self):
        cands = make_candidates(
            [(f"s{k}{j}", k, float(j)) for k in range(10) for j in range(3)])
        result = select_per_class(*cands, SelectionRequest(10, 10, "min"))
        assert len(result.ids) == 10
        assert result.deficit_fills == 0
        classes = sorted(int(sid[1]) for sid in result.ids)
        assert classes == list(range(10))

    def test_deficit_refill(self):
        # class 0 has one candidate, class 1 has ten; M=4 -> 1 + 3
        cands = make_candidates([("a0", 0, 0.5)] +
                                [(f"b{j}", 1, float(j)) for j in range(10)])
        result = select_per_class(*cands, SelectionRequest(4, 2, "min"))
        assert len(result.ids) == 4
        assert result.per_class_taken[0] == 1
        assert result.per_class_taken[1] == 3
        assert result.deficit_fills == 1

    def test_tie_breaks_by_ascending_id(self):
        cands = make_candidates([("b", 0, 1.0), ("a", 0, 1.0), ("c", 0, 2.0)])
        result = select_per_class(*cands, SelectionRequest(1, 1, "min"))
        assert result.ids == ["a"]
        result = select_per_class(*cands, SelectionRequest(1, 1, "max"))
        assert result.ids == ["c"]

    def test_direction_max(self):
        cands = make_candidates([("a", 0, 1.0), ("b", 0, 9.0), ("c", 1, 5.0), ("d", 1, 2.0)])
        result = select_per_class(*cands, SelectionRequest(2, 2, "max"))
        assert sorted(result.ids) == ["b", "c"]

    def test_remainder_round_robin_by_class_index(self):
        # M=5, K=3 -> quotas 2,2,1
        cands = make_candidates(
            [(f"s{k}{j}", k, float(j)) for k in range(3) for j in range(5)])
        result = select_per_class(*cands, SelectionRequest(5, 3, "min"))
        assert result.per_class_taken == {0: 2, 1: 2, 2: 1}

    def test_returns_min_of_m_and_candidates(self):
        cands = make_candidates([("a", 0, 1.0), ("b", 1, 2.0)])
        result = select_per_class(*cands, SelectionRequest(10, 3, "min"))
        assert sorted(result.ids) == ["a", "b"]

    def test_no_duplicates_and_exact_m(self):
        rng = np.random.default_rng(7)
        cands = make_candidates(
            [(f"s{i:04d}", int(rng.integers(0, 5)), float(rng.standard_normal()))
             for i in range(200)])
        result = select_per_class(*cands, SelectionRequest(40, 5, "max"))
        assert len(result.ids) == 40
        assert len(set(result.ids)) == 40

    def test_quota_bound_per_class(self):
        rng = np.random.default_rng(8)
        cands = make_candidates(
            [(f"s{i:04d}", int(rng.integers(0, 4)), float(rng.standard_normal()))
             for i in range(300)])
        m, k = 21, 4
        result = select_per_class(*cands, SelectionRequest(m, k, "min"))
        quota_cap = -(-m // k)  # ceil
        for cls, taken in result.per_class_taken.items():
            assert taken <= quota_cap + result.deficit_fills

    def test_empty_candidates_warns(self, caplog):
        with caplog.at_level("WARNING"):
            result = select_per_class(*make_candidates([]), SelectionRequest(5, 2, "min"))
        assert result.ids == []

    def test_rejects_bad_scores_and_classes(self):
        with pytest.raises(DataError):
            select_per_class(*make_candidates([("a", 0, np.nan)]),
                             SelectionRequest(1, 2, "min"))
        with pytest.raises(DataError):
            select_per_class(*make_candidates([("a", 5, 1.0)]),
                             SelectionRequest(1, 2, "min"))

    def test_select_global_top_m(self):
        cands = make_candidates([("a", 0, 1.0), ("b", 0, 3.0), ("c", 1, 2.0)])
        result = select_global(*cands, SelectionRequest(2, 2, "max"))
        assert result.ids == ["b", "c"]


def brute_force_kcenter_radius(points, m):
    """Exhaustive optimal max-min radius choosing m centers among the points."""
    n = len(points)
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    best = np.inf
    for subset in itertools.combinations(range(n), m):
        radius = d2[:, subset].min(axis=1).max()
        best = min(best, radius)
    return np.sqrt(best)


def greedy_radius(points, ids, picks):
    order = {str(sid): i for i, sid in enumerate(ids)}
    centers = points[[order[p] for p in picks]]
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1).max())


class TestKCenterGreedy:
    def _ids(self, n):
        return np.array([f"p{i:03d}" for i in range(n)])

    def test_farthest_point_picked_first(self):
        points = np.array([[0.0], [1.0], [2.0], [10.0]])
        picks = select_kcenter_greedy(points, self._ids(4), np.array([[0.0]]), 1)
        assert picks == ["p003"]

    def test_m_equals_n_selects_all(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((6, 3))
        picks = select_kcenter_greedy(points, self._ids(6), np.zeros((0, 3)), 6)
        assert sorted(picks) == sorted(self._ids(6))

    def test_two_approximation_against_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(5, 13))
            m = int(rng.integers(1, min(n, 5)))
            points = rng.standard_normal((n, 2))
            picks = select_kcenter_greedy(points, self._ids(n), np.zeros((0, 2)), m)
            greedy = greedy_radius(points, self._ids(n), picks)
            optimal = brute_force_kcenter_radius(points, m)
            assert greedy <= 2.0 * optimal + 1e-9

    def test_row_order_invariance(self):
        rng = np.random.default_rng(11)
        points = rng.standard_normal((30, 4))
        ids = self._ids(30)
        labeled = rng.standard_normal((3, 4))
        base = select_kcenter_greedy(points, ids, labeled, 10)
        perm = rng.permutation(30)
        shuffled = select_kcenter_greedy(points[perm], ids[perm], labeled, 10)
        assert base == shuffled

    def test_m_too_large(self):
        with pytest.raises(DataError):
            select_kcenter_greedy(np.zeros((3, 2)), self._ids(3), np.zeros((0, 2)), 4)

    def test_labeled_seeds_cover(self):
        # points near an existing center are never interesting
        points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        picks = select_kcenter_greedy(points, self._ids(3), np.array([[0.0, 0.0]]), 1)
        assert picks == ["p002"]

    def test_fewer_distinct_points_than_picks_never_repeat(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        assert select_kcenter_greedy(pts, np.arange(4), pts[[0, 2]], 2) == [0, 1]

    def test_first_pick_without_labeled_seeds_never_repeats(self):
        # with no labeled seeds the first pick is made outside the kernel
        assert select_kcenter_greedy(np.zeros((3, 2)), np.arange(3), np.empty((0, 2)), 2) \
            == [0, 1]

    def test_ascending_ids_copy_no_points(self):
        """Ids that already ascend, as the loop's subset rows do, skip the id
        sort, and one n x d distance buffer serves every pick. The traced peak
        of this call is ~1.2x the points; a sorted copy of the points and a new
        buffer per pick traced ~3.3x."""
        import tracemalloc

        rng = np.random.default_rng(12)
        points, labeled = rng.standard_normal((2000, 32)), rng.standard_normal((100, 32))
        ids = np.arange(2000)
        select_kcenter_greedy(points, ids, labeled, 20)  # first-call caches stay out of the trace
        tracemalloc.start()
        try:
            select_kcenter_greedy(points, ids, labeled, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * points.nbytes, f"{peak / points.nbytes:.2f}x the points"


class TestSelectRandom:
    def test_m_equals_n_returns_all(self):
        ids = [f"i{j}" for j in range(5)]
        picks = select_random(ids, 5, rng_for(0, "t"))
        assert sorted(picks) == sorted(ids)

    def test_deterministic_given_seed(self):
        ids = [f"i{j}" for j in range(20)]
        a = select_random(ids, 5, rng_for(3, "t"))
        b = select_random(ids, 5, rng_for(3, "t"))
        assert a == b

    def test_uniform_frequencies(self):
        # binomial oracle: each of 10 ids picked with p=0.1 over 10k single draws
        ids = [f"i{j}" for j in range(10)]
        counts = {sid: 0 for sid in ids}
        for trial in range(10_000):
            counts[select_random(ids, 1, rng_for(trial, "freq"))[0]] += 1
        sigma = np.sqrt(0.1 * 0.9 / 10_000)
        for sid in ids:
            assert abs(counts[sid] / 10_000 - 0.1) <= 3 * sigma

    def test_m_too_large(self):
        with pytest.raises(DataError):
            select_random(["a"], 2, rng_for(0, "t"))


class TestRegistry:
    def test_all_names_resolve(self):
        for name in VALID_STRATEGIES:
            assert get_strategy(name).name == name

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ConfigError) as err:
            get_strategy("entropi")
        for name in VALID_STRATEGIES:
            assert name in str(err.value)

    def test_directions(self):
        assert get_strategy("featuresim").direction == "min"
        assert get_strategy("fre").direction == "max"
        assert get_strategy("entropy").direction == "max"
        assert get_strategy("bald").direction == "max"
