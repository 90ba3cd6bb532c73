import numpy as np
import pytest

from conal.data import (DEFAULT_SHIFT_MAGNITUDES, DatasetSpec, FeatureMatrix,
                        ShiftSpec, apply_shift, balanced_test_spec, class_sizes,
                        first_repeat, full_shift_suite, generate_mixture, generate_ood)
from conal.data import _row_ids
from conal.errors import ConfigError, DataError


class TestClassSizes:
    def test_balanced_two_classes(self):
        spec = DatasetSpec(k=2, d=2, n_per_class=100, imbalance_ratio=1.0)
        assert class_sizes(spec) == [100, 100]

    def test_geometric_decay_by_hand(self):
        # 90 * 9**(-k/2): 90, 90/3, 90/9
        spec = DatasetSpec(k=3, d=3, n_per_class=90, imbalance_ratio=9.0)
        assert class_sizes(spec) == spec.validate() == [90, 30, 10]

    def test_ratio_fifty(self):
        spec = DatasetSpec(k=10, d=16, n_per_class=5000, imbalance_ratio=50.0)
        sizes = class_sizes(spec)
        assert sizes[0] == 5000 and sizes[-1] == 100
        assert sizes[0] / sizes[-1] == pytest.approx(50.0, rel=0.01)
        assert sizes == sorted(sizes, reverse=True)

    def test_balanced_histogram_exactly_uniform(self):
        spec = DatasetSpec(k=4, d=4, n_per_class=25, imbalance_ratio=1.0, seed=7)
        data = generate_mixture(spec)
        counts = np.bincount(data.labels, minlength=4)
        assert (counts == 25).all()

    @pytest.mark.parametrize("kwargs", [
        dict(k=1, d=4, n_per_class=10),
        dict(k=3, d=1, n_per_class=10),
        dict(k=3, d=3, n_per_class=10, imbalance_ratio=0.5),
        dict(k=5, d=3, n_per_class=10),  # d < k
        dict(k=3, d=4, n_per_class=5, imbalance_ratio=20),  # the smallest class rounds to 0
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ConfigError):
            DatasetSpec(**kwargs).validate()


class TestGenerateMixture:
    def test_seed_determinism(self):
        spec = DatasetSpec(k=3, d=5, n_per_class=40, imbalance_ratio=4.0, seed=11)
        a = generate_mixture(spec)
        b = generate_mixture(spec)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        spec = DatasetSpec(k=2, d=3, n_per_class=20, seed=0)
        other = DatasetSpec(k=2, d=3, n_per_class=20, seed=1)
        assert not np.array_equal(generate_mixture(spec).values,
                                  generate_mixture(other).values)

    def test_class_means_near_centers(self):
        spec = DatasetSpec(k=3, d=4, n_per_class=4000, class_separation=5.0,
                           noise_sigma=1.0, seed=2)
        data = generate_mixture(spec)
        for k in range(3):
            mean = data.values[data.labels == k].mean(axis=0)
            expected = np.zeros(4)
            expected[k] = 5.0
            assert np.abs(mean - expected).max() < 0.1

    def test_ids_unique_and_sorted(self):
        data = generate_mixture(DatasetSpec(k=2, d=2, n_per_class=30))
        assert len(set(data.ids)) == data.n
        assert list(data.ids) == sorted(data.ids)

    @pytest.mark.parametrize("prefix", ["", "tr-", "ood-", "é-"])
    @pytest.mark.parametrize("rows", [range(1), range(2500), range(99_999_998, 100_000_002)],
                             ids=["one", "blocks", "9_digit_edge"])
    def test_row_ids_match_f_string(self, prefix, rows):
        ids = _row_ids(prefix, np.arange(rows.start, rows.stop))
        reference = np.array([f"{prefix}{i:08d}" for i in rows])
        assert ids.dtype == reference.dtype
        assert ids.tolist() == reference.tolist()

    def test_generated_ids_match_f_string(self):
        spec = DatasetSpec(k=3, d=4, n_per_class=20, imbalance_ratio=2.0, seed=1)
        ids = generate_mixture(spec, id_prefix="q-").ids
        assert ids.dtype == np.dtype("<U10")
        assert ids.tolist() == [f"q-{i:08d}" for i in range(sum(class_sizes(spec)))]
        ood = generate_ood(spec, n=5, seed=2).ids
        assert ood.dtype == np.dtype("<U12")
        assert ood.tolist() == [f"ood-{i:08d}" for i in range(5)]


class TestFeatureMatrix:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.array([[np.nan, 1.0]]), np.array(["a"]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.zeros((2, 2)), np.array(["a", "a"]))

    @pytest.mark.parametrize("ids", [["a", "a\x00"], ["b\x00\x00", "a", "b"], [3, 1, 3]])
    def test_duplicate_rule(self, ids):
        # numpy drops trailing NULs, so these ids compare equal
        with pytest.raises(DataError, match="not unique"):
            FeatureMatrix(np.zeros((len(ids), 2)), np.array(ids))

    @pytest.mark.parametrize("ids", [[3, 1, 2], ["", "a", "ab", "abc", "b", "\x00a"],
                                     [1.5, -2.0], ["b", 7, None]])
    def test_distinct_ids_pass(self, ids):
        data = FeatureMatrix(np.zeros((len(ids), 2)), np.array(ids))
        assert data.ids.dtype.kind == "U"  # ids of any other dtype become their text
        assert data.ids.tolist() == [str(sid) for sid in ids]  # [3, 1, 2] -> ["3", "1", "2"]

    def test_str_ids_are_kept_without_a_copy(self):
        ids = np.array(["b", "a", "c"])
        assert FeatureMatrix(np.zeros((3, 2)), ids).ids is ids
        assert np.shares_memory(FeatureMatrix(np.zeros((3, 2)), ids[::-1]).ids, ids)

    @pytest.mark.parametrize("ids, index", [
        (["c", "a", "b", "a", "c"], 3),
        (["b", "a", "b", "b"], 2),
        (["a", "b", "c"], None),
        ([], None),
    ])
    def test_first_repeat_is_the_earliest_later_occurrence(self, ids, index):
        assert first_repeat(np.array(ids, dtype=str)) == index

    def test_rejects_bad_label_length(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.zeros((2, 2)), np.array(["a", "b"]), np.array([0]))


class TestApplyShift:
    def _data(self, n=50, d=8, seed=5):
        return generate_mixture(DatasetSpec(k=2, d=d, n_per_class=n // 2, seed=seed))

    def test_feature_scale_scales_norms(self):
        data = self._data()
        spec = ShiftSpec("feature_scale", 3)  # magnitude 1.5
        out = apply_shift(data, spec, seed=0)
        before = np.linalg.norm(data.values.astype(np.float64), axis=1)
        after = np.linalg.norm(out.values.astype(np.float64), axis=1)
        np.testing.assert_allclose(after, 1.5 * before, rtol=1e-6)

    def test_additive_noise_std_matches_magnitude(self):
        # law of large numbers: sample std of the perturbation ~ level-3 magnitude
        data = self._data(n=2000, d=8)
        assert data.n * data.d >= 10_000
        spec = ShiftSpec("additive_gaussian", 3)
        out = apply_shift(data, spec, seed=9)
        diff = out.values.astype(np.float64) - data.values.astype(np.float64)
        assert abs(diff.std() - spec.magnitude) / spec.magnitude < 0.05

    def test_preserves_labels_ids_shape(self):
        data = self._data()
        for spec in full_shift_suite():
            out = apply_shift(data, spec, seed=1)
            assert out.n == data.n and out.d == data.d
            assert np.array_equal(out.ids, data.ids)
            assert np.array_equal(out.labels, data.labels)

    def test_shares_ids_and_labels(self):
        data = self._data()
        out = apply_shift(data, ShiftSpec("mean_drift", 2), seed=1)
        assert np.shares_memory(out.ids, data.ids)
        assert np.shares_memory(out.labels, data.labels)

    def test_deterministic_given_seed(self):
        data = self._data()
        spec = ShiftSpec("feature_dropout_mask", 4)
        a = apply_shift(data, spec, seed=3)
        b = apply_shift(data, spec, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ShiftSpec("salt_and_pepper", 1)

    def test_intensity_bounds(self):
        with pytest.raises(ConfigError):
            ShiftSpec("additive_gaussian", 0)
        with pytest.raises(ConfigError):
            ShiftSpec("additive_gaussian", 6)

    def test_magnitudes_strictly_increase(self):
        for kind, mags in DEFAULT_SHIFT_MAGNITUDES.items():
            assert all(a < b for a, b in zip(mags, mags[1:])), kind


class TestOod:
    def test_mirrored_centers(self):
        spec = DatasetSpec(k=2, d=3, n_per_class=10, class_separation=4.0, seed=1)
        ood = generate_ood(spec, n=3000, seed=5)
        assert ood.labels is None
        assert ood.n == 3000
        # all mass near the mirrored centers: mean of axis coordinates negative
        assert ood.values[:, :2].mean() < -1.0

    def test_balanced_test_spec(self):
        spec = DatasetSpec(k=4, d=6, n_per_class=100, imbalance_ratio=10.0, seed=3)
        test = balanced_test_spec(spec, 50)
        assert test.imbalance_ratio == 1.0
        assert test.n_per_class == 50
        assert test.seed != spec.seed
        counts = np.bincount(generate_mixture(test).labels)
        assert (counts == 50).all()
