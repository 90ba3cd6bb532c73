import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conal.metrics
from conal.errors import DataError
from conal.metrics import (IterationReport, QueryCost, accuracy, auroc, brier,
                           ece, mce, nll, read_reports_jsonl, sampling_bias,
                           write_reports_jsonl)


class TestEce:
    def test_perfect_one_hot_is_zero(self):
        probs = np.eye(3)[[0, 1, 2, 1]]
        labels = np.array([0, 1, 2, 1])
        assert ece(probs, labels) == 0.0

    def test_single_bin_hand_value(self):
        # both rows confidence 0.8, both correct -> |1.0 - 0.8| = 0.2
        probs = np.array([[0.8, 0.2], [0.8, 0.2]])
        assert ece(probs, np.array([0, 0])) == pytest.approx(0.2, abs=1e-12)

    def test_confidence_one_shares_the_last_bin(self):
        # 1.0 (wrong) and 0.95 (right) share bin 14 of 15: |1 - 1.95| / 2 = 0.475;
        # a bin of its own for the 1.0 row would give (1.0 + 0.05) / 2 = 0.525
        probs = np.array([[1.0, 0.0], [0.95, 0.05]])
        assert ece(probs, np.array([1, 0])) == pytest.approx(0.475, abs=1e-12)

    def test_uniform_predictions_matching_accuracy(self):
        # uniform 1/4 rows; exactly one in four correct under argmax ties -> 0
        probs = np.full((4, 4), 0.25)
        labels = np.array([0, 1, 2, 3])  # argmax picks class 0; accuracy 1/4
        assert ece(probs, labels) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(3), size=50)
        labels = rng.integers(0, 3, size=50)
        base = ece(probs, labels)
        perm = rng.permutation(50)
        assert ece(probs[perm], labels[perm]) == pytest.approx(base, abs=1e-12)

    def test_bin_refinement_on_model_like_data(self, monkeypatch):
        # on roughly calibrated data, doubling the bin count moves ece by
        # at most the coarse bin width
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(4) * 2, size=2000)
        labels = np.array([rng.choice(4, p=row) for row in probs])

        def ece_with(bins):
            monkeypatch.setattr(conal.metrics, "ECE_BINS", bins)
            return ece(probs, labels)

        for bins in (5, 10, 15):
            assert abs(ece_with(bins) - ece_with(2 * bins)) <= 1.0 / bins

    def test_empty_input_errors(self):
        with pytest.raises(DataError):
            ece(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestBrier:
    def test_one_hot_correct_is_zero(self):
        assert brier(np.array([[1.0, 0.0]]), np.array([0])) == 0.0

    def test_uniform_binary(self):
        assert brier(np.array([[0.5, 0.5]]), np.array([0])) == pytest.approx(0.5, abs=1e-12)

    def test_one_hot_wrong_is_two(self):
        assert brier(np.array([[1.0, 0.0]]), np.array([1])) == pytest.approx(2.0, abs=1e-12)

    def test_proper_scoring_rule_on_grid(self):
        # expected brier under the true distribution is minimized at it
        true = np.array([0.6, 0.3, 0.1])

        def expected_brier(q):
            return sum(true[k] * brier(q[None, :], np.array([k])) for k in range(3))

        base = expected_brier(true)
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = rng.dirichlet(np.ones(3))
            if np.abs(q - true).max() < 1e-9:
                continue
            assert expected_brier(q) > base


class TestNll:
    def test_certain_and_correct(self):
        assert nll(np.array([[1.0, 0.0]]), np.array([0])) == pytest.approx(0.0, abs=1e-9)

    def test_inverse_e(self):
        p = 1.0 / np.e
        assert nll(np.array([[p, 1 - p]]), np.array([0])) == pytest.approx(1.0, abs=1e-12)

    def test_mean_of_per_sample_values(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        labels = np.array([0, 1])
        expected = (-np.log(0.5) - np.log(0.75)) / 2
        assert nll(probs, labels) == pytest.approx(expected, abs=1e-12)

    def test_clamps_zero_probability(self):
        value = nll(np.array([[0.0, 1.0]]), np.array([0]))
        assert value == pytest.approx(-np.log(1e-12), rel=1e-9)


def brute_force_auroc(scores_in, scores_out):
    wins = 0.0
    for out in scores_out:
        for inn in scores_in:
            if out > inn:
                wins += 1.0
            elif out == inn:
                wins += 0.5
    return wins / (len(scores_in) * len(scores_out))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2], [0.9, 0.8]) == 1.0

    def test_three_of_four_pairs(self):
        assert auroc([0.5, 0.1], [0.8, 0.3]) == pytest.approx(0.75, abs=1e-12)

    def test_identical_multisets_half(self):
        assert auroc([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_in = int(rng.integers(1, 200))
            n_out = int(rng.integers(1, 200))
            # quantized scores force plenty of ties
            scores_in = np.round(rng.standard_normal(n_in), 1)
            scores_out = np.round(rng.standard_normal(n_out) + 0.5, 1)
            fast = auroc(scores_in, scores_out)
            slow = brute_force_auroc(scores_in, scores_out)
            assert abs(fast - slow) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(30)
        b = rng.standard_normal(40) + 0.3
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_empty_inputs_error(self):
        with pytest.raises(DataError):
            auroc([], [0.5])
        with pytest.raises(DataError):
            auroc([0.5], [])


class TestSamplingBias:
    def test_uniform_counts_zero(self):
        assert sampling_bias([5, 5, 5, 5], 4) == pytest.approx(0.0, abs=1e-12)

    def test_single_class_is_one(self):
        assert sampling_bias([10, 0, 0], 3) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_three_one(self):
        value = sampling_bias([3, 1], 2)
        assert type(value) is float  # not np.float64, whose repr is not a plain number
        assert value == pytest.approx(0.1887, abs=5e-5)

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 30, size=6)
        counts[0] += 1
        base = sampling_bias(counts, 6)
        for _ in range(5):
            assert sampling_bias(rng.permutation(counts), 6) == pytest.approx(base, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=8))
    def test_in_unit_interval(self, counts):
        if sum(counts) < 1:
            counts[0] += 1
        value = sampling_bias(counts, len(counts))
        assert -1e-12 <= value <= 1.0 + 1e-12

    def test_empty_errors(self):
        with pytest.raises(DataError):
            sampling_bias([0, 0], 2)


class TestMce:
    def test_all_zero(self):
        assert mce([0.0, 0.0]) == 0.0

    def test_constant_error(self):
        assert mce([0.37, 0.37, 0.37]) == pytest.approx(0.37, abs=1e-12)

    def test_mean_of_two_cells(self):
        assert mce([0.1, 0.3]) == pytest.approx(0.2, abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(DataError):
            mce([])


class TestQueryCost:
    def test_from_snapshots(self):
        cost = QueryCost.from_snapshots(10, 25, 1.0, 1.5)
        assert cost.forward_passes == 15
        assert cost.wall_ms == pytest.approx(500.0)


class TestIterationReport:
    def test_dict_has_schema_fields(self):
        report = IterationReport(iteration=1, labeled_count=100, accuracy=0.9,
                                 ece=0.05, nll=0.3, brier=0.2, sampling_bias=0.1,
                                 auroc_ood=0.8, mce=0.25)
        d = report.to_dict()
        for key in ("iteration", "labeled_count", "accuracy", "ece", "nll", "brier",
                    "sampling_bias", "auroc_ood", "mce", "per_shift",
                    "forward_passes_used"):
            assert key in d
        assert "query_wall_ms" not in d  # a measurement: RunResult keeps it beside the report
        assert d["mce_normalization"] == "none"

    def test_interrupted_write_leaves_the_old_report_whole(self, tmp_path, monkeypatch):
        reports = [IterationReport(iteration=t, labeled_count=10 * t, accuracy=0.9,
                                   ece=0.05, nll=0.3, brier=0.2, sampling_bias=0.1,
                                   auroc_ood=None, mce=None) for t in (1, 2)]
        path = tmp_path / "report.jsonl"
        write_reports_jsonl(reports, path)
        before = path.read_bytes()
        assert read_reports_jsonl(path)[1]["iteration"] == 2

        calls = {"n": 0}
        real_to_dict = IterationReport.to_dict

        def to_dict_then_die(report):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt  # killed after the first row
            return real_to_dict(report)

        monkeypatch.setattr(IterationReport, "to_dict", to_dict_then_die)
        with pytest.raises(KeyboardInterrupt):
            write_reports_jsonl(reports[:1] + reports, path)
        assert path.read_bytes() == before

    def test_rows_of_older_runs_with_the_wall_time_still_read(self, tmp_path):
        row = IterationReport(iteration=1, labeled_count=10, accuracy=0.9, ece=0.05, nll=0.3,
                              brier=0.2, sampling_bias=0.1, auroc_ood=None,
                              mce=None).to_dict()
        path = tmp_path / "report.jsonl"
        path.write_text(json.dumps(dict(row, query_wall_ms=1.5)) + "\n", encoding="utf-8")
        assert read_reports_jsonl(path) == [dict(row, query_wall_ms=1.5)]


class TestAccuracy:
    def test_simple(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(probs, np.array([0, 1, 1])) == pytest.approx(2 / 3)
