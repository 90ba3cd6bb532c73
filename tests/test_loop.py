import warnings

import numpy as np
import pytest

from conal.data import DatasetSpec, ShiftSpec, balanced_test_spec, generate_mixture, generate_ood
from conal.errors import ConfigError, DataError
from conal.loop import LoopConfig, Oracle, PoolState, run_active_learning
from conal.model import ModelConfig

warnings.filterwarnings("ignore", category=UserWarning)


def small_setup(rho=8.0, n0=120, d=8, k=4, sep=4.0, seed=0):
    ds = DatasetSpec(k=k, d=d, n_per_class=n0, imbalance_ratio=rho,
                     class_separation=sep, noise_sigma=1.0, seed=seed)
    pool = generate_mixture(ds, id_prefix="tr-")
    test = generate_mixture(balanced_test_spec(ds, 30), id_prefix="te-")
    model = ModelConfig(d_in=d, n_classes=k, d_hidden=16, d_feat=8, d_proj=4,
                        epochs=4, batch_size=32, lr=0.1, temperature=0.2, seed=0)
    return pool, test, model


def quick_loop(strategy="random", budget=60, m=20, subset=80, seed=0, **kw):
    return LoopConfig(budget=budget, acquisition_size=m, subset_size=subset,
                      strategy=strategy, seed=seed, tau=3, **kw)


class TestOracle:
    def test_returns_stored_labels(self):
        pool, _, _ = small_setup()
        oracle = Oracle(pool)
        ids = [str(s) for s in pool.ids[:5]]
        np.testing.assert_array_equal(oracle.label(ids), pool.labels[:5])

    def test_repeated_queries_identical(self):
        pool, _, _ = small_setup()
        oracle = Oracle(pool)
        ids = [str(pool.ids[3])]
        assert oracle.label(ids)[0] == oracle.label(ids)[0]

    def test_unknown_id_errors(self):
        pool, _, _ = small_setup()
        with pytest.raises(DataError):
            Oracle(pool).label(["nope"])


class TestLoopConfig:
    def test_budget_divisibility(self):
        with pytest.raises(ConfigError):
            quick_loop(budget=55, m=20).validate()

    def test_subset_at_least_m(self):
        with pytest.raises(ConfigError):
            quick_loop(m=20, subset=10).validate()

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            quick_loop(strategy="entropi").validate()

    def test_subset_larger_than_pool(self):
        pool, test, model = small_setup()
        with pytest.raises(ConfigError):
            run_active_learning(pool, test, model,
                                quick_loop(subset=pool.n + 1), shifts=[])


class TestPoolBookkeeping:
    @pytest.mark.parametrize("strategy", ["random", "entropy", "featuresim",
                                          "fre", "coreset", "bald"])
    def test_partition_invariants_per_strategy(self, strategy):
        pool, test, model = small_setup()
        result = run_active_learning(pool, test, model, quick_loop(strategy),
                                     shifts=[])
        state = result.pool
        labeled = set(state.labeled_ids)
        unlabeled = set(str(s) for s in state.unlabeled_ids)
        assert not labeled & unlabeled
        assert labeled | unlabeled == set(str(s) for s in pool.ids)
        assert len(state.labeled_ids) == len(labeled)

    def test_labeled_count_is_t_times_m(self):
        pool, test, model = small_setup()
        result = run_active_learning(pool, test, model, quick_loop("entropy"),
                                     shifts=[])
        for report, batch in zip(result.reports, result.pool.history):
            assert len(batch) == 20
            assert report.labeled_count == report.iteration * 20

    def test_no_id_acquired_twice(self):
        pool, test, model = small_setup()
        result = run_active_learning(pool, test, model, quick_loop("featuresim"),
                                     shifts=[])
        flat = [sid for batch in result.pool.history for sid in batch]
        assert len(flat) == len(set(flat))

    def test_acquire_rejects_duplicates(self):
        state = PoolState(universe=np.array(["a", "b", "c"]))
        with pytest.raises(DataError):
            state.acquire(["a", "a"])

    def test_acquire_rejects_already_labeled(self):
        state = PoolState(universe=np.array(["a", "b", "c"]))
        state.acquire(["a"])
        with pytest.raises(DataError):
            state.acquire(["a"])


class TestDeterminism:
    def test_identical_history_across_runs(self):
        pool, test, model = small_setup()
        a = run_active_learning(pool, test, model, quick_loop("random", seed=3),
                                shifts=[])
        b = run_active_learning(pool, test, model, quick_loop("random", seed=3),
                                shifts=[])
        assert a.pool.history == b.pool.history
        for ra, rb in zip(a.reports, b.reports):
            assert ra.accuracy == rb.accuracy
            assert ra.sampling_bias == rb.sampling_bias

    def test_first_batch_strategy_independent(self):
        pool, test, model = small_setup()
        runs = {
            s: run_active_learning(pool, test, model, quick_loop(s, seed=5), shifts=[])
            for s in ("random", "entropy", "featuresim")
        }
        first = {s: r.pool.history[0] for s, r in runs.items()}
        assert first["random"] == first["entropy"] == first["featuresim"]

    def test_seed_changes_history(self):
        pool, test, model = small_setup()
        a = run_active_learning(pool, test, model, quick_loop("random", seed=0), shifts=[])
        b = run_active_learning(pool, test, model, quick_loop("random", seed=1), shifts=[])
        assert a.pool.history != b.pool.history


class TestBudgetEdges:
    def test_budget_equal_to_pool_consumes_everything(self):
        pool, test, model = small_setup(rho=1.0, n0=30, k=4)  # pool 120
        config = LoopConfig(budget=120, acquisition_size=30, subset_size=120,
                            strategy="random", seed=0)
        result = run_active_learning(pool, test, model, config, shifts=[])
        assert len(result.pool.labeled_ids) == pool.n
        assert len(result.pool.unlabeled_ids) == 0
        assert not result.truncated

    def test_pool_exhaustion_truncates(self):
        pool, test, model = small_setup(rho=1.0, n0=25, k=4)  # pool 100
        config = LoopConfig(budget=160, acquisition_size=40, subset_size=100,
                            strategy="random", seed=0)
        result = run_active_learning(pool, test, model, config, shifts=[])
        assert result.truncated
        assert result.reports[-1].truncated
        assert len(result.pool.labeled_ids) == 100
        assert len(result.pool.history[-1]) == 20  # the partial remainder


class TestReports:
    def test_report_fields_populated(self):
        pool, test, model = small_setup()
        ood = generate_ood(DatasetSpec(k=4, d=8, n_per_class=10,
                                       class_separation=4.0, seed=0), 40, 7)
        shifts = [ShiftSpec("additive_gaussian", 3), ShiftSpec("feature_scale", 1)]
        result = run_active_learning(pool, test, model, quick_loop("fre"),
                                     ood=ood, shifts=shifts)
        for report in result.reports:
            assert 0.0 <= report.accuracy <= 1.0
            assert 0.0 <= report.ece <= 1.0
            assert report.nll >= 0.0 and report.brier >= 0.0
            assert 0.0 <= report.sampling_bias <= 1.0
            assert 0.0 <= report.auroc_ood <= 1.0
            assert report.mce >= 0.0
            assert len(report.per_shift) == 2
            assert report.mce == pytest.approx(
                np.mean([1 - c["accuracy"] for c in report.per_shift]))

    def test_scoring_pass_accounting(self):
        pool, test, model = small_setup()
        entropy = run_active_learning(pool, test, model, quick_loop("entropy"),
                                      shifts=[])
        bald = run_active_learning(pool, test, model, quick_loop("bald"),
                                   shifts=[])
        feat = run_active_learning(pool, test, model, quick_loop("featuresim"),
                                   shifts=[])
        assert entropy.reports[0].forward_passes_used == 0
        for re, rb, rf in zip(entropy.reports[1:], bald.reports[1:], feat.reports[1:]):
            assert re.forward_passes_used > 0
            assert rf.forward_passes_used == re.forward_passes_used
            assert rb.forward_passes_used == 3 * re.forward_passes_used  # tau=3

    def test_quota_histogram_within_deficit(self):
        pool, test, model = small_setup()
        result = run_active_learning(pool, test, model, quick_loop("featuresim"),
                                     shifts=[])
        m, k = 20, 4
        for entry in result.selection_log[1:]:
            taken = entry["per_class_taken"]
            cap = -(-m // k)  # ceil
            for cls, count in taken.items():
                assert count <= cap + entry["deficit_fills"]


class TestModes:
    def test_accumulate_features_mode_runs(self):
        pool, test, model = small_setup()
        result = run_active_learning(pool, test, model,
                                     quick_loop("featuresim", accumulate_features=True),
                                     shifts=[])
        assert len(result.reports) == 3

    def test_force_per_class_changes_entropy_selection(self):
        pool, test, model = small_setup()
        base = run_active_learning(pool, test, model, quick_loop("entropy"), shifts=[])
        forced = run_active_learning(pool, test, model,
                                     quick_loop("entropy", force_per_class=True),
                                     shifts=[])
        assert base.pool.history[0] == forced.pool.history[0]
        assert base.pool.history[1:] != forced.pool.history[1:]

    def test_loss_override(self):
        pool, test, model = small_setup()
        result = run_active_learning(pool, test, model,
                                     quick_loop("random", loss_override="contrastive"),
                                     shifts=[])
        assert result.final_state.trained_loss_kind == "contrastive"

    def test_unlabeled_test_rejected(self):
        pool, test, model = small_setup()
        with pytest.raises(DataError):
            run_active_learning(pool, test.without_labels(), model,
                                quick_loop("random"), shifts=[])
