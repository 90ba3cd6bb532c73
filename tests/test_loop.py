import pickle

import numpy as np
import pytest

from conal.data import (SHIFT_KINDS, DatasetSpec, FeatureMatrix, ShiftSpec, apply_shift,
                        balanced_test_spec, generate_mixture, generate_ood)
from conal.errors import ConfigError, DataError, UsageError
from conal.loop import (LoopConfig, Oracle, PoolState, _worker_count, run_active_learning,
                        scoring_context)
from conal.metrics import sampling_bias, write_reports_jsonl
from conal.model import ModelConfig, init_model
from conal.strategies import get_strategy

# the report fields that measure the model; the others describe the acquisition
MODEL_FIELDS = ("accuracy", "ece", "nll", "brier", "auroc_ood", "mce", "per_shift")


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


def _history(pool_state):
    """The ids each iteration acquired, in acquisition order."""
    return [pool_state.universe[rows].tolist() for rows in pool_state.batches]


class TestOracle:
    def test_returns_stored_labels(self):
        pool, _, _ = small_setup()
        oracle = Oracle(pool)
        np.testing.assert_array_equal(oracle.label(np.arange(5)), pool.labels[:5])

    def test_repeated_queries_identical(self):
        pool, _, _ = small_setup()
        oracle = Oracle(pool)
        assert oracle.label([3])[0] == oracle.label([3])[0]

    def test_unknown_id_errors(self):
        pool, _, _ = small_setup()
        for rows in ([pool.n], [-1]):
            with pytest.raises(DataError):
                Oracle(pool).label(rows)


class TestLoopConfig:
    def test_budget_divisibility(self):
        with pytest.raises(ConfigError):
            quick_loop(budget=55, m=20)

    def test_subset_at_least_m(self):
        with pytest.raises(ConfigError):
            quick_loop(m=20, subset=10)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            quick_loop(strategy="entropi")

    def test_subset_larger_than_pool(self):
        """A subset past the pool is a cap, as a budget past it is: each query
        scores every unlabeled row."""
        pool, test, model = small_setup()
        m = 20
        result = run_active_learning(pool, test, model,
                                     quick_loop("entropy", m=m, subset=pool.n + 1), shifts=[])
        assert [r.labeled_count for r in result.reports] == [20, 40, 60]
        batches = -(-(pool.n - m) // model.batch_size)
        assert result.reports[1].forward_passes_used == batches


def _unmark_labeled(state):
    """A labeled row is marked unlabeled again."""
    state.labeled[state.batches[0][0]] = False


def _mark_unacquired(state):
    """An unlabeled row is marked labeled without being acquired."""
    state.labeled[state.unlabeled_rows[0]] = True


def _repeat_batch(state):
    state.batches.append(state.batches[0].copy())


def _move_row(state):
    """The first batch's last row moves to the second batch."""
    first, second = state.batches
    state.batches[:] = [first[:-1], np.concatenate([first[-1:], second])]


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
        for report, batch in zip(result.reports, _history(result.pool)):
            assert len(batch) == 20
            assert report.labeled_count == report.iteration * 20

    def test_no_id_acquired_twice(self):
        pool, test, model = small_setup()
        result = run_active_learning(pool, test, model, quick_loop("featuresim"),
                                     shifts=[])
        flat = [sid for batch in _history(result.pool) for sid in batch]
        assert len(flat) == len(set(flat))

    def test_acquire_rejects_duplicates(self):
        state = PoolState(universe=np.array(["a", "b", "c"]))
        with pytest.raises(UsageError):
            state.acquire([0, 0])

    def test_acquire_rejects_already_labeled(self):
        state = PoolState(universe=np.array(["a", "b", "c"]))
        state.acquire([0])
        with pytest.raises(UsageError):
            state.acquire([0])

    def test_acquire_rejects_rows_outside_universe(self):
        state = PoolState(universe=np.array(["a", "b", "c"]))
        for rows in ([3], [-1]):
            with pytest.raises(UsageError):
                state.acquire(rows)

    @pytest.mark.parametrize("corrupt, message", [
        (_unmark_labeled, "overlap"),
        (_mark_unacquired, "partition"),
        (_repeat_batch, "acquired twice"),
        (_move_row, "wrong-sized batch"),
    ])
    def test_check_invariants_detects_corruption(self, corrupt, message):
        state = PoolState(universe=np.array([f"s{i}" for i in range(10)]))
        state.acquire([4, 1, 7])
        state.acquire([0, 9, 2])
        state.check_invariants(3, truncated=False)
        corrupt(state)
        with pytest.raises(UsageError, match=message):
            state.check_invariants(3, truncated=False)

    @pytest.mark.parametrize("strategy", ["entropy", "coreset", "featuresim"])
    def test_row_order_is_not_id_order(self, strategy):
        pool, test, model = small_setup()
        ood = generate_ood(DatasetSpec(k=4, d=8, n_per_class=10,
                                       class_separation=4.0, seed=0), 40, 7)
        shifts = [ShiftSpec("additive_gaussian", 3)]
        permuted = pool.take(np.random.default_rng(12).permutation(pool.n))
        reversed_rows = pool.take(np.arange(pool.n)[::-1])
        runs = [run_active_learning(p, test, model, quick_loop(strategy), ood=ood,
                                    shifts=shifts) for p in (pool, permuted, reversed_rows)]
        # generate_mixture's ids ascend with its rows, so that pool is used as given
        assert np.shares_memory(runs[0].pool.universe, pool.ids)
        assert _history(runs[0].pool) == _history(runs[1].pool) == _history(runs[2].pool)
        assert runs[0].reports == runs[1].reports == runs[2].reports

    def test_int_ids_report_as_their_str_twin(self, tmp_path):
        pool, test, model = small_setup()
        ints = np.random.default_rng(4).permutation(pool.n) * 7  # not ascending as text
        reports = []
        for name, ids in (("int", ints), ("str", ints.astype(str))):
            run = run_active_learning(FeatureMatrix(pool.values, ids, pool.labels), test, model,
                                      quick_loop("featuresim"),
                                      shifts=[ShiftSpec("feature_scale", 2)])
            write_reports_jsonl(run.reports, tmp_path / f"{name}.jsonl")
            reports.append(((tmp_path / f"{name}.jsonl").read_bytes(), _history(run.pool)))
        assert reports[0] == reports[1]
        assert all(isinstance(sid, str) for sid in reports[0][1][0])


class TestWorkerCount:
    def test_cpu_count_without_sched_getaffinity(self, monkeypatch):
        import os
        import threading

        monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS, which can fork
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert _worker_count(4) == min(4, os.cpu_count())


class TestRunCells:
    @pytest.mark.parametrize("workers", [2, 1], ids=["forked", "one_worker"])
    def test_results_hold_the_parents_sorted_ids(self, monkeypatch, workers):
        """Every result's ``pool.universe`` is the one id-sorted array the parent
        holds, a forked worker's too, and the results match the one-worker path's."""
        import conal.loop as loop_mod
        from conal.loop import run_cells

        pool, test, model = small_setup()
        pool = pool.take(np.random.default_rng(3).permutation(pool.n))  # ids do not ascend
        cells = [quick_loop("entropy"), quick_loop("featuresim", seed=1),
                 quick_loop("random", seed=2)]
        shifts = [ShiftSpec("additive_gaussian", 3)]
        monkeypatch.setattr(loop_mod, "_worker_count", lambda n: workers)
        results = list(run_cells(pool, test, model, cells, shifts=shifts))
        monkeypatch.undo()
        expected = [run_active_learning(pool, test, model, cell, shifts=shifts)
                    for cell in cells]

        universe = results[0].pool.universe
        np.testing.assert_array_equal(universe, np.sort(pool.ids))
        for result, direct in zip(results, expected):
            assert result.pool.universe is universe
            assert _history(result.pool) == _history(direct.pool)
            assert result.reports == direct.reports
            params = ("wc", "bc", *direct.final_state.encoder_projection_params())
            for name in params:
                np.testing.assert_array_equal(getattr(result.final_state, name),
                                              getattr(direct.final_state, name))


class TestDeterminism:
    def test_identical_history_across_runs(self):
        pool, test, model = small_setup()
        a = run_active_learning(pool, test, model, quick_loop("random", seed=3),
                                shifts=[])
        b = run_active_learning(pool, test, model, quick_loop("random", seed=3),
                                shifts=[])
        assert _history(a.pool) == _history(b.pool)
        for ra, rb in zip(a.reports, b.reports):
            assert ra.accuracy == rb.accuracy
            assert ra.sampling_bias == rb.sampling_bias

    def test_first_batch_strategy_independent(self):
        pool, test, model = small_setup()
        runs = {
            s: run_active_learning(pool, test, model, quick_loop(s, seed=5), shifts=[])
            for s in ("random", "entropy", "featuresim")
        }
        first = {s: _history(r.pool)[0] for s, r in runs.items()}
        assert first["random"] == first["entropy"] == first["featuresim"]

    def test_seed_changes_history(self):
        pool, test, model = small_setup()
        a = run_active_learning(pool, test, model, quick_loop("random", seed=0), shifts=[])
        b = run_active_learning(pool, test, model, quick_loop("random", seed=1), shifts=[])
        assert _history(a.pool) != _history(b.pool)

    def test_run_result_pickle_round_trip(self):
        pool, test, model = small_setup()
        result = run_active_learning(pool, test, model, quick_loop("featuresim"), shifts=[])
        copy = pickle.loads(pickle.dumps(result))
        assert copy.reports == result.reports
        assert len(result.query_wall_ms) == len(result.reports)
        assert copy.query_wall_ms == result.query_wall_ms
        assert _history(copy.pool) == _history(result.pool)
        np.testing.assert_array_equal(copy.pool.labeled, result.pool.labeled)
        for name, value in result.final_state.encoder_projection_params().items():
            np.testing.assert_array_equal(getattr(copy.final_state, name), value)
        passes = result.final_state.forward_pass_count
        assert passes > 0 and copy.final_state.forward_pass_count == passes


class TestBudgetEdges:
    def test_budget_equal_to_pool_consumes_everything(self):
        pool, test, model = small_setup(rho=1.0, n0=30, k=4)  # pool 120
        config = LoopConfig(budget=120, acquisition_size=30, subset_size=120,
                            strategy="random", seed=0)
        result = run_active_learning(pool, test, model, config, shifts=[])
        assert len(result.pool.labeled_ids) == pool.n
        assert len(result.pool.unlabeled_ids) == 0
        assert not result.reports[-1].truncated

    def test_pool_exhaustion_truncates(self):
        pool, test, model = small_setup(rho=1.0, n0=25, k=4)  # pool 100
        config = LoopConfig(budget=160, acquisition_size=40, subset_size=100,
                            strategy="random", seed=0)
        result = run_active_learning(pool, test, model, config, shifts=[])
        assert result.reports[-1].truncated
        assert len(result.pool.labeled_ids) == 100
        assert len(_history(result.pool)[-1]) == 20  # the partial remainder


class TestRepeatedValues:
    def test_coreset_over_repeated_rows_runs_to_its_end(self):
        """Pool rows whose values repeat in groups of 8 (ids distinct) leave a
        subset with fewer distinct features than a batch; k-center still picks
        each row once."""
        ds = DatasetSpec(k=4, d=8, n_per_class=40, imbalance_ratio=1.0,
                         class_separation=4.0, seed=0)
        pool = generate_mixture(ds, id_prefix="tr-")
        first = np.arange(pool.n) // 8 * 8
        pool = FeatureMatrix(pool.values[first], pool.ids, pool.labels[first])
        _, test, model = small_setup()
        result = run_active_learning(pool, test, model, quick_loop("coreset"), shifts=[])
        assert [r.labeled_count for r in result.reports] == [20, 40, 60]


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

    @pytest.mark.parametrize("run", ["past_the_pool", "entropy_per_class"])
    def test_bookkeeping_from_batches_and_labels(self, run):
        """Each report's acquisition fields follow from the batches and the pool's
        labels alone."""
        if run == "past_the_pool":
            pool, test, model = small_setup(rho=1.0, n0=25, k=4)  # pool 100
            config = LoopConfig(budget=160, acquisition_size=40, subset_size=100,
                                strategy="coreset", seed=0)
        else:
            pool, test, model = small_setup()
            config = quick_loop("entropy", force_per_class=True)
        result = run_active_learning(pool, test, model, config, shifts=[])
        label_of = dict(zip(pool.ids.tolist(), pool.labels.tolist()))
        batch_labels = [np.array([label_of[i] for i in ids]) for ids in _history(result.pool)]
        assert len(result.reports) == len(batch_labels)
        assert result.reports[-1].truncated == (run == "past_the_pool")
        for t, report in enumerate(result.reports, start=1):
            labels = np.concatenate(batch_labels[:t])
            assert report.labeled_count == labels.size
            assert report.sampling_bias == sampling_bias(np.bincount(labels, minlength=4), 4)
            assert report.sampling_bias_acquired == sampling_bias(
                np.bincount(batch_labels[t - 1], minlength=4), 4)
            assert report.truncated == (batch_labels[t - 1].size < config.acquisition_size)

    @pytest.mark.parametrize("strategy", ["bald", "featuresim", "fre"])
    def test_evaluate_reproduces_the_last_report(self, strategy):
        """``_evaluate`` on the final model gives the last report's test and OOD
        metrics, and ``_evaluate_shifts`` its ``per_shift`` and ``mce``."""
        from conal.loop import _evaluate, _evaluate_shifts, scoring_context
        from conal.strategies import get_strategy

        pool, test, model = small_setup()
        ood = generate_ood(DatasetSpec(k=4, d=8, n_per_class=10,
                                       class_separation=4.0, seed=0), 40, 7)
        shifts = [ShiftSpec("additive_gaussian", 3), ShiftSpec("feature_scale", 1)]
        config = quick_loop(strategy)
        result = run_active_learning(pool, test, model, config, ood=ood, shifts=shifts)

        state, info = result.final_state, get_strategy(strategy)
        assert state.train_features is None  # dropped once the scoring context held them
        by_id = pool.take(np.argsort(pool.ids))
        np.testing.assert_array_equal(by_id.ids, result.pool.universe)
        ctx = scoring_context(info, state, by_id.take(result.pool.labeled_rows),
                              tau=config.tau)
        last = result.reports[-1]
        metrics = _evaluate(state, test, ood, info, ctx, config.seed, last.iteration)
        [on_shifts] = _evaluate_shifts([state], test, shifts)
        assert not metrics.keys() & on_shifts.keys()
        metrics.update(on_shifts)
        assert sorted(metrics) == sorted(MODEL_FIELDS)
        assert metrics == {name: getattr(last, name) for name in MODEL_FIELDS}

    def test_evaluate_takes_no_bookkeeping(self):
        import inspect

        from conal.loop import _evaluate

        params = inspect.signature(_evaluate).parameters
        assert len(params) <= 8
        assert not params.keys() & {"train_labels", "batch_labels", "n_classes", "cost",
                                    "selection", "truncated"}


class TestEncodeOnce:
    """One iteration encodes each set it reads once: the subset, the test set,
    each shifted test set and the OOD set, and the labeled set for a strategy
    that reads it, or that trains with the contrastive loss: that loss fits its
    classifier on the labeled set's features, and the scorers reuse them. bald's
    dropout passes read raw values, so it encodes no subset or OOD rows."""

    @pytest.mark.parametrize("strategy",
                             ["random", "entropy", "bald", "coreset", "featuresim", "fre"])
    def test_rows_encoded_per_iteration(self, monkeypatch, strategy):
        import hashlib

        import conal.loop
        import conal.model
        from conal.data import apply_shift
        from conal.strategies import get_strategy

        def key(values):
            return hashlib.sha1(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()

        encoded = []
        encode = conal.model.encode_values

        def counting(state, values):
            encoded.append((key(values), len(values)))
            return encode(state, values)

        monkeypatch.setattr(conal.model, "encode_values", counting)
        monkeypatch.setattr(conal.loop, "encode_values", counting)
        pool, test, model = small_setup()
        ood = generate_ood(DatasetSpec(k=4, d=8, n_per_class=10,
                                       class_separation=4.0, seed=0), 40, 7)
        shifts = [ShiftSpec("additive_gaussian", 3), ShiftSpec("feature_scale", 1)]
        config = quick_loop(strategy)
        run_active_learning(pool, test, model, config, ood=ood, shifts=shifts)

        info, iterations = get_strategy(strategy), config.budget // config.acquisition_size
        named = {key(test.values): "test", key(ood.values): "ood"}
        named.update({key(apply_shift(test, spec, conal.loop.SHIFT_SEED).values): str(spec)
                      for spec in shifts})
        counts = {name: 0 for name in named.values()}
        other_rows = []
        for digest, rows in encoded:
            if digest in named:
                counts[named[digest]] += 1
            else:
                other_rows.append(rows)
        assert counts == {name: 0 if name == "ood" and info.reads_values else iterations
                          for name in counts}
        labeled_encodes = info.needs_labeled or info.default_loss == "contrastive"
        scores_subset = info.selector != "random" and not info.reads_values
        expected = [config.acquisition_size * t for t in range(1, iterations + 1)
                    for _ in range(labeled_encodes)]
        expected += [config.subset_size] * (iterations - 1) * scores_subset
        assert sorted(other_rows) == sorted(expected)


class TestModes:
    def test_force_per_class_changes_entropy_selection(self):
        pool, test, model = small_setup()
        base = run_active_learning(pool, test, model, quick_loop("entropy"), shifts=[])
        forced = run_active_learning(pool, test, model,
                                     quick_loop("entropy", force_per_class=True),
                                     shifts=[])
        assert _history(base.pool)[0] == _history(forced.pool)[0]
        assert _history(base.pool)[1:] != _history(forced.pool)[1:]

    def test_loss_override(self):
        pool, test, model = small_setup()
        result = run_active_learning(pool, test, model,
                                     quick_loop("random", loss_override="contrastive"),
                                     shifts=[])
        assert result.final_state.config.loss_kind == "contrastive"

    def test_unlabeled_test_rejected(self):
        pool, test, model = small_setup()
        with pytest.raises(DataError):
            run_active_learning(pool, FeatureMatrix(test.values, test.ids), model,
                                quick_loop("random"), shifts=[])


class TestOwnOodAuroc:
    @pytest.mark.parametrize("strategy", ["featuresim", "fre"])
    def test_a_far_ood_set_ranks_as_ood(self, strategy):
        """The last report's AUROC ranks an OOD set placed far from the labeled features
        (the pool's mixture mirrored through the origin) above the test set, whether the
        strategy selects by min (featuresim) or max (fre)."""
        pool, test, model = small_setup()
        ood = generate_ood(DatasetSpec(k=4, d=8, n_per_class=10, class_separation=4.0,
                                       seed=0), 40, 7)
        result = run_active_learning(pool, test, model, quick_loop(strategy), ood=ood,
                                     shifts=[])
        assert result.reports[-1].auroc_ood > 0.5


class TestShiftedTestSets:
    def test_every_cell_evaluates_on_the_same_shifted_sets(self, monkeypatch):
        """The shifted test sets come from ``loop.SHIFT_SEED``: neither a cell's seed
        nor its strategy changes them."""
        import conal.loop as loop_mod

        pool, test, model = small_setup()
        shifts = [ShiftSpec("additive_gaussian", 3), ShiftSpec("feature_dropout_mask", 2)]
        seen = {spec: [] for spec in shifts}

        def recorded(data, spec, seed):
            shifted = apply_shift(data, spec, seed)
            seen[spec].append(shifted.values)
            return shifted

        monkeypatch.setattr(loop_mod, "apply_shift", recorded)
        for strategy, seed in (("random", 0), ("random", 1), ("entropy", 7)):
            run_active_learning(pool, test, model, quick_loop(strategy, budget=20, seed=seed),
                                shifts=shifts)
        for values in seen.values():
            assert len(values) == 3
            assert all(np.array_equal(values[0], other) for other in values[1:])
            assert not np.array_equal(values[0], test.values)

    def test_one_shifted_set_is_held_at_a_time(self, monkeypatch):
        """Each shifted set is built once per cell, and the sets built before it
        are gone by then, all but at most the one just used."""
        import gc
        import weakref

        import conal.loop as loop_mod

        pool, test, model = small_setup()
        shifts = [ShiftSpec(kind, 2) for kind in SHIFT_KINDS]
        built, alive_at_build = [], []

        def tracked(data, spec, seed):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in built))
            shifted = apply_shift(data, spec, seed)
            built.append(weakref.ref(shifted))
            return shifted

        monkeypatch.setattr(loop_mod, "apply_shift", tracked)
        result = run_active_learning(pool, test, model, quick_loop("entropy"), shifts=shifts)
        assert len(alive_at_build) == len(shifts)
        assert max(alive_at_build) <= 1, f"earlier sets alive at each build: {alive_at_build}"
        assert [len(r.per_shift) for r in result.reports] == [len(shifts)] * 3


class TestScoringContext:
    def test_a_class_with_two_labeled_rows_gets_its_own_subspace(self):
        pool, _, model = small_setup()
        labeled = FeatureMatrix(pool.values[:8], pool.ids[:8], [0, 0, 0, 0, 0, 1, 1, 2])
        ctx = scoring_context(get_strategy("fre"), init_model(model), labeled, tau=2)
        assert sorted(ctx.pca_model.classes) == [0, 1]
        assert ctx.pca_model.classes[1].n_fit == 2
