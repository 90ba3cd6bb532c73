"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The active-learning
criteria share one cached set of runs on the long-tailed preset (the default
experiment configuration), so the whole module stays within its budgets.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from conal.config import build_experiment
from conal.data import ShiftSpec, balanced_test_spec, generate_mixture
from conal.loop import LoopConfig, run_active_learning
from conal.metrics import QueryCost, auroc, brier, ece, mce, nll, sampling_bias
from conal.model import ModelConfig, contrastive_loss_and_grads, init_model
from conal.pca import fit_class_pca, fre_scores
from conal.seeding import rng_for
from conal.strategies import (ScoredCandidate, SelectionRequest, score_bald,
                              score_entropy, score_featuresim, score_fre,
                              select_kcenter_greedy, select_per_class,
                              select_random)

warnings.filterwarnings("ignore", category=UserWarning)

LEVEL3_SHIFT = ShiftSpec("additive_gaussian", 3)


def report(criterion, name, passed):
    print(f"\nACCEPTANCE {criterion:>2} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {criterion} ({name}) failed"


# ---------------------------------------------------------------------------
# 1. gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20259)
    worst = 0.0
    h = 1e-5
    for trial in range(20):
        b = int(rng.integers(2, 9))       # sources; batch is 2b rows <= 16
        d = int(rng.integers(2, 7))       # input dim <= 6
        config = ModelConfig(d_in=d, n_classes=3, d_hidden=5, d_feat=min(6, d + 1),
                             d_proj=3, seed=trial)
        state = init_model(config)
        x = rng.standard_normal((2 * b, d))
        labels = np.repeat(rng.integers(0, 3, size=b), 2)
        _, grads = contrastive_loss_and_grads(state, x, labels)
        for name, w in state.encoder_projection_params().items():
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + h
                up, _ = contrastive_loss_and_grads(state, x, labels)
                w[idx] = orig - h
                down, _ = contrastive_loss_and_grads(state, x, labels)
                w[idx] = orig
                fd = (up - down) / (2 * h)
                a = grads[name][idx]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    elapsed = time.perf_counter() - start
    report(1, "gradient oracle", worst < 1e-4 and elapsed < 10.0)


# ---------------------------------------------------------------------------
# 2. PCA identity
# ---------------------------------------------------------------------------


def test_criterion_2_pca_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    scales = np.geomspace(3.0, 0.05, 12)
    feats = {
        0: rng.standard_normal((200, 12)) * scales + 5.0,   # n > D route
        1: rng.standard_normal((8, 12)) * scales,           # Gram route
        2: rng.standard_normal((40, 12)) * scales - 2.0,
    }
    ok = True
    for model in (fit_class_pca(feats, n_components=4),
                  fit_class_pca(feats, variance_fraction=0.9)):
        for k, sub in model.classes.items():
            gram = sub.basis.T @ sub.basis
            ok &= np.abs(gram - np.eye(sub.n_components)).max() < 1e-8
            residuals = fre_scores(model, feats[k], k)
            mean_sq = (residuals ** 2).sum() / (sub.n_fit - 1)
            ok &= abs(mean_sq - sub.discarded_variance) < 1e-8
    elapsed = time.perf_counter() - start
    report(2, "pca identity", ok and elapsed < 5.0)


# ---------------------------------------------------------------------------
# 3. AUROC oracle
# ---------------------------------------------------------------------------


def brute_force_auroc(scores_in, scores_out):
    wins = 0.0
    for out in scores_out:
        for inn in scores_in:
            if out > inn:
                wins += 1.0
            elif out == inn:
                wins += 0.5
    return wins / (len(scores_in) * len(scores_out))


def test_criterion_3_auroc_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n_in = int(rng.integers(1, 201))
        n_out = int(rng.integers(1, 201))
        scores_in = np.round(rng.standard_normal(n_in), 1)     # ties guaranteed
        scores_out = np.round(rng.standard_normal(n_out) + rng.uniform(-1, 1), 1)
        worst = max(worst, abs(auroc(scores_in, scores_out)
                               - brute_force_auroc(scores_in, scores_out)))
    report(3, "auroc oracle", worst < 1e-12)


# ---------------------------------------------------------------------------
# 4. k-center 2-approximation
# ---------------------------------------------------------------------------


def test_criterion_4_kcenter_two_approximation():
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(50):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(1, n))
        points = rng.standard_normal((n, 3))
        ids = np.array([f"p{i:02d}" for i in range(n)])
        picks = select_kcenter_greedy(points, ids, np.zeros((0, 3)), m)
        chosen = points[[int(p[1:]) for p in picks]]
        d2 = ((points[:, None, :] - chosen[None]) ** 2).sum(axis=2)
        greedy_radius = np.sqrt(d2.min(axis=1).max())

        pair_d2 = ((points[:, None, :] - points[None]) ** 2).sum(axis=2)
        best = min(
            pair_d2[:, subset].min(axis=1).max()
            for subset in itertools.combinations(range(n), m)
        )
        ok &= greedy_radius <= 2.0 * np.sqrt(best) + 1e-9
    report(4, "k-center 2-approximation", ok)


# ---------------------------------------------------------------------------
# 5. query cost model
# ---------------------------------------------------------------------------


def test_criterion_5_cost_model():
    # pool of 10560 (balanced), subset 10000, feature dim 32, tau = 50
    from conal.data import DatasetSpec
    ds = DatasetSpec(k=10, d=32, n_per_class=1056, imbalance_ratio=1.0,
                     class_separation=4.5, noise_sigma=1.0, seed=3)
    pool = generate_mixture(ds, id_prefix="tr-")
    test = generate_mixture(balanced_test_spec(ds, 20), id_prefix="te-")
    model = ModelConfig(d_in=32, n_classes=10, epochs=3, batch_size=64,
                        temperature=0.2, seed=0)
    costs = {}
    for strategy in ("entropy", "featuresim", "fre", "bald"):
        config = LoopConfig(budget=200, acquisition_size=100, subset_size=10_000,
                            strategy=strategy, seed=0, tau=50)
        result = run_active_learning(pool, test, model, config, shifts=[])
        second = result.reports[1]
        costs[strategy] = (second.forward_passes_used, second.query_wall_ms)
        print(f"  {strategy}: {second.forward_passes_used} passes, "
              f"{second.query_wall_ms:.1f} ms")
    base = costs["entropy"][0]
    expected_batches = -(-10_000 // 64)  # ceil(n / batch)
    counts_ok = (
        base == expected_batches
        and costs["featuresim"][0] == base
        and costs["fre"][0] == base
        and costs["bald"][0] == 50 * base
    )
    wall_ratio = costs["bald"][1] / costs["featuresim"][1]
    print(f"  wall ratio bald/featuresim = {wall_ratio:.1f}")
    report(5, "query cost model", counts_ok and wall_ratio >= 5.0)


# ---------------------------------------------------------------------------
# 6-9. active-learning claims on the long-tailed preset
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def preset_runs():
    """Every (strategy, seed) cell needed by criteria 6-9, run once."""
    config = build_experiment({})  # the default config IS the rho=50 preset
    ds = config.dataset
    pool = generate_mixture(ds, id_prefix="tr-")
    test = generate_mixture(balanced_test_spec(ds, config.test_n_per_class),
                            id_prefix="te-")
    runs = {}
    start = time.perf_counter()

    def run_cell(strategy, seed, shifts):
        loop = LoopConfig(budget=config.loop.budget,
                          acquisition_size=config.loop.acquisition_size,
                          subset_size=config.loop.subset_size,
                          strategy=strategy, seed=seed)
        runs[(strategy, seed)] = run_active_learning(
            pool, test, config.model, loop, shifts=shifts)

    rep0 = config.seeds  # [0..4]
    for strategy in ("featuresim", "fre", "entropy", "random"):
        for seed in rep0:
            shifts = [LEVEL3_SHIFT] if strategy in ("featuresim", "random") else []
            run_cell(strategy, seed, shifts)
    for rep in range(1, 5):
        for strategy in ("featuresim", "random"):
            for seed in [10 * rep + j for j in range(5)]:
                run_cell(strategy, seed, [])
    elapsed = time.perf_counter() - start
    print(f"\npreset runs: {len(runs)} cells in {elapsed:.0f}s")
    return {"runs": runs, "seeds": rep0, "elapsed": elapsed,
            "m": config.loop.acquisition_size}


def _mean_curve(runs, strategy, seeds, field):
    curves = [[getattr(r, field) for r in runs[(strategy, s)].reports] for s in seeds]
    return np.mean(curves, axis=0)


def test_criterion_6_sampling_bias_claim(preset_runs):
    runs, seeds = preset_runs["runs"], preset_runs["seeds"]
    feat = _mean_curve(runs, "featuresim", seeds, "sampling_bias")
    fre = _mean_curve(runs, "fre", seeds, "sampling_bias")
    ent = _mean_curve(runs, "entropy", seeds, "sampling_bias")
    strictly_lower = all(feat[t] < ent[t] and fre[t] < ent[t]
                         for t in range(1, len(ent)))
    final_halved = feat[-1] < 0.5 * ent[-1] and fre[-1] < 0.5 * ent[-1]
    within_budget = preset_runs["elapsed"] < 600.0
    print(f"  final bias: featuresim={feat[-1]:.4f} fre={fre[-1]:.4f} "
          f"entropy={ent[-1]:.4f}")
    report(6, "sampling bias below entropy", strictly_lower and final_halved
           and within_budget)


def test_criterion_7_imbalanced_accuracy_claim(preset_runs):
    runs = preset_runs["runs"]
    margins = []
    for rep in range(5):
        seeds = [10 * rep + j for j in range(5)] if rep else preset_runs["seeds"]
        feat = np.mean([runs[("featuresim", s)].reports[-1].accuracy for s in seeds])
        rand = np.mean([runs[("random", s)].reports[-1].accuracy for s in seeds])
        margins.append(feat - rand)
    held = sum(margin >= 0.01 for margin in margins)
    print(f"  per-repetition margins: {[f'{m:+.3f}' for m in margins]} "
          f"({held}/5 at >= 1 point)")
    report(7, "accuracy gain over random", held >= 4)


def test_criterion_8_shift_robustness_claim(preset_runs):
    runs, seeds = preset_runs["runs"], preset_runs["seeds"]

    def final_shift_cell(strategy, field):
        values = []
        for seed in seeds:
            cell = runs[(strategy, seed)].reports[-1].per_shift[0]
            assert cell["kind"] == "additive_gaussian" and cell["intensity"] == 3
            values.append(cell[field])
        return float(np.mean(values))

    feat_err = 1.0 - final_shift_cell("featuresim", "accuracy")
    rand_err = 1.0 - final_shift_cell("random", "accuracy")
    feat_ece = final_shift_cell("featuresim", "ece")
    rand_ece = final_shift_cell("random", "ece")
    print(f"  level-3 shift: error featuresim={feat_err:.4f} random={rand_err:.4f}; "
          f"ece featuresim={feat_ece:.4f} random={rand_ece:.4f}")
    report(8, "robustness under shift", feat_err <= rand_err and feat_ece <= rand_ece)


def test_criterion_9_loop_bookkeeping(preset_runs):
    runs, m = preset_runs["runs"], preset_runs["m"]
    violations = 0
    for result in runs.values():
        state = result.pool
        labeled = set(state.labeled_ids)
        unlabeled = set(str(s) for s in state.unlabeled_ids)
        if labeled & unlabeled:
            violations += 1
        if labeled | unlabeled != set(str(s) for s in state.universe):
            violations += 1
        if len(labeled) != len(state.labeled_ids):
            violations += 1
        for t, report_t in enumerate(result.reports, start=1):
            if report_t.labeled_count != t * m:
                violations += 1
    report(9, "loop bookkeeping", violations == 0)


# ---------------------------------------------------------------------------
# 10. metric and strategy fixed points
# ---------------------------------------------------------------------------


def test_criterion_10_fixed_points():
    checks = []

    def close(actual, expected, tol=1e-6):
        checks.append(abs(actual - expected) <= tol)

    # entropy
    close(score_entropy(np.array([[1.0, 0.0, 0.0]]))[0], 0.0)
    close(score_entropy(np.full((1, 4), 0.25))[0], np.log(4.0))
    close(score_entropy(np.array([[0.7, 0.2, 0.1]]))[0], 0.8018185525)

    # bald
    same = np.tile(np.array([[0.3, 0.7]]), (3, 1, 1))
    close(score_bald(same)[0], 0.0)
    close(score_bald(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))[0], np.log(2.0))
    rng = np.random.default_rng(0)
    stacked = rng.dirichlet(np.ones(4), size=(5, 30))
    checks.append(bool((score_bald(stacked)
                        <= score_entropy(stacked.mean(axis=0)) + 1e-12).all()))

    # featuresim
    close(score_featuresim(np.array([3.0, 4.0]), np.array([[3.0, 4.0], [0.0, 1.0]])), 5.0)
    close(score_featuresim(np.array([0.0, 0.0, 2.0]),
                           np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])), 0.0)
    close(score_featuresim(np.array([3.0, 4.0]), np.array([[1.0, 0.0]])), 3.0)

    # fre
    pts = rng.standard_normal((30, 4))
    model = fit_class_pca({0: pts}, n_components=2)
    sub = model.classes[0]
    close(score_fre(sub.mean, 0, model), 0.0)
    close(score_fre(sub.mean + sub.basis @ np.array([1.5, -2.0]), 0, model), 0.0, 1e-9)
    v = rng.standard_normal(4)
    v -= sub.basis @ (sub.basis.T @ v)
    v /= np.linalg.norm(v)
    close(score_fre(sub.mean + 2.0 * v, 0, model), 2.0, 1e-9)

    # per-class selection
    cands = [ScoredCandidate(f"s{k}{j}", k, float(j))
             for k in range(10) for j in range(3)]
    result = select_per_class(cands, SelectionRequest(10, 10, "min"))
    checks.append(sorted(int(s[1]) for s in result.ids) == list(range(10)))
    cands = ([ScoredCandidate("a0", 0, 0.5)]
             + [ScoredCandidate(f"b{j}", 1, float(j)) for j in range(10)])
    result = select_per_class(cands, SelectionRequest(4, 2, "min"))
    checks.append(len(result.ids) == 4 and result.per_class_taken == {0: 1, 1: 3})
    tie = [ScoredCandidate("b", 0, 1.0), ScoredCandidate("a", 0, 1.0)]
    checks.append(select_per_class(tie, SelectionRequest(1, 1, "min")).ids == ["a"])

    # k-center greedy
    ids = np.array([f"p{i}" for i in range(4)])
    picks = select_kcenter_greedy(np.array([[0.0], [1.0], [2.0], [10.0]]), ids,
                                  np.array([[0.0]]), 1)
    checks.append(picks == ["p3"])
    picks = select_kcenter_greedy(rng.standard_normal((5, 2)),
                                  np.array([f"q{i}" for i in range(5)]),
                                  np.zeros((0, 2)), 5)
    checks.append(sorted(picks) == [f"q{i}" for i in range(5)])

    # random selection
    ids = [f"i{j}" for j in range(6)]
    checks.append(sorted(select_random(ids, 6, rng_for(0, "a"))) == sorted(ids))
    checks.append(select_random(ids, 3, rng_for(5, "b"))
                  == select_random(ids, 3, rng_for(5, "b")))
    counts = {sid: 0 for sid in ids[:4]}
    pool = ids[:4]
    for trial in range(10_000):
        counts[select_random(pool, 1, rng_for(trial, "freq"))[0]] += 1
    sigma = np.sqrt(0.25 * 0.75 / 10_000)
    checks.append(all(abs(c / 10_000 - 0.25) <= 3 * sigma for c in counts.values()))

    # ece
    close(ece(np.eye(3)[[0, 1, 2]], np.array([0, 1, 2])), 0.0)
    close(ece(np.array([[0.8, 0.2], [0.8, 0.2]]), np.array([0, 0])), 0.2)
    close(ece(np.full((4, 4), 0.25), np.array([0, 1, 2, 3])), 0.0)

    # brier
    close(brier(np.array([[1.0, 0.0]]), np.array([0])), 0.0)
    close(brier(np.array([[0.5, 0.5]]), np.array([0])), 0.5)
    close(brier(np.array([[1.0, 0.0]]), np.array([1])), 2.0)

    # nll
    close(nll(np.array([[1.0, 0.0]]), np.array([0])), 0.0)
    p = 1.0 / np.e
    close(nll(np.array([[p, 1 - p]]), np.array([0])), 1.0)
    close(nll(np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([0, 1])),
          (-np.log(0.5) - np.log(0.75)) / 2)

    # auroc
    close(auroc([0.1, 0.2], [0.9, 0.8]), 1.0)
    close(auroc([0.5, 0.1], [0.8, 0.3]), 0.75)
    close(auroc([0.3, 0.7], [0.3, 0.7]), 0.5)

    # sampling bias
    close(sampling_bias([5, 5, 5, 5], 4), 0.0)
    close(sampling_bias([10, 0, 0], 3), 1.0)
    close(sampling_bias([3, 1], 2), 0.18872187554086717)

    # mce
    close(mce([0.0, 0.0]), 0.0)
    close(mce([0.37, 0.37, 0.37]), 0.37)
    close(mce([0.1, 0.3]), 0.2)

    # query cost snapshot arithmetic
    cost = QueryCost.from_snapshots(100, 257, 0.0, 0.5)
    checks.append(cost.forward_passes == 157 and abs(cost.wall_ms - 500.0) < 1e-9)

    failed = len(checks) - sum(checks)
    print(f"  {sum(checks)}/{len(checks)} fixed points hold")
    report(10, "metric fixed points", failed == 0)
