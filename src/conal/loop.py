"""The iterative acquire-label-train cycle with a simulated oracle.

Each iteration acquires a batch from the unlabeled pool (uniformly at random
on the first iteration, by the configured query strategy afterwards), reveals
ground-truth labels, retrains the model from scratch on everything labeled so
far, and evaluates the full metric suite. Runs are deterministic per seed;
the initial random batch depends only on the seed, not the strategy, so
strategies fork from identical starting pools.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import FeatureMatrix, ShiftSpec, apply_shift, full_shift_suite
from .errors import ConfigError, DataError
from .metrics import (IterationReport, QueryCost, accuracy, auroc, brier, ece,
                      mce, nll, sampling_bias)
# names imported but not called here stay bound for perfbench/tracing.py to wrap
from .model import (ModelConfig, ModelState, encode_values, init_model,
                    predict_proba_from_features, stochastic_proba, train)
from .pca import ClassPcaModel, fit_class_pca
from .seeding import rng_for
from .strategies import (ScoredCandidate, ScoringContext, SelectionRequest, SelectionResult,
                         StrategyInfo, featuresim_scores, fre_scores_batch, get_strategy,
                         score_bald, score_entropy, select_global,
                         select_kcenter_greedy, select_per_class, select_random)


@dataclass(frozen=True)
class LoopConfig:
    budget: int
    acquisition_size: int
    subset_size: int
    strategy: str
    seed: int = 0
    tau: int = 50
    accumulate_features: bool = False
    force_per_class: bool = False
    loss_override: str | None = None
    symmetric_featuresim: bool = False
    pca_variance_fraction: float | None = None
    pca_components: int | None = None
    shift_seed: int = 20259

    def validate(self) -> None:
        get_strategy(self.strategy)
        if self.acquisition_size < 1:
            raise ConfigError("acquisition_size must be positive")
        if self.budget % self.acquisition_size != 0:
            raise ConfigError(
                f"budget {self.budget} is not divisible by acquisition size "
                f"{self.acquisition_size}"
            )
        if self.subset_size < self.acquisition_size:
            raise ConfigError("subset_size must be at least the acquisition size")
        if self.tau < 2:
            raise ConfigError("tau must be >= 2")

    @property
    def iterations(self) -> int:
        return self.budget // self.acquisition_size


class Oracle:
    """Ground-truth label lookups for the pool universe."""

    def __init__(self, data: FeatureMatrix):
        if data.labels is None:
            raise DataError("oracle needs a fully labeled universe")
        self._labels = {str(sid): int(lbl) for sid, lbl in zip(data.ids, data.labels)}

    def label(self, ids) -> np.ndarray:
        out = np.empty(len(ids), dtype=np.int64)
        for i, sid in enumerate(ids):
            try:
                out[i] = self._labels[str(sid)]
            except KeyError:
                raise DataError(f"unknown sample id {sid!r}") from None
        return out


@dataclass
class PoolState:
    """Disjoint labeled/unlabeled id sets plus per-iteration history."""

    universe: np.ndarray
    labeled_ids: list[str] = field(default_factory=list)
    unlabeled_ids: np.ndarray = None
    history: list[list[str]] = field(default_factory=list)

    def __post_init__(self):
        if self.unlabeled_ids is None:
            self.unlabeled_ids = np.sort(self.universe)

    @property
    def iteration(self) -> int:
        return len(self.history)

    def acquire(self, ids: list[str]) -> None:
        batch = set(ids)
        if len(batch) != len(ids):
            raise DataError("acquisition batch contains duplicates")
        if set(self.labeled_ids) & batch:
            raise DataError("acquisition batch overlaps the labeled pool")
        self.labeled_ids.extend(ids)
        keep = ~np.isin(self.unlabeled_ids, list(batch))
        if keep.sum() != len(self.unlabeled_ids) - len(ids):
            raise DataError("acquisition batch contains ids outside the unlabeled pool")
        self.unlabeled_ids = self.unlabeled_ids[keep]
        self.history.append(list(ids))

    def check_invariants(self, acquisition_size: int, truncated: bool) -> None:
        labeled = set(self.labeled_ids)
        unlabeled = set(str(s) for s in self.unlabeled_ids)
        if labeled & unlabeled:
            raise DataError("labeled and unlabeled pools overlap")
        if labeled | unlabeled != set(str(s) for s in self.universe):
            raise DataError("pools no longer partition the universe")
        if len(labeled) != len(self.labeled_ids):
            raise DataError("a sample was acquired twice")
        full_batches = self.history if not truncated else self.history[:-1]
        if any(len(batch) != acquisition_size for batch in full_batches):
            raise DataError("a non-final iteration acquired a wrong-sized batch")


@dataclass
class RunResult:
    reports: list[IterationReport]
    pool: PoolState
    final_state: ModelState
    truncated: bool
    selection_log: list[dict]


def _derived_seed(seed: int, *tags) -> int:
    return int(rng_for(seed, *tags).integers(0, 2**31 - 1))


def run_active_learning(pool: FeatureMatrix, test: FeatureMatrix,
                        model_config: ModelConfig, loop_config: LoopConfig,
                        ood: FeatureMatrix | None = None,
                        shifts: list[ShiftSpec] | None = None) -> RunResult:
    """Run the full budgeted acquisition cycle and report every iteration.

    ``pool`` must carry ground-truth labels (they are revealed by the
    simulated oracle as batches are acquired); ``test`` is the labeled
    evaluation set. ``shifts`` defaults to the full 4-kind x 5-intensity
    suite evaluated on shifted copies of ``test``.
    """
    loop_config.validate()
    model_config.validate()
    if test.labels is None:
        raise DataError("test set must be labeled")
    if pool.n and loop_config.subset_size > pool.n:
        raise ConfigError("subset_size exceeds the initial pool size")
    strategy = get_strategy(loop_config.strategy)
    loss_kind = loop_config.loss_override or strategy.default_loss
    oracle = Oracle(pool)
    seed = loop_config.seed
    m_target = loop_config.acquisition_size

    if shifts is None:
        shifts = full_shift_suite()
    shifted_tests = [(s, apply_shift(test, s, loop_config.shift_seed)) for s in shifts]

    ids = np.array([str(s) for s in pool.ids])
    row_of = {sid: i for i, sid in enumerate(ids)}
    pool_state = PoolState(universe=ids)
    feature_store: dict[str, np.ndarray] = {}

    state: ModelState | None = None
    ctx: ScoringContext | None = None

    reports: list[IterationReport] = []
    selection_log: list[dict] = []
    truncated = False

    for t in range(1, loop_config.iterations + 1):
        n_unlabeled = len(pool_state.unlabeled_ids)
        if n_unlabeled == 0:
            break
        m_now = min(m_target, n_unlabeled)
        if m_now < m_target:
            truncated = True

        if t == 1:
            acquired = select_random(pool_state.unlabeled_ids, m_now,
                                     rng_for(seed, "acquire-init"))
            cost = QueryCost(0, 0.0)
            selection = SelectionResult(acquired, 0)
        else:
            cost, selection = _score_and_select(
                state, pool, pool_state, row_of, loop_config, strategy, t, m_now, ctx,
            )
        pool_state.acquire(selection.ids)
        pool_state.check_invariants(m_target, truncated)
        selection_log.append({
            "iteration": t,
            "deficit_fills": selection.deficit_fills,
            "per_class_taken": selection.per_class_taken,
        })

        labeled_rows = np.array([row_of[sid] for sid in pool_state.labeled_ids])
        train_labels = oracle.label(pool_state.labeled_ids)
        train_fm = FeatureMatrix(pool.values[labeled_rows],
                                 np.array(pool_state.labeled_ids), train_labels)
        iter_config = replace(model_config, seed=_derived_seed(seed, "model", t),
                              loss_kind=loss_kind, d_in=pool.d)
        state = train(init_model(iter_config), train_fm)

        ctx = _bookkeeping(state, train_fm, strategy, loop_config, feature_store,
                           pool_state, pool, row_of)

        reports.append(_evaluate(
            state, test, ood, shifted_tests, train_labels, pool_state, oracle,
            model_config.n_classes, strategy, seed, cost, selection, t, ctx, truncated,
        ))
        if truncated:
            break

    return RunResult(reports, pool_state, state, truncated, selection_log)


def _score_and_select(state, pool, pool_state, row_of, loop_config, strategy, t, m_now, ctx):
    """Scoring phase: draw a fresh subset, score it, select m_now ids."""
    seed = loop_config.seed
    rng_subset = rng_for(seed, "subset", t)
    n_sub = min(loop_config.subset_size, len(pool_state.unlabeled_ids))
    subset_idx = rng_subset.choice(len(pool_state.unlabeled_ids), size=n_sub, replace=False)
    subset_ids = np.sort(pool_state.unlabeled_ids[subset_idx])
    subset_values = pool.values[[row_of[str(sid)] for sid in subset_ids]]

    passes_before = state.forward_pass_count
    t_before = time.perf_counter()

    if strategy.selector == "random":
        selection = SelectionResult(select_random(subset_ids, m_now, rng_for(seed, "pick", t)), 0)
    elif strategy.selector == "kcenter":
        z_u = encode_values(state, subset_values)
        selection = SelectionResult(
            select_kcenter_greedy(z_u, subset_ids, ctx.labeled_feats, m_now), 0)
    else:
        scores, predicted = strategy.score(
            state, subset_values, replace(ctx, bald_seed=_derived_seed(seed, "bald", t)))
        candidates = [
            ScoredCandidate(str(sid), int(c), float(s), strategy.name)
            for sid, c, s in zip(subset_ids, predicted, scores)
        ]
        request = SelectionRequest(m_now, state.config.n_classes, strategy.direction)
        if strategy.selector == "per_class" or loop_config.force_per_class:
            selection = select_per_class(candidates, request)
        else:
            selection = select_global(candidates, request)

    t_after = time.perf_counter()
    cost = QueryCost.from_snapshots(passes_before, state.forward_pass_count,
                                    t_before, t_after)
    return cost, selection


def _bookkeeping(state, train_fm, strategy, loop_config, feature_store, pool_state,
                 pool, row_of) -> ScoringContext:
    """Per-iteration labeled-feature cache and scoring context.

    By default labeled features are recomputed with the current model; in
    accumulate mode each sample keeps the embedding computed by the first
    model trained after its acquisition.
    """
    # every strategy's OOD scorer can need labeled features, so always maintain them
    if loop_config.accumulate_features:
        new_ids = pool_state.history[-1]
        rows = np.array([row_of[sid] for sid in new_ids])
        new_feats = encode_values(state, pool.values[rows].astype(np.float64))
        for sid, feat in zip(new_ids, new_feats):
            feature_store[sid] = feat
        labeled_feats = np.stack([feature_store[sid] for sid in pool_state.labeled_ids])
    else:
        labeled_feats = encode_values(state, train_fm.values.astype(np.float64))
    return scoring_context(strategy, labeled_feats, train_fm.labels,
                           symmetric_featuresim=loop_config.symmetric_featuresim,
                           pca_components=loop_config.pca_components,
                           pca_variance_fraction=loop_config.pca_variance_fraction,
                           tau=loop_config.tau)


def scoring_context(strategy: StrategyInfo, labeled_feats: np.ndarray | None,
                    labeled_labels: np.ndarray | None, *, symmetric_featuresim: bool = False,
                    pca_components: int | None = None,
                    pca_variance_fraction: float | None = None,
                    tau: int = 50) -> ScoringContext:
    """The scorers' view of an encoded labeled set; defaults match ``LoopConfig``.

    PCA strategies get a subspace per class with at least two labeled rows
    and a pooled subspace over all labeled rows for every other class.
    """
    pca_model = pca_fallback = None
    if strategy.uses_pca:
        kwargs = {}
        if pca_components is not None:
            kwargs["n_components"] = pca_components
        elif pca_variance_fraction is not None:
            kwargs["variance_fraction"] = pca_variance_fraction
        by_class = {int(k): labeled_feats[labeled_labels == k]
                    for k in np.unique(labeled_labels) if (labeled_labels == k).sum() >= 2}
        if by_class:
            pca_model = fit_class_pca(by_class, **kwargs)
        else:
            pca_model = ClassPcaModel(labeled_feats.shape[1], {})
        pca_fallback = fit_class_pca({0: labeled_feats}, **kwargs)
    return ScoringContext(labeled_feats, labeled_labels, pca_model, pca_fallback,
                          symmetric_featuresim, tau)


def _ood_scores(strategy, state, values, ctx, seed, *seed_tag):
    """Score a sample set with the strategy's own scorer, higher = more OOD."""
    scores, _ = strategy.score(state, values,
                               replace(ctx, bald_seed=_derived_seed(seed, *seed_tag)))
    return -scores if strategy.direction == "min" else scores


def _evaluate(state, test, ood, shifted_tests, train_labels, pool_state, oracle,
              n_classes, strategy, seed, cost, selection, t, ctx, truncated):
    test_probs = predict_proba_from_features(
        state, encode_values(state, test.values.astype(np.float64)))
    per_shift = []
    shift_errors = []
    for spec, shifted in shifted_tests:
        probs = predict_proba_from_features(
            state, encode_values(state, shifted.values.astype(np.float64)))
        cell_acc = accuracy(probs, shifted.labels)
        per_shift.append({
            "kind": spec.kind,
            "intensity": spec.intensity,
            "magnitude": spec.magnitude,
            "accuracy": cell_acc,
            "ece": ece(probs, shifted.labels),
        })
        shift_errors.append(1.0 - cell_acc)

    auroc_ood = None
    if ood is not None and ood.n > 0:
        in_scores = _ood_scores(strategy, state, test.values, ctx, seed, "ood-in", t)
        out_scores = _ood_scores(strategy, state, ood.values, ctx, seed, "ood-out", t)
        auroc_ood = auroc(in_scores, out_scores)

    cumulative_counts = np.bincount(train_labels, minlength=n_classes)
    batch_labels = oracle.label(pool_state.history[-1])
    batch_counts = np.bincount(batch_labels, minlength=n_classes)

    return IterationReport(
        iteration=t,
        labeled_count=len(pool_state.labeled_ids),
        accuracy=accuracy(test_probs, test.labels),
        ece=ece(test_probs, test.labels),
        nll=nll(test_probs, test.labels),
        brier=brier(test_probs, test.labels),
        sampling_bias=sampling_bias(cumulative_counts, n_classes),
        auroc_ood=auroc_ood,
        mce=mce(shift_errors) if shift_errors else None,
        per_shift=per_shift,
        query_wall_ms=cost.wall_ms,
        forward_passes_used=cost.forward_passes,
        sampling_bias_acquired=sampling_bias(batch_counts, n_classes),
        deficit_fills=selection.deficit_fills,
        truncated=truncated,
    )
