"""The iterative acquire-label-train cycle with a simulated oracle.

Each iteration runs four phases, one job each. ``_score_and_select`` chooses
the batch: uniformly at random on the first iteration, by the configured query
strategy afterwards. ``train`` and ``scoring_context`` fit the model from
scratch on every label the oracle has revealed. ``_evaluate`` measures the
model. ``run_active_learning`` writes the report from those metrics and the
acquisition's own facts: forward passes, class balance and truncation. Runs
are deterministic per seed; the initial random batch depends only on the seed,
not the strategy, so strategies fork from identical starting pools. Each
query's wall time, the one measurement that is not, is kept beside the reports.

Sample ids are ``str``, as every ``FeatureMatrix`` holds them. On entry the
pool is sorted by id, unless its ids already ascend (then it is used as given),
so inside the loop a sample is its row index, and a row's order is its id's
order: the selectors' ascending-id tie-break holds on rows.

``run_cells`` runs a sweep's (strategy, seed) cells on up to one worker
process per usable CPU, each forked from this one. A worker shares the
parent's imports, data and BLAS thread count, so a cell's outputs depend only
on its own config: ``import conal`` sets BLAS to one thread.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import FeatureMatrix, ShiftSpec, apply_shift, full_shift_suite
from .errors import ConfigError, DataError, UsageError
from .metrics import (IterationReport, QueryCost, accuracy, auroc, brier, ece,
                      mce, nll, sampling_bias)
# names imported but not called here stay bound for perfbench/tracing.py to wrap
from .model import (LOSS_KINDS, ModelConfig, ModelState, encode_values, init_model,
                    predict_proba_from_features, stochastic_proba, train)
from .pca import ClassPcaModel, fit_class_pca
from .seeding import rng_for
from .strategies import (ScoringContext, SelectionRequest, SelectionResult,
                         StrategyInfo, featuresim_scores, fre_scores_batch, get_strategy,
                         score_bald, score_entropy, select_global,
                         select_kcenter_greedy, select_per_class, select_random)

SHIFT_SEED = 20259  # every cell evaluates on the same shifted test sets


@dataclass(frozen=True)
class LoopConfig:
    budget: int
    acquisition_size: int
    subset_size: int
    strategy: str
    seed: int = 0
    tau: int = 50
    force_per_class: bool = False
    loss_override: str | None = None

    def validate(self) -> None:
        get_strategy(self.strategy)
        if self.acquisition_size < 1:
            raise ConfigError("acquisition_size must be positive")
        if self.budget < 1 or self.budget % self.acquisition_size != 0:
            raise ConfigError(
                f"budget {self.budget} is not a positive multiple of acquisition size "
                f"{self.acquisition_size}"
            )
        if self.subset_size < self.acquisition_size:
            raise ConfigError("subset_size must be at least the acquisition size")
        if self.tau < 2:
            raise ConfigError("tau must be >= 2")
        if self.loss_override is not None and self.loss_override not in LOSS_KINDS:
            raise ConfigError(f"loss_override must be one of {LOSS_KINDS}")


class Oracle:
    """Ground-truth label lookups by row of the pool universe."""

    def __init__(self, data: FeatureMatrix):
        if data.labels is None:
            raise DataError("oracle needs a fully labeled universe")
        self._labels = data.labels

    def label(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self._labels.size):
            raise DataError(f"sample rows outside [0, {self._labels.size})")
        return self._labels[rows]


@dataclass
class PoolState:
    """Labeled mask and per-iteration batches over an id-sorted universe.

    Inside the loop a sample is its row in ``universe``, which is also its
    rank in id order. ``labeled_ids``, ``unlabeled_ids`` and ``history`` read
    the same state out as ids.
    """

    universe: np.ndarray
    labeled: np.ndarray = field(init=False)
    batches: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.labeled = np.zeros(self.universe.size, dtype=bool)

    @property
    def labeled_rows(self) -> np.ndarray:
        """Labeled rows in acquisition order."""
        return np.concatenate(self.batches) if self.batches else np.empty(0, np.int64)

    @property
    def unlabeled_rows(self) -> np.ndarray:
        return np.flatnonzero(~self.labeled)

    @property
    def labeled_ids(self) -> list[str]:
        return self.universe[self.labeled_rows].tolist()

    @property
    def unlabeled_ids(self) -> np.ndarray:
        return self.universe[~self.labeled]

    @property
    def history(self) -> list[list[str]]:
        return [self.universe[rows].tolist() for rows in self.batches]

    def acquire(self, rows) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.universe.size):
            raise UsageError("acquisition batch contains rows outside the universe")
        if np.unique(rows).size != rows.size:
            raise UsageError("acquisition batch contains duplicates")
        if self.labeled[rows].any():
            raise UsageError("acquisition batch overlaps the labeled pool")
        self.labeled[rows] = True
        self.batches.append(rows)

    def check_invariants(self, acquisition_size: int, truncated: bool) -> None:
        n = self.universe.size
        times_acquired = np.bincount(self.labeled_rows, minlength=n)
        acquired = times_acquired[:n] > 0
        if (acquired & ~self.labeled).any():
            raise UsageError("labeled and unlabeled pools overlap")
        if times_acquired.size != n or (self.labeled & ~acquired).any():
            raise UsageError("pools no longer partition the universe")
        if times_acquired.max(initial=0) > 1:
            raise UsageError("a sample was acquired twice")
        full_batches = self.batches if not truncated else self.batches[:-1]
        if any(rows.size != acquisition_size for rows in full_batches):
            raise UsageError("a non-final iteration acquired a wrong-sized batch")


@dataclass
class RunResult:
    reports: list[IterationReport]
    query_wall_ms: list[float]  # one per report: the query's wall time, not deterministic
    pool: PoolState
    final_state: ModelState


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
    strategy = get_strategy(loop_config.strategy)
    loss_kind = loop_config.loss_override or strategy.default_loss
    # from here on a sample is its row, and rows ascend with ids
    if not np.all(pool.ids[:-1] < pool.ids[1:]):
        pool = pool.take(np.argsort(pool.ids))
    oracle = Oracle(pool)
    seed = loop_config.seed
    m = loop_config.acquisition_size
    # every batch size, fixed up front: a budget past the pool ends on a short batch
    sizes = [min(m, pool.n - s) for s in range(0, min(loop_config.budget, pool.n), m)]

    if shifts is None:
        shifts = full_shift_suite()
    shifted_tests = [(s, apply_shift(test, s, SHIFT_SEED)) for s in shifts]

    pool_state = PoolState(universe=pool.ids)
    k = model_config.n_classes

    state: ModelState | None = None
    ctx: ScoringContext | None = None
    reports: list[IterationReport] = []
    query_wall_ms: list[float] = []

    for t, m_now in enumerate(sizes, start=1):
        truncated = m_now < m  # only the last batch can be short
        cost, selection = _score_and_select(state, pool, pool_state, loop_config, strategy,
                                            t, m_now, ctx)
        pool_state.acquire(selection.ids)
        pool_state.check_invariants(m, truncated)

        labeled_rows = pool_state.labeled_rows
        train_labels = oracle.label(labeled_rows)  # in acquisition order: the batch is last
        train_fm = FeatureMatrix(pool.values[labeled_rows], pool.ids[labeled_rows],
                                 train_labels)
        iter_config = replace(model_config, seed=_derived_seed(seed, "model", t),
                              loss_kind=loss_kind, d_in=pool.d)
        state = train(init_model(iter_config), train_fm)
        ctx = scoring_context(strategy, state, train_fm, tau=loop_config.tau,
                              feats=state.train_features)

        reports.append(IterationReport(
            iteration=t,
            labeled_count=train_labels.size,
            sampling_bias=sampling_bias(np.bincount(train_labels, minlength=k), k),
            sampling_bias_acquired=sampling_bias(
                np.bincount(train_labels[-m_now:], minlength=k), k),
            forward_passes_used=cost.forward_passes,
            deficit_fills=selection.deficit_fills,
            truncated=truncated,
            **_evaluate(state, test, ood, shifted_tests, strategy, ctx, seed, t),
        ))
        query_wall_ms.append(cost.wall_ms)

    return RunResult(reports, query_wall_ms, pool_state, state)


def _worker_count(n_cells: int) -> int:
    """One worker process per usable CPU, and never more than there are cells.

    One where the platform cannot fork, or where another thread runs: a
    forked worker could inherit a lock that thread holds.
    """
    import multiprocessing
    import threading

    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)  # macOS can fork but has none
    return min(n_cells, len(affinity(0)) if affinity else os.cpu_count() or 1)


def run_cells(pool: FeatureMatrix, test: FeatureMatrix, model_config: ModelConfig,
              cells: list[LoopConfig], ood: FeatureMatrix | None = None,
              shifts: list[ShiftSpec] | None = None) -> list[RunResult | BaseException]:
    """Run ``run_active_learning`` for every cell on the same data and model.

    Returns one entry per cell, in cell order: the cell's ``RunResult``, or
    the exception it raised. Every cell runs, whichever fail. With one
    worker the cells run here, one after another. With more, they run in
    worker processes forked from this one, one cell per task. A worker
    inherits the inputs and the BLAS thread count instead of receiving a
    pickled copy, and a cell's exception comes back with its own type.
    """
    workers = _worker_count(len(cells))
    if workers <= 1:
        outcomes = []
        for cell in cells:
            try:
                outcomes.append(run_active_learning(pool, test, model_config, cell,
                                                    ood=ood, shifts=shifts))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # every worker forks at the first submit, before the executor starts a thread
    inputs = (pool, test, model_config, ood, shifts)
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             _init_worker, inputs) as executor:
        futures = [executor.submit(_run_cell, cell) for cell in cells]
        return [future.exception() or future.result() for future in futures]


_worker_inputs: tuple = ()  # a worker's (pool, test, model_config, ood, shifts)


def _init_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _run_cell(loop_config: LoopConfig) -> RunResult:
    pool, test, model_config, ood, shifts = _worker_inputs
    return run_active_learning(pool, test, model_config, loop_config, ood=ood, shifts=shifts)


def _score_and_select(state, pool, pool_state, loop_config, strategy, t, m_now, ctx):
    """Scoring phase: select m_now rows and say what choosing them cost.

    Before the first model (``state`` None) the rows are a free uniform draw from
    the whole unlabeled pool. After it, a fresh subset is drawn and scored:
    ``subset_size`` rows, or every unlabeled row once fewer are left.
    """
    seed = loop_config.seed
    unlabeled = pool_state.unlabeled_rows
    if state is None:
        return QueryCost(0, 0.0), SelectionResult(
            select_random(unlabeled, m_now, rng_for(seed, "acquire-init")), 0)
    rng_subset = rng_for(seed, "subset", t)
    n_sub = min(loop_config.subset_size, unlabeled.size)
    subset = np.sort(unlabeled[rng_subset.choice(unlabeled.size, size=n_sub, replace=False)])

    passes_before = state.forward_pass_count
    t_before = time.perf_counter()

    if strategy.selector == "random":
        selection = SelectionResult(select_random(subset, m_now, rng_for(seed, "pick", t)), 0)
    else:
        x = scorer_input(strategy, state, pool.values[subset])
        if strategy.selector == "kcenter":
            selection = SelectionResult(
                select_kcenter_greedy(x, subset, ctx.labeled_feats, m_now), 0)
        else:
            scores, predicted = strategy.score(
                state, x, replace(ctx, bald_seed=_derived_seed(seed, "bald", t)))
            request = SelectionRequest(m_now, state.config.n_classes, strategy.direction)
            if strategy.selector == "per_class" or loop_config.force_per_class:
                selection = select_per_class(subset, predicted, scores, request)
            else:
                selection = select_global(subset, predicted, scores, request)

    cost = QueryCost.from_snapshots(passes_before, state.forward_pass_count,
                                    t_before, time.perf_counter())
    return cost, selection


def scoring_context(strategy: StrategyInfo, state: ModelState, labeled: FeatureMatrix | None,
                    *, tau: int, feats: np.ndarray | None = None) -> ScoringContext:
    """The scorers' view of ``labeled`` under ``state``, with bald's ``tau`` passes.

    Strategies that read the labeled set get it encoded, once it is checked to be
    labeled, nonempty and within [0, n_classes): ``feats`` if the caller already has
    ``labeled`` encoded under ``state``, else a fresh encode. PCA strategies also get
    a subspace per class with 2+ labeled rows and a pooled one over all rows for
    every other class.
    """
    if not strategy.needs_labeled:
        return ScoringContext(None, None, None, None, tau)
    labels, k = labeled.labels, state.config.n_classes
    if labels is None or labels.size == 0:
        raise DataError("the labeled set must be labeled and hold at least one row")
    if labels.max() >= k:
        raise DataError(f"labeled classes must lie in [0, {k}) for the model's {k} classes")
    if feats is None:
        feats = encode_values(state, labeled.values)
    pca_model = pca_fallback = None
    if strategy.uses_pca:
        by_class = {int(c): feats[labels == c]
                    for c in np.unique(labels) if (labels == c).sum() >= 2}
        pca_model = fit_class_pca(by_class) if by_class else ClassPcaModel(feats.shape[1], {})
        pca_fallback = fit_class_pca({0: feats})
    return ScoringContext(feats, labels, pca_model, pca_fallback, tau)


def scorer_input(strategy: StrategyInfo, state: ModelState, values: np.ndarray):
    """``strategy.score``'s input: ``values`` if it reads them, else their features."""
    return values if strategy.reads_values else encode_values(state, values)


def _evaluate(state, test, ood, shifted_tests, strategy, ctx, seed, t) -> dict:
    """The model's metrics under ``state``: the ``IterationReport`` fields it measures.

    The test set is encoded once, and so is the OOD set unless the strategy reads
    raw values. OOD AUROC ranks both sets by the strategy's own score, turned so
    that higher means more OOD; ``mce`` is the plain mean error over the shifts.
    """
    def own_scores(x, tag):
        scores, _ = strategy.score(state, x, replace(ctx, bald_seed=_derived_seed(seed, tag, t)))
        return -scores if strategy.direction == "min" else scores

    z_test = encode_values(state, test.values)
    test_probs = predict_proba_from_features(state, z_test)
    auroc_ood = None
    if ood is not None and ood.n > 0:
        in_scores = own_scores(test.values if strategy.reads_values else z_test, "ood-in")
        del z_test  # not held while the OOD and shifted sets are encoded
        out_scores = own_scores(scorer_input(strategy, state, ood.values), "ood-out")
        auroc_ood = auroc(in_scores, out_scores)

    per_shift = []
    for spec, shifted in shifted_tests:
        probs = predict_proba_from_features(state, encode_values(state, shifted.values))
        per_shift.append({
            "kind": spec.kind,
            "intensity": spec.intensity,
            "magnitude": spec.magnitude,
            "accuracy": accuracy(probs, shifted.labels),
            "ece": ece(probs, shifted.labels),
        })

    return {
        "accuracy": accuracy(test_probs, test.labels),
        "ece": ece(test_probs, test.labels),
        "nll": nll(test_probs, test.labels),
        "brier": brier(test_probs, test.labels),
        "auroc_ood": auroc_ood,
        "mce": mce([1.0 - cell["accuracy"] for cell in per_shift]) if per_shift else None,
        "per_shift": per_shift,
    }
