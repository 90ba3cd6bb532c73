"""Acquisition scoring functions and sample selectors.

Every strategy is a pure scorer plus a selection rule. Scorers return one
score and one predicted class per candidate row; selectors take parallel
arrays of candidate ids, predicted classes and scores and return exactly M
ids, ranked by ``np.lexsort`` with deterministic ascending-id tie-breaking.
Ids may be any sortable dtype: the loop passes pool row indices, which are
ranks in id order. The per-class quota selector takes the best candidates
per predicted class and refills any deficit from the globally best
leftovers.

Each strategy's score is defined once, by the scorer in its registry entry;
the loop's query, the loop's OOD scoring and ``conal score`` all call it.
A scorer reads the features of the rows it scores, encoded once by its caller;
bald alone reads raw values, as its dropout masks act on the hidden layer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels, model
from .errors import ConfigError, DataError, UsageError
from .pca import ClassPcaModel, fre_scores

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# scoring functions
# ---------------------------------------------------------------------------


def score_entropy(probs: np.ndarray) -> np.ndarray:
    """Predictive entropy -sum_k p_k ln p_k per row; select max."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size and (np.abs(probs.sum(axis=-1) - 1.0).max() > 1e-4 or probs.min() < -1e-12):
        raise DataError("entropy scores: rows are not probability vectors")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(probs)
        terms *= probs
    terms[~(probs > 0.0)] = 0.0
    return -terms.sum(axis=1)


def score_bald(stochastic) -> np.ndarray:
    """Mutual information between predictions and the mask ensemble.

    Entropy of the mean predictive minus mean entropy across the tau slices;
    tiny negative values from roundoff clamp to 0. Select max. ``stochastic``
    is tau >= 2 (n, K) slices, a (tau, n, K) array or any iterable, read once;
    sums in slice order over tau give ``.mean(axis=0)`` bit for bit.
    """
    return _bald(stochastic)[0]


def _bald(stochastic) -> tuple[np.ndarray, np.ndarray]:
    tau = 0
    for tau, probs in enumerate(stochastic, 1):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 2 or (tau > 1 and probs.shape != total.shape):
            raise UsageError("stochastic slices must be (n, K) arrays of one shape")
        entropy = score_entropy(probs)
        total, entropies = (probs, entropy) if tau == 1 else (total + probs, entropies + entropy)
    if tau < 2:
        raise UsageError("stochastic tensor must be (tau, n, K) with tau >= 2")
    total /= tau
    disagreement = score_entropy(total) - entropies / tau
    return np.where(disagreement > 0.0, disagreement, 0.0), total


def score_featuresim(z_query: np.ndarray, class_features: np.ndarray) -> float:
    """Similarity of one query feature to a class's labeled features.

    Maximum dot product between the query and the unit-normalized labeled
    features; the query itself is left unnormalized. Low values mark
    samples unlike everything labeled, so selection is min.
    """
    refs = np.asarray(class_features, dtype=np.float64)
    if refs.ndim != 2 or refs.shape[0] == 0:
        raise DataError("class_features must be a nonempty 2-D array")
    one_class = np.zeros(refs.shape[0], dtype=np.int64)
    return float(featuresim_scores([z_query], one_class[:1], refs, one_class)[0])


def featuresim_scores(z_query: np.ndarray, predicted: np.ndarray,
                      labeled_features: np.ndarray, labeled_labels: np.ndarray) -> np.ndarray:
    """Batched featuresim against each query's predicted class; a class with no labeled
    features falls back to the whole labeled pool (logged)."""
    z_query = np.asarray(z_query, dtype=np.float64)
    labeled_features = np.asarray(labeled_features, dtype=np.float64)
    if labeled_features.shape[0] == 0:
        raise DataError("labeled pool is empty")
    norms = np.linalg.norm(labeled_features, axis=1)
    unit = labeled_features / np.clip(norms, 1e-300, None)[:, None]
    classes = list(_by_predicted_class(
        predicted, {int(k): unit[labeled_labels == k] for k in np.unique(labeled_labels)}, unit,
        "featuresim: no labeled features for predicted class %d; "
        "scoring %d candidates against the global pool"))
    # the query rows of one max_dot block are gathered at a time, and one
    # product buffer, sized for the largest block, serves every block
    steps = [kernels.max_dot_rows(len(refs)) for _, refs in classes]
    work = np.empty(max((min(rows.size, step) * len(refs)
                         for (rows, refs), step in zip(classes, steps)), default=0))
    scores = np.empty(len(predicted))
    for (rows, refs), step in zip(classes, steps):
        for start in range(0, rows.size, step):
            block = rows[start : start + step]
            scores[block] = kernels.max_dot(z_query[block], refs, work)
    return scores


def score_fre(z_query: np.ndarray, k: int, pca_model: ClassPcaModel) -> float:
    """Feature reconstruction error of one query against class k; select max."""
    return float(fre_scores(pca_model, np.asarray(z_query, dtype=np.float64)[None, :], k)[0])


def fre_scores_batch(z_query: np.ndarray, predicted: np.ndarray, pca_model: ClassPcaModel,
                     fallback: ClassPcaModel) -> np.ndarray:
    """Batched fre against each query's predicted class; an unfitted class scores against
    ``fallback``'s class 0, the one subspace over the whole labeled pool."""
    scores = np.empty(len(predicted))
    for rows, sub in _by_predicted_class(
            predicted, pca_model.classes, fallback.classes[0],
            "fre: class %d has no fitted subspace; scoring %d candidates "
            "against the pooled subspace"):
        scores[rows] = sub.fre_scores(z_query, rows)
    return scores


def _by_predicted_class(predicted: np.ndarray, references: dict, pooled, warning: str):
    """Each predicted class's query rows and the reference they score against: its own in
    ``references``, or ``pooled``, with ``warning`` logged, for a class it lacks."""
    for k in np.unique(predicted):
        rows = np.flatnonzero(predicted == k)
        if int(k) not in references:
            logger.warning(warning, k, rows.size)
        yield rows, references.get(int(k), pooled)


# ---------------------------------------------------------------------------
# one scorer per strategy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoringContext:
    """What a scorer reads besides the model and the rows it scores; the
    labeled features are the labeled set encoded by the current model."""

    labeled_feats: np.ndarray | None
    labeled_labels: np.ndarray | None
    pca_model: ClassPcaModel | None
    pca_fallback: ClassPcaModel | None
    tau: int
    bald_seed: int = 0  # the loop derives one per call; conal score keeps 0


def _entropy_scorer(state, z, ctx):
    probs = model.predict_proba_from_features(state, z)
    return score_entropy(probs), probs.argmax(axis=1)


def _bald_scorer(state, values, ctx):
    scores, mean = _bald(model.dropout_passes(state, values, ctx.tau, seed=ctx.bald_seed))
    return scores, mean.argmax(axis=1)


def _coreset_scorer(state, z, ctx):
    """Distance to the nearest labeled feature; large means poorly covered."""
    predicted = model.predict_proba_from_features(state, z).argmax(axis=1)
    return np.sqrt(kernels.nearest_sq_dist(z, ctx.labeled_feats)), predicted


def _featuresim_scorer(state, z, ctx):
    predicted = model.predict_proba_from_features(state, z).argmax(axis=1)
    return featuresim_scores(z, predicted, ctx.labeled_feats, ctx.labeled_labels), predicted


def _fre_scorer(state, z, ctx):
    predicted = model.predict_proba_from_features(state, z).argmax(axis=1)
    return fre_scores_batch(z, predicted, ctx.pca_model, ctx.pca_fallback), predicted


@dataclass(frozen=True)
class StrategyInfo:
    """Static description of a query strategy."""

    name: str
    direction: str | None     # "min" or "max" for score-based strategies
    selector: str             # per_class | global | kcenter | random
    default_loss: str         # training loss the strategy pairs with
    score: Callable           # (state, features, ScoringContext) -> (scores, predicted)
    needs_labeled: bool = False  # the scorer reads the encoded labeled set
    uses_pca: bool = False       # the scorer reads per-class PCA subspaces
    reads_values: bool = False   # the scorer reads raw values, not their features


STRATEGIES: dict[str, StrategyInfo] = {
    # random has no scoring rule of its own; predictive entropy stands in
    # wherever a score is needed (OOD detection)
    "random": StrategyInfo("random", None, "random", "cross_entropy", _entropy_scorer),
    "entropy": StrategyInfo("entropy", "max", "global", "cross_entropy", _entropy_scorer),
    "bald": StrategyInfo("bald", "max", "global", "cross_entropy", _bald_scorer,
                         reads_values=True),
    "coreset": StrategyInfo("coreset", None, "kcenter", "cross_entropy", _coreset_scorer,
                            needs_labeled=True),
    "featuresim": StrategyInfo("featuresim", "min", "per_class", "contrastive",
                               _featuresim_scorer, needs_labeled=True),
    "fre": StrategyInfo("fre", "max", "per_class", "contrastive", _fre_scorer,
                        needs_labeled=True, uses_pca=True),
}
VALID_STRATEGIES = tuple(STRATEGIES)


def get_strategy(name: str) -> StrategyInfo:
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; valid names: {', '.join(VALID_STRATEGIES)}"
        ) from None


# ---------------------------------------------------------------------------
# selectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionRequest:
    m: int
    k: int
    direction: str  # "min" or "max"

    def __post_init__(self):
        if self.direction not in ("min", "max"):
            raise ConfigError(f"direction must be 'min' or 'max', got {self.direction!r}")
        if self.m < 1 or self.k < 1:
            raise ConfigError("m and k must be positive")


@dataclass(frozen=True)
class SelectionResult:
    ids: list
    deficit_fills: int
    per_class_taken: dict[int, int] = field(default_factory=dict)


def _rank(ids, predicted, scores, request: SelectionRequest):
    """Validated candidate arrays and their best-first order (ids break ties)."""
    ids, predicted = np.asarray(ids), np.asarray(predicted, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if ids.ndim != 1 or not ids.shape == predicted.shape == scores.shape:
        raise DataError("ids, predicted classes and scores must be 1-D of one length")
    if not np.isfinite(scores).all():
        raise DataError("a candidate has a non-finite score")
    if ((predicted < 0) | (predicted >= request.k)).any():
        raise DataError(f"a candidate's predicted class is outside [0, {request.k})")
    sign = 1.0 if request.direction == "min" else -1.0
    return ids, predicted, np.lexsort((ids, sign * scores))


def _result(ids, predicted, picks, deficit_fills: int, k: int) -> SelectionResult:
    taken = np.bincount(predicted[picks], minlength=k)
    return SelectionResult(ids[picks].tolist(), deficit_fills,
                           {c: int(n) for c, n in enumerate(taken)})


def select_per_class(ids, predicted, scores, request: SelectionRequest) -> SelectionResult:
    """Take the per-class best candidates under equal quotas, then refill.

    Quotas are floor(M/K) per predicted class with the remainder spread
    round-robin by ascending class index. Classes short of their quota leave
    a deficit that is refilled from the globally best unselected candidates.
    Ties break by ascending id; exactly min(M, #candidates) ids return, per
    class in ascending class order, then the refills.
    """
    ids, predicted, order = _rank(ids, predicted, scores, request)
    if not ids.size:
        logger.warning("select_per_class: empty candidate set")
    base, remainder = divmod(request.m, request.k)
    quotas = base + (np.arange(request.k) < remainder)

    # best-first within each class, classes in ascending order
    grouped = order[np.argsort(predicted[order], kind="stable")]
    counts = np.bincount(predicted, minlength=request.k)
    within = np.arange(ids.size) - np.repeat(np.cumsum(counts) - counts, counts)
    chosen = grouped[within < quotas[predicted[grouped]]]

    taken = np.zeros(ids.size, dtype=bool)
    taken[chosen] = True
    fills = order[~taken[order]][: min(request.m, ids.size) - chosen.size]
    return _result(ids, predicted, np.concatenate([chosen, fills]), fills.size, request.k)


def select_global(ids, predicted, scores, request: SelectionRequest) -> SelectionResult:
    """Plain best-M selection in the strategy's direction, ids break ties."""
    ids, predicted, order = _rank(ids, predicted, scores, request)
    return _result(ids, predicted, order[: request.m], 0, request.k)


def select_kcenter_greedy(unlabeled_values: np.ndarray, unlabeled_ids: np.ndarray,
                          labeled_values: np.ndarray, m: int) -> list:
    """Farthest-point greedy cover seeded by the labeled features.

    Repeatedly picks the unlabeled point farthest from its nearest center,
    labeled points included as initial centers. With no labeled seeds, the
    first pick is the point farthest from the unlabeled mean. Ties break by
    ascending id.
    """
    values = np.asarray(unlabeled_values, dtype=np.float64)
    ids = np.asarray(unlabeled_ids)
    if m > values.shape[0]:
        raise DataError(f"cannot pick {m} of {values.shape[0]} points")
    if m == 0:
        return []
    if not np.all(ids[:-1] < ids[1:]):  # the loop's subset rows already ascend
        order = np.argsort(ids)
        values, ids = values[order], ids[order]

    labeled_values = np.asarray(labeled_values, dtype=np.float64)
    if labeled_values.shape[0] == 0:
        to_mean = values - values.mean(axis=0)
        first = int(np.argmax(np.einsum("nd,nd->n", to_mean, to_mean)))
        diff = values - values[first]
        min_d2 = np.einsum("nd,nd->n", diff, diff)
        min_d2[first] = -np.inf
        picks = [first] + kernels.kcenter_greedy(values, min_d2, m - 1).tolist()
    else:
        min_d2 = kernels.nearest_sq_dist(values, labeled_values)
        picks = kernels.kcenter_greedy(values, min_d2, m).tolist()
    return ids[picks].tolist()


def select_random(ids, m: int, rng: np.random.Generator) -> list:
    """Uniform choice of m ids without replacement, order-independent."""
    ids = np.sort(np.asarray(ids))
    if m > ids.size:
        raise DataError(f"cannot select {m} of {ids.size} ids")
    return ids[rng.choice(ids.size, size=m, replace=False)].tolist()
