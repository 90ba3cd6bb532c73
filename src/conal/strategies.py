"""Acquisition scoring functions and sample selectors.

Every strategy is a pure scorer plus a selection rule. Scorers attach scores
to candidate ids; selectors turn scored candidates into exactly M ids with
deterministic ascending-id tie-breaking. The per-class quota selector takes
the best candidates per predicted class and refills any deficit from the
globally best leftovers.

Each strategy's score is defined once, by the scorer in its registry entry;
the loop's query, the loop's OOD scoring and ``conal score`` all call it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels, model
from .errors import ConfigError, DataError, UsageError
from .pca import ClassPcaModel, fre_score, fre_scores

logger = logging.getLogger(__name__)

VALID_STRATEGIES = ("random", "entropy", "bald", "coreset", "featuresim", "fre")


# ---------------------------------------------------------------------------
# scoring functions
# ---------------------------------------------------------------------------


def _check_stochastic_rows(probs: np.ndarray, what: str) -> None:
    sums = probs.sum(axis=-1)
    if probs.size and (np.abs(sums - 1.0).max() > 1e-4 or probs.min() < -1e-12):
        raise DataError(f"{what}: rows are not probability vectors")


def score_entropy(probs: np.ndarray) -> np.ndarray:
    """Predictive entropy -sum_k p_k ln p_k per row; select max."""
    probs = np.asarray(probs, dtype=np.float64)
    _check_stochastic_rows(probs, "entropy scores")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=1)


def score_bald(stochastic: np.ndarray) -> np.ndarray:
    """Mutual information between predictions and the mask ensemble.

    Entropy of the mean predictive minus mean entropy across the tau slices;
    tiny negative values from roundoff clamp to 0. Select max.
    """
    stochastic = np.asarray(stochastic, dtype=np.float64)
    if stochastic.ndim != 3 or stochastic.shape[0] < 2:
        raise UsageError("stochastic tensor must be (tau, n, K) with tau >= 2")
    _check_stochastic_rows(stochastic, "stochastic slices")
    mean_entropy = np.stack([score_entropy(s) for s in stochastic]).mean(axis=0)
    disagreement = score_entropy(stochastic.mean(axis=0)) - mean_entropy
    return np.where(disagreement > 0.0, disagreement, 0.0)


def score_featuresim(z_query: np.ndarray, class_features: np.ndarray,
                     symmetric: bool = False) -> float:
    """Similarity of one query feature to a class's labeled features.

    Maximum dot product between the query and the unit-normalized labeled
    features; the query itself is left unnormalized unless ``symmetric``.
    Low values mark samples unlike everything labeled, so selection is min.
    """
    z_query = np.asarray(z_query, dtype=np.float64)
    refs = np.asarray(class_features, dtype=np.float64)
    if refs.ndim != 2 or refs.shape[0] == 0:
        raise DataError("class_features must be a nonempty 2-D array")
    if symmetric:
        z_query = z_query / max(np.linalg.norm(z_query), 1e-300)
    norms = np.linalg.norm(refs, axis=1)
    unit = refs / np.clip(norms, 1e-300, None)[:, None]
    return float(kernels.max_dot(z_query[None, :], unit)[0])


def featuresim_scores(z_query: np.ndarray, predicted: np.ndarray,
                      labeled_features: np.ndarray, labeled_labels: np.ndarray,
                      symmetric: bool = False) -> np.ndarray:
    """Batched featuresim against each query's predicted class.

    Queries predicted as a class with no labeled features fall back to the
    whole labeled pool (logged).
    """
    z_query = np.asarray(z_query, dtype=np.float64)
    labeled_features = np.asarray(labeled_features, dtype=np.float64)
    if labeled_features.shape[0] == 0:
        raise DataError("labeled pool is empty")
    queries = z_query
    if symmetric:
        queries = z_query / np.clip(np.linalg.norm(z_query, axis=1), 1e-300, None)[:, None]
    norms = np.linalg.norm(labeled_features, axis=1)
    unit = labeled_features / np.clip(norms, 1e-300, None)[:, None]
    scores = np.empty(queries.shape[0])
    for k in np.unique(predicted):
        mask = predicted == k
        refs = unit[labeled_labels == k]
        if refs.shape[0] == 0:
            logger.warning(
                "featuresim: no labeled features for predicted class %d; "
                "scoring %d candidates against the global pool", k, int(mask.sum())
            )
            refs = unit
        scores[mask] = kernels.max_dot(queries[mask], refs)
    return scores


def score_fre(z_query: np.ndarray, k: int, pca_model: ClassPcaModel) -> float:
    """Feature reconstruction error of one query against class k; select max."""
    return fre_score(pca_model, z_query, k)


def fre_scores_batch(z_query: np.ndarray, predicted: np.ndarray, pca_model: ClassPcaModel,
                     fallback: ClassPcaModel | None = None) -> np.ndarray:
    """Batched fre against each query's predicted class.

    Queries predicted as an unfitted class score against ``fallback`` (a
    single-subspace model over the whole labeled pool) when provided.
    """
    z_query = np.asarray(z_query, dtype=np.float64)
    scores = np.empty(z_query.shape[0])
    for k in np.unique(predicted):
        mask = predicted == k
        if pca_model.fitted(int(k)):
            scores[mask] = fre_scores(pca_model, z_query[mask], int(k))
        elif fallback is not None:
            logger.warning(
                "fre: class %d has no fitted subspace; scoring %d candidates "
                "against the pooled subspace", k, int(mask.sum())
            )
            scores[mask] = fre_scores(fallback, z_query[mask], 0)
        else:
            raise UsageError(f"class {k} has no fitted subspace and no fallback was given")
    return scores


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
    symmetric_featuresim: bool
    tau: int
    bald_seed: int = 0  # the loop derives one per call; conal score keeps 0


def _encode_and_predict(state, values):
    z = model.encode_values(state, values)
    probs = model.predict_proba_from_features(state, z)
    return z, probs, probs.argmax(axis=1)


def _entropy_scorer(state, values, ctx):
    _, probs, predicted = _encode_and_predict(state, values)
    return score_entropy(probs), predicted


def _bald_scorer(state, values, ctx):
    tensor = model.stochastic_proba(state, values, ctx.tau, seed=ctx.bald_seed)
    return score_bald(tensor), tensor.mean(axis=0).argmax(axis=1)


def _coreset_scorer(state, values, ctx):
    """Distance to the nearest labeled feature; large means poorly covered."""
    z, _, predicted = _encode_and_predict(state, values)
    return np.sqrt(kernels.nearest_sq_dist(z, ctx.labeled_feats)), predicted


def _featuresim_scorer(state, values, ctx):
    z, _, predicted = _encode_and_predict(state, values)
    return featuresim_scores(z, predicted, ctx.labeled_feats, ctx.labeled_labels,
                             symmetric=ctx.symmetric_featuresim), predicted


def _fre_scorer(state, values, ctx):
    z, _, predicted = _encode_and_predict(state, values)
    return fre_scores_batch(z, predicted, ctx.pca_model, ctx.pca_fallback), predicted


@dataclass(frozen=True)
class StrategyInfo:
    """Static description of a query strategy."""

    name: str
    direction: str | None     # "min" or "max" for score-based strategies
    selector: str             # per_class | global | kcenter | random
    default_loss: str         # training loss the strategy pairs with
    score: Callable           # (state, values, ScoringContext) -> (scores, predicted)
    needs_labeled: bool = False  # the scorer reads the encoded labeled set
    uses_pca: bool = False       # the scorer reads per-class PCA subspaces


STRATEGIES: dict[str, StrategyInfo] = {
    # random has no scoring rule of its own; predictive entropy stands in
    # wherever a score is needed (OOD detection)
    "random": StrategyInfo("random", None, "random", "cross_entropy", _entropy_scorer),
    "entropy": StrategyInfo("entropy", "max", "global", "cross_entropy", _entropy_scorer),
    "bald": StrategyInfo("bald", "max", "global", "cross_entropy", _bald_scorer),
    "coreset": StrategyInfo("coreset", None, "kcenter", "cross_entropy", _coreset_scorer,
                            needs_labeled=True),
    "featuresim": StrategyInfo("featuresim", "min", "per_class", "contrastive",
                               _featuresim_scorer, needs_labeled=True),
    "fre": StrategyInfo("fre", "max", "per_class", "contrastive", _fre_scorer,
                        needs_labeled=True, uses_pca=True),
}


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
class ScoredCandidate:
    sample_id: str
    predicted_class: int
    score: float
    strategy_tag: str = ""


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
    ids: list[str]
    deficit_fills: int
    per_class_taken: dict[int, int] = field(default_factory=dict)


def select_per_class(candidates: list[ScoredCandidate], request: SelectionRequest
                     ) -> SelectionResult:
    """Take the per-class best candidates under equal quotas, then refill.

    Quotas are floor(M/K) per predicted class with the remainder spread
    round-robin by ascending class index. Classes short of their quota leave
    a deficit that is refilled from the globally best unselected candidates.
    Ties break by ascending sample id; exactly min(M, #candidates) ids return.
    """
    for cand in candidates:
        if not np.isfinite(cand.score):
            raise DataError(f"candidate {cand.sample_id!r} has non-finite score")
        if not 0 <= cand.predicted_class < request.k:
            raise DataError(
                f"candidate {cand.sample_id!r} predicted class {cand.predicted_class} "
                f"outside [0, {request.k})"
            )
    if not candidates:
        logger.warning("select_per_class: empty candidate set")
        return SelectionResult([], 0)

    sign = 1.0 if request.direction == "min" else -1.0
    key = lambda c: (sign * c.score, c.sample_id)

    base, remainder = divmod(request.m, request.k)
    quotas = [base + (1 if c < remainder else 0) for c in range(request.k)]

    by_class: dict[int, list[ScoredCandidate]] = {}
    for cand in candidates:
        by_class.setdefault(cand.predicted_class, []).append(cand)

    chosen: list[ScoredCandidate] = []
    chosen_ids: set[str] = set()
    per_class_taken: dict[int, int] = {}
    for c in range(request.k):
        group = sorted(by_class.get(c, []), key=key)[: quotas[c]]
        chosen.extend(group)
        chosen_ids.update(cand.sample_id for cand in group)
        per_class_taken[c] = len(group)

    target = min(request.m, len(candidates))
    deficit_fills = 0
    if len(chosen) < target:
        leftovers = sorted(
            (c for c in candidates if c.sample_id not in chosen_ids), key=key
        )
        for cand in leftovers[: target - len(chosen)]:
            chosen.append(cand)
            per_class_taken[cand.predicted_class] = (
                per_class_taken.get(cand.predicted_class, 0) + 1
            )
            deficit_fills += 1
    return SelectionResult([c.sample_id for c in chosen], deficit_fills, per_class_taken)


def select_global(candidates: list[ScoredCandidate], request: SelectionRequest
                  ) -> SelectionResult:
    """Plain best-M selection in the strategy's direction, ids break ties."""
    sign = 1.0 if request.direction == "min" else -1.0
    ranked = sorted(candidates, key=lambda c: (sign * c.score, c.sample_id))
    picked = ranked[: min(request.m, len(ranked))]
    taken: dict[int, int] = {}
    for cand in picked:
        taken[cand.predicted_class] = taken.get(cand.predicted_class, 0) + 1
    return SelectionResult([c.sample_id for c in picked], 0, taken)


def select_kcenter_greedy(unlabeled_values: np.ndarray, unlabeled_ids: np.ndarray,
                          labeled_values: np.ndarray, m: int) -> list[str]:
    """Farthest-point greedy cover seeded by the labeled features.

    Repeatedly picks the unlabeled point farthest from its nearest center,
    labeled points included as initial centers. With no labeled seeds, the
    first pick is the point farthest from the unlabeled mean. Ties break by
    ascending sample id.
    """
    values = np.asarray(unlabeled_values, dtype=np.float64)
    ids = np.asarray(unlabeled_ids)
    if m > values.shape[0]:
        raise DataError(f"cannot pick {m} of {values.shape[0]} points")
    if m == 0:
        return []
    order = np.argsort(ids)
    values = values[order]
    ids = ids[order]

    labeled_values = np.asarray(labeled_values, dtype=np.float64)
    if labeled_values.shape[0] == 0:
        to_mean = values - values.mean(axis=0)
        first = int(np.argmax(np.einsum("nd,nd->n", to_mean, to_mean)))
        diff = values - values[first]
        min_d2 = np.einsum("nd,nd->n", diff, diff)
        picks = [first]
        if m > 1:
            picks.extend(kernels.kcenter_greedy(values, min_d2, m - 1).tolist())
    else:
        min_d2 = kernels.nearest_sq_dist(values, labeled_values)
        picks = kernels.kcenter_greedy(values, min_d2, m).tolist()
    return [str(ids[i]) for i in picks]


def select_random(ids, m: int, rng: np.random.Generator) -> list[str]:
    """Uniform choice of m ids without replacement, order-independent."""
    ids = np.sort(np.asarray(ids))
    if m > ids.size:
        raise DataError(f"cannot select {m} of {ids.size} ids")
    picked = rng.choice(ids.size, size=m, replace=False)
    return [str(ids[i]) for i in picked]
