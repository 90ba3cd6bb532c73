"""Trainable desk-scale model: a small MLP encoder, a two-layer projection
head whose normalized outputs feed the supervised contrastive loss, and a
linear classifier fit on the pre-projection features.

All math runs in float64 with hand-written forward/backward passes. Both
losses train through one minibatch loop, ``_sgd``: shuffled epochs of
momentum SGD with weight decay, where a per-loss step function returns one
batch's loss and gradients and the encoder's forward and backward passes are
shared. The optimizer, ``_SgdMomentum``, packs the arrays it trains into one
flat float64 buffer, weights first and biases last, and rebinds the state's
fields to views of it. A step is then a few whole-buffer operations (gather
the gradients, add weight decay to the weight prefix, update the velocity,
move the weights) that give the same bits as the per-array update. Every
encoder forward batch adds one to ``forward_pass_count`` so query strategies
can be cost-accounted by forward passes rather than wall time. The count is a
plain field, so a trained state, and a whole ``RunResult``, comes back from a
worker process with its pass tally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import FeatureMatrix
from .errors import ConfigError, DataError, UsageError
from .io import read_container, write_container
from .seeding import rng_for

LOSS_KINDS = ("contrastive", "cross_entropy")
MOMENTUM = 0.9
CLASSIFIER_STEPS = 200  # full-batch steps of the classifier fit on frozen features
CLASSIFIER_LR = 1.0


@dataclass(frozen=True)
class ModelConfig:
    """Layer widths and training settings of one model.

    ``epochs`` counts passes of encoded rows over the labeled set, so both
    losses get the same encoder budget: cross-entropy trains ``epochs``
    epochs, and contrastive training, whose epoch encodes two jittered views
    of every row, trains ``(epochs + 1) // 2`` (one epoch at ``epochs = 1``).
    """

    d_in: int
    n_classes: int
    d_hidden: int = 64
    d_feat: int = 32
    d_proj: int = 16
    temperature: float = 0.07
    lr: float = 0.1
    weight_decay: float = 5e-4
    epochs: int = 60
    batch_size: int = 64
    aug_sigma: float = 0.05
    dropout_rate: float = 0.3
    seed: int = 0
    loss_kind: str = "contrastive"

    def validate(self) -> None:
        for name in ("lr", "weight_decay", "aug_sigma", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if self.d_proj > self.d_feat:
            raise ConfigError("d_proj must not exceed d_feat")
        if min(self.d_in, self.d_hidden, self.d_feat, self.d_proj) < 1:
            raise ConfigError("all layer widths must be positive")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        for name in ("lr", "weight_decay", "aug_sigma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass
class ModelState:
    config: ModelConfig
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    v1: np.ndarray
    c1: np.ndarray
    v2: np.ndarray
    c2: np.ndarray
    wc: np.ndarray
    bc: np.ndarray
    training_loss: list = field(default_factory=list)
    forward_pass_count: int = 0
    # encoder features of the rows a contrastive ``train`` fit the classifier
    # on, in their order; not saved in checkpoints
    train_features: np.ndarray | None = None

    def encoder_projection_params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _ENCODER_PROJECTION}


_ENCODER_PROJECTION = ("w1", "b1", "w2", "b2", "v1", "c1", "v2", "c2")


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every weight array's shape: encoder, projection head, classifier."""
    return {"w1": (config.d_in, config.d_hidden), "b1": (config.d_hidden,),
            "w2": (config.d_hidden, config.d_feat), "b2": (config.d_feat,),
            "v1": (config.d_feat, config.d_feat), "c1": (config.d_feat,),
            "v2": (config.d_feat, config.d_proj), "c2": (config.d_proj,),
            "wc": (config.d_feat, config.n_classes), "bc": (config.n_classes,)}


def init_model(config: ModelConfig) -> ModelState:
    """Glorot weights drawn from ``config.seed`` in ``_ENCODER_PROJECTION`` order, zero
    biases, and the zero classifier ``train`` starts from: it predicts 1/K per class."""
    config.validate()
    rng = rng_for(config.seed, "init")

    def glorot(fan_in, fan_out):
        return rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / (fan_in + fan_out))

    return ModelState(config=config, **{
        name: glorot(*shape) if len(shape) == 2 and name != "wc" else np.zeros(shape)
        for name, shape in _param_shapes(config).items()})


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _check_d_in(state: ModelState, values: np.ndarray) -> None:
    if values.ndim != 2 or values.shape[1] != state.config.d_in:
        raise DataError(
            f"input has shape {values.shape}, expected (*, {state.config.d_in})"
        )


def _encoder_forward(state: ModelState, x: np.ndarray):
    """Hidden activations and features of rows x."""
    h = np.tanh(x @ state.w1 + state.b1)
    return h, h @ state.w2 + state.b2


def _batches(state: ModelState, n: int) -> list[slice]:
    """The batch-sized row blocks that one encoder pass over n rows runs."""
    b = state.config.batch_size
    return [slice(start, start + b) for start in range(0, n, b)]


def encode_values(state: ModelState, values: np.ndarray) -> np.ndarray:
    """Encoder features (n, d_feat) in float64; counts one pass per batch.

    Each batch of ``values`` is converted to float64 as it is encoded.
    """
    values = np.asarray(values)
    _check_d_in(state, values)
    out = np.empty((values.shape[0], state.config.d_feat))
    blocks = _batches(state, values.shape[0])
    # one matmul over all rows gives the same bits but ran slower on 2 cores
    # (2000 rows: 1.7-2.4 ms against 1.1-1.6 ms in batch-sized blocks)
    for rows in blocks:
        out[rows] = _encoder_forward(state, np.asarray(values[rows], dtype=np.float64))[1]
    state.forward_pass_count += len(blocks)
    return out


def _unit_rows(p: np.ndarray):
    """Rows of ``p`` scaled to unit length, their norms and the zero-row mask.

    A row that is exactly zero becomes the first unit basis vector, in place,
    and its norm reads 1.
    """
    norms = np.linalg.norm(p, axis=1)
    dead = norms < 1e-300
    if np.any(dead):
        p[dead] = 0.0
        p[dead, 0] = 1.0
        norms[dead] = 1.0
    return p / norms[:, None], norms, dead


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax clipped below at 1e-12 and renormalized, in place."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    np.clip(logits, 1e-12, None, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def predict_proba_from_features(state: ModelState, z: np.ndarray) -> np.ndarray:
    """Class probabilities from precomputed features; no encoder pass. An
    untrained state's zero classifier gives 1/K for every class."""
    logits = np.asarray(z, dtype=np.float64) @ state.wc
    logits += state.bc
    return _softmax(logits)


def dropout_passes(state: ModelState, values: np.ndarray, tau: int, seed: int = 0):
    """Yield the (n, K) probabilities of tau dropout-masked encoder passes.

    Each pass multiplies the encoder hidden layer by an i.i.d. Bernoulli keep
    mask scaled by 1/(1-config.dropout_rate), then classifies as usual. The
    hidden layer does not depend on the mask, so it is computed once, in the
    batch-sized blocks of ``encode_values``; each pass still counts one
    forward pass per block, as it is drawn. A consumer holds one pass at a time.
    """
    if tau < 2:
        raise UsageError(f"tau must be >= 2, got {tau}")
    rate = state.config.dropout_rate
    if rate == 0.0:
        warnings.warn("dropout_rate is 0: all stochastic passes are identical",
                      stacklevel=3)
    values = np.asarray(values)
    _check_d_in(state, values)
    n, cfg = values.shape[0], state.config
    blocks = _batches(state, n)
    hidden = np.empty((n, cfg.d_hidden))
    for rows in blocks:
        hidden[rows] = np.tanh(np.asarray(values[rows], dtype=np.float64) @ state.w1
                              + state.b1)
    rng = rng_for(seed, "stochastic")
    # one block's buffers, reused: its uniform draws become its masked hidden
    # layer. Drawing block by block gives the stream of one (n, d_hidden) draw.
    masked = np.empty((min(n, cfg.batch_size), cfg.d_hidden))
    keep = np.empty(masked.shape, dtype=bool)
    z = np.empty((n, cfg.d_feat))
    for _ in range(tau):
        for rows in blocks:
            h = hidden[rows]
            m, k = masked[:len(h)], keep[:len(h)]
            rng.random(out=m)
            np.greater_equal(m, rate, out=k)
            np.divide(k, 1.0 - rate, out=m)
            m *= h
            z[rows] = m @ state.w2 + state.b2
        state.forward_pass_count += len(blocks)
        yield predict_proba_from_features(state, z)


def stochastic_proba(state: ModelState, values: np.ndarray, tau: int,
                     seed: int = 0) -> np.ndarray:
    """(tau, n, K) probabilities: the passes of ``dropout_passes``, filled in as drawn."""
    out = np.empty((max(tau, 0), len(values), state.config.n_classes))
    for i, probs in enumerate(dropout_passes(state, values, tau, seed)):
        out[i] = probs
    return out


# ---------------------------------------------------------------------------
# supervised contrastive loss
# ---------------------------------------------------------------------------


def make_augmented_batch(values: np.ndarray, labels: np.ndarray, aug_sigma: float,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two jittered views per source row, stacked, and their labels."""
    values = np.asarray(values, dtype=np.float64)
    views = rng.standard_normal((2,) + values.shape)
    views *= aug_sigma
    views += values
    return views.reshape(-1, values.shape[1]), np.concatenate([labels, labels])


def supcon_loss(projections: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    """Supervised contrastive loss over L2-normalized projection rows.

    For each anchor, positives are all other rows sharing its label and the
    softmax denominator runs over every other row. Log-sum-exp is stabilized
    by per-anchor max subtraction; anchors are accumulated in index order.
    """
    loss, _ = _supcon_loss_grad(np.asarray(projections, dtype=np.float64),
                                np.asarray(labels), temperature)
    return loss


def _supcon_loss_grad(p: np.ndarray, labels: np.ndarray, temperature: float):
    if temperature <= 0:
        raise ConfigError("temperature must be positive")
    m = p.shape[0]
    if m < 2:
        raise DataError("contrastive batch needs at least 2 rows")
    sims = p @ p.T
    sims /= temperature
    pos = labels[:, None] == labels[None, :]
    np.fill_diagonal(pos, False)
    pos_counts = pos.sum(axis=1)
    if np.any(pos_counts == 0):
        row = int(np.argmin(pos_counts))
        raise DataError(f"row {row} has no positive in the batch (label {labels[row]})")
    pos_sims = (sims * pos).sum(axis=1)

    # one (m, m) workspace, in place: the similarities with a -inf diagonal,
    # shifted by the row max, exponentiated (exp(-inf) is an exact zero
    # diagonal), normalized to the softmax and turned into d(loss)/d(sims)
    work = sims
    np.fill_diagonal(work, -np.inf)
    row_max = work.max(axis=1)
    work -= row_max[:, None]
    np.exp(work, out=work)
    denom = work.sum(axis=1)
    log_z = row_max + np.log(denom)

    per_anchor = log_z - pos_sims / pos_counts
    loss = max(float(np.sum(per_anchor)), 0.0)

    work /= denom[:, None]
    work -= pos / pos_counts[:, None]
    work += work.T
    grad_p = work @ p
    grad_p /= temperature
    return loss, grad_p


# ---------------------------------------------------------------------------
# full forward/backward through projection + encoder
# ---------------------------------------------------------------------------


def _encoder_backward(state: ModelState, x: np.ndarray, h: np.ndarray, grad_z: np.ndarray):
    """Encoder weight gradients from d(loss)/dz, given the forward pass (h, z) of x."""
    grad_h_pre = (grad_z @ state.w2.T) * (1.0 - h * h)
    return {"w1": x.T @ grad_h_pre, "b1": grad_h_pre.sum(axis=0),
            "w2": h.T @ grad_z, "b2": grad_z.sum(axis=0)}


def contrastive_loss_and_grads(state: ModelState, values: np.ndarray, labels: np.ndarray):
    """Loss and analytic gradients w.r.t. every encoder/projection weight."""
    x = np.asarray(values, dtype=np.float64)
    _check_d_in(state, x)
    h, z = _encoder_forward(state, x)
    q = np.tanh(z @ state.v1 + state.c1)
    p, norms, dead = _unit_rows(q @ state.v2 + state.c2)

    loss, grad_p = _supcon_loss_grad(p, labels, state.config.temperature)

    # through row normalization: d(p_raw) = (g - p (p.g)) / ||p_raw||
    inner = (p * grad_p).sum(axis=1, keepdims=True)
    grad_p_raw = (grad_p - p * inner) / norms[:, None]
    grad_p_raw[dead] = 0.0
    grad_q_pre = (grad_p_raw @ state.v2.T) * (1.0 - q * q)

    grads = _encoder_backward(state, x, h, grad_q_pre @ state.v1.T)
    grads.update(v1=z.T @ grad_q_pre, c1=grad_q_pre.sum(axis=0),
                 v2=q.T @ grad_p_raw, c2=grad_p_raw.sum(axis=0))
    return loss, grads


def _classifier_grads(state: ModelState, z: np.ndarray, labels: np.ndarray):
    """Linear-classifier probabilities on features z, and the gradients of
    their mean cross-entropy w.r.t. the logits and to ``wc`` and ``bc``."""
    n = z.shape[0]
    probs = _softmax(z @ state.wc + state.bc)
    grad_logits = probs.copy()
    grad_logits[np.arange(n), labels] -= 1.0
    grad_logits /= n
    return probs, grad_logits, {"wc": z.T @ grad_logits, "bc": grad_logits.sum(axis=0)}


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

_BIAS_NAMES = {"b1", "b2", "c1", "c2", "bc"}
_CROSS_ENTROPY_TRAINED = ("w1", "b1", "w2", "b2", "wc", "bc")


class _SgdMomentum:
    """Momentum SGD with the config's weight decay on the weights, not the biases.

    The named arrays of ``state`` are copied into one flat buffer, weights
    first and biases last, and the state's fields are rebound to views of it.
    Each element gets the same float64 operations as a per-array update, so
    the bits are the same.
    """

    def __init__(self, state: ModelState, names, lr):
        self.names = sorted(names, key=lambda name: name in _BIAS_NAMES)
        arrays = [getattr(state, name) for name in self.names]
        self.params = np.concatenate([a.ravel() for a in arrays])
        self.grads = np.empty_like(self.params)
        self.velocity: np.ndarray | None = None
        self.n_weights = sum(a.size for name, a in zip(self.names, arrays)
                             if name not in _BIAS_NAMES)
        self.lr = lr
        self.weight_decay = state.config.weight_decay
        offset = 0
        for name, a in zip(self.names, arrays):
            setattr(state, name, self.params[offset:offset + a.size].reshape(a.shape))
            offset += a.size

    def step(self, grads: dict[str, np.ndarray], rows: int | None = None) -> None:
        """Move the weights by ``grads``, first divided by ``rows`` if given."""
        g = np.concatenate([grads[name].ravel() for name in self.names], out=self.grads)
        if rows is not None:
            g /= rows
        g[:self.n_weights] += self.weight_decay * self.params[:self.n_weights]
        if self.velocity is None:
            self.velocity = g.copy()
        else:
            self.velocity *= MOMENTUM
            self.velocity += g
        self.params -= self.lr * self.velocity


def _warn_singleton_classes(labels: np.ndarray) -> None:
    classes, counts = np.unique(labels, return_counts=True)
    singles = classes[counts == 1]
    if singles.size:
        warnings.warn(
            f"classes {singles.tolist()} have a single labeled sample; their two "
            "jittered views pair with each other as the only positive",
            stacklevel=3,
        )


def train(state: ModelState, labeled: FeatureMatrix) -> ModelState:
    """Train in place on a labeled feature matrix and return the state.

    Contrastive mode runs minibatch SGD on the contrastive loss through the
    encoder and projection head, then fits the linear classifier on frozen
    features with full-batch cross-entropy descent; those features stay on the
    state as ``train_features``. Cross-entropy mode trains encoder and
    classifier jointly. Each mode runs the epochs ``ModelConfig`` gives it.
    Deterministic given ``state.config.seed``.
    """
    cfg = state.config
    cfg.validate()
    if labeled.labels is None:
        raise DataError("training data must be labeled")
    if labeled.labels.max(initial=0) >= cfg.n_classes:
        raise DataError("labels exceed configured class count")
    rng = rng_for(cfg.seed, "train")
    x = labeled.values.astype(np.float64)
    y = labeled.labels

    if cfg.loss_kind == "contrastive":
        _warn_singleton_classes(y)
        # an epoch encodes two views of each row
        _sgd(state, x, y, rng, _contrastive_step, _ENCODER_PROJECTION, (cfg.epochs + 1) // 2)
        state.train_features = encode_values(state, x)
        _fit_classifier(state, state.train_features, y)
    else:
        _sgd(state, x, y, rng, _cross_entropy_step, _CROSS_ENTROPY_TRAINED, cfg.epochs)
    _assert_finite(state)
    return state


def _sgd(state: ModelState, x: np.ndarray, y: np.ndarray, rng, step, names,
         epochs: int) -> None:
    """Minibatch momentum SGD of the arrays ``names`` over ``epochs`` shuffled epochs.

    ``step(state, rng, x_batch, y_batch)`` returns one batch's loss, its
    gradients and the row count to divide them by (None: use as they are).
    The learning rate drops x0.1 at 80% of the epochs. Each batch counts
    one forward pass, and each epoch's mean batch loss is appended to
    ``state.training_loss``.
    """
    cfg = state.config
    opt = _SgdMomentum(state, names, cfg.lr)
    n = x.shape[0]
    decay_epoch = math.floor(0.8 * epochs)
    for epoch in range(epochs):
        if epoch == decay_epoch and epoch > 0:
            opt.lr = cfg.lr * 0.1
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads, rows = step(state, rng, x[idx], y[idx])
            state.forward_pass_count += 1
            opt.step(grads, rows)
            epoch_loss += loss
        state.training_loss.append(epoch_loss / max(math.ceil(n / cfg.batch_size), 1))


def _contrastive_step(state: ModelState, rng, x: np.ndarray, y: np.ndarray):
    values, labels = make_augmented_batch(x, y, state.config.aug_sigma, rng)
    loss, grads = contrastive_loss_and_grads(state, values, labels)
    # the loss is a sum over anchors; step with the per-anchor mean so the
    # step size is independent of batch size
    return loss, grads, values.shape[0]


def _cross_entropy_step(state: ModelState, rng, x: np.ndarray, y: np.ndarray):
    x = x + state.config.aug_sigma * rng.standard_normal(x.shape)
    h, z = _encoder_forward(state, x)
    probs, grad_logits, grads = _classifier_grads(state, z, y)
    loss = float(-np.log(probs[np.arange(y.size), y]).mean())
    grads.update(_encoder_backward(state, x, h, grad_logits @ state.wc.T))
    return loss, grads, None


def _fit_classifier(state: ModelState, z: np.ndarray, y: np.ndarray) -> None:
    """Full-batch softmax regression on frozen features (deterministic),
    from the state's classifier: the zero one of ``init_model``."""
    opt = _SgdMomentum(state, ("wc", "bc"), CLASSIFIER_LR)
    for _ in range(CLASSIFIER_STEPS):
        opt.step(_classifier_grads(state, z, y)[2])


def _assert_finite(state: ModelState) -> None:
    for name in _param_shapes(state.config):
        if not np.all(np.isfinite(getattr(state, name))):
            raise DataError(f"non-finite weights in {name} after training")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_model(state: ModelState, path) -> None:
    meta = {"kind": "model", "config": asdict(state.config)}
    write_container(path, meta, {name: getattr(state, name)
                                 for name in _param_shapes(state.config)})


def load_model(path) -> ModelState:
    """Read a checkpoint; a DataError unless its config is valid and it holds every
    array of ``_param_shapes``, the classifier included, in the shape that config gives."""
    meta, arrays = read_container(path)
    if meta.get("kind") != "model":
        raise DataError(f"{path}: container holds {meta.get('kind')!r}, not a model")
    raw = meta.get("config")
    keys = {f.name for f in fields(ModelConfig)}
    if not isinstance(raw, dict) or set(raw) != keys:
        raise DataError(f"{path}: model config must have exactly the keys {sorted(keys)}")
    integer_keys = [f.name for f in fields(ModelConfig) if f.type.startswith("int")]
    if any(type(raw[key]) is not int for key in integer_keys):
        raise DataError(f"{path}: model config values {integer_keys} must be integers")
    config = ModelConfig(**raw)
    try:
        config.validate()
    except (ConfigError, TypeError) as exc:  # TypeError: a value of the wrong type
        raise DataError(f"{path}: invalid model config: {exc}") from None
    shapes = _param_shapes(config)
    if set(arrays) != set(shapes):
        raise DataError(f"{path}: arrays {sorted(arrays)} are not a model's {sorted(shapes)}")
    for name, value in arrays.items():
        if value.shape != shapes[name]:
            raise DataError(f"{path}: array {name} has shape {value.shape}, "
                            f"the config gives {shapes[name]}")
    return ModelState(config=config, **arrays)
