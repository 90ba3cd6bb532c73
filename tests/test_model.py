import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conal.data import DatasetSpec, FeatureMatrix, generate_mixture
from conal.errors import ConfigError, DataError, UsageError
from conal.model import (LOSS_KINDS, MOMENTUM, ModelConfig, _classifier_grads,
                         _fit_classifier, _sgd, _unit_rows,
                         contrastive_loss_and_grads, dropout_passes, encode_values,
                         init_model, load_model, make_augmented_batch,
                         predict_proba_from_features, save_model, stochastic_proba,
                         supcon_loss, train)
from conal.io import write_container
from conal.seeding import rng_for


def small_config(**overrides):
    base = dict(d_in=4, n_classes=3, d_hidden=8, d_feat=6, d_proj=4,
                epochs=5, batch_size=16, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def fm(values, labels=None, prefix="x"):
    values = np.asarray(values)
    ids = np.array([f"{prefix}{i:05d}" for i in range(values.shape[0])])
    return FeatureMatrix(values, ids, labels)


def predict(state, data):
    return predict_proba_from_features(state, encode_values(state, data.values))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(temperature=0.0).validate()
        with pytest.raises(ConfigError):
            small_config(dropout_rate=1.0).validate()
        with pytest.raises(ConfigError):
            small_config(d_proj=10).validate()  # > d_feat
        with pytest.raises(ConfigError):
            small_config(loss_kind="hinge").validate()


class TestEncode:
    def test_zero_weights_give_zero_features(self):
        state = init_model(small_config())
        state.w1[:] = 0; state.b1[:] = 0; state.w2[:] = 0; state.b2[:] = 0
        out = encode_values(state, np.random.default_rng(0).standard_normal((5, 4)))
        assert np.allclose(out, 0.0)

    def test_empty_input(self):
        state = init_model(small_config())
        out = encode_values(state, np.zeros((0, 4)))
        assert out.shape == (0, 6)
        assert state.forward_pass_count == 0

    def test_identity_configuration_applies_nonlinearity(self):
        config = small_config(d_in=4, d_hidden=4, d_feat=4)
        state = init_model(config)
        state.w1 = np.eye(4); state.b1 = np.zeros(4)
        state.w2 = np.eye(4); state.b2 = np.zeros(4)
        x = np.array([[0.3, -1.2, 0.0, 2.0]])
        out = encode_values(state, x)
        np.testing.assert_allclose(out, np.tanh(x), atol=1e-12)

    def test_forward_pass_counting(self):
        state = init_model(small_config(batch_size=10))
        x = np.zeros((25, 4))
        encode_values(state, x)
        assert state.forward_pass_count == 3  # ceil(25/10)
        encode_values(state, x)
        assert state.forward_pass_count == 6

    def test_dimension_mismatch(self):
        state = init_model(small_config())
        with pytest.raises(DataError):
            encode_values(state, np.zeros((3, 7)))

    def test_batching_does_not_change_output(self):
        x = np.random.default_rng(1).standard_normal((23, 4))
        a = encode_values(init_model(small_config(batch_size=4)), x)
        b = encode_values(init_model(small_config(batch_size=64)), x)
        np.testing.assert_array_equal(a, b)


class TestProject:
    """Row normalization of the projection head's outputs in the contrastive
    forward pass."""

    def test_rows_unit_norm(self):
        p, _, dead = _unit_rows(np.random.default_rng(2).standard_normal((7, 4)))
        np.testing.assert_allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-12)
        assert not dead.any()

    def test_deterministic(self):
        raw = np.random.default_rng(3).standard_normal((4, 4))
        np.testing.assert_array_equal(_unit_rows(raw.copy())[0], _unit_rows(raw.copy())[0])

    def test_pairwise_dots_bounded(self):
        p, _, _ = _unit_rows(np.random.default_rng(4).standard_normal((3, 4)))
        dots = p @ p.T
        assert dots.min() >= -1 - 1e-9 and dots.max() <= 1 + 1e-9

    def test_zero_row_replaced_and_flagged(self):
        raw = np.zeros((3, 4))
        raw[1] = [0.0, 3.0, 0.0, 4.0]
        p, norms, dead = _unit_rows(raw)
        np.testing.assert_array_equal(p, [[1.0, 0, 0, 0], [0, 0.6, 0, 0.8], [1.0, 0, 0, 0]])
        np.testing.assert_array_equal(norms, [1.0, 5.0, 1.0])
        np.testing.assert_array_equal(dead, [True, False, True])


class TestSupconLoss:
    def test_two_rows_same_class_is_zero(self):
        p = np.array([[1.0, 0.0], [0.6, 0.8]])
        assert supcon_loss(p, np.array([0, 0]), 0.07) == 0.0

    def test_four_orthogonal_rows(self):
        # all dots zero: every term is -log(1/3)
        loss = supcon_loss(np.eye(4), np.array([0, 0, 1, 1]), 0.07)
        assert loss == pytest.approx(4 * np.log(3), abs=1e-9)

    def test_high_temperature_limit(self):
        rng = np.random.default_rng(6)
        p = rng.standard_normal((6, 4))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        labels = np.array([0, 0, 1, 1, 2, 2])
        loss = supcon_loss(p, labels, 1e6)
        assert loss == pytest.approx(6 * np.log(5), rel=1e-4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        p = rng.standard_normal((8, 4))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        base = supcon_loss(p, labels, 0.2)
        for _ in range(5):
            perm = rng.permutation(8)
            assert abs(supcon_loss(p[perm], labels[perm], 0.2) - base) < 1e-10

    def test_anchor_without_positive_names_row(self):
        p = np.eye(3)
        with pytest.raises(DataError, match="row 2"):
            supcon_loss(p, np.array([0, 0, 1]), 0.07)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.05, max_value=5.0))
    def test_loss_nonnegative(self, pairs, seed, temperature):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal((2 * pairs, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        labels = np.repeat(np.arange(pairs), 2)
        assert supcon_loss(p, labels, temperature) >= 0.0


class TestGradients:
    def test_matches_central_finite_differences(self):
        # independent oracle: central differences through the whole stack
        rng = np.random.default_rng(99)
        worst = 0.0
        for trial in range(5):
            b = int(rng.integers(2, 5))
            d = int(rng.integers(2, 7))
            config = ModelConfig(d_in=d, n_classes=3, d_hidden=5,
                                 d_feat=min(6, d + 2), d_proj=3, seed=trial)
            state = init_model(config)
            x = rng.standard_normal((2 * b, d))
            labels = np.repeat(rng.integers(0, 3, size=b), 2)
            _, grads = contrastive_loss_and_grads(state, x, labels)
            h = 1e-5
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
        assert worst < 1e-4


class TestTrain:
    def test_separable_two_classes(self):
        rng = np.random.default_rng(10)
        x0 = rng.standard_normal((50, 2)) * 0.4 + [3.0, 0.0]
        x1 = rng.standard_normal((50, 2)) * 0.4 + [-3.0, 0.0]
        x = np.concatenate([x0, x1]).astype(np.float32)
        y = np.array([0] * 50 + [1] * 50)

        # oracle: perceptron converges on linearly separable data
        w = np.zeros(3)
        augmented = np.concatenate([x, np.ones((100, 1))], axis=1).astype(np.float64)
        signs = np.where(y == 0, 1.0, -1.0)
        converged = False
        for _ in range(1000):
            mistakes = 0
            for row, s in zip(augmented, signs):
                if s * (w @ row) <= 0:
                    w += s * row
                    mistakes += 1
            if mistakes == 0:
                converged = True
                break
        assert converged, "oracle says data is not separable"

        data = fm(x, y)
        config = ModelConfig(d_in=2, n_classes=2, d_hidden=16, d_feat=8, d_proj=4,
                             epochs=30, batch_size=32, lr=0.1, seed=1)
        state = train(init_model(config), data)
        probs = predict(state, data)
        assert (probs.argmax(axis=1) == y).mean() >= 0.95

    def test_bit_identical_given_seed(self):
        data = generate_mixture(DatasetSpec(k=3, d=4, n_per_class=20, seed=4))
        config = small_config(epochs=4)
        a = train(init_model(config), data)
        b = train(init_model(config), data)
        for name in a.encoder_projection_params():
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(a.wc, b.wc)

    def test_epochs_zero_keeps_encoder(self):
        data = generate_mixture(DatasetSpec(k=3, d=4, n_per_class=10, seed=5))
        config = small_config(epochs=0)
        fresh = init_model(config)
        before = {k: v.copy() for k, v in fresh.encoder_projection_params().items()}
        state = train(fresh, data)
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(state, name), value)
        assert state.wc is not None  # classifier still fit on random features

    def test_cross_entropy_mode(self):
        data = generate_mixture(DatasetSpec(k=3, d=4, n_per_class=30,
                                            class_separation=4.0, seed=6))
        config = small_config(loss_kind="cross_entropy", epochs=40, lr=0.1)
        state = train(init_model(config), data)
        assert state.config.loss_kind == "cross_entropy"
        probs = predict(state, data)
        assert (probs.argmax(axis=1) == data.labels).mean() > 0.9

    def test_singleton_class_warns_but_trains(self):
        values = np.random.default_rng(8).standard_normal((5, 4)).astype(np.float32)
        labels = np.array([0, 0, 1, 1, 2])
        config = small_config(epochs=2, batch_size=8)
        with pytest.warns(UserWarning, match="single labeled sample"):
            train(init_model(config), fm(values, labels))

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    def test_training_loss_recorded(self, loss_kind):
        data = generate_mixture(DatasetSpec(k=2, d=4, n_per_class=20, seed=9))
        config = small_config(n_classes=2, epochs=3, loss_kind=loss_kind)
        state = train(init_model(config), data)
        epochs = 2 if loss_kind == "contrastive" else 3
        assert len(state.training_loss) == epochs
        assert all(np.isfinite(loss) and loss > 0 for loss in state.training_loss)
        # one pass per minibatch, plus the contrastive classifier's encode of the set
        batches = math.ceil(data.n / config.batch_size)
        encode_passes = batches if loss_kind == "contrastive" else 0
        assert state.forward_pass_count == epochs * batches + encode_passes

    @pytest.mark.parametrize("epochs", [0, 1, 3, 60])
    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    def test_epochs_count_encoded_row_passes(self, loss_kind, epochs):
        """A contrastive epoch encodes two views of each row, so it runs half the
        epochs, rounded up; cross-entropy runs ``model.epochs``."""
        data = generate_mixture(DatasetSpec(k=2, d=4, n_per_class=12, seed=9))
        config = small_config(n_classes=2, epochs=epochs, loss_kind=loss_kind)
        state = train(init_model(config), data)
        ran = (epochs + 1) // 2 if loss_kind == "contrastive" else epochs
        assert len(state.training_loss) == ran
        batches = math.ceil(data.n / config.batch_size)
        encode_passes = batches if loss_kind == "contrastive" else 0
        assert state.forward_pass_count == ran * batches + encode_passes

    @pytest.mark.parametrize("epochs, drop", [(1, None), (7, 5), (10, 8)])
    def test_lr_drops_tenfold_at_80_percent_of_epochs(self, epochs, drop):
        """``_sgd`` steps at ``lr`` until epoch floor(0.8 * epochs), then at lr / 10. A
        step function that returns a unit bias gradient reads each step's rate back from
        the bias it moved: step t moves it by -lr * (1 + MOMENTUM + ... + MOMENTUM**(t-1))."""
        state = init_model(small_config(lr=0.5, batch_size=4))
        seen = []

        def step(state, rng, x, y):
            seen.append(state.bc[0])
            return 0.0, {"bc": np.ones(3)}, None

        _sgd(state, np.zeros((8, 4)), np.zeros(8, np.int64), rng_for(0, "lr"), step,
             ("bc",), epochs)
        seen.append(state.bc[0])
        velocity = np.cumsum(MOMENTUM ** np.arange(len(seen) - 1))
        expected = [0.5 if drop is None or epoch < drop else 0.05
                    for epoch in range(epochs) for _ in range(2)]  # 2 batches an epoch
        np.testing.assert_allclose(-np.diff(seen) / velocity, expected, rtol=1e-9)

    def test_classifier_fit_reaches_a_small_gradient_norm(self):
        """``_fit_classifier``'s full-batch steps end near the minimum of the head's
        objective, weight decay included, on separable features: 20 steps, or a rate of
        0.1, end with a gradient norm over 20 times the bound."""
        rng = np.random.default_rng(0)
        y = np.repeat(np.arange(3), 20)
        z = 0.3 * np.eye(3, 4)[y] + 0.05 * rng.standard_normal((y.size, 4))
        state = init_model(small_config(d_feat=4))
        _fit_classifier(state, z, y)
        grads = _classifier_grads(state, z, y)[2]
        grads["wc"] += state.config.weight_decay * state.wc
        assert np.sqrt(sum((g ** 2).sum() for g in grads.values())) < 1e-3

    def test_train_features_are_the_classifier_encode(self):
        data = generate_mixture(DatasetSpec(k=3, d=4, n_per_class=30, seed=3))
        state = train(init_model(small_config(epochs=2)), data)
        np.testing.assert_array_equal(state.train_features, encode_values(state, data.values))
        ce = train(init_model(small_config(epochs=2, loss_kind="cross_entropy")), data)
        assert ce.train_features is None


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _pin_data(n: int) -> FeatureMatrix:
    """n rows of 4 features over 3 classes; class 2 has a single row."""
    rng = np.random.default_rng(21)
    labels = rng.integers(0, 2, size=n)
    labels[n // 2] = 2
    values = rng.standard_normal((n, 4)) + 2.0 * labels[:, None]
    return fm(values, labels)


class TestKernelPins:
    """SHA-256 pins of trained weights and dropout probabilities.

    Each digest was computed before the training and dropout kernels were
    rewritten for speed; the rewrite must reproduce every bit. A change that
    alters the arithmetic on purpose replaces the digest and says why in
    CHANGES.md.
    """

    TRAIN_PINS = {
        "contrastive": "2fa3d5dc216668bb5c3b8e0b39fc8dbe6e624d2a7857f76e1037448012357f0f",
        "cross_entropy": "b08c9e4ac319d7528c768a19e8152eae3d7e27bba977b38c34d649bb95cee933",
    }
    STOCHASTIC_PINS = {
        0.3: "c25163c311c0bd60da4ca427f745ff11209cac69b7ae31ed2dcd0253de0274a6",
        0.0: "e37bc5d65f950b719dd5b920ee02e8d9eab299e72fab195095395ab37f691a10",
    }

    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    def test_trained_state(self, loss_kind):
        config = small_config(batch_size=64, epochs=4, loss_kind=loss_kind)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = train(init_model(config), _pin_data(150))
        singleton = [w for w in caught if "single labeled sample" in str(w.message)]
        assert len(singleton) == (loss_kind == "contrastive")
        arrays = [getattr(state, name) for name in state.encoder_projection_params()]
        digest = _sha(*arrays, state.wc, state.bc, state.training_loss,
                      [state.forward_pass_count])
        assert digest == self.TRAIN_PINS[loss_kind], f"new digest {digest}"

    @pytest.mark.parametrize("rate", [0.3, 0.0])
    def test_stochastic_proba(self, rate):
        config = small_config(batch_size=64, epochs=2, loss_kind="cross_entropy",
                              dropout_rate=rate)
        state = train(init_model(config), _pin_data(130))
        before = state.forward_pass_count
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tensor = stochastic_proba(state, _pin_data(130).values, tau=5, seed=3)
        assert state.forward_pass_count - before == 5 * math.ceil(130 / 64)
        digest = _sha(tensor)
        assert digest == self.STOCHASTIC_PINS[rate], f"new digest {digest}"


class TestPredictProba:
    def _trained(self):
        data = generate_mixture(DatasetSpec(k=3, d=4, n_per_class=15, seed=11))
        return train(init_model(small_config(epochs=2)), data), data

    def test_rows_sum_to_one(self):
        state, data = self._trained()
        probs = predict(state, data)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert probs.min() > 0.0 and probs.max() < 1.0

    def test_zero_classifier_gives_uniform(self):
        state, data = self._trained()
        state.wc = np.zeros_like(state.wc)
        state.bc = np.zeros_like(state.bc)
        probs = predict(state, data)
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_shift_invariance_of_softmax(self):
        state, _ = self._trained()
        z = np.random.default_rng(12).standard_normal((4, 6))
        base = predict_proba_from_features(state, z)
        state.bc = state.bc + 3.5  # same constant on every logit
        np.testing.assert_allclose(predict_proba_from_features(state, z), base, atol=1e-9)

    def test_two_logit_softmax_value(self):
        state, _ = self._trained()
        state.wc = np.zeros((6, 3)); state.bc = np.array([1.0, 0.0, 0.0])
        probs = predict_proba_from_features(state, np.zeros((1, 6)))
        e = np.exp(1.0)
        np.testing.assert_allclose(probs[0, 0], e / (e + 2), atol=1e-9)

    def test_binary_logits_one_zero(self):
        # softmax of (1, 0) = (e/(e+1), 1/(e+1))
        data = generate_mixture(DatasetSpec(k=2, d=4, n_per_class=10, seed=20))
        state = train(init_model(small_config(n_classes=2, epochs=0)), data)
        state.wc = np.zeros((6, 2)); state.bc = np.array([1.0, 0.0])
        probs = predict_proba_from_features(state, np.zeros((1, 6)))
        e = np.exp(1.0)
        np.testing.assert_allclose(probs[0], [e / (e + 1), 1 / (e + 1)], atol=1e-9)
        assert probs[0, 0] == pytest.approx(0.731, abs=5e-4)

    def test_untrained_state_is_uniform_and_equals_epochs_zero(self):
        """An ``init_model`` state carries the zero classifier: it predicts 1/K for
        every class and is, array for array, cross-entropy ``train`` at epochs = 0."""
        config = small_config(loss_kind="cross_entropy", epochs=0)
        fresh = init_model(config)
        z = np.random.default_rng(3).standard_normal((5, 6))
        np.testing.assert_allclose(predict_proba_from_features(fresh, z), 1.0 / 3.0,
                                   rtol=1e-15, atol=0)
        data = generate_mixture(DatasetSpec(k=3, d=4, n_per_class=10, seed=5))
        trained = train(init_model(config), data)
        for name in [*fresh.encoder_projection_params(), "wc", "bc"]:
            np.testing.assert_array_equal(getattr(trained, name), getattr(fresh, name))
        assert (trained.training_loss, trained.forward_pass_count) == ([], 0)


class TestStochasticProba:
    def _trained(self):
        data = generate_mixture(DatasetSpec(k=3, d=4, n_per_class=15, seed=13))
        return train(init_model(small_config(epochs=2)), data), data

    def test_rate_zero_slices_identical(self):
        state, data = self._trained()
        state.config = dataclasses.replace(state.config, dropout_rate=0.0)
        with pytest.warns(UserWarning, match="identical"):
            tensor = stochastic_proba(state, data.values, tau=3, seed=0)
        np.testing.assert_array_equal(tensor[0], tensor[1])
        np.testing.assert_array_equal(tensor[0], tensor[2])

    def test_seed_reproducible(self):
        state, data = self._trained()
        a = stochastic_proba(state, data.values, tau=4, seed=5)
        b = stochastic_proba(state, data.values, tau=4, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_pass_counting_is_tau_times_single(self):
        state, data = self._trained()
        single_before = state.forward_pass_count
        encode_values(state, data.values)
        single = state.forward_pass_count - single_before
        before = state.forward_pass_count
        stochastic_proba(state, data.values, tau=50, seed=1)
        assert state.forward_pass_count - before == 50 * single

    def test_slices_row_stochastic(self):
        state, data = self._trained()
        state.config = dataclasses.replace(state.config, dropout_rate=0.4)
        tensor = stochastic_proba(state, data.values, tau=3, seed=2)
        np.testing.assert_allclose(tensor.sum(axis=2), 1.0, atol=1e-6)

    def test_a_pass_scales_the_kept_hidden_units_by_one_over_keep_rate(self):
        state, data = self._trained()
        rate, values = state.config.dropout_rate, data.values[:16]  # one batch-sized block
        probs = next(dropout_passes(state, values, tau=2, seed=4))
        keep = rng_for(4, "stochastic").random((16, state.config.d_hidden)) >= rate
        hidden = np.tanh(values.astype(np.float64) @ state.w1 + state.b1)
        z = (keep / (1.0 - rate) * hidden) @ state.w2 + state.b2
        np.testing.assert_allclose(probs, predict_proba_from_features(state, z), rtol=1e-12)

    def test_tau_validation(self):
        state, data = self._trained()
        with pytest.raises(UsageError):
            stochastic_proba(state, data.values, tau=1, seed=0)

    def test_traced_peak_holds_one_tensor(self):
        """The passes fill one (tau, n, K) tensor: at tau 50, 2000 rows and K = 10
        the traced peak stays within 1.4x its bytes. A list of the passes and
        their np.stack traced 2.0x."""
        import tracemalloc

        data = generate_mixture(DatasetSpec(k=10, d=10, n_per_class=200, seed=13))
        state = train(init_model(small_config(d_in=10, n_classes=10, epochs=1)), data)
        tracemalloc.start()
        try:
            tensor = stochastic_proba(state, data.values, tau=50, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensor.shape == (50, 2000, 10)
        assert peak <= 1.4 * tensor.nbytes, f"{peak / tensor.nbytes:.2f}x the tensor"


class TestAugmentedBatch:
    def test_two_views_per_source(self):
        rng = rng_for(0, "aug")
        values, labels = make_augmented_batch(np.zeros((5, 3)), np.arange(5), 0.1, rng)
        assert values.shape == (10, 3)
        np.testing.assert_array_equal(labels, np.tile(np.arange(5), 2))

    def test_each_view_draws_its_own_noise(self):
        values = np.random.default_rng(1).standard_normal((2000, 8))
        views, _ = make_augmented_batch(values, np.zeros(2000, np.int64), 0.3, rng_for(0, "aug"))
        first, second = views[:2000] - values, views[2000:] - values
        assert not np.allclose(first, second)
        for noise in (first, second):
            assert abs(noise.std() - 0.3) < 0.01
        assert abs(np.corrcoef(first.ravel(), second.ravel())[0, 1]) < 0.05


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        data = generate_mixture(DatasetSpec(k=3, d=4, n_per_class=15, seed=14))
        state = train(init_model(small_config(epochs=2)), data)
        path = tmp_path / "model.ckpt"
        save_model(state, path)
        back = load_model(path)
        assert back.config == state.config
        assert back.config.loss_kind == "contrastive"
        for name in state.encoder_projection_params():
            np.testing.assert_array_equal(getattr(back, name), getattr(state, name))
        probs_a = predict_proba_from_features(state, np.zeros((1, 6)))
        probs_b = predict_proba_from_features(back, np.zeros((1, 6)))
        np.testing.assert_array_equal(probs_a, probs_b)

    def test_cut_checkpoint_is_a_data_error(self, tmp_path):
        data = generate_mixture(DatasetSpec(k=3, d=4, n_per_class=15, seed=14))
        path = tmp_path / "model.ckpt"
        save_model(train(init_model(small_config(epochs=1)), data), path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(DataError):
                load_model(cut)

    @pytest.mark.parametrize("edit", ["drop_key", "add_key", "drop_array", "add_array"])
    def test_config_keys_and_arrays_checked(self, edit, tmp_path):
        state = init_model(small_config())
        meta = {"kind": "model", "config": dataclasses.asdict(state.config)}
        arrays = dict(state.encoder_projection_params())
        if edit == "drop_key":
            del meta["config"]["lr"]
        elif edit == "add_key":
            meta["config"]["width"] = 3
        elif edit == "drop_array":
            del arrays["c2"]
        else:
            arrays["extra"] = np.zeros(2)
        path = tmp_path / "model.ckpt"
        write_container(path, meta, arrays)
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("key,value", [("lr", float("nan")), ("weight_decay", float("inf")),
                                           ("aug_sigma", float("nan")),
                                           ("temperature", float("inf"))])
    def test_non_finite_config_value_is_a_data_error(self, key, value, tmp_path):
        state = init_model(small_config())
        meta = {"kind": "model", "config": dataclasses.asdict(state.config) | {key: value}}
        path = tmp_path / "model.ckpt"
        write_container(path, meta, dict(state.encoder_projection_params()))
        with pytest.raises(DataError, match=f"{key} must be finite"):
            load_model(path)
