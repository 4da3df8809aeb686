"""Network forward pass, gradients, and the per-instance training step,
alone and in lockstep."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ecoamlp.data import Dataset
from ecoamlp.errors import ConfigError
from ecoamlp.mlp import (
    PROB_CLIP,
    MlpConfig,
    MlpNetwork,
    evaluate_error,
    forward_batch,
    init_network,
    predict,
    sigmoid,
    train_epoch,
    train_epochs,
)

from synth import numeric_schema, random_dataset, separable_dataset


def tiny_network():
    """Fixed 2-2-1 weights small enough to recompute by hand."""
    config = MlpConfig(input_dim=2, hidden_units=2, learning_rate=0.1)
    w_ih = np.array([[0.5, -0.25, 0.1], [0.3, 0.2, -0.4]])
    w_ho = np.array([0.7, -0.6, 0.2])
    return MlpNetwork(config, w_ih.copy(), w_ho.copy())


def mean_loss(net, ds):
    return oracles.loss_gradients(net, ds.features, ds.labels)[0] / len(ds)


def scalar_sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


class TestInit:
    def test_shapes_and_bounds(self):
        config = MlpConfig(input_dim=5, hidden_units=7, learning_rate=0.1,
                           weight_init_seed=3)
        net = init_network(config)
        assert net.w_ih.shape == (7, 6)
        assert net.w_ho.shape == (8,)
        assert np.all(np.abs(net.w_ih) <= 1.0 / np.sqrt(6))
        assert np.all(np.abs(net.w_ho) <= 1.0 / np.sqrt(8))

    def test_seed_determinism(self):
        config = MlpConfig(input_dim=4, hidden_units=3, learning_rate=0.1,
                           weight_init_seed=11)
        a, b = init_network(config), init_network(config)
        assert np.array_equal(a.w_ih, b.w_ih)
        assert np.array_equal(a.w_ho, b.w_ho)
        other = init_network(MlpConfig(4, 3, 0.1, weight_init_seed=12))
        assert not np.array_equal(a.w_ih, other.w_ih)

    @pytest.mark.parametrize("field,value", [
        ("input_dim", 0), ("hidden_units", 0), ("learning_rate", -0.1),
    ])
    def test_config_validation(self, field, value):
        kwargs = {"input_dim": 2, "hidden_units": 2, "learning_rate": 0.1}
        kwargs[field] = value
        with pytest.raises(ConfigError):
            MlpConfig(**kwargs)


class TestForward:
    def test_hand_computed_probability(self):
        net = tiny_network()
        x = [1.0, 2.0]
        h1 = scalar_sigmoid(0.5 * 1.0 - 0.25 * 2.0 + 0.1)
        h2 = scalar_sigmoid(0.3 * 1.0 + 0.2 * 2.0 - 0.4)
        expected = scalar_sigmoid(0.7 * h1 - 0.6 * h2 + 0.2)
        assert forward_batch(net, np.array([x]))[0] == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_single(self):
        net = init_network(MlpConfig(3, 4, 0.1, weight_init_seed=5))
        X = np.random.default_rng(0).normal(size=(10, 3))
        batch = forward_batch(net, X)
        for row, p in zip(X, batch):
            assert forward_batch(net, row[None, :])[0] == p

    def test_all_zero_weights_give_half(self):
        config = MlpConfig(input_dim=3, hidden_units=2, learning_rate=0.1)
        net = MlpNetwork(config, np.zeros((2, 4)), np.zeros(3))
        X = np.random.default_rng(1).normal(size=(6, 3))
        assert np.all(forward_batch(net, X) == 0.5)
        # 0.5 is on the boundary and counts as the positive class
        assert predict(net, X).tolist() == [1] * 6

    def test_zero_weight_error_is_negative_fraction(self):
        ds = random_dataset(40, 3, seed=2, positive_fraction=0.3)
        config = MlpConfig(input_dim=3, hidden_units=2, learning_rate=0.1)
        net = MlpNetwork(config, np.zeros((2, 4)), np.zeros(3))
        expected = float(np.mean(ds.labels == 0))
        assert evaluate_error(net, ds) == pytest.approx(expected, abs=1e-15)

    def test_saturated_outputs_are_clipped(self):
        config = MlpConfig(input_dim=1, hidden_units=1, learning_rate=0.1)
        net = MlpNetwork(config, np.array([[400.0, 400.0]]), np.array([2000.0, 2000.0]))
        p = forward_batch(net, np.array([[1.0]]))[0]
        assert p == 1.0 - PROB_CLIP
        loss, _, _ = oracles.loss_gradients(net, np.array([[1.0]]), np.array([0]))
        assert math.isfinite(loss)

    def test_shape_validation(self):
        net = tiny_network()
        with pytest.raises(ValueError):
            forward_batch(net, np.array([[1.0, 2.0, 3.0]]))

    def test_sigmoid_extremes(self):
        assert sigmoid(np.float64(0.0)) == 0.5
        assert float(sigmoid(np.float64(-800.0))) == pytest.approx(0.0, abs=1e-200)
        assert float(sigmoid(np.float64(800.0))) == 1.0
        z = np.array([-2.0, 0.0, 2.0])
        assert np.allclose(sigmoid(z), [scalar_sigmoid(v) for v in z], atol=1e-15)


class TestGradients:
    def test_loss_matches_scalar_oracle(self):
        net = init_network(MlpConfig(3, 4, 0.1, weight_init_seed=6))
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, size=8)
        loss, _, _ = oracles.loss_gradients(net, X, y)
        want = oracles.mlp_loss(net.w_ih.tolist(), net.w_ho.tolist(), X.tolist(),
                                y.tolist())
        assert loss == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("hidden", [1, 3, 8])
    def test_gradients_match_finite_differences(self, hidden):
        net = init_network(MlpConfig(4, hidden, 0.1, weight_init_seed=hidden))
        rng = np.random.default_rng(hidden)
        X = rng.normal(size=(6, 4))
        y = rng.integers(0, 2, size=6)
        _, g_ih, g_ho = oracles.loss_gradients(net, X, y)

        def loss_fn(w_ih, w_ho):
            return oracles.mlp_loss(w_ih, w_ho, X.tolist(), y.tolist())

        fd_ih, fd_ho = oracles.fd_gradients(loss_fn, net.w_ih.tolist(),
                                            net.w_ho.tolist())
        assert np.allclose(g_ih, fd_ih, rtol=1e-4, atol=1e-7)
        assert np.allclose(g_ho, fd_ho, rtol=1e-4, atol=1e-7)


class TestTraining:
    def one_row_dataset(self, x, label):
        return Dataset(numeric_schema(len(x)), np.array([x]), np.array([label]),
                       np.arange(1))

    def test_single_step_hand_computed(self):
        net = tiny_network()
        lr = net.config.learning_rate
        x, label = [1.0, 2.0], 1
        xb = x + [1.0]
        w_ih = net.w_ih.tolist()
        w_ho = net.w_ho.tolist()
        h = [scalar_sigmoid(sum(w * v for w, v in zip(row, xb))) for row in w_ih]
        p = scalar_sigmoid(w_ho[0] * h[0] + w_ho[1] * h[1] + w_ho[2])
        d_out = p - label
        want_ho = [w_ho[0] - lr * d_out * h[0],
                   w_ho[1] - lr * d_out * h[1],
                   w_ho[2] - lr * d_out]
        # the hidden deltas use the output weights from before the update
        d_h = [d_out * w_ho[j] * h[j] * (1.0 - h[j]) for j in range(2)]
        want_ih = [[w - lr * d_h[j] * v for w, v in zip(w_ih[j], xb)]
                   for j in range(2)]

        train_epoch(net, self.one_row_dataset(x, label), shuffle_seed=0)
        assert np.allclose(net.w_ho, want_ho, atol=1e-12)
        assert np.allclose(net.w_ih, want_ih, atol=1e-12)

    def test_zero_learning_rate_is_identity(self):
        config = MlpConfig(input_dim=3, hidden_units=4, learning_rate=0.0,
                           weight_init_seed=9)
        net = init_network(config)
        before_ih, before_ho = net.w_ih.copy(), net.w_ho.copy()
        train_epoch(net, random_dataset(20, 3, seed=4), shuffle_seed=1)
        assert np.array_equal(net.w_ih, before_ih)
        assert np.array_equal(net.w_ho, before_ho)

    def test_step_direction_reduces_single_instance_loss(self):
        net = tiny_network()
        ds = self.one_row_dataset([1.0, 2.0], 1)
        before = mean_loss(net, ds)
        train_epoch(net, ds, shuffle_seed=0)
        assert mean_loss(net, ds) < before

    def test_training_reduces_loss_on_separable_data(self):
        ds = separable_dataset(60, 3, seed=5)
        net = init_network(MlpConfig(3, 6, 0.3, weight_init_seed=10))
        start = mean_loss(net, ds)
        for epoch in range(30):
            train_epoch(net, ds, shuffle_seed=epoch)
        assert mean_loss(net, ds) < start
        assert evaluate_error(net, ds) <= 0.1

    def test_epoch_determinism(self):
        config = MlpConfig(3, 5, 0.2, weight_init_seed=13)
        ds = random_dataset(30, 3, seed=6)
        a, b = init_network(config), init_network(config)
        for epoch in range(3):
            train_epoch(a, ds, shuffle_seed=100 + epoch)
            train_epoch(b, ds, shuffle_seed=100 + epoch)
        assert np.array_equal(a.w_ih, b.w_ih)
        assert np.array_equal(a.w_ho, b.w_ho)

    def test_shuffle_seed_changes_trajectory(self):
        config = MlpConfig(3, 5, 0.2, weight_init_seed=13)
        ds = random_dataset(30, 3, seed=6)
        a, b = init_network(config), init_network(config)
        train_epoch(a, ds, shuffle_seed=1)
        train_epoch(b, ds, shuffle_seed=2)
        assert not np.array_equal(a.w_ih, b.w_ih)

    def test_empty_dataset_rejected(self):
        net = tiny_network()
        empty = Dataset(numeric_schema(2), np.empty((0, 2)),
                        np.empty(0, dtype=np.int64), np.arange(0))
        with pytest.raises(ValueError):
            train_epoch(net, empty, shuffle_seed=0)

    def test_feature_mismatch_rejected(self):
        net = tiny_network()
        with pytest.raises(ValueError):
            train_epoch(net, random_dataset(10, 3, seed=7), shuffle_seed=0)

    def test_evaluate_error_matches_recount(self):
        ds = random_dataset(50, 3, seed=8)
        net = init_network(MlpConfig(3, 4, 0.1, weight_init_seed=14))
        preds = predict(net, ds.features)
        tp, tn, fp, fn = oracles.recount_confusion(preds, ds.labels)
        assert evaluate_error(net, ds) == pytest.approx((fp + fn) / len(ds), abs=1e-15)


@st.composite
def lockstep_cases(draw):
    """Networks of mixed widths and rates, a dataset, one shuffle seed each."""
    n_features = draw(st.integers(1, 10))
    n_rows = draw(st.integers(1, 30))
    widths = draw(st.lists(st.integers(1, 64), min_size=1, max_size=6))
    networks = [
        init_network(MlpConfig(n_features, width, draw(st.floats(1e-3, 1.0)),
                               weight_init_seed=draw(st.integers(0, 2**31))))
        for width in widths
    ]
    scale = draw(st.sampled_from([1.0, 100.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    dataset = Dataset(numeric_schema(n_features), rng.normal(size=(n_rows, n_features)) * scale,
                      rng.integers(0, 2, size=n_rows), np.arange(n_rows))
    seeds = [draw(st.integers(0, 2**31)) for _ in networks]
    return networks, dataset, seeds


class TestLockstep:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(lockstep_cases())
    def test_matches_training_each_network_alone(self, case):
        networks, dataset, seeds = case
        alone = [MlpNetwork(net.config, net.w_ih.copy(), net.w_ho.copy()) for net in networks]
        train_epochs(networks, dataset, seeds)
        for net, single, seed in zip(networks, alone, seeds):
            train_epoch(single, dataset, seed)
            # compared as bytes: bit for bit, NaN and the sign of zero included
            assert net.w_ih.tobytes() == single.w_ih.tobytes()
            assert net.w_ho.tobytes() == single.w_ho.tobytes()

    def test_empty_dataset_rejected(self):
        empty = Dataset(numeric_schema(2), np.empty((0, 2)),
                        np.empty(0, dtype=np.int64), np.arange(0))
        with pytest.raises(ValueError, match="^cannot train on an empty dataset$"):
            train_epochs([tiny_network(), tiny_network()], empty, [0, 1])

    @pytest.mark.parametrize("bad_slot", [0, 2])
    def test_feature_mismatch_on_any_member_rejected(self, bad_slot):
        ds = random_dataset(10, 2, seed=7)
        networks = [tiny_network() for _ in range(3)]
        networks[bad_slot] = init_network(MlpConfig(3, 2, 0.1))
        before = [net.w_ih.copy() for net in networks]
        with pytest.raises(ValueError, match="^dataset has 2 features, network expects 3$"):
            train_epochs(networks, ds, [0, 1, 2])
        # nothing trains when any member is rejected
        assert all(np.array_equal(net.w_ih, w) for net, w in zip(networks, before))

    def test_one_seed_per_network(self):
        with pytest.raises(ValueError, match="shuffle seeds"):
            train_epochs([tiny_network(), tiny_network()], random_dataset(5, 2), [0])
