"""Single-hidden-layer perceptron for binary classification.

The network is deliberately small and explicit: one hidden layer of
sigmoid units, a single sigmoid output read as P(class 1), binary
cross-entropy loss, and plain per-instance gradient descent. Weights are
stored as two dense arrays with the bias folded in as a trailing column
(hidden layer) or trailing element (output layer).

Initial weights are uniform in +/- 1/sqrt(fan_in) where fan_in counts the
bias, drawn from a seeded generator so identical configs always yield
identical networks.

Training runs several networks in lockstep (:func:`train_epochs`): step t
of an epoch applies, to every network at once, the t-th row of that
network's own shuffle. The networks' hidden units are laid end to end on
one axis (:class:`_FlatLayers`), so networks of different widths share
arrays with no padding or masks. No step uses BLAS: a hidden unit's input
is a numpy sum over its own row of weights, and a network's output is a
``reduceat`` sum over its own units. No sum crosses networks, so a
network trained with others ends bit for bit as it would alone, and
:func:`train_epoch` is the one-network case.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import ConfigError

PROB_CLIP = 1e-15
"""Output probabilities are clipped to [PROB_CLIP, 1 - PROB_CLIP]."""

_EXP_LIMIT = 500.0


@dataclasses.dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_units: int
    learning_rate: float
    weight_init_seed: int = 0

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if self.learning_rate < 0.0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")


@dataclasses.dataclass
class MlpNetwork:
    """A network's config and weights.

    ``w_ih`` has shape (hidden_units, input_dim + 1); column input_dim is
    the hidden bias. ``w_ho`` has shape (hidden_units + 1,); the last
    element is the output bias.
    """

    config: MlpConfig
    w_ih: np.ndarray
    w_ho: np.ndarray


def init_network(config: MlpConfig) -> MlpNetwork:
    rng = np.random.default_rng(config.weight_init_seed)
    bound_ih = 1.0 / np.sqrt(config.input_dim + 1)
    bound_ho = 1.0 / np.sqrt(config.hidden_units + 1)
    w_ih = rng.uniform(-bound_ih, bound_ih, size=(config.hidden_units, config.input_dim + 1))
    w_ho = rng.uniform(-bound_ho, bound_ho, size=config.hidden_units + 1)
    return MlpNetwork(config, w_ih, w_ho)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise.

    ``e = exp(-|z|)`` cannot overflow (its exponent is floored at -500);
    1 / (1 + e) for z >= 0 and e / (1 + e) below are both exact forms of
    the logistic function.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.maximum(-np.abs(z), -_EXP_LIMIT))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def forward_batch(network: MlpNetwork, X: np.ndarray) -> np.ndarray:
    """P(class 1) for each row of X, clipped away from exact 0 and 1."""
    X = np.asarray(X, dtype=np.float64)
    h = sigmoid(X @ network.w_ih[:, :-1].T + network.w_ih[:, -1])
    p = sigmoid(h @ network.w_ho[:-1] + network.w_ho[-1])
    return np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)


def predict(network: MlpNetwork, X: np.ndarray) -> np.ndarray:
    """Hard labels at threshold 0.5; a probability of exactly 0.5 is class 1."""
    return (forward_batch(network, X) >= 0.5).astype(np.int64)


def evaluate_error(network: MlpNetwork, dataset: Dataset) -> float:
    """Misclassification rate on a dataset."""
    preds = predict(network, dataset.features)
    return float(np.mean(preds != dataset.labels))


def train_epoch(network: MlpNetwork, dataset: Dataset, shuffle_seed: int) -> MlpNetwork:
    """One epoch of one network, in place: :func:`train_epochs` with one member."""
    train_epochs([network], dataset, [shuffle_seed])
    return network


def train_epochs(
    networks: Sequence[MlpNetwork],
    dataset: Dataset,
    shuffle_seeds: Sequence[int],
) -> None:
    """One pass of per-instance gradient descent for every network, in lockstep.

    Updates each network in place. Network m visits the rows in the order
    ``default_rng(shuffle_seeds[m]).permutation(n)``; step t applies every
    network's t-th row at once. The networks share no sums, so each ends
    exactly as if it had been trained alone.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(shuffle_seeds) != len(networks):
        raise ValueError(f"{len(networks)} networks need as many shuffle seeds, "
                         f"got {len(shuffle_seeds)}")
    for network in networks:
        if dataset.n_features != network.config.input_dim:
            raise ValueError(
                f"dataset has {dataset.n_features} features, network expects "
                f"{network.config.input_dim}"
            )
    n = len(dataset)
    orders = np.array([np.random.default_rng(seed).permutation(n) for seed in shuffle_seeds]).T
    Xb = np.hstack([dataset.features, np.ones((n, 1))])
    targets = dataset.labels.astype(np.float64)[orders]
    layers = _FlatLayers(networks)
    lr_net = np.array([net.config.learning_rate for net in networks])
    lr_unit = lr_net[layers.owner]
    lr_col = lr_unit[:, None]
    for t in range(n):
        # row t of orders holds each network's instance for this step
        x = Xb.take(orders[t].take(layers.owner), axis=0)
        _, delta_out, delta_unit, h, delta_h = layers.step(x, targets[t])
        layers.w_out -= lr_unit * delta_unit * h
        layers.bias -= lr_net * delta_out
        layers.W -= lr_col * (delta_h[:, None] * x)
    layers.write_back(networks)


class _FlatLayers:
    """The hidden units of several networks concatenated on one axis.

    With U the summed width and M networks: ``W`` (U, d+1) holds the
    hidden weights with the bias last, ``w_out`` (U,) the output weights,
    ``bias`` (M,) the output biases, ``owner`` (U,) each unit's network
    and ``starts`` (M,) each network's first unit. Every sum is taken over
    one unit's inputs or one network's units, never across networks, so
    a network's numbers do not depend on which others share the arrays.
    """

    def __init__(self, networks: Sequence[MlpNetwork]) -> None:
        widths = [net.config.hidden_units for net in networks]
        self.owner = np.repeat(np.arange(len(networks)), widths)
        self.starts = np.cumsum([0] + widths[:-1])
        self.W = np.concatenate([net.w_ih for net in networks])
        self.w_out = np.concatenate([net.w_ho[:-1] for net in networks])
        self.bias = np.array([net.w_ho[-1] for net in networks])

    def step(self, x: np.ndarray, y):
        """Forward and backward pass of each network on its own instance.

        ``x`` (U, d+1) holds, per unit, its network's instance with the
        bias input appended; ``y`` (M,) the targets. Returns (p, delta_out,
        delta_unit, h, delta_h): per network the unclipped output
        probability and the output error p - y, per unit its network's
        output error, its activation and its hidden error. The loss
        gradients are delta_out * [h, 1] for a network's output weights
        and outer(delta_h, x) for its hidden weights.
        """
        h = sigmoid(np.add.reduce(self.W * x, axis=1))
        p = sigmoid(np.add.reduceat(h * self.w_out, self.starts) + self.bias)
        delta_out = p - y
        delta_unit = delta_out.take(self.owner)
        delta_h = (delta_unit * self.w_out) * h * (1.0 - h)
        return p, delta_out, delta_unit, h, delta_h

    def write_back(self, networks: Sequence[MlpNetwork]) -> None:
        for m, (network, start) in enumerate(zip(networks, self.starts)):
            stop = start + network.config.hidden_units
            network.w_ih[...] = self.W[start:stop]
            network.w_ho[:-1] = self.w_out[start:stop]
            network.w_ho[-1] = self.bias[m]
