"""Single-hidden-layer perceptron for binary classification.

The network is deliberately small and explicit: one hidden layer of
sigmoid units, a single sigmoid output read as P(class 1), binary
cross-entropy loss, and plain per-instance gradient descent. Weights are
stored as two dense arrays with the bias folded in as a trailing column
(hidden layer) or trailing element (output layer).

Initial weights are uniform in +/- 1/sqrt(fan_in) where fan_in counts the
bias, drawn from a seeded generator so identical configs always yield
identical networks.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

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
    """Weights plus a count of completed training epochs.

    ``w_ih`` has shape (hidden_units, input_dim + 1); column input_dim is
    the hidden bias. ``w_ho`` has shape (hidden_units + 1,); the last
    element is the output bias.
    """

    config: MlpConfig
    w_ih: np.ndarray
    w_ho: np.ndarray
    epochs_trained: int = 0

    def to_json_obj(self) -> dict:
        return {
            "input_dim": self.config.input_dim,
            "hidden_units": self.config.hidden_units,
            "learning_rate": self.config.learning_rate,
            "weight_init_seed": self.config.weight_init_seed,
            "epochs_trained": self.epochs_trained,
            "w_ih": self.w_ih.tolist(),
            "w_ho": self.w_ho.tolist(),
        }


def network_from_json(obj: dict) -> MlpNetwork:
    config = MlpConfig(
        input_dim=int(obj["input_dim"]),
        hidden_units=int(obj["hidden_units"]),
        learning_rate=float(obj["learning_rate"]),
        weight_init_seed=int(obj["weight_init_seed"]),
    )
    w_ih = np.asarray(obj["w_ih"], dtype=np.float64)
    w_ho = np.asarray(obj["w_ho"], dtype=np.float64)
    if w_ih.shape != (config.hidden_units, config.input_dim + 1) or w_ho.shape != (
        config.hidden_units + 1,
    ):
        raise ConfigError("serialized weights do not match the stated layer sizes")
    return MlpNetwork(config, w_ih, w_ho, epochs_trained=int(obj.get("epochs_trained", 0)))


def init_network(config: MlpConfig) -> MlpNetwork:
    rng = np.random.default_rng(config.weight_init_seed)
    bound_ih = 1.0 / np.sqrt(config.input_dim + 1)
    bound_ho = 1.0 / np.sqrt(config.hidden_units + 1)
    w_ih = rng.uniform(-bound_ih, bound_ih, size=(config.hidden_units, config.input_dim + 1))
    w_ho = rng.uniform(-bound_ho, bound_ho, size=config.hidden_units + 1)
    return MlpNetwork(config, w_ih, w_ho)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise."""
    z = np.clip(np.asarray(z, dtype=np.float64), -_EXP_LIMIT, _EXP_LIMIT)
    if z.ndim == 0:
        return np.float64(_sigmoid_scalar(float(z)))
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_scalar(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


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


def loss_gradients(
    network: MlpNetwork,
    X: np.ndarray,
    y: np.ndarray,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Summed cross-entropy loss and its gradients at the current weights.

    Sums :func:`_instance_step`, the step that training applies, over the
    rows without applying any update; the return is (loss, d_loss/d_w_ih,
    d_loss/d_w_ho).
    """
    X = np.asarray(X, dtype=np.float64)
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    loss = 0.0
    g_ih = np.zeros_like(network.w_ih)
    g_ho = np.zeros_like(network.w_ho)
    for xb, target in zip(Xb, np.asarray(y, dtype=np.float64)):
        p, delta_out, h, delta_h = _instance_step(network.w_ih, network.w_ho, xb, target)
        p = min(max(p, PROB_CLIP), 1.0 - PROB_CLIP)
        loss -= target * math.log(p) + (1.0 - target) * math.log(1.0 - p)
        g_ho[:-1] += delta_out * h
        g_ho[-1] += delta_out
        g_ih += np.outer(delta_h, xb)
    return float(loss), g_ih, g_ho


def train_epoch(network: MlpNetwork, dataset: Dataset, shuffle_seed: int) -> MlpNetwork:
    """One pass of per-instance gradient descent over a shuffled dataset.

    Updates the network in place (and returns it). The visit order is
    drawn from ``shuffle_seed`` alone, so repeat calls with the same seed
    and starting weights are identical.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    if dataset.n_features != network.config.input_dim:
        raise ValueError(
            f"dataset has {dataset.n_features} features, network expects "
            f"{network.config.input_dim}"
        )
    order = np.random.default_rng(shuffle_seed).permutation(len(dataset))
    Xb = np.hstack([dataset.features, np.ones((len(dataset), 1))])
    y = dataset.labels.astype(np.float64)
    lr = network.config.learning_rate
    w_ih = network.w_ih
    w_ho = network.w_ho
    n_hidden = network.config.hidden_units
    for i in order:
        xb = Xb[i]
        _, delta_out, h, delta_h = _instance_step(w_ih, w_ho, xb, y[i])
        w_ho[:n_hidden] -= lr * delta_out * h
        w_ho[n_hidden] -= lr * delta_out
        w_ih -= lr * np.outer(delta_h, xb)
    network.epochs_trained += 1
    return network


def _instance_step(w_ih: np.ndarray, w_ho: np.ndarray, xb: np.ndarray, y: float):
    """Forward and backward pass for one instance ``xb`` (bias appended).

    Returns (p, delta_out, h, delta_h): the unclipped output probability,
    the output error p - y, the hidden activations and the hidden errors.
    The loss gradients are delta_out * [h, 1] for ``w_ho`` and
    outer(delta_h, xb) for ``w_ih``.
    """
    n_hidden = w_ho.shape[0] - 1
    h = sigmoid(w_ih @ xb)
    z_out = float(h @ w_ho[:n_hidden] + w_ho[n_hidden])
    p = _sigmoid_scalar(min(max(z_out, -_EXP_LIMIT), _EXP_LIMIT))
    delta_out = p - y
    delta_h = (delta_out * w_ho[:n_hidden]) * h * (1.0 - h)
    return p, delta_out, h, delta_h
