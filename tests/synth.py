"""Synthetic dataset builders shared across the test modules."""

from __future__ import annotations

import numpy as np

from ecoamlp.data import Dataset, Schema


def numeric_schema(n_features: int) -> Schema:
    return Schema(tuple(f"f{i}" for i in range(n_features)), ("0", "1"))


def random_dataset(
    n: int,
    n_features: int = 4,
    seed: int = 0,
    separation: float = 0.0,
    positive_fraction: float = 0.5,
) -> Dataset:
    """Two Gaussian blobs ``separation`` apart along every axis."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < positive_fraction).astype(np.int64)
    features = rng.normal(size=(n, n_features)) + labels[:, None] * separation
    return Dataset(numeric_schema(n_features), features, labels, np.arange(n))


def separable_dataset(n: int, n_features: int = 3, seed: int = 0) -> Dataset:
    """Cleanly separable blobs (6 sigma apart) with balanced classes."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    features = rng.normal(size=(n, n_features)) + labels[:, None] * 6.0
    return Dataset(numeric_schema(n_features), features, labels.astype(np.int64),
                   np.arange(n))


def write_csv(path, dataset: Dataset, header: bool = True) -> None:
    lines = []
    if header:
        lines.append(",".join(dataset.schema.features) + ",label")
    for features, label in zip(dataset.features, dataset.labels):
        cells = [repr(float(v)) for v in features]
        cells.append(dataset.schema.class_labels[label])
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
