"""Baseline algorithms that comparison runs set beside ECODB and AutoMLP.

Preprocessing: per-feature z-transform (fit on train only), bootstrap
resampling and stratified subsampling. Classification: k-nearest-neighbour
voting and Gaussian naive Bayes. The harness configures the choice among
them, class-outlier removal and AutoMLP included.

Everything here is deterministic given its seed arguments and uses the
same tie-breaking conventions as the rest of the package: distance ties
resolve by ascending instance id, vote and posterior ties resolve toward
class 0.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .data import Dataset, largest_remainder_allocation, round_half_up
from .distance import Measure, cross_distances, nearest_neighbours
from .errors import ConfigError, DataError

VARIANCE_FLOOR = 1e-9
"""Lower bound on per-class feature variance in naive Bayes."""


@dataclasses.dataclass(frozen=True)
class ZTransform:
    """Per-feature standardisation fitted on a training set.

    Features that were constant in training map to exactly 0 everywhere,
    including on unseen data.
    """

    mean: np.ndarray
    scale_inv: np.ndarray

    def apply(self, dataset: Dataset) -> Dataset:
        if dataset.n_features != self.mean.shape[0]:
            raise DataError(
                f"z-transform fitted on {self.mean.shape[0]} features, "
                f"dataset has {dataset.n_features}"
            )
        return dataset.with_feature_matrix((dataset.features - self.mean) * self.scale_inv)


def ztransform_fit(train: Dataset) -> ZTransform:
    if len(train) == 0:
        raise DataError("cannot fit a z-transform on an empty dataset")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    scale_inv = np.zeros_like(std)
    np.divide(1.0, std, out=scale_inv, where=std > 0.0)
    return ZTransform(mean=mean, scale_inv=scale_inv)


def bootstrap_sample(train: Dataset, fraction: float, seed: int) -> Dataset:
    """Sample round(fraction * n) instances with replacement.

    Drawn rows get fresh sequential ids (duplicates must stay distinct).
    """
    _check_fraction(fraction)
    n = len(train)
    if n == 0:
        raise DataError("cannot sample from an empty dataset")
    m = round_half_up(fraction * n)
    rows = np.random.default_rng(seed).integers(0, n, size=m)
    return Dataset(train.schema, train.features[rows], train.labels[rows], np.arange(m))


def stratified_sample(train: Dataset, fraction: float, seed: int) -> Dataset:
    """Sample round(fraction * n) instances without replacement.

    Per-class counts follow largest-remainder rounding of the class
    proportions; a class that would receive zero instances is an error.
    Sampled instances keep their original ids.
    """
    _check_fraction(fraction)
    n = len(train)
    if n == 0:
        raise DataError("cannot sample from an empty dataset")
    m = round_half_up(fraction * n)
    counts = train.class_counts()
    if min(counts) == 0:
        raise DataError("stratified sampling needs at least one instance of each class")
    alloc = largest_remainder_allocation([c / n for c in counts], m)
    if min(alloc) == 0:
        raise DataError(
            f"fraction {fraction} leaves a class with zero instances "
            f"(allocations {alloc} from counts {counts})"
        )
    rng = np.random.default_rng(seed)
    class_rows = (np.flatnonzero(train.labels == label) for label in (0, 1))
    return train.take_rows(np.concatenate(
        [rows[rng.permutation(rows.shape[0])[:take]] for rows, take in zip(class_rows, alloc)]))


def knn_predict(train: Dataset, X: np.ndarray, k: int, measure: Measure) -> np.ndarray:
    """Majority vote of each row's k nearest training instances; a tie votes 0.

    One ``cross_distances`` matrix (test rows x training rows, filled in
    row blocks) feeds ``nearest_neighbours``, which orders neighbours by
    (distance, id) exactly as a per-row ``lexsort`` would.
    """
    if len(train) == 0:
        raise DataError("knn needs a non-empty training set")
    if not 1 <= k <= len(train):
        raise ConfigError(f"k must be in [1, {len(train)}], got {k}")
    D = cross_distances(X, train.features, measure)
    votes_one = train.labels[nearest_neighbours(D, train.ids, k)].sum(axis=1)
    return (votes_one * 2 > k).astype(np.int64)


@dataclasses.dataclass(frozen=True)
class NaiveBayesModel:
    """Gaussian naive Bayes: per-class priors, feature means and variances."""

    class_log_prior: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


def naive_bayes_fit(train: Dataset) -> NaiveBayesModel:
    """Fit per-class Gaussians; every class needs at least two instances."""
    counts = train.class_counts()
    if min(counts) < 2:
        raise DataError(
            f"naive Bayes needs >= 2 instances per class, got counts {counts}"
        )
    n = len(train)
    means = np.empty((2, train.n_features))
    variances = np.empty((2, train.n_features))
    for label in (0, 1):
        rows = train.features[train.labels == label]
        means[label] = rows.mean(axis=0)
        variances[label] = np.maximum(rows.var(axis=0), VARIANCE_FLOOR)
    prior = np.array([counts[0] / n, counts[1] / n])
    return NaiveBayesModel(np.log(prior), means, variances)


def naive_bayes_log_posteriors(model: NaiveBayesModel, X: np.ndarray) -> np.ndarray:
    """Unnormalised log-posterior of each class for each row: shape (n, 2)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DataError(f"expected rows of {model.n_features} features, got shape {X.shape}")
    log_pdf = -0.5 * (np.log(2.0 * np.pi * model.variances)
                      + (X[:, None, :] - model.means) ** 2 / model.variances)
    return model.class_log_prior + log_pdf.sum(axis=2)


def naive_bayes_predict(model: NaiveBayesModel, X: np.ndarray) -> np.ndarray:
    """Class with the higher log-posterior per row; an exact tie picks class 0."""
    post = naive_bayes_log_posteriors(model, X)
    return (post[:, 1] > post[:, 0]).astype(np.int64)


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
