"""Class-aware distance-based outlier detection.

An instance is suspicious when most of its nearest neighbours carry a
different class label, when it sits far from the other members of its own
class, and when its neighbourhood is dense. Three per-instance components
capture this:

* ``pcl`` - fraction of the k nearest neighbours sharing the instance's label.
* ``deviation`` - summed distance to every same-class instance.
* ``kdist`` - summed distance to the k nearest neighbours.

Two scoring rules combine them; for both, a *lower* score means a stronger
outlier:

* ``codb``:  score = k * pcl + alpha * (1 / deviation) + beta * kdist,
  with hand-tuned weights alpha and beta, arguments of ``codb_detect``.
* ``ecodb``: score = k * pcl - norm(deviation) + norm(kdist), where the
  min-max normalisation removes the hand-tuned weights. Normalisation
  bounds come from a candidate set: the n instances with the lowest
  k * pcl (ties broken toward larger deviation, then smaller kdist, then
  smaller id), which is then re-ranked by the normalised score.

Neighbourhoods never include the query instance itself. Neighbour ties at
equal distance are broken by ascending instance id; the rule lives in
``distance.nearest_neighbours``, which k-NN voting shares.

Each detection calls ``pairwise_distances`` once and never holds the
n x n matrix: it takes the matrix's consecutive row blocks and derives
every component of a block's rows from that block alone, the k nearest
neighbours, kdists and same-class deviation sums, then drops it (see
``_component_table``). So a detection holds O(n) memory beyond the
distance kernel's fixed buffers (about 2.5 MB at 3072 rows), and the
results equal a row-at-a-time computation bit for bit. The components stay columns: each detector
scores them elementwise, ranks rows with one ``np.lexsort`` and builds a
``ScoredInstance`` only for the n rows it reports.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from .data import Dataset
from .distance import Measure, nearest_neighbours, pairwise_distances
from .errors import ConfigError

EPSILON_DEVIATION = 1e-12
"""Stand-in divisor when a codb deviation is exactly zero."""

CODB_ALGORITHM = "codb"
ECODB_ALGORITHM = "ecodb"


@dataclasses.dataclass(frozen=True)
class OutlierParams:
    """Knobs shared by both detectors.

    Defaults follow the configuration used for the reference diabetes
    experiments: correlation dissimilarity, 12 neighbours, 10 removals.
    """

    k: int = 12
    n_outliers: int = 10
    measure: Measure = Measure.CORRELATION

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.n_outliers < 0:
            raise ConfigError(f"n_outliers must be >= 0, got {self.n_outliers}")


@dataclasses.dataclass(frozen=True)
class ScoredInstance:
    """One ranked detection: score components plus the final score."""

    id: int
    pcl: float
    deviation: float
    kdist: float
    score: float
    flagged: bool = False


@dataclasses.dataclass(frozen=True)
class OutlierReport:
    """Detection output: the top-n instances, strongest outlier first, and codb's weights."""

    algorithm: str
    params: OutlierParams
    ranked: Tuple[ScoredInstance, ...]
    weights: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def outlier_ids(self) -> Tuple[int, ...]:
        return tuple(s.id for s in self.ranked)

    def to_json_obj(self) -> dict:
        params = dataclasses.asdict(self.params)
        params["measure"] = self.params.measure.value
        return {"algorithm": self.algorithm, **params, **self.weights,
                "outliers": [dataclasses.asdict(s) for s in self.ranked]}


def cof(k: int, pcl_value, deviation_value, kdist_value, alpha: float, beta: float):
    """codb scores from their components, elementwise; flags use of the
    epsilon guard."""
    flagged = np.equal(deviation_value, 0.0)
    dev = np.where(flagged, EPSILON_DEVIATION, deviation_value)
    return k * pcl_value + alpha * (1.0 / dev) + beta * kdist_value, flagged


def ecof(k: int, pcl_value, norm_deviation, norm_kdist):
    """ecodb scores from their components (deviation and kdist
    pre-normalised), elementwise."""
    return k * pcl_value - norm_deviation + norm_kdist


def codb_detect(dataset: Dataset, params: OutlierParams, alpha: float = 100.0,
                beta: float = 0.1) -> OutlierReport:
    """Rank all instances by codb score and keep the n lowest. The default
    weights are those of the reference diabetes experiments."""
    if not (0.0 < alpha < np.inf and 0.0 < beta < np.inf):
        raise ConfigError("alpha and beta must be positive and finite")
    _check_n(params.n_outliers, len(dataset))
    ids, same_count, dev, kd = _component_table(dataset, params.k, params.measure)
    pcl = same_count / params.k
    score, flagged = cof(params.k, pcl, dev, kd, alpha, beta)
    top = np.lexsort((ids, score))[: params.n_outliers]
    return OutlierReport(CODB_ALGORITHM, params,
                         _scored(top, ids, pcl, dev, kd, score, flagged),
                         {"alpha": alpha, "beta": beta})


def ecodb_detect(dataset: Dataset, params: OutlierParams) -> OutlierReport:
    """Two-pass ecodb detection.

    Pass 1 ranks every instance by ascending k * pcl (ties: larger
    deviation, then smaller kdist, then smaller id) and keeps the top n as
    candidates. Pass 2 min-max normalises deviation and kdist within the
    candidate set, scores with ``ecof``, and re-ranks ascending (ties by id).
    """
    _check_n(params.n_outliers, len(dataset))
    ids, same_count, dev, kd = _component_table(dataset, params.k, params.measure)
    # k * (count / k) ranks identically to the integer neighbour count.
    candidates = np.lexsort((ids, kd, -dev, same_count))[: params.n_outliers]
    if not candidates.size:
        return OutlierReport(ECODB_ALGORITHM, params, ())
    ids, pcl, dev, kd = (a[candidates] for a in (ids, same_count / params.k, dev, kd))
    score = ecof(params.k, pcl, _min_max(dev), _min_max(kd))
    ranked = np.lexsort((ids, score))
    return OutlierReport(ECODB_ALGORITHM, params, _scored(ranked, ids, pcl, dev, kd, score))


def remove_outliers(dataset: Dataset, report: OutlierReport) -> Dataset:
    """Dataset without the reported instances, survivors in original order."""
    return dataset.drop_ids(report.outlier_ids)


def _scored(rows: np.ndarray, *columns: np.ndarray) -> Tuple[ScoredInstance, ...]:
    """One ScoredInstance per entry of ``rows``, in that order, from
    per-row columns in field order."""
    return tuple(ScoredInstance(*fields)
                 for fields in zip(*(column[rows].tolist() for column in columns)))


def _min_max(values: np.ndarray) -> np.ndarray:
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def _component_table(
    dataset: Dataset,
    k: int,
    measure: Measure,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-instance columns: ids, same-label neighbour counts, deviations
    and kdists, in row order.

    The components of a block of rows come from that block of the distance
    matrix alone, so the matrix is never held whole. Each component is one
    gathered 2-D array summed along its last axis: the k neighbours in
    (distance, id) order for kdist, and the other rows of the instance's
    class in row order for deviation. A last-axis sum of a row is the same
    pairwise summation as the 1-D ``sum`` of that row, so every component
    equals the one-row-at-a-time result bit for bit.
    """
    _check_k(k, len(dataset))
    labels, ids = dataset.labels, dataset.ids
    classes = {label: np.flatnonzero(labels == label) for label in np.unique(labels)}
    position = np.empty(len(dataset), dtype=np.intp)  # each row's place in its class
    for members in classes.values():
        position[members] = np.arange(len(members))
    neighbours = np.empty((len(dataset), k), dtype=np.intp)
    dev, kdist = np.empty(len(dataset)), np.empty(len(dataset))
    for start, D in pairwise_distances(dataset.features, dataset.features, measure):
        rows = slice(start, start + len(D))
        neighbours[rows] = nearest_neighbours(D, ids, k, exclude_self=True, start=start)
        kdist[rows] = np.take_along_axis(D, neighbours[rows], axis=1).sum(axis=1)
        for label, members in classes.items():
            # the block's rows of this class, each gathering the class's
            # columns in row order with its own column left out
            own = np.flatnonzero(labels[rows] == label)
            others = np.arange(len(members)) != position[start + own, None]
            same = np.take(D[own], members, axis=1)[others]
            dev[start + own] = same.reshape(len(own), len(members) - 1).sum(axis=1)
    same_count = np.count_nonzero(labels[neighbours] == labels[:, None], axis=1)
    return ids, same_count, dev, kdist


def _check_k(k: int, n: int) -> None:
    if k >= n:
        raise ConfigError(f"k={k} needs at least {k + 1} instances, dataset has {n}")


def _check_n(n_outliers: int, n: int) -> None:
    if n_outliers > n:
        raise ConfigError(f"cannot report {n_outliers} outliers from {n} instances")
