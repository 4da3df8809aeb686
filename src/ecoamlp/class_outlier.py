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
  with fixed weights alpha and beta.
* ``ecodb``: score = k * pcl - norm(deviation) + norm(kdist), where the
  min-max normalisation removes the hand-tuned weights. Normalisation
  bounds come from a candidate set: the n instances with the lowest
  k * pcl (ties broken toward larger deviation, then smaller kdist, then
  smaller id), which is then re-ranked by the normalised score.

Neighbourhoods never include the query instance itself. Neighbour ties at
equal distance are broken by ascending instance id.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from .data import Dataset
from .distance import Measure, pairwise_distances
from .errors import ConfigError

EPSILON_DEVIATION = 1e-12
"""Stand-in divisor when a codb deviation is exactly zero."""

CODB_ALGORITHM = "codb"
ECODB_ALGORITHM = "ecodb"


@dataclasses.dataclass(frozen=True)
class OutlierParams:
    """Knobs shared by both detectors.

    ``alpha`` and ``beta`` only matter for codb. Defaults follow the
    configuration used for the reference diabetes experiments: correlation
    dissimilarity, 12 neighbours, 10 removals, alpha 100, beta 0.1.
    """

    k: int = 12
    n_outliers: int = 10
    measure: Measure = Measure.CORRELATION
    alpha: float = 100.0
    beta: float = 0.1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.n_outliers < 0:
            raise ConfigError(f"n_outliers must be >= 0, got {self.n_outliers}")
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ConfigError("alpha and beta must be positive")


@dataclasses.dataclass(frozen=True)
class ScoredInstance:
    """One ranked detection: score components plus the final score."""

    id: int
    pcl: float
    deviation: float
    kdist: float
    score: float
    flagged: bool = False

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "pcl": self.pcl,
            "deviation": self.deviation,
            "kdist": self.kdist,
            "score": self.score,
            "flagged": self.flagged,
        }


@dataclasses.dataclass(frozen=True)
class OutlierReport:
    """Detection output: the top-n instances, strongest outlier first."""

    algorithm: str
    params: OutlierParams
    ranked: Tuple[ScoredInstance, ...]

    @property
    def outlier_ids(self) -> Tuple[int, ...]:
        return tuple(s.id for s in self.ranked)

    def to_json_obj(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "k": self.params.k,
            "n_outliers": self.params.n_outliers,
            "measure": self.params.measure.value,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "outliers": [s.to_json_obj() for s in self.ranked],
        }


def cof(
    k: int,
    pcl_value: float,
    deviation_value: float,
    kdist_value: float,
    alpha: float,
    beta: float,
) -> Tuple[float, bool]:
    """codb score from its components; flags use of the epsilon guard."""
    flagged = deviation_value == 0.0
    dev = EPSILON_DEVIATION if flagged else deviation_value
    return k * pcl_value + alpha * (1.0 / dev) + beta * kdist_value, flagged


def ecof(k: int, pcl_value: float, norm_deviation: float, norm_kdist: float) -> float:
    """ecodb score from its components (deviation and kdist pre-normalised)."""
    return k * pcl_value - norm_deviation + norm_kdist


def codb_detect(dataset: Dataset, params: OutlierParams) -> OutlierReport:
    """Rank all instances by codb score and keep the n lowest."""
    table = _component_table(dataset, params.k, params.measure)
    _check_n(params.n_outliers, len(dataset))
    scored = []
    for ident, same_count, dev, kd in table:
        score, flagged = cof(params.k, same_count / params.k, dev, kd, params.alpha, params.beta)
        scored.append(ScoredInstance(ident, same_count / params.k, dev, kd, score, flagged))
    scored.sort(key=lambda s: (s.score, s.id))
    return OutlierReport(CODB_ALGORITHM, params, tuple(scored[: params.n_outliers]))


def ecodb_detect(dataset: Dataset, params: OutlierParams) -> OutlierReport:
    """Two-pass ecodb detection.

    Pass 1 ranks every instance by ascending k * pcl (ties: larger
    deviation, then smaller kdist, then smaller id) and keeps the top n as
    candidates. Pass 2 min-max normalises deviation and kdist within the
    candidate set, scores with ``ecof``, and re-ranks ascending (ties by id).
    """
    table = _component_table(dataset, params.k, params.measure)
    _check_n(params.n_outliers, len(dataset))
    # k * (count / k) ranks identically to the integer neighbour count.
    pass1 = sorted(table, key=lambda t: (t[1], -t[2], t[3], t[0]))
    candidates = pass1[: params.n_outliers]
    if not candidates:
        return OutlierReport(ECODB_ALGORITHM, params, ())
    devs = np.array([t[2] for t in candidates])
    kds = np.array([t[3] for t in candidates])
    norm_dev = _min_max(devs)
    norm_kd = _min_max(kds)
    scored = []
    for (ident, same_count, dev, kd), nd, nk in zip(candidates, norm_dev, norm_kd):
        score = ecof(params.k, same_count / params.k, float(nd), float(nk))
        scored.append(ScoredInstance(ident, same_count / params.k, dev, kd, score))
    scored.sort(key=lambda s: (s.score, s.id))
    return OutlierReport(ECODB_ALGORITHM, params, tuple(scored))


def remove_outliers(dataset: Dataset, report: OutlierReport) -> Dataset:
    """Dataset without the reported instances, survivors in original order."""
    return dataset.drop_ids(report.outlier_ids)


def _min_max(values: np.ndarray) -> np.ndarray:
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def _neighbour_order(dists: np.ndarray, ids: np.ndarray, exclude_row: int) -> np.ndarray:
    order = np.lexsort((ids, dists))
    return order[order != exclude_row]


def _component_table(
    dataset: Dataset,
    k: int,
    measure: Measure,
) -> List[Tuple[int, int, float, float]]:
    """Per-instance (id, same-label neighbour count, deviation, kdist)."""
    n = len(dataset)
    _check_k(k, n)
    D = pairwise_distances(dataset.features, measure, dataset.schema.kinds)
    ids = dataset.ids
    labels = dataset.labels
    table = []
    for i in range(n):
        order = _neighbour_order(D[i], ids, exclude_row=i)[:k]
        same_count = int((labels[order] == labels[i]).sum())
        kd = float(D[i][order].sum())
        mask = labels == labels[i]
        mask[i] = False
        dev = float(D[i][mask].sum())
        table.append((int(ids[i]), same_count, dev, kd))
    return table


def _check_k(k: int, n: int) -> None:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ConfigError(f"k={k} needs at least {k + 1} instances, dataset has {n}")


def _check_n(n_outliers: int, n: int) -> None:
    if n_outliers > n:
        raise ConfigError(f"cannot report {n_outliers} outliers from {n} instances")
