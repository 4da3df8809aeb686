"""Independent reference implementations used only as test oracles.

Everything here is written directly from the definitions with plain
Python loops and scalar math, deliberately avoiding the package's
vectorized code paths, so agreement between the two is evidence rather
than tautology. The exceptions: :func:`loss_gradients` sums the package's
own training step, so that :func:`fd_gradients` checks the step that
trains; and the row-selection references (:func:`split`,
:func:`drop_ids`, :func:`stratified_sample`) reuse the pinned shuffle and
the allocation rule, which have their own tests, and select by id sets
and row scans where the package uses index arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ecoamlp.data import DataSplit, largest_remainder_allocation, round_half_up
from ecoamlp.errors import ConfigError, DataError
from ecoamlp.mlp import PROB_CLIP, _FlatLayers
from ecoamlp.rng import fisher_yates


class Instance(NamedTuple):
    """One row of a dataset: its features, class index and id."""

    features: Sequence[float]
    label: int
    id: int


def instances(dataset):
    """Every row of ``dataset`` as an :class:`Instance`, in row order."""
    return [Instance(dataset.features[r], int(dataset.labels[r]), int(dataset.ids[r]))
            for r in range(len(dataset))]


def row_of(dataset, instance_id: int) -> int:
    """Row of ``instance_id`` in ``dataset``, by a scan of its ids."""
    for r, i in enumerate(dataset.ids.tolist()):
        if i == instance_id:
            return r
    raise DataError(f"unknown instance id {instance_id}")


def instance(dataset, instance_id: int) -> Instance:
    r = row_of(dataset, instance_id)
    return Instance(dataset.features[r], int(dataset.labels[r]), int(dataset.ids[r]))


def _take_ids(dataset, members):
    """The rows of ``dataset`` whose ids are in ``members``, in row order."""
    return dataset.take_rows([r for r in range(len(dataset)) if int(dataset.ids[r]) in members])


def split(dataset, spec) -> DataSplit:
    """Three-way split by id sets: the pinned shuffle of the sorted ids,
    cut into segments, each subset a scan of the parent's rows."""
    n = len(dataset)
    if n < 3:
        raise DataError("dataset must have at least 3 instances to split")
    n_val = round_half_up(spec.validation * n)
    n_test = round_half_up(spec.test * n)
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError(f"split of {n} instances yields empty subset")
    order = fisher_yates(sorted(int(i) for i in dataset.ids), spec.seed)
    if not spec.stratified:
        return DataSplit(_take_ids(dataset, set(order[:n_train])),
                         _take_ids(dataset, set(order[n_train:n_train + n_val])),
                         _take_ids(dataset, set(order[n_train + n_val:])))
    label_of = {int(i): int(l) for i, l in zip(dataset.ids, dataset.labels)}
    per_class = [[i for i in order if label_of[i] == c] for c in (0, 1)]
    counts = [len(g) for g in per_class]
    if min(counts) == 0:
        raise DataError("stratified split requires both classes present")
    val_alloc = largest_remainder_allocation(counts, n_val)
    test_alloc = largest_remainder_allocation(counts, n_test)
    train_ids, val_ids, test_ids = set(), set(), set()
    for c in (0, 1):
        if val_alloc[c] + test_alloc[c] >= counts[c]:
            raise DataError(f"class {c} too small for stratified split")
        members = per_class[c]
        val_ids.update(members[:val_alloc[c]])
        test_ids.update(members[val_alloc[c]:val_alloc[c] + test_alloc[c]])
        train_ids.update(members[val_alloc[c] + test_alloc[c]:])
    return DataSplit(_take_ids(dataset, train_ids), _take_ids(dataset, val_ids),
                     _take_ids(dataset, test_ids))


def drop_ids(dataset, drop):
    """``dataset`` without the rows whose ids are in ``drop``; each must exist."""
    drop_set = set(int(i) for i in drop)
    for i in drop_set:
        row_of(dataset, i)
    return _take_ids(dataset, set(dataset.ids.tolist()) - drop_set)


def stratified_sample(train, fraction: float, seed: int):
    """Per-class picks by a numpy permutation each, class 0's first, as
    ``baselines.stratified_sample`` draws them."""
    n = len(train)
    if n == 0:
        raise DataError("cannot sample from an empty dataset")
    counts = train.class_counts()
    if min(counts) == 0:
        raise DataError("stratified sampling needs at least one instance of each class")
    alloc = largest_remainder_allocation([c / n for c in counts], round_half_up(fraction * n))
    if min(alloc) == 0:
        raise DataError("a class would get no instances")
    rng = np.random.default_rng(seed)
    picks = []
    for label, take in enumerate(alloc):
        rows = [r for r in range(n) if int(train.labels[r]) == label]
        picks.extend(rows[p] for p in rng.permutation(len(rows))[:take].tolist())
    return train.take_rows(picks)


def pearson_distance(a, b) -> float:
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if a == b:
        return 0.0
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    if va == 0.0 or vb == 0.0:
        return 1.0
    r = sum((x - ma) * (y - mb) for x, y in zip(a, b)) / math.sqrt(va * vb)
    r = max(-1.0, min(1.0, r))
    return 1.0 - r


def euclidean_distance(a, b) -> float:
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def distance(a, b, measure: str) -> float:
    if measure == "euclidean":
        return euclidean_distance(a, b)
    if measure == "correlation":
        return pearson_distance(a, b)
    raise ValueError(measure)


def knn(dataset, query_id: int, k: int, measure: str):
    """All-pairs scan and full sort; returns [(id, dist)] of length k."""
    q = dataset.features[row_of(dataset, query_id)]
    scored = []
    for inst in instances(dataset):
        if inst.id == query_id:
            continue
        scored.append((distance(q, inst.features, measure), inst.id))
    scored.sort()
    return [(i, d) for d, i in scored[:k]]


def components(dataset, query_id: int, k: int, measure: str):
    """(pcl, deviation, kdist) of one instance, from first principles."""
    query = instance(dataset, query_id)
    neighbours = knn(dataset, query_id, k, measure)
    same = sum(1 for nid, _ in neighbours
               if instance(dataset, nid).label == query.label)
    kdist = sum(d for _, d in neighbours)
    dev = sum(
        distance(query.features, inst.features, measure)
        for inst in instances(dataset)
        if inst.label == query.label and inst.id != query_id
    )
    return same / k, dev, kdist


def ecodb(dataset, k: int, n: int, measure: str):
    """Two-pass detection by direct enumeration.

    Returns [(id, score)] strongest outlier first.
    """
    table = []
    for inst in instances(dataset):
        pcl, dev, kdist = components(dataset, inst.id, k, measure)
        table.append({"id": inst.id, "pcl": pcl, "dev": dev, "kdist": kdist})
    table.sort(key=lambda t: (k * t["pcl"], -t["dev"], t["kdist"], t["id"]))
    cand = table[:n]
    if not cand:
        return []
    lo_d = min(t["dev"] for t in cand)
    hi_d = max(t["dev"] for t in cand)
    lo_k = min(t["kdist"] for t in cand)
    hi_k = max(t["kdist"] for t in cand)

    def norm(x, lo, hi):
        return 0.0 if hi == lo else (x - lo) / (hi - lo)

    scored = [
        (k * t["pcl"] - norm(t["dev"], lo_d, hi_d) + norm(t["kdist"], lo_k, hi_k), t["id"])
        for t in cand
    ]
    scored.sort()
    return [(i, s) for s, i in scored]


def codb(dataset, k: int, n: int, measure: str, alpha: float, beta: float):
    """Single-pass weighted scoring; returns [(id, score)]."""
    scored = []
    for inst in instances(dataset):
        pcl, dev, kdist = components(dataset, inst.id, k, measure)
        dev = dev if dev != 0.0 else 1e-12
        scored.append((k * pcl + alpha / dev + beta * kdist, inst.id))
    scored.sort()
    return [(i, s) for s, i in scored[:n]]


def mlp_loss(w_ih, w_ho, X, y) -> float:
    """Summed cross-entropy of the two-layer sigmoid net, scalar math only."""
    total = 0.0
    n_hidden = len(w_ho) - 1
    for row, label in zip(X, y):
        hidden = []
        for j in range(n_hidden):
            z = sum(w * x for w, x in zip(w_ih[j][:-1], row)) + w_ih[j][-1]
            hidden.append(_sigmoid(z))
        z_out = sum(w * h for w, h in zip(w_ho[:-1], hidden)) + w_ho[-1]
        p = _sigmoid(z_out)
        p = min(max(p, 1e-12), 1.0 - 1e-12)
        total += -(label * math.log(p) + (1.0 - label) * math.log(1.0 - p))
    return total


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def loss_gradients(network, X, y):
    """Summed cross-entropy loss and its gradients at the current weights.

    Sums :meth:`ecoamlp.mlp._FlatLayers.step`, the step that training
    applies, over the rows without applying any update; the return is
    (loss, d_loss/d_w_ih, d_loss/d_w_ho).
    """
    X = np.asarray(X, dtype=np.float64)
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    layers = _FlatLayers([network])
    loss = 0.0
    g_ih = np.zeros_like(network.w_ih)
    g_ho = np.zeros_like(network.w_ho)
    for xb, target in zip(Xb, np.asarray(y, dtype=np.float64)):
        p, delta_out, _, h, delta_h = layers.step(xb[None, :], target)
        p = min(max(float(p[0]), PROB_CLIP), 1.0 - PROB_CLIP)
        loss -= target * math.log(p) + (1.0 - target) * math.log(1.0 - p)
        g_ho[:-1] += delta_out[0] * h
        g_ho[-1] += delta_out[0]
        g_ih += np.outer(delta_h, xb)
    return float(loss), g_ih, g_ho


def fd_gradients(loss_fn, w_ih, w_ho, h: float = 1e-5):
    """Central finite differences of loss_fn over both weight arrays."""
    g_ih = [[0.0] * len(row) for row in w_ih]
    g_ho = [0.0] * len(w_ho)
    for j, row in enumerate(w_ih):
        for c in range(len(row)):
            keep = row[c]
            row[c] = keep + h
            up = loss_fn(w_ih, w_ho)
            row[c] = keep - h
            down = loss_fn(w_ih, w_ho)
            row[c] = keep
            g_ih[j][c] = (up - down) / (2.0 * h)
    for c in range(len(w_ho)):
        keep = w_ho[c]
        w_ho[c] = keep + h
        up = loss_fn(w_ih, w_ho)
        w_ho[c] = keep - h
        down = loss_fn(w_ih, w_ho)
        w_ho[c] = keep
        g_ho[c] = (up - down) / (2.0 * h)
    return g_ih, g_ho


def recount_confusion(predictions, truths):
    """(tp, tn, fp, fn) by dictionary counting."""
    counts = {}
    for p, t in zip(predictions, truths):
        counts[(int(p), int(t))] = counts.get((int(p), int(t)), 0) + 1
    return (
        counts.get((1, 1), 0),
        counts.get((0, 0), 0),
        counts.get((1, 0), 0),
        counts.get((0, 1), 0),
    )
