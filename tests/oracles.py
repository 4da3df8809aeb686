"""Independent reference implementations used only as test oracles.

Everything here is written directly from the definitions with plain
Python loops and scalar math, deliberately avoiding the package's
vectorized code paths, so agreement between the two is evidence rather
than tautology. The exception is :func:`loss_gradients`: it sums the
package's own training step, so that :func:`fd_gradients` checks the step
that trains.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ecoamlp.mlp import PROB_CLIP, _FlatLayers


class Instance(NamedTuple):
    """One row of a dataset: its features, class index and id."""

    features: Sequence[float]
    label: int
    id: int


def instances(dataset):
    """Every row of ``dataset`` as an :class:`Instance`, in row order."""
    return [Instance(dataset.features[r], int(dataset.labels[r]), int(dataset.ids[r]))
            for r in range(len(dataset))]


def instance(dataset, instance_id: int) -> Instance:
    r = dataset.row_of(instance_id)
    return Instance(dataset.features[r], int(dataset.labels[r]), int(dataset.ids[r]))


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
    q = dataset.features[dataset.row_of(query_id)]
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
