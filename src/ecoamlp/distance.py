"""Distance measures between instance feature vectors.

Three measures are supported:

* ``euclidean`` - root of summed squared coordinate differences.
* ``correlation`` - 1 minus the Pearson correlation of the two vectors
  treated as paired samples, giving a dissimilarity in [0, 2]. If either
  vector has zero variance the correlation is taken as 0 (distance 1),
  except that element-wise equal vectors are always at distance 0.
* ``mixed`` - euclidean over the numeric features plus the count of
  mismatching nominal features; requires per-feature kind metadata.

``cross_distances(Q, X)`` is the one kernel: the (m, n) matrix of
distances from each row of Q to each row of X. ``pairwise_distances(X)``
is its X-against-X case and ``distance(a, b)`` its 1 x 1 case, so all
three agree bit for bit. The kernel centres the rows and takes their
squared norms once per call, then fills the output one block of query
rows at a time. A block's temporaries hold (rows, n, d) values, and the
rows per block come from ``BLOCK_ELEMENTS``, so a temporary stays
within 512 KB whatever m is (and exceeds it only when one row's n x d
values alone do). Each distance is still reduced on its own over the
contiguous length-d feature axis (``einsum`` for euclidean, ``np.sum``
for correlation), which is the same reduction, in the same order,
whether a block holds one row or many. No BLAS product is used:
it would sum in another order and move the last bits.

``nearest_neighbours`` holds the one nearest-neighbour rule shared by the
class-outlier detectors and k-NN voting: order columns by (distance, id),
optionally leaving out each row's own column.

No feature scaling happens here; callers decide what the coordinates mean.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Sequence

import numpy as np

from .data import NOMINAL, NUMERIC
from .errors import ConfigError

BLOCK_ELEMENTS = 1 << 16
"""Values in one block's largest temporary (2^16 float64 = 512 KB)."""


class Measure(enum.Enum):
    EUCLIDEAN = "euclidean"
    CORRELATION = "correlation"
    MIXED = "mixed"

    @classmethod
    def parse(cls, name: str) -> "Measure":
        try:
            return cls(name.strip().lower())
        except ValueError:
            choices = ", ".join(m.value for m in cls)
            raise ConfigError(f"unknown measure {name!r} (choose from: {choices})") from None


def block_rows(row_elements: int) -> int:
    """Rows per block when one row of a block's temporary holds ``row_elements`` values."""
    return max(1, BLOCK_ELEMENTS // max(1, row_elements))


def distance(
    a: np.ndarray,
    b: np.ndarray,
    measure: Measure = Measure.EUCLIDEAN,
    kinds: Optional[Sequence[str]] = None,
) -> float:
    """Distance between two feature vectors under ``measure``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("distance expects 1-D feature vectors")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(cross_distances(a.reshape(1, -1), b.reshape(1, -1), measure, kinds)[0, 0])


def pairwise_distances(
    X: np.ndarray,
    measure: Measure = Measure.EUCLIDEAN,
    kinds: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Symmetric n x n distance matrix with an exactly-zero diagonal."""
    return cross_distances(X, X, measure, kinds)


def cross_distances(
    Q: np.ndarray,
    X: np.ndarray,
    measure: Measure = Measure.EUCLIDEAN,
    kinds: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """(m, n) matrix whose entry (i, j) is the distance from ``Q[i]`` to ``X[j]``."""
    # row-major, so every reduction runs along a contiguous row
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    if Q.ndim != 2 or X.ndim != 2:
        raise ValueError("Q and X must be 2-D matrices of row vectors")
    if Q.shape[1] != X.shape[1]:
        raise ValueError(f"length mismatch: {Q.shape[1]} vs {X.shape[1]} features")
    block = _block_kernel(Q, X, measure, kinds)
    out = np.empty((Q.shape[0], X.shape[0]))
    step = block_rows(X.size)
    for start in range(0, Q.shape[0], step):
        rows = slice(start, start + step)
        out[rows] = block(rows)
    return out


def nearest_neighbours(
    D: np.ndarray,
    ids: np.ndarray,
    k: int,
    exclude_self: bool = False,
) -> np.ndarray:
    """Column indices of each row's k nearest columns of ``D``, nearest first.

    Columns are ordered by (distance, ``ids[column]``). With
    ``exclude_self`` D is square and row i never picks column i. Each
    block of rows is partitioned with ``argpartition`` (the own column set
    to +inf) and the k picks sorted by (distance, id). A row whose k-th
    distance is not finite, or is tied with a column left out, is redone
    with a full ``lexsort``, so the result is exactly the first k of that
    full sort.
    """
    m, n = D.shape
    out = np.empty((m, k), dtype=np.intp)
    step = block_rows(n)
    for start in range(0, m, step):
        block = D[start:start + step]
        b = block.shape[0]
        if exclude_self:
            block = block.copy()
            block[np.arange(b), np.arange(start, start + b)] = np.inf
        picks = np.argpartition(block, k - 1, axis=1)[:, :k]
        dists = np.take_along_axis(block, picks, axis=1)
        kth = dists[:, k - 1:]
        order = np.lexsort((ids[picks], dists), axis=1)
        out[start:start + b] = np.take_along_axis(picks, order, axis=1)
        clear = np.isfinite(kth[:, 0]) & (np.count_nonzero(block <= kth, axis=1) == k)
        for r in np.flatnonzero(~clear):
            row = start + r
            full = np.lexsort((ids, D[row]))
            if exclude_self:
                full = full[full != row]
            out[row] = full[:k]
    return out


def _block_kernel(
    Q: np.ndarray,
    X: np.ndarray,
    measure: Measure,
    kinds: Optional[Sequence[str]],
) -> Callable[[slice], np.ndarray]:
    if measure is Measure.EUCLIDEAN:
        return _euclidean(Q, X)
    if measure is Measure.CORRELATION:
        if X.shape[1] < 2:
            raise ValueError("correlation distance needs vectors of length >= 2")
        return _correlation(Q, X)
    if measure is Measure.MIXED:
        if kinds is None:
            raise ConfigError("mixed measure requires per-feature kind metadata")
        if len(kinds) != X.shape[1]:
            raise ConfigError("kind metadata length does not match feature count")
        return _mixed(Q, X, kinds)
    raise ConfigError(f"unsupported measure {measure!r}")


def _euclidean(Q, X):
    def block(rows):
        diff = X - Q[rows, None, :]
        return np.sqrt(np.einsum("bij,bij->bi", diff, diff))
    return block


def _correlation(Q, X):
    Qc, q_sq, q_key = _centred(Q)
    Xc, x_sq, x_key = _centred(X)

    def block(rows):
        xs, qs = np.broadcast_arrays(x_sq, q_sq[rows, None])
        # zero-variance pairs skip the division: they are 1 by definition
        valid = (xs > 0.0) & (qs > 0.0)
        out = np.ones(valid.shape)
        r = np.sum(Xc * Qc[rows, None, :], axis=2)[valid] / np.sqrt(xs[valid] * qs[valid])
        out[valid] = 1.0 - np.clip(r, -1.0, 1.0)
        # element-wise equal rows have equal mean keys; only those pairs are compared
        i, j = np.nonzero(q_key[rows, None] == x_key)
        equal = np.all(X[j] == Q[rows][i], axis=1)
        out[i[equal], j[equal]] = 0.0
        return out
    return block


def _centred(A):
    """Centred rows, their squared norms, and an int64 key of each row mean.

    Rows that are equal element by element (``-0.0 == 0.0``) have means
    that compare equal, or are both NaN. The key maps -0.0 to 0.0 and every
    NaN to one NaN, so such rows always share a key.
    """
    mean = A.mean(axis=1, keepdims=True)
    Ac = A - mean
    key = np.where(np.isnan(mean[:, 0]), np.nan, mean[:, 0] + 0.0).view(np.int64)
    return Ac, np.sum(Ac * Ac, axis=1), key


def _mixed(Q, X, kinds):
    kinds = list(kinds)
    numeric = [i for i, k in enumerate(kinds) if k == NUMERIC]
    nominal = [i for i, k in enumerate(kinds) if k == NOMINAL]
    if len(numeric) + len(nominal) != len(kinds):
        raise ConfigError(f"unknown feature kind in {sorted(set(kinds))}")
    # a column subset comes back column-major; the copy puts each row back in one run
    euclidean = _euclidean(np.ascontiguousarray(Q[:, numeric]), np.ascontiguousarray(X[:, numeric]))
    Qn, Xn = Q[:, nominal], X[:, nominal]

    def block(rows):
        out = np.zeros((len(Q[rows]), X.shape[0]))
        if numeric:
            out += euclidean(rows)
        if nominal:
            out += (Xn != Qn[rows, None, :]).sum(axis=2).astype(np.float64)
        return out
    return block
