"""Distance measures between instance feature vectors.

Two measures are supported:

* ``euclidean`` - root of summed squared coordinate differences.
* ``correlation`` - 1 minus the Pearson correlation of the two vectors
  treated as paired samples, giving a dissimilarity in [0, 2]. If either
  vector has zero variance the correlation is taken as 0 (distance 1),
  except that element-wise equal vectors are always at distance 0.

``cross_distances(Q, X)`` is the one kernel: the (m, n) matrix of
distances from each row of Q to each row of X. ``pairwise_distances(X)``
is its X-against-X case and ``distance(a, b)`` its 1 x 1 case, so all
three agree bit for bit. The kernel fills the output one block of query
rows at a time, with as many rows as ``BLOCK_ELEMENTS`` allows for what
one query row of the block holds, so the temporaries stay within 512 KB
whatever m is.

* Euclidean holds (rows, n, d) differences and reduces each distance on
  its own over the contiguous length-d feature axis with ``einsum``, the
  same reduction whether a block holds one row or many.
* Correlation centres the rows and takes their squared norms once per
  call. A block holds only (rows, n) arrays, at most 16 of them whatever
  d is (``_correlation_arrays``): it multiplies up to eight feature
  columns at a time and adds the columns' products in the order
  ``np.add.reduce`` uses along a contiguous length-d axis
  (``_add_reduce``), so each dot product equals a per-pair ``np.sum``
  bit for bit.

No BLAS product is used: it would sum in another order and move the
last bits.

``nearest_neighbours`` holds the one nearest-neighbour rule shared by the
class-outlier detectors and k-NN voting: order columns by (distance, id,
column), optionally leaving out each row's own column.

No feature scaling happens here; callers decide what the coordinates mean.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigError

BLOCK_ELEMENTS = 1 << 16
"""Values one block may hold (2^16 float64 = 512 KB): its largest
temporary for euclidean, all its arrays together for correlation."""


class Measure(enum.Enum):
    EUCLIDEAN = "euclidean"
    CORRELATION = "correlation"

    @classmethod
    def parse(cls, name: str) -> "Measure":
        try:
            return cls(name.strip().lower())
        except ValueError:
            choices = ", ".join(m.value for m in cls)
            raise ConfigError(f"unknown measure {name!r} (choose from: {choices})") from None


def block_rows(row_elements: int) -> int:
    """Rows per block when one query row of a block holds ``row_elements`` values."""
    return max(1, BLOCK_ELEMENTS // max(1, row_elements))


def distance(
    a: np.ndarray,
    b: np.ndarray,
    measure: Measure = Measure.EUCLIDEAN,
) -> float:
    """Distance between two feature vectors under ``measure``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("distance expects 1-D feature vectors")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(cross_distances(a.reshape(1, -1), b.reshape(1, -1), measure)[0, 0])


def pairwise_distances(
    X: np.ndarray,
    measure: Measure = Measure.EUCLIDEAN,
) -> np.ndarray:
    """Symmetric n x n distance matrix with an exactly-zero diagonal."""
    return cross_distances(X, X, measure)


def cross_distances(
    Q: np.ndarray,
    X: np.ndarray,
    measure: Measure = Measure.EUCLIDEAN,
) -> np.ndarray:
    """(m, n) matrix whose entry (i, j) is the distance from ``Q[i]`` to ``X[j]``."""
    # row-major, so every reduction runs along a contiguous row
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    if Q.ndim != 2 or X.ndim != 2:
        raise ValueError("Q and X must be 2-D matrices of row vectors")
    if Q.shape[1] != X.shape[1]:
        raise ValueError(f"length mismatch: {Q.shape[1]} vs {X.shape[1]} features")
    block, row_values = _block_kernel(Q, X, measure)
    out = np.empty((Q.shape[0], X.shape[0]))
    step = block_rows(row_values)
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

    Columns are ordered by (distance, ``ids[column]``, column). With
    ``exclude_self`` D is square and row i never picks column i. Each
    block of rows is partitioned with ``argpartition`` (the own column set
    to +inf) and the k picks sorted by (distance, id, column). Where a
    row's finite k-th distance ties a column left out, the block's tied
    rows are partitioned again on one integer key: every column nearer
    than the k-th distance comes first, then the columns at it in (id,
    column) order. A row whose k-th distance is not finite is redone alone
    with a full ``lexsort`` of its row of D. So the result is exactly the
    first k of that full sort.
    """
    m, n = D.shape
    out = np.empty((m, k), dtype=np.intp)
    rank = np.empty(n, dtype=np.int32)  # each column's place in (id, column) order
    rank[np.argsort(ids, kind="stable")] = np.arange(n)
    step = block_rows(n)
    for start in range(0, m, step):
        block = D[start:start + step]
        b = block.shape[0]
        if exclude_self:
            block = block.copy()
            block[np.arange(b), np.arange(start, start + b)] = np.inf
        picks = np.argpartition(block, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(block, picks[:, k - 1:], axis=1)
        finite = np.isfinite(kth[:, 0])
        tied = np.flatnonzero(finite & (np.count_nonzero(block <= kth, axis=1) > k))
        if tied.size:
            # every column nearer than the k-th goes in; columns at it fill up by rank
            rows, at = block[tied], kth[tied]
            key = np.full(rows.shape, n, dtype=np.int32)
            np.copyto(key, rank, where=rows == at)
            np.copyto(key, -1, where=rows < at)
            picks[tied] = np.argpartition(key, k - 1, axis=1)[:, :k]
        dists = np.take_along_axis(block, picks, axis=1)
        order = np.lexsort((picks, ids[picks], dists), axis=1)
        out[start:start + b] = np.take_along_axis(picks, order, axis=1)
        for r in np.flatnonzero(~finite):
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
) -> Tuple[Callable[[slice], np.ndarray], int]:
    """The measure's block function and the values one query row of a block holds."""
    if measure is Measure.EUCLIDEAN:
        return _euclidean(Q, X)
    if measure is Measure.CORRELATION:
        if X.shape[1] < 2:
            raise ValueError("correlation distance needs vectors of length >= 2")
        return _correlation(Q, X)
    raise ConfigError(f"unsupported measure {measure!r}")


def _euclidean(Q, X):
    def block(rows):
        diff = X - Q[rows, None, :]
        return np.sqrt(np.einsum("bij,bij->bi", diff, diff))
    return block, X.size


def _correlation(Q, X):
    """Correlation blocks from (rows, n) arrays, eight feature columns at a time.

    Term k of every dot product in a block is ``XcT[k] * QcT[k, rows]``,
    and ``_add_reduce`` adds the terms in the order ``np.sum`` adds a row's
    products. Pairs where either row has zero variance skip the division
    and keep correlation 0; pairs of element-wise equal rows, found by
    their ``_row_labels``, are set to distance 0.
    """
    Qc, q_sq = _centred(Q)
    Xc, x_sq = _centred(X)
    QcT, XcT = np.ascontiguousarray(Qc.T), np.ascontiguousarray(Xc.T)
    q_spread, x_spread = q_sq > 0.0, x_sq > 0.0
    # a zero-variance row's norm stands in as 1, so no product or root can fail
    q_norm, x_norm = np.where(q_spread, q_sq, 1.0), np.where(x_spread, x_sq, 1.0)
    q_label, x_label = _row_labels(Q, X)
    d = X.shape[1]
    arrays = _correlation_arrays(d)
    # allocated once; a block returns a view of them, valid until the next block
    buffers = np.empty((arrays, min(len(Q), block_rows(arrays * len(X))), len(X)))

    def block(rows):
        held = buffers[:, :len(Q[rows])]
        acc = held[:8]
        dot = _add_reduce(lambda start, stop, out: np.multiply(
            XcT[start:stop, None, :], QcT[start:stop, rows, None], out=out), d, acc, held[8:])
        root = np.sqrt(np.multiply(x_norm, q_norm[rows, None], out=acc[1]), out=acc[1])
        # zero-variance pairs skip the division: their correlation is 0 by definition
        r = acc[2]
        r.fill(0.0)
        np.divide(dot, root, out=r, where=x_spread & q_spread[rows, None])
        out = np.subtract(1.0, np.clip(r, -1.0, 1.0, out=r), out=r)
        out.reshape(-1)[np.flatnonzero(q_label[rows, None] == x_label)] = 0.0
        return out
    return block, arrays * len(X)


def _correlation_arrays(d):
    """(rows, n) arrays a correlation block holds for d features: eight
    running sums, and the products of up to eight more columns at a time
    (one more array per halving of the sum above 128 features)."""
    return 8 + (d if d < 8 else min(d - 8, 8))


def _add_reduce(terms, count, acc, spare):
    """``np.add.reduce`` over ``count`` whole-array terms, in numpy's order.

    ``terms(start, stop, out)`` writes terms start to stop - 1 into ``out``
    and returns it. The sum equals ``np.add.reduce`` of the terms stacked
    on a contiguous last axis bit for bit, because it adds them in
    numpy's pairwise order (``_pairwise_sum``) and then adds the whole to
    0.0. ``acc`` holds eight arrays of the result's shape and ``spare``
    ``_correlation_arrays(count) - 8`` more; the sum is left in ``acc[0]``.
    """
    _pairwise_sum(terms, 0, count, acc, spare)
    acc[0] += 0.0
    return acc[0]


def _pairwise_sum(terms, start, count, acc, spare):
    """numpy's pairwise sum of terms start to start + count - 1, into ``acc[0]``.

    Fewer than 8 terms go in a running sum from 0.0; up to 128 terms in
    eight running accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the rest one by one; more than 128 as the sum of two halves split
    at half the count rounded down to a multiple of 8.
    """
    if count < 8:
        acc[0].fill(0.0)
        for term in terms(start, start + count, spare[:count]):
            acc[0] += term
    elif count <= 128:
        whole = count - count % 8
        terms(start, start + 8, acc)
        for i in range(start + 8, start + whole, 8):
            acc += terms(i, i + 8, spare)  # accumulator j adds term i + j
        for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
            acc[a] += acc[b]
        for term in terms(start + whole, start + count, spare[:count - whole]):
            acc[0] += term
    else:
        half = count // 2 - count // 2 % 8
        _pairwise_sum(terms, start, half, acc, spare)
        low = acc[0].copy()
        _pairwise_sum(terms, start + half, count - half, acc, spare)
        acc[0] += low


def _centred(A):
    """Centred rows and their squared norms."""
    Ac = A - A.mean(axis=1, keepdims=True)
    return Ac, np.sum(Ac * Ac, axis=1)


def _row_labels(Q, X):
    """Labels that two rows of Q and X share exactly when they are equal
    element by element (``-0.0 == 0.0``, a row holding NaN equals none)."""
    A = np.concatenate([Q, X])
    A += 0.0  # -0.0 becomes 0.0, so equal rows have equal bytes
    _, labels = np.unique(A.view(np.dtype((np.void, A.itemsize * A.shape[1]))).reshape(-1),
                          return_inverse=True)
    nan = np.isnan(A).any(axis=1)
    labels[nan] = -1 - np.arange(np.count_nonzero(nan))
    return labels[:len(Q)], labels[len(Q):]

