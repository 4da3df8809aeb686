"""Distance measure contracts and oracle agreement."""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ecoamlp.distance import (
    BLOCK_ELEMENTS,
    Measure,
    _add_reduce,
    _correlation_arrays,
    block_rows,
    cross_distances,
    distance,
    nearest_neighbours,
    pairwise_distances,
)
from ecoamlp.errors import ConfigError


class TestParse:
    def test_known_names(self):
        assert Measure.parse("euclidean") is Measure.EUCLIDEAN
        assert Measure.parse(" Correlation ") is Measure.CORRELATION

    def test_unknown_name(self):
        for name in ("cosine", "mixed"):
            with pytest.raises(ConfigError, match="choose from: euclidean, correlation\\)"):
                Measure.parse(name)


class TestEuclidean:
    def test_three_four_five(self):
        assert distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.normal(size=(2, 6))
            assert distance(a, b) == pytest.approx(
                oracles.euclidean_distance(a, b), abs=1e-12
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 5)) * 10
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


class TestCorrelation:
    def test_self_distance_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert distance(v, v, Measure.CORRELATION) == 0.0

    def test_perfect_anticorrelation(self):
        assert distance([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], Measure.CORRELATION) == 2.0

    def test_zero_variance_rules(self):
        const = [2.0, 2.0, 2.0]
        assert distance(const, [1.0, 2.0, 3.0], Measure.CORRELATION) == 1.0
        assert distance([1.0, 2.0, 3.0], const, Measure.CORRELATION) == 1.0
        assert distance(const, const, Measure.CORRELATION) == 0.0
        assert distance(const, [5.0, 5.0, 5.0], Measure.CORRELATION) == 1.0

    def test_range_and_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = rng.normal(size=(2, 7))
            d = distance(a, b, Measure.CORRELATION)
            assert 0.0 <= d <= 2.0
            assert d == pytest.approx(oracles.pearson_distance(a, b), abs=1e-9)

    def test_length_one_rejected(self):
        with pytest.raises(ValueError, match="length"):
            distance([1.0], [2.0], Measure.CORRELATION)


@pytest.mark.parametrize("measure", list(Measure))
class TestCommonProperties:
    def test_symmetry_and_identity(self, measure):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.normal(size=4)
            b = np.where(rng.random(4) < 0.3, a, rng.normal(size=4))
            assert distance(a, b, measure) == distance(b, a, measure)
            assert distance(a, a, measure) == 0.0
            assert distance(a, b, measure) >= 0.0

    def test_length_mismatch_rejected(self, measure):
        with pytest.raises(ValueError, match="mismatch"):
            distance([1.0, 2.0], [1.0, 2.0, 3.0], measure)


class TestVectorizedPaths:
    def test_pairwise_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(15, 5))
        X[3] = X[7]  # duplicate rows
        X[9] = 2.0  # constant row
        for measure in (Measure.EUCLIDEAN, Measure.CORRELATION):
            D = pairwise_distances(X, measure)
            for i in range(15):
                for j in range(15):
                    assert D[i, j] == distance(X[i], X[j], measure)

    def test_pairwise_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 4))
        for measure in (Measure.EUCLIDEAN, Measure.CORRELATION):
            D = pairwise_distances(X, measure)
            assert np.array_equal(D, D.T)
            assert np.all(np.diag(D) == 0.0)

    def test_distances_to_matches_scalar(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 6))
        q = rng.normal(size=6)
        d = cross_distances(q.reshape(1, -1), X, Measure.CORRELATION)
        for i in range(10):
            assert d[0, i] == distance(q, X[i], Measure.CORRELATION)


PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def feature_matrices(draw, d=None):
    """Rows with ties, duplicates, sign-of-zero twins and constant rows.

    Half the examples have enough rows that ``pairwise_distances`` fills
    its output in two or more blocks.
    """
    d = draw(st.integers(2, 24)) if d is None else d
    spanning = math.isqrt(2 * BLOCK_ELEMENTS // min(d, _correlation_arrays(d))) + 1
    n = draw(st.one_of(st.integers(1, 12), st.integers(spanning, spanning + 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(-2, 3, size=(n, d)) * draw(st.sampled_from([1.0, 0.25, 1e3]))
    else:
        X = rng.normal(size=(n, d)) * draw(st.sampled_from([1.0, 1e-3, 1e4]))
    for _ in range(n // 4):
        src, dst = rng.integers(0, n, size=2)
        kind = rng.integers(0, 3)
        if kind == 0:
            X[dst] = X[src]
        elif kind == 1:
            X[src, rng.integers(0, d)] = 0.0
            X[dst] = np.where(X[src] == 0.0, -0.0, X[src])
        else:
            # a quarter-integer constant has an exact row mean, so zero variance
            X[dst] = rng.integers(-8, 9) * 0.25
    return X


def scalar_reference(Q, X, pairs, measure):
    return np.array([distance(Q[i], X[j], measure) for i, j in pairs])


def sample_pairs(m, X, seed, measure, size=150):
    """Every pair when the (m, len(X)) matrix is small, else the first and
    last row of every block the kernel fills, plus a random sample."""
    n = len(X)
    if m * n <= size:
        return [(i, j) for i in range(m) for j in range(n)]
    correlation = measure is Measure.CORRELATION
    step = block_rows(_correlation_arrays(X.shape[1]) * n if correlation else X.size)
    edges = sorted({r for start in range(0, m, step) for r in (start, min(start + step, m) - 1)})
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in edges for j in (0, n - 1)]
    pairs += list(zip(rng.integers(0, m, size).tolist(), rng.integers(0, n, size).tolist()))
    return pairs


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("measure", list(Measure))
class TestBlockedMatrix:
    @PROPERTY_SETTINGS
    @given(X=feature_matrices())
    def test_pairwise_equals_scalar_distance_bit_for_bit(self, measure, X):
        D = pairwise_distances(X, measure)
        pairs = sample_pairs(len(X), X, len(X), measure)
        got = np.array([D[i, j] for i, j in pairs])
        assert np.array_equal(bits(got), bits(scalar_reference(X, X, pairs, measure)))

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_cross_equals_scalar_distance_bit_for_bit(self, measure, data):
        X = data.draw(feature_matrices())
        Q = data.draw(feature_matrices(d=X.shape[1]))
        shared = min(len(Q), len(X)) // 2
        Q[:shared] = X[:shared]
        D = cross_distances(Q, X, measure)
        assert D.shape == (len(Q), len(X))
        pairs = sample_pairs(len(Q), X, len(Q), measure)
        got = np.array([D[i, j] for i, j in pairs])
        assert np.array_equal(bits(got), bits(scalar_reference(Q, X, pairs, measure)))

    @PROPERTY_SETTINGS
    @given(X=feature_matrices())
    def test_symmetric_zero_diagonal_equal_and_constant_rows(self, measure, X):
        D = pairwise_distances(X, measure)
        assert np.array_equal(bits(D), bits(D.T))
        assert np.array_equal(bits(np.diag(D)), bits(np.zeros(len(X))))
        assert np.all(D >= 0.0)
        # rows equal under == (so also up to the sign of zero) are at distance 0
        equal = np.all(X[:, None, :] == X[None, :, :], axis=2)
        assert np.all(D[equal] == 0.0)
        if measure is Measure.CORRELATION:
            assert np.all(D <= 2.0)
            constant = np.all(X == X[:, :1], axis=1)
            either = (constant[:, None] | constant[None, :]) & ~equal
            assert np.all(D[either] == 1.0)


def per_pair_correlation(a, b):
    """Correlation distance of one pair, each reduction one ``np.sum`` over a row."""
    if np.all(a == b):
        return 0.0
    ac, bc = a - a.mean(), b - b.mean()
    aa, bb = np.sum(ac * ac), np.sum(bc * bc)
    if not (aa > 0.0 and bb > 0.0):
        return 1.0
    return 1.0 - np.clip(np.sum(ac * bc) / np.sqrt(aa * bb), -1.0, 1.0)


class TestColumnSums:
    """Dot products summed term by term over whole arrays keep numpy's order."""

    @settings(PROPERTY_SETTINGS, max_examples=80)
    @given(d=st.integers(1, 300),
           scale=st.sampled_from([1.0, 1e8, 1e-8, "mixed"]),
           zeros=st.sampled_from(["none", "signed", "all -0.0"]),
           seed=st.integers(0, 2**32 - 1))
    @example(d=7, scale=1.0, zeros="signed", seed=1)
    @example(d=8, scale="mixed", zeros="none", seed=2)
    @example(d=128, scale="mixed", zeros="signed", seed=3)
    @example(d=129, scale="mixed", zeros="none", seed=4)
    @example(d=300, scale=1e8, zeros="all -0.0", seed=5)
    def test_add_reduce_equals_numpy_sum(self, d, scale, zeros, seed):
        rng = np.random.default_rng(seed)
        terms = rng.normal(size=(d, 3, 5))
        if scale == "mixed":
            terms *= 10.0 ** rng.integers(-8, 9, size=(d, 1, 5))
        else:
            terms *= scale
        if zeros == "signed":
            spots = rng.random(terms.shape) < 0.3
            terms[spots] = np.where(rng.random(spots.sum()) < 0.5, 0.0, -0.0)
        elif zeros == "all -0.0":
            terms[...] = -0.0

        def write(start, stop, out):
            out[...] = terms[start:stop]
            return out

        buffers = np.empty((_correlation_arrays(d), 3, 5))
        got = _add_reduce(write, d, buffers[:8], buffers[8:])
        want = np.sum(np.stack(list(terms), -1), axis=-1)
        assert np.array_equal(bits(got), bits(want))

    @PROPERTY_SETTINGS
    @given(d=st.sampled_from([2, 5, 8, 13, 24, 130]), data=st.data())
    def test_correlation_matrix_equals_per_pair_sums(self, d, data):
        X = data.draw(feature_matrices(d=d))
        Q = data.draw(feature_matrices(d=d))
        shared = min(len(Q), len(X)) // 2
        Q[:shared] = X[:shared]
        D = cross_distances(Q, X, Measure.CORRELATION)
        pairs = sample_pairs(len(Q), X, d, Measure.CORRELATION)
        want = [per_pair_correlation(Q[i], X[j]) for i, j in pairs]
        assert np.array_equal(bits([D[i, j] for i, j in pairs]), bits(want))


class TestBlockLayout:
    def test_rows_per_block_stay_within_budget(self):
        for row_elements in (1, 7, 8 * 538, 8 * 3072, BLOCK_ELEMENTS, 10 * BLOCK_ELEMENTS):
            rows = block_rows(row_elements)
            assert rows >= 1
            assert rows == 1 or rows * row_elements <= BLOCK_ELEMENTS

    def test_signed_zero_twins_and_constant_rows(self):
        X = np.array([[0.0, 1.0, -2.0], [-0.0, 1.0, -2.0], [3.0, 3.0, 3.0],
                      [-1.0, -1.0, -1.0], [0.0, 0.0, 0.0], [-0.0, -0.0, 0.0],
                      [-0.0, -0.0, -0.0]])
        D = pairwise_distances(X, Measure.CORRELATION)
        assert D[0, 1] == D[1, 0] == 0.0
        assert D[4, 5] == D[4, 6] == D[6, 4] == 0.0
        assert D[2, 3] == D[2, 4] == D[0, 2] == 1.0
        assert pairwise_distances(X)[0, 1] == 0.0

    @pytest.mark.parametrize("measure", list(Measure))
    def test_column_major_input_gives_the_same_bits(self, measure):
        X = np.random.default_rng(9).normal(size=(40, 7))
        want = pairwise_distances(X, measure)
        got = pairwise_distances(np.asfortranarray(X), measure)
        assert np.array_equal(bits(got), bits(want))
        assert bits(want[3, 5]) == bits(distance(X[3], X[5], measure))

    def test_blocks_leave_no_reference_cycles(self):
        # a cycle would hold each call's block buffers until the collector runs
        X = np.random.default_rng(3).normal(size=(300, 130))
        gc.collect()
        gc.disable()
        try:
            for measure in Measure:
                pairwise_distances(X, measure)
            nearest_neighbours(pairwise_distances(X), np.arange(300), 5, exclude_self=True)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_non_2d_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            cross_distances(np.zeros(3), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            cross_distances(np.zeros((1, 3)), np.zeros((2, 4)))


def reference_neighbours(D, ids, k, exclude_self):
    rows = []
    for i in range(D.shape[0]):
        order = np.lexsort((ids, D[i]))
        if exclude_self:
            order = order[order != i]
        rows.append(order[:k])
    return np.array(rows, dtype=np.intp).reshape(D.shape[0], k)


class TestNearestNeighbours:
    @PROPERTY_SETTINGS
    @given(
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        levels=st.integers(1, 6),
        special=st.sampled_from([None, np.inf, np.nan]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_full_lexsort(self, m, n, levels, special, seed, data):
        rng = np.random.default_rng(seed)
        exclude_self = data.draw(st.booleans()) and n >= 2
        if exclude_self:
            m = n
        k = data.draw(st.integers(1, n - 1 if exclude_self else n))
        # few distinct values, so most k-th distances are tied
        D = rng.integers(0, levels, size=(m, n)) * 0.5
        if special is not None:
            D[rng.random((m, n)) < 0.2] = special
        D[rng.random((m, n)) < 0.1] = -0.0
        ids = rng.permutation(10 * n)[:n]
        got = nearest_neighbours(D, ids, k, exclude_self)
        assert np.array_equal(got, reference_neighbours(D, ids, k, exclude_self))

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_every_row_twice(self, exclude_self):
        # bootstrap-like: each row has a twin at the same distance, ids repeated
        rng = np.random.default_rng(4)
        X = np.repeat(rng.integers(0, 4, size=(150, 3)).astype(np.float64), 2, axis=0)
        D = pairwise_distances(X)
        ids = np.repeat(rng.permutation(150), 2)
        for k in (1, 2, 5, 12):
            got = nearest_neighbours(D, ids, k, exclude_self)
            assert np.array_equal(got, reference_neighbours(D, ids, k, exclude_self))

    def test_wide_rows_span_several_blocks(self):
        rng = np.random.default_rng(8)
        n = 600
        assert block_rows(n) < n // 4
        D = rng.integers(0, 50, size=(n, n)).astype(np.float64)
        ids = rng.permutation(n)
        for k in (1, 12, n - 1):
            got = nearest_neighbours(D, ids, k, exclude_self=True)
            assert np.array_equal(got, reference_neighbours(D, ids, k, True))
