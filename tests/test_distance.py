"""Distance measure contracts and oracle agreement."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ecoamlp.distance import (
    BLOCK_ELEMENTS,
    Measure,
    block_rows,
    cross_distances,
    distance,
    nearest_neighbours,
    pairwise_distances,
)
from ecoamlp.errors import ConfigError

from synth import mixed_dataset


class TestParse:
    def test_known_names(self):
        assert Measure.parse("euclidean") is Measure.EUCLIDEAN
        assert Measure.parse(" Correlation ") is Measure.CORRELATION
        assert Measure.parse("MIXED") is Measure.MIXED

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown measure"):
            Measure.parse("cosine")


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


class TestMixed:
    def test_numeric_plus_mismatch_count(self):
        kinds = ("numeric", "nominal", "nominal")
        a = [0.0, 1.0, 2.0]
        b = [3.0, 1.0, 0.0]
        assert distance(a, b, Measure.MIXED, kinds) == 4.0  # |0-3| + 0 + 1

    def test_requires_kinds(self):
        with pytest.raises(ConfigError, match="kind"):
            distance([1.0], [2.0], Measure.MIXED)

    def test_kind_length_checked(self):
        with pytest.raises(ConfigError, match="length"):
            distance([1.0, 2.0], [2.0, 3.0], Measure.MIXED, kinds=("numeric",))

    def test_matches_oracle_on_mixed_dataset(self):
        ds = mixed_dataset(12, seed=3)
        kinds = ds.schema.kinds
        for i in range(len(ds)):
            for j in range(len(ds)):
                got = distance(ds.features[i], ds.features[j], Measure.MIXED, kinds)
                want = oracles.mixed_distance(ds.features[i], ds.features[j], kinds)
                assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("measure", list(Measure))
class TestCommonProperties:
    def test_symmetry_and_identity(self, measure):
        rng = np.random.default_rng(4)
        kinds = ("numeric", "nominal", "numeric", "nominal")
        for _ in range(50):
            a = rng.normal(size=4)
            b = np.where(rng.random(4) < 0.3, a, rng.normal(size=4))
            assert distance(a, b, measure, kinds) == distance(b, a, measure, kinds)
            assert distance(a, a, measure, kinds) == 0.0
            assert distance(a, b, measure, kinds) >= 0.0

    def test_length_mismatch_rejected(self, measure):
        with pytest.raises(ValueError, match="mismatch"):
            distance([1.0, 2.0], [1.0, 2.0, 3.0], measure, ("numeric",) * 3)


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


def mixed_kinds(d):
    return tuple("nominal" if c % 3 == 1 else "numeric" for c in range(d))


@st.composite
def feature_matrices(draw, d=None):
    """Rows with ties, duplicates, sign-of-zero twins and constant rows.

    Half the examples have enough rows that ``pairwise_distances`` fills
    its output in two or more blocks.
    """
    d = draw(st.integers(2, 24)) if d is None else d
    spanning = math.isqrt(2 * BLOCK_ELEMENTS // d) + 1
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
    kinds = mixed_kinds(X.shape[1])
    return np.array([distance(Q[i], X[j], measure, kinds) for i, j in pairs])


def sample_pairs(m, X, seed, size=150):
    """Every pair when the (m, len(X)) matrix is small, else the first and
    last row of every block the kernel fills, plus a random sample."""
    n = len(X)
    if m * n <= size:
        return [(i, j) for i in range(m) for j in range(n)]
    step = block_rows(X.size)
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
        D = pairwise_distances(X, measure, mixed_kinds(X.shape[1]))
        pairs = sample_pairs(len(X), X, seed=len(X))
        got = np.array([D[i, j] for i, j in pairs])
        assert np.array_equal(bits(got), bits(scalar_reference(X, X, pairs, measure)))

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_cross_equals_scalar_distance_bit_for_bit(self, measure, data):
        X = data.draw(feature_matrices())
        Q = data.draw(feature_matrices(d=X.shape[1]))
        shared = min(len(Q), len(X)) // 2
        Q[:shared] = X[:shared]
        D = cross_distances(Q, X, measure, mixed_kinds(X.shape[1]))
        assert D.shape == (len(Q), len(X))
        pairs = sample_pairs(len(Q), X, seed=len(Q))
        got = np.array([D[i, j] for i, j in pairs])
        assert np.array_equal(bits(got), bits(scalar_reference(Q, X, pairs, measure)))

    @PROPERTY_SETTINGS
    @given(X=feature_matrices())
    def test_symmetric_zero_diagonal_equal_and_constant_rows(self, measure, X):
        D = pairwise_distances(X, measure, mixed_kinds(X.shape[1]))
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
        kinds = mixed_kinds(7)
        want = pairwise_distances(X, measure, kinds)
        got = pairwise_distances(np.asfortranarray(X), measure, kinds)
        assert np.array_equal(bits(got), bits(want))
        assert bits(want[3, 5]) == bits(distance(X[3], X[5], measure, kinds))

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

    def test_wide_rows_span_several_blocks(self):
        rng = np.random.default_rng(8)
        n = 600
        assert block_rows(n) < n // 4
        D = rng.integers(0, 50, size=(n, n)).astype(np.float64)
        ids = rng.permutation(n)
        for k in (1, 12, n - 1):
            got = nearest_neighbours(D, ids, k, exclude_self=True)
            assert np.array_equal(got, reference_neighbours(D, ids, k, True))
