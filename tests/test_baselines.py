"""Preprocessors (z-transform, bootstrap, stratified) and the kNN/NB baselines."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ecoamlp.baselines import (
    VARIANCE_FLOOR,
    NaiveBayesModel,
    bootstrap_sample,
    knn_predict,
    naive_bayes_fit,
    naive_bayes_log_posteriors,
    naive_bayes_predict,
    stratified_sample,
    ztransform_fit,
)
from ecoamlp.data import Dataset
from ecoamlp.distance import Measure, distance
from ecoamlp.errors import ConfigError, DataError
from ecoamlp.harness import Preprocessor

from synth import numeric_schema, random_dataset


class TestPreprocessorConfig:
    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            Preprocessor(kind="smote")

    def test_fraction_defaults_per_kind(self):
        assert Preprocessor(kind="bootstrap").effective_fraction() == 1.0
        assert Preprocessor(kind="stratified").effective_fraction() == 0.9
        assert Preprocessor(kind="none").effective_fraction() == 1.0
        assert Preprocessor(kind="bootstrap", fraction=0.5).effective_fraction() == 0.5

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            Preprocessor(kind="bootstrap", fraction=0.0)
        with pytest.raises(ConfigError):
            Preprocessor(kind="bootstrap", fraction=1.5)


class TestZTransform:
    def test_exact_standardisation(self):
        # mean 5, population std 2 -> (7 - 5) / 2 is exactly 1
        features = np.array([[3.0], [3.0], [7.0], [7.0]])
        ds = Dataset(numeric_schema(1), features, np.array([0, 1, 0, 1]),
                     np.arange(4))
        out = ztransform_fit(ds).apply(ds)
        assert out.features[:, 0].tolist() == [-1.0, -1.0, 1.0, 1.0]

    def test_train_moments(self):
        ds = random_dataset(200, 4, seed=0)
        out = ztransform_fit(ds).apply(ds)
        assert np.allclose(out.features.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.features.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_maps_to_zero(self):
        features = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        ds = Dataset(numeric_schema(2), features, np.array([0, 1, 0]), np.arange(3))
        zt = ztransform_fit(ds)
        assert zt.apply(ds).features[:, 1].tolist() == [0.0, 0.0, 0.0]
        unseen = ds.with_feature_matrix(np.array([[9.0, 123.0]] * 3))
        assert zt.apply(unseen).features[:, 1].tolist() == [0.0, 0.0, 0.0]

    def test_apply_uses_train_statistics(self):
        train = random_dataset(100, 3, seed=1)
        other = random_dataset(50, 3, seed=2)
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)
        zt = ztransform_fit(train)
        got_train, got_other = zt.apply(train), zt.apply(other)
        assert np.allclose(got_other.features, (other.features - mean) / std,
                           atol=1e-12)
        assert np.allclose(got_train.features, (train.features - mean) / std,
                           atol=1e-12)

    def test_preserves_labels_and_ids(self):
        ds = random_dataset(30, 3, seed=3)
        out = ztransform_fit(ds).apply(ds)
        assert np.array_equal(out.labels, ds.labels)
        assert np.array_equal(out.ids, ds.ids)

    def test_errors(self):
        empty = random_dataset(10, 2, seed=4).take_rows([])
        with pytest.raises(DataError):
            ztransform_fit(empty)
        zt = ztransform_fit(random_dataset(10, 2, seed=4))
        with pytest.raises(DataError):
            zt.apply(random_dataset(10, 3, seed=4))


class TestBootstrap:
    def test_sample_size_rounds_half_up(self):
        ds = random_dataset(10, 2, seed=5)
        assert len(bootstrap_sample(ds, fraction=1.0, seed=0)) == 10
        assert len(bootstrap_sample(ds, fraction=0.25, seed=0)) == 3

    def test_rows_come_from_train(self):
        ds = random_dataset(20, 3, seed=6)
        sample = bootstrap_sample(ds, fraction=1.0, seed=1)
        assert sample.ids.tolist() == list(range(20))
        # continuous features: each drawn row matches exactly one train row
        origin = {tuple(inst.features): inst.label for inst in oracles.instances(ds)}
        for row in range(20):
            assert origin[tuple(sample.features[row])] == sample.labels[row]

    def test_determinism_and_seed_sensitivity(self):
        ds = random_dataset(30, 3, seed=7)
        a = bootstrap_sample(ds, fraction=1.0, seed=5)
        b = bootstrap_sample(ds, fraction=1.0, seed=5)
        c = bootstrap_sample(ds, fraction=1.0, seed=6)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_with_replacement_distinct_fraction(self):
        # E[distinct/n] = 1 - (1 - 1/n)^n; check the Monte-Carlo mean
        ds = random_dataset(50, 2, seed=8)
        rates = [len(np.unique(bootstrap_sample(ds, 1.0, s).features, axis=0)) / 50
                 for s in range(200)]
        expected = 1.0 - (1.0 - 1.0 / 50) ** 50
        assert np.mean(rates) == pytest.approx(expected, abs=0.05)

    def test_errors(self):
        ds = random_dataset(10, 2, seed=9)
        with pytest.raises(ConfigError):
            bootstrap_sample(ds, fraction=0.0, seed=0)
        with pytest.raises(DataError):
            bootstrap_sample(ds.take_rows([]), fraction=1.0, seed=0)


class TestStratified:
    def two_class_dataset(self, n0, n1, seed=0):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n0 + n1, 3))
        labels = np.array([0] * n0 + [1] * n1)
        return Dataset(numeric_schema(3), features, labels, np.arange(n0 + n1))

    def test_allocation_preserves_proportions(self):
        ds = self.two_class_dataset(20, 30)
        sample = stratified_sample(ds, fraction=0.9, seed=0)
        assert len(sample) == 45
        assert sample.class_counts() == (18, 27)

    def test_full_fraction_is_a_permutation(self):
        ds = self.two_class_dataset(10, 15)
        sample = stratified_sample(ds, fraction=1.0, seed=3)
        assert sorted(sample.ids.tolist()) == list(range(25))
        assert sample.class_counts() == ds.class_counts()

    def test_keeps_original_ids_without_duplicates(self):
        ds = self.two_class_dataset(25, 25)
        sample = stratified_sample(ds, fraction=0.5, seed=1)
        ids = sample.ids.tolist()
        assert len(set(ids)) == len(ids)
        assert set(ids) <= set(ds.ids.tolist())
        for inst in oracles.instances(sample):
            origin = oracles.instance(ds, inst.id)
            assert np.array_equal(inst.features, origin.features)
            assert inst.label == origin.label

    def test_label_counts_match_recount(self):
        ds = self.two_class_dataset(40, 10)
        sample = stratified_sample(ds, fraction=0.6, seed=2)
        tp, tn, fp, fn = oracles.recount_confusion(sample.labels, sample.labels)
        assert (tn, tp) == sample.class_counts() == (24, 6)

    def test_determinism_and_seed_sensitivity(self):
        ds = self.two_class_dataset(30, 30)
        a = stratified_sample(ds, fraction=0.5, seed=7)
        b = stratified_sample(ds, fraction=0.5, seed=7)
        c = stratified_sample(ds, fraction=0.5, seed=8)
        assert a.ids.tolist() == b.ids.tolist()
        assert set(a.ids.tolist()) != set(c.ids.tolist())

    def test_zero_allocation_rejected(self):
        ds = self.two_class_dataset(1, 49)
        with pytest.raises(DataError):
            stratified_sample(ds, fraction=0.02, seed=0)

    def test_single_class_rejected(self):
        ds = self.two_class_dataset(10, 0)
        with pytest.raises(DataError):
            stratified_sample(ds, fraction=0.9, seed=0)


def brute_force_knn(train, query, k, measure_name):
    scored = sorted(
        (oracles.distance(row.tolist(), query, measure_name), int(i))
        for row, i in zip(train.features, train.ids)
    )
    votes = sum(int(train.labels[oracles.row_of(train, i)]) for _, i in scored[:k])
    return 1 if votes * 2 > k else 0


class TestKnn:
    def test_one_neighbour_memorises_training_set(self):
        ds = random_dataset(40, 3, seed=10)
        preds = knn_predict(ds, ds.features, k=1, measure=Measure.EUCLIDEAN)
        assert np.array_equal(preds, ds.labels)

    def test_majority_vote(self):
        features = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        ds = Dataset(numeric_schema(2), features, np.array([1, 1, 0]), np.arange(3))
        query = np.array([[0.5, 0.0]])
        assert knn_predict(ds, query, k=3, measure=Measure.EUCLIDEAN).tolist() == [1]

    def test_even_tie_picks_class_zero(self):
        features = np.array([[0.0, 0.0], [1.0, 0.0]])
        ds = Dataset(numeric_schema(2), features, np.array([1, 0]), np.arange(2))
        query = np.array([[0.5, 0.0]])
        assert knn_predict(ds, query, k=2, measure=Measure.EUCLIDEAN).tolist() == [0]

    def test_distance_tie_resolves_by_id(self):
        # both neighbours are equidistant; the lower id (label 1) wins k=1
        features = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ds = Dataset(numeric_schema(2), features, np.array([1, 0]),
                     np.array([2, 5]))
        query = np.array([[0.0, 0.0]])
        assert knn_predict(ds, query, k=1, measure=Measure.EUCLIDEAN).tolist() == [1]

    @pytest.mark.parametrize("measure,name", [
        (Measure.EUCLIDEAN, "euclidean"), (Measure.CORRELATION, "correlation"),
    ])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_brute_force(self, measure, name, k):
        train = random_dataset(30, 4, seed=11)
        queries = random_dataset(10, 4, seed=12)
        got = knn_predict(train, queries.features, k=k, measure=measure)
        want = [brute_force_knn(train, q.tolist(), k, name)
                for q in queries.features]
        assert got.tolist() == want

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 30),
        d=st.integers(2, 4),
        levels=st.integers(1, 4),
        measure=st.sampled_from([Measure.EUCLIDEAN, Measure.CORRELATION]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_rowwise_lexsort_vote(self, n, d, levels, measure, seed, data):
        # few feature levels, so neighbour distances tie at the k-th place
        rng = np.random.default_rng(seed)
        train = Dataset(numeric_schema(d), rng.integers(0, levels, size=(n, d)).astype(float),
                        rng.integers(0, 2, size=n), rng.permutation(4 * n)[:n])
        queries = rng.integers(0, levels, size=(data.draw(st.integers(0, 8)), d)).astype(float)
        k = data.draw(st.sampled_from(sorted({1, max(1, n // 2), n})))
        want = []
        for q in queries:
            dists = np.array([distance(q, row, measure) for row in train.features])
            votes = train.labels[np.lexsort((train.ids, dists))[:k]].sum()
            want.append(1 if votes * 2 > k else 0)
        assert knn_predict(train, queries, k=k, measure=measure).tolist() == want

    def test_errors(self):
        ds = random_dataset(5, 2, seed=13)
        with pytest.raises(ConfigError):
            knn_predict(ds, ds.features, k=0, measure=Measure.EUCLIDEAN)
        with pytest.raises(ConfigError):
            knn_predict(ds, ds.features, k=6, measure=Measure.EUCLIDEAN)
        with pytest.raises(DataError):
            knn_predict(ds.take_rows([]), ds.features, k=1, measure=Measure.EUCLIDEAN)


class TestNaiveBayes:
    def test_fitted_moments(self):
        ds = random_dataset(60, 3, seed=14)
        model = naive_bayes_fit(ds)
        for label in (0, 1):
            rows = ds.features[ds.labels == label]
            assert np.allclose(model.means[label], rows.mean(axis=0), atol=1e-12)
            assert np.allclose(model.variances[label], rows.var(axis=0), atol=1e-12)
        n0, n1 = ds.class_counts()
        assert np.allclose(np.exp(model.class_log_prior),
                           [n0 / len(ds), n1 / len(ds)], atol=1e-12)

    def test_log_posteriors_match_scipy(self):
        ds = random_dataset(60, 3, seed=15)
        model = naive_bayes_fit(ds)
        queries = random_dataset(5, 3, seed=16).features
        got = naive_bayes_log_posteriors(model, queries)
        assert got.shape == (5, 2)
        for q, post in zip(queries, got):
            for label in (0, 1):
                want = model.class_log_prior[label] + scipy.stats.norm.logpdf(
                    q, loc=model.means[label],
                    scale=np.sqrt(model.variances[label])).sum()
                assert post[label] == pytest.approx(want, rel=1e-9)

    def test_separated_blobs_classified_perfectly(self):
        ds = random_dataset(80, 3, seed=17, separation=6.0)
        model = naive_bayes_fit(ds)
        preds = naive_bayes_predict(model, ds.features)
        assert np.array_equal(preds, ds.labels)

    def test_posterior_tie_picks_class_zero(self):
        model = NaiveBayesModel(
            class_log_prior=np.log([0.5, 0.5]),
            means=np.zeros((2, 2)),
            variances=np.ones((2, 2)),
        )
        assert naive_bayes_predict(model, np.array([[0.3, -0.7]])).tolist() == [0]

    def test_variance_floor_applies_to_constant_features(self):
        features = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        ds = Dataset(numeric_schema(2), features, np.array([0, 0, 1, 1]),
                     np.arange(4))
        model = naive_bayes_fit(ds)
        assert model.variances[0][1] == VARIANCE_FLOOR
        post = naive_bayes_log_posteriors(model, np.array([[1.0, 5.0]]))
        assert np.all(np.isfinite(post))

    def test_predict_matches_rowwise_posteriors(self):
        ds = random_dataset(40, 3, seed=18)
        model = naive_bayes_fit(ds)
        X = random_dataset(8, 3, seed=19).features
        post = naive_bayes_log_posteriors(model, X)
        rows = [naive_bayes_log_posteriors(model, x[None, :])[0] for x in X]
        assert np.array_equal(post, np.array(rows))
        assert naive_bayes_predict(model, X).tolist() == [int(p[1] > p[0]) for p in rows]

    def test_errors(self):
        features = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        ds = Dataset(numeric_schema(2), features, np.array([0, 0, 1]), np.arange(3))
        with pytest.raises(DataError):
            naive_bayes_fit(ds)
        model = naive_bayes_fit(random_dataset(20, 2, seed=20))
        with pytest.raises(DataError):
            naive_bayes_log_posteriors(model, np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(DataError):
            naive_bayes_log_posteriors(model, np.array([1.0, 2.0]))
