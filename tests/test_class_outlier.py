"""Class-outlier component formulas, ranking rules, and oracle agreement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ecoamlp import class_outlier
from ecoamlp.class_outlier import (
    EPSILON_DEVIATION,
    OutlierParams,
    cof,
    codb_detect,
    ecodb_detect,
    ecof,
    remove_outliers,
    _min_max,
)
from ecoamlp.data import Dataset
from ecoamlp.distance import Measure
from ecoamlp.errors import ConfigError, DataError

from synth import numeric_schema, random_dataset


def line_dataset(points, labels, ids=None):
    """1-D dataset padded with a zero column so correlation is defined."""
    points = np.asarray(points, dtype=np.float64)
    features = np.column_stack([points, np.zeros_like(points)])
    ids = np.arange(len(points)) if ids is None else np.asarray(ids)
    return Dataset(numeric_schema(2), features, np.asarray(labels), ids)


def components(ds, k, measure=Measure.EUCLIDEAN):
    """Every instance's reported components, keyed by id."""
    report = codb_detect(ds, OutlierParams(k=k, n_outliers=len(ds), measure=measure))
    return {s.id: s for s in report.ranked}


class TestComponents:
    def test_knn_simple_geometry(self):
        ds = line_dataset([0.0, 1.0, 10.0], [0, 0, 1])
        # neighbours of 0 at k=2: id 1 (same label, 1.0) and id 2 (other label, 10.0)
        c = components(ds, 2)[0]
        assert c.pcl == 0.5
        assert c.kdist == 11.0

    def test_knn_excludes_query_and_breaks_ties_by_id(self):
        # ids 7, 9 and 3 share a point; row order would pick 9, id order picks 3
        ds = line_dataset([0.0, 0.0, 0.0, 5.0], [0, 0, 1, 1], ids=[7, 9, 3, 1])
        assert components(ds, 1)[7].pcl == 0.0
        assert components(ds, 2)[7].pcl == 0.5
        # with itself excluded, the third neighbour of 7 is id 1 at 5.0
        assert components(ds, 3)[7].kdist == 5.0

    def test_knn_matches_oracle_on_random_data(self):
        ds = random_dataset(100, 5, seed=0)
        got = components(ds, 5)
        for qid in [0, 13, 57, 99]:
            want = oracles.knn(ds, qid, 5, "euclidean")
            same = sum(ds.labels[ds.row_of(i)] == ds.labels[ds.row_of(qid)] for i, _ in want)
            assert got[qid].pcl == pytest.approx(same / 5, abs=1e-12)
            assert got[qid].kdist == pytest.approx(sum(d for _, d in want), abs=1e-9)

    def test_knn_k_bounds(self):
        ds = line_dataset([0.0, 1.0, 2.0], [0, 0, 1])
        with pytest.raises(ConfigError):
            components(ds, 3)
        with pytest.raises(ConfigError):
            components(ds, 0)

    def test_pcl_counts_matching_labels(self):
        ds = line_dataset([0.0, 1.0, 2.0, 3.0], [0, 0, 0, 1])
        assert components(ds, 3)[0].pcl == pytest.approx(2 / 3)

    def test_pcl_all_same_class_is_one(self):
        ds = line_dataset([0.0, 1.0, 2.0, 9.0], [0, 0, 0, 0])
        assert components(ds, 3)[1].pcl == 1.0

    def test_deviation_sums_same_class_distances(self):
        ds = line_dataset([0.0, 1.0, 3.0, 100.0], [0, 0, 0, 1])
        assert components(ds, 1)[0].deviation == pytest.approx(4.0, abs=1e-12)

    def test_deviation_of_class_singleton_is_zero(self):
        ds = line_dataset([0.0, 1.0, 3.0], [1, 0, 0])
        assert components(ds, 1)[0].deviation == 0.0

    def test_kdist_sums_neighbour_distances(self):
        ds = line_dataset([0.0, 1.0, 10.0], [0, 0, 1])
        assert components(ds, 2)[0].kdist == pytest.approx(11.0, abs=1e-12)

    def test_kdist_zero_for_duplicates(self):
        ds = line_dataset([2.0, 2.0, 2.0, 9.0], [0, 0, 0, 1])
        assert components(ds, 2)[0].kdist == 0.0

    def test_components_match_oracle(self):
        ds = random_dataset(40, 4, seed=1)
        for measure, name in [(Measure.EUCLIDEAN, "euclidean"),
                              (Measure.CORRELATION, "correlation")]:
            got = components(ds, 7, measure)
            for qid in [2, 17, 39]:
                o_pcl, o_dev, o_kd = oracles.components(ds, qid, 7, name)
                assert got[qid].pcl == pytest.approx(o_pcl, abs=1e-12)
                assert got[qid].deviation == pytest.approx(o_dev, abs=1e-9)
                assert got[qid].kdist == pytest.approx(o_kd, abs=1e-9)


class TestScoreFormulas:
    def test_cof_arithmetic(self):
        score, flagged = cof(3, 1.0, 2.0, 4.0, alpha=1.0, beta=1.0)
        assert score == pytest.approx(7.5, abs=1e-12)
        assert not flagged

    def test_cof_epsilon_guard(self):
        score, flagged = cof(3, 0.0, 0.0, 1.0, alpha=100.0, beta=0.1)
        assert flagged
        assert score == pytest.approx(100.0 / EPSILON_DEVIATION + 0.1, rel=1e-12)

    def test_ecof_arithmetic(self):
        assert ecof(3, 2 / 3, 0.25, 0.5) == pytest.approx(2.25, abs=1e-12)

    def test_min_max_boundaries_exact(self):
        values = np.array([2.0, 5.0, 8.0])
        normed = _min_max(values)
        assert normed[0] == 0.0
        assert normed[2] == 1.0
        assert normed[1] == pytest.approx(0.5, abs=1e-12)

    def test_min_max_degenerate_is_zero(self):
        assert _min_max(np.array([3.0, 3.0, 3.0])).tolist() == [0.0, 0.0, 0.0]

    def test_codb_score_composes_components(self):
        ds = random_dataset(30, 3, seed=2)
        params = OutlierParams(k=4, n_outliers=30, measure=Measure.EUCLIDEAN,
                               alpha=10.0, beta=0.5)
        for s in codb_detect(ds, params).ranked:
            expected = 4 * s.pcl + 10.0 / s.deviation + 0.5 * s.kdist
            assert s.score == pytest.approx(expected, abs=1e-12)


class TestEcodbDetect:
    def test_report_has_exactly_n_entries(self):
        ds = random_dataset(30, 3, seed=3)
        report = ecodb_detect(ds, OutlierParams(k=5, n_outliers=7))
        assert len(report.ranked) == 7
        assert len(set(report.outlier_ids)) == 7

    def test_matches_oracle_on_small_dataset(self):
        ds = random_dataset(30, 4, seed=4)
        params = OutlierParams(k=5, n_outliers=6, measure=Measure.CORRELATION)
        got = ecodb_detect(ds, params)
        want = oracles.ecodb(ds, 5, 6, "correlation")
        assert list(got.outlier_ids) == [i for i, _ in want]
        for scored, (_, oscore) in zip(got.ranked, want):
            assert scored.score == pytest.approx(oscore, abs=1e-9)

    def test_scores_recompute_from_reported_components(self):
        ds = random_dataset(40, 4, seed=5)
        params = OutlierParams(k=6, n_outliers=8)
        report = ecodb_detect(ds, params)
        devs = [s.deviation for s in report.ranked]
        kds = [s.kdist for s in report.ranked]

        def norm(x, lo, hi):
            return 0.0 if hi == lo else (x - lo) / (hi - lo)

        for s in report.ranked:
            expected = (
                params.k * s.pcl
                - norm(s.deviation, min(devs), max(devs))
                + norm(s.kdist, min(kds), max(kds))
            )
            assert s.score == pytest.approx(expected, abs=1e-12)

    def test_surrounded_instance_ranks_first(self):
        # id 0 sits in the middle of the other class; its own class is far away
        points = [0.0, 0.2, -0.2, 0.4, -0.4, 50.0, 51.0, 52.0]
        labels = [1, 0, 0, 0, 0, 1, 1, 1]
        ds = line_dataset(points, labels)
        report = ecodb_detect(ds, OutlierParams(k=3, n_outliers=3,
                                                measure=Measure.EUCLIDEAN))
        assert report.outlier_ids[0] == 0

    def test_single_class_relabeling_forces_pcl_one(self):
        ds = random_dataset(25, 3, seed=6)
        relabeled = Dataset(ds.schema, ds.features, np.zeros(len(ds), dtype=np.int64),
                            ds.ids)
        report = ecodb_detect(relabeled, OutlierParams(k=4, n_outliers=5,
                                                       measure=Measure.EUCLIDEAN))
        assert all(s.pcl == 1.0 for s in report.ranked)

    def test_determinism(self):
        ds = random_dataset(35, 4, seed=7)
        params = OutlierParams(k=5, n_outliers=6)
        a = ecodb_detect(ds, params)
        b = ecodb_detect(ds, params)
        assert a.outlier_ids == b.outlier_ids
        assert [s.score for s in a.ranked] == [s.score for s in b.ranked]

    def test_parameter_validation(self):
        ds = random_dataset(10, 3, seed=8)
        with pytest.raises(ConfigError):
            ecodb_detect(ds, OutlierParams(k=10, n_outliers=3))
        with pytest.raises(ConfigError):
            ecodb_detect(ds, OutlierParams(k=3, n_outliers=11))
        with pytest.raises(ConfigError):
            OutlierParams(k=0)
        with pytest.raises(ConfigError):
            OutlierParams(alpha=0.0)
        with pytest.raises(ConfigError):
            OutlierParams(n_outliers=-1)

    def test_json_shape(self):
        ds = random_dataset(20, 3, seed=9)
        report = ecodb_detect(ds, OutlierParams(k=3, n_outliers=4))
        obj = report.to_json_obj()
        assert obj["algorithm"] == "ecodb"
        assert len(obj["outliers"]) == 4
        assert set(obj["outliers"][0]) == {"id", "pcl", "deviation", "kdist",
                                           "score", "flagged"}


class TestCodbDetect:
    def test_matches_oracle(self):
        ds = random_dataset(28, 4, seed=10)
        params = OutlierParams(k=4, n_outliers=5, measure=Measure.EUCLIDEAN,
                               alpha=100.0, beta=0.1)
        got = codb_detect(ds, params)
        want = oracles.codb(ds, 4, 5, "euclidean", 100.0, 0.1)
        assert list(got.outlier_ids) == [i for i, _ in want]
        for scored, (_, oscore) in zip(got.ranked, want):
            assert scored.score == pytest.approx(oscore, rel=1e-9)

    def test_flags_epsilon_case(self):
        # id 3 is its class's only member beyond itself -> deviation 0
        ds = line_dataset([0.0, 1.0, 2.0, 50.0], [0, 0, 0, 1])
        report = codb_detect(ds, OutlierParams(k=2, n_outliers=4,
                                               measure=Measure.EUCLIDEAN))
        by_id = {s.id: s for s in report.ranked}
        assert by_id[3].flagged
        assert not by_id[0].flagged


class TestRemoveOutliers:
    def test_removes_reported_ids_in_order(self):
        ds = random_dataset(30, 3, seed=11)
        report = ecodb_detect(ds, OutlierParams(k=4, n_outliers=6))
        cleaned = remove_outliers(ds, report)
        assert len(cleaned) == 24
        assert set(cleaned.ids) == set(ds.ids) - set(report.outlier_ids)
        assert cleaned.ids.tolist() == sorted(cleaned.ids.tolist())

    def test_zero_outliers_keeps_everything(self):
        ds = random_dataset(15, 3, seed=12)
        report = ecodb_detect(ds, OutlierParams(k=3, n_outliers=0))
        cleaned = remove_outliers(ds, report)
        assert cleaned.ids.tolist() == ds.ids.tolist()
        assert np.array_equal(cleaned.features, ds.features)

    def test_unknown_id_rejected(self):
        ds = random_dataset(15, 3, seed=13)
        report = ecodb_detect(ds, OutlierParams(k=3, n_outliers=2))
        smaller = ds.drop_ids(report.outlier_ids)
        with pytest.raises(DataError):
            remove_outliers(smaller, report)

    def test_redetection_is_disjoint(self):
        ds = random_dataset(40, 4, seed=14)
        params = OutlierParams(k=5, n_outliers=5)
        first = ecodb_detect(ds, params)
        cleaned = remove_outliers(ds, first)
        second = ecodb_detect(cleaned, params)
        assert not set(first.outlier_ids) & set(second.outlier_ids)


@st.composite
def lattice_datasets(draw):
    """Points on a line through (2, 3, 6) at integer steps, with shuffled ids.

    Every distance is 7 times an integer step, so it is exact, and so is
    every sum of distances in any order: the oracle's Python sums and the
    package's numpy sums agree bit for bit, and rankings can be compared
    exactly. Few distinct steps make most k-th neighbour distances tied.
    """
    n = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.integers(0, draw(st.integers(1, 6)), size=n).astype(np.float64)
    features = steps[:, None] * np.array([2.0, 3.0, 6.0])
    labels = rng.integers(0, 2, size=n)
    ids = rng.permutation(5 * n)[:n]
    return Dataset(numeric_schema(3), features, labels, ids)


NEIGHBOUR_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)
ALPHA, BETA = 64.0, 0.125  # powers of two: alpha * (1 / dev) rounds like alpha / dev


class TestNeighbourSelection:
    @NEIGHBOUR_SETTINGS
    @given(ds=lattice_datasets(), data=st.data())
    def test_components_match_oracle(self, ds, data):
        k = data.draw(st.integers(1, len(ds) - 1))
        got = components(ds, k)
        for ident in ds.ids.tolist():
            pcl, dev, kdist = oracles.components(ds, ident, k, "euclidean")
            assert (got[ident].pcl, got[ident].deviation, got[ident].kdist) == (pcl, dev, kdist)

    @NEIGHBOUR_SETTINGS
    @given(ds=lattice_datasets(), data=st.data())
    def test_rankings_match_oracles(self, ds, data):
        k = data.draw(st.integers(1, len(ds) - 1))
        n_out = data.draw(st.integers(0, len(ds)))
        params = OutlierParams(k=k, n_outliers=n_out, measure=Measure.EUCLIDEAN,
                               alpha=ALPHA, beta=BETA)
        ecodb = [(s.id, s.score) for s in ecodb_detect(ds, params).ranked]
        assert ecodb == oracles.ecodb(ds, k, n_out, "euclidean")
        codb = [(s.id, s.score) for s in codb_detect(ds, params).ranked]
        assert codb == oracles.codb(ds, k, n_out, "euclidean", ALPHA, BETA)

    @NEIGHBOUR_SETTINGS
    @given(ds=lattice_datasets(), data=st.data())
    def test_rankings_ignore_row_order(self, ds, data):
        k = data.draw(st.integers(1, len(ds) - 1))
        params = OutlierParams(k=k, n_outliers=len(ds), measure=Measure.EUCLIDEAN)
        order = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(ds))
        shuffled = Dataset(ds.schema, ds.features[order], ds.labels[order], ds.ids[order])
        for detect in (ecodb_detect, codb_detect):
            assert detect(shuffled, params).ranked == detect(ds, params).ranked


class TestCheckOrder:
    @pytest.mark.parametrize("detect", [codb_detect, ecodb_detect])
    def test_too_many_outliers_rejected_before_distances(self, detect, monkeypatch):
        def no_distances(*args, **kwargs):
            raise AssertionError("the distance matrix was built before the n_outliers check")

        monkeypatch.setattr(class_outlier, "pairwise_distances", no_distances)
        ds = random_dataset(10, 3, seed=8)
        with pytest.raises(ConfigError, match="cannot report 11 outliers"):
            detect(ds, OutlierParams(k=3, n_outliers=11))
