"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ``[PASS] ...`` line with the measured numbers
(visible with ``pytest -s`` or in the captured output). The two diabetes
benchmark tests skip with fetch instructions when the dataset CSV is not
available locally; everything else is self-contained.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

import oracles
from conftest import require_pidd
from ecoamlp.automlp import AutoMlpParams, fit_automlp
from ecoamlp.class_outlier import (
    OutlierParams,
    _min_max,
    codb_detect,
    cof,
    ecodb_detect,
    ecof,
)
from ecoamlp.data import Dataset, DataSplit, SplitSpec
from ecoamlp.distance import Measure
from ecoamlp.errors import ConfigError
import ecoamlp.harness
from ecoamlp.harness import (
    ClassifierConfig,
    ExperimentConfig,
    Preprocessor,
    run_experiment,
    run_repeat,
    run_sweep,
    split_repeat,
)
from ecoamlp.metrics import ConfusionMatrix, report
from ecoamlp.mlp import MlpConfig, init_network

from synth import numeric_schema, random_dataset, separable_dataset

PIDD_CONFIG = ExperimentConfig(
    schema="pidd",
    split=SplitSpec(train=0.70, validation=0.15,
                    test=0.15, seed=0),
    preprocessor=Preprocessor(
        kind="ecodb",
        outlier=OutlierParams(k=12, n_outliers=10, measure=Measure.CORRELATION),
    ),
    classifier=ClassifierConfig(
        kind="automlp",
        automlp=AutoMlpParams(ensemble_size=4, cycles_per_generation=10,
                              generations=10),
    ),
    repeats=10,
)


def test_ecodb_matches_brute_force_oracle():
    """Ranked ids agree exactly and scores agree within 1e-9 on 50 datasets."""
    started = time.perf_counter()
    size_rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(50):
        n_inst = int(size_rng.integers(20, 41))
        ds = random_dataset(n_inst, 4, seed=case)
        k = (3, 5, 12)[case % 3]
        n_out = (3, 5, 10)[(case // 3) % 3]
        measure_name = ("euclidean", "correlation")[case % 2]
        got = ecodb_detect(ds, OutlierParams(k=k, n_outliers=n_out,
                                             measure=Measure.parse(measure_name)))
        want = oracles.ecodb(ds, k, n_out, measure_name)
        assert list(got.outlier_ids) == [i for i, _ in want], (
            f"dataset {case} (n={n_inst}, k={k}, n_out={n_out}, {measure_name})"
        )
        for scored, (_, oscore) in zip(got.ranked, want):
            worst = max(worst, abs(scored.score - oscore))
            assert scored.score == pytest.approx(oscore, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s (budget 10s)"
    print(f"\n[PASS] outlier detector vs brute-force oracle: 50 datasets, "
          f"max score delta {worst:.2e}, {elapsed:.2f}s")


def test_component_formulas_match_direct_recomputation():
    """Score components recompute exactly on hand-checkable fixtures."""
    points = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [3.0, 0.0]])
    ds = Dataset(numeric_schema(2), points, np.array([0, 0, 1, 0]), np.arange(4))

    def components(k):
        params = OutlierParams(k=k, n_outliers=len(ds), measure=Measure.EUCLIDEAN)
        return {s.id: s for s in codb_detect(ds, params).ranked}[0]

    # instance 0's 2 nearest neighbours are ids 1 and 3: 1 + 3
    assert abs(components(2).kdist - (1.0 + 3.0)) <= 1e-12
    # 2 of instance 0's 3 nearest neighbours share its label
    assert abs(components(3).pcl - 2 / 3) <= 1e-12
    # distances to same-class instances: 1 + 3
    assert abs(components(3).deviation - 4.0) <= 1e-12
    # distances to the 3 nearest: 1 + 3 + 10
    assert abs(components(3).kdist - 14.0) <= 1e-12

    score, flagged = cof(3, 1.0, 2.0, 4.0, alpha=1.0, beta=1.0)
    assert abs(score - (3 * 1.0 + 1.0 / 2.0 + 1.0 * 4.0)) <= 1e-12
    assert not flagged
    assert abs(ecof(3, 2 / 3, 0.25, 0.5) - (2.0 - 0.25 + 0.5)) <= 1e-12

    normed = _min_max(np.array([2.0, 5.0, 8.0]))
    assert normed[0] == 0.0 and normed[2] == 1.0
    assert abs(normed[1] - 0.5) <= 1e-12
    assert _min_max(np.array([4.0, 4.0])).tolist() == [0.0, 0.0]
    print("\n[PASS] component formulas: pcl, deviation, kdist, both scores, "
          "and min-max norms match direct recomputation within 1e-12; "
          "norm boundaries hit 0 and 1 exactly")


def test_gradients_match_finite_differences():
    """Backprop agrees with central differences (h=1e-5) at rtol 1e-4."""
    started = time.perf_counter()
    worst = 0.0
    for case in range(20):
        hidden = case % 8 + 1
        input_dim = 2 + case % 4
        net = init_network(MlpConfig(input_dim, hidden, 0.1, weight_init_seed=case))
        rng = np.random.default_rng(1000 + case)
        X = rng.normal(size=(5, input_dim))
        y = rng.integers(0, 2, size=5)
        _, g_ih, g_ho = oracles.loss_gradients(net, X, y)

        def loss_fn(w_ih, w_ho):
            return oracles.mlp_loss(w_ih, w_ho, X.tolist(), y.tolist())

        fd_ih, fd_ho = oracles.fd_gradients(loss_fn, net.w_ih.tolist(),
                                            net.w_ho.tolist(), h=1e-5)
        for got, want in ((g_ih, np.asarray(fd_ih)), (g_ho, np.asarray(fd_ho))):
            assert np.allclose(got, want, rtol=1e-4, atol=1e-7), f"fixture {case}"
            big = np.abs(want) > 1e-3
            if np.any(big):
                worst = max(worst, float(np.max(
                    np.abs(got[big] - want[big]) / np.abs(want[big]))))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"gradient check took {elapsed:.1f}s (budget 5s)"
    print(f"\n[PASS] gradient check: 20 fixtures, hidden widths 1..8, "
          f"max relative error {worst:.2e}, {elapsed:.2f}s")


def test_evolution_bookkeeping_over_seeds():
    """Size, ranges, best-error tracking, and determinism over 10 seeds."""
    train = separable_dataset(80, 3, seed=0)
    validation = separable_dataset(40, 3, seed=1)
    for seed in range(10):
        params = AutoMlpParams(ensemble_size=4, cycles_per_generation=2,
                               generations=4, hidden_range=(2, 16),
                               lr_range=(0.01, 0.5), seed=seed)
        run = fit_automlp(train, validation, params)
        assert all(len(gen) == 4 for gen in run.history)
        for gen in run.history:
            for record in gen:
                assert 2 <= record.hidden_units <= 16
                assert 0.01 <= record.learning_rate <= 0.5
                assert 0.0 <= record.validation_error <= 1.0
        best = [min(r.validation_error for r in gen) for gen in run.history]
        running = np.minimum.accumulate(best)
        assert all(a >= b for a, b in zip(running, running[1:]))
        again = fit_automlp(train, validation, params)
        assert np.array_equal(run.winner.w_ih, again.winner.w_ih)
        assert np.array_equal(run.winner.w_ho, again.winner.w_ho)
        assert run.history == again.history
    print("\n[PASS] evolution bookkeeping: 10 seeds, population size constant, "
          "hyperparameters in range, running-min error non-increasing, "
          "reruns bit-identical")


def test_metric_identities_hold():
    """Bounds and the accuracy/recall decomposition over 1000 matrices."""
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, size=4))
        if tp + tn + fp + fn == 0:
            continue
        rep = report(ConfusionMatrix(tp, tn, fp, fn))
        values = (rep.accuracy, rep.precision_pos, rep.recall_pos,
                  rep.precision_neg, rep.recall_neg,
                  rep.weighted_mean_precision, rep.weighted_mean_recall)
        assert all(0.0 <= v <= 1.0 for v in values)
        total = tp + tn + fp + fn
        decomposed = (rep.recall_pos * (tp + fn) + rep.recall_neg * (tn + fp)) / total
        assert abs(rep.accuracy - decomposed) <= 1e-12
        checked += 1
    exact = report(ConfusionMatrix(tp=50, tn=40, fp=5, fn=5))
    assert exact.accuracy == 0.90
    print("\n[PASS] metric identities: 1000 random matrices in bounds, "
          "accuracy equals prevalence-weighted recalls within 1e-12, "
          "worked example exactly 0.90")


def test_diabetes_benchmark_accuracy(pidd_dataset):
    """Median test accuracy over 10 seeds clears 0.72 in under 2 minutes."""
    require_pidd()
    started = time.perf_counter()
    rep = run_experiment(PIDD_CONFIG, dataset=pidd_dataset)
    elapsed = time.perf_counter() - started
    median = rep.aggregates["test"]["accuracy"]["median"]
    assert elapsed < 120.0, f"benchmark took {elapsed:.0f}s (budget 120s)"
    assert median >= 0.72, (
        f"median test accuracy {median:.4f} over 10 seeds is below the 0.72 bar"
    )
    print(f"\n[PASS] diabetes benchmark: median test accuracy {median:.4f} "
          f"over 10 seeds in {elapsed:.0f}s")


def test_preprocessing_comparison_table(pidd_dataset):
    """The outlier-removal-vs-none table is fully populated; the expected
    gain is recorded and flagged, never a failure."""
    require_pidd()
    sweep = run_sweep(PIDD_CONFIG, "preprocessor", ("none", "ecodb"),
                      dataset=pidd_dataset)
    for variant in ("none", "ecodb"):
        agg = sweep.runs[variant].aggregates["test"]
        for metric in ("accuracy", "weighted_mean_precision",
                       "weighted_mean_recall"):
            assert np.isfinite(agg[metric]["median"])
        assert len(sweep.runs[variant].repeats) == 10
    (expectation,) = sweep.expectations
    assert isinstance(expectation["met"], bool)
    text = sweep.to_text()
    assert "none" in text and "ecodb" in text
    assert "reference expectation" in text
    status = "met" if expectation["met"] else "flagged as unmet (informational)"
    print(f"\n[PASS] preprocessing comparison: table populated for both "
          f"variants over 10 seeds; gain {expectation['observed_points']:+.2f} "
          f"points, expectation {status}")


class _ReadCounter:
    def __init__(self):
        self.reads = 0


def _tracking_copy(ds: Dataset, counter: _ReadCounter) -> Dataset:
    """A dataset that counts every read of its feature or label arrays."""

    class TrackingDataset(Dataset):
        def __getattribute__(self, name):
            if name in ("features", "labels"):
                counter.reads += 1
            return super().__getattribute__(name)

    tracked = TrackingDataset(ds.schema, np.array(ds.features),
                              np.array(ds.labels), np.array(ds.ids))
    counter.reads = 0  # ignore construction-time validation reads
    return tracked


def test_training_never_reads_test_data(monkeypatch):
    """Zero test-subset reads before final evaluation, for every pipeline."""
    dataset = random_dataset(100, 3, seed=0, separation=2.0)
    tiny = AutoMlpParams(ensemble_size=2, cycles_per_generation=1,
                         generations=1, hidden_range=(2, 4),
                         lr_range=(0.05, 0.5))
    counter = _ReadCounter()
    state = {"evaluations": 0}
    real_split = ecoamlp.harness.split
    real_evaluate_raw = ecoamlp.harness.evaluate_raw

    def tracking_split(ds, spec):
        parts = real_split(ds, spec)
        return DataSplit(parts.train, parts.validation,
                         _tracking_copy(parts.test, counter))

    def checked_evaluate_raw(fitted, prepared, target):
        assert counter.reads == 0, (
            f"{counter.reads} test-set reads happened before evaluation"
        )
        state["evaluations"] += 1
        return real_evaluate_raw(fitted, prepared, target)

    monkeypatch.setattr(ecoamlp.harness, "split", tracking_split)
    monkeypatch.setattr(ecoamlp.harness, "evaluate_raw", checked_evaluate_raw)

    preprocessors = {
        "none": Preprocessor(kind="none"),
        "ztransform": Preprocessor(kind="ztransform"),
        "bootstrap": Preprocessor(kind="bootstrap"),
        "stratified": Preprocessor(kind="stratified"),
        "ecodb": Preprocessor(kind="ecodb",
                              outlier=OutlierParams(k=5, n_outliers=4)),
    }
    classifiers = {
        "automlp": ClassifierConfig(kind="automlp", automlp=tiny),
        "knn": ClassifierConfig(kind="knn", knn_k=3),
        "nb": ClassifierConfig(kind="nb"),
    }
    configurations = 0
    for pre in preprocessors.values():
        for clf in classifiers.values():
            config = ExperimentConfig(split=SplitSpec(seed=1),
                                      preprocessor=pre, classifier=clf)
            counter.reads = 0
            result = run_repeat(split_repeat(dataset, config, 0), config, 0)
            assert counter.reads > 0, "evaluation never touched the test subset"
            assert 0.0 <= result.test.accuracy <= 1.0
            configurations += 1
    assert state["evaluations"] == configurations == 15
    print("\n[PASS] test-set isolation: zero pre-evaluation reads across "
          "all 15 preprocessor/classifier pipelines")
