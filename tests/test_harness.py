"""Pipeline wiring, config round trips, reports, repeats, and sweeps."""

from __future__ import annotations

import dataclasses
import json
from datetime import datetime

import numpy as np
import pytest

from ecoamlp.automlp import AutoMlpParams
from ecoamlp.class_outlier import OutlierParams
import ecoamlp.harness as harness
from ecoamlp.data import SplitSpec, split
from ecoamlp.errors import ConfigError
from ecoamlp.harness import (
    ClassifierConfig,
    ExperimentConfig,
    PreparedTraining,
    Preprocessor,
    aggregate_reports,
    config_from_json_obj,
    evaluate_prepared,
    evaluate_raw,
    fit_classifier,
    json_obj,
    load_dataset,
    prepare_training_data,
    read_config_json,
    repeat_config,
    run_experiment,
    run_repeat,
    run_sweep,
    split_repeat,
    write_run_report,
    write_sweep_report,
)
from ecoamlp.metrics import report, ConfusionMatrix

from synth import random_dataset, write_csv


def nested(key: str, value) -> dict:
    """A JSON config that sets only the dotted ``key``."""
    *sections, name = key.split(".")
    obj = section = {}
    for part in sections:
        section = section.setdefault(part, {})
    section[name] = value
    return obj


TINY_AUTOMLP = AutoMlpParams(ensemble_size=2, cycles_per_generation=1,
                             generations=1, hidden_range=(2, 4),
                             lr_range=(0.05, 0.5))


def knn_config(**overrides):
    base = dict(
        split=SplitSpec(seed=3),
        classifier=ClassifierConfig(kind="knn", knn_k=3),
        repeats=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return random_dataset(120, 3, seed=0, separation=2.0)


@pytest.fixture(scope="module")
def parts(dataset):
    return split(dataset, SplitSpec(seed=3))


class TestConfig:
    def test_json_round_trip_is_a_fixpoint(self):
        config = ExperimentConfig(
            data="somewhere.csv",
            schema="pidd",
            drop_features=("skin",),
            split=SplitSpec(train=0.6, validation=0.2,
                            test=0.2, seed=9, stratified=True),
            preprocessor=Preprocessor(kind="ecodb", fraction=0.8, seed=4,
                                      outlier=OutlierParams(k=7, n_outliers=3)),
            classifier=ClassifierConfig(kind="automlp", automlp=TINY_AUTOMLP,
                                        knn_k=9),
            repeats=2,
            output_dir="out",
            evaluate_on_train=True,
        )
        obj = json_obj(config)
        assert json_obj(config_from_json_obj(obj)) == obj
        assert config_from_json_obj(obj) == config

    def test_defaults_fill_missing_sections(self):
        config = config_from_json_obj({})
        assert config.split.train == 0.7
        assert config.preprocessor.kind == "none"
        assert config.classifier.kind == "automlp"
        assert config.repeats == 1

    @pytest.mark.parametrize("obj,fragment", [
        ({"bogus": 1}, "config"),
        ({"split": {"sneed": 1}}, "split"),
        ({"preprocessor": {"kindly": "x"}}, "preprocessor"),
        ({"preprocessor": {"outlier": {"gamma": 2}}}, "outlier"),
        ({"classifier": {"knn": 3}}, "classifier"),
        ({"classifier": {"automlp": {"members": 4}}}, "automlp"),
    ])
    def test_unknown_keys_rejected_by_section(self, obj, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_json_obj(obj)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_json_obj({"schema": "arff"})
        with pytest.raises(ConfigError):
            config_from_json_obj({"repeats": 0})
        with pytest.raises(ConfigError):
            config_from_json_obj({"classifier": {"kind": "svm"}})
        with pytest.raises(ConfigError):
            config_from_json_obj({"classifier": {"knn_measure": "cosine"}})
        with pytest.raises(ConfigError, match="repeats"):
            config_from_json_obj({"repeats": "ten"})
        with pytest.raises(ConfigError, match="split.seed"):
            config_from_json_obj({"split": {"seed": None}})

    def test_mixed_measure_rejected(self):
        for obj in ({"preprocessor": {"outlier": {"measure": "mixed"}}},
                    {"classifier": {"knn_measure": "mixed"}}):
            with pytest.raises(ConfigError, match="choose from: euclidean, correlation\\)"):
                config_from_json_obj(obj)

    @pytest.mark.parametrize("key", ["split.stratified", "classifier.automlp.warm_start",
                                     "evaluate_on_train"])
    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_switches_take_only_json_booleans(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: expected true or false"):
            config_from_json_obj(nested(key, value))
        assert config_from_json_obj(nested(key, False)) == config_from_json_obj({})

    @pytest.mark.parametrize("key,value,expected", [
        ("repeats", "10", "an integer"),
        ("preprocessor.outlier.k", 3.9, "an integer"),
        ("preprocessor.outlier.alpha", "2.5", "a number"),
        ("split.seed", True, "an integer"),
        ("drop_features", "skin", "a list"),
        ("drop_features", ["skin", 3], "a string"),
        ("classifier.automlp.hidden_range", [2.5, 10.7], "an integer"),
        ("classifier.automlp.lr_range", [0.1], "a list of 2"),
        ("data", 5, "a string or null"),
        ("schema", ["pidd"], "a string"),
        ("preprocessor.outlier.measure", 5, "a string"),
    ])
    def test_values_are_checked_not_cast(self, key, value, expected):
        with pytest.raises(ConfigError, match=f"^{key}: expected {expected}, got "):
            config_from_json_obj(nested(key, value))

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            read_config_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            read_config_json(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            read_config_json(arr)

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        config = knn_config()
        path.write_text(json.dumps(json_obj(config)))
        assert config_from_json_obj(read_config_json(path)) == config


class TestPrepare:
    def test_none_is_identity(self, parts):
        prepared = prepare_training_data(parts.train, parts.validation,
                                         Preprocessor(kind="none"))
        assert prepared.train is parts.train
        assert prepared.validation is parts.validation
        assert prepared.transform(parts.test) is parts.test
        assert prepared.outliers is None

    def test_ztransform_standardises_and_exports_transform(self, parts):
        prepared = prepare_training_data(parts.train, parts.validation,
                                         Preprocessor(kind="ztransform"))
        assert np.allclose(prepared.train.features.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(prepared.train.features.std(axis=0), 1.0, atol=1e-9)
        mean = parts.train.features.mean(axis=0)
        std = parts.train.features.std(axis=0)
        got = prepared.transform(parts.test)
        assert np.allclose(got.features, (parts.test.features - mean) / std,
                           atol=1e-12)
        assert np.allclose(prepared.validation.features,
                           (parts.validation.features - mean) / std, atol=1e-12)

    def test_bootstrap_resizes_train_only(self, parts):
        prepared = prepare_training_data(
            parts.train, parts.validation,
            Preprocessor(kind="bootstrap", fraction=0.5, seed=1))
        assert len(prepared.train) == round(0.5 * len(parts.train))
        assert prepared.train.ids.tolist() == list(range(len(prepared.train)))
        assert prepared.validation is parts.validation

    def test_stratified_keeps_proportions(self, parts):
        prepared = prepare_training_data(
            parts.train, parts.validation,
            Preprocessor(kind="stratified", fraction=0.5, seed=7))
        assert len(prepared.train) == round(0.5 * len(parts.train))
        assert set(prepared.train.ids.tolist()) <= set(parts.train.ids.tolist())

    def test_ecodb_removes_reported_outliers(self, parts):
        pre = Preprocessor(kind="ecodb",
                           outlier=OutlierParams(k=5, n_outliers=4))
        prepared = prepare_training_data(parts.train, parts.validation, pre)
        assert prepared.outliers is not None
        assert len(prepared.outliers.ranked) == 4
        assert len(prepared.train) == len(parts.train) - 4
        assert not set(prepared.train.ids) & set(prepared.outliers.outlier_ids)

    def test_sampling_seed_comes_from_section(self, parts):
        for kind in ("bootstrap", "stratified"):
            a, b, c = (prepare_training_data(parts.train, parts.validation,
                                             Preprocessor(kind=kind, fraction=0.5, seed=seed))
                       for seed in (1, 2, 1))
            assert not np.array_equal(a.train.features, b.train.features), kind
            assert np.array_equal(a.train.features, c.train.features), kind


class TestFitAndEvaluate:
    def test_requires_prepared_training(self, parts):
        clf = ClassifierConfig(kind="knn")
        with pytest.raises(ConfigError, match="prepare_training_data"):
            fit_classifier((parts.train, parts.validation), clf)
        with pytest.raises(ConfigError, match="prepare_training_data"):
            fit_classifier(parts.train, clf)

    @pytest.mark.parametrize("kind", ["automlp", "knn", "nb"])
    def test_each_classifier_fits_and_scores(self, parts, kind):
        prepared = prepare_training_data(parts.train, parts.validation,
                                         Preprocessor(kind="none"))
        clf = ClassifierConfig(kind=kind, automlp=TINY_AUTOMLP, knn_k=3)
        fitted = fit_classifier(prepared, clf)
        assert fitted.kind == kind
        rep = evaluate_prepared(fitted, prepared.validation)
        assert 0.0 <= rep.accuracy <= 1.0
        assert (fitted.automlp_run is not None) == (kind == "automlp")

    def test_evaluate_raw_applies_fitted_transform(self, parts):
        prepared = prepare_training_data(parts.train, parts.validation,
                                         Preprocessor(kind="ztransform"))
        fitted = fit_classifier(prepared, ClassifierConfig(kind="knn", knn_k=3))
        raw = evaluate_raw(fitted, prepared, parts.test)
        cooked = evaluate_prepared(fitted, prepared.transform(parts.test))
        assert raw == cooked


def repeat(dataset, config, index):
    return run_repeat(split_repeat(dataset, config, index), config, index)


class TestRunRepeat:
    def test_repeat_config_offsets_every_seed(self):
        config = knn_config(
            preprocessor=Preprocessor(kind="bootstrap", seed=4),
            classifier=ClassifierConfig(kind="automlp",
                                        automlp=dataclasses.replace(TINY_AUTOMLP, seed=8)))
        # seeds 3, 4 and 8 each offset by 2; every other setting as configured
        assert repeat_config(config, 2) == dataclasses.replace(
            config,
            split=dataclasses.replace(config.split, seed=5),
            preprocessor=dataclasses.replace(config.preprocessor, seed=6),
            classifier=dataclasses.replace(
                config.classifier,
                automlp=dataclasses.replace(config.classifier.automlp, seed=10)))
        assert repeat_config(config, 0) == config

    def test_stages_use_the_repeat_seeds(self, dataset):
        config = knn_config(
            preprocessor=Preprocessor(kind="bootstrap", fraction=0.5, seed=4),
            classifier=ClassifierConfig(kind="automlp", automlp=TINY_AUTOMLP))
        parts = split_repeat(dataset, config, 2)
        result = run_repeat(parts, config, 2)
        # repeat 2's stages, run by hand on the sections of repeat_config
        seeded = repeat_config(config, 2)
        prepared = prepare_training_data(parts.train, parts.validation, seeded.preprocessor)
        fitted = fit_classifier(prepared, seeded.classifier)
        assert result.automlp_history == fitted.automlp_run.history
        assert result.validation == evaluate_prepared(fitted, prepared.validation)

    def test_split_seed_offsets_by_repeat(self, dataset):
        config = knn_config()
        r0 = repeat(dataset, config, 0)
        r2 = repeat(dataset, config, 2)
        assert r0.split_seed == 3
        assert r2.split_seed == 5
        parts = split_repeat(dataset, config, 2)
        assert parts.test.ids.tolist() == split(dataset, SplitSpec(seed=5)).test.ids.tolist()

    def test_sizes_follow_split_and_preprocessor(self, dataset):
        config = knn_config(preprocessor=Preprocessor(kind="stratified",
                                                      fraction=0.5))
        result = repeat(dataset, config, 0)
        assert result.n_train == round(0.5 * 84)
        assert result.n_validation == 18
        assert result.n_test == 18

    def test_outlier_report_attached_for_ecodb(self, dataset):
        config = knn_config(
            preprocessor=Preprocessor(kind="ecodb",
                                      outlier=OutlierParams(k=5, n_outliers=3)))
        result = repeat(dataset, config, 0)
        assert result.outliers is not None
        obj = result.to_json_obj()
        assert len(obj["outliers"]["outliers"]) == 3

    def test_automlp_history_attached(self, dataset):
        config = knn_config(
            classifier=ClassifierConfig(kind="automlp", automlp=TINY_AUTOMLP))
        result = repeat(dataset, config, 0)
        obj = result.to_json_obj()
        assert set(obj["winner"]) == {"hidden_units", "learning_rate",
                                      "validation_error"}
        assert len(obj["automlp_history"]) == 1
        assert len(obj["automlp_history"][0]) == 2

    def test_knn_repeat_has_no_automlp_fields(self, dataset):
        obj = repeat(dataset, knn_config(), 0).to_json_obj()
        assert "winner" not in obj
        assert "automlp_history" not in obj
        assert "outliers" not in obj

    def test_evaluate_on_train_with_memorising_classifier(self, dataset):
        config = knn_config(
            classifier=ClassifierConfig(kind="knn", knn_k=1),
            evaluate_on_train=True,
        )
        result = repeat(dataset, config, 0)
        assert result.test.accuracy == 1.0
        assert result.n_test == result.n_train


class TestAggregate:
    def test_median_min_max(self):
        reports = [report(ConfusionMatrix(tp, 10 - tp, 5, 5))
                   for tp in (2, 7, 4)]
        agg = aggregate_reports(reports)
        accs = sorted((tp + 10 - tp) / 20 for tp in (2, 7, 4))
        assert agg["accuracy"]["median"] == 0.5
        recalls = sorted(tp / (tp + 5) for tp in (2, 7, 4))
        assert agg["recall_pos"]["median"] == recalls[1]
        assert agg["recall_pos"]["min"] == recalls[0]
        assert agg["recall_pos"]["max"] == recalls[2]

    def test_even_count_averages_middle_pair(self):
        reports = [report(ConfusionMatrix(tp, 0, 0, 10 - tp)) for tp in (1, 2, 6, 9)]
        agg = aggregate_reports(reports)
        assert agg["accuracy"]["median"] == pytest.approx((0.2 + 0.6) / 2)


class TestRunExperiment:
    def test_deterministic_json_without_timestamp(self, dataset):
        config = knn_config(repeats=2)
        a = run_experiment(config, dataset=dataset)
        b = run_experiment(config, dataset=dataset)
        assert json.dumps(a.to_json_obj(include_timestamp=False)) == \
            json.dumps(b.to_json_obj(include_timestamp=False))
        assert datetime.fromisoformat(a.created_at) is not None

    def test_repeats_use_distinct_splits(self, dataset):
        config = knn_config(repeats=3)
        rep = run_experiment(config, dataset=dataset)
        assert [r.split_seed for r in rep.repeats] == [3, 4, 5]
        assert [r.repeat for r in rep.repeats] == [0, 1, 2]

    def test_automlp_seed_offset_changes_search(self, dataset):
        config = knn_config(
            repeats=2,
            classifier=ClassifierConfig(kind="automlp", automlp=TINY_AUTOMLP),
        )
        rep = run_experiment(config, dataset=dataset)
        histories = [r.automlp_history for r in rep.repeats]
        assert histories[0] != histories[1]

    def test_writes_reports_when_output_dir_set(self, dataset, tmp_path):
        # the harness only returns the report; its writer puts it at output_dir
        out = tmp_path / "results"
        config = knn_config(output_dir=str(out))
        rep = run_experiment(config, dataset=dataset)
        assert not out.exists()
        assert rep.config.output_dir == str(out)
        write_run_report(rep, rep.config.output_dir)
        loaded = json.loads((out / "report.json").read_text())
        assert loaded == rep.to_json_obj()
        text = (out / "report.txt").read_text()
        assert "test medians" in text
        assert "repeat 0 test" in text
        assert not list(out.glob("*.tmp"))

    def test_missing_data_path_rejected(self):
        with pytest.raises(ConfigError, match="set data "):
            run_experiment(knn_config())

    def test_loads_csv_and_drops_features(self, tmp_path):
        ds = random_dataset(60, 4, seed=5)
        path = tmp_path / "data.csv"
        write_csv(path, ds)
        config = knn_config(data=str(path), drop_features=("f1", "f3"))
        loaded = load_dataset(config)
        assert loaded.n_features == 2
        rep = run_experiment(config)
        assert rep.repeats[0].n_train == 42

    def test_aggregates_cover_validation_and_test(self, dataset):
        rep = run_experiment(knn_config(repeats=2), dataset=dataset)
        assert set(rep.aggregates) == {"validation", "test"}
        assert set(rep.aggregates["test"]["accuracy"]) == {"median", "min", "max"}


class TestSweep:
    def test_preprocessor_sweep_covers_all_variants(self, dataset):
        variants = ("none", "ztransform", "bootstrap", "stratified", "ecodb")
        config = knn_config(
            preprocessor=Preprocessor(kind="none",
                                      outlier=OutlierParams(k=5, n_outliers=5)))
        sweep = run_sweep(config, "preprocessor", variants, dataset=dataset)
        assert sweep.variants == variants
        assert set(sweep.runs) == set(variants)
        for v in variants:
            assert sweep.runs[v].config.preprocessor.kind == v
        text = sweep.to_text()
        for v in variants:
            assert v in text
        assert "reference expectation" in text

    def test_expectation_is_informational(self, dataset):
        config = knn_config(
            preprocessor=Preprocessor(kind="none",
                                      outlier=OutlierParams(k=5, n_outliers=5)))
        sweep = run_sweep(config, "preprocessor", ("none", "ecodb"),
                          dataset=dataset)
        (exp,) = sweep.expectations
        assert exp["name"] == "ecodb_gain_over_alternatives"
        assert exp["threshold_points"] == 5.0
        assert isinstance(exp["met"], bool)
        acc = {v: sweep.runs[v].aggregates["test"]["accuracy"]["median"]
               for v in ("none", "ecodb")}
        assert exp["observed_points"] == pytest.approx(
            (acc["ecodb"] - acc["none"]) * 100.0)

    def test_classifier_sweep_has_no_expectations(self, dataset):
        sweep = run_sweep(knn_config(), "classifier", ("knn", "nb"),
                          dataset=dataset)
        assert sweep.expectations == ()
        assert sweep.runs["nb"].config.classifier.kind == "nb"

    def test_variants_share_split_seeds(self, dataset):
        sweep = run_sweep(knn_config(repeats=2), "classifier", ("knn", "nb"),
                          dataset=dataset)
        seeds = {v: [r.split_seed for r in sweep.runs[v].repeats]
                 for v in ("knn", "nb")}
        assert seeds["knn"] == seeds["nb"] == [3, 4]

    def test_sweep_validation_errors(self, dataset):
        with pytest.raises(ConfigError, match="axis"):
            run_sweep(knn_config(), "distance", ("a",), dataset=dataset)
        with pytest.raises(ConfigError, match="at least one"):
            run_sweep(knn_config(), "classifier", (), dataset=dataset)
        with pytest.raises(ConfigError, match="duplicate"):
            run_sweep(knn_config(), "classifier", ("knn", "knn"), dataset=dataset)
        with pytest.raises(ConfigError):
            run_sweep(knn_config(), "classifier", ("knn", "svm"), dataset=dataset)

    def test_writes_sweep_files(self, dataset, tmp_path):
        # the sweep only returns its report; its writer puts it at output_dir
        out = tmp_path / "sweepdir"
        config = knn_config(output_dir=str(out))
        sweep = run_sweep(config, "classifier", ("knn", "nb"), dataset=dataset)
        assert not out.exists()
        write_sweep_report(sweep, config.output_dir)
        loaded = json.loads((out / "sweep.json").read_text())
        assert loaded == sweep.to_json_obj()
        assert "sweep over classifier" in (out / "sweep.txt").read_text()
        assert not list(out.glob("*.tmp"))

    def test_each_repeat_is_split_once(self, dataset, monkeypatch):
        variants = ("none", "ztransform", "bootstrap", "stratified", "ecodb")
        config = knn_config(repeats=10, preprocessor=Preprocessor(
            outlier=OutlierParams(k=5, n_outliers=5)))
        seeds = []
        real_split = harness.split

        def counting_split(ds, spec):
            seeds.append(spec.seed)
            return real_split(ds, spec)

        monkeypatch.setattr(harness, "split", counting_split)
        sweep = run_sweep(config, "preprocessor", variants, dataset=dataset)
        assert seeds == list(range(3, 13))
        # each variant's run is what the variant gives when it splits alone
        for v in variants:
            alone = run_experiment(dataclasses.replace(
                config, preprocessor=dataclasses.replace(config.preprocessor, kind=v)),
                dataset=dataset)
            assert json.dumps(sweep.runs[v].to_json_obj(include_timestamp=False)) == \
                json.dumps(alone.to_json_obj(include_timestamp=False))

    def test_sweep_json_omits_per_run_timestamps(self, dataset):
        sweep = run_sweep(knn_config(), "classifier", ("knn",), dataset=dataset)
        assert "created_at" not in sweep.to_json_obj()["runs"]["knn"]
        assert "created_at" in sweep.to_json_obj()


class TestWriteReport:
    def test_overwrites_previous_report(self, dataset, tmp_path):
        config = knn_config()
        rep = run_experiment(config, dataset=dataset)
        json_path, text_path = write_run_report(rep, tmp_path)
        first = json_path.read_text()
        write_run_report(rep, tmp_path)
        assert json_path.read_text() == first
        assert text_path.exists()
