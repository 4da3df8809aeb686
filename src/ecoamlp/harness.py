"""Experiment harness: configuration, pipeline stages, reports, sweeps.

A run is: load a numeric CSV -> optionally drop features -> split ->
preprocess (fit on the training set only) -> fit classifier (train +
validation only) -> evaluate on validation and test.

The test subset is handed exclusively to the evaluation stage; it is
never passed to preparation or fitting, and any fitted transform (such as
a z-transform) is applied to it only inside :func:`evaluate_raw`. Repeat
``i`` of a run offsets every configured seed by ``i`` so repeats differ
from each other but the whole run stays reproducible. A sweep's variants
differ only after the split, so it splits each repeat once and runs every
variant on the same parts.

``CONFIG_FIELDS`` is the only description of the config's shape: its JSON
form, its validation and the CLI's flags all derive from that table, and
defaults live only in the section dataclasses.

Reports serialise to JSON (stable key order; the timestamp is the only
field that varies between identical runs) and to an aligned text table.
``run_experiment`` and ``run_sweep`` only return reports; the CLI writes
them with ``write_run_report`` and ``write_sweep_report``, through a temp
file plus rename so readers never observe a partial report.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .automlp import AutoMlpParams, AutoMlpRun, fit_automlp
from .baselines import (
    PREPROCESSOR_KINDS,
    Preprocessor,
    bootstrap_sample,
    knn_predict,
    naive_bayes_fit,
    naive_bayes_predict,
    stratified_sample,
    ztransform_fit,
)
from .class_outlier import (
    OutlierParams,
    OutlierReport,
    ecodb_detect,
    remove_outliers,
)
from .data import Dataset, DataSplit, SplitSpec, infer_schema, load_csv, pidd_schema, split
from .distance import Measure
from .errors import ConfigError
from .metrics import EvalReport, evaluate, format_table

CLASSIFIER_KINDS = ("automlp", "knn", "nb")
SCHEMA_NAMES = ("infer", "pidd")
SWEEP_AXES = ("preprocessor", "classifier")

ECODB_GAIN_POINTS = 5.0
"""Informational expectation: accuracy gain of ecodb over alternatives."""


@dataclasses.dataclass(frozen=True)
class ClassifierConfig:
    kind: str = "automlp"
    automlp: AutoMlpParams = dataclasses.field(default_factory=AutoMlpParams)
    knn_k: int = 5
    knn_measure: Measure = Measure.EUCLIDEAN

    def __post_init__(self) -> None:
        if self.kind not in CLASSIFIER_KINDS:
            raise ConfigError(
                f"unknown classifier {self.kind!r} (choose from: {', '.join(CLASSIFIER_KINDS)})"
            )
        if self.knn_k < 1:
            raise ConfigError(f"knn_k must be >= 1, got {self.knn_k}")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    data_path: Optional[str] = None
    schema_name: str = "infer"
    drop_features: Tuple[str, ...] = ()
    split: SplitSpec = dataclasses.field(default_factory=SplitSpec)
    preprocessor: Preprocessor = dataclasses.field(default_factory=Preprocessor)
    classifier: ClassifierConfig = dataclasses.field(default_factory=ClassifierConfig)
    repeats: int = 1
    output_dir: Optional[str] = None
    evaluate_on_train: bool = False

    def __post_init__(self) -> None:
        if self.schema_name not in SCHEMA_NAMES:
            raise ConfigError(
                f"unknown schema {self.schema_name!r} (choose from: {', '.join(SCHEMA_NAMES)})"
            )
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")


def json_bool(value) -> bool:
    """A JSON true or false; a string, number or null is refused, not cast."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {json.dumps(value)}")
    return value


class ConfigField(NamedTuple):
    """One experiment setting: its JSON key, dataclass attribute and CLI flag.

    ``convert`` turns a JSON (or flag) value into the attribute's value and
    is None for strings kept as they are; int and float also type the flag
    and :func:`json_bool` makes it a switch. ``options`` are extra argparse options.
    ``read`` gives the JSON value when it is not the attribute itself.
    """

    key: str
    attr: str
    flag: str
    convert: Optional[Callable] = None
    options: dict = {}
    read: Optional[Callable] = None


CONFIG_SECTIONS = {
    "": ExperimentConfig,
    "split": SplitSpec,
    "preprocessor": Preprocessor,
    "preprocessor.outlier": OutlierParams,
    "classifier": ClassifierConfig,
    "classifier.automlp": AutoMlpParams,
}
"""Dataclass of each JSON section, parents first. A section's last key
component is also its attribute name in the parent dataclass."""

_MEASURES = {"choices": [m.value for m in Measure]}
_RANGE = {"nargs": 2, "metavar": ("LO", "HI")}

CONFIG_FIELDS = (
    ConfigField("data", "data_path", "--data", options={"metavar": "FILE"}),
    ConfigField("schema", "schema_name", "--schema", options={"choices": SCHEMA_NAMES}),
    ConfigField("drop_features", "drop_features", "--drop-feature", tuple,
                {"action": "append", "metavar": "NAME",
                 "help": "drop a feature column by name (repeatable)"}),
    ConfigField("split.train", "train_fraction", "--train-fraction", float),
    ConfigField("split.validation", "validation_fraction", "--validation-fraction", float),
    ConfigField("split.test", "test_fraction", "--test-fraction", float),
    ConfigField("split.seed", "seed", "--split-seed", int),
    ConfigField("split.stratified", "stratified", "--stratified", json_bool),
    ConfigField("preprocessor.kind", "kind", "--preprocessor",
                options={"choices": PREPROCESSOR_KINDS}),
    ConfigField("preprocessor.fraction", "fraction", "--fraction", float,
                {"help": "sampling fraction for bootstrap/stratified"},
                read=Preprocessor.effective_fraction),
    ConfigField("preprocessor.seed", "seed", "--preprocessor-seed", int),
    ConfigField("preprocessor.outlier.k", "k", "--outlier-k", int),
    ConfigField("preprocessor.outlier.n_outliers", "n_outliers", "--n-outliers", int),
    ConfigField("preprocessor.outlier.measure", "measure", "--outlier-measure",
                Measure.parse, _MEASURES),
    ConfigField("preprocessor.outlier.alpha", "alpha", "--alpha", float),
    ConfigField("preprocessor.outlier.beta", "beta", "--beta", float),
    ConfigField("classifier.kind", "kind", "--classifier",
                options={"choices": CLASSIFIER_KINDS}),
    ConfigField("classifier.automlp.ensemble_size", "ensemble_size", "--ensemble-size", int),
    ConfigField("classifier.automlp.cycles_per_generation", "cycles_per_generation",
                "--cycles", int, {"help": "training cycles per generation"}),
    ConfigField("classifier.automlp.generations", "generations", "--generations", int),
    ConfigField("classifier.automlp.hidden_range", "hidden_range", "--hidden-range", tuple,
                {"type": int, **_RANGE}),
    ConfigField("classifier.automlp.lr_range", "lr_range", "--lr-range", tuple,
                {"type": float, **_RANGE}),
    ConfigField("classifier.automlp.seed", "seed", "--automlp-seed", int),
    ConfigField("classifier.automlp.warm_start", "warm_start", "--warm-start", json_bool,
                {"help": "offspring with unchanged width inherit parent weights"}),
    ConfigField("classifier.knn_k", "knn_k", "--knn-k", int),
    ConfigField("classifier.knn_measure", "knn_measure", "--knn-measure",
                Measure.parse, _MEASURES),
    ConfigField("repeats", "repeats", "--repeats", int),
    ConfigField("output_dir", "output_dir", "--output",
                options={"metavar": "DIR", "help": "write report.json/report.txt here"}),
    ConfigField("evaluate_on_train", "evaluate_on_train", "--evaluate-on-train", json_bool,
                {"help": "score the training set instead of the test set"}),
)
"""The experiment config's only field list, in JSON key order."""

_FIELD_KEYS = tuple(f.key for f in CONFIG_FIELDS)


def config_to_json_obj(config: ExperimentConfig) -> dict:
    obj: dict = {}
    for f in CONFIG_FIELDS:
        *path, name = f.key.split(".")
        section, source = obj, config
        for part in path:
            section = section.setdefault(part, {})
            source = getattr(source, part)
        value = f.read(source) if f.read else getattr(source, f.attr)
        if isinstance(value, Measure):
            value = value.value
        section[name] = list(value) if isinstance(value, tuple) else value
    return obj


def config_from_json_obj(obj: dict, flags: Optional[Dict[str, object]] = None) -> ExperimentConfig:
    """Validate a JSON config; defaults come from the section dataclasses.

    ``flags`` maps dotted keys to values that replace the JSON's, as the
    CLI's flags replace its config file's.
    """
    flags = flags or {}
    raw = {"": obj}
    for section in CONFIG_SECTIONS:
        parent, _, name = section.rpartition(".")
        if section:
            raw[section] = raw[parent].get(name, {})
        if not isinstance(raw[section], dict):
            raise ConfigError(f"{name or 'config'} section must be a JSON object")
        known = {key.rpartition(".")[2] for key in (*_FIELD_KEYS, *CONFIG_SECTIONS)
                 if key and key.rpartition(".")[0] == section}
        unknown = set(raw[section]) - known
        if unknown:
            raise ConfigError(
                f"unknown {name or 'config'} option(s): {', '.join(sorted(unknown))}"
            )
    kwargs: Dict[str, dict] = {section: {} for section in CONFIG_SECTIONS}
    for f in CONFIG_FIELDS:
        section, _, name = f.key.rpartition(".")
        if f.key in flags:
            value = flags[f.key]
        elif name in raw[section]:
            value = raw[section][name]
        else:
            continue
        try:
            kwargs[section][f.attr] = f.convert(value) if f.convert else value
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{f.key}: {exc}") from None
    for section in reversed(CONFIG_SECTIONS):
        parent, _, name = section.rpartition(".")
        config = CONFIG_SECTIONS[section](**kwargs[section])
        if section:
            kwargs[parent][name] = config
    return config


def read_config_json(path) -> dict:
    """The JSON object in a config file, not yet validated as a config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    try:
        with path.open() as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return obj


def load_config(path) -> ExperimentConfig:
    return config_from_json_obj(read_config_json(path))


@dataclasses.dataclass
class PreparedTraining:
    """Output of the preprocessing stage.

    ``transform`` is what must be applied to any future data before this
    pipeline's classifier may score it (identity for most preprocessors).
    """

    train: Dataset
    validation: Dataset
    transform: Callable[[Dataset], Dataset]
    outliers: Optional[OutlierReport] = None


@dataclasses.dataclass
class FittedClassifier:
    kind: str
    predict: Callable[[np.ndarray], np.ndarray]
    automlp_run: Optional[AutoMlpRun] = None


def prepare_training_data(
    train: Dataset,
    validation: Dataset,
    pre: Preprocessor,
    seed: int,
) -> PreparedTraining:
    """Apply one preprocessor to the training data. Never sees the test set."""
    identity = lambda ds: ds  # noqa: E731
    if pre.kind == "none":
        return PreparedTraining(train, validation, identity)
    if pre.kind == "ztransform":
        zt = ztransform_fit(train)
        return PreparedTraining(zt.apply(train), zt.apply(validation), zt.apply)
    if pre.kind == "bootstrap":
        return PreparedTraining(bootstrap_sample(train, pre.effective_fraction(), seed),
                                validation, identity)
    if pre.kind == "stratified":
        return PreparedTraining(stratified_sample(train, pre.effective_fraction(), seed),
                                validation, identity)
    if pre.kind == "ecodb":
        report = ecodb_detect(train, pre.outlier)
        return PreparedTraining(remove_outliers(train, report), validation, identity,
                                outliers=report)
    raise ConfigError(f"unknown preprocessor {pre.kind!r}")


def fit_classifier(
    prepared: PreparedTraining,
    clf: ClassifierConfig,
    seed: int,
) -> FittedClassifier:
    """Fit the configured classifier on preprocessed training data.

    Taking :class:`PreparedTraining` (only ever produced by
    :func:`prepare_training_data`) rather than bare datasets makes it
    impossible to train before preprocessing or to hand the trainer the
    test set.
    """
    if not isinstance(prepared, PreparedTraining):
        raise ConfigError("fit_classifier requires the output of prepare_training_data")
    train, validation = prepared.train, prepared.validation
    if clf.kind == "automlp":
        params = dataclasses.replace(clf.automlp, seed=seed)
        run = fit_automlp(train, validation, params)
        from .mlp import predict as mlp_predict  # local to avoid cycle at import time

        return FittedClassifier("automlp", lambda X: mlp_predict(run.winner, X), run)
    if clf.kind == "knn":
        return FittedClassifier("knn", lambda X: knn_predict(train, X, clf.knn_k, clf.knn_measure))
    if clf.kind == "nb":
        model = naive_bayes_fit(train)
        return FittedClassifier("nb", lambda X: naive_bayes_predict(model, X))
    raise ConfigError(f"unknown classifier {clf.kind!r}")


def evaluate_prepared(fitted: FittedClassifier, dataset: Dataset) -> EvalReport:
    """Score a dataset that already went through the training-side pipeline."""
    return evaluate(fitted.predict(dataset.features), dataset.labels)


def evaluate_raw(fitted: FittedClassifier, prepared: PreparedTraining,
                 dataset: Dataset) -> EvalReport:
    """Score untouched data: apply the fitted transform, predict."""
    return evaluate_prepared(fitted, prepared.transform(dataset))


@dataclasses.dataclass(frozen=True)
class RepeatResult:
    repeat_index: int
    split_seed: int
    n_train: int
    n_validation: int
    n_test: int
    validation: EvalReport
    test: EvalReport
    outliers: Optional[OutlierReport] = None
    automlp_history: Optional[list] = None
    winner: Optional[dict] = None

    def to_json_obj(self) -> dict:
        obj = {
            "repeat": self.repeat_index,
            "split_seed": self.split_seed,
            "n_train": self.n_train,
            "n_validation": self.n_validation,
            "n_test": self.n_test,
            "validation": self.validation.to_json_obj(),
            "test": self.test.to_json_obj(),
        }
        if self.outliers is not None:
            obj["outliers"] = self.outliers.to_json_obj()
        if self.automlp_history is not None:
            obj["automlp_history"] = self.automlp_history
        if self.winner is not None:
            obj["winner"] = self.winner
        return obj


AGGREGATED_METRICS = (
    "accuracy",
    "precision_pos",
    "recall_pos",
    "precision_neg",
    "recall_neg",
    "weighted_mean_precision",
    "weighted_mean_recall",
)


def aggregate_reports(reports: Sequence[EvalReport]) -> Dict[str, Dict[str, float]]:
    """Median, min, and max of each metric across repeats."""
    out: Dict[str, Dict[str, float]] = {}
    for name in AGGREGATED_METRICS:
        values = sorted(getattr(r, name) for r in reports)
        mid = len(values) // 2
        median = values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2.0
        out[name] = {"median": median, "min": values[0], "max": values[-1]}
    return out


@dataclasses.dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    repeats: Tuple[RepeatResult, ...]
    created_at: str

    @property
    def aggregates(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        return {
            "validation": aggregate_reports([r.validation for r in self.repeats]),
            "test": aggregate_reports([r.test for r in self.repeats]),
        }

    def to_json_obj(self, include_timestamp: bool = True) -> dict:
        obj = {
            "config": config_to_json_obj(self.config),
            "repeats": [r.to_json_obj() for r in self.repeats],
            "aggregates": self.aggregates,
        }
        if include_timestamp:
            obj["created_at"] = self.created_at
        return obj

    def to_text(self) -> str:
        rows = []
        for r in self.repeats:
            rows.append((f"repeat {r.repeat_index} validation", r.validation))
            rows.append((f"repeat {r.repeat_index} test", r.test))
        agg = self.aggregates["test"]
        lines = [
            f"run of {self.config.classifier.kind} with preprocessor "
            f"{self.config.preprocessor.kind} on {self.config.data_path or '<in-memory>'}",
            f"created {self.created_at}",
            "",
            format_table(rows),
            "",
            "test medians over "
            f"{len(self.repeats)} repeat(s): "
            + ", ".join(
                f"{name} {agg[name]['median'] * 100:.2f}%" for name in AGGREGATED_METRICS
            ),
        ]
        flagged = sorted({name for r in self.repeats
                          for name in r.validation.undefined + r.test.undefined})
        if flagged:
            lines.append("metrics with 0/0 reported as 0 (*): " + ", ".join(flagged))
        return "\n".join(lines) + "\n"


def split_repeat(dataset: Dataset, config: ExperimentConfig, repeat_index: int) -> DataSplit:
    """The split of repeat ``repeat_index``: the split seed offset by the index."""
    return split(dataset, dataclasses.replace(config.split, seed=config.split.seed + repeat_index))


def run_repeat(parts: DataSplit, config: ExperimentConfig, repeat_index: int) -> RepeatResult:
    """One seeded pass of the pipeline on the split ``split_repeat`` made."""
    prepared = prepare_training_data(
        parts.train, parts.validation, config.preprocessor,
        config.preprocessor.seed + repeat_index
    )
    fitted = fit_classifier(
        prepared,
        config.classifier,
        config.classifier.automlp.seed + repeat_index,
    )
    val_report = evaluate_prepared(fitted, prepared.validation)
    target = parts.train if config.evaluate_on_train else parts.test
    test_report = evaluate_raw(fitted, prepared, target)
    winner = None
    history = None
    if fitted.automlp_run is not None:
        run = fitted.automlp_run
        winner = {
            "hidden_units": run.winner.config.hidden_units,
            "learning_rate": run.winner.config.learning_rate,
            "validation_error": run.winner_validation_error,
        }
        history = run.history_json_obj()
    return RepeatResult(
        repeat_index=repeat_index,
        split_seed=config.split.seed + repeat_index,
        n_train=len(prepared.train),
        n_validation=len(prepared.validation),
        n_test=len(target),
        validation=val_report,
        test=test_report,
        outliers=prepared.outliers,
        automlp_history=history,
        winner=winner,
    )


def load_dataset(config: ExperimentConfig) -> Dataset:
    if not config.data_path:
        raise ConfigError("no dataset configured: set data_path (--data)")
    schema = pidd_schema() if config.schema_name == "pidd" else infer_schema(config.data_path)
    dataset = load_csv(config.data_path, schema)
    if config.drop_features:
        dataset = dataset.drop_features(config.drop_features)
    return dataset


def run_experiment(config: ExperimentConfig, dataset: Optional[Dataset] = None) -> RunReport:
    """Run all repeats and return the report.

    An injected ``dataset`` is used as-is; ``drop_features`` is applied
    only when loading from ``data_path``.
    """
    if dataset is None:
        dataset = load_dataset(config)
    return _run_splits(config, _split_repeats(dataset, config))


def _split_repeats(dataset: Dataset, config: ExperimentConfig) -> List[DataSplit]:
    return [split_repeat(dataset, config, i) for i in range(config.repeats)]


def _run_splits(config: ExperimentConfig, splits: Sequence[DataSplit]) -> RunReport:
    results = tuple(run_repeat(parts, config, i) for i, parts in enumerate(splits))
    return RunReport(config, results, created_at=_timestamp())


@dataclasses.dataclass(frozen=True)
class SweepReport:
    axis: str
    variants: Tuple[str, ...]
    runs: Dict[str, RunReport]
    expectations: Tuple[dict, ...]
    created_at: str

    def to_json_obj(self, include_timestamp: bool = True) -> dict:
        obj = {
            "axis": self.axis,
            "variants": list(self.variants),
            "runs": {v: self.runs[v].to_json_obj(include_timestamp=False)
                     for v in self.variants},
            "expectations": [dict(e) for e in self.expectations],
        }
        if include_timestamp:
            obj["created_at"] = self.created_at
        return obj

    def to_text(self) -> str:
        header = ("variant", "acc%", "wm prec%", "wm rec%")
        body = []
        for v in self.variants:
            agg = self.runs[v].aggregates["test"]
            body.append((
                v,
                f"{agg['accuracy']['median'] * 100:.2f}",
                f"{agg['weighted_mean_precision']['median'] * 100:.2f}",
                f"{agg['weighted_mean_recall']['median'] * 100:.2f}",
            ))
        widths = [max(len(header[c]), *(len(r[c]) for r in body)) for c in range(len(header))]
        lines = [f"sweep over {self.axis} (test medians)"]
        lines.append("  ".join(h.ljust(widths[c]) for c, h in enumerate(header)))
        lines.append("  ".join("-" * w for w in widths))
        for r in body:
            lines.append("  ".join(r[c].ljust(widths[c]) for c in range(len(header))))
        for e in self.expectations:
            status = "met" if e["met"] else "not met"
            lines.append(
                f"reference expectation ({status}, informational only): {e['detail']}"
            )
        return "\n".join(lines) + "\n"


def run_sweep(
    config: ExperimentConfig,
    axis: str,
    variants: Sequence[str],
    dataset: Optional[Dataset] = None,
) -> SweepReport:
    """Re-run the experiment once per variant along one config axis.

    Every variant runs on the same split of each repeat, made once.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r} (choose from: {', '.join(SWEEP_AXES)})")
    variants = tuple(variants)
    if not variants:
        raise ConfigError("sweep needs at least one variant")
    if len(set(variants)) != len(variants):
        raise ConfigError(f"duplicate sweep variants in {variants}")
    if dataset is None:
        dataset = load_dataset(config)
    splits = _split_repeats(dataset, config)
    runs: Dict[str, RunReport] = {}
    for variant in variants:
        # the axis names the section whose kind varies; output_dir stays out
        # of the nested configs, which the sweep report carries
        section = dataclasses.replace(getattr(config, axis), kind=variant)
        cfg = dataclasses.replace(config, output_dir=None, **{axis: section})
        runs[variant] = _run_splits(cfg, splits)
    return SweepReport(
        axis=axis,
        variants=variants,
        runs=runs,
        expectations=tuple(_sweep_expectations(axis, variants, runs)),
        created_at=_timestamp(),
    )


def _sweep_expectations(axis: str, variants: Tuple[str, ...],
                        runs: Dict[str, RunReport]) -> List[dict]:
    if axis != "preprocessor" or "ecodb" not in variants or len(variants) < 2:
        return []
    acc = {v: runs[v].aggregates["test"]["accuracy"]["median"] for v in variants}
    others = {v: a for v, a in acc.items() if v != "ecodb"}
    best_other, best_acc = max(others.items(), key=lambda kv: kv[1])
    gain = (acc["ecodb"] - best_acc) * 100.0
    return [{
        "name": "ecodb_gain_over_alternatives",
        "threshold_points": ECODB_GAIN_POINTS,
        "observed_points": gain,
        "met": gain >= ECODB_GAIN_POINTS,
        "detail": (
            f"ecodb test accuracy {acc['ecodb'] * 100:.2f}% vs best alternative "
            f"{best_other} at {best_acc * 100:.2f}% "
            f"(gain {gain:+.2f} points, expected >= {ECODB_GAIN_POINTS:.1f})"
        ),
    }]


def write_run_report(report: RunReport, out_dir) -> Tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    text_path = out / "report.txt"
    _write_atomic(json_path, json.dumps(report.to_json_obj(), indent=2) + "\n")
    _write_atomic(text_path, report.to_text())
    return json_path, text_path


def write_sweep_report(report: SweepReport, out_dir) -> Tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "sweep.json"
    text_path = out / "sweep.txt"
    _write_atomic(json_path, json.dumps(report.to_json_obj(), indent=2) + "\n")
    _write_atomic(text_path, report.to_text())
    return json_path, text_path


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()
