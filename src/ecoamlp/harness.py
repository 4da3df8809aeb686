"""Experiment harness: configuration, pipeline stages, reports, sweeps.

A run is: load a numeric CSV -> optionally drop features -> split ->
preprocess (fit on the training set only) -> fit classifier (train +
validation only) -> evaluate on validation and test.

The test subset is handed exclusively to the evaluation stage; it is
never passed to preparation or fitting, and any fitted transform (such as
a z-transform) is applied to it only inside :func:`evaluate_raw`. Each
stage reads its seed from its own config section, and
:func:`repeat_config` alone offsets the split, preprocessor and AutoMLP
seeds by the repeat index, so repeats differ from each other but the whole
run stays reproducible. A sweep's variants
differ only after the split, so it splits each repeat once and runs every
variant on the same parts.

The section dataclasses are the config's shape: each field's name is its
JSON key, a field whose default is a dataclass is a subsection, and the
defaults live there alone. ``CONFIG_FIELDS`` gives each setting, by its
dotted key, its JSON type and its CLI flag. The JSON holds each value as
given: an unset ``preprocessor.fraction`` is ``null``, never its default.
Every choice list lives here. A section refuses an unknown choice when it
is built, and :func:`run_sweep` an unknown axis, so no stage meets one.

:func:`json_obj` writes the config and the per-repeat records as their
dataclass fields, in order. Reports serialise to JSON (stable key order; the
timestamp is the only field that varies between identical runs) and to an
aligned text table.
The per-score aggregates and every score column and line of the text come
from ``metrics.SCORES``, in its order.
``run_experiment`` and ``run_sweep`` only return reports; the CLI writes
them with ``write_run_report`` and ``write_sweep_report``, through
:func:`write_atomic` (a temp file plus rename), so readers never observe a
partial report.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import statistics
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .automlp import AutoMlpParams, AutoMlpPopulation, MemberRecord, fit_automlp
from .baselines import (
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
from .data import Dataset, DataSplit, SplitSpec, load_csv, pidd_schema, split
from .distance import Measure
from .errors import ConfigError
from .metrics import SCORES, EvalReport, evaluate, format_table, score_table
from .mlp import predict as mlp_predict

PREPROCESSOR_KINDS = ("none", "ztransform", "bootstrap", "stratified", "ecodb")
CLASSIFIER_KINDS = ("automlp", "knn", "nb")
SCHEMA_NAMES = ("infer", "pidd")
SWEEP_AXES = ("preprocessor", "classifier")

ECODB_GAIN_POINTS = 5.0
"""Informational expectation: accuracy gain of ecodb over alternatives."""


def _check_choice(value: str, what: str, choices: Sequence[str]) -> None:
    if value not in choices:
        raise ConfigError(f"unknown {what} {value!r} (choose from: {', '.join(choices)})")


@dataclasses.dataclass(frozen=True)
class Preprocessor:
    """Configuration of one train-set preprocessing step.

    ``fraction`` only applies to the two samplers and defaults per sampler
    (1.0 for bootstrap, 0.9 for stratified) when left as None. ``outlier``
    only applies to ``ecodb``. ``seed`` feeds whichever step needs
    randomness.
    """

    kind: str = "none"
    fraction: Optional[float] = None
    seed: int = 0
    outlier: OutlierParams = dataclasses.field(default_factory=OutlierParams)

    def __post_init__(self) -> None:
        _check_choice(self.kind, "preprocessor", PREPROCESSOR_KINDS)
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def effective_fraction(self) -> float:
        if self.fraction is not None:
            return self.fraction
        return 0.9 if self.kind == "stratified" else 1.0


@dataclasses.dataclass(frozen=True)
class ClassifierConfig:
    kind: str = "automlp"
    automlp: AutoMlpParams = dataclasses.field(default_factory=AutoMlpParams)
    knn_k: int = 5
    knn_measure: Measure = Measure.EUCLIDEAN

    def __post_init__(self) -> None:
        _check_choice(self.kind, "classifier", CLASSIFIER_KINDS)
        if self.knn_k < 1:
            raise ConfigError(f"knn_k must be >= 1, got {self.knn_k}")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    data: Optional[str] = None
    schema: str = "infer"
    drop_features: Tuple[str, ...] = ()
    split: SplitSpec = dataclasses.field(default_factory=SplitSpec)
    preprocessor: Preprocessor = dataclasses.field(default_factory=Preprocessor)
    classifier: ClassifierConfig = dataclasses.field(default_factory=ClassifierConfig)
    repeats: int = 1
    output_dir: Optional[str] = None
    evaluate_on_train: bool = False

    def __post_init__(self) -> None:
        _check_choice(self.schema, "schema", SCHEMA_NAMES)
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")


def _json(expected: str, *types: type, cast: Optional[Callable] = None) -> Callable:
    """A converter that refuses, never casts, a JSON value of none of
    ``types`` (a bool is no number), saying what it ``expected``, and
    applies ``cast`` to any value but null."""
    def convert(value):
        if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
            raise ValueError(f"expected {expected}, got {json.dumps(value)}")
        return cast(value) if cast and value is not None else value
    return convert


json_bool = _json("true or false", bool)
json_int = _json("an integer", int)
json_float = _json("a number", int, float, cast=float)
json_str = _json("a string", str)
optional_float = _json("a number or null", int, float, type(None), cast=float)
optional_str = _json("a string or null", str, type(None))


def json_list(item: Callable, length: Optional[int] = None) -> Callable:
    """A converter of a JSON list (of ``length`` items, when given) into a
    tuple, each item through ``item``."""
    def convert(value):
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            expected = "a list" if length is None else f"a list of {length}"
            raise ValueError(f"expected {expected}, got {json.dumps(value)}")
        return tuple(map(item, value))
    return convert


def _measure(value) -> Measure:
    return Measure.parse(json_str(value))


class ConfigField(NamedTuple):
    """One experiment setting: its dotted JSON key and its CLI flag.

    ``convert`` turns a JSON (or flag) value into the field's value and
    refuses, never casts, a value of another JSON type. :func:`json_int` and
    :func:`json_float` also type the flag and :func:`json_bool` makes it a
    switch. ``options`` are extra argparse options.
    """

    key: str
    flag: str
    convert: Callable
    options: dict = {}

    def parse(self, value):
        """``value`` converted, or a ConfigError naming the key."""
        try:
            return self.convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.key}: {exc}") from None


_MEASURES = {"choices": [m.value for m in Measure]}
_RANGE = {"nargs": 2, "metavar": ("LO", "HI")}

CONFIG_FIELDS = {f.key: f for f in (
    ConfigField("data", "--data", optional_str, {"metavar": "FILE"}),
    ConfigField("schema", "--schema", json_str, {"choices": SCHEMA_NAMES}),
    ConfigField("drop_features", "--drop-feature", json_list(json_str),
                {"action": "append", "metavar": "NAME",
                 "help": "drop a feature column by name (repeatable)"}),
    ConfigField("split.train", "--train-fraction", json_float),
    ConfigField("split.validation", "--validation-fraction", json_float),
    ConfigField("split.test", "--test-fraction", json_float),
    ConfigField("split.seed", "--split-seed", json_int),
    ConfigField("split.stratified", "--stratified", json_bool),
    ConfigField("preprocessor.kind", "--preprocessor", json_str, {"choices": PREPROCESSOR_KINDS}),
    ConfigField("preprocessor.fraction", "--fraction", optional_float,
                {"type": float, "help": "sampling fraction for bootstrap/stratified"}),
    ConfigField("preprocessor.seed", "--preprocessor-seed", json_int),
    ConfigField("preprocessor.outlier.k", "--outlier-k", json_int),
    ConfigField("preprocessor.outlier.n_outliers", "--n-outliers", json_int),
    ConfigField("preprocessor.outlier.measure", "--outlier-measure", _measure, _MEASURES),
    ConfigField("preprocessor.outlier.alpha", "--alpha", json_float),
    ConfigField("preprocessor.outlier.beta", "--beta", json_float),
    ConfigField("classifier.kind", "--classifier", json_str, {"choices": CLASSIFIER_KINDS}),
    ConfigField("classifier.automlp.ensemble_size", "--ensemble-size", json_int),
    ConfigField("classifier.automlp.cycles_per_generation", "--cycles", json_int,
                {"help": "training cycles per generation"}),
    ConfigField("classifier.automlp.generations", "--generations", json_int),
    ConfigField("classifier.automlp.hidden_range", "--hidden-range",
                json_list(json_int, 2), {"type": int, **_RANGE}),
    ConfigField("classifier.automlp.lr_range", "--lr-range",
                json_list(json_float, 2), {"type": float, **_RANGE}),
    ConfigField("classifier.automlp.seed", "--automlp-seed", json_int),
    ConfigField("classifier.automlp.warm_start", "--warm-start", json_bool,
                {"help": "offspring with unchanged width inherit parent weights"}),
    ConfigField("classifier.knn_k", "--knn-k", json_int),
    ConfigField("classifier.knn_measure", "--knn-measure", _measure, _MEASURES),
    ConfigField("repeats", "--repeats", json_int),
    ConfigField("output_dir", "--output", optional_str,
                {"metavar": "DIR", "help": "write report.json/report.txt here"}),
    ConfigField("evaluate_on_train", "--evaluate-on-train", json_bool,
                {"help": "score the training set instead of the test set"}),
)}
"""Each setting of the config by its dotted key, in the order of the flags."""


def config_from_json_obj(obj: dict, flags: Optional[Dict[str, object]] = None) -> ExperimentConfig:
    """Validate a JSON config; defaults come from the section dataclasses.

    ``flags`` maps dotted keys to values that replace the JSON's, as the
    CLI's flags replace its config file's. The first error in field order,
    depth first, is the one reported.
    """
    return _section(ExperimentConfig, obj, "", flags or {})


def _section(cls: type, obj, key: str, flags: Dict[str, object]):
    """The ``cls`` section at dotted ``key``: a field whose default is a
    dataclass is a subsection, and any other field a setting."""
    name = key.rpartition(".")[2] or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} section must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = set(obj) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {name} option(s): {', '.join(sorted(unknown))}")
    kwargs = {}
    for f in fields:
        field_key = f"{key}.{f.name}" if key else f.name
        if dataclasses.is_dataclass(f.default_factory):
            kwargs[f.name] = _section(f.default_factory, obj.get(f.name, {}), field_key, flags)
        elif field_key in flags:
            kwargs[f.name] = CONFIG_FIELDS[field_key].parse(flags[field_key])
        elif f.name in obj:
            kwargs[f.name] = CONFIG_FIELDS[field_key].parse(obj[f.name])
    return cls(**kwargs)


def json_obj(value):
    """``value`` as JSON: a dataclass as its fields in order, through its own
    ``to_json_obj`` where it has one, an enum as its value, a tuple as a list."""
    if hasattr(value, "to_json_obj"):
        return value.to_json_obj()
    if dataclasses.is_dataclass(value):
        return {f.name: json_obj(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [json_obj(item) for item in value]
    return value


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return obj


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
    automlp_run: Optional[AutoMlpPopulation] = None


def prepare_training_data(train: Dataset, validation: Dataset,
                          pre: Preprocessor) -> PreparedTraining:
    """Apply one preprocessor to the training data. Never sees the test set."""
    identity = lambda ds: ds  # noqa: E731
    if pre.kind == "none":
        return PreparedTraining(train, validation, identity)
    if pre.kind == "ztransform":
        zt = ztransform_fit(train)
        return PreparedTraining(zt.apply(train), zt.apply(validation), zt.apply)
    if pre.kind == "bootstrap":
        return PreparedTraining(bootstrap_sample(train, pre.effective_fraction(), pre.seed),
                                validation, identity)
    if pre.kind == "stratified":
        return PreparedTraining(stratified_sample(train, pre.effective_fraction(), pre.seed),
                                validation, identity)
    report = ecodb_detect(train, pre.outlier)
    return PreparedTraining(remove_outliers(train, report), validation, identity,
                            outliers=report)


def fit_classifier(prepared: PreparedTraining, clf: ClassifierConfig) -> FittedClassifier:
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
        run = fit_automlp(train, validation, clf.automlp)
        return FittedClassifier("automlp", lambda X: mlp_predict(run.winner, X), run)
    if clf.kind == "knn":
        return FittedClassifier("knn", lambda X: knn_predict(train, X, clf.knn_k, clf.knn_measure))
    model = naive_bayes_fit(train)
    return FittedClassifier("nb", lambda X: naive_bayes_predict(model, X))


def evaluate_prepared(fitted: FittedClassifier, dataset: Dataset) -> EvalReport:
    """Score a dataset that already went through the training-side pipeline."""
    return evaluate(fitted.predict(dataset.features), dataset.labels)


def evaluate_raw(fitted: FittedClassifier, prepared: PreparedTraining,
                 dataset: Dataset) -> EvalReport:
    """Score untouched data: apply the fitted transform, predict."""
    return evaluate_prepared(fitted, prepared.transform(dataset))


@dataclasses.dataclass(frozen=True)
class RepeatResult:
    repeat: int
    split_seed: int
    n_train: int
    n_validation: int
    n_test: int
    validation: EvalReport
    test: EvalReport
    outliers: Optional[OutlierReport] = None
    automlp_history: Optional[Tuple[Tuple[MemberRecord, ...], ...]] = None
    winner: Optional[dict] = None

    def to_json_obj(self) -> dict:
        """The fields, leaving out the stage details that are None."""
        return {f.name: json_obj(getattr(self, f.name)) for f in dataclasses.fields(self)
                if getattr(self, f.name) is not None}


def aggregate_reports(reports: Sequence[EvalReport]) -> Dict[str, Dict[str, float]]:
    """Median, min, and max of each score across repeats."""
    out: Dict[str, Dict[str, float]] = {}
    for name in SCORES:
        values = sorted(getattr(r, name) for r in reports)
        out[name] = {"median": statistics.median(values), "min": values[0], "max": values[-1]}
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
            "config": json_obj(self.config),
            "repeats": json_obj(self.repeats),
            "aggregates": self.aggregates,
        }
        if include_timestamp:
            obj["created_at"] = self.created_at
        return obj

    def to_text(self) -> str:
        rows = []
        for r in self.repeats:
            rows.append((f"repeat {r.repeat} validation", r.validation))
            rows.append((f"repeat {r.repeat} test", r.test))
        agg = self.aggregates["test"]
        lines = [
            f"run of {self.config.classifier.kind} with preprocessor "
            f"{self.config.preprocessor.kind} on {self.config.data or '<in-memory>'}",
            f"created {self.created_at}",
            "",
            format_table(rows),
            "",
            f"test medians over {len(self.repeats)} repeat(s): "
            + ", ".join(f"{name} {agg[name]['median'] * 100:.2f}%" for name in SCORES),
        ]
        flagged = sorted({name for r in self.repeats
                          for name in r.validation.undefined + r.test.undefined})
        if flagged:
            lines.append("metrics with 0/0 reported as 0 (*): " + ", ".join(flagged))
        return "\n".join(lines) + "\n"


def repeat_config(config: ExperimentConfig, repeat_index: int) -> ExperimentConfig:
    """The config of repeat ``repeat_index``: its split, preprocessor and
    AutoMLP seeds each offset by the index."""
    def offset(section):
        return dataclasses.replace(section, seed=section.seed + repeat_index)
    clf = config.classifier
    return dataclasses.replace(config, split=offset(config.split),
                               preprocessor=offset(config.preprocessor),
                               classifier=dataclasses.replace(clf, automlp=offset(clf.automlp)))


def split_repeat(dataset: Dataset, config: ExperimentConfig, repeat_index: int) -> DataSplit:
    """The split of repeat ``repeat_index``."""
    return split(dataset, repeat_config(config, repeat_index).split)


def run_repeat(parts: DataSplit, config: ExperimentConfig, repeat_index: int) -> RepeatResult:
    """One seeded pass of the pipeline on the split ``split_repeat`` made."""
    seeded = repeat_config(config, repeat_index)
    prepared = prepare_training_data(parts.train, parts.validation, seeded.preprocessor)
    fitted = fit_classifier(prepared, seeded.classifier)
    val_report = evaluate_prepared(fitted, prepared.validation)
    target = parts.train if config.evaluate_on_train else parts.test
    test_report = evaluate_raw(fitted, prepared, target)
    winner = None
    history = None
    if fitted.automlp_run is not None:
        history = fitted.automlp_run.history
        best = history[-1][fitted.automlp_run.winner_slot]
        winner = {"hidden_units": best.hidden_units, "learning_rate": best.learning_rate,
                  "validation_error": best.validation_error}
    return RepeatResult(
        repeat=repeat_index,
        split_seed=seeded.split.seed,
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
    if not config.data:
        raise ConfigError("no dataset configured: set data (--data)")
    dataset = load_csv(config.data, pidd_schema() if config.schema == "pidd" else None)
    if config.drop_features:
        dataset = dataset.drop_features(config.drop_features)
    return dataset


def run_experiment(config: ExperimentConfig, dataset: Optional[Dataset] = None) -> RunReport:
    """Run all repeats and return the report.

    An injected ``dataset`` is used as-is; ``drop_features`` is applied
    only when loading from ``data``.
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
        names = ("accuracy", "weighted_mean_precision", "weighted_mean_recall")
        body = []
        for v in self.variants:
            agg = self.runs[v].aggregates["test"]
            body.append((v, [agg[name]["median"] for name in names], ()))
        lines = [f"sweep over {self.axis} (test medians)", score_table("variant", names, body)]
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
    _check_choice(axis, "sweep axis", SWEEP_AXES)
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
    return _write_report(report, out_dir, "report")


def write_sweep_report(report: SweepReport, out_dir) -> Tuple[Path, Path]:
    return _write_report(report, out_dir, "sweep")


def _write_report(report, out_dir, stem: str) -> Tuple[Path, Path]:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{out}: cannot make the output directory: {exc.strerror}") from None
    json_path = out / f"{stem}.json"
    text_path = out / f"{stem}.txt"
    for path in (json_path, text_path):  # before writing either
        _refuse_directory(path)
    write_atomic(json_path, json.dumps(report.to_json_obj(), indent=2) + "\n")
    write_atomic(text_path, report.to_text())
    return json_path, text_path


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path`` and rename it over
    ``path``, with the mode a plain ``open`` would have given it."""
    _refuse_directory(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _refuse_directory(path: Path) -> None:
    if path.is_dir():
        raise ConfigError(f"{path}: cannot write: Is a directory")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()
