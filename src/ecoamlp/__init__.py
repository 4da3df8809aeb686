"""Class-outlier-cleaned evolutionary MLP pipeline for binary tabular data."""

from .automlp import AutoMlpParams, AutoMlpRun, fit_automlp
from .baselines import (
    NaiveBayesModel,
    Preprocessor,
    bootstrap_sample,
    naive_bayes_fit,
    stratified_sample,
    ztransform_fit,
)
from .class_outlier import (
    OutlierParams,
    OutlierReport,
    codb_detect,
    ecodb_detect,
    remove_outliers,
)
from .data import (
    Dataset,
    DataSplit,
    Schema,
    SplitSpec,
    infer_schema,
    load_csv,
    pidd_schema,
    split,
)
from .distance import Measure, distance, pairwise_distances
from .errors import ConfigError, DataError
from .harness import (
    ClassifierConfig,
    ExperimentConfig,
    load_config,
    run_experiment,
    run_sweep,
)
from .metrics import ConfusionMatrix, EvalReport, confusion, evaluate, report
from .mlp import MlpConfig, MlpNetwork, init_network, predict, train_epoch

__version__ = "0.1.0"

__all__ = [
    "AutoMlpParams",
    "AutoMlpRun",
    "ClassifierConfig",
    "ConfigError",
    "ConfusionMatrix",
    "DataError",
    "DataSplit",
    "Dataset",
    "EvalReport",
    "ExperimentConfig",
    "Measure",
    "MlpConfig",
    "MlpNetwork",
    "NaiveBayesModel",
    "OutlierParams",
    "OutlierReport",
    "Preprocessor",
    "Schema",
    "SplitSpec",
    "bootstrap_sample",
    "codb_detect",
    "confusion",
    "distance",
    "ecodb_detect",
    "evaluate",
    "fit_automlp",
    "infer_schema",
    "init_network",
    "load_config",
    "load_csv",
    "naive_bayes_fit",
    "pairwise_distances",
    "pidd_schema",
    "predict",
    "remove_outliers",
    "report",
    "run_experiment",
    "run_sweep",
    "split",
    "stratified_sample",
    "train_epoch",
    "ztransform_fit",
]
