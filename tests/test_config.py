"""The config field table: JSON round trips, CLI flags and the README default."""

from __future__ import annotations

import dataclasses
import json
import re
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoamlp import cli
from ecoamlp.automlp import AutoMlpParams
from ecoamlp.class_outlier import OutlierParams
from ecoamlp.data import SplitSpec
from ecoamlp.distance import Measure
from ecoamlp.errors import ConfigError
from ecoamlp.harness import (
    CLASSIFIER_KINDS,
    CONFIG_FIELDS,
    PREPROCESSOR_KINDS,
    SCHEMA_NAMES,
    ClassifierConfig,
    ExperimentConfig,
    Preprocessor,
    config_from_json_obj,
    json_obj,
)

README = Path(__file__).resolve().parent.parent / "README.md"

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

seeds = st.integers(0, 2**31)
positive = st.floats(1e-3, 1e3, allow_nan=False)


@st.composite
def splits(draw):
    parts = [draw(st.integers(1, 8)) for _ in range(3)]
    total = sum(parts)
    return SplitSpec(parts[0] / total, parts[1] / total, parts[2] / total,
                     seed=draw(seeds), stratified=draw(st.booleans()))


@st.composite
def automlp_params(draw):
    hidden_lo = draw(st.integers(1, 10))
    lr_lo = draw(st.floats(1e-4, 0.5))
    return AutoMlpParams(
        ensemble_size=draw(st.integers(2, 8)),
        cycles_per_generation=draw(st.integers(1, 20)),
        generations=draw(st.integers(1, 20)),
        hidden_range=(hidden_lo, draw(st.integers(hidden_lo + 1, 300))),
        lr_range=(lr_lo, lr_lo * draw(st.floats(1.5, 1e3))),
        seed=draw(seeds),
        warm_start=draw(st.booleans()),
    )


configs = st.builds(
    ExperimentConfig,
    data=st.sampled_from([None, "data.csv", "dir/pima.csv"]),
    schema=st.sampled_from(SCHEMA_NAMES),
    drop_features=st.lists(st.sampled_from(["f0", "f1", "skin", "bmi"]), unique=True,
                           max_size=3).map(tuple),
    split=splits(),
    preprocessor=st.builds(
        Preprocessor,
        kind=st.sampled_from(PREPROCESSOR_KINDS),
        fraction=st.none() | st.floats(0.01, 1.0),
        seed=seeds,
        outlier=st.builds(OutlierParams, k=st.integers(1, 50), n_outliers=st.integers(0, 50),
                          measure=st.sampled_from(Measure), alpha=positive, beta=positive),
    ),
    classifier=st.builds(
        ClassifierConfig,
        kind=st.sampled_from(CLASSIFIER_KINDS),
        automlp=automlp_params(),
        knn_k=st.integers(1, 20),
        knn_measure=st.sampled_from(Measure),
    ),
    repeats=st.integers(1, 20),
    output_dir=st.sampled_from([None, "out"]),
    evaluate_on_train=st.booleans(),
)


def json_value(obj: dict, key: str):
    for part in key.split("."):
        obj = obj[part]
    return obj


def argv_for(obj: dict) -> list:
    """The run flags that set every field of a JSON config."""
    argv = []
    for f in CONFIG_FIELDS.values():
        value = json_value(obj, f.key)
        if value is None or value is False:
            continue
        if value is True:
            argv.append(f.flag)
        elif f.options.get("action") == "append":
            for item in value:
                argv += [f.flag, item]
        elif isinstance(value, list):
            argv += [f.flag, *map(str, value)]
        else:
            argv += [f.flag, str(value)]
    return argv


def leaf_keys(cls=ExperimentConfig, prefix=""):
    """The dotted key of each setting of the config dataclasses, in field order."""
    keys = []
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            keys += leaf_keys(f.default_factory, f"{prefix}{f.name}.")
        else:
            keys.append(prefix + f.name)
    return keys


def test_each_setting_has_one_config_field():
    # the flags follow CONFIG_FIELDS and the JSON follows the fields, in one order
    assert leaf_keys() == list(CONFIG_FIELDS)


@PROPERTY_SETTINGS
@given(configs)
def test_json_round_trip(config):
    obj = json.loads(json.dumps(json_obj(config)))
    loaded = config_from_json_obj(obj)
    assert json_obj(loaded) == obj
    assert loaded == config


def test_fraction_null_is_unset():
    obj = {"preprocessor": {"kind": "stratified", "fraction": None}}
    assert config_from_json_obj(obj).preprocessor.fraction is None
    assert json_obj(config_from_json_obj(obj))["preprocessor"]["fraction"] is None


@pytest.mark.parametrize("value", ["0.9", True])
def test_fraction_must_be_a_number(value):
    with pytest.raises(ConfigError, match="^preprocessor.fraction: expected a number or null"):
        config_from_json_obj({"preprocessor": {"fraction": value}})


@PROPERTY_SETTINGS
@given(configs)
def test_flags_parse_to_the_json_config(config):
    obj = json_obj(config)
    expected = config_from_json_obj(obj)
    parser = cli._build_parser()
    assert cli._experiment_config(parser.parse_args(["run", *argv_for(obj)])) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(obj))
        # flags left out must not override the file
        args = parser.parse_args(["run", "--config", str(path)])
        assert cli._experiment_config(args) == expected


def test_readme_default_config_block():
    text = README.read_text()
    block = re.search(r"The default config serializes as:\s*```json\n(.*?)```", text, re.S)
    assert block, "README lost its default-config block"
    assert json.loads(block.group(1)) == json_obj(ExperimentConfig())


def test_readme_cli_examples_parse():
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    assert len(blocks) >= 3, "README lost its CLI examples"
    parser = cli._build_parser()
    for block in blocks:
        program, *argv = shlex.split(block.replace("\\\n", " "))
        assert program == "ecoamlp"
        parser.parse_args(argv)
