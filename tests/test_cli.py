"""Exit codes, flag/config precedence, and output files of the CLI."""

from __future__ import annotations

import dataclasses
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import ecoamlp.cli
import ecoamlp.harness as harness
from ecoamlp.cli import main
from ecoamlp.data import PIDD_FEATURES
from ecoamlp.harness import config_from_json_obj, json_obj, ExperimentConfig

from synth import random_dataset, write_csv


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, random_dataset(60, 3, seed=0, separation=2.0))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unreadable(tmp_path, kind):
    """A path that exists but cannot be read as text: bytes that are not
    UTF-8, or a directory."""
    path = tmp_path / f"{kind}.csv"
    if kind == "not-utf8":
        path.write_bytes(b"\xff\xfe1,2,0\n3,4,1\n")
    else:
        path.mkdir()
    return path


class TestRun:
    def test_happy_path(self, data_csv, capsys):
        code, out, err = run_cli(capsys, "run", "--data", data_csv,
                                 "--classifier", "knn", "--split-seed", "3")
        assert code == 0
        assert err == ""
        assert out.startswith("run of knn with preprocessor none")
        assert "test medians" in out

    def test_writes_output_files(self, data_csv, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(capsys, "run", "--data", data_csv,
                               "--classifier", "knn", "--output", str(out_dir))
        assert code == 0
        assert f"wrote {out_dir / 'report.json'}" in out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["classifier"]["kind"] == "knn"
        assert report["config"]["output_dir"] == str(out_dir)
        text = (out_dir / "report.txt").read_text()
        assert out.startswith(text)
        assert "test medians" in text
        assert "repeat 0 test" in text
        assert not list(out_dir.glob("*.tmp"))

    def test_flags_override_config_file(self, data_csv, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        obj = json_obj(ExperimentConfig(data=data_csv))
        config_path.write_text(json.dumps(obj))
        # the file asks for automlp; the flag forces the faster knn run
        code, out, _ = run_cli(capsys, "run", "--config", str(config_path),
                               "--classifier", "knn", "--repeats", "2")
        assert code == 0
        assert out.startswith("run of knn")
        assert "repeat 1 test" in out

    def test_evaluate_on_train_flag(self, data_csv, capsys):
        code, out, _ = run_cli(capsys, "run", "--data", data_csv,
                               "--classifier", "knn", "--knn-k", "1",
                               "--evaluate-on-train")
        assert code == 0
        assert "accuracy 100.00%" in out

    def test_tiny_automlp_run(self, data_csv, capsys):
        code, out, _ = run_cli(capsys, "run", "--data", data_csv,
                               "--classifier", "automlp",
                               "--ensemble-size", "2", "--cycles", "1",
                               "--generations", "1", "--hidden-range", "2", "4",
                               "--lr-range", "0.05", "0.5")
        assert code == 0
        assert out.startswith("run of automlp")

    def test_drop_feature_flag(self, data_csv, capsys, tmp_path):
        out_dir = tmp_path / "dropped"
        code, _, _ = run_cli(capsys, "run", "--data", data_csv,
                             "--classifier", "knn", "--drop-feature", "f1",
                             "--output", str(out_dir))
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["drop_features"] == ["f1"]


@pytest.fixture()
def written(monkeypatch):
    """Names of the report files written, one entry per write."""
    names = []
    original = harness.write_atomic

    def record(path, text):
        names.append(path.name)
        return original(path, text)

    monkeypatch.setattr(harness, "write_atomic", record)
    return names


class TestReportFilesWrittenOnce:
    def test_run(self, data_csv, capsys, tmp_path, written):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "run", "--data", data_csv, "--classifier", "knn",
                             "--output", str(out_dir))
        assert code == 0
        assert written == ["report.json", "report.txt"]
        # the files hold the report the harness returns for this config
        obj = json.loads((out_dir / "report.json").read_text())
        config = config_from_json_obj(obj["config"])
        assert config.output_dir == str(out_dir)
        report = harness.run_experiment(config)
        report = dataclasses.replace(report, created_at=obj["created_at"])
        assert_same_files(out_dir, harness.write_run_report(report, tmp_path / "expected"))

    def test_sweep(self, data_csv, capsys, tmp_path, written):
        out_dir = tmp_path / "sweep"
        code, _, _ = run_cli(capsys, "sweep", "--data", data_csv, "--classifier", "knn",
                             "--axis", "classifier", "--variants", "knn,nb",
                             "--output", str(out_dir))
        assert code == 0
        assert written == ["sweep.json", "sweep.txt"]
        obj = json.loads((out_dir / "sweep.json").read_text())
        config = ExperimentConfig(data=data_csv,
                                  classifier=harness.ClassifierConfig(kind="knn"))
        report = harness.run_sweep(config, "classifier", ["knn", "nb"])
        report = dataclasses.replace(report, created_at=obj["created_at"])
        assert_same_files(out_dir, harness.write_sweep_report(report, tmp_path / "expected"))


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
def test_output_files_get_the_mode_of_a_plain_open(data_csv, capsys, tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        out = tmp_path / "out"
        for argv in (["run", "--classifier", "knn"],
                     ["sweep", "--classifier", "knn", "--variants", "none"]):
            assert run_cli(capsys, *argv, "--data", data_csv, "--output", str(out))[0] == 0
        assert run_cli(capsys, "detect-outliers", "--data", data_csv, "--k", "5",
                       "--output", str(out / "outliers.json"))[0] == 0
    finally:
        os.umask(old)
    want = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert want == 0o666 & ~umask
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert sorted(modes) == ["outliers.json", "report.json", "report.txt",
                             "sweep.json", "sweep.txt"]
    assert set(modes.values()) == {want}


def assert_same_files(out_dir, expected_paths):
    for path in expected_paths:
        assert (out_dir / path.name).read_bytes() == path.read_bytes()


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--frobnicate")
        assert code == 1
        assert err.startswith("error:")

    def test_missing_command(self, capsys):
        assert run_cli(capsys, )[0] == 1

    def test_bad_choice(self, data_csv, capsys):
        code, _, err = run_cli(capsys, "run", "--data", data_csv,
                               "--classifier", "forest")
        assert code == 1
        assert "forest" in err

    def test_missing_data(self, capsys):
        code, _, err = run_cli(capsys, "run", "--classifier", "knn")
        assert code == 1
        assert "data" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", "/nonexistent.json")
        assert code == 1
        assert "no such config" in err

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_data_is_exit_two(self, capsys, tmp_path, kind):
        path = unreadable(tmp_path, kind)
        for command in ("run", "detect-outliers"):
            code, _, err = run_cli(capsys, command, "--data", str(path))
            assert code == 2
            assert err.startswith(f"error: {path}: cannot read: ")

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_config_is_exit_one(self, capsys, tmp_path, kind):
        path = unreadable(tmp_path, kind)
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: cannot read: ")

    def test_unwritable_output_file_is_config_error(self, data_csv, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(capsys, "detect-outliers", "--data", data_csv,
                               "--k", "5", "--output", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: cannot write: ") and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_output_dir_that_is_a_file_is_config_error(self, data_csv, capsys, tmp_path):
        path = tmp_path / "taken"
        path.write_text("old\n")
        code, _, err = run_cli(capsys, "run", "--data", data_csv, "--classifier", "knn",
                               "--output", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: cannot make the output directory: ")
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "taken"]

    @pytest.mark.parametrize("argv,name", [
        (["run", "--classifier", "knn", "--output", "out"], "report.json"),
        (["sweep", "--classifier", "knn", "--variants", "none", "--output", "out"],
         "sweep.json"),
        (["detect-outliers", "--k", "5", "--output", "out/outliers.json"], "outliers.json"),
    ], ids=["run", "sweep", "detect-outliers"])
    def test_output_file_that_is_a_directory_is_config_error(self, data_csv, capsys,
                                                             tmp_path, monkeypatch, argv, name):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "out" / name
        path.mkdir(parents=True)
        code, _, err = run_cli(capsys, *argv, "--data", data_csv)
        assert code == 1
        assert err == f"error: out/{name}: cannot write: Is a directory\n"
        assert path.is_dir() and not list(path.parent.glob("*.tmp"))

    @pytest.mark.parametrize("old", [None, b"{\"old\": 1}\n"], ids=["absent", "existing"])
    def test_report_pair_is_written_whole_or_not_at_all(self, data_csv, capsys, tmp_path,
                                                       monkeypatch, old):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out" / "report.txt").mkdir(parents=True)
        json_path = tmp_path / "out" / "report.json"
        if old is not None:
            json_path.write_bytes(old)
        code, _, err = run_cli(capsys, "run", "--data", data_csv, "--classifier", "knn",
                               "--output", "out")
        assert code == 1
        assert err == "error: out/report.txt: cannot write: Is a directory\n"
        if old is None:
            assert not json_path.exists()
        else:
            assert json_path.read_bytes() == old
        assert not list(json_path.parent.glob("*.tmp"))

    def test_abbreviated_flag_is_config_error(self, data_csv, capsys):
        # --n-outlier is a prefix of --n-outliers, not a flag
        code, out, err = run_cli(capsys, "detect-outliers", "--data", data_csv,
                                 "--n-outlier", "3")
        assert code == 1
        assert out == ""
        assert err == "error: unrecognized arguments: --n-outlier 3\n"

    def test_invalid_repeats(self, data_csv, capsys):
        code, _, _ = run_cli(capsys, "run", "--data", data_csv,
                             "--classifier", "knn", "--repeats", "0")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("run", "--outlier-measure", "mixed"),
        ("run", "--knn-measure", "mixed"),
        ("detect-outliers", "--measure", "mixed"),
    ])
    def test_mixed_measure_is_config_error(self, data_csv, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--data", data_csv)
        assert code == 1
        assert "mixed" in err and "euclidean" in err and "correlation" in err

    def test_codb_weights_are_no_experiment_setting(self, data_csv, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--data", data_csv, "--alpha", "1")
        assert code == 1 and "unrecognized arguments: --alpha 1" in err
        # as in the config block of a report written while they were settings
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"data": data_csv, "preprocessor": {"outlier": {"alpha": 100.0, "beta": 0.1}}}))
        for command in (["run"], ["sweep", "--variants", "none,ecodb"]):
            assert run_cli(capsys, *command, "--config", str(config_path)) == (
                1, "", "error: unknown outlier option(s): alpha, beta\n")

    def test_mixed_measure_in_config_file_is_config_error(self, data_csv, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"data": data_csv, "preprocessor": {"outlier": {"measure": "mixed"}}}))
        code, _, err = run_cli(capsys, "run", "--config", str(config_path))
        assert code == 1
        assert "choose from: euclidean, correlation)" in err

    def test_data_error_is_exit_two(self, data_csv, capsys):
        # pidd schema expects 8 feature columns; this file has 3
        code, _, err = run_cli(capsys, "run", "--data", data_csv,
                               "--schema", "pidd", "--classifier", "knn")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_numeric_first_row_is_exit_two(self, capsys, tmp_path):
        # all-number first rows are data, never a header to drop
        path = tmp_path / "d.csv"
        path.write_text("1,2,3,4,5,6,7,8,maybe\n1,2,3,4,5,6,7,8,0\n8,7,6,5,4,3,2,1,1\n")
        code, _, err = run_cli(capsys, "run", "--data", str(path),
                               "--schema", "pidd", "--classifier", "knn")
        assert code == 2
        assert "row 1, column 'label': unknown class label 'maybe'" in err

    @pytest.mark.parametrize("schema", [[], ["--schema", "pidd"]], ids=["infer", "pidd"])
    def test_blank_first_row_cell_is_exit_two(self, capsys, tmp_path, schema):
        path = tmp_path / "d.csv"
        row = "1,2,3,4,5,6,7,8,0"
        path.write_text(f"1,,3,4,5,6,7,8,0\n{row}\n{row}\n")
        code, _, err = run_cli(capsys, "detect-outliers", "--data", str(path), *schema)
        assert code == 2
        assert "row 1, column " in err and ": blank cell" in err

    @pytest.mark.parametrize("header,problem", [
        ("a,a,label", "row 1, column 2: repeated feature name 'a'"),
        ("a,,label", "row 1, column 2: blank feature name"),
    ], ids=["repeated", "blank"])
    def test_bad_header_name_is_exit_two(self, capsys, tmp_path, header, problem):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n1,2,0\n2,3,1\n3,4,0\n4,5,1\n")
        code, _, err = run_cli(capsys, "detect-outliers", "--data", str(path))
        assert code == 2
        assert err == f"error: {path}: {problem}\n"

    @pytest.mark.parametrize("obj,key", [
        ({"repeats": "10"}, "repeats"),
        ({"preprocessor": {"outlier": {"k": 3.9}}}, "preprocessor.outlier.k"),
        ({"preprocessor": {"outlier": {"n_outliers": "2"}}}, "preprocessor.outlier.n_outliers"),
        ({"split": {"seed": True}}, "split.seed"),
        ({"drop_features": "skin"}, "drop_features"),
        ({"classifier": {"automlp": {"hidden_range": [2.5, 10.7]}}},
         "classifier.automlp.hidden_range"),
        ({"data": 5}, "data"),
        ({"split": {"validation": "0.2"}}, "split.validation"),
    ])
    def test_config_value_of_another_type_is_exit_one(self, capsys, tmp_path, obj, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        # a --drop-feature flag is appended to the file's list, which is checked first
        for extra in ([], ["--drop-feature", "f0"]):
            code, _, err = run_cli(capsys, "run", "--config", str(path), *extra)
            assert code == 1
            assert err.startswith(f"error: {key}: expected ")

    @pytest.mark.parametrize("obj,message", [
        ({"preprocessor": 5}, "preprocessor section must be a JSON object"),
        ({"preprocessor": {"outlier": []}}, "outlier section must be a JSON object"),
        ({"classifier": {"automlp": "x"}}, "automlp section must be a JSON object"),
        ({"classifier": {"automlp": {"bogus": 1}}}, "unknown automlp option(s): bogus"),
        ({"split": {"seed": -1}}, "seed must be non-negative"),
        ({"preprocessor": {"seed": -2}}, "seed must be >= 0"),
    ])
    def test_config_error_message(self, capsys, tmp_path, obj, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        assert run_cli(capsys, "run", "--config", str(path)) == (1, "", f"error: {message}\n")

    def test_flag_value_error_message(self, capsys):
        assert run_cli(capsys, "run", "--knn-k", "0") == \
            (1, "", "error: knn_k must be >= 1, got 0\n")

    def test_one_column_csv_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a\n1\n2\n")
        assert run_cli(capsys, "detect-outliers", "--data", str(path)) == \
            (2, "", f"error: {path}: need at least one feature column plus a label\n")

    def test_flags_keep_their_types(self, capsys):
        args = ecoamlp.cli._build_parser().parse_args([
            "run", "--outlier-k", "3", "--validation-fraction", "0.15", "--split-seed", "4",
            "--fraction", "1",
            "--hidden-range", "2", "9", "--lr-range", "1", "2", "--drop-feature", "f0"])
        config = ecoamlp.cli._experiment_config(args)
        values = (config.preprocessor.outlier.k, config.split.validation,
                  config.split.seed, config.preprocessor.fraction,
                  *config.classifier.automlp.hidden_range, *config.classifier.automlp.lr_range,
                  *config.drop_features)
        assert values == (3, 0.15, 4, 1.0, 2, 9, 1.0, 2.0, "f0")
        assert [type(v) for v in values] == [int, float, int, float, int, int, float, float, str]
        code, _, err = run_cli(capsys, "run", "--outlier-k", "3.9")
        assert code == 1 and "--outlier-k: invalid int value: '3.9'" in err

    def test_internal_error_is_exit_three(self, data_csv, capsys, monkeypatch):
        def boom(config):
            raise RuntimeError("wedged")

        monkeypatch.setattr(ecoamlp.cli, "run_experiment", boom)
        code, _, err = run_cli(capsys, "run", "--data", data_csv,
                               "--classifier", "knn")
        assert code == 3
        assert err.startswith("internal error: RuntimeError")


def module_command(*argv):
    """``python -m ecoamlp.cli argv`` and an environment that finds the package."""
    path = [str(Path(ecoamlp.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return [sys.executable, "-m", "ecoamlp.cli", *argv], env


def test_python_dash_m_runs_the_cli(data_csv):
    def module(*argv):
        command, env = module_command(*argv, "--data", data_csv)
        return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)

    done = module("detect-outliers", "--k", "5", "--n-outliers", "2")
    assert done.returncode == 0
    assert len(json.loads(done.stdout)["outliers"]) == 2
    done = module("run", "--repeats", "0")
    assert done.returncode == 1
    assert done.stderr == "error: repeats must be >= 1, got 0\n"


def test_reader_closing_stdout_early_is_not_an_internal_error(data_csv):
    command, env = module_command("detect-outliers", "--k", "5", "--data", data_csv)
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        proc.stdout.close()  # the reader leaves before the first line
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == ecoamlp.cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


class TestSweep:
    def test_classifier_axis(self, data_csv, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--data", data_csv,
                               "--classifier", "knn", "--axis", "classifier",
                               "--variants", "knn,nb")
        assert code == 0
        assert out.startswith("sweep over classifier")
        assert "nb" in out

    def test_preprocessor_axis_with_expectation(self, data_csv, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--data", data_csv,
                               "--classifier", "knn",
                               "--outlier-k", "5", "--n-outliers", "4",
                               "--variants", "none,ecodb")
        assert code == 0
        assert "reference expectation" in out

    def test_writes_sweep_files(self, data_csv, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, _ = run_cli(capsys, "sweep", "--data", data_csv,
                               "--classifier", "knn", "--axis", "classifier",
                               "--variants", "knn,nb", "--output", str(out_dir))
        assert code == 0
        assert f"wrote {out_dir / 'sweep.json'}" in out
        assert json.loads((out_dir / "sweep.json").read_text())["variants"] == ["knn", "nb"]
        text = (out_dir / "sweep.txt").read_text()
        assert out.startswith(text)
        assert "sweep over classifier" in text
        assert not list(out_dir.glob("*.tmp"))

    def test_dumped_config_sweeps_as_flags_do(self, data_csv, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(json_obj(ExperimentConfig(data=data_csv))))
        reports = []
        for source in (["--config", str(config_path)], ["--data", data_csv]):
            out_dir = tmp_path / source[0][2:]
            code, _, _ = run_cli(capsys, "sweep", *source, "--variants", "stratified",
                                 "--classifier", "knn", "--output", str(out_dir))
            assert code == 0
            report = json.loads((out_dir / "sweep.json").read_text())
            del report["created_at"]
            reports.append(report)
        assert reports[0] == reports[1]
        # the stratified sampler's own fraction, 0.9 of 42 training rows
        assert reports[0]["runs"]["stratified"]["repeats"][0]["n_train"] == 38

    def test_variants_required(self, data_csv, capsys):
        code, _, err = run_cli(capsys, "sweep", "--data", data_csv)
        assert code == 1
        assert "variants" in err

    def test_unknown_variant(self, data_csv, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--data", data_csv,
                             "--classifier", "knn", "--axis", "classifier",
                             "--variants", "knn,svm")
        assert code == 1


class TestDetectOutliers:
    def test_stdout_json(self, data_csv, capsys):
        code, out, _ = run_cli(capsys, "detect-outliers", "--data", data_csv,
                               "--k", "5", "--n-outliers", "4",
                               "--measure", "euclidean")
        assert code == 0
        obj = json.loads(out)
        assert obj["algorithm"] == "ecodb"
        assert len(obj["outliers"]) == 4

    def test_codb_algorithm(self, data_csv, capsys):
        code, out, _ = run_cli(capsys, "detect-outliers", "--data", data_csv,
                               "--algorithm", "codb", "--k", "5",
                               "--n-outliers", "3", "--measure", "euclidean")
        assert code == 0
        obj = json.loads(out)
        assert obj["algorithm"] == "codb"
        assert obj["alpha"] == 100.0

    def test_codb_weights_are_flags_of_codb_alone(self, data_csv, capsys):
        argv = ("detect-outliers", "--data", data_csv, "--k", "5", "--measure", "euclidean")
        code, out, _ = run_cli(capsys, *argv, "--algorithm", "codb", "--alpha", "5",
                               "--beta", "2")
        assert code == 0
        assert (json.loads(out)["alpha"], json.loads(out)["beta"]) == (5.0, 2.0)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert not {"alpha", "beta"} & set(json.loads(out))
        assert run_cli(capsys, *argv, "--alpha", "5") == (
            1, "", "error: --alpha and --beta apply only to --algorithm codb\n")
        code, _, err = run_cli(capsys, *argv, "--algorithm", "codb", "--beta", "0")
        assert (code, err) == (1, "error: alpha and beta must be positive and finite\n")

    @pytest.mark.parametrize("schema", [[], ["--schema", "pidd"]], ids=["infer", "pidd"])
    def test_blank_label_is_exit_two(self, capsys, tmp_path, schema):
        path = tmp_path / "d.csv"
        rows = [f"{i},{8 - i},3,4,5,6,7,8,{i % 2}" for i in range(8)]
        rows[3] = rows[3][:-1]
        path.write_text("\n".join(rows) + "\n")
        assert run_cli(capsys, "detect-outliers", "--data", str(path), "--k", "3",
                       "--n-outliers", "2", *schema) == (
            2, "", f"error: {path}: row 4, column 'label': blank cell\n")

    def test_header_with_a_feature_in_another_column_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        header = ["Pregnancies", "BloodPressure", "Glucose", *PIDD_FEATURES[3:], "Outcome"]
        rows = [f"{i},{8 - i},3,4,5,6,7,8,{i % 2}" for i in range(8)]
        path.write_text("\n".join([",".join(header), *rows]) + "\n")
        code, out, err = run_cli(capsys, "detect-outliers", "--data", str(path),
                                 "--schema", "pidd", "--drop-feature", "Glucose")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: row 1, column 2: header names 'BloodPressure' "
                       "where the schema expects 'Glucose'\n")

    def test_output_file(self, data_csv, capsys, tmp_path):
        path = tmp_path / "outliers.json"
        code, out, _ = run_cli(capsys, "detect-outliers", "--data", data_csv,
                               "--k", "5", "--n-outliers", "2",
                               "--measure", "euclidean", "--output", str(path))
        assert code == 0
        assert f"wrote {path}" in out
        assert json.loads(path.read_text())["k"] == 5

    def test_output_file_is_replaced_whole_or_not_at_all(self, data_csv, capsys, tmp_path,
                                                          monkeypatch):
        path = tmp_path / "outliers.json"
        path.write_text("old\n")

        def crash(src, dst):
            raise OSError("crashed before the rename")

        monkeypatch.setattr(harness.os, "replace", crash)
        code, _, err = run_cli(capsys, "detect-outliers", "--data", data_csv,
                               "--k", "5", "--output", str(path))
        assert code == 3 and "crashed before the rename" in err
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "outliers.json"]

    def test_nominal_csv_is_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "nominal.csv"
        rows = ["x,colour,label"]
        for i in range(12):
            colour = ("red", "blue", "green")[i % 3]
            rows.append(f"{float(i)},{colour},{'yes' if i % 2 else 'no'}")
        path.write_text("\n".join(rows) + "\n")
        for command in ("detect-outliers", "run"):
            code, _, err = run_cli(capsys, command, "--data", str(path))
            assert code == 2
            assert "row 2, column 'colour': not a number: 'red'" in err

    def test_bad_parameters(self, data_csv, capsys):
        # k must stay below the dataset size
        code, _, err = run_cli(capsys, "detect-outliers", "--data", data_csv,
                               "--k", "60", "--n-outliers", "2",
                               "--measure", "euclidean")
        assert code == 1
        assert err.startswith("error:")
