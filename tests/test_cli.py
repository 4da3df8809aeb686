"""Exit codes, flag/config precedence, and output files of the CLI."""

from __future__ import annotations

import dataclasses
import json

import pytest

import ecoamlp.cli
import ecoamlp.harness as harness
from ecoamlp.cli import main
from ecoamlp.harness import config_from_json_obj, config_to_json_obj, ExperimentConfig

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
        obj = config_to_json_obj(ExperimentConfig(data_path=data_csv))
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
    original = harness._write_atomic

    def record(path, text):
        names.append(path.name)
        return original(path, text)

    monkeypatch.setattr(harness, "_write_atomic", record)
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
        config = ExperimentConfig(data_path=data_csv,
                                  classifier=harness.ClassifierConfig(kind="knn"))
        report = harness.run_sweep(config, "classifier", ["knn", "nb"])
        report = dataclasses.replace(report, created_at=obj["created_at"])
        assert_same_files(out_dir, harness.write_sweep_report(report, tmp_path / "expected"))


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

    def test_internal_error_is_exit_three(self, data_csv, capsys, monkeypatch):
        def boom(config):
            raise RuntimeError("wedged")

        monkeypatch.setattr(ecoamlp.cli, "run_experiment", boom)
        code, _, err = run_cli(capsys, "run", "--data", data_csv,
                               "--classifier", "knn")
        assert code == 3
        assert err.startswith("internal error: RuntimeError")


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

    def test_output_file(self, data_csv, capsys, tmp_path):
        path = tmp_path / "outliers.json"
        code, out, _ = run_cli(capsys, "detect-outliers", "--data", data_csv,
                               "--k", "5", "--n-outliers", "2",
                               "--measure", "euclidean", "--output", str(path))
        assert code == 0
        assert f"wrote {path}" in out
        assert json.loads(path.read_text())["k"] == 5

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
