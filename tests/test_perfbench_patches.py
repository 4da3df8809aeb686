"""The benchmark's hooks into the program: wrapped names and output checks.

The benchmark times layers by replacing module attributes from outside
(``tracing.Patches``) and checks each round's output against
``tests/oracles.py``. A rename in ``src/`` or an oracle that disagrees
with the program would otherwise only show as a failed
``perfbench/run.py`` run.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ecoamlp import automlp, class_outlier, cli, data, harness

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture()
def bench(monkeypatch):
    """``perfbench/run.py`` loaded as a module."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its own dirs
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_exist_and_are_restored(bench):
    modules = (automlp, class_outlier, cli, data, harness)
    before = [dict(vars(m)) for m in modules]
    patches = bench.tracing.Patches()
    bench.record_evaluations(patches, [])
    bench.install_tracer(bench.tracing.Tracer(), patches)
    assert harness.evaluate is not before[-1]["evaluate"]
    patches.restore_all()
    for module, attrs in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in attrs.items()), module


def test_detect_output_passes_the_benchmark_check(bench, tmp_path):
    csv = tmp_path / "table.csv"
    bench.pidd_table.write_csv(csv, *bench.pidd_table.generate(96, 0))
    workload = bench.DetectOutliers()
    ((argv, path),) = workload.calls(csv, tmp_path / "out", bench.cli_seeds(0), warmup=False)
    assert cli.main(argv) == 0
    report = json.loads(path.read_text())
    assert workload.check([report], [], csv, first=True) == []
