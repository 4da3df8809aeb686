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


RUN_HOOKS = ["harness.load_csv", "harness.split", "harness.ecodb_detect",
             "class_outlier.pairwise_distances"]
HOOKS = {
    "pidd-ecodb-automlp": RUN_HOOKS + ["harness.fit_automlp", "automlp.run_generation",
                                       "automlp.evaluate_error"],
    "pidd-baseline-sweep": RUN_HOOKS + ["harness.knn_predict", "harness.naive_bayes_predict"],
    "pidd4x-detect-outliers": ["harness.load_csv", "cli.ecodb_detect",
                               "class_outlier.pairwise_distances"],
}
"""The wrapped names each workload's round must reach. ``data.load_csv`` is
the span that the ``harness.load_csv`` wrapper records."""


@pytest.mark.parametrize("name", sorted(HOOKS))
def test_traced_round_calls_the_hooks(bench, tmp_path, name):
    """A call that bypasses a wrapped name, say through a function held in a
    table, would read 0 in its per-layer metric without failing a round."""
    workload = bench.WORKLOADS[name]
    csv = tmp_path / "table.csv"
    bench.pidd_table.write_csv(csv, *bench.pidd_table.generate(bench.WARMUP_ROWS, 0))
    calls = workload.calls(csv, tmp_path / "out", bench.cli_seeds(0), warmup=True)
    tracer, patches = bench.tracing.Tracer(), bench.tracing.Patches()
    bench.install_tracer(tracer, patches)
    modules = {"automlp": automlp, "class_outlier": class_outlier, "cli": cli,
               "harness": harness}
    hooks = bench.tracing.Tracer()  # spans named by the wrapped attribute
    for hook in HOOKS[name]:
        module, attr = hook.split(".")
        patches.replace(modules[module], attr, hooks.wrapper(hook))
    try:
        codes = [cli.main(argv) for argv, _ in calls]
    finally:
        patches.restore_all()
    assert codes == [0] * len(calls)
    assert {span.name for span in hooks.spans} == set(HOOKS[name])
    spans = {span.name for span in tracer.spans}
    assert {"data.load_csv", "class_outlier.ecodb_detect", "distance.pairwise_distances"} <= spans


@pytest.mark.parametrize("name", ["pidd-ecodb-automlp", "pidd-baseline-sweep",
                                  "pidd4x-detect-outliers"])
def test_workload_output_passes_the_benchmark_check(bench, tmp_path, name):
    """One untimed round of each workload, at its benchmark size."""
    workload = bench.WORKLOADS[name]
    csv = tmp_path / "table.csv"
    bench.pidd_table.write_csv(csv, *bench.pidd_table.generate(workload.rows, 0))
    calls = workload.calls(csv, tmp_path / "out", bench.cli_seeds(0), warmup=False)
    patches, evaluations = bench.tracing.Patches(), []
    bench.record_evaluations(patches, evaluations)
    try:
        codes = [cli.main(argv) for argv, _ in calls]
    finally:
        patches.restore_all()
    assert codes == [0] * len(calls)
    reports = [json.loads(path.read_text()) for _, path in calls]
    assert workload.check(reports, evaluations, csv, first=True) == []
