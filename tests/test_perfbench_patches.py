"""The names ``perfbench/run.py`` wraps must exist, and unwrapping restores them.

The benchmark times layers by replacing module attributes from outside
(``tracing.Patches``). A rename in ``src/`` would otherwise only show as a
failed ``perfbench/run.py --trace 1`` run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from ecoamlp import automlp, class_outlier, cli, data, harness

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_wrapped_names_exist_and_are_restored(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its own dirs
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # dataclasses look it up
    spec.loader.exec_module(bench)

    modules = (automlp, class_outlier, cli, data, harness)
    before = [dict(vars(m)) for m in modules]
    patches = bench.tracing.Patches()
    bench.record_evaluations(patches, [])
    bench.install_tracer(bench.tracing.Tracer(), patches)
    assert harness.evaluate is not before[-1]["evaluate"]
    patches.restore_all()
    for module, attrs in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in attrs.items()), module
