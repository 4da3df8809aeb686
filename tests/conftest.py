"""Shared fixtures.

The end-to-end benchmark tests need the Pima Indians diabetes CSV, which
is not redistributed with this repository. Point ECOAMLP_PIDD at a copy
or place it at data/pima_indians_diabetes.csv (see scripts/fetch_pidd.py);
the tests that need it skip with instructions when it is absent.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import ecoamlp.harness as harness  # noqa: E402
from ecoamlp.data import load_csv, pidd_schema  # noqa: E402
from ecoamlp.distance import Measure, pairwise_distances  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PIDD = ROOT / "data" / "pima_indians_diabetes.csv"


def load_module(relative: str):
    """The module of the repository file ``relative`` (such as
    ``perfbench/pidd_table.py``), loaded by path and named after its stem."""
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def distance_matrix(Q, X, measure=Measure.EUCLIDEAN):
    """The whole matrix of distances from the rows of Q to the rows of X:
    the row blocks of ``pairwise_distances``, each copied before the next
    overwrites it."""
    return np.concatenate([block.copy() for _, block in pairwise_distances(Q, X, measure)])


def pidd_csv_path():
    return Path(os.environ.get("ECOAMLP_PIDD", DEFAULT_PIDD))


def require_pidd():
    """Return the PIDD path or skip the calling test with instructions."""
    path = pidd_csv_path()
    if not path.exists():
        pytest.skip(
            f"Pima Indians diabetes CSV not found at {path}; fetch it on a "
            "networked machine with scripts/fetch_pidd.py or set ECOAMLP_PIDD"
        )
    return path


@pytest.fixture()
def repeat_calls(monkeypatch):
    """The arguments of each ``harness.run_repeat`` call, one entry per call."""
    calls = []
    original = harness.run_repeat

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(harness, "run_repeat", record)
    return calls


@pytest.fixture(scope="session")
def pidd_dataset():
    path = require_pidd()
    dataset = load_csv(path, pidd_schema())
    if len(dataset) != 768 or dataset.class_counts() != (500, 268):
        pytest.fail(
            f"{path} does not look like the expected table: "
            f"{len(dataset)} rows, class counts {dataset.class_counts()} "
            "(expected 768 rows, 500 negative / 268 positive)"
        )
    return dataset
