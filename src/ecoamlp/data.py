"""Numeric tabular datasets: schema, CSV ingestion, seeded splits.

File format
-----------
Comma-separated values, decimal-point reals, one instance per row with the
class label in the final column. Every feature cell is a finite number; a
table with a categorical column is refused, naming the row and the column
of its first non-numeric cell. One rule finds a header, with or without a
schema: the first row is one when one of its feature cells is neither
blank nor a number but every later row holds a number in that column, or
when it is the only row. So a blank cell, a bad label or a missing column
in a numeric first row of several is an error naming row 1, never a
dropped header.

Split reproducibility
---------------------
``split`` shuffles the row positions in ascending-id order with a
Fisher-Yates pass driven by xoshiro256** (see :mod:`ecoamlp.rng`), seeded
from ``SplitSpec.seed``: the permutation the pass applies to the sorted ids.
Subset sizes: validation and test each get ``round_half_up(fraction * n)``
and the training set absorbs the remainder. The shuffled positions are cut
into [train | validation | test] segments, each sorted so that its rows keep
the parent dataset's original order. Stratified splits cut each class's
positions apart, with per-class counts allocated by largest remainder so
class proportions stay within one instance of the parent's.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError
from .rng import fisher_yates


@dataclass(frozen=True)
class Schema:
    """Feature names, in column order, and the two class labels."""

    features: Tuple[str, ...]
    class_labels: Tuple[str, str]

    def __post_init__(self):
        if not all(self.features):
            raise ConfigError("feature names must be non-empty")
        if len(set(self.features)) != len(self.features):
            raise ConfigError("feature names must be unique")
        if len(self.class_labels) != 2:
            raise ConfigError("exactly two class labels are required")
        if len(set(self.class_labels)) != 2:
            raise ConfigError("class labels must be distinct")

    @property
    def arity(self) -> int:
        return len(self.features)


class Dataset:
    """Immutable table of instances conforming to one schema.

    Feature values are always stored as float64. Arrays are frozen after
    construction, so a Dataset is safe to share across threads.
    """

    def __init__(
        self,
        schema: Schema,
        features: np.ndarray,
        labels: np.ndarray,
        ids: np.ndarray,
    ):
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] != schema.arity:
            raise DataError(
                f"feature matrix shape {features.shape} does not match "
                f"schema arity {schema.arity}"
            )
        n = features.shape[0]
        if labels.shape != (n,) or ids.shape != (n,):
            raise DataError("features, labels and ids must have equal length")
        if not np.all(np.isfinite(features)):
            raise DataError("feature values must be finite")
        if np.any((labels < 0) | (labels > 1)):
            raise DataError("labels must be class indices 0 or 1")
        if len(np.unique(ids)) != n:
            raise DataError("instance ids must be unique")
        for arr in (features, labels, ids):
            arr.setflags(write=False)
        self.schema = schema
        self.features = features
        self.labels = labels
        self.ids = ids

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.schema.arity

    def class_counts(self) -> Tuple[int, int]:
        counts = np.bincount(self.labels, minlength=2)
        return int(counts[0]), int(counts[1])

    def take_rows(self, rows: Sequence[int]) -> "Dataset":
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(self.schema, self.features[rows], self.labels[rows], self.ids[rows])

    def drop_ids(self, drop: Sequence[int]) -> "Dataset":
        """Survivors in original order; every id in ``drop`` must exist."""
        drop = np.asarray(drop, dtype=np.int64)
        unknown = drop[~np.isin(drop, self.ids)]
        if unknown.size:
            raise DataError(f"unknown instance id {unknown[0]}")
        return self.take_rows(np.flatnonzero(~np.isin(self.ids, drop)))

    def drop_features(self, names: Sequence[str]) -> "Dataset":
        for name in names:
            if name not in self.schema.features:
                raise ConfigError(f"cannot drop unknown feature {name!r}")
        keep = [i for i, name in enumerate(self.schema.features) if name not in set(names)]
        if not keep:
            raise ConfigError("cannot drop every feature")
        schema = Schema(
            tuple(self.schema.features[i] for i in keep), self.schema.class_labels
        )
        return Dataset(schema, self.features[:, keep], self.labels, self.ids)

    def with_feature_matrix(self, features: np.ndarray) -> "Dataset":
        return Dataset(self.schema, features, self.labels, self.ids)


@dataclass(frozen=True)
class SplitSpec:
    train: float = 0.70
    validation: float = 0.15
    test: float = 0.15
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        fracs = (self.train, self.validation, self.test)
        if not all(0.0 < f < 1.0 for f in fracs):
            raise ConfigError("split fractions must each lie in (0, 1)")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fracs)!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class DataSplit:
    train: Dataset
    validation: Dataset
    test: Dataset


def round_half_up(x: float) -> int:
    """Deterministic rounding rule used for all subset sizing."""
    return int(math.floor(x + 0.5))


def largest_remainder_allocation(weights: Sequence[float], total: int) -> List[int]:
    """Split ``total`` units proportionally to ``weights``.

    Floor each exact share, then hand the leftover units to the largest
    fractional remainders (ties to the lower index). Each allocation is
    within one unit of its exact share.
    """
    if total < 0:
        raise ConfigError("total must be non-negative")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise ConfigError("weights must have a positive sum")
    exact = [w / wsum * total for w in weights]
    alloc = [int(math.floor(e)) for e in exact]
    leftovers = total - sum(alloc)
    order = sorted(range(len(weights)), key=lambda i: (-(exact[i] - alloc[i]), i))
    for i in order[:leftovers]:
        alloc[i] += 1
    return alloc


def split(dataset: Dataset, spec: SplitSpec) -> DataSplit:
    """Deterministic three-way partition of ``dataset`` per ``spec``."""
    n = len(dataset)
    if n < 3:
        raise DataError("dataset must have at least 3 instances to split")
    n_val = round_half_up(spec.validation * n)
    n_test = round_half_up(spec.test * n)
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError(
            f"split of {n} instances yields empty subset "
            f"(train={n_train}, validation={n_val}, test={n_test})"
        )

    order = np.argsort(dataset.ids, kind="stable")[fisher_yates(range(n), spec.seed)]
    if spec.stratified:
        parts = _stratified_segments(dataset.labels, order, n_val, n_test)
    else:
        parts = np.split(order, [n_train, n_train + n_val])
    return DataSplit(*(dataset.take_rows(np.sort(rows)) for rows in parts))


def _stratified_segments(labels, order, n_val, n_test):
    """[train, validation, test] row positions, cut from each class's share
    of the shuffled ``order``."""
    per_class = [order[labels[order] == c] for c in (0, 1)]
    counts = [len(g) for g in per_class]
    if min(counts) == 0:
        raise DataError("stratified split requires both classes present")
    val_alloc = largest_remainder_allocation(counts, n_val)
    test_alloc = largest_remainder_allocation(counts, n_test)
    for c in (0, 1):
        if val_alloc[c] + test_alloc[c] >= counts[c]:
            raise DataError(
                f"class {c} too small for stratified split "
                f"({counts[c]} members, {val_alloc[c] + test_alloc[c]} requested)"
            )
    cuts = [np.split(members, [v, v + t])
            for members, v, t in zip(per_class, val_alloc, test_alloc)]
    val, test, train = (np.concatenate(segments) for segments in zip(*cuts))
    return train, val, test


def load_csv(path, schema: Optional[Schema] = None) -> Dataset:
    """Read ``path`` as instances of ``schema``; ids follow row order.

    Without a schema the table names it: one feature per column but the
    last (named by the header, else f0, f1, ...), and the two distinct
    values of the last column as class labels, in ascending string order.
    Raises :class:`DataError` naming the 1-based file line and the column
    for any malformed cell, a blank or repeated header name among them.
    Blank cells are rejected, never imputed. A UTF-8 byte-order mark is
    not part of the first cell.
    """
    path = Path(path)
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: empty dataset")
    width = schema.arity + 1 if schema else len(rows[0][1])
    if width < 2:
        raise DataError(f"{path}: need at least one feature column plus a label")
    features = np.empty((len(rows), width - 1))
    numeric = [_parse_into(out, row) for out, (_, row) in zip(features, rows)]
    names = schema.features if schema else tuple(f"f{i}" for i in range(width - 1))
    if _is_header(rows, numeric, width - 1):
        if schema is None:
            names = _header_names(path, *rows[0])
        rows, numeric, features = rows[1:], numeric[1:], features[1:]
    if not rows:
        raise DataError(f"{path}: empty dataset")
    cells = [row[-1].strip() for _, row in rows]
    for (lineno, row), ok, cell in zip(rows, numeric, cells):
        if len(row) != width:
            raise DataError(f"{path}: row {lineno} has {len(row)} columns, expected {width}")
        if not ok:
            _raise_cell_error(path, lineno, names, row)
        if schema and cell not in schema.class_labels:
            raise DataError(
                f"{path}: row {lineno}, column 'label': unknown class label {cell!r}")
    if schema is None:
        found = sorted(set(cells))
        if len(found) != 2:
            raise DataError(f"{path}: expected exactly 2 class labels, found {len(found)}")
        schema = Schema(names, (found[0], found[1]))
    labels = [schema.class_labels.index(cell) for cell in cells]
    return Dataset(schema, features, labels, np.arange(len(rows)))


def _read_rows(path: Path) -> List[Tuple[int, List[str]]]:
    """The CSV's non-blank rows, each with its 1-based file line."""
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            return [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)
                    if row and any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from None


def _header_names(path: Path, lineno: int, row: List[str]) -> Tuple[str, ...]:
    """The feature names in header ``row``; a blank or repeated one is a
    :class:`DataError` naming its 1-based column."""
    names = tuple(cell.strip() for cell in row[:-1])
    for column, name in enumerate(names, start=1):
        if not name or name in names[:column - 1]:
            problem = f"repeated feature name {name!r}" if name else "blank feature name"
            raise DataError(f"{path}: row {lineno}, column {column}: {problem}")
    return names


def _parse_into(out: np.ndarray, row: List[str]) -> bool:
    """Write the first ``len(out)`` cells of ``row`` into ``out`` as floats;
    False, writing nothing, when any is missing or not a finite number."""
    try:
        values = [float(cell) for cell in row[:len(out)]]
    except ValueError:
        return False
    if len(values) != len(out) or not all(map(math.isfinite, values)):
        return False
    out[:] = values
    return True


def _is_header(rows, numeric: List[bool], n: int) -> bool:
    """The header rule of the module docstring; ``numeric`` marks the rows
    whose first ``n`` cells are all finite numbers."""
    first = rows[0][1]
    return len(rows) == 1 or (not numeric[0] and any(
        c < len(first) and first[c].strip() and not _is_number(first[c])
        and all(ok or (c < len(row) and _is_number(row[c]))
                for (_, row), ok in zip(rows[1:], numeric[1:]))
        for c in range(n)))


def _raise_cell_error(path: Path, lineno: int, names: Sequence[str], row: List[str]):
    """A :class:`DataError` naming the row and the column of the first
    feature cell that holds no finite number."""
    name, cell = next((n, c.strip()) for n, c in zip(names, row) if not _is_number(c))
    try:
        float(cell)
        problem = f"non-finite value {cell!r}"
    except ValueError:
        problem = f"not a number: {cell!r}" if cell else "blank cell"
    raise DataError(f"{path}: row {lineno}, column {name!r}: {problem}")


def _is_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


PIDD_FEATURES = (
    "Pregnancies",
    "Glucose",
    "BloodPressure",
    "SkinThickness",
    "Insulin",
    "BMI",
    "DiabetesPedigreeFunction",
    "Age",
)


def pidd_schema() -> Schema:
    """Schema of the Pima Indians diabetes table: 8 numeric features and a
    0/1 outcome label (1 = diabetic, the positive class)."""
    return Schema(PIDD_FEATURES, ("0", "1"))
