"""Numeric tabular datasets: schema, CSV ingestion, seeded splits.

File format
-----------
Comma-separated values, decimal-point reals, one instance per row with the
class label in the final column. Every feature cell is a finite number; a
table with a categorical column is refused, naming the row and the column
of its first non-numeric cell. An optional single header line is
auto-detected: the first row is treated as a header if and only if it fails
to parse under the schema (a feature cell that is not a finite number, or a
label outside the schema's class labels).

Split reproducibility
---------------------
``split`` shuffles the ascending-id order with a Fisher-Yates pass driven by
xoshiro256** (see :mod:`ecoamlp.rng`), seeded from ``SplitSpec.seed``.
Subset sizes: validation and test each get ``round_half_up(fraction * n)``
and the training set absorbs the remainder. The shuffled order is consumed
as [train | validation | test] segments; within each subset, rows keep the
parent dataset's original order. Stratified splits allocate each subset's
per-class counts by largest remainder so class proportions stay within one
instance of the parent's.
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

    def label_index(self, label: str) -> int:
        try:
            return self.class_labels.index(label)
        except ValueError:
            raise DataError(f"unknown class label {label!r}") from None


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
        source_ids: Optional[Tuple[int, ...]] = None,
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
        self.source_ids = source_ids
        self._row_of = {int(i): r for r, i in enumerate(ids)}

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.schema.arity

    def row_of(self, instance_id: int) -> int:
        try:
            return self._row_of[int(instance_id)]
        except KeyError:
            raise DataError(f"unknown instance id {instance_id}") from None

    def class_counts(self) -> Tuple[int, int]:
        counts = np.bincount(self.labels, minlength=2)
        return int(counts[0]), int(counts[1])

    def take_rows(self, rows: Sequence[int], source_ids=None) -> "Dataset":
        rows = list(rows)
        return Dataset(
            self.schema,
            self.features[rows],
            self.labels[rows],
            self.ids[rows],
            source_ids=source_ids,
        )

    def drop_ids(self, drop: Sequence[int]) -> "Dataset":
        """Survivors in original order; every id in ``drop`` must exist."""
        drop_set = set(int(i) for i in drop)
        for i in drop_set:
            self.row_of(i)
        keep = [r for r in range(len(self)) if int(self.ids[r]) not in drop_set]
        return self.take_rows(keep)

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
        return Dataset(self.schema, features, self.labels, self.ids,
                       source_ids=self.source_ids)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.70
    validation_fraction: float = 0.15
    test_fraction: float = 0.15
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        fracs = (self.train_fraction, self.validation_fraction, self.test_fraction)
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
    n_val = round_half_up(spec.validation_fraction * n)
    n_test = round_half_up(spec.test_fraction * n)
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError(
            f"split of {n} instances yields empty subset "
            f"(train={n_train}, validation={n_val}, test={n_test})"
        )

    order = fisher_yates(sorted(int(i) for i in dataset.ids), spec.seed)
    if spec.stratified:
        train_ids, val_ids, test_ids = _stratified_segments(
            dataset, order, n_val, n_test
        )
    else:
        train_ids = set(order[:n_train])
        val_ids = set(order[n_train:n_train + n_val])
        test_ids = set(order[n_train + n_val:])

    def subset(members: set) -> Dataset:
        rows = [r for r in range(n) if int(dataset.ids[r]) in members]
        return dataset.take_rows(rows)

    return DataSplit(subset(train_ids), subset(val_ids), subset(test_ids))


def _stratified_segments(dataset, order, n_val, n_test):
    label_of = {int(i): int(l) for i, l in zip(dataset.ids, dataset.labels)}
    per_class = [[i for i in order if label_of[i] == c] for c in (0, 1)]
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
    val_ids, test_ids, train_ids = set(), set(), set()
    for c in (0, 1):
        members = per_class[c]
        val_ids.update(members[:val_alloc[c]])
        test_ids.update(members[val_alloc[c]:val_alloc[c] + test_alloc[c]])
        train_ids.update(members[val_alloc[c] + test_alloc[c]:])
    return train_ids, val_ids, test_ids


def load_csv(path, schema: Schema) -> Dataset:
    """Read ``path`` as instances of ``schema``; ids follow row order.

    Raises :class:`DataError` naming the 1-based file line and the column
    for any malformed cell. Blank cells are rejected, never imputed.
    """
    path = Path(path)
    rows = _read_rows(path)
    if rows and _row_fails(rows[0][1], schema):
        rows = rows[1:]
    if not rows:
        raise DataError(f"{path}: empty dataset")

    features = np.empty((len(rows), schema.arity), dtype=np.float64)
    labels = np.empty(len(rows), dtype=np.int64)
    for out_row, (lineno, row) in enumerate(rows):
        if len(row) != schema.arity + 1:
            raise DataError(
                f"{path}: row {lineno} has {len(row)} columns, "
                f"expected {schema.arity + 1}"
            )
        features[out_row] = _feature_values(path, lineno, schema.features, row)
        label_cell = row[schema.arity].strip()
        if label_cell not in schema.class_labels:
            raise DataError(
                f"{path}: row {lineno}, column 'label': "
                f"unknown class label {label_cell!r}"
            )
        labels[out_row] = schema.class_labels.index(label_cell)
    return Dataset(schema, features, labels, np.arange(len(rows)))


def _read_rows(path: Path) -> List[Tuple[int, List[str]]]:
    """The CSV's non-blank rows, each with its 1-based file line."""
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="") as fh:
        return [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)
                if row and any(cell.strip() for cell in row)]


def _feature_values(path: Path, lineno: int, names: Sequence[str],
                    row: List[str]) -> List[float]:
    """The finite numbers in a row's feature cells (the first ``len(names)``
    cells); a :class:`DataError` naming the row and the column of the first
    cell that holds none."""
    try:
        values = [float(cell) for cell in row[:len(names)]]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    name, cell = next((n, c.strip()) for n, c in zip(names, row) if not _is_number(c))
    try:
        float(cell)
        problem = f"non-finite value {cell!r}"
    except ValueError:
        problem = f"not a number: {cell!r}" if cell else "blank cell"
    raise DataError(f"{path}: row {lineno}, column {name!r}: {problem}")


def _is_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell.strip()))
    except ValueError:
        return False


def _row_fails(row: List[str], schema: Schema) -> bool:
    if len(row) != schema.arity + 1:
        return True
    if not all(_is_number(cell) for cell in row[:schema.arity]):
        return True
    return row[schema.arity].strip() not in schema.class_labels


def infer_schema(path) -> Schema:
    """Guess a schema from a CSV: one feature per column but the last,
    labels = the two distinct values of the last column in ascending
    string order.

    The first row counts as a header when a feature column holds numbers
    in every other row but not in the first. Every feature cell below the
    header must be a finite number; a :class:`DataError` names the row and
    the column of the first that is not.
    """
    path = Path(path)
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: empty dataset")
    first = rows[0][1]
    width = len(first)
    if width < 2:
        raise DataError(f"{path}: need at least one feature column plus a label")
    if any(len(r) != width for _, r in rows):
        raise DataError(f"{path}: inconsistent column counts")

    header = len(rows) > 1 and any(
        not _is_number(first[c]) and all(_is_number(r[c]) for _, r in rows[1:])
        for c in range(width - 1)
    )
    if header:
        names, body = tuple(c.strip() for c in first[:-1]), rows[1:]
    else:
        names, body = tuple(f"f{i}" for i in range(width - 1)), rows
    for lineno, row in body:
        _feature_values(path, lineno, names, row)
    labels = sorted({r[-1].strip() for _, r in body})
    if len(labels) != 2:
        raise DataError(f"{path}: expected exactly 2 class labels, found {len(labels)}")
    return Schema(names, (labels[0], labels[1]))


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
