"""Binary classification metrics around a 2x2 confusion matrix.

Class 1 (diabetic) is the positive class throughout. Per-class precision
and recall are reported for both classes; the "weighted mean" variants
average the two classes with equal weight. Any 0/0 ratio is defined as 0
and the affected metric names are flagged in the report so downstream
tables can mark them.

``SCORES`` is the one list of reported scores: the report JSON, the text
tables and the harness's aggregates take their scores from it, in order.
"""

from __future__ import annotations

import dataclasses
from typing import Collection, Sequence, Tuple

import numpy as np

from .errors import DataError

SCORES = {
    "accuracy": "acc%",
    "precision_pos": "prec+%",
    "recall_pos": "rec+%",
    "precision_neg": "prec-%",
    "recall_neg": "rec-%",
    "weighted_mean_precision": "wm prec%",
    "weighted_mean_recall": "wm rec%",
}
"""Each score's ``EvalReport`` field and JSON key: its text-table header."""


@dataclasses.dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with class 1 as positive: tp, tn, fp, fn."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclasses.dataclass(frozen=True)
class EvalReport:
    matrix: ConfusionMatrix
    accuracy: float
    precision_pos: float
    recall_pos: float
    precision_neg: float
    recall_neg: float
    weighted_mean_precision: float
    weighted_mean_recall: float
    undefined: Tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "confusion": dataclasses.asdict(self.matrix),
            **{name: getattr(self, name) for name in SCORES},
            "undefined": list(self.undefined),
        }


def confusion(predictions: Sequence[int], truths: Sequence[int]) -> ConfusionMatrix:
    preds = np.asarray(predictions, dtype=np.int64)
    truth = np.asarray(truths, dtype=np.int64)
    if preds.shape != truth.shape or preds.ndim != 1:
        raise DataError(
            f"predictions and truths must be equal-length vectors, "
            f"got {preds.shape} and {truth.shape}"
        )
    if preds.shape[0] == 0:
        raise DataError("cannot build a confusion matrix from zero instances")
    for name, arr in (("predictions", preds), ("truths", truth)):
        if np.any((arr < 0) | (arr > 1)):
            raise DataError(f"{name} must contain only class indices 0 and 1")
    return ConfusionMatrix(
        tp=int(np.sum((preds == 1) & (truth == 1))),
        tn=int(np.sum((preds == 0) & (truth == 0))),
        fp=int(np.sum((preds == 1) & (truth == 0))),
        fn=int(np.sum((preds == 0) & (truth == 1))),
    )


def report(matrix: ConfusionMatrix) -> EvalReport:
    if matrix.total == 0:
        raise DataError("confusion matrix is empty")
    undefined = []

    def ratio(name: str, num: int, den: int) -> float:
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    precision_pos = ratio("precision_pos", matrix.tp, matrix.tp + matrix.fp)
    recall_pos = ratio("recall_pos", matrix.tp, matrix.tp + matrix.fn)
    precision_neg = ratio("precision_neg", matrix.tn, matrix.tn + matrix.fn)
    recall_neg = ratio("recall_neg", matrix.tn, matrix.tn + matrix.fp)
    return EvalReport(
        matrix=matrix,
        accuracy=(matrix.tp + matrix.tn) / matrix.total,
        precision_pos=precision_pos,
        recall_pos=recall_pos,
        precision_neg=precision_neg,
        recall_neg=recall_neg,
        weighted_mean_precision=(precision_pos + precision_neg) / 2.0,
        weighted_mean_recall=(recall_pos + recall_neg) / 2.0,
        undefined=tuple(undefined),
    )


def evaluate(predictions: Sequence[int], truths: Sequence[int]) -> EvalReport:
    """Confusion plus derived metrics in one step."""
    return report(confusion(predictions, truths))


def format_table(rows: Sequence[Tuple[str, EvalReport]]) -> str:
    """Aligned text table of labelled reports, every score as a percentage
    and starred where it was 0/0."""
    return score_table("run", SCORES, [(label, [getattr(rep, name) for name in SCORES],
                                        rep.undefined) for label, rep in rows])


def score_table(label_header: str, names: Sequence[str],
                rows: Sequence[Tuple[str, Sequence[float], Collection[str]]]) -> str:
    """Left-aligned columns two spaces apart under a dash rule: each row's
    label, then its ``names`` scores as percentages, starred where named."""
    header = [label_header, *(SCORES[name] for name in names)]
    body = [[label, *(f"{value * 100:.2f}{'*' if name in starred else ''}"
                      for name, value in zip(names, values))]
            for label, values, starred in rows]
    widths = [max([len(h), *(len(r[c]) for r in body)]) for c, h in enumerate(header)]
    lines = [header, ["-" * w for w in widths], *body]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                     for line in lines)
