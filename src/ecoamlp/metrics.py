"""Binary classification metrics around a 2x2 confusion matrix.

Class 1 (diabetic) is the positive class throughout. Per-class precision
and recall are reported for both classes; the "weighted mean" variants
average the two classes with equal weight. Any 0/0 ratio is defined as 0
and the affected metric names are flagged in the report so downstream
tables can mark them.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

import numpy as np

from .errors import DataError


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

    def to_json_obj(self) -> dict:
        return {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn}


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
            "confusion": self.matrix.to_json_obj(),
            "accuracy": self.accuracy,
            "precision_pos": self.precision_pos,
            "recall_pos": self.recall_pos,
            "precision_neg": self.precision_neg,
            "recall_neg": self.recall_neg,
            "weighted_mean_precision": self.weighted_mean_precision,
            "weighted_mean_recall": self.weighted_mean_recall,
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
    """Aligned text table of labelled reports, metrics as percentages."""
    headers = ("run", "acc%", "prec+%", "rec+%", "prec-%", "rec-%", "wm prec%", "wm rec%")
    body = []
    for label, rep in rows:
        body.append(
            (
                label,
                f"{rep.accuracy * 100:.2f}",
                _cell(rep, "precision_pos", rep.precision_pos),
                _cell(rep, "recall_pos", rep.recall_pos),
                _cell(rep, "precision_neg", rep.precision_neg),
                _cell(rep, "recall_neg", rep.recall_neg),
                f"{rep.weighted_mean_precision * 100:.2f}",
                f"{rep.weighted_mean_recall * 100:.2f}",
            )
        )
    return align_table(headers, body)


def align_table(header: Sequence[str], body: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, the header over a dash rule."""
    widths = [max([len(h), *(len(r[c]) for r in body)]) for c, h in enumerate(header)]
    lines = [header, ["-" * w for w in widths], *body]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                     for line in lines)


def _cell(rep: EvalReport, name: str, value: float) -> str:
    mark = "*" if name in rep.undefined else ""
    return f"{value * 100:.2f}{mark}"
