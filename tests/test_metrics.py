"""Confusion counting, derived ratios, and the undefined-metric convention."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracles
from ecoamlp.errors import DataError
from ecoamlp.metrics import (
    SCORES,
    ConfusionMatrix,
    EvalReport,
    confusion,
    evaluate,
    format_table,
    report,
)


def random_labels(seed, n=60, p=0.5):
    rng = np.random.default_rng(seed)
    return rng.random(n) < p


class TestConfusion:
    def test_one_of_each_outcome(self):
        m = confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (m.tp, m.tn, m.fp, m.fn) == (1, 1, 1, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dictionary_recount(self, seed):
        preds = random_labels(seed).astype(int)
        truth = random_labels(seed + 100).astype(int)
        m = confusion(preds, truth)
        assert (m.tp, m.tn, m.fp, m.fn) == oracles.recount_confusion(preds, truth)

    def test_counts_sum_to_total(self):
        preds = random_labels(1).astype(int)
        truth = random_labels(2).astype(int)
        assert confusion(preds, truth).total == len(preds)

    def test_input_validation(self):
        with pytest.raises(DataError):
            confusion([1, 0], [1])
        with pytest.raises(DataError):
            confusion([], [])
        with pytest.raises(DataError):
            confusion([0, 2], [0, 1])
        with pytest.raises(DataError):
            confusion([0, -1], [0, 1])
        with pytest.raises(DataError):
            ConfusionMatrix(1, 1, -1, 1)


class TestReport:
    def test_worked_example_is_exact(self):
        rep = report(ConfusionMatrix(tp=50, tn=40, fp=5, fn=5))
        assert rep.accuracy == 0.90
        assert rep.precision_pos == 50 / 55
        assert rep.recall_pos == 50 / 55
        assert rep.precision_neg == 40 / 45
        assert rep.recall_neg == 40 / 45
        assert rep.undefined == ()

    def test_accuracy_identity(self):
        preds = random_labels(3).astype(int)
        truth = random_labels(4).astype(int)
        rep = evaluate(preds, truth)
        assert rep.accuracy == pytest.approx(float(np.mean(preds == truth)),
                                             abs=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_all_metrics_bounded(self, seed):
        rng = np.random.default_rng(seed)
        tp, tn, fp, fn = rng.integers(0, 30, size=4)
        if tp + tn + fp + fn == 0:
            tp = 1
        rep = report(ConfusionMatrix(int(tp), int(tn), int(fp), int(fn)))
        values = [rep.accuracy, rep.precision_pos, rep.recall_pos,
                  rep.precision_neg, rep.recall_neg,
                  rep.weighted_mean_precision, rep.weighted_mean_recall]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_weighted_means_average_both_classes(self):
        rep = report(ConfusionMatrix(tp=10, tn=20, fp=5, fn=15))
        assert rep.weighted_mean_precision == pytest.approx(
            (rep.precision_pos + rep.precision_neg) / 2.0, abs=1e-15)
        assert rep.weighted_mean_recall == pytest.approx(
            (rep.recall_pos + rep.recall_neg) / 2.0, abs=1e-15)

    def test_class_swap_symmetry(self):
        # relabeling both predictions and truths swaps the per-class metrics
        preds = random_labels(5).astype(int)
        truth = random_labels(6).astype(int)
        rep = evaluate(preds, truth)
        flipped = evaluate(1 - preds, 1 - truth)
        assert flipped.accuracy == rep.accuracy
        assert flipped.precision_pos == rep.precision_neg
        assert flipped.recall_pos == rep.recall_neg
        assert flipped.weighted_mean_precision == rep.weighted_mean_precision

    def test_zero_denominators_flagged_as_zero(self):
        # nothing predicted positive and nothing truly positive
        rep = report(ConfusionMatrix(tp=0, tn=10, fp=0, fn=0))
        assert rep.precision_pos == 0.0
        assert rep.recall_pos == 0.0
        assert set(rep.undefined) == {"precision_pos", "recall_pos"}
        assert rep.recall_neg == 1.0

    def test_all_wrong_is_defined(self):
        rep = report(ConfusionMatrix(tp=0, tn=0, fp=3, fn=4))
        assert rep.accuracy == 0.0
        assert rep.precision_pos == 0.0
        assert "precision_pos" not in rep.undefined

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            report(ConfusionMatrix(0, 0, 0, 0))

    def test_json_shape(self):
        obj = report(ConfusionMatrix(5, 5, 1, 1)).to_json_obj()
        assert obj["confusion"] == {"tp": 5, "tn": 5, "fp": 1, "fn": 1}
        assert obj["undefined"] == []
        assert obj["accuracy"] == pytest.approx(10 / 12)

    def test_score_table_holds_every_score_field(self):
        # a score left out of SCORES would be missing from the JSON, the
        # text tables and the aggregates alike
        scores = [f.name for f in dataclasses.fields(EvalReport) if f.type == "float"]
        assert list(SCORES) == scores
        obj = report(ConfusionMatrix(5, 5, 1, 1)).to_json_obj()
        assert list(obj) == ["confusion", *scores, "undefined"]


class TestFormatTable:
    def test_contains_percentages_and_labels(self):
        rep = report(ConfusionMatrix(tp=50, tn=40, fp=5, fn=5))
        text = format_table([("baseline", rep)])
        lines = text.splitlines()
        assert lines[0].startswith("run")
        assert "acc%" in lines[0]
        assert lines[2].startswith("baseline")
        assert "90.00" in lines[2]

    def test_undefined_cells_are_starred(self):
        rep = report(ConfusionMatrix(tp=0, tn=10, fp=0, fn=0))
        text = format_table([("degenerate", rep)])
        assert "0.00*" in text

    def test_columns_align_across_rows(self):
        reps = [("a", report(ConfusionMatrix(50, 40, 5, 5))),
                ("much-longer-label", report(ConfusionMatrix(1, 1, 1, 1)))]
        lines = format_table(reps).splitlines()
        assert len({len(line) for line in lines[2:]}) == 1
