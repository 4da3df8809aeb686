"""Dataset construction, numeric CSV ingestion, and splits."""

from __future__ import annotations

import numpy as np
import pytest

from ecoamlp.data import (
    Dataset,
    Schema,
    SplitSpec,
    infer_schema,
    largest_remainder_allocation,
    load_csv,
    pidd_schema,
    round_half_up,
    split,
)
from ecoamlp.errors import ConfigError, DataError

from synth import numeric_schema, random_dataset, write_csv


def small_dataset():
    return Dataset(
        numeric_schema(2),
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]),
        np.array([0, 0, 1, 1]),
        np.array([10, 11, 12, 13]),
    )


class TestSchema:
    def test_features_and_arity(self):
        schema = numeric_schema(3)
        assert schema.arity == 3
        assert schema.features == ("f0", "f1", "f2")

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(ConfigError):
            Schema(("a", "a"), ("0", "1"))

    def test_empty_feature_name_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            Schema(("a", ""), ("0", "1"))

    def test_two_distinct_labels_required(self):
        with pytest.raises(ConfigError):
            Schema(("a",), ("x", "x"))

    def test_label_index(self):
        schema = numeric_schema(1)
        assert schema.label_index("0") == 0
        assert schema.label_index("1") == 1
        with pytest.raises(DataError):
            schema.label_index("2")


class TestDataset:
    def test_row_and_instance_lookup(self):
        ds = small_dataset()
        assert ds.row_of(12) == 2
        assert ds.labels[2] == 1
        assert np.array_equal(ds.features[2], [2.0, 2.0])
        with pytest.raises(DataError):
            ds.row_of(99)

    def test_arrays_are_frozen(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            Dataset(numeric_schema(1), np.zeros((2, 1)), np.zeros(2, dtype=int),
                    np.array([1, 1]))

    def test_non_finite_features_rejected(self):
        with pytest.raises(DataError):
            Dataset(numeric_schema(1), np.array([[np.nan]]), np.array([0]), np.array([0]))

    def test_label_range_checked(self):
        with pytest.raises(DataError):
            Dataset(numeric_schema(1), np.zeros((1, 1)), np.array([2]), np.array([0]))

    def test_class_counts(self):
        assert small_dataset().class_counts() == (2, 2)

    def test_drop_ids_keeps_order_and_checks_membership(self):
        ds = small_dataset()
        kept = ds.drop_ids([11, 13])
        assert kept.ids.tolist() == [10, 12]
        assert np.array_equal(kept.features[1], [2.0, 2.0])
        with pytest.raises(DataError):
            ds.drop_ids([99])

    def test_drop_features(self):
        ds = small_dataset()
        dropped = ds.drop_features(["f0"])
        assert dropped.n_features == 1
        assert dropped.features[:, 0].tolist() == [0.0, 0.0, 2.0, 1.0]
        with pytest.raises(ConfigError):
            ds.drop_features(["nope"])
        with pytest.raises(ConfigError):
            ds.drop_features(["f0", "f1"])


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3), (2.49, 2), (115.2, 115)],
    )
    def test_round_half_up(self, value, expected):
        assert round_half_up(value) == expected

    def test_largest_remainder_totals(self):
        for weights, total in [([1, 1, 1], 10), ([0.7, 0.15, 0.15], 768), ([3, 1], 7)]:
            alloc = largest_remainder_allocation(weights, total)
            assert sum(alloc) == total
            wsum = sum(weights)
            for w, a in zip(weights, alloc):
                assert abs(a - w / wsum * total) < 1.0 + 1e-9

    def test_largest_remainder_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            largest_remainder_allocation([0.0, 0.0], 3)
        with pytest.raises(ConfigError):
            largest_remainder_allocation([1.0], -1)


class TestSplit:
    def test_sizes_for_768_rows(self):
        ds = random_dataset(768, 3, seed=1)
        parts = split(ds, SplitSpec(seed=0))
        assert (len(parts.train), len(parts.validation), len(parts.test)) == (538, 115, 115)

    def test_partition_disjoint_and_covering(self):
        ds = random_dataset(101, 4, seed=2)
        parts = split(ds, SplitSpec(seed=5))
        ids = [set(parts.train.ids), set(parts.validation.ids), set(parts.test.ids)]
        assert ids[0] | ids[1] | ids[2] == set(ds.ids.tolist())
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])

    def test_determinism_and_seed_sensitivity(self):
        ds = random_dataset(60, 4, seed=3)
        a = split(ds, SplitSpec(seed=7))
        b = split(ds, SplitSpec(seed=7))
        c = split(ds, SplitSpec(seed=8))
        assert a.train.ids.tolist() == b.train.ids.tolist()
        assert a.test.ids.tolist() == b.test.ids.tolist()
        assert a.train.ids.tolist() != c.train.ids.tolist()

    def test_subsets_keep_parent_row_order(self):
        ds = random_dataset(40, 2, seed=4)
        parts = split(ds, SplitSpec(seed=9))
        for subset in (parts.train, parts.validation, parts.test):
            assert subset.ids.tolist() == sorted(subset.ids.tolist())

    def test_fraction_validation(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(ConfigError):
            SplitSpec(0.7, 0.3, 0.0)

    def test_small_dataset_rejected(self):
        with pytest.raises(DataError):
            split(random_dataset(2, 2, seed=0), SplitSpec())

    def test_empty_subset_rejected(self):
        with pytest.raises(ConfigError):
            split(random_dataset(4, 2, seed=0), SplitSpec(0.8, 0.1, 0.1))

    def test_stratified_proportions_within_one(self):
        ds = random_dataset(150, 3, seed=6, positive_fraction=0.3)
        parts = split(ds, SplitSpec(seed=11, stratified=True))
        n0, n1 = ds.class_counts()
        for subset in (parts.train, parts.validation, parts.test):
            s0, s1 = subset.class_counts()
            expect1 = n1 / len(ds) * len(subset)
            assert abs(s1 - expect1) <= 1.0 + 1e-9
            assert s0 + s1 == len(subset)

    def test_stratified_needs_both_classes(self):
        ds = Dataset(numeric_schema(1), np.arange(12, dtype=float).reshape(-1, 1),
                     np.zeros(12, dtype=int), np.arange(12))
        with pytest.raises(DataError):
            split(ds, SplitSpec(seed=0, stratified=True))


class TestLoadCsv:
    def test_roundtrip_with_header(self, tmp_path):
        ds = random_dataset(25, 3, seed=7)
        path = tmp_path / "data.csv"
        write_csv(path, ds, header=True)
        loaded = load_csv(path, numeric_schema(3))
        assert len(loaded) == 25
        assert loaded.ids.tolist() == list(range(25))
        assert np.allclose(loaded.features, ds.features)
        assert loaded.labels.tolist() == ds.labels.tolist()

    def test_roundtrip_without_header(self, tmp_path):
        ds = random_dataset(10, 2, seed=8)
        path = tmp_path / "data.csv"
        write_csv(path, ds, header=False)
        loaded = load_csv(path, numeric_schema(2))
        assert len(loaded) == 10

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(path, numeric_schema(2))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(path, numeric_schema(2))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv", numeric_schema(2))

    def test_bad_arity_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n1.0,0\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, numeric_schema(2))

    def test_bad_number_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(DataError, match="row 2.*'f1'"):
            load_csv(path, numeric_schema(2))

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n1.0,2.0,maybe\n")
        with pytest.raises(DataError, match="maybe"):
            load_csv(path, numeric_schema(2))

    def test_blank_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,,0\n")
        with pytest.raises(DataError, match="blank"):
            load_csv(path, numeric_schema(2))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n1.0,nan,0\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, numeric_schema(2))

    def test_lone_malformed_row_reads_as_header(self, tmp_path):
        # consequence of the documented rule: header iff the first row
        # fails to parse, so a single bad row leaves nothing to load
        path = tmp_path / "d.csv"
        path.write_text("1.0,oops,0\n")
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(path, numeric_schema(2))

    def test_categorical_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,colour,label\n1.5,red,0\n2.5,blue,1\n")
        with pytest.raises(DataError, match="row 2, column 'colour': not a number: 'red'"):
            load_csv(path, Schema(("x", "colour"), ("0", "1")))


class TestInferSchema:
    def test_numeric_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n2.0,3.0,1\n")
        schema = infer_schema(path)
        assert schema.features == ("a", "b")
        assert schema.class_labels == ("0", "1")

    def test_nominal_column_detected(self, tmp_path):
        # and refused, naming the row and the column of its first cell
        path = tmp_path / "d.csv"
        for text, where in [("1.0,red,0\n2.0,blue,1\n", "row 1, column 'f1'"),
                            ("a,b,label\n1.0,2.0,0\n\n2.0,blue,1\n", "row 4, column 'b'")]:
            path.write_text(text)
            with pytest.raises(DataError, match=f"{where}: not a number"):
                infer_schema(path)

    def test_label_count_checked(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,0\n2.0,0\n")
        with pytest.raises(DataError, match="2 class labels"):
            infer_schema(path)

    def test_inconsistent_columns_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(DataError, match="inconsistent"):
            infer_schema(path)


def test_pidd_schema_shape():
    schema = pidd_schema()
    assert schema.arity == 8
    assert schema.class_labels == ("0", "1")
    assert schema.features[0] == "Pregnancies"
