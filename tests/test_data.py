"""Dataset construction, numeric CSV ingestion, and splits."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ecoamlp.baselines import stratified_sample
from ecoamlp.data import (
    Dataset,
    DataSplit,
    Schema,
    SplitSpec,
    largest_remainder_allocation,
    load_csv,
    pidd_schema,
    round_half_up,
    split,
)
from ecoamlp.errors import ConfigError, DataError

from conftest import load_module
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


class TestDataset:
    def test_row_and_instance_lookup(self):
        ds = small_dataset()
        assert oracles.row_of(ds, 12) == 2
        inst = oracles.instance(ds, 12)
        assert (inst.features.tolist(), inst.label, inst.id) == ([2.0, 2.0], 1, 12)
        with pytest.raises(DataError):
            oracles.row_of(ds, 99)

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


@st.composite
def shuffled_datasets(draw):
    """Datasets whose ids are neither contiguous nor in row order; row r
    holds features (r, -r), so a row moved without its id shows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(np.unique(rng.integers(-2**40, 2**40, size=draw(st.integers(0, 60)))))
    n = ids.shape[0]
    labels = (rng.random(n) < draw(st.floats(0.0, 1.0))).astype(np.int64)
    features = np.stack([np.arange(n), -np.arange(n)], axis=1).astype(float)
    return Dataset(numeric_schema(2), features, labels, ids)


def outcome(select, *args):
    """Each returned subset as (ids, labels, features) lists, or the type
    of the error raised."""
    try:
        result = select(*args)
    except (ConfigError, DataError) as exc:
        return type(exc)
    subsets = ([result.train, result.validation, result.test]
               if isinstance(result, DataSplit) else [result])
    return [(d.ids.tolist(), d.labels.tolist(), d.features.tolist()) for d in subsets]


ROW_SELECTION = settings(derandomize=True, database=None, deadline=None, max_examples=100)


class TestRowSelectionMatchesReference:
    """Index-array selection against the id-set references in ``oracles``."""

    @ROW_SELECTION
    @given(ds=shuffled_datasets(), v=st.floats(0.01, 0.45), t=st.floats(0.01, 0.45),
           seed=st.integers(0, 2**64 - 1), stratified=st.booleans())
    def test_split(self, ds, v, t, seed, stratified):
        spec = SplitSpec(1.0 - v - t, v, t, seed, stratified)
        got = outcome(split, ds, spec)
        assert got == outcome(oracles.split, ds, spec)
        if isinstance(got, type):
            return
        n = len(ds)
        sizes = [len(ids) for ids, _, _ in got]
        assert sizes[1:] == [round_half_up(v * n), round_half_up(t * n)]
        assert sorted(i for ids, _, _ in got for i in ids) == sorted(ds.ids.tolist())
        row = {i: r for r, i in enumerate(ds.ids.tolist())}
        for ids, labels, _ in got:
            assert [row[i] for i in ids] == sorted(row[i] for i in ids)
            if stratified:
                for c, n_c in enumerate(ds.class_counts()):
                    assert abs(labels.count(c) - n_c / n * len(ids)) <= 1.0 + 1e-9

    @ROW_SELECTION
    @given(ds=shuffled_datasets(), data=st.data())
    def test_drop_ids(self, ds, data):
        known = ds.ids.tolist()
        drop = data.draw(st.lists(st.sampled_from(known), max_size=len(known))) if known else []
        if data.draw(st.booleans()):
            drop.append(max(known, default=0) + 1)
        got = outcome(ds.drop_ids, drop)
        assert got == outcome(oracles.drop_ids, ds, drop)
        if not isinstance(got, type):
            ((ids, _, _),) = got
            assert ids == [i for i in known if i not in drop]

    @ROW_SELECTION
    @given(ds=shuffled_datasets(), fraction=st.floats(0.01, 1.0),
           seed=st.integers(0, 2**64 - 1))
    def test_stratified_sample(self, ds, fraction, seed):
        got = outcome(stratified_sample, ds, fraction, seed)
        assert got == outcome(oracles.stratified_sample, ds, fraction, seed)
        if not isinstance(got, type):
            ((ids, labels, _),) = got
            n, m = len(ds), len(ids)
            assert m == round_half_up(fraction * n) and len(set(ids)) == m
            for c, n_c in enumerate(ds.class_counts()):
                assert abs(labels.count(c) - n_c / n * m) <= 1.0 + 1e-9


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
        path.write_text("1.0,2.0,0\n1.0,,0\n")
        with pytest.raises(DataError, match="row 2, column 'f1': blank cell"):
            load_csv(path, numeric_schema(2))

    @pytest.mark.parametrize("schema", [numeric_schema(2), None], ids=["numeric", "infer"])
    def test_blank_first_row_cell_is_not_a_header(self, tmp_path, schema):
        path = tmp_path / "d.csv"
        path.write_text("1.0,,0\n1.0,2.0,0\n3.0,4.0,1\n")
        with pytest.raises(DataError, match="row 1, column 'f1': blank cell"):
            load_csv(path, schema)

    @pytest.mark.parametrize("schema", [pidd_schema(), None], ids=["pidd", "infer"])
    def test_byte_order_mark_is_not_part_of_the_first_cell(self, tmp_path, schema):
        # a first cell read as "\ufeff1" is no number, and its row no data
        path = tmp_path / "d.csv"
        rows = [[1, 2, 3, 4, 5, 6, 7, 8, 0], [8, 7, 6, 5, 4, 3, 2, 1, 1], [2] * 8 + [0]]
        path.write_text("\ufeff" + "".join(",".join(map(str, r)) + "\n" for r in rows),
                        encoding="utf-8")
        loaded = load_csv(path, schema)
        assert loaded.features.tolist() == [r[:-1] for r in rows]
        assert loaded.labels.tolist() == [0, 1, 0]

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n1.0,nan,0\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, numeric_schema(2))

    def test_lone_malformed_row_reads_as_header(self, tmp_path):
        # a lone row counts as a header, so it leaves nothing to load
        path = tmp_path / "d.csv"
        path.write_text("1.0,oops,0\n")
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(path, numeric_schema(2))

    def test_categorical_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,colour,label\n1.5,red,0\n2.5,blue,1\n")
        with pytest.raises(DataError, match="row 2, column 'colour': not a number: 'red'"):
            load_csv(path, Schema(("x", "colour"), ("0", "1")))

    @pytest.mark.parametrize("schema", [numeric_schema(8), pidd_schema()],
                             ids=["numeric", "pidd"])
    @pytest.mark.parametrize("first,message", [
        ("1,2,3,4,5,6,7,8,maybe", "row 1, column 'label': unknown class label 'maybe'"),
        ("1,2,3,4,5,6,7,8", "row 1 has 8 columns, expected 9"),
    ], ids=["unknown-label", "short"])
    def test_numeric_first_row_is_never_a_header(self, tmp_path, schema, first, message):
        path = tmp_path / "d.csv"
        path.write_text(f"{first}\n1,2,3,4,5,6,7,8,0\n8,7,6,5,4,3,2,1,1\n")
        with pytest.raises(DataError, match=message):
            load_csv(path, schema)


pidd_table = load_module("perfbench/pidd_table.py")

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1e308, -1e308, 1.7976931348623157e308)
"""Signed zeros, subnormals and the largest magnitudes, which a CSV cell
must carry bit for bit."""


@st.composite
def synth_tables(draw):
    """A finite float64 table with both class labels, its column names, and
    whether it is written with a header. Without one it has at least two
    rows, since a lone row is a header."""
    header = draw(st.booleans())
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 12))
    cells = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    features = np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                                      min_size=n, max_size=n)), dtype=np.float64)
    labels = np.array([0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2,
                                              max_size=n - 2)))
    labels = labels[draw(st.permutations(range(n)))]
    names = (draw(st.lists(st.from_regex(r"x[a-z0-9_]{0,6}", fullmatch=True),
                           min_size=d, max_size=d, unique=True))
             if header else [f"f{i}" for i in range(d)])
    return Dataset(Schema(tuple(names), ("0", "1")), features, labels, np.arange(n)), header


class TestCsvRoundTrip:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(synth_tables())
    def test_synth_write_csv_loads_bit_equal(self, case):
        ds, header = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_csv(path, ds, header=header)
            loaded = load_csv(path)
        # compared as bytes: the sign of zero and every subnormal bit included
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert loaded.labels.tolist() == ds.labels.tolist()
        assert loaded.schema.features == ds.schema.features

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(st.integers(2, 80), st.integers(0, 2**32 - 1))
    def test_pidd_table_write_csv_loads_rounded(self, n_rows, seed):
        features, labels = pidd_table.generate(n_rows, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pidd.csv"
            pidd_table.write_csv(path, features, labels)
            loaded = load_csv(path, pidd_schema())
        want = np.column_stack([np.round(features[:, j], pidd_table.DECIMALS.get(name, 0))
                                for j, name in enumerate(pidd_table.COLUMNS)])
        assert loaded.features.tobytes() == want.tobytes()
        assert loaded.labels.tolist() == labels.tolist()


class TestInferSchema:
    def test_numeric_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n2.0,3.0,1\n")
        loaded = load_csv(path)
        assert loaded.schema.features == ("a", "b")
        assert loaded.schema.class_labels == ("0", "1")
        assert loaded.features.tolist() == [[1.0, 2.0], [2.0, 3.0]]
        assert loaded.labels.tolist() == [0, 1]

    def test_byte_order_mark_is_not_part_of_a_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\ufeffa,b,label\n1.0,2.0,0\n2.0,3.0,1\n", encoding="utf-8")
        assert load_csv(path).schema.features == ("a", "b")

    @pytest.mark.parametrize("header,problem", [
        ("a,a,label", "column 2: repeated feature name 'a'"),
        ("a, ,label", "column 2: blank feature name"),
    ], ids=["repeated", "blank"])
    def test_bad_header_name_is_a_data_error(self, tmp_path, header, problem):
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n1.0,2.0,0\n2.0,3.0,1\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: row 1, {problem}"

    def test_nominal_column_detected(self, tmp_path):
        # and refused, naming the row and the column of its first cell
        path = tmp_path / "d.csv"
        for text, where in [("1.0,red,0\n2.0,blue,1\n", "row 1, column 'f1'"),
                            ("a,b,label\n1.0,2.0,0\n\n2.0,blue,1\n", "row 4, column 'b'")]:
            path.write_text(text)
            with pytest.raises(DataError, match=f"{where}: not a number"):
                load_csv(path)

    def test_label_count_checked(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,0\n2.0,0\n")
        with pytest.raises(DataError, match="2 class labels"):
            load_csv(path)

    def test_inconsistent_columns_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(DataError, match="row 2 has 2 columns, expected 3"):
            load_csv(path)


def test_pidd_schema_shape():
    schema = pidd_schema()
    assert schema.arity == 8
    assert schema.class_labels == ("0", "1")
    assert schema.features[0] == "Pregnancies"
