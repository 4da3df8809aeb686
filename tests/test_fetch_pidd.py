"""``scripts/fetch_pidd.py --from-file``, offline: it installs a table only
when ``load_csv`` with the PIDD schema reads it as the expected one."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from ecoamlp.data import load_csv, pidd_schema

from conftest import load_module

pidd_table = load_module("perfbench/pidd_table.py")


@pytest.fixture()
def fetch_pidd(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    return load_module("scripts/fetch_pidd.py")


@pytest.fixture()
def source(tmp_path):
    """A 768-row PIDD-shaped table, 500 negative and 268 positive."""
    path = tmp_path / "source.csv"
    pidd_table.write_csv(path, *pidd_table.generate(768, 0))
    return path


def assert_same_table(a, b):
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_installs_a_table_that_reloads_equal(fetch_pidd, source, tmp_path, capsys):
    out = tmp_path / "data" / "pidd.csv"
    assert fetch_pidd.main(["--from-file", str(source), "--output", str(out)]) == 0
    assert out.read_text().splitlines()[0] == ",".join(fetch_pidd.HEADER)
    assert_same_table(load_csv(out, pidd_schema()), load_csv(source, pidd_schema()))
    assert f"wrote {out}" in capsys.readouterr().out


def test_a_nan_cell_installs_nothing(fetch_pidd, source, tmp_path):
    lines = source.read_text().splitlines()
    cells = lines[6].split(",")
    cells[1] = "nan"  # Glucose
    lines[6] = ",".join(cells)
    source.write_text("\n".join(lines) + "\n")
    out = tmp_path / "pidd.csv"
    with pytest.raises(SystemExit) as exc:
        fetch_pidd.main(["--from-file", str(source), "--output", str(out)])
    assert str(exc.value) == f"{source}: row 7, column 'Glucose': non-finite value 'nan'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["source.csv"]


def test_label_aliases_read_as_one_and_zero(fetch_pidd, source, tmp_path):
    aliases = {"1": "tested_positive", "0": "tested_negative"}
    lines = source.read_text().splitlines()[1:]  # and no header
    aliased = tmp_path / "aliased.csv"
    aliased.write_text("".join(f"{line[:-1]}{aliases[line[-1]]}\n" for line in lines))
    out = tmp_path / "pidd.csv"
    assert fetch_pidd.main(["--from-file", str(aliased), "--output", str(out)]) == 0
    assert_same_table(load_csv(out, pidd_schema()), load_csv(source, pidd_schema()))


def test_a_byte_order_mark_is_not_part_of_the_first_row(fetch_pidd, source, tmp_path):
    lines = source.read_text().splitlines(keepends=True)[1:]  # no header to absorb it
    marked = tmp_path / "marked.csv"
    marked.write_text("\ufeff" + "".join(lines), encoding="utf-8")
    out = tmp_path / "pidd.csv"
    assert fetch_pidd.main(["--from-file", str(marked), "--output", str(out)]) == 0
    assert_same_table(load_csv(out, pidd_schema()), load_csv(source, pidd_schema()))


def test_an_abbreviated_flag_is_refused(fetch_pidd, source, tmp_path):
    # --from is a prefix of --from-file, not a flag
    with pytest.raises(SystemExit) as exc:
        fetch_pidd.main(["--from", str(source), "--output", str(tmp_path / "pidd.csv")])
    assert exc.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["source.csv"]
