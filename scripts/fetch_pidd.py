#!/usr/bin/env python3
"""Fetch the Pima Indians diabetes table used by the benchmark tests.

The file is not redistributed with this repository. Run this script on a
machine with network access (or hand it an already-downloaded copy with
--from-file); it validates the table with the reader the tests use,
``ecoamlp.data.load_csv`` with the PIDD schema, and writes the canonical
CSV to data/pima_indians_diabetes.csv, where the test suite looks for it.
Nothing is written when validation fails. Point the ECOAMLP_PIDD
environment variable somewhere else to override.

Expected table: 768 rows, 8 numeric feature columns, a 0/1 outcome label
(``tested_positive`` and ``tested_negative`` are read as 1 and 0), 500
negative and 268 positive instances.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ecoamlp.data import PIDD_FEATURES, Dataset, load_csv, pidd_schema  # noqa: E402
from ecoamlp.errors import DataError  # noqa: E402
from ecoamlp.harness import write_atomic  # noqa: E402

SOURCES = (
    "https://raw.githubusercontent.com/jbrownlee/Datasets/master/pima-indians-diabetes.data.csv",
    "https://raw.githubusercontent.com/plotly/datasets/master/diabetes.csv",
)

HEADER = (*PIDD_FEATURES, "Outcome")

LABEL_ALIASES = {"tested_positive": "1", "tested_negative": "0"}

DEFAULT_OUTPUT = ROOT / "data" / "pima_indians_diabetes.csv"


def load_table(text: str, origin: str) -> Dataset:
    """``text`` read by ``load_csv`` with the PIDD schema, after mapping the
    label aliases; SystemExit naming ``origin`` unless it is valid and has
    768 rows, 500 negative and 268 positive."""
    rows = [[*row[:-1], LABEL_ALIASES.get(row[-1].strip(), row[-1])] if row else row
            for row in csv.reader(io.StringIO(text))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pidd.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)  # blank lines kept, so row numbers match
        try:
            dataset = load_csv(path, pidd_schema())
        except DataError as exc:
            raise SystemExit(str(exc).replace(str(path), origin)) from None
    if len(dataset) != 768:
        raise SystemExit(f"{origin}: expected 768 rows, found {len(dataset)}")
    negatives, positives = dataset.class_counts()
    if (negatives, positives) != (500, 268):
        raise SystemExit(
            f"{origin}: expected class counts 500 negative / 268 positive, "
            f"found {negatives} / {positives}"
        )
    return dataset


def csv_text(dataset: Dataset) -> str:
    """The table as CSV under ``HEADER``, each value as ``repr`` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows([*row, label] for row, label in
                     zip(dataset.features.tolist(), dataset.labels.tolist()))
    return buf.getvalue()


def fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.read().decode("utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", help="download from this URL instead of the known mirrors")
    parser.add_argument("--from-file", metavar="PATH",
                        help="validate and install an already-downloaded copy")
    parser.add_argument("--output", metavar="PATH", default=str(DEFAULT_OUTPUT),
                        help=f"where to write the CSV (default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    if args.from_file:
        origin = args.from_file
        source = Path(args.from_file)
        if not source.exists():
            print(f"no such file: {source}", file=sys.stderr)
            return 1
        dataset = load_table(source.read_text(), origin)
    else:
        urls = [args.url] if args.url else list(SOURCES)
        dataset = None
        errors = []
        for url in urls:
            try:
                dataset = load_table(fetch(url), url)
                origin = url
                break
            except (urllib.error.URLError, OSError, SystemExit) as exc:
                errors.append(f"  {url}: {exc}")
        if dataset is None:
            print("could not fetch the table from any source:", file=sys.stderr)
            print("\n".join(errors), file=sys.stderr)
            print("download it manually and rerun with --from-file", file=sys.stderr)
            return 1

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, csv_text(dataset))
    print(f"wrote {out} (768 rows, 500 negative / 268 positive) from {origin}")
    print("the benchmark tests will now pick it up; run: pytest tests/test_acceptance.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
