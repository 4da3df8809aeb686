"""Seeded stand-in for the Pima Indians diabetes table (PIDD).

The real table is not redistributed with this repository, so the
benchmark draws a table of the same shape: 8 numeric columns in PIDD's
order and units, a 0/1 outcome with PIDD's 500/268 class ratio, and
zero-coded "missing" cells in Glucose, BloodPressure, SkinThickness,
Insulin and BMI at PIDD's rates. Per-class location and spread follow
the published summary statistics of the real table. The parameters were
fixed before any accuracy on the generated table was looked at; do not
tune them to move a result.
"""

from __future__ import annotations

import numpy as np

COLUMNS = (
    "Pregnancies",
    "Glucose",
    "BloodPressure",
    "SkinThickness",
    "Insulin",
    "BMI",
    "DiabetesPedigreeFunction",
    "Age",
)
LABEL_COLUMN = "Outcome"

PIDD_ROWS = 768
PIDD_POSITIVES = 268

# share of rows whose cell is coded 0 for "not measured", as in PIDD
MISSING_RATE = {
    "Glucose": 5 / 768,
    "BloodPressure": 35 / 768,
    "SkinThickness": 227 / 768,
    "Insulin": 374 / 768,
    "BMI": 11 / 768,
}

# decimals each column is written with
DECIMALS = {"BMI": 1, "DiabetesPedigreeFunction": 3}


def generate(n_rows: int = PIDD_ROWS, seed: int = 0):
    """Feature matrix (n_rows x 8, float64) and int64 labels, shuffled.

    The class sizes keep PIDD's ratio: 500/268 at 768 rows, 2000/1072 at
    3072. Equal ``n_rows`` and ``seed`` give identical tables.
    """
    if n_rows < 2:
        raise ValueError(f"need at least 2 rows, got {n_rows}")
    rng = np.random.default_rng(seed)
    n_pos = int(np.floor(n_rows * PIDD_POSITIVES / PIDD_ROWS + 0.5))
    labels = np.zeros(n_rows, dtype=np.int64)
    labels[n_rows - n_pos:] = 1
    labels = labels[rng.permutation(n_rows)]
    pos = labels == 1

    def per_class(neg_value, pos_value):
        return np.where(pos, pos_value, neg_value)

    def normal(neg_mean, pos_mean, sd, lo, hi):
        return np.clip(rng.normal(per_class(neg_mean, pos_mean), sd), lo, hi)

    def lognormal(neg_median, pos_median, sigma, lo, hi):
        mu = np.log(per_class(neg_median, pos_median))
        return np.clip(rng.lognormal(mu, sigma), lo, hi)

    columns = {
        "Pregnancies": np.minimum(rng.poisson(per_class(3.3, 4.9)), 17).astype(np.float64),
        "Glucose": normal(110.0, 141.0, 28.0, 44.0, 199.0),
        "BloodPressure": normal(70.9, 75.3, 12.0, 24.0, 122.0),
        "SkinThickness": normal(27.2, 33.0, 10.0, 7.0, 99.0),
        "Insulin": lognormal(105.0, 170.0, 0.6, 14.0, 846.0),
        "BMI": normal(31.0, 35.4, 6.6, 18.2, 67.1),
        "DiabetesPedigreeFunction": lognormal(0.34, 0.45, 0.55, 0.078, 2.42),
        "Age": np.minimum(21.0 + rng.gamma(per_class(1.2, 2.5), per_class(8.5, 6.4)), 81.0),
    }
    for name, values in columns.items():
        values[:] = np.round(values, DECIMALS.get(name, 0))
    for name, rate in MISSING_RATE.items():
        columns[name][rng.random(n_rows) < rate] = 0.0
    return np.column_stack([columns[name] for name in COLUMNS]), labels


def write_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    """PIDD-style CSV: header line, then one row per instance."""
    formats = [f"{{:.{DECIMALS.get(name, 0)}f}}" for name in COLUMNS]
    lines = [",".join(COLUMNS + (LABEL_COLUMN,))]
    for row, label in zip(features.tolist(), labels.tolist()):
        lines.append(",".join([fmt.format(v) for fmt, v in zip(formats, row)] + [str(label)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
