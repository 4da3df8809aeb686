"""Golden trace: SHA-256 digests of seeded outputs, pinned bit for bit.

Each digest covers the exact bytes of a float64 array or the JSON text
(``repr`` floats, sorted keys) of a seeded result. A refactor or speedup
that claims to keep behaviour must keep every digest; a change that moves
numerics has to say so and justify new digests, never silently re-record
them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ecoamlp.automlp import AutoMlpParams, fit_automlp
from ecoamlp.baselines import Preprocessor
from ecoamlp.class_outlier import OutlierParams, codb_detect, ecodb_detect
from ecoamlp.data import SplitSpec, split
from ecoamlp.distance import Measure, cross_distances, pairwise_distances
from ecoamlp.harness import ClassifierConfig, ExperimentConfig, run_experiment

from synth import random_dataset


def _json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _array_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# (winner weights, winner slot and history). Training sums with numpy
# reductions, not BLAS (mlp.train_epochs); that choice moved these winners'
# weights by at most 9e-16 and left their histories as they were. The
# 20-seed comparison behind the re-pin is in CHANGES.md.
AUTOMLP_GOLDEN = {
    0: ("1c70617af2534429a1d5b4b776fc57f17b4035fa102bad1e8aa2a46e4de064ab",
        "423044a1eb959cfbcc338d09a525a9df3d7aa299deda86ac02e6dd6d894e9897"),
    1: ("6e7fc5b93e1fbaa0d2710cc45054677caef923809a83b545f9f81f27d4a65e4b",
        "818f270ce96afae31f3fbb2b5faffa092df70fccd9bcf1e7306c1f8fa5ed931b"),
    7: ("7acc52f91470a5d26fcde613d03debd5b3f70fb920f99fe665fe31f6f0fcdc24",
        "8a9f6ad2f57fc07927cea0895ab9f1f8a89ad8df7e11833dc4e021b8308e26d8"),
}


@pytest.mark.parametrize("seed", sorted(AUTOMLP_GOLDEN))
def test_automlp_winner_and_history(seed):
    train = random_dataset(90, 4, seed=10 + seed, separation=1.5, positive_fraction=0.35)
    validation = random_dataset(30, 4, seed=20 + seed, separation=1.5, positive_fraction=0.35)
    params = AutoMlpParams(ensemble_size=4, cycles_per_generation=3, generations=3,
                           hidden_range=(2, 16), lr_range=(0.01, 1.0), seed=seed)
    run = fit_automlp(train, validation, params)
    got = (_array_digest(run.winner.w_ih, run.winner.w_ho),
           _json_digest({"slot": run.winner_slot, "history": run.history_json_obj()}))
    assert got == AUTOMLP_GOLDEN[seed]


OUTLIER_GOLDEN = {
    ("codb", "correlation"): "5a16c27bf28fbe6cd6f5d4c333cdbe048f7cdc9311728231f8a6631d3830c304",
    ("codb", "euclidean"): "aa832e7114868779dbf650e1eb33407375740b9eeda8f7760138e9df753e0b07",
    ("ecodb", "correlation"): "bd28cce185e915b74636743cb084e9a432826132fcfd8f81938ba6955e26b465",
    ("ecodb", "euclidean"): "fc3b5e6e11379c30ea711308ec535173262bc963e668bd56f23002d9f26b40f2",
}


@pytest.mark.parametrize("algorithm,measure", sorted(OUTLIER_GOLDEN))
def test_outlier_ranking(algorithm, measure):
    ds = random_dataset(80, 5, seed=4, separation=1.0)
    detect = ecodb_detect if algorithm == "ecodb" else codb_detect
    report = detect(ds, OutlierParams(k=6, n_outliers=12, measure=Measure.parse(measure),
                                      alpha=10.0, beta=0.5))
    assert _json_digest(report.to_json_obj()) == OUTLIER_GOLDEN[(algorithm, measure)]


def _random_table(rows, d, seed):
    """Columns on scales from 1e-2 to 1e3, one duplicated and one constant row."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, d)) * 10.0 ** rng.uniform(-2, 3, size=d)
    X[1] = X[0]
    X[2] = 1.5
    return X


# Correlation matrices: each feature count takes another branch of the
# dot products' summation (d < 8, 8 <= d <= 128 and d > 128).
MATRIX_GOLDEN = {
    ("cross", 5): "71838cdad51ade44d580aef957836678d959b69453e363c8e61c7e20a1b9b394",
    ("cross", 8): "fcb1e30b00b29b9a454cd296c5a5bf59675f4fd65d50692b120490895a58da70",
    ("cross", 13): "b0c244cc5ce4e0698f083a126422aba66d06f87177bfaa6f6b759170cdbd2b7c",
    ("cross", 130): "b6e488dee32e0cb6ba8974dd05fe7a8a33630c25cc96690cb02b3e8ae5e2d2cf",
    ("pairwise", 5): "91fb809b23c104848a8907b8db6b03402a61351ffeefc000a9277956b7eb8506",
    ("pairwise", 8): "653e7436792ccd16189934993965eedb99b3483f0aa3f7d71d081a05289a94bc",
    ("pairwise", 13): "a92c387472720b53385cc32263c55714f0969d6f1e76a75dd11e235a48b68d34",
    ("pairwise", 130): "5183fef0e7ebefc1d5588ea7cec5915d68e7b20e01c143fac7de6c44a26dfc27",
}


@pytest.mark.parametrize("kind,d", sorted(MATRIX_GOLDEN))
def test_correlation_matrix(kind, d):
    X = _random_table(70, d, seed=d)
    if kind == "cross":
        Q = _random_table(31, d, seed=100 + d)
        Q[3] = X[5]
        D = cross_distances(Q, X, Measure.CORRELATION)
    else:
        D = pairwise_distances(X, Measure.CORRELATION)
    assert _array_digest(D) == MATRIX_GOLDEN[(kind, d)]


PIDD_MATRIX_GOLDEN = "8ac55a8210852e6034ee5784b3a1e313f2f2ebf23e249d3df827ba3abdaa1b8d"


def test_correlation_matrix_on_pidd_shaped_rows():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "pidd_table.py"
    spec = importlib.util.spec_from_file_location("pidd_table", path)
    pidd_table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pidd_table)
    features, _ = pidd_table.generate(768, 0)
    D = pairwise_distances(features[:538], Measure.CORRELATION)
    assert _array_digest(D) == PIDD_MATRIX_GOLDEN


SPLIT_GOLDEN = {
    (0, False): "0960dc192c9b853834786e31c3e609bc991ee219ba5badd9075ba2a2ef6d8551",
    (0, True): "569e1525ae894b2e9eba1bb9d46a8f235880bbf8a1f04c04c45810409599181e",
    (41, False): "978884c52c5d4e3ee62771d960ab747600e09d14fe2e2c8b031eb7537008d5d2",
    (41, True): "cfc8685177ebce85156b8d64654d524841055dd26ab1ed2363877cee1addef18",
}


@pytest.mark.parametrize("seed,stratified", sorted(SPLIT_GOLDEN))
def test_split_ids(seed, stratified):
    ds = random_dataset(101, 2, seed=6, positive_fraction=0.3)
    parts = split(ds, SplitSpec(train_fraction=0.6, validation_fraction=0.25,
                                test_fraction=0.15, seed=seed, stratified=stratified))
    ids = [part.ids.tolist() for part in (parts.train, parts.validation, parts.test)]
    assert _json_digest(ids) == SPLIT_GOLDEN[(seed, stratified)]


RUN_GOLDEN = {
    ("bootstrap", "automlp"): "3e22a2ff9d844995a62f356a5c908c97e2be0223aa2c96b58b9044b98f760a28",
    ("bootstrap", "knn"): "d65bb8928cec239a74686d9e4ff3ce3ebb36b85fad8503aceb0b8062df08b6a3",
    ("bootstrap", "nb"): "5dfd6c53165f617a39cb8c6c7d999f5fcbd4608594a6d78fad4359c833539287",
    ("ecodb", "automlp"): "0792e557f887d3c019101fabf3306638bec3783e15dc3c4e429edf4a07999bbf",
    ("ecodb", "knn"): "f281294761e05bc28a403e84f1200c9dcebc45fd6b6f67c6b49f3debc5ea5ade",
    ("ecodb", "nb"): "20f566503fd57c964401851d71ccad92a2a2522de02291156b30233180b6dfa1",
    ("none", "automlp"): "a6d2d8f69a2bea42148540739db995af665cae7593548da9406c3860635a4d80",
    ("none", "knn"): "efc0ee11d7d4274be46aeeea1032b3e4e91f274e47b93855933539bdf39db006",
    ("none", "nb"): "496fc04c1ec57501b5e47d658f9c10840b8941fd3af947045112e2efd8276103",
    ("stratified", "automlp"): "a845f8b439d1e4c03c69ddc99531c55fbd0697af982982e423319d13cc9bcc06",
    ("stratified", "knn"): "fe899036412f03df3e79abc416a6986ba13ded23512a3b0d1679985badf48834",
    ("stratified", "nb"): "8e8d19f2db76a06e6311c156844b1503ad6382c02e5dd927298a4562c930df7f",
    ("ztransform", "automlp"): "325ecfec05c64af4212b2b5b50e2d62f33f99fbead9903e604b4c5291a5113b9",
    ("ztransform", "knn"): "bd30aca32f6b0f9ef216cc3efaafa29448d7142392a2dd5410a2f2e69850df64",
    ("ztransform", "nb"): "015fe7df396882665a470045334fe38b9bb469d151643b3935c78b1fe2f17c8d",
}


@pytest.fixture(scope="module")
def run_dataset():
    return random_dataset(140, 4, seed=8, separation=1.2, positive_fraction=0.35)


@pytest.mark.parametrize("preprocessor,classifier", sorted(RUN_GOLDEN))
def test_run_report(run_dataset, preprocessor, classifier):
    config = ExperimentConfig(
        split=SplitSpec(seed=3),
        preprocessor=Preprocessor(kind=preprocessor, seed=2,
                                  outlier=OutlierParams(k=5, n_outliers=6,
                                                        measure=Measure.EUCLIDEAN)),
        classifier=ClassifierConfig(
            kind=classifier, knn_k=3,
            automlp=AutoMlpParams(ensemble_size=2, cycles_per_generation=2, generations=2,
                                  hidden_range=(2, 6), lr_range=(0.01, 0.5), seed=1)),
        repeats=2,
    )
    report = run_experiment(config, dataset=run_dataset)
    obj = report.to_json_obj(include_timestamp=False)
    assert _json_digest(obj) == RUN_GOLDEN[(preprocessor, classifier)]
