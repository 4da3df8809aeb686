"""Golden trace: SHA-256 digests of seeded outputs, pinned bit for bit.

Each digest covers the exact bytes of a float64 array, the JSON text
(``repr`` floats, sorted keys) of a seeded result, or the text of a
report. A refactor or speedup that claims to keep behaviour must keep
every digest; a change that moves numerics has to say so and justify new
digests, never silently re-record them.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from ecoamlp.automlp import AutoMlpParams, fit_automlp
from ecoamlp.class_outlier import OutlierParams, codb_detect, ecodb_detect
from ecoamlp.data import SplitSpec, split
from ecoamlp.distance import Measure, cross_distances, pairwise_distances
from ecoamlp.harness import (ClassifierConfig, ExperimentConfig, Preprocessor, json_obj,
                             run_experiment, run_sweep)

from conftest import load_module
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
           _json_digest({"slot": run.winner_slot, "history": json_obj(run.history)}))
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
    features, _ = load_module("perfbench/pidd_table.py").generate(768, 0)
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
    parts = split(ds, SplitSpec(train=0.6, validation=0.25,
                                test=0.15, seed=seed, stratified=stratified))
    ids = [part.ids.tolist() for part in (parts.train, parts.validation, parts.test)]
    assert _json_digest(ids) == SPLIT_GOLDEN[(seed, stratified)]


# Reports carry their config, whose unset preprocessor.fraction is null.
# Each digest without the config key is the same as when the config held
# the sampler's default there (CHANGES.md lists both).
RUN_GOLDEN = {
    ("bootstrap", "automlp"): "45767c8de564a3400746febdabed3ac83278409e8e764b0c0dfb088846af79ee",
    ("bootstrap", "knn"): "6dd9963ba76fa52306737e62226ac06f8fbfd6d86e05e908b4cac735dc5b8039",
    ("bootstrap", "nb"): "cd31d983a41b01f0f411cf7d1888d0806c78c72b2e27a63343d8c91dca90d689",
    ("ecodb", "automlp"): "21954b6632adf1e48db098eb832d6edd2ddc56d02e3a2db5fdf729684e6e2ea4",
    ("ecodb", "knn"): "c21a427f1c9807323013dfa33330450e0b203f8139d37e8034e8c1a70ff18af0",
    ("ecodb", "nb"): "c70d9fb049c5607caa6ff46ce49f9ed8d1b0ff58a06a24a2f1064fdfe5ce4462",
    ("none", "automlp"): "0893670daee8e1ca12f75275078e4fcae74c4cb2b91a72ad0c636b0186e7fde5",
    ("none", "knn"): "8c970b4d736c4ebe183767cb0c6d7eb6b045e6451bf720d600167bcda03e48bb",
    ("none", "nb"): "8df6becd060e3d712e23dc9862ffaf2eb1a77396e74df193b149df2026864eaa",
    ("stratified", "automlp"): "93d9ed44b6921929e01360d19ed765777b090cae57943dc78ce6775488e629d0",
    ("stratified", "knn"): "0b4fd213c28a93142ce8be8fb101d8ebc359cd3d46053cb55b6610e2f0f9d55d",
    ("stratified", "nb"): "aec05671498a267a3b1a2bbbfd9262784de9f80cb321024e0db4eaa8ce945e6d",
    ("ztransform", "automlp"): "c19c8c955ca2ac3686c28059921bc87fe0bda67867e438b9831d2ed6c6c74786",
    ("ztransform", "knn"): "abf7013990fdf06b801bcce1f725cc975b441e4b6090e7e988c1a343f58513e7",
    ("ztransform", "nb"): "ac5c027a276f34b8423230fb5aa146f2d62d02994b73ce1f142c48cd6a59f079",
}


@pytest.fixture(scope="module")
def run_dataset():
    return random_dataset(140, 4, seed=8, separation=1.2, positive_fraction=0.35)


def _run_config(preprocessor: str, classifier: str, knn_k: int = 3) -> ExperimentConfig:
    return ExperimentConfig(
        split=SplitSpec(seed=3),
        preprocessor=Preprocessor(kind=preprocessor, seed=2,
                                  outlier=OutlierParams(k=5, n_outliers=6,
                                                        measure=Measure.EUCLIDEAN)),
        classifier=ClassifierConfig(
            kind=classifier, knn_k=knn_k,
            automlp=AutoMlpParams(ensemble_size=2, cycles_per_generation=2, generations=2,
                                  hidden_range=(2, 6), lr_range=(0.01, 0.5), seed=1)),
        repeats=2,
    )


@pytest.mark.parametrize("preprocessor,classifier", sorted(RUN_GOLDEN))
def test_run_report(run_dataset, preprocessor, classifier):
    report = run_experiment(_run_config(preprocessor, classifier), dataset=run_dataset)
    obj = report.to_json_obj(include_timestamp=False)
    assert _json_digest(obj) == RUN_GOLDEN[(preprocessor, classifier)]


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# The text reports, pinned apart from the JSON they are printed from. No
# AutoMLP run, so no digest depends on BLAS. The "starred" run predicts
# class 0 for every row, so its precision_pos is a 0/0 cell.
RUN_TEXT_GOLDEN = {
    ("ecodb", "knn"): "baf813051b024521fe537c97e2f888f9c98237e854926ab3d253b3ba95332622",
    ("none", "nb"): "41e0e6efbb9995941388b7bcc49c23c942b3762801796f5485ee4745b0451f73",
    ("starred", "knn"): "01d42a90a23868f0e112d105d70b6b0e8742ed42aa5103d4e5b16818ad6b4698",
    ("ztransform", "knn"): "b475398b4949df6ef8c7891d556c16d10690c9e98aaa125543b8a1a602e1edc4",
}


@pytest.mark.parametrize("preprocessor,classifier", sorted(RUN_TEXT_GOLDEN))
def test_run_text(run_dataset, preprocessor, classifier):
    if preprocessor == "starred":
        dataset = random_dataset(140, 4, seed=8, separation=0.3, positive_fraction=0.15)
        config = _run_config("none", classifier, knn_k=21)
    else:
        dataset, config = run_dataset, _run_config(preprocessor, classifier)
    text = run_experiment(config, dataset=dataset).to_text()
    lines = text.splitlines(keepends=True)
    assert lines[1].startswith("created ")
    text = "".join(lines[:1] + lines[2:])
    assert _text_digest(text) == RUN_TEXT_GOLDEN[(preprocessor, classifier)]


SWEEP_TEXT_GOLDEN = "6640c27d413bb31703a841241e8ab24ee749845446629f8d2f95813512c4fe0f"


def test_sweep_text(run_dataset):
    sweep = run_sweep(_run_config("none", "nb"), "preprocessor", ["none", "ztransform", "ecodb"],
                      dataset=run_dataset)
    text = sweep.to_text()
    assert "reference expectation (not met" in text
    assert _text_digest(text) == SWEEP_TEXT_GOLDEN
