"""Benchmark of the ecoamlp command line, end to end and layer by layer.

Run from the repository root, for example:

    python3 perfbench/run.py --workload pidd-ecodb-automlp --seed 1 --seconds 30 --trace 0

A round is one whole in-process ``ecoamlp.cli.main([...])`` call (two for
the sweep workload), the command a researcher runs. Rounds go one at a
time from this single process: a closed loop with one client and no
extra threads. Rounds repeat until the next one would overrun
``--seconds``. Output checks run between rounds, outside the timed
region. The confusion check needs each repeat's predictions, which the
reports do not carry, so ``harness.evaluate`` is wrapped in every round,
traced or not; the wrapper only appends its arguments to a list. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the two lines before it hold
the environment block and the run details.

Workloads. Each draws its table from ``pidd_table.py`` (a seeded
PIDD-shaped stand-in, because PIDD itself is not in the repository);
``--seed`` fixes the table and the CLI's split, preprocessor and AutoMLP
seeds. Every later optimisation has one workload that exercises it and
one that bypasses it (AutoMLP kernel, lockstep population and a
``--jobs`` pool; ECODB vectorisation; split and RNG).

* ``pidd-ecodb-automlp``: ``ecoamlp run`` on a 768x8 table with a 70/15/15
  split, ecodb (k=12, n=10, correlation) and AutoMLP with 4 members. The
  per-step code of ``mlp.train_epoch`` dominates it, as it dominates the
  paper's 10-repeat PIDD run, and two repeats per call let a pool over
  repeats show on two cores. The paper's config (4x10x10, 10 repeats)
  takes about 80 s per call on a 2-core host, too long for the benchmark's
  time budget, so a call runs 2 repeats of a 4-member, 4-cycle,
  5-generation search (about 4 s). The search code and the per-step kernel
  are the same; training stays over 90% of the call. A shorter call gives
  more rounds per run, and the median over more rounds is steadier on a
  host whose speed drifts over tens of seconds.
* ``pidd-baseline-sweep``: two ``ecoamlp sweep --axis preprocessor`` calls
  (``--classifier knn``, then ``--classifier nb``) over
  none,ztransform,bootstrap,stratified,ecodb with 10 repeats each. It runs
  no MLP, so AutoMLP changes must leave it unchanged. Its time is ECODB at
  n=538 (distance matrix 2.3 MB, fits in L2), then ``knn_predict``, then
  ``data.split``. Each sweep is 50 small repeats, so any per-repeat
  overhead that a pool adds shows here.
* ``pidd4x-detect-outliers``: ``ecoamlp detect-outliers --schema pidd`` on
  a 3072-row table from the same generator: the same ECODB code at 4x the
  rows, with a 75 MB distance matrix. A change that is fast at n=538 but
  costs memory or time at scale shows only here.

``pidd-ztransform-automlp`` (AutoMLP on z-transformed input) was dropped:
it runs the same per-step AutoMLP code as ``pidd-ecodb-automlp`` at the
same cost, so it measured no layer the other does not, and its run time
is better spent on longer runs. An earlier design was rejected as too
noisy: it timed 45 ms units and single AutoMLP repeats, whose cost varies
from seed to seed with the sampled hidden widths. Here every timing is a
whole CLI call, an AutoMLP call averages 2 searches, and each metric is a
median over the rounds of a run.

End-to-end metrics (``--trace 0``; tracing off):

* ``run_s_p50``: median wall seconds per round.
* ``repeats_per_s``: pipeline repeats completed per wall second, at the
  sizes above; a detect call counts as one pass over its 3072 rows, so
  rows per second is repeats_per_s times 3072.
* ``cpu_s_per_run``: median user+sys seconds per round, of this process
  and its children, so a process pool cannot hide CPU.
* ``setup_s``: median over fresh interpreters of imports, table
  generation, CSV write and a small warm-up call.
* ``peak_rss_mb``: peak resident set of this process plus that of its
  largest child, read before the set-up probes start.
* ``completed_ratio``: rounds whose calls exited 0 and passed the output
  checks, over rounds attempted.

Per-layer metrics (``--trace 1``) come from a run that alternates
untraced and traced rounds; each is the median over traced rounds of
that round's total, and a layer that a workload bypasses reads 0.
``trace.overhead_s`` is the traced minus the untraced median round time.
A self time (``*_self_s``) is a span's time minus its wrapped children's.
``cli.self_s`` is ``cli.main`` minus ``data.load_csv``,
``harness.run_repeat``, ``class_outlier.ecodb_detect`` and
``harness.write_report``: argument parsing, config building, report
aggregation and text; everything inside a repeat (split, preprocessing,
fitting, prediction) falls under ``harness.run_repeat``. Spans are
written to ``.perfbench/spans/``. Metric names and units are read from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import importlib.util
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import pidd_table  # noqa: E402
import tracing  # noqa: E402
from ecoamlp import automlp, class_outlier, cli, data, harness  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"ecoamlp imported from {cli.__file__}, not from {ROOT / 'src'}")


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

OUTLIER_K = 12
N_OUTLIERS = 10
MEASURE = "correlation"
SPLIT = ["--train-fraction", "0.7", "--validation-fraction", "0.15", "--test-fraction", "0.15"]
ECODB = ["--outlier-k", str(OUTLIER_K), "--n-outliers", str(N_OUTLIERS),
         "--outlier-measure", MEASURE]
SWEEP_VARIANTS = ("none", "ztransform", "bootstrap", "stratified", "ecodb")
WARMUP_ROWS = 96
SETUP_PROBES = 7
WORK_DIR = ROOT / ".perfbench"


def _train_rows(n: int) -> int:
    """Training-set size of a 70/15/15 split (validation and test round half up)."""
    return n - 2 * int(math.floor(0.15 * n + 0.5))


class Workload:
    name = ""
    rows = 0
    repeats_per_round = 0

    def calls(self, csv: Path, out: Path, seeds: dict, warmup: bool):
        """[(argv, report path)] for one round."""
        raise NotImplementedError

    def check(self, reports: list, evals: list, csv: Path, first: bool) -> list:
        """Error messages for one round's parsed reports; empty when all pass."""
        raise NotImplementedError


class EcodbAutomlp(Workload):
    name = "pidd-ecodb-automlp"
    rows = pidd_table.PIDD_ROWS
    repeats_per_round = 2
    search = {"--ensemble-size": 4, "--cycles": 4, "--generations": 5}

    def calls(self, csv, out, seeds, warmup):
        search = {"--ensemble-size": 2, "--cycles": 1, "--generations": 1} if warmup else self.search
        argv = ["run", "--data", str(csv), "--schema", "pidd", *SPLIT,
                "--split-seed", str(seeds["split"]), "--preprocessor", "ecodb", *ECODB,
                "--classifier", "automlp", "--automlp-seed", str(seeds["automlp"]),
                "--repeats", str(1 if warmup else self.repeats_per_round), "--output", str(out)]
        for flag, value in search.items():
            argv += [flag, str(value)]
        return [(argv, out / "report.json")]

    def check(self, reports, evals, csv, first):
        (report,) = reports
        errors = check_confusions(report["repeats"], evals)
        errors += check_ecodb_repeats(report["repeats"], self.rows)
        return errors


class BaselineSweep(Workload):
    name = "pidd-baseline-sweep"
    rows = pidd_table.PIDD_ROWS
    repeats = 10
    classifiers = ("knn", "nb")
    repeats_per_round = len(classifiers) * len(SWEEP_VARIANTS) * repeats

    def calls(self, csv, out, seeds, warmup):
        return [
            (["sweep", "--data", str(csv), "--schema", "pidd", *SPLIT,
              "--split-seed", str(seeds["split"]), "--preprocessor-seed", str(seeds["preprocessor"]),
              *ECODB, "--axis", "preprocessor", "--variants", ",".join(SWEEP_VARIANTS),
              "--classifier", clf, "--repeats", str(1 if warmup else self.repeats),
              "--output", str(out / clf)],
             out / clf / "sweep.json")
            for clf in self.classifiers
        ]

    def check(self, reports, evals, csv, first):
        repeats = [r for report in reports for v in report["variants"]
                   for r in report["runs"][v]["repeats"]]
        errors = check_confusions(repeats, evals)
        for report in reports:
            runs = report["runs"]
            errors += check_ecodb_repeats(runs["ecodb"]["repeats"], self.rows)
            for r in runs["none"]["repeats"]:
                if r["n_train"] != _train_rows(self.rows):
                    errors.append(f"none repeat {r['repeat']}: n_train {r['n_train']}")
        return errors


class DetectOutliers(Workload):
    name = "pidd4x-detect-outliers"
    rows = 4 * pidd_table.PIDD_ROWS
    repeats_per_round = 1

    def calls(self, csv, out, seeds, warmup):
        out.mkdir(parents=True, exist_ok=True)
        path = out / "outliers.json"
        return [(["detect-outliers", "--data", str(csv), "--schema", "pidd",
                  "--k", str(OUTLIER_K), "--n-outliers", str(N_OUTLIERS),
                  "--measure", MEASURE, "--output", str(path)], path)]

    def check(self, reports, evals, csv, first):
        (report,) = reports
        outliers = report["outliers"]
        ids = [o["id"] for o in outliers]
        scores = [o["score"] for o in outliers]
        errors = []
        if len(ids) != N_OUTLIERS or len(set(ids)) != len(ids):
            errors.append(f"expected {N_OUTLIERS} distinct ids, got {ids}")
        if any(a > b for a, b in zip(scores, scores[1:])):
            errors.append(f"scores do not ascend: {scores}")
        if first:
            # later rounds are byte-identical to this one, so one oracle pass suffices
            dataset = data.load_csv(csv, data.pidd_schema())
            for o in outliers:
                expected = oracles.components(dataset, o["id"], OUTLIER_K, MEASURE)
                got = (o["pcl"], o["deviation"], o["kdist"])
                if not all(math.isclose(g, e, rel_tol=1e-9, abs_tol=1e-9)
                           for g, e in zip(got, expected)):
                    errors.append(f"id {o['id']}: components {got} != oracle {expected}")
        return errors


WORKLOADS = {w.name: w for w in (EcodbAutomlp(), BaselineSweep(), DetectOutliers())}


def check_confusions(repeats: list, evals: list) -> list:
    """Report confusions match an independent recount of the recorded
    predictions, and each sums to its subset size."""
    expected = [pair for r in repeats for pair in (
        (r["n_validation"], r["validation"]["confusion"]),
        (r["n_test"], r["test"]["confusion"]))]
    if len(expected) != len(evals):
        return [f"{len(evals)} evaluate calls for {len(expected)} reported confusions"]
    errors = []
    for (n, conf), (preds, truths) in zip(expected, evals):
        counts = oracles.recount_confusion(preds, truths)
        if counts != (conf["tp"], conf["tn"], conf["fp"], conf["fn"]) or sum(counts) != n:
            errors.append(f"confusion {conf} (n={n}) but recount gives {counts}")
    return errors


def check_ecodb_repeats(repeats: list, rows: int) -> list:
    errors = []
    for r in repeats:
        removed = len(r["outliers"]["outliers"])
        if removed != N_OUTLIERS or r["n_train"] != _train_rows(rows) - N_OUTLIERS:
            errors.append(f"ecodb repeat {r['repeat']}: n_train {r['n_train']}, "
                          f"{removed} outliers")
    return errors


def canonical(path: Path):
    """Parsed report, and its bytes with the timestamp dropped."""
    obj = json.loads(path.read_text())
    obj.pop("created_at", None)
    return obj, json.dumps(obj, sort_keys=True).encode()


def median_test_accuracy(reports: list):
    accs = []
    for report in reports:
        runs = [report["runs"][v] for v in report["variants"]] if "runs" in report else [report]
        accs += [r["test"]["accuracy"] for run in runs for r in run.get("repeats", [])]
    return statistics.median(accs) if accs else None


def record_evaluations(patches: tracing.Patches, calls: list) -> None:
    """Append (predictions, truths) of every ``harness.evaluate`` call to
    ``calls``, for the confusion check."""
    def make(original):
        def record(predictions, truths):
            calls.append((predictions, truths))
            return original(predictions, truths)
        return record

    patches.replace(harness, "evaluate", make)


def install_tracer(tracer: tracing.Tracer, patches: tracing.Patches) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    def epoch_counts(args, _):
        network, dataset = args[0], args[1]
        return {"rows": len(dataset), "hidden_unit_steps": len(dataset) * network.config.hidden_units}

    def generation_counts(_, population):
        cycles = population.params.cycles_per_generation
        records = population.history[-1]
        return {"epochs": cycles * len(records),
                "replaced_epochs": cycles * sum(r.replaced for r in records)}

    def pair_counts(args, _):
        return {"pairs": len(args[0]) ** 2}

    wraps = [
        (cli, "main", "cli.main", None),
        (harness, "load_csv", "data.load_csv", None),
        (data, "load_csv", "data.load_csv", None),
        (harness, "run_repeat", "harness.run_repeat", None),
        (harness, "split", "data.split", None),
        (harness, "ecodb_detect", "class_outlier.ecodb_detect", None),
        (cli, "ecodb_detect", "class_outlier.ecodb_detect", None),
        (class_outlier, "pairwise_distances", "distance.pairwise_distances", pair_counts),
        (harness, "fit_automlp", "automlp.fit_automlp", None),
        (automlp, "run_generation", "automlp.run_generation", generation_counts),
        (automlp, "train_epoch", "mlp.train_epoch", epoch_counts),
        (automlp, "evaluate_error", "mlp.evaluate_error", None),
        (harness, "knn_predict", "baselines.knn_predict", None),
        (harness, "naive_bayes_predict", "baselines.naive_bayes_predict", None),
        (harness, "write_run_report", "harness.write_report", None),
        (harness, "write_sweep_report", "harness.write_report", None),
        (cli, "write_run_report", "harness.write_report", None),
        (cli, "write_sweep_report", "harness.write_report", None),
    ]
    for module, attr, name, count in wraps:
        patches.replace(module, attr, tracer.wrapper(name, count))


def layer_metrics(s: tracing.RoundSummary) -> dict:
    epoch_s = s.total("mlp.train_epoch")
    steps = s.count("mlp.train_epoch", "rows")
    epochs = s.count("automlp.run_generation", "epochs")
    return {
        "mlp.train_epoch_s": epoch_s,
        "mlp.train_epoch_calls": s.calls("mlp.train_epoch"),
        "mlp.instance_steps": steps,
        "mlp.hidden_unit_steps": s.count("mlp.train_epoch", "hidden_unit_steps"),
        "mlp.us_per_instance_step": epoch_s / steps * 1e6 if steps else 0.0,
        "mlp.evaluate_error_s": s.total("mlp.evaluate_error"),
        "automlp.fit_automlp_self_s": s.self_total("automlp."),
        "automlp.generation_s_p50": s.p50("automlp.run_generation"),
        "automlp.replaced_epoch_ratio": (
            s.count("automlp.run_generation", "replaced_epochs") / epochs if epochs else 0.0),
        "distance.pairwise_distances_s": s.total("distance.pairwise_distances"),
        "distance.pairs": s.count("distance.pairwise_distances", "pairs"),
        "class_outlier.ecodb_detect_self_s": s.self_total("class_outlier.ecodb_detect"),
        "baselines.knn_predict_s": s.total("baselines.knn_predict"),
        "baselines.naive_bayes_predict_s": s.total("baselines.naive_bayes_predict"),
        "data.split_s": s.total("data.split"),
        "harness.run_repeat_s_p50": s.p50("harness.run_repeat"),
        "data.load_csv_s": s.total("data.load_csv"),
        "harness.write_report_s": s.total("harness.write_report"),
        "cli.self_s": s.self_total("cli.main"),
    }


def cli_seeds(seed: int) -> dict:
    split_seed, pre_seed, automlp_seed = np.random.default_rng([seed, 1]).integers(0, 2**31, 3)
    return {"split": int(split_seed), "preprocessor": int(pre_seed), "automlp": int(automlp_seed)}


def call_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def set_up(workload: Workload, seed: int, work: Path) -> Path:
    """Write the workload's table and run one small call of the same command."""
    csv = work / "table.csv"
    pidd_table.write_csv(csv, *pidd_table.generate(workload.rows, seed))
    small = work / "warmup.csv"
    pidd_table.write_csv(small, *pidd_table.generate(WARMUP_ROWS, seed))
    for argv, _ in workload.calls(small, work / "warmup", cli_seeds(seed), warmup=True):
        code = call_cli(argv)
        if code != 0:
            raise RuntimeError(f"warm-up call exited {code}: {argv}")
    return csv


def fresh_setup_seconds(workload: Workload, seed: int) -> float:
    """Wall time of ``set_up`` in a fresh interpreter, imports included."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
            "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as child:
        # the child writes a line when set-up is done; its exit is not set-up
        ready = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or not ready:
        raise RuntimeError(f"set-up probe exited {child.returncode}: {argv}")
    return seconds


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), "")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_start": os.getloadavg(),
    }


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


@dataclasses.dataclass
class Round:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    ok: bool = False
    report_bytes: int = 0
    accuracy: Optional[float] = None


def run_round(workload, csv, out, seeds, tracer, first, identity) -> tuple:
    """One timed round, then its checks; returns (Round, error messages)."""
    rnd = Round(traced=tracer is not None)
    calls = workload.calls(csv, out, seeds, warmup=False)
    for _, path in calls:
        path.unlink(missing_ok=True)
    patches, evaluations = tracing.Patches(), []
    record_evaluations(patches, evaluations)
    if tracer is not None:
        install_tracer(tracer, patches)
    gc.collect()
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        codes = [call_cli(argv) for argv, _ in calls]
    finally:
        rnd.wall = time.perf_counter() - t0
        rnd.cpu = cpu_seconds() - c0
        patches.restore_all()
    if any(codes):
        return rnd, [f"exit codes {codes}"]
    parsed = [canonical(path) for _, path in calls]
    reports = [obj for obj, _ in parsed]
    blob = b"\n".join(text for _, text in parsed)
    errors = workload.check(reports, evaluations, csv, first)
    if identity.setdefault("report", blob) != blob:
        errors.append("report differs from the first round's (timestamp dropped)")
    rnd.report_bytes = sum(f.stat().st_size for _, path in calls for f in path.parent.iterdir())
    rnd.accuracy = median_test_accuracy(reports)
    rnd.ok = not errors
    return rnd, errors


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    csv = set_up(workload, seed, work)
    seeds = cli_seeds(seed)
    tracer = tracing.Tracer() if trace else None
    rounds, errors, identity = [], [], {}
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.round = len(rounds)
        rnd, errs = run_round(workload, csv, work / "out", seeds,
                              tracer if traced else None, not rounds, identity)
        rounds.append(rnd)
        errors += [f"round {len(rounds) - 1}: {e}" for e in errs]
        elapsed = time.perf_counter() - start
        next_round = statistics.median(r.wall for r in rounds)
        if len(rounds) >= (2 if trace else 1) and elapsed + next_round > seconds:
            break
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"rounds": rounds, "errors": errors, "tracer": tracer,
            "peak_rss_mb": (usage_self + usage_children) / 1024.0}


def end_to_end(workload: Workload, seed: int, result: dict) -> dict:
    rounds = result["rounds"]
    done = [r for r in rounds if r.ok]
    total_wall = sum(r.wall for r in rounds)
    setups = [fresh_setup_seconds(workload, seed) for _ in range(SETUP_PROBES)]
    return {
        "run_s_p50": statistics.median(r.wall for r in rounds),
        "repeats_per_s": workload.repeats_per_round * len(done) / total_wall,
        "cpu_s_per_run": statistics.median(r.cpu for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "completed_ratio": len(done) / len(rounds),
    }


def per_layer(result: dict) -> dict:
    rounds, tracer = result["rounds"], result["tracer"]
    traced = [i for i, r in enumerate(rounds) if r.traced]
    per_round = [layer_metrics(tracer.round_summary(i)) for i in traced]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["harness.report_bytes"] = statistics.median(rounds[i].report_bytes for i in traced)
    # 0 where the workload scores no classifier
    metrics["metrics.test_accuracy_median"] = rounds[traced[0]].accuracy or 0.0
    metrics["trace.round_s_p50"] = statistics.median(rounds[i].wall for i in traced)
    metrics["trace.overhead_s"] = metrics["trace.round_s_p50"] - statistics.median(
        r.wall for r in rounds if not r.traced)
    return metrics


def with_units(values: dict, section: str) -> dict:
    """Metrics in BENCHMARK.json order, with the units declared there."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} do not match "
                           f"the {section} list of BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up (used to time set-up in a fresh interpreter)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        if args.setup_only:
            set_up(workload, args.seed, work)
            print("ready", flush=True)
            return 0
        env = environment()
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work)
        if args.trace:
            metrics = with_units(per_layer(result), "per_layer")
            spans_dir = WORK_DIR / "spans"
            spans_dir.mkdir(exist_ok=True)
            result["tracer"].dump(spans_dir / f"{workload.name}-seed{args.seed}.json")
        else:
            metrics = with_units(end_to_end(workload, args.seed, result), "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    rounds = result["rounds"]
    details = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "rounds": [{"wall_s": r.wall, "cpu_s": r.cpu, "traced": r.traced, "ok": r.ok}
                   for r in rounds],
        "test_accuracy_median": rounds[0].accuracy,
        "errors": result["errors"][:20],
    }
    for message in result["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print("details " + json.dumps(details))
    failed = sum(not r.ok for r in rounds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
