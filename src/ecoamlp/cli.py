"""Command-line entry points.

Three subcommands:

* ``run``             - one experiment (repeats included), report to stdout
                        and optionally to files.
* ``sweep``           - the same experiment repeated along one config axis
                        (preprocessor or classifier), with a comparison table.
* ``detect-outliers`` - score a whole CSV with the class-outlier detector
                        and print or save the ranked report.

Flags override values from ``--config``. Every feature column of the CSV
must be numeric. The report files of ``run`` and ``sweep`` are written here,
once, after the harness returns; every output file is written whole or not
at all. Exit codes: 0 success, 1 bad configuration (an unknown measure or an
output path that cannot be written among them), 2 bad data (a non-numeric
feature cell among them), 3 internal error, 141 (128 + SIGPIPE, as a shell
reports a program that a closed pipe stopped) when the reader of standard
output closed it early, as ``| head`` does; nothing is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, List, Optional

from .class_outlier import codb_detect, ecodb_detect
from .errors import ConfigError, DataError
from .harness import (
    CONFIG_FIELDS,
    SWEEP_AXES,
    ConfigField,
    ExperimentConfig,
    config_from_json_obj,
    json_bool,
    json_float,
    json_int,
    load_dataset,
    read_config_json,
    run_experiment,
    run_sweep,
    write_atomic,
    write_run_report,
    write_sweep_report,
)

_FLAG_TYPES = {json_int: int, json_float: float}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)
    and takes flags only in full, so a misspelt or renamed flag is an
    error rather than the flag it abbreviates."""

    def __init__(self, **options) -> None:
        super().__init__(allow_abbrev=False, **options)

    def error(self, message):
        raise ConfigError(message)


EXIT_BROKEN_PIPE = 141


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed standard output; point it at devnull so that the
        # flush at exit finds somewhere to write what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> _Parser:
    parser = _Parser(prog="ecoamlp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[_experiment_flags()],
                           help="run one experiment configuration")
    run_p.set_defaults(run=_cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[_experiment_flags()],
                             help="compare variants along one config axis")
    sweep_p.add_argument("--axis", choices=SWEEP_AXES, default=SWEEP_AXES[0])
    sweep_p.add_argument("--variants", required=True,
                         help="comma-separated variant names, e.g. none,ecodb")
    sweep_p.set_defaults(run=_cmd_sweep)

    # detect-outliers shares the experiment's loading and outlier fields,
    # with --k and --measure standing for --outlier-k and --outlier-measure
    det_p = sub.add_parser("detect-outliers",
                           help="rank class outliers in a whole CSV")
    _add_flag(det_p, "data", required=True)
    _add_flag(det_p, "schema")
    _add_flag(det_p, "drop_features")
    det_p.add_argument("--algorithm", choices=("ecodb", "codb"), default="ecodb")
    _add_flag(det_p, "preprocessor.outlier.k", "--k")
    _add_flag(det_p, "preprocessor.outlier.n_outliers")
    _add_flag(det_p, "preprocessor.outlier.measure", "--measure")
    det_p.add_argument("--alpha", type=float, help="codb weight (--algorithm codb)")
    det_p.add_argument("--beta", type=float, help="codb weight (--algorithm codb)")
    det_p.add_argument("--output", metavar="FILE", dest="output_file",
                       help="write JSON here instead of stdout")
    det_p.set_defaults(run=_cmd_detect)
    return parser


def _experiment_flags() -> _Parser:
    p = _Parser(add_help=False)
    p.add_argument("--config", metavar="FILE", help="JSON config; flags override it")
    for key in CONFIG_FIELDS:
        _add_flag(p, key)
    return p


def _add_flag(parser: argparse.ArgumentParser, key: str, flag: Optional[str] = None,
              **options) -> None:
    """Add the flag of config field ``key``, or ``flag`` in its place."""
    f = CONFIG_FIELDS[key]
    if f.convert in _FLAG_TYPES:
        options["type"] = _FLAG_TYPES[f.convert]
    elif f.convert is json_bool:
        options.update(action="store_true", default=None)
    parser.add_argument(flag or f.flag, dest=_dest(f), **f.options, **options)


def _dest(f: ConfigField) -> str:
    return f.flag[2:].replace("-", "_")


def _experiment_config(args) -> ExperimentConfig:
    """Flags over the --config file over the dataclass defaults."""
    obj = read_config_json(args.config) if getattr(args, "config", None) else {}
    flags = {}
    for f in CONFIG_FIELDS.values():
        value = getattr(args, _dest(f), None)
        if value is not None:
            if f.options.get("action") == "append":  # drop_features, a top-level key
                value = [*f.parse(obj.get(f.key, [])), *value]
            flags[f.key] = value
    return config_from_json_obj(obj, flags)


def _cmd_run(args) -> int:
    config = _experiment_config(args)
    return _print_and_write(run_experiment(config), config.output_dir, write_run_report)


def _cmd_sweep(args) -> int:
    config = _experiment_config(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    report = run_sweep(config, args.axis, variants)
    return _print_and_write(report, config.output_dir, write_sweep_report)


def _print_and_write(report, out_dir: Optional[str], write: Callable) -> int:
    """Print ``report``, and save it with ``write`` when ``out_dir`` is set."""
    print(report.to_text(), end="")
    if out_dir:
        json_path, text_path = write(report, out_dir)
        print(f"wrote {json_path} and {text_path}")
    return 0


def _cmd_detect(args) -> int:
    config = _experiment_config(args)
    weights = {w: v for w, v in (("alpha", args.alpha), ("beta", args.beta)) if v is not None}
    if weights and args.algorithm != "codb":
        raise ConfigError("--alpha and --beta apply only to --algorithm codb")
    dataset = load_dataset(config)
    detect = ecodb_detect if args.algorithm == "ecodb" else codb_detect
    report = detect(dataset, config.preprocessor.outlier, **weights)
    text = json.dumps(report.to_json_obj(), indent=2)
    if args.output_file:
        write_atomic(Path(args.output_file), text + "\n")
        print(f"wrote {args.output_file}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
