"""Command-line surface.

Subcommands: validate-data, select-guides, train, predict, bench, sweep.
Exit codes: 0 success, 1 usage error, 2 data error. The data directory can
also come from the DRIFTELM_DATA_DIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import benchmark, dataset, solvers
from .benchmark import DEFAULT_PENALTIES, ExperimentConfig
from .dataset import DataError, utf8_text, write_atomic
from .solvers import SolverError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
ENV_DATA_DIR = "DRIFTELM_DATA_DIR"

SETTING_NAMES = {"1": "fixed-source", "2": "rolling-source"}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse default is 2, which we reserve for data)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _data_dir(args) -> Path:
    path = args.data_dir or os.environ.get(ENV_DATA_DIR)
    if not path:
        raise DataError(
            f"no data directory: pass --data-dir or set {ENV_DATA_DIR}")
    return Path(path)


def _check_out_dir(args) -> None:
    """An ``--out`` naming a directory, or in a missing one, fails before any data is read."""
    out = getattr(args, "out", None)
    if out and Path(out).is_dir():
        raise DataError(f"output path is a directory: {out}")
    if out and not Path(out).parent.is_dir():
        raise DataError(f"output directory not found: {Path(out).parent}")


def _feature_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _guide_counts(text: str) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        ks = []
    if not ks:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return ks


def _add_data_flags(p) -> None:
    p.add_argument("--data-dir", help=f"corpus directory (default: ${ENV_DATA_DIR})")
    p.add_argument("--features", type=_feature_count, default=dataset.N_FEATURES,
                   help="feature count per sample (default: %(default)s)")


def _load_corpus(args, allow_missing=False):
    _check_out_dir(args)
    return dataset.load_corpus(_data_dir(args), expected_n=args.features,
                               allow_missing=allow_missing)


def _read_config_file(path) -> dict:
    """Flat key=value config as key -> (line number, value); '#' starts a comment."""
    values = {}
    text = utf8_text(Path(path).read_bytes(), path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = lineno, value.strip()
    return values


# config-file key -> parser: the fields of ExperimentConfig. Each is the dest
# of a bench flag; sweep has every one but k_guides (its guide counts are
# --ks), and train every one but setting, runs and jobs
_CONFIG_KEYS = {
    "method": str, "setting": str, "k_guides": int, "hidden_size": int,
    "c_s": float, "c_t": float, "c_tu": float, "runs": int, "base_seed": int,
    "activation": str, "scaler_scope": str, "jobs": int,
}


def _resolve_bench_config(args) -> ExperimentConfig:
    """ExperimentConfig's defaults < config file < flags, for the command's keys."""
    keys = {key: parse for key, parse in _CONFIG_KEYS.items() if hasattr(args, key)}
    fields = {}
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(keys)
        if unknown:
            raise DataError(f"{args.config}: unknown config keys: {sorted(unknown)}")
        for key, (lineno, text) in file_values.items():
            try:
                fields[key] = keys[key](text)
            except ValueError:
                raise ValueError(f"{args.config}:{lineno}: {key}: expected "
                                 f"{keys[key].__name__}, got {text!r}") from None
    fields.update((key, getattr(args, key)) for key in keys
                  if getattr(args, key) is not None)
    if "setting" in fields:
        fields["setting"] = SETTING_NAMES.get(fields["setting"], fields["setting"])
    return ExperimentConfig(**fields)


def _add_experiment_flags(p, guides: bool = True) -> None:
    _add_data_flags(p)
    default = ExperimentConfig()

    def penalty(key):
        return ", ".join(f"{pens[key]:g} {method}"
                         for method, pens in DEFAULT_PENALTIES.items() if key in pens)

    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--method", choices=list(benchmark.METHODS),
                   help=f"classifier to train (default {default.method})")
    if guides:
        p.add_argument("--guides", type=int, dest="k_guides",
                       help="labeled guide samples per target batch "
                            f"(default {default.k_guides})")
    p.add_argument("--seed", type=int, dest="base_seed",
                   help=f"base seed; run r uses seed+r (default {default.base_seed})")
    p.add_argument("--hidden", type=int, dest="hidden_size",
                   help=f"hidden neurons (default {default.hidden_size})")
    p.add_argument("--activation", choices=list(benchmark.ACTIVATIONS),
                   help=f"hidden activation (default {default.activation})")
    p.add_argument("--cs", type=float, dest="c_s",
                   help=f"source penalty (default: {penalty('c_s')})")
    p.add_argument("--ct", type=float, dest="c_t",
                   help=f"guide penalty (default: {penalty('c_t')})")
    p.add_argument("--ctu", type=float, dest="c_tu",
                   help=f"unlabeled penalty (default: {penalty('c_tu')})")
    p.add_argument("--scaler-scope", choices=list(benchmark.SCALER_SCOPES),
                   help="min-max fit: whole corpus or per task pair "
                        f"(default {default.scaler_scope})")


def _add_bench_flags(p, guides: bool = True) -> None:
    _add_experiment_flags(p, guides)
    default = ExperimentConfig()
    p.add_argument("--out", help="output file (written atomically; default stdout)")
    p.add_argument("--setting", choices=list(SETTING_NAMES),
                   help="1 = fixed source (batch 1), 2 = rolling source "
                        f"(default {default.setting})")
    p.add_argument("--runs", type=int,
                   help=f"seeded repetitions to average (default {default.runs})")
    p.add_argument("--jobs", type=int,
                   help=f"runs computed in parallel, each over all its tasks (default {default.jobs})")


def _cmd_validate_data(args) -> int:
    batches = _load_corpus(args, allow_missing=True)
    report = dataset.validate_corpus(batches)
    _emit(report.to_text() + "\n", args.out)
    return EXIT_OK if report.ok else EXIT_DATA


def _cmd_select_guides(args) -> int:
    cfg = ExperimentConfig(k_guides=args.guides)  # refuses k < 2 before the load
    pairs = benchmark._batch_pairs(cfg, _load_corpus(args), [(args.batch, args.batch)])
    [indices] = benchmark._select(pairs, cfg.k_guides)
    _emit("\n".join(str(i) for i in indices) + "\n", args.out)
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _resolve_bench_config(args)
    corpus = _load_corpus(args)
    clf, scaler = benchmark.fit_pair(cfg, corpus, args.source_batch, args.target_batch)
    doc = solvers.classifier_to_dict(clf, scaler, {
        "method": cfg.method, "source_batch": args.source_batch,
        "target_batch": args.target_batch, "k_guides": cfg.k_guides,
        "seed": cfg.base_seed})
    write_atomic(args.out, json.dumps(doc, indent=2) + "\n")
    print(f"saved classifier to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_predict(args) -> int:
    _check_out_dir(args)
    text = utf8_text(Path(args.model).read_bytes(), args.model)
    try:
        clf, scaler = solvers.classifier_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.model}: not JSON ({exc})") from None
    except DataError as exc:
        raise DataError(f"{args.model}: {exc}") from None
    path = _data_dir(args) / f"batch{args.batch}.dat"
    batch = dataset.load_batch(path, expected_n=clf.feature_map.n_features,
                               batch_id=args.batch)
    _, labels = solvers.predict(clf, dataset.apply_scaler(scaler, batch.features))
    lines = ["index,label"] + [f"{i},{lab}" for i, lab in enumerate(labels)]
    _emit("\n".join(lines) + "\n", args.out)
    print(f"accuracy={100.0 * solvers.accuracy(labels, batch.labels):.2f}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _resolve_bench_config(args)
    corpus = _load_corpus(args)
    report = benchmark.run_experiment(cfg, corpus)
    _emit(benchmark.emit_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _resolve_bench_config(args)
    for k in args.ks:  # a guide count ExperimentConfig refuses fails before the load
        replace(cfg, k_guides=k)
    corpus = _load_corpus(args)
    reports = benchmark.sweep_guides(cfg, corpus, args.ks)
    _emit(benchmark.emit_sweep_csv(reports), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftelm",
                     description="Drift-compensation benchmark for domain-adaptive ELMs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate-data", help="check a corpus against the reference counts")
    _add_data_flags(p)
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=_cmd_validate_data)

    p = sub.add_parser("select-guides", help="print the guide indices chosen for a batch")
    _add_data_flags(p)
    p.add_argument("--batch", type=int, required=True, help="target batch id (1..10)")
    p.add_argument("--guides", type=int, required=True, help="number of guide samples")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_select_guides)

    p = sub.add_parser("train", help="train one classifier and save it as JSON")
    _add_experiment_flags(p)
    p.add_argument("--source-batch", type=int, default=1,
                   help="training batch id (default: %(default)s)")
    p.add_argument("--target-batch", type=int, required=True,
                   help="batch the guides are drawn from")
    p.add_argument("--out", required=True, help="model JSON (written atomically)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="classify a batch with a saved classifier")
    p.add_argument("--data-dir", help=f"corpus directory (default: ${ENV_DATA_DIR})")
    p.add_argument("--model", required=True, help="classifier JSON from `train`")
    p.add_argument("--batch", type=int, required=True, help="batch id to classify")
    p.add_argument("--out", help="predictions CSV (default stdout)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("bench", help="run a full protocol and report per-task accuracy")
    _add_bench_flags(p)
    p.add_argument("--format", choices=list(benchmark.REPORT_FORMATS), default="table",
                   help="output format (default: %(default)s)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="repeat a protocol across guide counts, emit CSV")
    _add_bench_flags(p, guides=False)
    p.add_argument("--ks", type=_guide_counts, default="5,10,15,20,25,30,35,40,45,50",
                   help="comma-separated guide counts (default: %(default)s)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits: 0 for --help, 1 via _Parser.error
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except (DataError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # such as a size too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
