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
from pathlib import Path

import numpy as np

from . import benchmark, dataset, solvers
from .benchmark import ExperimentConfig, Penalties
from .dataset import DataError, write_atomic
from .guide_selection import split_target, ssa_select
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


def _add_data_flags(p) -> None:
    p.add_argument("--data-dir", help=f"corpus directory (default: ${ENV_DATA_DIR})")
    p.add_argument("--features", type=int, default=dataset.N_FEATURES,
                   help="feature count per sample (default: %(default)s)")


def _load_corpus(args, allow_missing=False):
    return dataset.load_corpus(_data_dir(args), expected_n=args.features,
                               allow_missing=allow_missing)


def _read_config_file(path) -> dict:
    """Flat key=value config; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = value.strip()
    return values

# config-file key -> (attribute, parser)
_CONFIG_KEYS = {
    "method": ("method", str),
    "setting": ("setting_flag", str),
    "k_guides": ("guides", int),
    "hidden_size": ("hidden", int),
    "runs": ("runs", int),
    "base_seed": ("seed", int),
    "activation": ("activation", str),
    "scaler_scope": ("scaler_scope", str),
    "jobs": ("jobs", int),
    "c_s": ("cs", float),
    "c_t": ("ct", float),
    "c_tu": ("ctu", float),
}


def _resolve_bench_config(args) -> ExperimentConfig:
    """Defaults < config file < explicit flags."""
    fields = {attr: None for attr, _ in _CONFIG_KEYS.values()}
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(_CONFIG_KEYS)
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        for key, text in file_values.items():
            attr, parse = _CONFIG_KEYS[key]
            fields[attr] = parse(text)
    for attr in fields:
        flag = getattr(args, attr, None)
        if flag is not None:
            fields[attr] = flag
    method = fields["method"] or "daelm-s"
    defaults = benchmark.DEFAULT_PENALTIES.get(method)
    if defaults is None:
        raise ValueError(f"method must be one of {benchmark.METHODS}")
    pens = Penalties(
        c_s=fields["cs"] if fields["cs"] is not None else defaults.c_s,
        c_t=fields["ct"] if fields["ct"] is not None else defaults.c_t,
        c_tu=fields["ctu"] if fields["ctu"] is not None else defaults.c_tu)
    raw_setting = fields["setting_flag"] or "1"
    return ExperimentConfig(
        method=method,
        setting=SETTING_NAMES.get(raw_setting, raw_setting),
        k_guides=fields["guides"] if fields["guides"] is not None else 30,
        hidden_size=fields["hidden"] or benchmark.DEFAULT_HIDDEN,
        penalties=pens,
        runs=fields["runs"] or benchmark.DEFAULT_RUNS,
        base_seed=fields["seed"] if fields["seed"] is not None else 0,
        activation=fields["activation"] or "radbas",
        scaler_scope=fields["scaler_scope"] or "global",
        jobs=fields["jobs"] or 1)


def _add_bench_flags(p) -> None:
    _add_data_flags(p)
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--setting", choices=["1", "2"], dest="setting_flag",
                   help="1 = fixed source (batch 1), 2 = rolling source (default 1)")
    p.add_argument("--method", choices=list(benchmark.METHODS),
                   help="classifier to benchmark (default daelm-s)")
    p.add_argument("--guides", type=int, help="labeled guide samples per target batch (default 30)")
    p.add_argument("--runs", type=int, help="seeded repetitions to average (default 10)")
    p.add_argument("--seed", type=int, help="base seed; run r uses seed+r (default 0)")
    p.add_argument("--hidden", type=int, help="hidden neurons (default 1000)")
    p.add_argument("--activation", choices=["radbas", "sigmoid"],
                   help="hidden activation (default radbas)")
    p.add_argument("--cs", type=float,
                   help="source penalty (default: 0.01 daelm-s, 0.001 daelm-t, 1.0 elm)")
    p.add_argument("--ct", type=float,
                   help="guide penalty (default: 10 daelm-s, 0.001 daelm-t)")
    p.add_argument("--ctu", type=float,
                   help="unlabeled penalty, daelm-t only (default 100)")
    p.add_argument("--scaler-scope", choices=list(benchmark.SCALER_SCOPES),
                   dest="scaler_scope", help="min-max fit: whole corpus or per task pair (default global)")
    p.add_argument("--jobs", type=int, help="runs computed in parallel, each over all its tasks (default 1)")
    p.add_argument("--out", help="output file (written atomically; default stdout)")


def _cmd_validate_data(args) -> int:
    batches = _load_corpus(args, allow_missing=True)
    report = dataset.validate_corpus(batches)
    _emit(report.to_text() + "\n", args.out)
    return EXIT_OK if report.ok else EXIT_DATA


def _cmd_select_guides(args) -> int:
    corpus = _load_corpus(args)
    scaled, _ = dataset.scale_corpus(corpus)
    target = next(b for b in scaled if b.batch_id == args.batch)
    selection = ssa_select(target, args.guides)
    lines = [str(i) for i in selection.indices]
    if selection.truncated:
        print(f"warning: requested {selection.k} of {target.n_samples} samples; "
              "selected all", file=sys.stderr)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _train_classifier(cfg: ExperimentConfig, corpus, source_batch, target_batch):
    """One seeded training pass; returns (classifier, scaler)."""
    by_id = {b.batch_id: b for b in corpus}
    if source_batch not in by_id or target_batch not in by_id:
        raise DataError("source/target batch not found in the data directory")
    if cfg.scaler_scope == "pair":
        scaler = dataset.fit_scaler([by_id[source_batch], by_id[target_batch]])
    else:
        scaler = dataset.fit_scaler(corpus)
    source = dataset.apply_scaler(scaler, by_id[source_batch])
    target = dataset.apply_scaler(scaler, by_id[target_batch])
    if cfg.k_guides:
        guides, rest = split_target(target, ssa_select(target, cfg.k_guides))
    else:
        guides, rest = None, target
    maps = benchmark.run_maps(cfg, source.n_features, cfg.base_seed)
    return benchmark.fit(cfg, benchmark.Task(source, guides, rest), maps), scaler


def _cmd_train(args) -> int:
    cfg = _resolve_bench_config(args)
    corpus = _load_corpus(args)
    clf, scaler = _train_classifier(cfg, corpus, args.source_batch, args.target_batch)
    doc = solvers.classifier_to_dict(clf)
    doc["scaler"] = {"min": scaler.minimum.tolist(), "max": scaler.maximum.tolist()}
    doc["meta"] = {"method": cfg.method, "source_batch": args.source_batch,
                   "target_batch": args.target_batch, "k_guides": cfg.k_guides,
                   "seed": cfg.base_seed}
    write_atomic(args.out, json.dumps(doc, indent=2) + "\n")
    print(f"saved classifier to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_predict(args) -> int:
    with open(args.model) as fh:
        doc = json.load(fh)
    clf = solvers.classifier_from_dict(doc)
    if args.features != clf.feature_map.n_features:
        raise DataError(f"--features {args.features} does not match the model's "
                        f"{clf.feature_map.n_features} input features")
    scaler = dataset.ScalerParams(np.asarray(doc["scaler"]["min"]),
                                  np.asarray(doc["scaler"]["max"]))
    path = _data_dir(args) / f"batch{args.batch}.dat"
    batch = dataset.load_batch(path, expected_n=args.features, batch_id=args.batch)
    scaled = dataset.apply_scaler(scaler, batch)
    _, labels = solvers.predict(clf, scaled)
    lines = ["index,label"] + [f"{i},{lab}" for i, lab in enumerate(labels)]
    _emit("\n".join(lines) + "\n", args.out)
    if batch.labels is not None:
        acc = solvers.accuracy(labels, batch.labels)
        print(f"accuracy={100.0 * acc:.2f}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _resolve_bench_config(args)
    corpus = _load_corpus(args)
    report = benchmark.run_experiment(cfg, corpus)
    _emit(benchmark.emit_report(report, args.format), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _resolve_bench_config(args)
    ks = [int(tok) for tok in args.ks.split(",") if tok.strip()]
    corpus = _load_corpus(args)
    reports = benchmark.sweep_guides(cfg, corpus, ks)
    _emit(benchmark.emit_sweep_csv(reports), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftelm",
                     description="Drift-compensation benchmark for domain-adaptive ELMs")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

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
    _add_bench_flags(p)
    p.add_argument("--source-batch", type=int, default=1,
                   help="training batch id (default: %(default)s)")
    p.add_argument("--target-batch", type=int, required=True,
                   help="batch the guides are drawn from")
    p.set_defaults(func=_cmd_train, out_required=True)

    p = sub.add_parser("predict", help="classify a batch with a saved classifier")
    _add_data_flags(p)
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
    _add_bench_flags(p)
    p.add_argument("--ks", default="5,10,15,20,25,30,35,40,45,50",
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
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    if getattr(args, "out_required", False) and not args.out:
        print("error: --out is required for this command", file=sys.stderr)
        return EXIT_USAGE
    try:
        return int(args.func(args))
    except (DataError, SolverError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
