"""Drift-compensation benchmark protocols.

Two protocols over a 10-batch corpus: fixed-source (train on batch 1, test
on batches 2..10) and rolling-source (train on batch K-1, test on batch K).
Each task selects k guide samples from the target batch, trains the chosen
method, and scores the unlabeled remainder; runs repeat with consecutive
seeds and are averaged.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataset import (DataError, SampleSet, apply_scaler, encode_targets,
                      fit_scaler)
from .feature_map import ACTIVATIONS, hidden_output, new_feature_map
from .guide_selection import GuideSelection, split_target, ssa_select
from .solvers import (Classifier, Penalties, accuracy, labels_from_scores,
                      predict, train_daelm_s, train_daelm_t, train_elm)

METHODS = ("elm", "daelm-s", "daelm-t")
SETTINGS = ("fixed-source", "rolling-source")
SCALER_SCOPES = ("global", "pair")

DEFAULT_HIDDEN = 1000
DEFAULT_RUNS = 10

# Benchmark defaults. The baseline ELM penalty is a convention of this
# artifact (the protocol fixes only the DAELM penalties); override via
# config when comparing against other regularization choices.
ELM_PENALTIES = Penalties(c_s=1.0, c_t=1.0)
DAELM_S_PENALTIES = Penalties(c_s=0.01, c_t=10.0)
DAELM_T_PENALTIES = Penalties(c_s=0.001, c_t=0.001, c_tu=100.0)

# Offset separating the target-side feature map seed from the base map seed
# in daelm-t runs; prime, so it never collides with another run's base seed.
TARGET_MAP_SEED_OFFSET = 1_000_003


def feature_map_seeds(method: str, run_seed: int) -> tuple[int, ...]:
    """Seeds of the feature maps one run builds (base map first for daelm-t)."""
    if method == "daelm-t":
        return (run_seed, run_seed + TARGET_MAP_SEED_OFFSET)
    return (run_seed,)


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "daelm-s"
    setting: str = "fixed-source"
    k_guides: int = 30
    hidden_size: int = DEFAULT_HIDDEN
    penalties: Penalties | None = None  # None picks the method's defaults
    runs: int = DEFAULT_RUNS
    base_seed: int = 0
    activation: str = "radbas"
    scaler_scope: str = "global"
    jobs: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.scaler_scope not in SCALER_SCOPES:
            raise ValueError(f"scaler_scope must be one of {SCALER_SCOPES}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.k_guides < 2 and not (self.method == "elm" and self.k_guides == 0):
            raise ValueError("k_guides must be >= 2 (0 allowed for plain elm)")

    def resolved_penalties(self) -> Penalties:
        if self.penalties is not None:
            return self.penalties
        return {"elm": ELM_PENALTIES, "daelm-s": DAELM_S_PENALTIES,
                "daelm-t": DAELM_T_PENALTIES}[self.method]

    @property
    def label(self) -> str:
        return f"{self.method}({self.k_guides})" if self.k_guides else self.method


@dataclass(frozen=True)
class TaskResult:
    source_batch: int
    target_batch: int
    accuracies: tuple[float, ...]  # per-run accuracy, percent

    def __post_init__(self):
        if any(not 0.0 <= a <= 100.0 for a in self.accuracies):
            raise ValueError("accuracies must lie in [0, 100]")

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))


@dataclass(frozen=True)
class ExperimentReport:
    method: str
    setting: str
    k_guides: int
    tasks: tuple[TaskResult, ...]

    @property
    def average(self) -> float:
        return float(np.mean([t.mean for t in self.tasks]))

    @property
    def label(self) -> str:
        return f"{self.method}({self.k_guides})" if self.k_guides else self.method


def _corpus_by_id(corpus: list[SampleSet]) -> dict[int, SampleSet]:
    by_id = {b.batch_id: b for b in corpus}
    missing = [i for i in range(1, 11) if i not in by_id]
    if missing:
        raise DataError(f"missing batches: {missing}")
    return by_id


@dataclass(frozen=True)
class _TaskContext:
    source: SampleSet       # scaled, labeled
    guides: SampleSet | None
    rest: SampleSet         # scaled; labels used for scoring only
    source_batch: int
    target_batch: int


def _task_pairs(setting: str) -> list[tuple[int, int]]:
    """(source, target) batch ids of a setting's nine tasks."""
    if setting == "fixed-source":
        return [(1, k) for k in range(2, 11)]
    return [(k - 1, k) for k in range(2, 11)]


def _scaled_pairs(cfg: ExperimentConfig, corpus: list[SampleSet]
                  ) -> list[tuple[SampleSet, SampleSet]]:
    """The setting's (source, target) batches, scaled and checked."""
    by_id = _corpus_by_id(corpus)
    if cfg.scaler_scope == "global":
        scaler = fit_scaler(corpus)
        scaled = {bid: apply_scaler(scaler, b) for bid, b in by_id.items()}
    pairs = []
    for src_id, tgt_id in _task_pairs(cfg.setting):
        if cfg.scaler_scope == "pair":
            scaler = fit_scaler([by_id[src_id], by_id[tgt_id]])
            scaled = {bid: apply_scaler(scaler, by_id[bid]) for bid in (src_id, tgt_id)}
        source, target = scaled[src_id], scaled[tgt_id]
        if source.labels is None or target.labels is None:
            raise DataError("benchmark batches must be labeled")
        pairs.append((source, target))
    return pairs


def _run_once(cfg: ExperimentConfig, pens: Penalties, ctx: _TaskContext,
              run_seed: int) -> float:
    """Train one seeded model and score the unlabeled remainder (percent)."""
    n = ctx.source.n_features
    m = ctx.source.m
    seeds = feature_map_seeds(cfg.method, run_seed)

    if cfg.method == "daelm-t":
        base_map = new_feature_map(cfg.hidden_size, n, cfg.activation, seeds[0])
        beta_base = train_elm(hidden_output(base_map, ctx.source),
                              encode_targets(ctx.source.labels, m), pens.c_s)
        target_map = new_feature_map(cfg.hidden_size, n, cfg.activation, seeds[1])
        h_guides = hidden_output(target_map, ctx.guides)
        h_rest = hidden_output(target_map, ctx.rest)
        # the base classifier scores the unlabeled samples with its own map;
        # those soft scores are what the coupled model is pulled toward
        pseudo = hidden_output(base_map, ctx.rest) @ beta_base
        beta = train_daelm_t(h_guides, encode_targets(ctx.guides.labels, m),
                             h_rest, pseudo, pens)
        predicted = labels_from_scores(h_rest @ beta)
    else:
        fmap = new_feature_map(cfg.hidden_size, n, cfg.activation, seeds[0])
        if cfg.method == "daelm-s":
            beta = train_daelm_s(
                hidden_output(fmap, ctx.source), encode_targets(ctx.source.labels, m),
                hidden_output(fmap, ctx.guides), encode_targets(ctx.guides.labels, m),
                pens)
        else:  # elm on source rows plus the labeled guides
            if ctx.guides is not None:
                feats = np.vstack([ctx.source.features, ctx.guides.features])
                labels = np.concatenate([ctx.source.labels, ctx.guides.labels])
            else:
                feats, labels = ctx.source.features, ctx.source.labels
            beta = train_elm(hidden_output(fmap, feats), encode_targets(labels, m),
                             pens.c_s)
        _, predicted = predict(Classifier(fmap, beta, m), ctx.rest)
    return 100.0 * accuracy(predicted, ctx.rest.labels)


def _score(cfg: ExperimentConfig, contexts: list[_TaskContext]) -> ExperimentReport:
    """Run every (task, run) cell of one guide count and collect the report."""
    pens = cfg.resolved_penalties()
    cells = [(t, r) for t in range(len(contexts)) for r in range(cfg.runs)]
    acc = np.empty((len(contexts), cfg.runs))

    def work(cell):
        t, r = cell
        acc[t, r] = _run_once(cfg, pens, contexts[t], cfg.base_seed + r)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            list(pool.map(work, cells))
    else:
        for cell in cells:
            work(cell)

    tasks = tuple(
        TaskResult(ctx.source_batch, ctx.target_batch, tuple(acc[t]))
        for t, ctx in enumerate(contexts))
    return ExperimentReport(cfg.method, cfg.setting, cfg.k_guides, tasks)


def _run_protocol(cfg: ExperimentConfig, corpus: list[SampleSet],
                  ks: list[int]) -> list[ExperimentReport]:
    """One report per guide count in ``ks``, in that order.

    Every guide count is checked against every target before any work. Each
    target is then selected once, at the largest count, and each count takes
    a prefix of that selection: greedy max-min picks do not depend on k.
    """
    cfgs = [replace(cfg, k_guides=k) for k in ks]
    pairs = _scaled_pairs(cfg, corpus)
    k_max = max(ks)
    for _, target in pairs:
        if k_max >= target.n_samples:
            raise DataError(
                f"k_guides={k_max} must be below the target batch size "
                f"({target.n_samples})")
    selections = [ssa_select(target, k_max) if k_max else None
                  for _, target in pairs]

    reports = []
    for k_cfg in cfgs:
        k = k_cfg.k_guides
        contexts = []
        for (source, target), selection in zip(pairs, selections):
            guides, rest = None, target
            if k:
                guides, rest = split_target(target, GuideSelection(selection.indices[:k], k))
            contexts.append(_TaskContext(source, guides, rest, source.batch_id,
                                         target.batch_id))
        reports.append(_score(k_cfg, contexts))
    return reports


def run_setting1(cfg: ExperimentConfig, corpus: list[SampleSet]) -> ExperimentReport:
    """Fixed source: batch 1 trains, batches 2..10 are the targets."""
    return _run_protocol(replace(cfg, setting="fixed-source"), corpus,
                         [cfg.k_guides])[0]


def run_setting2(cfg: ExperimentConfig, corpus: list[SampleSet]) -> ExperimentReport:
    """Rolling source: batch K-1 trains, batch K is the target, K in 2..10."""
    return _run_protocol(replace(cfg, setting="rolling-source"), corpus,
                         [cfg.k_guides])[0]


def run_experiment(cfg: ExperimentConfig, corpus: list[SampleSet]) -> ExperimentReport:
    return _run_protocol(cfg, corpus, [cfg.k_guides])[0]


def sweep_guides(cfg: ExperimentConfig, corpus: list[SampleSet],
                 ks: list[int]) -> list[ExperimentReport]:
    """One report per guide count, in the order of ``ks``.

    Each target is selected once, at ``max(ks)``; every k is checked before
    any selection.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    return _run_protocol(cfg, corpus, ks)


REPORT_FORMATS = ("table", "csv", "jsonl")


def emit_report(report: ExperimentReport, fmt: str = "table") -> str:
    """Deterministic text rendering of a report."""
    if fmt == "csv":
        lines = ["source,target,run,accuracy"]
        for task in report.tasks:
            for r, a in enumerate(task.accuracies):
                lines.append(f"{task.source_batch},{task.target_batch},{r},{a!r}")
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        lines = []
        for task in report.tasks:
            for r, a in enumerate(task.accuracies):
                lines.append(json.dumps(
                    {"method": report.label, "setting": report.setting,
                     "source": task.source_batch, "target": task.target_batch,
                     "run": r, "accuracy": a}, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")
    if fmt == "table":
        header = ["method".ljust(14)]
        row = [report.label.ljust(14)]
        for task in report.tasks:
            header.append(f"{task.source_batch}->{task.target_batch}".rjust(8))
            row.append(f"{task.mean:8.2f}")
        header.append("average".rjust(9))
        if report.tasks:
            row.append(f"{report.average:9.2f}")
        return " ".join(header) + "\n" + " ".join(row) + "\n"
    raise ValueError(f"format must be one of {REPORT_FORMATS}")


def emit_sweep_csv(reports: list[ExperimentReport]) -> str:
    """Combined per-run CSV across a guide-count sweep."""
    lines = ["k,source,target,run,accuracy"]
    for report in reports:
        for task in report.tasks:
            for r, a in enumerate(task.accuracies):
                lines.append(
                    f"{report.k_guides},{task.source_batch},{task.target_batch},{r},{a!r}")
    return "\n".join(lines) + "\n"
