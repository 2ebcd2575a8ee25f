"""Drift-compensation benchmark protocols.

Two protocols over a 10-batch corpus: fixed-source (train on batch 1, test
on batches 2..10) and rolling-source (train on batch K-1, test on batch K).
Each task selects k guide samples from the target batch, trains the chosen
method, and scores the unlabeled remainder; runs repeat with consecutive
seeds and are averaged.

Across runs only the caller's unscaled batches, each pair's scaler and the
guide indices are kept: a target is scaled only for its selection, `fit`
splits a count's guides off its target when the run reaches it and returns
the rest as row indices, and every hidden layer scales the rows it
projects. A run draws its maps once from its seed, as one `RunMap`, and
goes through the nine (source, target) pairs in order. A pair first
computes the one term its tasks read from the source (see `_source_term`),
then runs every guide count in a row. elm and daelm-s do not read the rest
to train: each count is trained first, then the target is projected in
equal row blocks of at most `_SCRATCH_VALUES` values, whole when the next
pair reads it as its source, and each count scores its rest's rows of each
block's H times its weights. daelm-t trains on its rest: each count
projects the target's rest and guides once, into the array of the target's
base H that the pair's term was computed from, and its pseudo-targets are
rows of that term. Between pairs a run holds only the source term its next
pair reads. So no target H is alive at an elm or daelm-s solve, a
fixed-source elm or daelm-s run never holds a whole target H, and a sweep
projects the same matrices as a run at each of its counts.
`sweep_guides` is the one protocol and `fit` the one training path. It
returns weights; `fit_pair`, the `train` command's one pair, is the one
caller that wraps them in a `Classifier`. With ``jobs > 1`` whole runs go
to a thread pool; results do not depend on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .dataset import (BATCH_IDS, N_CLASSES, DataError, SampleSet,
                      ScalerParams, apply_scaler, encode_targets, fit_scaler)
from .feature_map import ACTIVATIONS, hidden_output, new_feature_map
from .guide_selection import _SCRATCH_VALUES, split_target, ssa_select
# predict is not called here; it stays bound because tracers of the
# benchmark wrap this module's names (see perfbench/tracing.py)
from .solvers import (Classifier, accuracy, labels_from_scores, predict,
                      train_daelm_s, train_daelm_t, train_elm)

# Benchmark defaults: each method's penalties, and only the ones it reads.
# The baseline ELM penalty is a convention of this artifact (the protocol
# fixes only the DAELM penalties); override via config when comparing
# against other regularization choices.
DEFAULT_PENALTIES = {"elm": {"c_s": 1.0},
                     "daelm-s": {"c_s": 0.01, "c_t": 10.0},
                     "daelm-t": {"c_s": 0.001, "c_t": 0.001, "c_tu": 100.0}}
METHODS = tuple(DEFAULT_PENALTIES)
SETTINGS = ("fixed-source", "rolling-source")
SCALER_SCOPES = ("global", "pair")

# Offset separating the target-side feature map seed from the base map seed
# in daelm-t runs; prime, so it never collides with another run's base seed.
TARGET_MAP_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "daelm-s"
    setting: str = "fixed-source"
    k_guides: int = 30
    hidden_size: int = 1000
    # penalties; None keeps the method's default, and a method that does not
    # read one refuses it (see DEFAULT_PENALTIES)
    c_s: float | None = None
    c_t: float | None = None
    c_tu: float | None = None
    runs: int = 10
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
        for name, low in (("runs", 1), ("hidden_size", 1), ("base_seed", 0), ("jobs", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
        if self.k_guides < 2 and not (self.method == "elm" and self.k_guides == 0):
            raise ValueError("k_guides must be >= 2 (0 allowed for plain elm)")
        reads = DEFAULT_PENALTIES[self.method]
        for name in ("c_s", "c_t", "c_tu"):
            value = getattr(self, name)
            if value is None:
                continue
            if not 0 <= float(value) < np.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be finite and non-negative")
            if name not in reads:
                raise ValueError(f"{name} is not a penalty of {self.method}, which reads "
                                 f"only {', '.join(reads)}")
        if self.method != "daelm-s" and self.c_s == 0:  # every default is positive
            raise ValueError(f"c_s must be positive for {self.method}, "
                             "which trains a plain ELM with it")

    def resolved_penalties(self) -> dict[str, float]:
        """The method's default penalties, with every one that is set laid over them."""
        return {name: default if getattr(self, name) is None else float(getattr(self, name))
                for name, default in DEFAULT_PENALTIES[self.method].items()}


@dataclass(frozen=True)
class TaskResult:
    source_batch: int
    target_batch: int
    accuracies: tuple[float, ...]  # per-run accuracy, percent

    def __post_init__(self):
        if not self.accuracies:
            raise ValueError("accuracies must hold at least one run")
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
        """Mean of the task means; ValueError on a report with no tasks."""
        if not self.tasks:
            raise ValueError("a report with no tasks has no average")
        return float(np.mean([t.mean for t in self.tasks]))

    @property
    def label(self) -> str:
        return f"{self.method}({self.k_guides})" if self.k_guides else self.method


def _task_pairs(setting: str) -> list[tuple[int, int]]:
    """(source, target) batch ids of a setting's nine tasks."""
    if setting == "fixed-source":
        return [(BATCH_IDS[0], k) for k in BATCH_IDS[1:]]
    return list(zip(BATCH_IDS, BATCH_IDS[1:]))


def _batch_pairs(cfg: ExperimentConfig, corpus: list[SampleSet],
                 ids: list[tuple[int, int]]
                 ) -> list[tuple[ScalerParams, SampleSet, SampleSet]]:
    """(scaler, source, target) per (source, target) batch-id pair, checked.

    The batches are the corpus's own, unscaled. Under the global scaler all
    pairs share one scaler, so a batch that two tasks read is the same batch
    under the same scaler in both (see `RunMap`).
    """
    by_id = {b.batch_id: b for b in corpus}
    missing = [i for i in BATCH_IDS if i not in by_id]
    if missing:
        raise DataError(f"missing batches: {missing}")
    unknown = sorted({bid for pair in ids for bid in pair} - by_id.keys())
    if unknown:
        raise DataError(f"batch {unknown[0]} is not in the corpus")
    shared = fit_scaler(corpus) if cfg.scaler_scope == "global" else None
    return [(shared or fit_scaler([by_id[s], by_id[t]]), by_id[s], by_id[t]) for s, t in ids]


def _select(pairs: list[tuple[ScalerParams, SampleSet, SampleSet]],
            k: int) -> list[np.ndarray | None]:
    """k guide indices per pair's target (None when k is 0), every target
    checked first; each target is scaled only for its own selection."""
    for _, _, target in pairs:
        if k >= target.n_samples:
            raise DataError(f"k_guides={k} must be below the target batch size "
                            f"({target.n_samples})")
    return [ssa_select(apply_scaler(scaler, target.features), k) if k else None
            for scaler, _, target in pairs]


class RunMap:
    """One run's feature maps, and the one term it carries between pairs.

    ``base`` is drawn at the run's seed; daelm-t then draws its coupled
    model's ``fmap`` at the seed plus `TARGET_MAP_SEED_OFFSET`, and for every
    other method ``fmap is base``. ``held`` is the `_part` of the batch the
    next pair reads as its source, or None; the pair before sets it only when
    the next pair reads that batch under the same scaler.
    """

    def __init__(self, cfg: ExperimentConfig, n_features: int, run_seed: int):
        shape = (cfg.hidden_size, n_features, cfg.activation)
        self.base = new_feature_map(*shape, run_seed)
        self.fmap = (new_feature_map(*shape, run_seed + TARGET_MAP_SEED_OFFSET)
                     if cfg.method == "daelm-t" else self.base)
        self.held: np.ndarray | None = None


def _project(fmap, scaler: ScalerParams, batch: SampleSet) -> np.ndarray:
    """``fmap``'s H of ``batch`` scaled by ``scaler``; the scaled copy is not kept."""
    return hidden_output(fmap, apply_scaler(scaler, batch.features))


def _part(cfg: ExperimentConfig, h: np.ndarray, batch: SampleSet) -> np.ndarray:
    """What a pair reads from its source ``batch``, whose H through the base
    map is ``h``: daelm-s, whose ``base`` is ``fmap``, reads ``h``; elm and
    daelm-t read the weights of the ELM trained on it alone."""
    if cfg.method == "daelm-s":
        return h
    return train_elm(h, encode_targets(batch.labels, N_CLASSES),
                     cfg.resolved_penalties()["c_s"])


def _source_term(cfg: ExperimentConfig, run: RunMap,
                 pair: tuple[ScalerParams, SampleSet, SampleSet], ks: list[int],
                 then: SampleSet | None = None
                 ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """What every task of ``pair`` at the counts ``ks`` reads from its
    source: its `_part`, which daelm-t turns into the base ELM's scores of
    the whole target, or None for elm with guides only; and, for daelm-t,
    the target's base H, done with once the term is made, which each count
    may overwrite with its own projection of the target (else None). The
    held part, if any, is this source's. ``then`` is the batch the next pair
    reads as its source under this scaler, if any; its part is held if it is
    this source, or for daelm-t the target, from the target's base H."""
    scaler, source, target = pair
    if cfg.method == "elm" and 0 not in ks:
        return None, None
    part, run.held = run.held, None
    if part is None:
        part = _part(cfg, _project(run.base, scaler, source), source)
    if then is source:
        run.held = part
    if cfg.method != "daelm-t":
        return part, None
    h = _project(run.base, scaler, target)
    if then is target:
        run.held = _part(cfg, h, target)
    return h @ part, h


def fit(cfg: ExperimentConfig, run: RunMap,
        pair: tuple[ScalerParams, SampleSet, SampleSet], guides: np.ndarray | None,
        term: np.ndarray | None, out: np.ndarray | None = None
        ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Train ``cfg.method`` on one (scaler, source, target) pair whose guides
    are the target rows ``guides`` (None: no guides), with one run's maps and
    the pair's source term (see `_source_term`); the weights predict through
    ``run.fmap``. daelm-t projects the target's rows into ``out`` if it is
    given, an array of the target's H. Returns the weights, the ascending row
    indices of the rest (None: the whole target) and, for daelm-t, which
    trains on the rest's H, the rest's scores, that H times the weights (None
    for the other methods)."""
    if guides is None:  # elm without guides: the source's own ELM
        return term, None, None
    pens = cfg.resolved_penalties()
    (scaler, source, target), m = pair, N_CLASSES
    labeled, rest = split_target(target, guides)
    if cfg.method == "daelm-t":
        # the coupled model is pulled toward the base classifier's scores of
        # the rest; both of its blocks are views of one projection of the
        # target's rows, the rest (ascending) and then the guides
        h = hidden_output(run.fmap, apply_scaler(
            scaler, np.vstack([target.features[rest], labeled.features])), out)
        h_rest = h[:rest.size]
        beta = train_daelm_t(h[rest.size:], encode_targets(labeled.labels, m),
                             h_rest, term[rest], pens["c_t"], pens["c_tu"])
        return beta, rest, h_rest @ beta
    if cfg.method == "daelm-s":
        beta = train_daelm_s(term, encode_targets(source.labels, m),
                             _project(run.fmap, scaler, labeled),
                             encode_targets(labeled.labels, m), pens["c_s"], pens["c_t"])
    else:  # elm on source rows plus the labeled guides
        feats = np.vstack([apply_scaler(scaler, s.features) for s in (source, labeled)])
        labels = np.concatenate([source.labels, labeled.labels])
        beta = train_elm(hidden_output(run.fmap, feats), encode_targets(labels, m),
                         pens["c_s"])
    return beta, rest, None


def _pair_accuracies(cfg: ExperimentConfig, run: RunMap,
                     pair: tuple[ScalerParams, SampleSet, SampleSet],
                     indices: np.ndarray | None, ks: list[int],
                     next_pair: tuple[ScalerParams, SampleSet, SampleSet] | None
                     ) -> list[float]:
    """One run's accuracy in percent on one (scaler, source, target) pair at
    each count in ``ks``, whose guides are prefixes of ``indices``, before
    the run's ``next_pair``, if any. elm and daelm-s keep each count's
    weights and rest indices until every count is trained, and only then
    project the target, so that no target H is alive at their solves. If
    the next pair reads the target, its part comes from the target's whole
    H; else the target is projected in ceil(n / B) equal row blocks, with
    B = ``_SCRATCH_VALUES // L`` rows, and each count's labels are filled
    in block by block. Equal blocks keep the smallest at about B/2 rows:
    OpenBLAS's small-matrix kernels can give a few rows other bits than a
    larger projection does."""
    scaler, _, target = pair
    # the batch the next pair reads as its source, if it reads it under this scaler
    then = next_pair[1] if next_pair is not None and next_pair[0] is scaler else None
    term, base_h = _source_term(cfg, run, pair, ks, then)
    reads = term is not None
    acc, unscored = [0.0] * len(ks), []
    for i, k in enumerate(ks):
        beta, rest, scores = fit(cfg, run, pair, indices[:k] if k else None, term,
                                 base_h)
        if scores is None:
            unscored.append((i, rest, beta))
        else:
            acc[i] = 100.0 * accuracy(labels_from_scores(scores), target.labels[rest])
        del beta, rest, scores  # not kept into the next count's fit
    del term, base_h  # held on only if the next pair reads it
    if unscored:
        whole = reads and then is target
        n = target.n_samples
        blocks = 1 if whole else -(-n // max(1, _SCRATCH_VALUES // run.fmap.hidden_size))
        predicted = np.empty((len(unscored), n), dtype=np.int64)
        for b in range(blocks):
            lo, hi = b * n // blocks, (b + 1) * n // blocks
            h = hidden_output(run.fmap, apply_scaler(scaler, target.features[lo:hi]))
            if whole:
                run.held = _part(cfg, h, target)
            for labels, (_, _, beta) in zip(predicted, unscored):
                labels[lo:hi] = labels_from_scores(h @ beta)
            del h  # not kept into the next block's projection
        for labels, (i, rest, _) in zip(predicted, unscored):
            rows = slice(None) if rest is None else rest
            acc[i] = 100.0 * accuracy(labels[rows], target.labels[rows])
    return acc


def sweep_guides(cfg: ExperimentConfig, corpus: list[SampleSet],
                 ks: list[int]) -> list[ExperimentReport]:
    """One report per guide count in ``ks``, in that order.

    Every guide count is checked against every target before any work. Each
    target is then selected once, at the largest count, and each count takes
    a prefix of that selection: greedy max-min picks do not depend on k. A
    run draws one `RunMap` and goes through the pairs in order, every count
    of a pair in a row (see `_pair_accuracies`), splitting each count's
    guides off its target when it reaches it.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    for k in ks:
        replace(cfg, k_guides=k)  # refuses a count the config would refuse
    pairs = _batch_pairs(cfg, corpus, _task_pairs(cfg.setting))
    selections = _select(pairs, max(ks))
    acc = np.empty((len(ks), len(pairs), cfg.runs))

    def run(r):
        run_map = RunMap(cfg, pairs[0][1].n_features, cfg.base_seed + r)
        for p, (pair, indices, next_pair) in enumerate(zip(pairs, selections,
                                                           [*pairs[1:], None])):
            acc[:, p, r] = _pair_accuracies(cfg, run_map, pair, indices, ks, next_pair)

    if cfg.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # a jobs = 1 run never needs it
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            list(pool.map(run, range(cfg.runs)))
    else:  # on this thread, not a one-worker pool: a worker thread allocates from
        # its own glibc malloc arena, which raised peak RSS by 6 % (137 -> 145 MB)
        for r in range(cfg.runs):
            run(r)

    return [ExperimentReport(cfg.method, cfg.setting, k, tuple(
        TaskResult(source.batch_id, target.batch_id, tuple(row))
        for (_, source, target), row in zip(pairs, rows))) for k, rows in zip(ks, acc)]


def run_experiment(cfg: ExperimentConfig, corpus: list[SampleSet]) -> ExperimentReport:
    """The nine tasks of ``cfg.setting``, averaged over ``cfg.runs`` runs."""
    return sweep_guides(cfg, corpus, [cfg.k_guides])[0]


def fit_pair(cfg: ExperimentConfig, corpus: list[SampleSet], source_id: int,
             target_id: int) -> tuple[Classifier, ScalerParams]:
    """One classifier for one (source, target) batch pair, and its scaler.

    The pair is scaled, checked and split as the protocols do it, and trained
    with the maps of run 0 (seed ``cfg.base_seed``). No protocol task scores
    the batch it trains on, so neither may this one.
    """
    if source_id == target_id:
        raise DataError(f"batch {source_id} cannot be both the source and the target")
    [pair] = pairs = _batch_pairs(cfg, corpus, [(source_id, target_id)])
    [indices] = _select(pairs, cfg.k_guides)
    run = RunMap(cfg, pair[1].n_features, cfg.base_seed)
    beta, _, _ = fit(cfg, run, pair, indices, *_source_term(cfg, run, pair, [cfg.k_guides]))
    return Classifier(run.fmap, beta), pair[0]


REPORT_FORMATS = ("table", "csv", "jsonl")


def _csv_rows(report: ExperimentReport) -> list[str]:
    """One ``source,target,run,accuracy`` row per run of every task."""
    return [f"{task.source_batch},{task.target_batch},{r},{a!r}"
            for task in report.tasks for r, a in enumerate(task.accuracies)]


def emit_report(report: ExperimentReport, fmt: str = "table") -> str:
    """Deterministic text rendering of a report."""
    if fmt == "csv":
        return "\n".join(["source,target,run,accuracy", *_csv_rows(report)]) + "\n"
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
    lines += [f"{report.k_guides},{row}" for report in reports for row in _csv_rows(report)]
    return "\n".join(lines) + "\n"
