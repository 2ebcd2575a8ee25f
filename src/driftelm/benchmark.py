"""Drift-compensation benchmark protocols.

Two protocols over a 10-batch corpus: fixed-source (train on batch 1, test
on batches 2..10) and rolling-source (train on batch K-1, test on batch K).
Each task selects k guide samples from the target batch, trains the chosen
method, and scores the unlabeled remainder; runs repeat with consecutive
seeds and are averaged.

Across runs only the caller's unscaled batches, each task's scaler and the
guide indices are kept: a target is scaled only for its selection, a run
splits each task's guides off its target when it reaches the task and
keeps the rest as row indices, and every hidden layer gathers and scales
the rows it projects. The work is run-major: a run builds its feature maps
once from its seed and goes through the nine tasks in order. A hidden
output is computed once and read again when a later step of the run reads
the very same rows under the very same scaler: a daelm-t rest, a fixed
daelm-s source, or a rolling target without guides, which is the next
task's source under the global scaler. A map keeps an H only until the
last step of the run that reads it, and the ELM trained on the source
alone while that source is read, without the source's H (see `RunMap`).
`sweep_guides` is the one protocol and `fit` the one training path;
`fit_pair` builds the one task of the `train` command as the protocols
build theirs. With ``jobs > 1`` whole runs go to a thread pool; results do
not depend on it.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataset import (BATCH_IDS, N_CLASSES, DataError, SampleSet,
                      ScalerParams, apply_scaler, encode_targets, fit_scaler)
from .feature_map import (ACTIVATIONS, RandomFeatureMap, hidden_output,
                          new_feature_map)
from .guide_selection import split_target, ssa_select
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


@dataclass(frozen=True, eq=False)
class Task:
    """One (source, target) task, unscaled, and the scaler it is projected through.

    The rest, the target rows a task scores, is kept as row indices into the
    target and gathered only to be projected. Like a `SampleSet`, a task
    compares and hashes by identity, so an H of its rest can be kept by it
    (see `rest_key`).
    """

    scaler: ScalerParams
    source: SampleSet          # labeled
    target: SampleSet          # the whole target batch
    guides: SampleSet | None   # labeled target rows the trainer sees
    rest: np.ndarray | None    # ascending indices of the other rows; None: all

    @property
    def rest_key(self) -> SampleSet | Task:
        """What an H of the rest is kept by: the target batch when the rest is
        all of it, which a rolling run reads again as the next source, and
        this task otherwise."""
        return self.target if self.rest is None else self


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


def _task(scaler: ScalerParams, source: SampleSet, target: SampleSet,
          indices: np.ndarray | None, k: int) -> Task:
    """The task whose guides are the first k selected rows of ``target``."""
    if not k:
        return Task(scaler, source, target, None, None)
    return Task(scaler, source, target, *split_target(target, indices[:k]))


class RunMap:
    """One run's feature map and the hidden outputs a later step may read.

    An H is kept by the identity of the rows it projects, a batch or a
    task's rest (see `Task.rest_key`), and of the scaler that scales them;
    the scaled copy it is projected from is not kept. A later step of the
    same run reads the same rows under the same scaler in three cases: a
    daelm-t rest, trained on and then scored; a fixed daelm-s source, which
    every task reads; and a rolling target without guides, which is the next
    task's source under the global scaler. So a map keeps each H that
    `output` computes, read-only, until the run lets it go with `keep_only`,
    which the run calls to keep only what its next step reads. The ELM
    weights trained on the source alone (the daelm-t base classifier, or elm
    without guides) are kept too, but not the source's H (see `source_elm`).
    """

    def __init__(self, fmap: RandomFeatureMap):
        self.fmap = fmap
        # (batch or task, scaler) -> H; all compare and hash by identity, not values
        self._kept: dict[tuple[SampleSet | Task, ScalerParams], np.ndarray] = {}
        self._source_elm: tuple = (None, None, None, None)  # source, scaler, c, weights

    def output(self, rows: SampleSet | Task, scaler: ScalerParams,
               scaled: np.ndarray | None = None) -> np.ndarray:
        """H of ``rows``, a batch or a task standing for its rest (a key
        `Task.rest_key` gives), scaled by ``scaler`` and kept until
        `keep_only` lets it go; ``scaled``, when given, is that scaled copy,
        already made."""
        key = (rows, scaler)
        if key not in self._kept:
            if scaled is None:
                scaled = apply_scaler(scaler, rows.target.features[rows.rest]
                                      if isinstance(rows, Task) else rows.features)
            h = hidden_output(self.fmap, scaled)
            h.flags.writeable = False
            self._kept[key] = h
        return self._kept[key]

    def keep_only(self, *keys: tuple[SampleSet | Task, ScalerParams]) -> None:
        """Drop every kept H but those of the (rows, scaler) pairs ``keys``."""
        self._kept = {key: h for key, h in self._kept.items() if key in keys}

    def source_elm(self, source: SampleSet, scaler: ScalerParams, c: float) -> np.ndarray:
        """ELM weights on ``source`` scaled by ``scaler``, with penalty ``c``,
        read-only and trained once while all three stay this map's source.

        The source's H is read only to train them: a kept one if there is
        one (in a rolling run, the previous target's), or else one projected
        for this training and not kept.
        """
        if self._source_elm[:3] != (source, scaler, c):  # compared by identity
            h = self._kept.get((source, scaler))
            if h is None:
                h = hidden_output(self.fmap, apply_scaler(scaler, source.features))
            beta = train_elm(h, encode_targets(source.labels, N_CLASSES), c)
            beta.flags.writeable = False
            self._source_elm = (source, scaler, c, beta)
        return self._source_elm[3]


def run_maps(cfg: ExperimentConfig, n_features: int, run_seed: int) -> list[RunMap]:
    """The feature maps of one run, base map first for daelm-t."""
    return [RunMap(new_feature_map(cfg.hidden_size, n_features, cfg.activation, seed))
            for seed in feature_map_seeds(cfg.method, run_seed)]


def fit(cfg: ExperimentConfig, task: Task, maps: list[RunMap]) -> Classifier:
    """Train ``cfg.method`` on one task with the maps of one run."""
    pens = cfg.resolved_penalties()
    scaler, source, guides, m = task.scaler, task.source, task.guides, N_CLASSES
    base, layer = maps[0], maps[-1]  # the same map unless daelm-t
    if cfg.method == "daelm-t":
        beta_base = base.source_elm(source, scaler, pens["c_s"])
        # the coupled model is pulled toward the soft scores the base classifier
        # gives the rest through its own map; the rest is gathered and scaled
        # once for both
        rest = apply_scaler(scaler, task.target.features[task.rest])
        pseudo = hidden_output(base.fmap, rest) @ beta_base
        h_rest = layer.output(task.rest_key, scaler, rest)
        del rest
        beta = train_daelm_t(hidden_output(layer.fmap, apply_scaler(scaler, guides.features)),
                             encode_targets(guides.labels, m), h_rest, pseudo,
                             pens["c_t"], pens["c_tu"])
    elif cfg.method == "daelm-s":
        beta = train_daelm_s(
            base.output(source, scaler), encode_targets(source.labels, m),
            hidden_output(layer.fmap, apply_scaler(scaler, guides.features)),
            encode_targets(guides.labels, m), pens["c_s"], pens["c_t"])
    elif guides is not None:  # elm on source rows plus the labeled guides
        feats = np.vstack([apply_scaler(scaler, s.features) for s in (source, guides)])
        labels = np.concatenate([source.labels, guides.labels])
        beta = train_elm(hidden_output(layer.fmap, feats), encode_targets(labels, m),
                         pens["c_s"])
    else:
        beta = base.source_elm(source, scaler, pens["c_s"])
    return Classifier(layer.fmap, beta)


def _score(cfg: ExperimentConfig, pairs: list[tuple[ScalerParams, SampleSet, SampleSet]],
           selections: list[np.ndarray | None]) -> ExperimentReport:
    """Run every run of one guide count; a run builds each task when it reaches it."""
    acc = np.empty((len(pairs), cfg.runs))

    def run(r):
        maps = run_maps(cfg, pairs[0][1].n_features, cfg.base_seed + r)
        for t, (pair, indices) in enumerate(zip(pairs, selections)):
            task = _task(*pair, indices, cfg.k_guides)
            after = [(source, scaler) for scaler, source, _ in pairs[t + 1:t + 2]]
            clf = fit(cfg, task, maps)
            scored = (task.rest_key, task.scaler)
            for m in maps:  # the rest H daelm-t computed is scored next
                m.keep_only(*after, scored)
            scores = maps[-1].output(*scored) @ clf.beta
            for m in maps:
                m.keep_only(*after)
            labels = task.target.labels if task.rest is None else task.target.labels[task.rest]
            acc[t, r] = 100.0 * accuracy(labels_from_scores(scores), labels)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            list(pool.map(run, range(cfg.runs)))
    else:
        for r in range(cfg.runs):
            run(r)

    results = tuple(TaskResult(source.batch_id, target.batch_id, tuple(acc[t]))
                    for t, (_, source, target) in enumerate(pairs))
    return ExperimentReport(cfg.method, cfg.setting, cfg.k_guides, results)


def sweep_guides(cfg: ExperimentConfig, corpus: list[SampleSet],
                 ks: list[int]) -> list[ExperimentReport]:
    """One report per guide count in ``ks``, in that order.

    Every guide count is checked against every target before any work. Each
    target is then selected once, at the largest count, and each count takes
    a prefix of that selection: greedy max-min picks do not depend on k.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    cfgs = [replace(cfg, k_guides=k) for k in ks]
    pairs = _batch_pairs(cfg, corpus, _task_pairs(cfg.setting))
    selections = _select(pairs, max(ks))
    return [_score(k_cfg, pairs, selections) for k_cfg in cfgs]


def run_experiment(cfg: ExperimentConfig, corpus: list[SampleSet]) -> ExperimentReport:
    """The nine tasks of ``cfg.setting``, averaged over ``cfg.runs`` runs."""
    return sweep_guides(cfg, corpus, [cfg.k_guides])[0]


def fit_pair(cfg: ExperimentConfig, corpus: list[SampleSet], source_id: int,
             target_id: int) -> tuple[Classifier, ScalerParams]:
    """One classifier for one (source, target) batch pair, and its scaler.

    The task is scaled, checked and split as the protocols do it, and trained
    with the maps of run 0 (seed ``cfg.base_seed``). No protocol task scores
    the batch it trains on, so neither may this one.
    """
    if source_id == target_id:
        raise DataError(f"batch {source_id} cannot be both the source and the target")
    [pair] = pairs = _batch_pairs(cfg, corpus, [(source_id, target_id)])
    [indices] = _select(pairs, cfg.k_guides)
    task = _task(*pair, indices, cfg.k_guides)
    return fit(cfg, task, run_maps(cfg, task.source.n_features, cfg.base_seed)), task.scaler


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
