import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftelm.benchmark
from driftelm import (DataError, ExperimentConfig, accuracy, apply_scaler, emit_report,
                      emit_sweep_csv, encode_targets, fit_scaler, hidden_output,
                      labels_from_scores, new_feature_map, run_experiment, solve_ridge,
                      ssa_select, sweep_guides)
from driftelm.benchmark import DEFAULT_PENALTIES, TARGET_MAP_SEED_OFFSET, RunMap, TaskResult
from driftelm.dataset import N_CLASSES

from conftest import make_drift_corpus

FAST = dict(k_guides=4, hidden_size=30, runs=2, base_seed=5)


class TestConfig:
    def test_defaults_are_the_protocol_values(self):
        cfg = ExperimentConfig()
        assert cfg.hidden_size == 1000
        assert cfg.runs == 10
        assert cfg.activation == "radbas"
        assert DEFAULT_PENALTIES == {"elm": {"c_s": 1.0},
                                     "daelm-s": {"c_s": 0.01, "c_t": 10.0},
                                     "daelm-t": {"c_s": 0.001, "c_t": 0.001, "c_tu": 100.0}}
        assert cfg.resolved_penalties() == DEFAULT_PENALTIES["daelm-s"]

    @pytest.mark.parametrize("method, name", [("elm", "c_t"), ("elm", "c_tu"),
                                              ("daelm-s", "c_tu")])
    def test_a_penalty_the_method_does_not_read_is_refused(self, method, name):
        with pytest.raises(ValueError, match=f"^{name} is not a penalty of {method},"):
            ExperimentConfig(method=method, **{name: 5.0})
        with pytest.raises(ValueError, match=f"^{name} is not a penalty of {method},"):
            ExperimentConfig(method=method, **{name: 0.0})

    def test_c_s_must_be_positive_where_a_plain_elm_trains_with_it(self):
        for method in ("elm", "daelm-t"):
            with pytest.raises(ValueError, match=f"^c_s must be positive for {method},"):
                ExperimentConfig(method=method, c_s=0.0)
        # a zero weight drops its block from a coupled objective
        for method, name in (("daelm-s", "c_s"), ("daelm-s", "c_t"),
                             ("daelm-t", "c_t"), ("daelm-t", "c_tu")):
            cfg = ExperimentConfig(method=method, **{name: 0})
            assert cfg.resolved_penalties()[name] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="svm")
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)
        with pytest.raises(ValueError, match="base_seed"):
            ExperimentConfig(base_seed=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(method="daelm-s", k_guides=0)
        ExperimentConfig(method="elm", k_guides=0)  # plain source-only elm

    def test_daelm_t_uses_two_distinct_seeds(self):
        run = RunMap(ExperimentConfig(method="daelm-t", hidden_size=8), 4, 11)
        assert run.base.seed == 11 and run.fmap.seed != run.base.seed
        run = RunMap(ExperimentConfig(method="daelm-s", hidden_size=8), 4, 11)
        assert run.fmap is run.base and run.base.seed == 11


class TestProtocols:
    def test_setting1_task_pairing(self, small_drift_corpus):
        report = run_experiment(ExperimentConfig(method="elm", **FAST), small_drift_corpus)
        assert [(t.source_batch, t.target_batch) for t in report.tasks] \
            == [(1, k) for k in range(2, 11)]
        assert report.setting == "fixed-source"

    def test_setting2_task_pairing(self, small_drift_corpus):
        report = run_experiment(
            ExperimentConfig(method="elm", setting="rolling-source", **FAST),
            small_drift_corpus)
        assert [(t.source_batch, t.target_batch) for t in report.tasks] \
            == [(k - 1, k) for k in range(2, 11)]

    def test_reproducible(self, small_drift_corpus):
        cfg = ExperimentConfig(method="daelm-s", **FAST)
        a = run_experiment(cfg, small_drift_corpus)
        b = run_experiment(cfg, small_drift_corpus)
        assert a == b

    def test_seed_changes_results(self, small_drift_corpus):
        cfg = ExperimentConfig(method="daelm-s", **FAST)
        other = ExperimentConfig(method="daelm-s", k_guides=4, hidden_size=30,
                                 runs=2, base_seed=999)
        a = run_experiment(cfg, small_drift_corpus)
        b = run_experiment(other, small_drift_corpus)
        assert any(x.accuracies != y.accuracies for x, y in zip(a.tasks, b.tasks))

    def test_average_is_mean_of_task_means(self, small_drift_corpus):
        report = run_experiment(ExperimentConfig(method="daelm-t", **FAST),
                              small_drift_corpus)
        recomputed = float(np.mean([np.mean(t.accuracies) for t in report.tasks]))
        assert abs(report.average - recomputed) < 1e-12

    def test_all_methods_run(self, small_drift_corpus):
        for method in ("elm", "daelm-s", "daelm-t"):
            report = run_experiment(
                ExperimentConfig(method=method, **FAST), small_drift_corpus)
            assert len(report.tasks) == 9
            for t in report.tasks:
                assert len(t.accuracies) == 2
                assert all(0.0 <= a <= 100.0 for a in t.accuracies)

    def test_jobs_parallelism_is_deterministic(self, small_drift_corpus):
        serial = run_experiment(ExperimentConfig(method="daelm-s", **FAST),
                              small_drift_corpus)
        threaded = run_experiment(ExperimentConfig(method="daelm-s", jobs=4, **FAST),
                                small_drift_corpus)
        assert serial == threaded
        # jobs spreads whole runs over threads: the CSV bytes do not move
        for method in ("elm", "daelm-s", "daelm-t"):
            for setting in ("fixed-source", "rolling-source"):
                cfg = ExperimentConfig(method=method, setting=setting,
                                       **dict(FAST, runs=3))
                assert (emit_report(run_experiment(replace(cfg, jobs=2),
                                                   small_drift_corpus), "csv")
                        == emit_report(run_experiment(cfg, small_drift_corpus), "csv"))

    def test_pair_scaler_scope(self, small_drift_corpus):
        cfg = ExperimentConfig(method="daelm-s", scaler_scope="pair", **FAST)
        report = run_experiment(cfg, small_drift_corpus)
        assert len(report.tasks) == 9

    def test_missing_batch_rejected(self, small_drift_corpus):
        with pytest.raises(DataError, match="missing"):
            run_experiment(ExperimentConfig(method="elm", **FAST),
                         small_drift_corpus[:8])

    def test_oversized_guide_request_rejected(self, small_drift_corpus):
        cfg = ExperimentConfig(method="daelm-s", k_guides=500, hidden_size=20,
                               runs=1, base_seed=0)
        with pytest.raises(DataError, match="k_guides"):
            run_experiment(cfg, small_drift_corpus)

    def test_guides_help_under_drift(self, drift_corpus):
        """On drifted batches the adapted model beats the source-only elm."""
        base = ExperimentConfig(method="elm", k_guides=0, hidden_size=60, runs=2,
                                base_seed=2)
        adapted = ExperimentConfig(method="daelm-s", k_guides=30, hidden_size=60,
                                   runs=2, base_seed=2)
        plain = run_experiment(base, drift_corpus)
        helped = run_experiment(adapted, drift_corpus)
        assert helped.average > plain.average + 10.0

    def test_synthetic_drift_reduces_source_accuracy(self, drift_corpus):
        """Later (more drifted) batches score worse than batch 2 for plain elm."""
        cfg = ExperimentConfig(method="elm", k_guides=0, hidden_size=60, runs=2,
                               base_seed=2)
        report = run_experiment(cfg, drift_corpus)
        assert report.tasks[-1].mean < report.tasks[0].mean - 15.0

    def test_daelm_t_transfers_base_knowledge(self, drift_corpus):
        """The coupled model must not collapse below the source-only baseline.

        Its unlabeled term pulls toward the base classifier's own scores, so
        on mild drift it should track or beat a plain source-trained elm.
        """
        plain = run_experiment(
            ExperimentConfig(method="elm", k_guides=0, hidden_size=60, runs=2,
                             base_seed=2), drift_corpus)
        coupled = run_experiment(
            ExperimentConfig(method="daelm-t", k_guides=10, hidden_size=60, runs=2,
                             base_seed=2), drift_corpus)
        assert coupled.average > plain.average - 5.0
        # early, mildly drifted batches stay far above chance (1/6)
        assert coupled.tasks[0].mean > 60.0


def reference_tasks(cfg, corpus, ks):
    """Per guide count in ``ks``, each task's (source, target, per-run
    accuracies), computed from the package's public functions only.

    Each method's ridge blocks are written out, and the scores of the rest:
        elm:      (H, T, c_s) of the source rows stacked over the guide rows
        daelm-s:  (Hs, Ts, c_s) and (Hg, Tg, c_t)
                  both score the rest's rows of the whole target's H times
                  the weights
        daelm-t:  (Hg, Tg, c_t) and (H_rest, pseudo, c_tu) through the
                  second map, both rows of one projection of the rest and
                  then the guides, and scores H_rest times the weights;
                  pseudo is the rest's rows of the base map's H of the whole
                  target times the base ELM, trained on the source through
                  the base map
    """
    pens = cfg.resolved_penalties()
    ids = ([(1, t) for t in range(2, 11)] if cfg.setting == "fixed-source"
           else [(t - 1, t) for t in range(2, 11)])
    shape = (cfg.hidden_size, corpus[0].n_features, cfg.activation)
    maps = []  # per run: the base map, and the map the model predicts through
    for r in range(cfg.runs):
        base = new_feature_map(*shape, cfg.base_seed + r)
        maps.append((base, new_feature_map(*shape, cfg.base_seed + r + TARGET_MAP_SEED_OFFSET)
                     if cfg.method == "daelm-t" else base))
    result = [[] for _ in ks]
    for s, t in ids:
        source, target = corpus[s - 1], corpus[t - 1]
        scaler = fit_scaler(corpus if cfg.scaler_scope == "global" else [source, target])
        xs, xt = apply_scaler(scaler, source.features), apply_scaler(scaler, target.features)
        ts = encode_targets(source.labels, N_CLASSES)
        for tasks, k in zip(result, ks):
            picked = ssa_select(xt, k) if k else np.arange(0)
            rest = np.setdiff1d(np.arange(target.n_samples), picked)
            tg = encode_targets(target.labels[picked], N_CLASSES) if k else ts[:0]
            accuracies = []
            for base, fmap in maps:
                if cfg.method == "daelm-t":
                    beta0 = solve_ridge([(hidden_output(base, xs), ts, pens["c_s"])])
                    h = hidden_output(fmap, xt[np.concatenate([rest, picked])])
                    h_rest = h[:rest.size]
                    blocks = [(h[rest.size:], tg, pens["c_t"]),
                              (h_rest, (hidden_output(base, xt) @ beta0)[rest], pens["c_tu"])]
                    scores = h_rest @ solve_ridge(blocks)
                else:
                    if cfg.method == "elm":
                        blocks = [(hidden_output(fmap, np.vstack([xs, xt[picked]])),
                                   np.vstack([ts, tg]), pens["c_s"])]
                    else:
                        blocks = [(hidden_output(fmap, xs), ts, pens["c_s"]),
                                  (hidden_output(fmap, xt[picked]), tg, pens["c_t"])]
                    scores = (hidden_output(fmap, xt) @ solve_ridge(blocks))[rest]
                accuracies.append(100.0 * accuracy(labels_from_scores(scores),
                                                   target.labels[rest]))
            tasks.append((s, t, tuple(accuracies)))
    return result


# The protocol's work is counted where it calls each kind: the name, at the
# module that binds it. A change that moves such a call re-points its site here.
WORK_SITES = {"maps": (driftelm.benchmark, "new_feature_map"),
              "projections": (driftelm.benchmark, "hidden_output"),
              "solves": (driftelm.solvers, "solve_ridge")}

# Upper bounds on one run's work, (maps drawn, hidden outputs computed, ridge
# solves), per (method, guide counts, setting) on small_drift_corpus at FAST;
# each count scales with the runs. They are today's counts: a change that
# does less work lowers its row. A target split into row blocks counts one
# projection per block; no target of this corpus splits at FAST.
WORK_PER_RUN = {
    ("elm", (0,), "fixed-source"): (1, 10, 1),
    ("elm", (0,), "rolling-source"): (1, 10, 9),
    ("elm", (4,), "fixed-source"): (1, 18, 9),
    ("elm", (4,), "rolling-source"): (1, 18, 9),
    ("daelm-s", (4,), "fixed-source"): (1, 19, 9),
    ("daelm-s", (4,), "rolling-source"): (1, 19, 9),
    ("daelm-t", (4,), "fixed-source"): (2, 19, 10),
    ("daelm-t", (4,), "rolling-source"): (2, 19, 18),
    ("elm", (0, 2, 4), "fixed-source"): (1, 28, 19),
    ("elm", (0, 2, 4), "rolling-source"): (1, 28, 27),
    ("daelm-s", (2, 6, 4), "fixed-source"): (1, 37, 27),
    ("daelm-s", (2, 6, 4), "rolling-source"): (1, 37, 27),
    ("daelm-t", (2, 6, 4), "fixed-source"): (2, 37, 28),
    ("daelm-t", (2, 6, 4), "rolling-source"): (2, 37, 36),
}

# Upper bounds on the bytes alive (as tracemalloc counts them) when any ridge
# solve starts, in KiB, per (method, k, setting) on memory_corpus with 100
# hidden units, 2 runs and seed 3, measured after one warm-up sweep: today's
# value, rounded up, plus 64 KiB. A gathered rest held through a solve adds
# about 150 KiB, and a source H kept beside its ELM, or a previous target's
# H that nothing reads, about 470 KiB.
SOLVE_MEMORY_KIB = {
    ("daelm-t", 10, "fixed-source"): 610 + 64,
    ("daelm-t", 10, "rolling-source"): 610 + 64,
    ("elm", 0, "rolling-source"): 585 + 64,
    ("elm", 10, "rolling-source"): 710 + 64,
    ("daelm-s", 10, "fixed-source"): 615 + 64,
    ("daelm-s", 10, "rolling-source"): 560 + 64,
}

# The same when any hidden-layer projection starts, besides the array it is
# handed as ``out``, its own result. Its scaled rows are alive then (150 KiB
# for a whole target), and so is the term the run holds (a fixed daelm-s
# source's H); a previous target's H kept into the next target's projection
# adds about 470 KiB.
PROJECTION_MEMORY_KIB = {
    ("daelm-t", 10, "fixed-source"): 305 + 64,
    ("daelm-t", 10, "rolling-source"): 315 + 64,
    ("elm", 0, "rolling-source"): 210 + 64,
    ("elm", 10, "rolling-source"): 205 + 64,
    ("daelm-s", 10, "fixed-source"): 690 + 64,
    ("daelm-s", 10, "rolling-source"): 555 + 64,
}

# Upper bounds on what each kind of work allocates while it runs, in KiB, in
# every run of SOLVE_MEMORY_KIB: tracemalloc's peak during the call minus the
# bytes alive as it starts (less a projection's ``out``, so a projection
# counts the H it writes either way); today's largest value, rounded up to
# the KiB, plus 64 KiB. Each states the design at L = 100: a solve holds one
# system (78 KiB for L x L) and its right-hand side, a projection one block
# of H (a whole target's 600 rows, 469 KiB), a selection the selector's
# scratch, and a scoring one block's labels. A second L x L Gram in a solve
# adds 78 KiB.
PEAK_MEMORY_KIB = {"solves": 91 + 64, "projections": 542 + 64, "selections": 6211 + 64,
                   "scorings": 10 + 64}

# Where the protocol calls each kind of work that PEAK_MEMORY_KIB budgets
MEMORY_SITES = {"solves": WORK_SITES["solves"], "projections": WORK_SITES["projections"],
                "selections": (driftelm.benchmark, "ssa_select"),
                "scorings": (driftelm.benchmark, "labels_from_scores")}


def on_call(monkeypatch, site, hook, returned=None):
    """Call ``hook(*args)`` as each call at the (module, name) ``site``
    starts, and ``returned()``, if given, as it returns."""
    module, name = site
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        hook(*args)
        result = fn(*args, **kwargs)
        if returned is not None:
            returned()
        return result

    monkeypatch.setattr(module, name, wrapper)


@pytest.fixture
def work(monkeypatch):
    """How many calls of each kind of work the test makes."""
    counts = Counter()
    for kind, site in WORK_SITES.items():
        on_call(monkeypatch, site, lambda *args, kind=kind: counts.update([kind]))
    return counts


@pytest.fixture(scope="module")
def memory_corpus():
    return make_drift_corpus(n_features=32, per_class_source=100, per_class_target=100,
                             seed=11)


class TestReuse:
    """A run draws its maps once and shares them across its tasks and guide
    counts: the results equal the reference's fresh maps per task, and the
    work and the bytes alive stay within budget."""

    @pytest.mark.parametrize("setting", ["fixed-source", "rolling-source"])
    @pytest.mark.parametrize("method, ks, scope", [
        pytest.param(method, ks, scope,
                     id=f"{method}-{ks[0]}" + ("-pair" if scope == "pair" else ""))
        for scope in ("global", "pair")
        for method, ks in [("elm", [0, 4, 2]), ("elm", [4, 0, 2]), ("daelm-s", [4, 6, 2]),
                           ("daelm-t", [4, 6, 2])]])
    def test_reuse_matches_fresh_maps_per_task(self, small_drift_corpus, setting,
                                               method, ks, scope):
        """Both a sweep over ``ks`` and a run at each k equal the reference.

        Under the pair scope a rolling batch is scaled one way as a target and
        another as the next source, so an H kept by batch alone fails here.
        """
        cfg = ExperimentConfig(method=method, setting=setting, scaler_scope=scope, **FAST)
        expected = reference_tasks(cfg, small_drift_corpus, ks)
        for reports in (sweep_guides(cfg, small_drift_corpus, ks),
                        [run_experiment(replace(cfg, k_guides=k), small_drift_corpus)
                         for k in ks]):
            assert [[(t.source_batch, t.target_batch, t.accuracies) for t in report.tasks]
                    for report in reports] == expected

    @pytest.mark.parametrize("setting, method, ks, blocked", [
        ("fixed-source", "elm", [0, 10], 9), ("fixed-source", "elm", [10], 9),
        ("fixed-source", "daelm-s", [10], 9), ("rolling-source", "elm", [0, 10], 1),
        ("rolling-source", "elm", [10], 9), ("rolling-source", "daelm-s", [10], 1)],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, list) else None)
    def test_blocked_targets_match_the_whole_projection(self, memory_corpus, monkeypatch,
                                                        setting, method, ks, blocked):
        """With the block budget forced to 200 rows of H, each of the
        ``blocked`` targets that no next pair reads is projected in three
        blocks of 200 rows, and the results still equal the reference's
        scores from the whole target's H.

        Blocks of a few rows may take other bits than the whole projection
        (OpenBLAS's small-matrix kernels), so this corpus is used, not
        small_drift_corpus, whose 36-row targets would split into such blocks.
        """
        cfg = ExperimentConfig(method=method, setting=setting, hidden_size=100, runs=2,
                               base_seed=3)
        expected = reference_tasks(cfg, memory_corpus, ks)
        rows = []

        def counted(fmap, x):
            rows.append(len(x))
            return hidden_output(fmap, x)

        monkeypatch.setattr(driftelm.benchmark, "_SCRATCH_VALUES", 200 * cfg.hidden_size)
        monkeypatch.setattr(driftelm.benchmark, "hidden_output", counted)
        reports = sweep_guides(cfg, memory_corpus, ks)
        assert [[(t.source_batch, t.target_batch, t.accuracies) for t in report.tasks]
                for report in reports] == expected
        assert {b.n_samples for b in memory_corpus[1:]} == {600}
        assert rows.count(200) == 3 * blocked * cfg.runs

    @pytest.mark.parametrize("method, ks", [("elm", (0, 10)), ("elm", (10,)),
                                            ("daelm-s", (10,))],
                             ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_no_whole_target_h_is_alive_while_a_target_is_scored(
            self, memory_corpus, monkeypatch, method, ks):
        """Under a forced budget of 200 rows of H, each fixed-source target's
        scores are read with one block of its H alive: the bytes alive at
        each read exceed those when the latest projected rows were scaled by
        less than one whole target's H.

        The whole protocol's peak cannot show this: on a small corpus it
        lies in the guide selection.
        """
        cfg = ExperimentConfig(method=method, hidden_size=100, runs=2, base_seed=3)
        monkeypatch.setattr(driftelm.benchmark, "_SCRATCH_VALUES", 200 * cfg.hidden_size)
        sweep_guides(cfg, memory_corpus, list(ks))  # warm-up, as in the solve budgets
        started, grown = [], []

        def scaled(scaler, features):
            started.append(tracemalloc.get_traced_memory()[0])
            return apply_scaler(scaler, features)

        def scored(scores):
            grown.append(tracemalloc.get_traced_memory()[0] - started[-1])
            return labels_from_scores(scores)

        monkeypatch.setattr(driftelm.benchmark, "apply_scaler", scaled)
        monkeypatch.setattr(driftelm.benchmark, "labels_from_scores", scored)
        tracemalloc.start()
        try:
            sweep_guides(cfg, memory_corpus, list(ks))
        finally:
            tracemalloc.stop()
        whole_h = 600 * cfg.hidden_size * 8  # every target has 600 rows
        assert len(grown) >= 9 * len(ks) * cfg.runs
        assert max(grown) < whole_h, (max(grown), whole_h)

    @pytest.mark.parametrize("method, ks, setting", list(WORK_PER_RUN), ids=[
        "-".join([method, *map(str, ks), setting]) for method, ks, setting in WORK_PER_RUN])
    def test_work_per_run_is_within_budget(self, small_drift_corpus, work, method, ks,
                                           setting):
        cfg = ExperimentConfig(method=method, setting=setting, **FAST)
        sweep_guides(cfg, small_drift_corpus, list(ks))
        limits = {kind: cfg.runs * n
                  for kind, n in zip(WORK_SITES, WORK_PER_RUN[method, ks, setting])}
        assert all(work[kind] <= limit for kind, limit in limits.items()), (work, limits)

    @pytest.mark.parametrize("method, ks, setting", [
        *((method, (k,), setting) for method, k, setting in SOLVE_MEMORY_KIB),
        ("daelm-s", (4, 10, 7), "fixed-source"), ("daelm-t", (4, 10, 7), "rolling-source")],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_bytes_alive_at_each_solve_are_within_budget(self, memory_corpus, monkeypatch,
                                                         method, ks, setting):
        """Each solve and each projection starts within its budget, and a
        sweep within its largest count's: no count or target holds on to
        another's H. Each solve, projection, selection and scoring also
        allocates within its budget while it runs."""
        # tracemalloc counts what is allocated after it starts: the run's arrays,
        # not the corpus, nor what a first sweep allocates once (the warm-up's)
        cfg = ExperimentConfig(method=method, setting=setting, hidden_size=100, runs=2,
                               base_seed=3)
        sweep_guides(cfg, memory_corpus, list(ks))
        alive = {kind: [] for kind in MEMORY_SITES}
        grown = {kind: [] for kind in MEMORY_SITES}

        def started(at):
            # a projection's ``out`` (its third argument) is its own result:
            # only the bytes alive besides it count
            def hook(*args):
                at.append(tracemalloc.get_traced_memory()[0]
                          - sum(out.nbytes for out in args[2:3]))
                tracemalloc.reset_peak()
            return hook

        for kind, site in MEMORY_SITES.items():
            on_call(monkeypatch, site, started(alive[kind]),
                    lambda kind=kind: grown[kind].append(
                        tracemalloc.get_traced_memory()[1] - alive[kind][-1]))
        tracemalloc.start()
        try:
            sweep_guides(cfg, memory_corpus, list(ks))
        finally:
            tracemalloc.stop()
        assert all(len(alive[kind]) >= 9 * len(ks) * cfg.runs
                   for kind in ("solves", "projections", "scorings"))
        assert len(alive["selections"]) == (9 if max(ks) else 0)
        key = method, max(ks), setting
        budgets = {"solves": SOLVE_MEMORY_KIB[key], "projections": PROJECTION_MEMORY_KIB[key]}
        peaks = {kind: max(alive[kind]) / 1024 for kind in budgets}
        assert all(peaks[kind] <= budgets[kind] for kind in peaks), (peaks, budgets)
        grown = {kind: max(at, default=0) / 1024 for kind, at in grown.items()}
        assert all(grown[kind] <= PEAK_MEMORY_KIB[kind] for kind in grown), grown

    @pytest.mark.parametrize("setting", ["fixed-source", "rolling-source"])
    @pytest.mark.parametrize("method, k", [("elm", 0), ("elm", 4), ("daelm-s", 4),
                                           ("daelm-t", 4)])
    def test_no_scaled_batch_outlives_its_projection(self, small_drift_corpus,
                                                     monkeypatch, setting, method, k):
        # the protocol holds its batches unscaled: a scaled copy is made for
        # one selection or one projection and dropped once it is done
        scaled, alive = [], []

        def tracked_scaler(scaler, features):
            out = apply_scaler(scaler, features)
            scaled.append(weakref.ref(out))
            return out

        def counted(fn):
            def wrapper(*args):
                alive.append(sum(ref() is not None for ref in scaled))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(driftelm.benchmark, "apply_scaler", tracked_scaler)
        monkeypatch.setattr(driftelm.benchmark, "hidden_output", counted(hidden_output))
        monkeypatch.setattr(driftelm.benchmark, "ssa_select", counted(ssa_select))
        cfg = ExperimentConfig(method=method, setting=setting, k_guides=k,
                               hidden_size=30, runs=2, base_seed=5)
        run_experiment(cfg, small_drift_corpus)
        assert len(alive) >= 9 * cfg.runs
        assert max(alive) <= 1


class TestSweep:
    def test_one_report_per_k(self, small_drift_corpus):
        cfg = ExperimentConfig(method="daelm-s", **FAST)
        reports = sweep_guides(cfg, small_drift_corpus, [2, 4, 6])
        assert [r.k_guides for r in reports] == [2, 4, 6]

    def test_empty_ks_rejected(self, small_drift_corpus):
        with pytest.raises(ValueError):
            sweep_guides(ExperimentConfig(**FAST), small_drift_corpus, [])

    @pytest.mark.parametrize("setting", ["fixed-source", "rolling-source"])
    @pytest.mark.parametrize("scope", ["global", "pair"])
    @pytest.mark.parametrize("method, ks", [("daelm-s", [6, 2, 4]),
                                            ("elm", [0, 2, 4]),
                                            ("daelm-t", [6, 2, 4])])
    def test_sweep_matches_per_k_runs(self, small_drift_corpus, setting, scope,
                                      method, ks):
        cfg = ExperimentConfig(method=method, setting=setting, scaler_scope=scope,
                               **FAST)
        per_k = [run_experiment(replace(cfg, k_guides=k), small_drift_corpus)
                 for k in ks]
        assert (emit_sweep_csv(sweep_guides(cfg, small_drift_corpus, ks))
                == emit_sweep_csv(per_k))

    @pytest.fixture
    def selector_calls(self, monkeypatch):
        calls = []

        def counted(x, k):
            calls.append(k)
            return ssa_select(x, k)

        monkeypatch.setattr(driftelm.benchmark, "ssa_select", counted)
        return calls

    def test_selects_once_per_target(self, small_drift_corpus, selector_calls):
        sweep_guides(ExperimentConfig(method="daelm-s", **FAST),
                     small_drift_corpus, [2, 6, 4])
        assert selector_calls == [6] * 9

    def test_every_k_checked_before_selection(self, small_drift_corpus,
                                              selector_calls):
        with pytest.raises(DataError, match="k_guides=500"):
            sweep_guides(ExperimentConfig(method="daelm-s", **FAST),
                         small_drift_corpus, [2, 500])
        assert selector_calls == []

    def test_duplicate_ks_keep_their_order(self, small_drift_corpus):
        cfg = ExperimentConfig(method="daelm-s", **FAST)
        reports = sweep_guides(cfg, small_drift_corpus, [4, 2, 4])
        assert [r.k_guides for r in reports] == [4, 2, 4]
        assert reports[0] == reports[2]

    def test_sweep_csv_layout(self, small_drift_corpus):
        cfg = ExperimentConfig(method="daelm-s", **FAST)
        reports = sweep_guides(cfg, small_drift_corpus, [2, 4])
        text = emit_sweep_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0] == "k,source,target,run,accuracy"
        assert len(lines) == 1 + 2 * 9 * 2  # ks * tasks * runs


@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 30), j=st.integers(2, 30))
@settings(max_examples=30, deadline=None)
def test_selection_is_prefix_nested(seed, k, j):
    """The first j greedy picks do not depend on k, so a sweep may slice."""
    j = min(j, k)
    points = np.random.default_rng(seed).normal(size=(40, 3))
    np.testing.assert_array_equal(ssa_select(points, k)[:j],
                                  ssa_select(points, j))


@pytest.mark.parametrize("accuracies, message", [
    ((), "at least one run"), ((50.0, 100.5), r"\[0, 100\]"),
    ((-0.5,), r"\[0, 100\]"), ((float("nan"),), r"\[0, 100\]")])
def test_task_result_refuses_bad_accuracies(accuracies, message):
    # an empty tuple would average to NaN, which the table would print
    with pytest.raises(ValueError, match=message):
        TaskResult(1, 2, accuracies)


class TestEmitReport:
    def sample_report(self):
        from driftelm import ExperimentReport
        tasks = (TaskResult(1, 2, (80.0, 90.0)), TaskResult(1, 3, (70.0, 72.5)))
        return ExperimentReport("daelm-s", "fixed-source", 30, tasks)

    def test_empty_report_csv_is_header_only(self):
        from driftelm import ExperimentReport
        empty = ExperimentReport("elm", "fixed-source", 0, ())
        assert emit_report(empty, "csv") == "source,target,run,accuracy\n"

    def test_empty_report_has_no_average(self):
        from driftelm import ExperimentReport
        empty = ExperimentReport("elm", "fixed-source", 0, ())
        with pytest.raises(ValueError, match="no tasks"):
            empty.average

    def test_csv_rows(self):
        text = emit_report(self.sample_report(), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "source,target,run,accuracy"
        assert lines[1] == "1,2,0,80.0"
        assert len(lines) == 5

    def test_single_run_single_task(self):
        from driftelm import ExperimentReport
        report = ExperimentReport("elm", "fixed-source", 0, (TaskResult(1, 2, (55.0,)),))
        assert emit_report(report, "csv").strip().splitlines()[1:] == ["1,2,0,55.0"]

    def test_jsonl_record_per_run(self):
        import json
        lines = emit_report(self.sample_report(), "jsonl").strip().splitlines()
        assert len(lines) == 4
        rec = json.loads(lines[0])
        assert rec == {"method": "daelm-s(30)", "setting": "fixed-source",
                       "source": 1, "target": 2, "run": 0, "accuracy": 80.0}

    def test_table_layout(self):
        text = emit_report(self.sample_report(), "table")
        header, row = text.strip().splitlines()
        assert "1->2" in header and "1->3" in header and "average" in header
        assert row.startswith("daelm-s(30)")
        assert "85.00" in row and "71.25" in row and "78.12" in row

    def test_reemission_is_identical(self):
        report = self.sample_report()
        for fmt in ("table", "csv", "jsonl"):
            assert emit_report(report, fmt) == emit_report(report, fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self.sample_report(), "xml")
