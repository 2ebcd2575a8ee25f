import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftelm.benchmark
from driftelm import (DataError, ExperimentConfig, SampleSet, accuracy,
                      apply_scaler, emit_report, emit_sweep_csv, encode_targets, fit_scaler,
                      hidden_output, new_feature_map, predict, run_experiment, solve_ridge,
                      split_target, ssa_select, sweep_guides, train_elm)
from driftelm.benchmark import DEFAULT_PENALTIES, RunMap, Task, TaskResult, fit
from driftelm.dataset import N_CLASSES

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


class TestReuse:
    """Each run builds its maps once and computes each kept H once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Per hidden_output call: the map's seed, the projected matrix and the
        unscaled features it was scaled from (None for any other matrix)."""
        calls, scaled = {"hidden": [], "maps": []}, []

        def tracked_scaler(scaler, features):
            out = apply_scaler(scaler, features)
            scaled.append((out, features))  # kept alive, so identities stay unique
            return out

        def counted_hidden(fmap, x):
            unscaled = next((features for out, features in scaled if out is x), None)
            calls["hidden"].append((fmap.seed, x, unscaled))
            return hidden_output(fmap, x)

        def counted_map(*args):
            calls["maps"].append(args)
            return new_feature_map(*args)

        monkeypatch.setattr(driftelm.benchmark, "apply_scaler", tracked_scaler)
        monkeypatch.setattr(driftelm.benchmark, "hidden_output", counted_hidden)
        monkeypatch.setattr(driftelm.benchmark, "new_feature_map", counted_map)
        return calls

    @pytest.mark.parametrize("runs", [1, 3])
    def test_rolling_elm_computes_one_output_per_batch_per_run(
            self, small_drift_corpus, calls, runs):
        cfg = ExperimentConfig(method="elm", setting="rolling-source", k_guides=0,
                               hidden_size=30, runs=runs, base_seed=5)
        run_experiment(cfg, small_drift_corpus)
        assert len(calls["maps"]) == runs
        assert len(calls["hidden"]) == 10 * runs
        batch_of = {id(b.features): b.batch_id for b in small_drift_corpus}
        assert Counter((seed, batch_of.get(id(unscaled)))
                       for seed, _, unscaled in calls["hidden"]) == {
            (5 + r, b): 1 for r in range(runs) for b in range(1, 11)}

    @pytest.mark.parametrize("method, k", [("elm", 0), ("daelm-s", 4), ("daelm-t", 4)])
    def test_fixed_source_output_is_computed_once_per_run(
            self, small_drift_corpus, calls, method, k):
        cfg = ExperimentConfig(method=method, k_guides=k, hidden_size=30, runs=3,
                               base_seed=5)
        run_experiment(cfg, small_drift_corpus)
        assert len(calls["maps"]) == 3 * (2 if method == "daelm-t" else 1)
        source_calls = [seed for seed, _, unscaled in calls["hidden"]
                        if unscaled is small_drift_corpus[0].features]
        assert source_calls == [5, 6, 7]

    @pytest.mark.parametrize("method", ["daelm-s", "daelm-t"])
    def test_a_fixed_sweep_reads_its_source_once_per_run(
            self, small_drift_corpus, calls, monkeypatch, method):
        # every guide count reads the same source under the same scaler, so a
        # run's one RunMap projects it, and trains daelm-t's base ELM, once
        trained = []

        def counted(h, targets, c):
            trained.append(h.shape[0])
            return train_elm(h, targets, c)

        monkeypatch.setattr(driftelm.benchmark, "train_elm", counted)
        cfg = ExperimentConfig(method=method, k_guides=4, hidden_size=30, runs=3,
                               base_seed=5)
        sweep_guides(cfg, small_drift_corpus, [2, 6, 4])
        assert len(calls["maps"]) == 3 * (2 if method == "daelm-t" else 1)
        source_calls = [seed for seed, _, unscaled in calls["hidden"]
                        if unscaled is small_drift_corpus[0].features]
        assert source_calls == [5, 6, 7]
        assert len(trained) == (3 if method == "daelm-t" else 0)

    @pytest.mark.parametrize("setting, per_run", [("fixed-source", 1),
                                                  ("rolling-source", 9)])
    @pytest.mark.parametrize("method, k", [("elm", 0), ("daelm-t", 4)])
    def test_source_elm_is_trained_once_per_source(self, small_drift_corpus, monkeypatch,
                                                   setting, per_run, method, k):
        # the daelm-t base classifier and the plain elm train on the source
        # alone, so a run trains them once per distinct source batch
        trained = []

        def counted(h, targets, c):
            trained.append(h.shape[0])
            return train_elm(h, targets, c)

        monkeypatch.setattr(driftelm.benchmark, "train_elm", counted)
        cfg = ExperimentConfig(method=method, setting=setting, k_guides=k,
                               hidden_size=30, runs=3, base_seed=5)
        run_experiment(cfg, small_drift_corpus)
        assert len(trained) == per_run * cfg.runs

    def test_kept_outputs_are_read_only_and_bounded(self, small_drift_corpus, calls):
        a, b = small_drift_corpus[:2]
        scaler, other = fit_scaler(small_drift_corpus), fit_scaler(small_drift_corpus)
        layer = RunMap(ExperimentConfig(method="elm", hidden_size=8), 4, 1)
        h = layer.output(a, scaler)
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 0] = 1.0
        assert layer.output(a, scaler) is h  # kept until let go
        hb = layer.output(b, scaler)
        twin = SampleSet(b.features, b.labels, b.batch_id)
        layer.output(twin, scaler)  # the same values in another object
        layer.output(b, other)  # the same batch under an equal scaler, another object
        layer.keep_only((b, scaler))  # a, twin and b under other are no longer kept
        assert layer.output(b, scaler) is hb
        assert layer.output(a, scaler) is not h
        layer.keep_only()
        assert layer.output(b, scaler) is not hb
        # each call projected its batch scaled, not as the caller holds it
        batches = (a, b, twin, b, a, b)
        assert len(calls["hidden"]) == len(batches)
        for (_, got, unscaled), x in zip(calls["hidden"], batches):
            assert unscaled is x.features
            np.testing.assert_array_equal(got, apply_scaler(scaler, x.features))

    def test_daelm_t_base_classifier_projects_through_the_base_map(self, small_drift_corpus):
        # a daelm-t run keeps its coupled model's H only: even with the
        # source's H kept, the base classifier projects the source anew
        source = small_drift_corpus[0]
        scaler = fit_scaler(small_drift_corpus)
        run = RunMap(ExperimentConfig(method="daelm-t", hidden_size=30), source.n_features, 5)
        run.output(source, scaler)
        c = DEFAULT_PENALTIES["daelm-t"]["c_s"]
        expected = train_elm(hidden_output(run.base, apply_scaler(scaler, source.features)),
                             encode_targets(source.labels, N_CLASSES), c)
        np.testing.assert_array_equal(run.source_elm(source, scaler, c), expected)

    @pytest.fixture
    def held(self, monkeypatch):
        """Per hidden_output call: the task being run and the keys its run holds."""
        held, state = [], {}

        def recorded_fit(cfg, task, run):
            state["task"], state["run"] = task, run
            return fit(cfg, task, run)

        def recorded_hidden(fmap, x):
            held.append((state["task"], list(state["run"]._kept)))
            return hidden_output(fmap, x)

        monkeypatch.setattr(driftelm.benchmark, "fit", recorded_fit)
        monkeypatch.setattr(driftelm.benchmark, "hidden_output", recorded_hidden)
        return held

    @pytest.mark.parametrize("setting", ["fixed-source", "rolling-source"])
    @pytest.mark.parametrize("method, k", [("elm", 0), ("elm", 4), ("daelm-s", 4),
                                           ("daelm-t", 4)])
    def test_a_map_holds_only_what_the_current_task_reads(
            self, small_drift_corpus, held, setting, method, k):
        # no H of an earlier task's rest, or of a source no longer read, is held;
        # only daelm-s reads its source's H after training on it, so only
        # daelm-s keeps it (a daelm-t run keeps no H of its base map at all)
        cfg = ExperimentConfig(method=method, setting=setting, k_guides=k,
                               hidden_size=30, runs=2, base_seed=5)
        run_experiment(cfg, small_drift_corpus)
        assert len(held) >= 9 * cfg.runs
        for task, keys in held:
            assert all((x is task.source or x is task.rest_key) and by is task.scaler
                       for x, by in keys)
            if method != "daelm-s":
                assert all(x is not task.source for x, _ in keys)

    def test_rolling_elm_projects_each_batch_holding_nothing_else(
            self, small_drift_corpus, held):
        # the source H is let go once trained on, before the next batch is
        # projected; the scored batch is kept as the next task's source
        cfg = ExperimentConfig(method="elm", setting="rolling-source", k_guides=0,
                               hidden_size=30, runs=2, base_seed=5)
        run_experiment(cfg, small_drift_corpus)
        assert len(held) == 10 * cfg.runs
        assert all(keys == [] for _, keys in held)

    @pytest.mark.parametrize("setting", ["fixed-source", "rolling-source"])
    @pytest.mark.parametrize("method, k, scope", [
        pytest.param(method, k, scope, id=f"{method}-{k}" + ("-pair" if scope == "pair" else ""))
        for scope in ("global", "pair")
        for method, k in [("elm", 0), ("elm", 4), ("daelm-s", 4), ("daelm-t", 4)]])
    def test_reuse_matches_fresh_maps_per_task(self, small_drift_corpus, setting,
                                               method, k, scope):
        """Reference: every (task, run) cell on fresh maps, scored by predict.

        Under the pair scope a rolling batch is scaled one way as a target and
        another as the next source, so an H kept by batch alone fails here.
        """
        cfg = ExperimentConfig(method=method, setting=setting, k_guides=k,
                               hidden_size=30, runs=2, base_seed=5, scaler_scope=scope)
        report = run_experiment(cfg, small_drift_corpus)
        assert len(report.tasks) == 9
        for task_result in report.tasks:
            source, target = (small_drift_corpus[task_result.source_batch - 1],
                              small_drift_corpus[task_result.target_batch - 1])
            scaler = fit_scaler(small_drift_corpus if scope == "global" else [source, target])
            xt = apply_scaler(scaler, target.features)
            guides, rest = split_target(target, ssa_select(xt, k)) if k else (None, None)
            scored = slice(None) if rest is None else rest
            expected = []
            for r in range(cfg.runs):
                clf = fit(cfg, Task(scaler, source, target, guides, rest),
                          RunMap(cfg, source.n_features, cfg.base_seed + r))
                scores = predict(clf, apply_scaler(scaler, target.features[scored]))[1]
                expected.append(100.0 * accuracy(scores, target.labels[scored]))
            assert task_result.accuracies == tuple(expected)

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

    @pytest.mark.parametrize("setting", ["fixed-source", "rolling-source"])
    @pytest.mark.parametrize("method", ["elm", "daelm-s", "daelm-t"])
    def test_no_gathered_rest_is_alive_while_a_solve_runs(self, small_drift_corpus,
                                                          monkeypatch, setting, method):
        # a task holds its rest as row indices: the rows are gathered only to
        # be scaled and projected, and neither copy is held through a solve
        k, batches = 4, {id(b.features) for b in small_drift_corpus}
        copies, alive = [], []

        def tracked_scaler(scaler, features):
            out = apply_scaler(scaler, features)
            if id(features) not in batches and len(features) > k:  # not a batch or guides
                copies.extend([weakref.ref(features), weakref.ref(out)])
            return out

        def counted_solve(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in copies))
            return solve_ridge(*args, **kwargs)

        monkeypatch.setattr(driftelm.benchmark, "apply_scaler", tracked_scaler)
        monkeypatch.setattr(driftelm.solvers, "solve_ridge", counted_solve)
        cfg = ExperimentConfig(method=method, setting=setting, k_guides=k,
                               hidden_size=30, runs=2, base_seed=5)
        run_experiment(cfg, small_drift_corpus)
        assert len(copies) >= 2 * 9 * cfg.runs  # every task gathered its rest
        assert len(alive) >= 9 * cfg.runs
        assert max(alive) == 0


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


class TestEmitReport:
    def sample_report(self):
        from driftelm import ExperimentReport
        tasks = (TaskResult(1, 2, (80.0, 90.0)), TaskResult(1, 3, (70.0, 72.5)))
        return ExperimentReport("daelm-s", "fixed-source", 30, tasks)

    def test_empty_report_csv_is_header_only(self):
        from driftelm import ExperimentReport
        empty = ExperimentReport("elm", "fixed-source", 0, ())
        assert emit_report(empty, "csv") == "source,target,run,accuracy\n"

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
