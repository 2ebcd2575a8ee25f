"""Tests of the benchmark's own code: generator, tracer and correctness gate."""

import json
from pathlib import Path

import numpy as np
import pytest

import driftelm
import driftelm.benchmark
import driftelm.solvers
from driftelm import validate_corpus
from driftelm.dataset import EXPECTED_CLASS_COUNTS, GAS_NAMES

import run
import synth
from tracing import LAYER_METRICS, Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, Workload, check_csv, run_protocol

HERE = Path(__file__).resolve().parent


def test_generator_is_deterministic_and_matches_reference_counts():
    a, b, other = synth.make_corpus(5), synth.make_corpus(5), synth.make_corpus(6)
    assert validate_corpus(a).ok
    for x, y, z in zip(a, b, other):
        assert x.n_features == 128
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)
        assert not np.array_equal(x.features, z.features)
        counts = np.bincount(x.labels, minlength=7)[1:]
        assert counts.tolist() == [EXPECTED_CLASS_COUNTS[x.batch_id][g]
                                   for g in GAS_NAMES]


def test_corpus_files_are_written_once_per_seed(tmp_path):
    directory = synth.ensure_corpus(tmp_path / "seed-1", 1)
    files = sorted(directory.glob("batch*.dat"))
    assert len(files) == 10
    stamps = [f.stat().st_mtime_ns for f in files]
    synth.ensure_corpus(directory, 1)
    assert [f.stat().st_mtime_ns for f in files] == stamps
    loaded = driftelm.load_corpus(directory)
    for got, want in zip(loaded, synth.make_corpus(1)):
        assert np.array_equal(got.labels, want.labels)
        assert np.allclose(got.features, want.features, rtol=0, atol=5e-7)


def _tree():
    return [Span(0, None, "root", 0.0, 10.0),
            Span(1, 0, "a", 1.0, 4.0),
            Span(2, 1, "a.inner", 2.0, 3.0),
            Span(3, 0, "b", 3.5, 6.0),    # overlaps a: counted once
            Span(4, 0, "c", 9.0, 12.0)]   # runs past its parent: clipped


def test_self_time_subtracts_the_union_of_children():
    own = self_times(_tree())
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 3.0})


def test_layer_metrics_counts():
    spans = [Span(0, None, "benchmark.protocol", 0.0, 10.0),
             Span(1, 0, "guide_selection.ssa_select", 0.0, 2.0, {"rows": 100, "k": 10}),
             Span(2, 0, "solvers.train_elm", 2.0, 6.0),
             Span(3, 2, "solvers.cho_factor", 2.0, 3.0, {"dim": 1000, "failed": 1}),
             Span(4, 2, "solvers.cho_factor", 3.0, 4.5, {"dim": 1000}),
             Span(5, 0, "feature_map.hidden_output", 6.0, 7.0,
                  {"rows": 50, "n": 128, "hidden": 1000}),
             Span(6, 0, "benchmark.emit", 9.0, 9.5)]
    m = layer_metrics(spans, overhead_s=0.25)
    assert set(m) == set(LAYER_METRICS)
    assert m["guide_selection.ssa_select.dist_evals"] == 100 * 99 // 2 + 10 * 100
    assert m["solvers.train_elm.s"] == pytest.approx(1.5)
    assert m["solvers.cho_factor.calls"] == 2
    assert m["solvers.cho_factor.failed"] == 1
    assert m["solvers.cho_factor.dim_max"] == 1000
    assert m["solvers.cho_factor.gflop"] == pytest.approx(2 * 1000 ** 3 / 3 / 1e9)
    assert m["feature_map.hidden_output.gflop"] == pytest.approx(2 * 50 * 128 * 1000 / 1e9)
    assert m["benchmark.self.s"] == pytest.approx(10.0 - 2.0 - 4.0 - 1.0 - 0.5)
    assert m["trace.overhead_s"] == 0.25


def _module_attrs():
    return {mod.__name__: dict(vars(mod))
            for mod in (driftelm, driftelm.benchmark, driftelm.solvers)}


def _same(before, after):
    return before.keys() == after.keys() and all(
        before[m].keys() == after[m].keys()
        and all(before[m][k] is after[m][k] for k in before[m]) for m in before)


@pytest.fixture(scope="module")
def tiny_corpus():
    return [b.take(np.arange(40)) for b in synth.make_corpus(0)]


@pytest.mark.parametrize("w", [Workload("daelm-t", "fixed-source", 3, 1),
                               Workload("elm", "rolling-source", 0, 1),
                               Workload("daelm-s", "fixed-source", 30, 1, (3, 4))])
def test_tracer_is_outside_in_and_removed_afterwards(w, tiny_corpus):
    before = _module_attrs()
    plain = run_protocol(w, tiny_corpus, 0)
    assert _same(before, _module_attrs())
    with Tracer() as tracer:
        assert driftelm.solvers.cho_factor is not before["driftelm.solvers"]["cho_factor"]
        traced = run_protocol(w, tiny_corpus, 0, tracer)
    assert _same(before, _module_attrs())
    assert traced == plain
    check_csv(w, plain)
    names = {s.name for s in tracer.spans}
    assert {"benchmark.protocol", "benchmark.emit", "solvers.cho_factor",
            "feature_map.hidden_output"} <= names
    assert ("guide_selection.ssa_select" in names) == (w.k_guides > 0 or bool(w.ks))
    assert all(s.parent is None or s.parent < s.span_id for s in tracer.spans)


def test_check_csv_reads_both_float_spellings():
    w = Workload("elm", "rolling-source", 0, 1)
    rows = [f"{k - 1},{k},0,{'np.float64(50.0)' if k % 2 else '75.0'}" for k in range(2, 11)]
    assert check_csv(w, "source,target,run,accuracy\n" + "\n".join(rows) + "\n") == \
        [75.0 if k % 2 == 0 else 50.0 for k in range(2, 11)]
    with pytest.raises(ValueError):
        check_csv(w, "source,target,run,accuracy\n" + "\n".join(rows[:-1]) + "\n")


def test_judge_counts_errors_and_digest_mismatches():
    reps = [{"sha256": "a"}, {"sha256": "b"}, {"error": "boom"}]
    assert run.judge(reps, None) == (2, "a")
    assert run.judge(reps, "b") == (2, "b")


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == LAYER_METRICS
    refs = json.loads((HERE / "reference_digests.json").read_text())
    assert set(refs) <= set(WORKLOADS)


def test_failed_factorisation_is_recorded_and_reraised():
    with Tracer() as tracer:
        with pytest.raises(driftelm.solvers.SolverError):
            driftelm.solvers._solve_spd(-np.eye(3), np.ones(3))
    factor = [s for s in tracer.spans if s.name == "solvers.cho_factor"]
    assert [s.attrs for s in factor] == [{"failed": 1, "dim": 3}] * 2
