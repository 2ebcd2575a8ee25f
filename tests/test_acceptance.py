"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, printing a
single pass/fail/skip line (run with ``pytest tests/test_acceptance.py -v -s``).
Criteria that need the official 10-batch corpus are skipped when it is not
present; point DRIFTELM_DATA_DIR at the batch files (or place them in
``./data``) to enable them.
"""

import functools

import numpy as np
import pytest

from driftelm import (ExperimentConfig, load_corpus, run_experiment,
                      ssa_select, sweep_guides, train_daelm_s, train_daelm_t,
                      train_elm, validate_corpus)
from driftelm.cli import EXIT_OK, main

from conftest import (both_forms, daelm_s_grad, daelm_t_grad, elm_grad,
                      make_drift_corpus, official_corpus_dir, rel_diff, ssa_bruteforce)

# Reference average accuracies (%) for the official 10-batch corpus.
SETTING1_REFERENCE = {"daelm-s-30": 87.00, "daelm-t-50": 91.86, "elm": 57.93}
SETTING2_REFERENCE = {"daelm-s-30": 88.64, "daelm-t-50": 91.82}


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"[acceptance] SKIP {name}: {exc}")
                raise
            except BaseException:
                print(f"[acceptance] FAIL {name}")
                raise
            print(f"[acceptance] PASS {name}")
        return wrapper
    return deco


def solver_instances(seed, count=100):
    """Random instances covering rows < hidden and rows > hidden, m in {1, 6}."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        hidden = int(rng.integers(8, 40))
        m = 1 if i % 2 == 0 else 6
        under = i % 4 < 2  # alternate which side of the hidden size rows fall
        n_rows = int(rng.integers(2, hidden)) if under else int(hidden + rng.integers(1, 30))
        yield rng, hidden, m, n_rows


@criterion("solver oracle equivalence (primal vs dual, rel 1e-6)")
def test_solver_branch_equivalence():
    for rng, hidden, m, n_rows in solver_instances(101):
        h = rng.normal(size=(n_rows, hidden))
        t = rng.normal(size=(n_rows, m))
        c = 10.0 ** rng.uniform(-2, 2)
        beta = train_elm(h, t, c)
        assert all(rel_diff(beta, ref) < 1e-6 for ref in both_forms([(h, t, c)]))

    for rng, hidden, m, n_source in solver_instances(102):
        hs = rng.normal(size=(n_source, hidden))
        ts = rng.normal(size=(n_source, m))
        n_t = int(rng.integers(2, 10))
        ht = rng.normal(size=(n_t, hidden))
        tt = rng.normal(size=(n_t, m))
        c_s, c_t = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2)
        beta = train_daelm_s(hs, ts, ht, tt, c_s, c_t)
        assert all(rel_diff(beta, ref) < 1e-6
                   for ref in both_forms([(hs, ts, c_s), (ht, tt, c_t)]))

    for rng, hidden, m, n_t in solver_instances(103):
        ht = rng.normal(size=(n_t, hidden))
        tt = rng.normal(size=(n_t, m))
        n_u = int(rng.integers(2, 40))
        hu = rng.normal(size=(n_u, hidden))
        pseudo = hu @ rng.normal(size=(hidden, m))
        c_t, c_tu = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2)
        beta = train_daelm_t(ht, tt, hu, pseudo, c_t, c_tu)
        assert all(rel_diff(beta, ref) < 1e-6
                   for ref in both_forms([(ht, tt, c_t), (hu, pseudo, c_tu)]))


@criterion("stationarity of every trained beta (residual <= 1e-8*(1+|beta|))")
def test_stationarity():
    def ok(grad, beta):
        return np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(beta))

    for rng, hidden, m, n_rows in solver_instances(201):
        h = rng.normal(size=(n_rows, hidden))
        t = rng.normal(size=(n_rows, m))
        c = 10.0 ** rng.uniform(-2, 2)
        beta = train_elm(h, t, c)
        assert ok(elm_grad(beta, h, t, c), beta)

    for rng, hidden, m, n_source in solver_instances(202):
        hs = rng.normal(size=(n_source, hidden))
        ts = rng.normal(size=(n_source, m))
        ht = rng.normal(size=(int(rng.integers(2, 10)), hidden))
        tt = rng.normal(size=(ht.shape[0], m))
        c_s, c_t = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2)
        beta = train_daelm_s(hs, ts, ht, tt, c_s, c_t)
        assert ok(daelm_s_grad(beta, hs, ts, ht, tt, c_s, c_t), beta)

    for rng, hidden, m, n_t in solver_instances(203):
        ht = rng.normal(size=(n_t, hidden))
        tt = rng.normal(size=(n_t, m))
        hu = rng.normal(size=(int(rng.integers(2, 40)), hidden))
        pseudo = hu @ rng.normal(size=(hidden, m))
        c_t, c_tu = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2)
        beta = train_daelm_t(ht, tt, hu, pseudo, c_t, c_tu)
        assert ok(daelm_t_grad(beta, ht, tt, hu, pseudo, c_t, c_tu), beta)


@criterion("reduction: zero coupling penalties collapse to plain elm (1e-8)")
def test_reductions():
    rng = np.random.default_rng(301)
    for i in range(20):
        hidden = int(rng.integers(8, 30))
        n_s = int(rng.integers(2, hidden)) if i % 2 else hidden + int(rng.integers(1, 20))
        m = 1 if i % 3 == 0 else 6
        hs = rng.normal(size=(n_s, hidden))
        ts = rng.normal(size=(n_s, m))
        ht = rng.normal(size=(4, hidden))
        tt = rng.normal(size=(4, m))
        c = 10.0 ** rng.uniform(-2, 2)
        assert rel_diff(train_daelm_s(hs, ts, ht, tt, c, 0.0),
                        train_elm(hs, ts, c)) < 1e-8
        hu = rng.normal(size=(10, hidden))
        pseudo = hu @ rng.normal(size=(hidden, m))
        assert rel_diff(
            train_daelm_t(ht, tt, hu, pseudo, c, 0.0),
            train_elm(ht, tt, c)) < 1e-8


@criterion("guide selection matches the brute-force trace exactly")
def test_ssa_matches_bruteforce():
    rng = np.random.default_rng(401)
    for _ in range(50):
        n = int(rng.integers(4, 201))
        dim = int(rng.integers(1, 6))
        k = int(rng.integers(2, min(n, 25) + 1))
        points = rng.normal(size=(n, dim))
        expected, max_dist = ssa_bruteforce(points, k)
        sel = ssa_select(points, k)
        assert list(sel) == expected
        assert np.linalg.norm(points[sel[0]] - points[sel[1]]) \
            == pytest.approx(max_dist, rel=1e-12)


@criterion("official corpus matches the reference composition table")
def test_official_corpus_validation():
    data_dir = official_corpus_dir()
    if data_dir is None:
        pytest.skip("official corpus not present")
    report = validate_corpus(load_corpus(data_dir))
    assert report.ok, report.to_text()
    assert report.total == 13910


@criterion("fixed-source benchmark averages near the reference values")
def test_fixed_source_benchmark_reference():
    data_dir = official_corpus_dir()
    if data_dir is None:
        pytest.skip("official corpus not present")
    corpus = load_corpus(data_dir)
    daelm_s = run_experiment(ExperimentConfig(method="daelm-s", k_guides=30), corpus)
    assert abs(daelm_s.average - SETTING1_REFERENCE["daelm-s-30"]) <= 4.0
    batch9 = next(t for t in daelm_s.tasks if t.target_batch == 9)
    assert batch9.mean >= 95.0
    daelm_t = run_experiment(ExperimentConfig(method="daelm-t", k_guides=50), corpus)
    assert abs(daelm_t.average - SETTING1_REFERENCE["daelm-t-50"]) <= 4.0
    elm = run_experiment(ExperimentConfig(method="elm", k_guides=30), corpus)
    assert abs(elm.average - SETTING1_REFERENCE["elm"]) <= 5.0


@criterion("rolling-source benchmark averages near the reference values")
def test_rolling_source_benchmark_reference():
    data_dir = official_corpus_dir()
    if data_dir is None:
        pytest.skip("official corpus not present")
    corpus = load_corpus(data_dir)
    daelm_s = run_experiment(
        ExperimentConfig(method="daelm-s", setting="rolling-source", k_guides=30),
        corpus)
    assert abs(daelm_s.average - SETTING2_REFERENCE["daelm-s-30"]) <= 4.0
    daelm_t = run_experiment(
        ExperimentConfig(method="daelm-t", setting="rolling-source", k_guides=50),
        corpus)
    assert abs(daelm_t.average - SETTING2_REFERENCE["daelm-t-50"]) <= 4.0


@criterion("guide sweep: adapted gains >= 5 points from k=5 to k=50, elm < 5")
def test_guide_sweep_property():
    corpus = make_drift_corpus()
    ks = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
    results = {}
    for method in ("daelm-s", "elm"):
        cfg = ExperimentConfig(method=method, k_guides=5, hidden_size=80, runs=3,
                               base_seed=1)
        reports = sweep_guides(cfg, corpus, ks)
        assert len(reports) == len(ks)
        results[method] = [r.average for r in reports]
    assert results["daelm-s"][-1] - results["daelm-s"][0] >= 5.0
    assert abs(results["elm"][-1] - results["elm"][0]) < 5.0


@criterion("identical bench invocations produce byte-identical CSV")
def test_cli_determinism(drift_corpus_dir, tmp_path):
    args = ["bench", "--data-dir", str(drift_corpus_dir), "--method", "daelm-s",
            "--features", "4", "--guides", "5", "--runs", "2", "--hidden", "40",
            "--seed", "3", "--format", "csv"]
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
