import dataclasses
import hashlib
import json

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import driftelm.dataset
import driftelm.solvers
from driftelm import (apply_scaler, encode_targets, fit_scaler, hidden_output,
                      load_corpus, new_feature_map, ssa_select,
                      train_daelm_s, train_daelm_t, train_elm)
from driftelm.benchmark import DEFAULT_PENALTIES, ExperimentConfig
from driftelm.cli import (_CONFIG_KEYS, EXIT_DATA, EXIT_OK, EXIT_USAGE,
                          _resolve_bench_config, build_parser, main)
from driftelm.dataset import (EXPECTED_CLASS_COUNTS, GAS_NAMES, N_CLASSES, N_FEATURES,
                              SampleSet)

from conftest import MALFORMED_MODELS, make_drift_corpus, save_batch

FAST_TRAIN = ["--hidden", "30", "--guides", "4", "--seed", "5", "--features", "4"]
FAST_BENCH = FAST_TRAIN + ["--runs", "2"]
FAST_SWEEP = ["--hidden", "30", "--seed", "5", "--features", "4", "--runs", "2"]


@pytest.fixture(scope="module")
def counted_corpus_dir(tmp_path_factory):
    """A corpus whose per-class counts match the reference table exactly."""
    root = tmp_path_factory.mktemp("counted")
    rng = np.random.default_rng(8)
    for bid, by_gas in EXPECTED_CLASS_COUNTS.items():
        labels = np.concatenate([
            np.full(by_gas[gas], cid)
            for cid, gas in enumerate(GAS_NAMES, start=1) if by_gas[gas]])
        feats = rng.normal(size=(labels.size, 3))
        save_batch(SampleSet(feats, labels, batch_id=bid), root / f"batch{bid}.dat")
    return root


def test_no_arguments_prints_usage(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["bench", "--bogus"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["bench", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--guides" in out and "--seed" in out


def test_missing_data_dir_is_data_error(capsys, monkeypatch):
    monkeypatch.delenv("DRIFTELM_DATA_DIR", raising=False)
    assert main(["validate-data"]) == EXIT_DATA


def test_validate_data_ok(counted_corpus_dir, capsys):
    code = main(["validate-data", "--data-dir", str(counted_corpus_dir),
                 "--features", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "total=13910" in out
    assert "status=ok" in out


def test_validate_data_env_var(counted_corpus_dir, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTELM_DATA_DIR", str(counted_corpus_dir))
    assert main(["validate-data", "--features", "3"]) == EXIT_OK


def test_validate_data_mismatch(drift_corpus_dir, capsys):
    code = main(["validate-data", "--data-dir", str(drift_corpus_dir),
                 "--features", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_DATA
    assert "status=mismatch" in out


def test_validate_data_refuses_an_undecodable_batch(tmp_path, capsys):
    path = tmp_path / "batch1.dat"
    path.write_bytes(b"1 1:0.5\n2 1:\xff\n")
    assert main(["validate-data", "--data-dir", str(tmp_path), "--features", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("count", ["-1", "0"])
def test_feature_count_below_one_is_usage_error(tmp_path, capsys, count):
    (tmp_path / "batch1.dat").write_text("1 1:0.5\n")
    assert main(["validate-data", "--data-dir", str(tmp_path), "--features", count]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument --features: expected an integer of at least 1, got '{count}'" in err


def test_select_guides(drift_corpus_dir, capsys):
    code = main(["select-guides", "--data-dir", str(drift_corpus_dir),
                 "--features", "4", "--batch", "5", "--guides", "6"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    indices = [int(line) for line in out.strip().splitlines()]
    assert len(indices) == 6
    assert len(set(indices)) == 6
    # the protocol's picks, in selection order: batch 5 under the corpus-wide scaler
    corpus = load_corpus(drift_corpus_dir, expected_n=4)
    target = apply_scaler(fit_scaler(corpus), corpus[4].features)
    assert indices == ssa_select(target, 6).tolist()


@pytest.mark.parametrize("guides", ["36", "40"])
def test_select_guides_at_or_beyond_batch_size_is_refused(drift_corpus_dir, capsys, guides):
    code = main(["select-guides", "--data-dir", str(drift_corpus_dir),
                 "--features", "4", "--batch", "5", "--guides", guides])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    assert f"k_guides={guides} must be below the target batch size (36)" in captured.err


@pytest.mark.filterwarnings("error")
def test_bench_refuses_features_whose_scaling_overflows(small_drift_corpus, tmp_path,
                                                        capsys):
    # a feature spanning 2e308 scales to NaN, which must not reach the solver;
    # the error line is all that is printed, with no numpy warning before it
    for batch in small_drift_corpus:
        feats = batch.features.copy()
        if batch.batch_id == 1:
            feats[:2, 0] = 1e308, -1e308
        save_batch(SampleSet(feats, batch.labels, batch.batch_id),
                   tmp_path / f"batch{batch.batch_id}.dat")
    code = main(["bench", "--data-dir", str(tmp_path), "--method", "elm", "--guides", "0",
                 "--hidden", "30", "--features", "4", "--runs", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: features contain NaN or Inf"]


def test_unknown_batch_is_data_error(drift_corpus_dir, tmp_path, capsys):
    assert main(["select-guides", "--data-dir", str(drift_corpus_dir),
                 "--features", "4", "--batch", "11", "--guides", "6"]) == EXIT_DATA
    assert "batch 11 is not in the corpus" in capsys.readouterr().err
    assert main(["train", "--data-dir", str(drift_corpus_dir), "--target-batch", "11",
                 "--out", str(tmp_path / "model.json")] + FAST_TRAIN) == EXIT_DATA
    assert "batch 11 is not in the corpus" in capsys.readouterr().err


def test_bench_table_to_stdout(drift_corpus_dir, capsys):
    code = main(["bench", "--data-dir", str(drift_corpus_dir),
                 "--method", "daelm-s"] + FAST_BENCH)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "daelm-s(4)" in out
    assert "average" in out


def test_bench_csv_deterministic(drift_corpus_dir, tmp_path):
    args = ["bench", "--data-dir", str(drift_corpus_dir), "--method", "daelm-t",
            "--format", "csv"] + FAST_BENCH
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "source,target,run,accuracy"
    assert len(lines) == 1 + 9 * 2


def test_bench_setting2_jsonl(drift_corpus_dir, capsys):
    code = main(["bench", "--data-dir", str(drift_corpus_dir), "--setting", "2",
                 "--method", "elm", "--format", "jsonl"] + FAST_BENCH)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    first = json.loads(out.splitlines()[0])
    assert first["setting"] == "rolling-source"
    assert (first["source"], first["target"]) == (1, 2)


def test_bench_config_file_and_flag_precedence(drift_corpus_dir, tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text(
        "method = daelm-s\n"
        "k_guides = 4\n"
        "hidden_size = 30\n"
        "runs = 1  # comment\n"
        "base_seed = 5\n"
        "c_t = 2.5\n")
    code = main(["bench", "--data-dir", str(drift_corpus_dir), "--features", "4",
                 "--config", str(config), "--runs", "2", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    # --runs flag overrode the config file's runs = 1
    assert len(out.strip().splitlines()) == 1 + 9 * 2


@pytest.mark.parametrize("flag, message", [
    ("--runs", "runs must be at least 1"),
    ("--hidden", "hidden_size must be at least 1"),
    ("--jobs", "jobs must be at least 1"),
])
def test_bench_zero_flag_is_rejected_by_the_config(drift_corpus_dir, capsys, flag,
                                                   message):
    assert main(["bench", "--data-dir", str(drift_corpus_dir), "--features", "4",
                 "--method", "elm", "--guides", "0", flag, "0"]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_bench_negative_seed_is_rejected_before_the_load(tmp_path, capsys):
    # the data directory does not exist, so a check after the load would exit 2
    assert main(["bench", "--data-dir", str(tmp_path / "absent"),
                 "--seed", "-1"]) == EXIT_USAGE
    assert "base_seed must be at least 0" in capsys.readouterr().err


def test_partial_penalty_override_keeps_the_other_defaults(tmp_path):
    # a flag, a config file and the library all lay c_s over daelm-t's defaults
    config = tmp_path / "cs.cfg"
    config.write_text("c_s = 0.5\n")
    parser = build_parser()
    by_flag = _resolve_bench_config(parser.parse_args(
        ["bench", "--method", "daelm-t", "--cs", "0.5"]))
    by_file = _resolve_bench_config(parser.parse_args(
        ["bench", "--method", "daelm-t", "--config", str(config)]))
    by_library = ExperimentConfig(method="daelm-t", c_s=0.5)
    assert by_library.resolved_penalties() == {"c_s": 0.5, "c_t": 0.001, "c_tu": 100.0}
    assert by_flag == by_file == by_library


@pytest.mark.parametrize("method, key, value, message", [
    ("elm", "c_t", "5", "c_t is not a penalty of elm, which reads only c_s"),
    ("elm", "c_tu", "5", "c_tu is not a penalty of elm, which reads only c_s"),
    ("daelm-s", "c_tu", "5", "c_tu is not a penalty of daelm-s, which reads only c_s, c_t"),
    ("elm", "c_s", "0", "c_s must be positive for elm, which trains a plain ELM with it"),
    ("daelm-t", "c_s", "0", "c_s must be positive for daelm-t, which trains a plain ELM with it"),
])
def test_a_penalty_the_method_cannot_use_is_refused_before_the_load(tmp_path, capsys, method,
                                                                    key, value, message):
    # the data directory does not exist, so a check after the load would exit 2
    bench = ["bench", "--data-dir", str(tmp_path / "absent"), "--method", method]
    assert main(bench + ["--" + key.replace("_", ""), value]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    config = tmp_path / "penalty.cfg"
    config.write_text(f"{key} = {value}\n")
    assert main(bench + ["--config", str(config)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_penalty_help_lists_the_methods_that_read_it(capsys):
    assert main(["bench", "--help"]) == EXIT_OK
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--cs C_S source penalty (default: 1 elm, 0.01 daelm-s, 0.001 daelm-t)" in help_text
    assert "--ct C_T guide penalty (default: 10 daelm-s, 0.001 daelm-t)" in help_text
    assert "--ctu C_TU unlabeled penalty (default: 100 daelm-t)" in help_text


@pytest.mark.parametrize("flag", ["--cs", "--ct", "--ctu"])
def test_bench_negative_penalty_is_usage_error(tmp_path, capsys, flag):
    assert main(["bench", "--data-dir", str(tmp_path / "absent"), flag, "-1"]) == EXIT_USAGE
    assert "must be finite and non-negative" in capsys.readouterr().err


def test_bench_zero_runs_in_config_file_is_rejected(drift_corpus_dir, tmp_path, capsys):
    config = tmp_path / "zero.cfg"
    config.write_text("runs = 0\n")
    assert main(["bench", "--data-dir", str(drift_corpus_dir), "--features", "4",
                 "--config", str(config)]) == EXIT_USAGE
    assert "runs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("ks", ["4,x", ",", "3.5"])
def test_sweep_bad_guide_counts_are_rejected_before_the_load(tmp_path, capsys, ks):
    # the data directory does not exist, so a check after the load would exit 2
    assert main(["sweep", "--data-dir", str(tmp_path / "absent"), "--ks", ks]) == EXIT_USAGE
    assert f"argument --ks: expected comma-separated integers, got '{ks}'" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--ks", "5,-3"], "k_guides must be >= 2 (0 allowed for plain elm)"),
    (["select-guides", "--batch", "2", "--guides", "1"],
     "k_guides must be >= 2 (0 allowed for plain elm)"),
])
def test_guide_count_is_checked_before_the_load(tmp_path, capsys, argv, message):
    # the data directory does not exist, so a check after the load would exit 2
    assert main(argv + ["--data-dir", str(tmp_path / "absent")]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_out_in_a_missing_directory_fails_before_training(drift_corpus_dir, tmp_path,
                                                          monkeypatch, capsys):
    def no_load(*args, **kwargs):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(driftelm.dataset, "load_corpus", no_load)
    out = tmp_path / "missing_dir" / "m.json"
    assert main(["train", "--data-dir", str(drift_corpus_dir), "--target-batch", "6",
                 "--out", str(out)] + FAST_TRAIN) == EXIT_DATA
    assert capsys.readouterr().err == \
        f"error: output directory not found: {tmp_path / 'missing_dir'}\n"


@pytest.mark.parametrize("line, message", [
    ("runs = x", "runs: expected int, got 'x'"),
    ("k_guides = 3.5", "k_guides: expected int, got '3.5'"),
    ("c_t = high", "c_t: expected float, got 'high'"),
])
def test_bench_ill_typed_config_value_names_its_key(tmp_path, capsys, line, message):
    config = tmp_path / "typed.cfg"
    config.write_text(f"method = elm\n{line}\n")
    assert main(["bench", "--data-dir", str(tmp_path / "absent"),
                 "--config", str(config)]) == EXIT_USAGE
    assert f"error: {config}:2: {message}\n" in capsys.readouterr().err


def test_config_keys_are_the_experiment_fields_and_the_bench_dests():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(_CONFIG_KEYS) == fields
    # every key is a flag's dest whose unset value is None, so a flag that is
    # not given never overrides the config file or ExperimentConfig's default;
    # sweep's guide counts are --ks, so it has no k_guides, and train repeats
    # nothing, so it has no setting, runs or jobs
    parser = build_parser()
    sweep_keys = set(_CONFIG_KEYS) - {"k_guides"}
    train_keys = set(_CONFIG_KEYS) - {"setting", "runs", "jobs"}
    for command, keys in ((["bench"], _CONFIG_KEYS), (["sweep"], sweep_keys),
                          (["train", "--target-batch", "2", "--out", "m.json"],
                           train_keys)):
        args = vars(parser.parse_args(command))
        assert {key: args.get(key, "missing") for key in _CONFIG_KEYS} \
            == {key: None if key in keys else "missing" for key in _CONFIG_KEYS}


@pytest.mark.parametrize("flag", ["--setting", "--runs", "--jobs"])
def test_train_rejects_the_protocol_flags_and_keys(drift_corpus_dir, tmp_path, capsys,
                                                   flag):
    model = tmp_path / "model.json"
    train = ["train", "--data-dir", str(drift_corpus_dir), "--target-batch", "6",
             "--out", str(model)] + FAST_TRAIN
    assert main(train + [flag, "2"]) == EXIT_USAGE
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    config = tmp_path / "train.cfg"
    config.write_text(f"{flag[2:]} = 2\n")
    assert main(train + ["--config", str(config)]) == EXIT_DATA
    assert f"unknown config keys: ['{flag[2:]}']" in capsys.readouterr().err
    assert not model.exists()


def test_sweep_takes_its_guide_counts_from_ks_only(drift_corpus_dir, tmp_path, capsys):
    sweep = ["sweep", "--data-dir", str(drift_corpus_dir), "--method", "daelm-s",
             "--ks", "5"] + FAST_SWEEP
    assert main(sweep + ["--guides", "7"]) == EXIT_USAGE
    assert "unrecognized arguments: --guides 7" in capsys.readouterr().err
    config = tmp_path / "sweep.cfg"
    config.write_text("k_guides = 7\n")
    assert main(sweep + ["--config", str(config)]) == EXIT_DATA
    assert f"{config}: unknown config keys: ['k_guides']" in capsys.readouterr().err


def test_bench_bad_config_key(drift_corpus_dir, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("mystery = 3\n")
    assert main(["bench", "--data-dir", str(drift_corpus_dir),
                 "--config", str(config)]) == EXIT_DATA


def test_train_then_predict_round_trip(drift_corpus_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    code = main(["train", "--data-dir", str(drift_corpus_dir), "--method", "daelm-s",
                 "--target-batch", "6", "--out", str(model)] + FAST_TRAIN)
    assert code == EXIT_OK
    doc = json.loads(model.read_text())
    assert doc["format"] == "driftelm-classifier-v1"
    assert "scaler" in doc

    pred_csv = tmp_path / "pred.csv"
    code = main(["predict", "--data-dir", str(drift_corpus_dir),
                 "--model", str(model), "--batch", "6", "--out", str(pred_csv)])
    err = capsys.readouterr().err
    assert code == EXIT_OK
    lines = pred_csv.read_text().strip().splitlines()
    assert lines[0] == "index,label"
    assert len(lines) == 1 + 36  # 3 classes x 12 per class
    assert "accuracy=" in err


def test_train_refuses_a_task_whose_source_is_its_target(drift_corpus_dir, tmp_path,
                                                          capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--data-dir", str(drift_corpus_dir), "--source-batch", "3",
                 "--target-batch", "3", "--out", str(model)] + FAST_TRAIN) == EXIT_DATA
    assert "both the source and the target" in capsys.readouterr().err
    assert not model.exists()


def test_train_daelm_t_model_uses_second_map_seed(drift_corpus_dir, tmp_path):
    model = tmp_path / "model.json"
    assert main(["train", "--data-dir", str(drift_corpus_dir), "--method", "daelm-t",
                 "--target-batch", "3", "--out", str(model)] + FAST_TRAIN) == EXIT_OK
    doc = json.loads(model.read_text())
    assert doc["feature_map"]["seed"] == 5 + 1_000_003


def _reference_model_json(corpus_dir, method, k, target_batch, penalties, hidden=30,
                          seed=5):
    """The model `train` writes, built step by step from the public pieces.

    ``penalties`` are laid over the method's defaults. The document is written
    out here key by key, not by the package's writer.
    """
    corpus = load_corpus(corpus_dir, expected_n=4)
    scaler = fit_scaler(corpus)
    source, target = corpus[0], corpus[target_batch - 1]
    xs, xt = (apply_scaler(scaler, b.features) for b in (source, target))
    picks = ssa_select(xt, k) if k else np.zeros(0, dtype=np.int64)
    xg, yg, xr = xt[picks], target.labels[picks], np.delete(xt, picks, axis=0)
    pens, m = {**DEFAULT_PENALTIES[method], **penalties}, N_CLASSES
    fmap = new_feature_map(hidden, 4, "radbas", seed)
    if method == "daelm-t":
        base, fmap = fmap, new_feature_map(hidden, 4, "radbas", seed + 1_000_003)
        beta_base = train_elm(hidden_output(base, xs),
                              encode_targets(source.labels, m), pens["c_s"])
        beta = train_daelm_t(hidden_output(fmap, xg), encode_targets(yg, m),
                             hidden_output(fmap, xr), hidden_output(base, xr) @ beta_base,
                             pens["c_t"], pens["c_tu"])
    elif method == "daelm-s":
        beta = train_daelm_s(hidden_output(fmap, xs), encode_targets(source.labels, m),
                             hidden_output(fmap, xg), encode_targets(yg, m),
                             pens["c_s"], pens["c_t"])
    else:
        feats = np.vstack([xs, xg])
        labels = np.concatenate([source.labels, yg])
        beta = train_elm(hidden_output(fmap, feats), encode_targets(labels, m), pens["c_s"])
    digest = hashlib.sha256(fmap.weights.astype("<f8").tobytes()
                            + fmap.biases.astype("<f8").tobytes()).hexdigest()
    doc = {"format": "driftelm-classifier-v1",
           "feature_map": {"sha256": digest, "seed": fmap.seed, "hidden_size": hidden,
                           "n_features": 4, "activation": "radbas"},
           "m": m, "beta": beta.tolist(),
           "scaler": {"min": scaler.minimum.tolist(), "max": scaler.maximum.tolist()},
           "meta": {"method": method, "source_batch": 1, "target_batch": target_batch,
                    "k_guides": k, "seed": seed}}
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("method, k, penalties", [
    *(pytest.param(method, k, {}, id=f"{method}-{k}")
      for method, k in (("elm", 0), ("elm", 4), ("daelm-s", 4), ("daelm-t", 4))),
    pytest.param("elm", 4, {"c_s": 2.0}, id="elm-4-cs2"),
    pytest.param("daelm-s", 4, {"c_s": 0.5, "c_t": 3.0}, id="daelm-s-4-cs0.5-ct3"),
    pytest.param("daelm-t", 4, {"c_tu": 7.0}, id="daelm-t-4-ctu7"),
])
def test_train_model_json_is_pinned(drift_corpus_dir, tmp_path, method, k, penalties):
    model = tmp_path / "model.json"
    flags = [arg for key, value in penalties.items()
             for arg in ("--" + key.replace("_", ""), repr(value))]
    assert main(["train", "--data-dir", str(drift_corpus_dir), "--method", method,
                 "--target-batch", "6", "--out", str(model)]
                + FAST_TRAIN + ["--guides", str(k)] + flags) == EXIT_OK
    assert model.read_text() == _reference_model_json(drift_corpus_dir, method, k, 6,
                                                      penalties)


def test_train_rejects_guides_at_the_target_size(drift_corpus_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--data-dir", str(drift_corpus_dir), "--method", "daelm-s",
                 "--target-batch", "6", "--out", str(model)]
                + FAST_TRAIN + ["--guides", "36"]) == EXIT_DATA
    assert "k_guides=36 must be below the target batch size (36)" \
        in capsys.readouterr().err
    assert not model.exists()


def test_train_requires_out(drift_corpus_dir, capsys):
    assert main(["train", "--data-dir", str(drift_corpus_dir),
                 "--target-batch", "3"] + FAST_TRAIN) == EXIT_USAGE


def test_sweep_csv(drift_corpus_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--data-dir", str(drift_corpus_dir), "--method", "daelm-s",
                 "--ks", "3,5", "--out", str(out)] + FAST_SWEEP)
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,source,target,run,accuracy"
    assert {line.split(",")[0] for line in lines[1:]} == {"3", "5"}


@pytest.fixture(scope="module")
def full_width_corpus_dir(tmp_path_factory):
    """A small corpus with the reference feature count, which `predict` once assumed."""
    root = tmp_path_factory.mktemp("full-width")
    for batch in make_drift_corpus(classes=3, per_class_source=20, per_class_target=12,
                                   n_features=N_FEATURES, seed=3):
        save_batch(batch, root / f"batch{batch.batch_id}.dat")
    return root


@pytest.fixture(scope="module")
def model_doc(full_width_corpus_dir, tmp_path_factory):
    """The document `train` writes for elm(4) on the full-width corpus."""
    model = tmp_path_factory.mktemp("model") / "model.json"
    assert main(["train", "--data-dir", str(full_width_corpus_dir), "--method", "elm",
                 "--target-batch", "6", "--out", str(model), "--hidden", "30",
                 "--guides", "4", "--seed", "5"]) == EXIT_OK
    return json.loads(model.read_text())


def test_predict_reads_the_model_it_was_given(full_width_corpus_dir, model_doc, tmp_path,
                                              capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_doc))
    assert main(["predict", "--data-dir", str(full_width_corpus_dir),
                 "--model", str(model), "--batch", "6"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 36


@pytest.mark.parametrize("case", list(MALFORMED_MODELS))
def test_predict_refuses_a_malformed_model(full_width_corpus_dir, model_doc, tmp_path,
                                           capsys, case):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MALFORMED_MODELS[case](model_doc)))
    capsys.readouterr()
    assert main(["predict", "--data-dir", str(full_width_corpus_dir),
                 "--model", str(model), "--batch", "6"]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("content", [b'{"format": ', b"\x84\xff model"],
                         ids=["truncated", "not-utf8"])
def test_predict_refuses_a_model_that_is_not_json(drift_corpus_dir, tmp_path, capsys,
                                                  content):
    model = tmp_path / "model.json"
    model.write_bytes(content)
    assert main(["predict", "--data-dir", str(drift_corpus_dir),
                 "--model", str(model), "--batch", "6"]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")


def test_failed_factorisation_is_data_error(drift_corpus_dir, tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise LinAlgError("not positive definite")

    monkeypatch.setattr(driftelm.solvers, "cho_factor", failing)
    # 80 hidden units exceed the 60 source rows plus 4 guides: the dual branch
    code = main(["train", "--data-dir", str(drift_corpus_dir), "--method", "daelm-s",
                 "--target-batch", "6", "--out", str(tmp_path / "model.json")]
                + FAST_TRAIN + ["--hidden", "80"])
    assert code == EXIT_DATA
    assert "positive definite" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()
