"""The CLI's contract, checked over a table of invocations of every subcommand.

Whatever its arguments, ``main`` returns 0, 1 or 2 and lets no traceback out.
A failure ends in one ``error:`` line or in argparse's usage. A usage error
(exit 1) is found before any batch file is read, and a data error (exit 2)
names the file it is about.
"""

import re
import shutil

import pytest

import driftelm.dataset
from driftelm.cli import main

FAST = ["--features", "4", "--hidden", "30", "--seed", "5", "--guides", "4"]
RUNS = ["--runs", "1"]

# (id, argv, exit code, what an exit 2 must name). In argv and in the name,
# {D} is the small drift corpus, {P} the same without batch7.dat, {X} one
# whose batch3.dat is a directory, {F} a directory of config and model files
# (see `files`), and {M} a model that `train` wrote for {D}.
CASES = [
    ("validate-data", ["validate-data", "--data-dir", "{D}", "--features", "4"],
     2, "batch=1 total=60 expected=445 status=mismatch"),
    ("validate-data-partial", ["validate-data", "--data-dir", "{P}", "--features", "4"],
     2, "batch=7 status=missing"),
    ("validate-data-no-data-dir", ["validate-data"], 2, "--data-dir"),
    ("validate-data-absent-dir", ["validate-data", "--data-dir", "{F}/absent"],
     2, "{F}/absent"),
    ("validate-data-features-x", ["validate-data", "--data-dir", "{D}", "--features", "x"],
     1, None),
    ("validate-data-out-in-missing-dir",
     ["validate-data", "--data-dir", "{D}", "--out", "{F}/missing/report.txt"],
     2, "{F}/missing"),
    ("select-guides", ["select-guides", "--data-dir", "{D}", "--features", "4",
                       "--batch", "5", "--guides", "6"], 0, None),
    ("select-guides-one-guide", ["select-guides", "--data-dir", "{D}", "--batch", "5",
                                 "--guides", "1"], 1, None),
    ("select-guides-empty-guides", ["select-guides", "--data-dir", "{D}", "--batch", "5",
                                    "--guides", ""], 1, None),
    ("select-guides-partial", ["select-guides", "--data-dir", "{P}", "--features", "4",
                               "--batch", "5", "--guides", "6"], 2, "{P}/batch7.dat"),
    ("train", ["train", "--data-dir", "{D}", "--target-batch", "6",
               "--out", "{F}/trained.json", *FAST], 0, None),
    ("train-out-in-missing-dir", ["train", "--data-dir", "{D}", "--target-batch", "6",
                                  "--out", "{F}/missing/m.json", *FAST], 2, "{F}/missing"),
    ("train-no-out", ["train", "--data-dir", "{D}", "--target-batch", "6", *FAST], 1, None),
    ("train-runs", ["train", "--data-dir", "{D}", "--target-batch", "6",
                    "--out", "{F}/trained.json", "--runs", "2", *FAST], 1, None),
    ("predict", ["predict", "--data-dir", "{D}", "--model", "{M}", "--batch", "6"], 0, None),
    ("predict-batch-is-a-directory", ["predict", "--data-dir", "{X}", "--model", "{M}",
                                      "--batch", "3"], 2, "{X}/batch3.dat"),
    ("predict-model-empty", ["predict", "--data-dir", "{D}", "--model", "{F}/empty.json",
                             "--batch", "6"], 2, "{F}/empty.json"),
    ("predict-model-not-json", ["predict", "--data-dir", "{D}",
                                "--model", "{F}/not-json.json", "--batch", "6"],
     2, "{F}/not-json.json"),
    ("predict-model-not-utf8", ["predict", "--data-dir", "{D}",
                                "--model", "{F}/not-utf8.json", "--batch", "6"],
     2, "{F}/not-utf8.json"),
    ("predict-model-list", ["predict", "--data-dir", "{D}", "--model", "{F}/list.json",
                            "--batch", "6"], 2, "{F}/list.json"),
    ("predict-model-is-a-directory", ["predict", "--data-dir", "{D}", "--model", "{F}",
                                      "--batch", "6"], 2, "{F}"),
    ("predict-model-absent", ["predict", "--data-dir", "{D}", "--model", "{F}/absent.json",
                              "--batch", "6"], 2, "{F}/absent.json"),
    ("predict-no-model", ["predict", "--data-dir", "{D}", "--batch", "6"], 1, None),
    ("bench", ["bench", "--data-dir", "{D}", "--method", "daelm-t", *FAST, *RUNS],
     0, None),
    ("bench-config-comments-and-blanks", ["bench", "--data-dir", "{D}", "--features", "4",
                                          "--config", "{F}/comments.cfg"], 0, None),
    ("bench-config-line-without-equals", ["bench", "--data-dir", "{D}",
                                          "--config", "{F}/no-equals.cfg"],
     2, "{F}/no-equals.cfg"),
    ("bench-config-unknown-key", ["bench", "--data-dir", "{D}", "--config", "{F}/bogus.cfg"],
     2, "{F}/bogus.cfg"),
    ("bench-config-not-utf8", ["bench", "--data-dir", "{D}",
                               "--config", "{F}/not-utf8.cfg"], 2, "{F}/not-utf8.cfg"),
    ("bench-config-ill-typed", ["bench", "--data-dir", "{D}", "--config", "{F}/typed.cfg"],
     1, None),
    ("bench-config-absent", ["bench", "--data-dir", "{D}", "--config", "{F}/absent.cfg"],
     2, "{F}/absent.cfg"),
    ("bench-partial", ["bench", "--data-dir", "{P}", "--method", "elm", *FAST, *RUNS],
     2, "{P}/batch7.dat"),
    ("bench-too-few-features", ["bench", "--data-dir", "{D}", *FAST, *RUNS,
                                "--features", "3"], 2, "{D}/batch1.dat"),
    ("bench-zero-runs", ["bench", "--data-dir", "{D}", *FAST, "--runs", "0"], 1, None),
    ("bench-negative-seed", ["bench", "--data-dir", "{D}", "--seed", "-1"], 1, None),
    ("bench-guides-x", ["bench", "--data-dir", "{D}", "--guides", "x"], 1, None),
    ("bench-negative-penalty", ["bench", "--data-dir", "{D}", "--ct", "-1"], 1, None),
    ("bench-unknown-method", ["bench", "--data-dir", "{D}", "--method", "svm"], 1, None),
    ("bench-empty-hidden", ["bench", "--data-dir", "{D}", "--hidden", ""], 1, None),
    ("sweep", ["sweep", "--data-dir", "{D}", "--method", "daelm-s", "--ks", "3,5",
               *FAST, *RUNS], 0, None),
    ("sweep-negative-k", ["sweep", "--data-dir", "{D}", "--ks", "5,-3"], 1, None),
    ("sweep-k-x", ["sweep", "--data-dir", "{D}", "--ks", "4,x"], 1, None),
    ("sweep-no-data-dir", ["sweep", "--ks", "3"], 2, "--data-dir"),
    ("no-command", ["--"], 1, None),
    ("unknown-command", ["fit"], 1, None),
]


@pytest.fixture(scope="module")
def paths(drift_corpus_dir, tmp_path_factory):
    """What the placeholders in CASES stand for."""
    root = tmp_path_factory.mktemp("contract")
    partial = shutil.copytree(drift_corpus_dir, root / "partial")
    (partial / "batch7.dat").unlink()
    (root / "dir-batch" / "batch3.dat").mkdir(parents=True)
    files = root / "files"
    files.mkdir()
    for name, content in {
        "empty.json": b"",
        "not-json.json": b"model",
        "not-utf8.json": b"\x84\xff model",
        "list.json": b"[]",
        "comments.cfg": b"# a fast protocol\n\nmethod = elm  # plain\n\nk_guides = 4\n"
                        b"hidden_size = 30\nruns = 1\n",
        "no-equals.cfg": b"method = elm\nruns 1\n",
        "bogus.cfg": b"runs = 1\nbogus = 3\n",
        "not-utf8.cfg": b"method = \xff\n",
        "typed.cfg": b"runs = x\n",
    }.items():
        (files / name).write_bytes(content)
    model = root / "model.json"
    assert main(["train", "--data-dir", str(drift_corpus_dir), "--target-batch", "6",
                 "--out", str(model), *FAST]) == 0
    return {"D": drift_corpus_dir, "P": partial, "X": root / "dir-batch", "F": files,
            "M": model}


@pytest.mark.parametrize("argv, code, names", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_cli_contract(paths, monkeypatch, capsys, argv, code, names):
    monkeypatch.delenv("DRIFTELM_DATA_DIR", raising=False)
    reads = []
    for name in ("load_corpus", "load_batch"):
        def counted(*args, _real=getattr(driftelm.dataset, name), _name=name, **kwargs):
            reads.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(driftelm.dataset, name, counted)
    capsys.readouterr()

    got = main([arg.format(**paths) for arg in argv])
    out, err = capsys.readouterr()

    assert got == code
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        if not lines:  # validate-data's report is its output
            assert out.endswith("status=mismatch\n")
        elif lines[0].startswith("usage: "):
            assert re.fullmatch(r"driftelm( [\w-]+)?: error: .+", lines[-1])
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")
    if code == 1:
        assert reads == []
    if code == 2:
        assert names.format(**paths) in out + err
