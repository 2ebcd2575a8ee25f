"""The CLI's contract, checked over a table of invocations of every subcommand
and over argument lists drawn from the table's flag values.

Whatever its arguments, ``main`` returns 0, 1 or 2 and lets no traceback out.
A failure ends in one ``error:`` line or in argparse's usage. A usage error
(exit 1), and an error about the output path, is found before any batch file
is read, and a data error (exit 2) names the file or the batch it is about. An error about a batch names its id
or its size and not the corpus directory: the library that raises it is given
batches, not paths.
"""

import io
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftelm.dataset
from driftelm.benchmark import METHODS
from driftelm.cli import main

MAP = ["--features", "4", "--hidden", "30", "--seed", "5"]
FAST = [*MAP, "--guides", "4"]
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
    ("validate-data-features-out-of-memory",
     ["validate-data", "--data-dir", "{D}", "--features", "1000000000000"],
     2, "out of memory"),
    ("select-guides", ["select-guides", "--data-dir", "{D}", "--features", "4",
                       "--batch", "5", "--guides", "6"], 0, None),
    ("select-guides-one-guide", ["select-guides", "--data-dir", "{D}", "--batch", "5",
                                 "--guides", "1"], 1, None),
    ("select-guides-empty-guides", ["select-guides", "--data-dir", "{D}", "--batch", "5",
                                    "--guides", ""], 1, None),
    ("select-guides-batch-not-in-corpus", ["select-guides", "--data-dir", "{D}",
                                           "--features", "4", "--batch", "0",
                                           "--guides", "6"],
     2, "batch 0 is not in the corpus"),
    ("select-guides-at-target-size", ["select-guides", "--data-dir", "{D}", "--features", "4",
                                      "--batch", "5", "--guides", "36"],
     2, "k_guides=36 must be below the target batch size (36)"),
    ("select-guides-partial", ["select-guides", "--data-dir", "{P}", "--features", "4",
                               "--batch", "5", "--guides", "6"], 2, "{P}/batch7.dat"),
    ("train", ["train", "--data-dir", "{D}", "--target-batch", "6",
               "--out", "{F}/trained.json", *FAST], 0, None),
    ("train-out-in-missing-dir", ["train", "--data-dir", "{D}", "--target-batch", "6",
                                  "--out", "{F}/missing/m.json", *FAST], 2, "{F}/missing"),
    ("train-out-is-a-directory", ["train", "--data-dir", "{D}", "--target-batch", "6",
                                  "--out", "{F}", *FAST],
     2, "output path is a directory: {F}"),
    ("train-no-out", ["train", "--data-dir", "{D}", "--target-batch", "6", *FAST], 1, None),
    ("train-runs", ["train", "--data-dir", "{D}", "--target-batch", "6",
                    "--out", "{F}/trained.json", "--runs", "2", *FAST], 1, None),
    ("train-batch-not-in-corpus", ["train", "--data-dir", "{D}", "--target-batch", "11",
                                   "--out", "{F}/trained.json", *FAST],
     2, "batch 11 is not in the corpus"),
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
    ("predict-batch-not-in-corpus", ["predict", "--data-dir", "{D}", "--model", "{M}",
                                     "--batch", "11"], 2, "{D}/batch11.dat"),
    ("bench", ["bench", "--data-dir", "{D}", "--method", "daelm-t", *FAST, *RUNS],
     0, None),
    ("bench-out-is-a-directory", ["bench", "--data-dir", "{D}", *FAST, *RUNS, "--out", "{F}"],
     2, "output path is a directory: {F}"),
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
    ("bench-guides-at-target-size", ["bench", "--data-dir", "{D}", *MAP, *RUNS,
                                     "--guides", "36"],
     2, "k_guides=36 must be below the target batch size (36)"),
    ("bench-elm-ct", ["bench", "--data-dir", "{D}", "--method", "elm", "--ct", "5"], 1, None),
    ("bench-elm-ctu", ["bench", "--data-dir", "{D}", "--method", "elm", "--ctu", "5"],
     1, None),
    ("bench-daelm-s-ctu", ["bench", "--data-dir", "{D}", "--method", "daelm-s",
                           "--ctu", "5"], 1, None),
    ("bench-elm-zero-cs", ["bench", "--data-dir", "{D}", "--method", "elm", "--cs", "0"],
     1, None),
    ("bench-daelm-t-zero-cs", ["bench", "--data-dir", "{D}", "--method", "daelm-t",
                               "--cs", "0"], 1, None),
    ("bench-daelm-s-zero-ct", ["bench", "--data-dir", "{D}", "--method", "daelm-s",
                               "--ct", "0", *FAST, *RUNS], 0, None),
    ("bench-daelm-t-zero-ctu", ["bench", "--data-dir", "{D}", "--method", "daelm-t",
                                "--ctu", "0", *FAST, *RUNS], 0, None),
    ("bench-empty-hidden", ["bench", "--data-dir", "{D}", "--hidden", ""], 1, None),
    ("bench-hidden-out-of-memory", ["bench", "--data-dir", "{D}", "--features", "4",
                                    "--hidden", "1000000000000000", *RUNS],
     2, "out of memory"),
    ("sweep", ["sweep", "--data-dir", "{D}", "--method", "daelm-s", "--ks", "3,5",
               *MAP, *RUNS], 0, None),
    ("sweep-guides", ["sweep", "--data-dir", "{D}", "--ks", "3", "--guides", "4"], 1, None),
    ("sweep-config-k-guides", ["sweep", "--data-dir", "{D}", "--ks", "3",
                               "--config", "{F}/guides.cfg"], 2, "{F}/guides.cfg"),
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
        "guides.cfg": b"k_guides = 4\n",
    }.items():
        (files / name).write_bytes(content)
    model = root / "model.json"
    assert main(["train", "--data-dir", str(drift_corpus_dir), "--target-batch", "6",
                 "--out", str(model), *FAST]) == 0
    return {"D": drift_corpus_dir, "P": partial, "X": root / "dir-batch", "F": files,
            "M": model}


def check_contract(paths, argv, code, names):
    """Run ``main`` on ``argv`` and hold the outcome to the contract.

    ``code`` is the exit code ``argv`` must give, or None for any of 0, 1
    and 2. An exit 2 must name one of ``names``. In both, {D}, {P}, {X}, {F}
    and {M} stand for the entries of ``paths``.
    """
    reads = []
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("DRIFTELM_DATA_DIR", raising=False)
        for name in ("load_corpus", "load_batch"):
            def counted(*args, _real=getattr(driftelm.dataset, name), _name=name, **kwargs):
                reads.append(_name)
                return _real(*args, **kwargs)
            mp.setattr(driftelm.dataset, name, counted)
        with redirect_stdout(out), redirect_stderr(err):
            got = main([arg.format(**paths) for arg in argv])
    out, err = out.getvalue(), err.getvalue()

    assert got == code if code is not None else got in (0, 1, 2)
    assert "Traceback" not in err
    if got:
        lines = err.splitlines()
        if not lines:  # validate-data's report is its output
            assert out.endswith("status=mismatch\n")
        elif lines[0].startswith("usage: "):
            assert re.fullmatch(r"driftelm( [\w-]+)?: error: .+", lines[-1])
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")
    if got == 1 or err.startswith("error: output "):
        assert reads == []
    if got == 2:
        assert any(name.format(**paths) in out + err for name in names), err


@pytest.mark.parametrize("argv, code, names", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_cli_contract(paths, argv, code, names):
    check_contract(paths, argv, code, [names])


# Values a draw gives each flag, from the table above: first those of the
# flag's type and sign, then the boundary, negative, non-numeric, empty and
# unreadable ones that can fail a check. Each is bounded, so that a draw that
# runs stays small: at most 30 hidden units, 2 runs and 2 jobs.
PENALTY_VALUES = (["0.5", "7", "0"], ["-1", "nan", "inf", "x", ""])
VALUES = {
    "--features": (["4"], ["3", "0", "x", ""]),
    "--batch": (["5", "1"], ["0", "11", "x", ""]),
    "--model": (["{M}"], ["{F}/empty.json", "{F}/not-json.json", "{F}/not-utf8.json",
                          "{F}/list.json", "{F}/absent.json"]),
    "--hidden": (["30", "1"], ["0", "-1", "x", ""]),
    "--runs": (["1", "2"], ["0", "-1", "x", ""]),
    "--ks": (["3,5", "2", "35"], ["0", "5,-3", "4,x", "36", ""]),
    "--target-batch": (["6", "10"], ["1", "0", "11", "x", ""]),
    "--guides": (["4", "2", "35"], ["1", "0", "36", "-3", "x", ""]),
    "--seed": (["5", "0"], ["-1", "x", ""]),
    "--jobs": (["1", "2"], ["-1", "0", "x", ""]),
    "--setting": (["1", "2"], ["3", ""]),
    "--source-batch": (["1", "2"], ["6", "0", "11", "x", ""]),
    "--activation": (["radbas", "sigmoid"], ["relu"]),
    "--cs": PENALTY_VALUES, "--ct": PENALTY_VALUES, "--ctu": PENALTY_VALUES,
}
# per command: the flags every draw gives (so that nothing runs at the
# 1000-unit, 10-run defaults, and the data commands read the 4-feature
# corpus), then the flags a draw may add
DRAWN_FLAGS = {
    "validate-data": (["--features"], []),
    "select-guides": (["--features", "--batch", "--guides"], []),
    "predict": (["--model", "--batch"], []),
    "bench": (["--features", "--hidden", "--runs"],
              ["--guides", "--seed", "--jobs", "--setting", "--activation",
               "--cs", "--ct", "--ctu"]),
    "sweep": (["--features", "--hidden", "--runs", "--ks"],
              ["--seed", "--jobs", "--setting", "--activation", "--cs", "--ct", "--ctu"]),
    "train": (["--features", "--hidden", "--target-batch"],
              ["--guides", "--seed", "--source-batch", "--activation",
               "--cs", "--ct", "--ctu"]),
}


# The commands that take a method and penalties; the data commands take
# neither, so their draws ignore both parameters. The experiment commands have
# many more flags to draw, so each is drawn twice as often as a data command.
EXPERIMENT_COMMANDS = ("bench", "sweep", "train")
COMMAND_DRAWS = (*EXPERIMENT_COMMANDS, *EXPERIMENT_COMMANDS,
                 *sorted(set(DRAWN_FLAGS) - set(EXPERIMENT_COMMANDS)))


@pytest.mark.parametrize("penalty", ["--cs", "--ct", "--ctu"])
@pytest.mark.parametrize("method", METHODS)
@given(data=st.data())
@settings(max_examples=18, deadline=None)
def test_drawn_argv_keeps_the_contract(paths, method, penalty, data):
    command = data.draw(st.sampled_from(COMMAND_DRAWS), label="command")
    always, optional = DRAWN_FLAGS[command]
    argv = [command, "--data-dir", "{D}"]
    if command in EXPERIMENT_COMMANDS:
        argv += ["--method", method]
        always = [penalty, *always]
    if optional:
        always = [*always, *data.draw(
            st.lists(st.sampled_from(optional), unique=True, max_size=3), label="flags")]
    flags = list(dict.fromkeys(always))
    # at most two flags may take a value from their second list, so that most
    # draws get as far as the load, and many run
    failing = data.draw(st.lists(st.sampled_from(flags), unique=True, max_size=2),
                        label="failing")
    if command == "train":
        argv += ["--out", "{F}/drawn.json"]
    for flag in flags:
        passing, other = VALUES[flag]
        argv += [flag, data.draw(st.sampled_from(passing + other if flag in failing
                                                 else passing), label=flag)]
    # an exit 2 names a file of the corpus directory or one that argv gives,
    # or a batch id or guide count that argv gives; validate-data's report
    # names the first batch of {D} that mismatches
    tokens = {tok for arg in argv for tok in arg.split(",")}
    names = ["{D}/", "batch=1 total=60 expected=445 status=mismatch",
             *(tok for tok in tokens if tok.startswith("{F}/")),
             *(f"batch {tok} " for tok in tokens),
             *(f"k_guides={tok} must be below the target batch size" for tok in tokens)]
    check_contract(paths, argv, None, names)
