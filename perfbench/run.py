"""driftelm benchmark: three protocol workloads on a corpus-shaped synthetic.

    python3 perfbench/run.py --workload fixed-daelm-t --seed 0 --seconds 32 --trace 0

Run from the root of a checkout. The seed drives both the synthetic corpus
(written once per seed under ``.perfbench/corpus/``) and the protocol's
``base_seed``. BLAS is pinned to one thread and the protocol to ``jobs=1``.

Every measurement runs in a fresh worker process (``worker.py``). Set-up time
is sampled in five processes and reported as the median; the protocol
repeats for about ``--seconds`` and reports the median repetition.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` a
traced run prints the per-layer metrics (see ``tracing.py``) and writes the
spans as JSONL under ``.perfbench/results/``. A repetition fails if it raises
or if its CSV bytes differ from the committed reference digest for its seed
(``reference_digests.json``), or for other seeds from the run's first
repetition. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0

# End-to-end metrics: name -> unit. fail_frac is printed as well, but the
# result carries it as the counts ``attempted`` and ``failed``.
END_TO_END = {"protocol_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "accuracy_pct": "%"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "driftelm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; src_sha256 still applies
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, jobs: int) -> dict:
    import numpy
    import scipy

    import driftelm
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": jobs, "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "driftelm": driftelm.__version__,
        "git_commit": _git_commit(), "src_sha256": _code_digest(),
    }


def judge(reps: list[dict], reference: str | None) -> tuple[int, str | None]:
    """Failed repetitions, and the digest they were compared against."""
    if reference is None:
        reference = next((r["sha256"] for r in reps if "error" not in r), None)
    failed = sum("error" in r or r["sha256"] != reference for r in reps)
    return failed, reference


def bench(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import driftelm
    import synth
    from workloads import JOBS, WORKLOADS
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if Path(driftelm.__file__).resolve().parent != ROOT / "src" / "driftelm":
        raise BenchError(f"driftelm imported from {driftelm.__file__}, not this checkout")

    data = synth.ensure_corpus(STATE / "corpus" / f"seed-{args.seed}", args.seed)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--data", str(data)]
    run = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    probe = common + ["--setup-only"]
    if args.trace:
        run += ["--trace", "--spans", str(results / f"{stem}.spans.jsonl")]
        out = _worker(common + run, deadline)
        setups = [out["setup_s"]]
    else:
        # Five set-up samples: two before the protocol worker, its own, and
        # two after, so that one slow spell of a shared machine moves the
        # median less than it would move back-to-back samples.
        setups = [_worker(probe, deadline)["setup_s"] for _ in range(2)]
        out = _worker(common + run, deadline)
        setups += [out["setup_s"]] + [_worker(probe, deadline)["setup_s"] for _ in range(2)]

    refs = json.loads((HERE / "reference_digests.json").read_text())
    reference = refs.get(args.workload, {}).get(str(args.seed))
    failed, digest = judge(out["reps"], reference)
    ok_reps = [r for r in out["reps"] if "error" not in r]
    if args.trace:
        metrics = out["layers"]
    else:
        metrics = {
            "protocol_s": statistics.median(r["s"] for r in out["reps"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
            "accuracy_pct": ok_reps[0]["accuracy_pct"] if ok_reps else 0.0,
        }
    attempted = len(out["reps"])
    doc = {
        "provenance": provenance(args, JOBS),
        "csv_sha256": digest, "reference_committed": reference is not None,
        "setup_samples_s": setups, "repetitions": out["reps"],
        "fail_frac": failed / attempted, "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(doc, indent=2) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, doc = bench(args)
    except (BenchError, ImportError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        from tracing import LAYER_METRICS
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        units = END_TO_END
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_frac':40s} {doc['fail_frac']:14.6g} fraction "
          f"({result['failed']} of {result['attempted']} repetitions)")
    print("provenance " + json.dumps(doc["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
