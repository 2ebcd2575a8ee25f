"""Build a BENCH_<date>.json record that compares a parent checkout with this one.

    python3 tools/bench_record.py --parent ../parent --out BENCH_2026-10-20.json

Run it from the root of a checkout; ``--parent`` is a second checkout (for
example a ``git clone`` of the parent commit). Each side runs its own
``perfbench/run.py`` and its own ``driftelm`` source, and keeps its own
``.perfbench/`` state. The record holds:

- ``host``: CPU model, nproc, the thread variables this script was started
  with, scipy's BLAS build, and per side the BLAS libraries a process maps
  after ``import driftelm`` and one solve, OpenBLAS's core type and whether
  any scipy module was loaded;
- ``workloads``: ``run.py --trace 0`` on every workload, ``--pairs`` times
  per side in alternating order, with each run's metrics and the first full
  run.py document of each side, then the median and quartiles of every
  end-to-end metric and the pairs the change won; and ``run.py --trace 1``
  once per side;
- ``reference_bench``: the eight reference ``driftelm bench`` commands (elm(0),
  elm(50), daelm-s(50) and daelm-t(50) in both settings, 1000 hidden units,
  10 runs) ``--rounds`` times per side, pinned to one BLAS thread, with wall
  time, peak RSS and the CSV's sha256;
- ``coretypes``: the same eight commands once per side under each
  ``OPENBLAS_CORETYPE`` in `CORETYPES`, with the core OpenBLAS reports and
  the CSV's sha256, so a record shows whether the CSVs depend on the BLAS
  kernel;
- ``threads_jobs``: full fixed daelm-t(50) and rolling daelm-s(50) ``bench``
  (10 runs) with the BLAS pinned to one thread or the thread variables
  unset, each with ``--jobs 1`` and ``--jobs 2``, ``--rounds`` times per
  side, with wall time, peak RSS and the CSV's sha256.

The record is rewritten after every run, so an interrupted build leaves the
runs made so far. Neither the package nor its tests import this script.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("fixed-daelm-t", "rolling-elm", "sweep-daelm-s")
# name -> True when a higher value is better
END_TO_END = {"protocol_s": False, "setup_s": False, "peak_rss_mb": False,
              "accuracy_pct": True}
REFERENCE_BENCH = [(setting, method, k) for setting in ("1", "2")
                   for method, k in (("elm", 0), ("elm", 50), ("daelm-s", 50),
                                     ("daelm-t", 50))]
THREADS_JOBS = [("1", "daelm-t"), ("2", "daelm-s")]  # (setting, method), at k = 50
# OpenBLAS kernels numpy's DYNAMIC_ARCH wheel can be told to take on an
# x86-64 host that supports AVX-512; Prescott runs the Katmai kernels
CORETYPES = ("SkylakeX", "Haswell", "Prescott")

PROBE = """if True:
    import json, os, sys
    sys.path.insert(0, sys.argv[1])
    import numpy as np
    import driftelm
    import workloads  # what a perfbench worker imports at --trace 0
    for rows in (3, 30):  # the dual and the primal form
        driftelm.solve_ridge([(np.ones((rows, 10)), np.ones((rows, 2)), 1.0)])
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "/" in line}
    print(json.dumps({
        "blas_libraries": sorted(os.path.basename(p) for p in paths
                                 if "blas" in os.path.basename(p).lower()),
        "scipy_modules_loaded": sorted(m for m in sys.modules
                                       if m.split(".")[0] == "scipy")}))
"""


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _env(side: Path, pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if pinned:
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(side / "src")
    return env


def _side_blas(side: Path) -> dict:
    env = dict(_env(side, True), OPENBLAS_VERBOSE="2")
    proc = subprocess.run([sys.executable, "-c", PROBE, str(side / "perfbench")],
                          cwd=side, env=env, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["openblas_verbose"] = sorted({line.strip() for line in
                                      (proc.stdout + proc.stderr).splitlines()
                                      if line.startswith("Core")})
    return out


def host(sides: dict) -> dict:
    scipy_blas = subprocess.run(
        [sys.executable, "-c", "import json, scipy; b = scipy.show_config(mode='dicts')"
         "['Build Dependencies']['blas']; print(json.dumps({k: b.get(k) for k in "
         "('name', 'version', 'openblas configuration')}))"],
        capture_output=True, text=True, check=True).stdout
    return {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "thread_env_at_start": {k: os.environ.get(k) for k in THREAD_VARS},
            "scipy_blas": json.loads(scipy_blas),
            "sides": {name: _side_blas(path)
                      for name, path in sides.items()}}


def _perfbench(side: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--trace", str(trace)],
                          cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed on {side}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    doc_path = side / ".perfbench" / "results" / f"{workload}-seed0-trace{trace}.json"
    return {"result": result, "document": json.loads(doc_path.read_text())}


def _bench(side: Path, data: Path, args: list[str], pinned: bool,
           coretype: str | None = None) -> dict:
    env = _env(side, pinned)
    if coretype is not None:
        env.update(OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2")
    with tempfile.TemporaryDirectory() as tmp:
        out, log = Path(tmp) / "out.csv", Path(tmp) / "log"
        with log.open("w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "driftelm.cli", "bench",
                                     "--data-dir", str(data), *args, "--format", "csv",
                                     "--out", str(out)], cwd=side, env=env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        lines = log.read_text().splitlines()
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"bench {args} failed on {side}: " + "\n".join(lines[-20:]))
        run = {"s": wall, "maxrss_mb": usage.ru_maxrss / 1024.0,
               "csv_sha256": hashlib.sha256(out.read_bytes()).hexdigest()}
        if coretype is not None:
            run["core"] = sorted({line.strip() for line in lines if line.startswith("Core")})
        return run


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarise(pairs: list[dict]) -> dict:
    """Median and quartiles per side and metric, and the pairs the change won."""
    out = {}
    for name, higher in END_TO_END.items():
        per = {side: [p[side]["metrics"][name]["value"] for p in pairs]
               for side in ("parent", "change")}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(per["parent"], per["change"]))
        out[name] = {"parent": _quartiles(per["parent"]),
                     "change": _quartiles(per["change"]),
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def _pair_counts(text: str) -> dict:
    counts = {}
    for item in text.split(","):
        name, _, n = item.partition("=")
        if name not in WORKLOADS:
            raise argparse.ArgumentTypeError(f"unknown workload {name!r}")
        counts[name] = int(n)
    return counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--out", type=Path, required=True, help="record to write")
    p.add_argument("--pairs", type=_pair_counts,
                   default="fixed-daelm-t=3,rolling-elm=10,sweep-daelm-s=3",
                   help="trace-0 pairs per workload, as name=count,...")
    p.add_argument("--rounds", type=int, default=3, help="rounds of each bench command")
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    record = {"host": host(sides), "commands": {"argv": sys.argv},
              "workloads": {}, "reference_bench": {}, "coretypes": {}, "threads_jobs": {}}

    def save():
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    def alternate(i: int) -> list[str]:
        return ["parent", "change"] if i % 2 == 0 else ["change", "parent"]

    for workload, count in args.pairs.items():
        entry = record["workloads"][workload] = {"pairs": [], "documents": {}}
        for i in range(count):
            pair = {}
            for side in alternate(i):
                run = _perfbench(sides[side], workload, 0)
                pair[side] = {"correct": run["result"]["correct"],
                              "metrics": run["result"]["metrics"],
                              "csv_sha256": run["document"]["csv_sha256"]}
                entry["documents"].setdefault(side, run["document"])
                print(workload, i, side, json.dumps(run["result"]), flush=True)
            entry["pairs"].append(pair)
            entry["summary"] = summarise(entry["pairs"])
            save()
        entry["trace1"] = {side: _perfbench(path, workload, 1)["document"]
                           for side, path in sides.items()}
        save()

    data = ROOT / ".perfbench" / "corpus" / "seed-0"
    for setting, method, k in REFERENCE_BENCH:
        name = f"setting{setting}-{method}({k})"
        cmd = ["--setting", setting, "--method", method, "--guides", str(k), "--runs", "10"]
        runs = record["reference_bench"][name] = {"args": cmd, "parent": [], "change": []}
        for i in range(args.rounds):
            for side in alternate(i):
                runs[side].append(_bench(sides[side], data, cmd, pinned=True))
        print(name, json.dumps(runs), flush=True)
        save()

    for name, runs in record["reference_bench"].items():
        cores = record["coretypes"][name] = {}
        for i, coretype in enumerate(CORETYPES):
            cores[coretype] = {side: _bench(sides[side], data, runs["args"], True, coretype)
                               for side in alternate(i)}
        print(name, json.dumps(cores), flush=True)
        save()

    for (setting, method), pinned, jobs in itertools.product(THREADS_JOBS, (True, False),
                                                             ("1", "2")):
        name = f"setting{setting}-{method}(50)-{'pinned' if pinned else 'unset'}-jobs{jobs}"
        cmd = ["--setting", setting, "--method", method, "--guides", "50", "--runs", "10",
               "--jobs", jobs]
        runs = record["threads_jobs"][name] = {"args": cmd, "pinned": pinned,
                                               "parent": [], "change": []}
        for i in range(args.rounds):
            for side in alternate(i):
                runs[side].append(_bench(sides[side], data, cmd, pinned))
        print(name, json.dumps(runs), flush=True)
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
