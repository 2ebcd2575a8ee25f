"""One measuring process of the benchmark.

``run.py`` starts it with the BLAS thread variables already set, so every
sample of set-up time starts from a fresh interpreter. It times set-up from
before ``import driftelm`` through ``load_corpus`` of the ten batch files.
Then, unless ``--setup-only``:

- untraced: repeats the workload's protocol while the next repetition, as
  long as the longest so far, still ends within ``--seconds``;
- ``--trace``: makes one untraced repetition, then installs the tracer and
  makes one traced ``load_corpus`` and one traced repetition, and writes the
  spans as JSONL.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _repetition(w, corpus, seed, tracer=None) -> dict:
    # The benchmark's modules import driftelm, so they load only after the
    # set-up clock in main() has started.
    from workloads import check_csv, run_protocol
    t0 = time.perf_counter()
    try:
        text = run_protocol(w, corpus, seed, tracer)
    except Exception as exc:  # a failed repetition is counted, not fatal
        traceback.print_exc()
        return {"s": time.perf_counter() - t0, "error": repr(exc)}
    elapsed = time.perf_counter() - t0
    rep = {"s": elapsed, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    try:
        acc = check_csv(w, text)
    except ValueError as exc:
        rep["error"] = str(exc)
    else:
        rep["accuracy_pct"] = sum(acc) / len(acc)
    return rep


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import driftelm
    corpus = driftelm.load_corpus(args.data)
    out = {"setup_s": time.perf_counter() - t0, "driftelm": driftelm.__file__}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    if not driftelm.validate_corpus(corpus).ok:
        print("corpus does not match the reference class counts", file=sys.stderr)
        return 1

    from workloads import WORKLOADS
    w = WORKLOADS[args.workload]
    if args.trace:
        from tracing import Tracer, layer_metrics
        untraced = _repetition(w, corpus, args.seed)
        tracer = Tracer()
        with tracer:
            driftelm.load_corpus(args.data)
            traced = _repetition(w, corpus, args.seed, tracer)
        tracer.write_jsonl(args.spans)
        out["reps"] = [untraced, traced]
        out["layers"] = layer_metrics(tracer.spans, traced["s"] - untraced["s"])
    else:
        reps, start = [], time.perf_counter()
        while True:
            reps.append(_repetition(w, corpus, args.seed))
            longest = max(r["s"] for r in reps)
            if time.perf_counter() - start + longest > args.seconds:
                break
        out["reps"] = reps
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
