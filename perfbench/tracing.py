"""Outside-in tracing of driftelm's layers.

The traced run replaces the public functions that ``driftelm.benchmark`` and
``driftelm.solvers`` call, at the names those modules imported them under,
with wrappers that record a span (name, start, end, parent) per call. Spans
stay in memory and are written out as JSONL at the end. Nothing under
``src/`` knows about the tracer, and leaving the ``with`` block puts every
original attribute back.

Counts that are not observed but derived from call arguments (``.dist_evals``
and ``.gflop``) carry the unit suffix ``-computed``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from scipy.linalg import LinAlgError

import driftelm
import driftelm.benchmark
import driftelm.solvers


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(x) -> int:
    return int(getattr(x, "features", x).shape[0])


def _ssa_attrs(args, result):
    return {"rows": _rows(args[0]), "k": int(args[1])}


def _hidden_attrs(args, result):
    fmap, x = args[0], args[1]
    return {"rows": _rows(x), "n": fmap.n_features, "hidden": fmap.hidden_size}


def _predict_attrs(args, result):
    return {"rows": _rows(args[1])}


def _factor_attrs(args, result):
    return {"dim": int(args[0].shape[0])}


def _load_attrs(args, result):
    files = sorted(Path(args[0]).glob("batch*.dat"))
    return {"rows": sum(b.n_samples for b in result),
            "bytes": sum(f.stat().st_size for f in files)}


# (module, attribute, span name, attribute recorder). A function imported by
# both modules is wrapped in both, because each module calls its own binding.
TARGETS = (
    (driftelm, "load_corpus", "dataset.load_corpus", _load_attrs),
    (driftelm.benchmark, "fit_scaler", "dataset.scale", None),
    (driftelm.benchmark, "apply_scaler", "dataset.scale", None),
    (driftelm.benchmark, "encode_targets", "dataset.encode_targets", None),
    (driftelm.benchmark, "ssa_select", "guide_selection.ssa_select", _ssa_attrs),
    (driftelm.benchmark, "split_target", "guide_selection.split_target", None),
    (driftelm.benchmark, "new_feature_map", "feature_map.new_feature_map", None),
    (driftelm.benchmark, "hidden_output", "feature_map.hidden_output", _hidden_attrs),
    (driftelm.solvers, "hidden_output", "feature_map.hidden_output", _hidden_attrs),
    (driftelm.benchmark, "train_elm", "solvers.train_elm", None),
    (driftelm.solvers, "train_elm", "solvers.train_elm", None),
    (driftelm.benchmark, "train_daelm_s", "solvers.train_daelm_s", None),
    (driftelm.benchmark, "train_daelm_t", "solvers.train_daelm_t", None),
    (driftelm.benchmark, "predict", "solvers.predict", _predict_attrs),
    (driftelm.solvers, "cho_factor", "solvers.cho_factor", _factor_attrs),
    (driftelm.solvers, "cho_solve", "solvers.cho_solve", None),
)


class Tracer:
    """Records spans while installed; single-threaded (the benchmark pins jobs=1)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, recorder):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                try:
                    result = fn(*args, **kwargs)
                except LinAlgError:  # _solve_spd's jitter retry follows
                    span.attrs["failed"] = 1
                    if recorder is not None:
                        span.attrs.update(recorder(args, None))
                    raise
            if recorder is not None:
                span.attrs.update(recorder(args, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name, recorder in TARGETS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, recorder))
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "parent": s.parent, "name": s.name,
                                     "start": s.start - t0, "end": s.end - t0,
                                     **s.attrs}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.duration - covered
    return out


# Per-layer metrics of the traced run: name -> (unit, better).
LAYER_METRICS = {
    "guide_selection.ssa_select.s": ("s", "lower"),
    "guide_selection.ssa_select.calls": ("count", "lower"),
    "guide_selection.ssa_select.rows": ("rows", "lower"),
    "guide_selection.ssa_select.dist_evals": ("evals-computed", "lower"),
    "guide_selection.split_target.s": ("s", "lower"),
    "solvers.train_elm.s": ("s", "lower"),
    "solvers.train_daelm_s.s": ("s", "lower"),
    "solvers.train_daelm_t.s": ("s", "lower"),
    "solvers.cho_factor.calls": ("count", "lower"),
    "solvers.cho_factor.s": ("s", "lower"),
    "solvers.cho_factor.dim_max": ("rows", "lower"),
    "solvers.cho_factor.dim_sum": ("rows", "lower"),
    "solvers.cho_factor.gflop": ("gflop-computed", "lower"),
    "solvers.cho_factor.failed": ("count", "lower"),
    "solvers.cho_solve.s": ("s", "lower"),
    "solvers.predict.s": ("s", "lower"),
    "solvers.predict.rows": ("rows", "lower"),
    "feature_map.hidden_output.calls": ("count", "lower"),
    "feature_map.hidden_output.s": ("s", "lower"),
    "feature_map.hidden_output.rows": ("rows", "lower"),
    "feature_map.hidden_output.gflop": ("gflop-computed", "lower"),
    "feature_map.new_feature_map.s": ("s", "lower"),
    "dataset.load_corpus.s": ("s", "lower"),
    "dataset.load_corpus.rows": ("rows", "lower"),
    "dataset.load_corpus.bytes": ("bytes", "lower"),
    "dataset.scale.s": ("s", "lower"),
    "dataset.encode_targets.s": ("s", "lower"),
    "benchmark.self.s": ("s", "lower"),
    "benchmark.emit.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Spans whose ``.s`` metric is self time; every other ``.s`` is total time.
SELF_TIMED = {"solvers.train_elm", "solvers.train_daelm_s", "solvers.train_daelm_t",
              "benchmark.protocol"}


def layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """Aggregate spans into LAYER_METRICS (all but ``trace.overhead_s``)."""
    own = self_times(spans)
    m = {name: 0.0 if unit == "s" else 0 for name, (unit, _) in LAYER_METRICS.items()}
    for s in spans:
        t = own[s.span_id] if s.name in SELF_TIMED else s.duration
        a = s.attrs
        if s.name == "benchmark.protocol":
            m["benchmark.self.s"] += t
            continue
        key = f"{s.name}.s"
        if key in m:
            m[key] += t
        if s.name == "guide_selection.ssa_select":
            n, k = a["rows"], min(a["k"], a["rows"])
            m["guide_selection.ssa_select.calls"] += 1
            m["guide_selection.ssa_select.rows"] += n
            m["guide_selection.ssa_select.dist_evals"] += n * (n - 1) // 2 + k * n
        elif s.name == "solvers.cho_factor":
            d = a["dim"]
            m["solvers.cho_factor.calls"] += 1
            m["solvers.cho_factor.dim_max"] = max(m["solvers.cho_factor.dim_max"], d)
            m["solvers.cho_factor.dim_sum"] += d
            m["solvers.cho_factor.gflop"] += d ** 3 / 3 / 1e9
            m["solvers.cho_factor.failed"] += a.get("failed", 0)
        elif s.name == "solvers.predict":
            m["solvers.predict.rows"] += a["rows"]
        elif s.name == "feature_map.hidden_output":
            m["feature_map.hidden_output.calls"] += 1
            m["feature_map.hidden_output.rows"] += a["rows"]
            m["feature_map.hidden_output.gflop"] += 2 * a["rows"] * a["n"] * a["hidden"] / 1e9
        elif s.name == "dataset.load_corpus":
            m["dataset.load_corpus.rows"] += a["rows"]
            m["dataset.load_corpus.bytes"] += a["bytes"]
    m["trace.overhead_s"] = overhead_s
    return m
