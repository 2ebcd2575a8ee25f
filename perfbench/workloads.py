"""The benchmark's workloads and the library calls one repetition makes.

Each repetition makes the calls ``driftelm bench``/``sweep`` make:
``run_experiment`` then ``emit_report(..., "csv")``, or ``sweep_guides`` then
``emit_sweep_csv``. All use the reference defaults (1000 hidden units, radbas,
global scaler, default penalties) with ``jobs=1``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from driftelm import (ExperimentConfig, emit_report, emit_sweep_csv,
                      run_experiment, sweep_guides)

JOBS = 1


@dataclass(frozen=True)
class Workload:
    method: str
    setting: str
    k_guides: int
    runs: int
    ks: tuple[int, ...] = ()  # non-empty: a guide-count sweep

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(method=self.method, setting=self.setting,
                                k_guides=self.k_guides, runs=self.runs,
                                base_seed=seed, jobs=JOBS)

    @property
    def csv_rows(self) -> int:
        """Data rows the CSV must have: 9 targets per run (per k in a sweep)."""
        return 9 * self.runs * max(1, len(self.ks))


WORKLOADS = {
    # Guide selection (about half the time) plus N_u-sized dual solves; the
    # workload for the selector and the solver's branch choice.
    "fixed-daelm-t": Workload("daelm-t", "fixed-source", 50, 2),
    # No guide selection at all, so selector changes must show no change;
    # train_elm on both branches plus hidden_output/predict.
    "rolling-elm": Workload("elm", "rolling-source", 0, 10),
    # 27 selections over the same 9 targets and the daelm-s Schur path.
    "sweep-daelm-s": Workload("daelm-s", "fixed-source", 30, 1, (10, 30, 50)),
}


def run_protocol(w: Workload, corpus, seed: int, tracer=None) -> str:
    """One repetition, from the protocol call through the rendered CSV."""
    span = (lambda name: nullcontext()) if tracer is None else tracer.span
    cfg = w.config(seed)
    with span("benchmark.protocol"):
        if w.ks:
            reports = sweep_guides(cfg, corpus, list(w.ks))
            with span("benchmark.emit"):
                return emit_sweep_csv(reports)
        report = run_experiment(cfg, corpus)
        with span("benchmark.emit"):
            return emit_report(report, "csv")


def _accuracy(cell: str) -> float:
    # emit_report writes repr() of each accuracy; under NumPy 2 the repr of a
    # float64 is "np.float64(x)", so both spellings are read as x.
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def check_csv(w: Workload, text: str) -> list[float]:
    """Accuracies of a rendered CSV; raises ValueError if its shape is wrong."""
    lines = text.splitlines()
    header = "k,source,target,run,accuracy" if w.ks else "source,target,run,accuracy"
    if not lines or lines[0] != header:
        raise ValueError("unexpected CSV header")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != w.csv_rows or any(len(r) != len(header.split(",")) for r in rows):
        raise ValueError(f"expected {w.csv_rows} rows of {header}")
    acc = [_accuracy(r[-1]) for r in rows]
    if not all(0.0 <= a <= 100.0 for a in acc):
        raise ValueError("accuracy outside [0, 100]")
    return acc
