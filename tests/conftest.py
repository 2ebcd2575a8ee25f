import copy
import os
from pathlib import Path

import numpy as np
import pytest

from driftelm import SampleSet, solve_ridge


def save_batch(samples: SampleSet, path) -> None:
    """Write a labeled SampleSet in the batch-file format.

    Values are written with shortest round-trip precision, so ``load_batch``
    reads the features back bit-exactly.
    """
    lines = []
    for row, label in zip(samples.features, samples.labels):
        pairs = [f"{j + 1}:{float(v)!r}" for j, v in enumerate(row)
                 if v != 0.0 or np.signbit(v)]
        lines.append(" ".join([str(int(label))] + pairs))
    Path(path).write_text("\n".join(lines) + "\n")


def make_drift_corpus(classes=6, per_class_source=200, per_class_target=30,
                      n_features=8, seed=7, morph=0.9, blob_std=0.8, spread=3.0):
    """Ten synthetic batches whose drift grows with the batch index.

    Batch 1 sits on fixed Gaussian class blobs. In later batches each class
    migrates linearly toward the next class's territory (fraction
    ``morph * (batch - 1) / 9``), so drifted samples land where batch 1
    places a different class. That conflict is what makes a source-trained
    classifier degrade and makes labeled guides from the target batch
    informative.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(classes, n_features))
    rolled = np.roll(centers, -1, axis=0)
    batches = []
    for batch_id in range(1, 11):
        per = per_class_source if batch_id == 1 else per_class_target
        t = morph * (batch_id - 1) / 9.0
        effective = (1 - t) * centers + t * rolled
        labels = np.repeat(np.arange(1, classes + 1), per)
        feats = effective[labels - 1] + rng.normal(0.0, blob_std,
                                                   (labels.size, n_features))
        batches.append(SampleSet(feats, labels, batch_id=batch_id))
    return batches


@pytest.fixture(scope="session")
def drift_corpus():
    return make_drift_corpus()


@pytest.fixture(scope="session")
def small_drift_corpus():
    """Cheaper variant for protocol-shape tests."""
    return make_drift_corpus(classes=3, per_class_source=20, per_class_target=12,
                             n_features=4, seed=3)


@pytest.fixture(scope="session")
def drift_corpus_dir(tmp_path_factory, small_drift_corpus):
    """The small synthetic corpus saved as batch1.dat .. batch10.dat."""
    root = tmp_path_factory.mktemp("corpus")
    for batch in small_drift_corpus:
        save_batch(batch, root / f"batch{batch.batch_id}.dat")
    return root


def both_forms(blocks):
    """``solve_ridge`` on ``blocks`` forced into each closed form.

    A trainer takes whichever form `auto` picks; its result must match both,
    so one of these checks it against the other form.
    """
    return [solve_ridge(blocks, branch) for branch in ("primal", "dual")]


def rel_diff(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-30)


# Objective gradients, written out independently of the solver code paths.
def elm_grad(beta, h, t, c):
    return beta - c * h.T @ (t - h @ beta)


def daelm_s_grad(beta, hs, ts, ht, tt, c_s, c_t):
    return (beta - c_s * hs.T @ (ts - hs @ beta)
            - c_t * ht.T @ (tt - ht @ beta))


def daelm_t_grad(beta, ht, tt, hu, pseudo, c_t, c_tu):
    return (beta - c_t * ht.T @ (tt - ht @ beta)
            - c_tu * hu.T @ (pseudo - hu @ beta))


def ssa_bruteforce(points, k):
    """Step-by-step re-derivation of the selection on a full distance matrix.

    Independent of the library implementation: quadratic-time scans with
    explicit lowest-index tie handling.
    """
    n = len(points)
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    best = -1.0
    pair = (0, 1)
    for p in range(n):
        for q in range(p + 1, n):
            if dist[p, q] > best:
                best = dist[p, q]
                pair = (p, q)
    selected = [pair[0], pair[1]]
    while len(selected) < min(k, n):
        best_val = -1.0
        best_idx = None
        for i in range(n):
            if i in selected:
                continue
            nearest = min(dist[i, s] for s in selected)
            if nearest > best_val:
                best_val = nearest
                best_idx = i
        selected.append(best_idx)
    return selected, best


def official_corpus_dir():
    """Directory of the real 10-batch corpus, or None when absent."""
    candidates = []
    env = os.environ.get("DRIFTELM_DATA_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for path in candidates:
        if path.is_dir() and (path / "batch1.dat").is_file():
            return path
    return None


def _edit(doc, *path, change=None):
    """Deep copy of a model document whose entry at ``path`` is changed.

    ``change`` maps the entry's old value to its new one; without it the
    entry is deleted.
    """
    doc = copy.deepcopy(doc)
    *parents, key = path
    node = doc
    for parent in parents:
        node = node[parent]
    if change is None:
        del node[key]
    else:
        node[key] = change(node[key])
    return doc


# Each maps a valid model document to one that `classifier_from_dict` and
# `predict` must refuse.
MALFORMED_MODELS = {
    "json-list": lambda d: [d],
    "unknown-format": lambda d: _edit(d, "format", change=lambda _: "driftelm-classifier-v0"),
    "no-scaler": lambda d: _edit(d, "scaler"),
    "no-meta": lambda d: _edit(d, "meta"),
    "no-map-seed": lambda d: _edit(d, "feature_map", "seed"),
    "no-map-sha256": lambda d: _edit(d, "feature_map", "sha256"),
    "float-map-size": lambda d: _edit(d, "feature_map", "hidden_size", change=float),
    # sizes whose weights would take more bytes than a 128 TiB address space
    # holds, yet below numpy's size limit: drawing them fails at once anywhere
    "huge-map-size": lambda d: _edit(d, "feature_map", "hidden_size", change=lambda _: 10**15),
    "huge-map-width": lambda d: _edit(d, "feature_map", "n_features", change=lambda _: 10**15),
    "string-beta": lambda d: _edit(d, "beta", change=str),
    "string-in-beta": lambda d: _edit(d, "beta", 0, 0, change=str),
    "nan-in-beta": lambda d: _edit(d, "beta", 0, 0, change=lambda _: float("nan")),
    "ragged-beta": lambda d: _edit(d, "beta", 0, change=lambda row: row[1:]),
    "flat-beta": lambda d: _edit(d, "beta", change=lambda rows: rows[0]),
    "short-beta": lambda d: _edit(d, "beta", change=lambda rows: rows[1:]),
    "wrong-m": lambda d: _edit(d, "m", change=lambda m: m + 1),
    "string-m": lambda d: _edit(d, "m", change=str),
    "scaler-list": lambda d: _edit(d, "scaler", change=lambda s: [s["min"], s["max"]]),
    "string-scaler-min": lambda d: _edit(d, "scaler", "min", 0, change=str),
    "widened-scaler": lambda d: _edit(_edit(d, "scaler", "min", change=lambda v: v + [0.0]),
                                      "scaler", "max", change=lambda v: v + [1.0]),
    "changed-seed-kept-sha256": lambda d: _edit(d, "feature_map", "seed",
                                                change=lambda seed: seed + 1),
}
