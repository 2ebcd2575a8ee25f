"""Corpus-shaped synthetic drift data for the benchmark.

Ten batches with the reference per-batch class counts
(``EXPECTED_CLASS_COUNTS``, 13910 rows) and 128 features laid out like the
real corpus: 16 sensors times 8 features, each feature on its own scale.
A sample is its class's sensor signature times a random concentration, plus
noise. Drift grows with the batch index: every sensor's gain and every
feature's offset move linearly with it, and each class signature migrates
toward the next class's, so a model trained on batch 1 degrades on later
batches and labeled guides from the target batch help. Everything is drawn
from one seeded generator, so a seed fixes the files byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from driftelm.dataset import (BATCH_IDS, EXPECTED_CLASS_COUNTS, GAS_NAMES,
                              N_CLASSES, N_FEATURES, SampleSet, load_corpus,
                              validate_corpus)

N_SENSORS = 16
FEATURES_PER_SENSOR = N_FEATURES // N_SENSORS
# Fraction of the way each class signature moves toward the next class's
# by batch 10; sets how far a batch-1 model degrades.
MORPH = 0.7
# Per-sample multiplicative noise on the sensor responses.
NOISE = 0.12
# Distance of each class signature from the common baseline.
SEPARATION = 0.8
# Norms of the per-batch gain and offset drift rates.
GAIN_DRIFT = 0.02
OFFSET_DRIFT = 0.05


def _fixed_norm(v: np.ndarray, norm: float) -> np.ndarray:
    return np.round(v * (norm / np.linalg.norm(v)), 12)


def make_corpus(seed: int) -> list[SampleSet]:
    """The ten batches for ``seed``, rows shuffled within each batch."""
    rng = np.random.default_rng(seed)
    # Class signatures on orthonormal directions around a common baseline, and
    # drift rates of fixed norm: the seed rotates the geometry but keeps every
    # class pair equally far apart, so accuracy hardly depends on the seed.
    # Values from LAPACK, BLAS or vectorised transcendental functions are
    # rounded, or avoided, so that other CPU kernels give the same files.
    basis = np.linalg.qr(rng.standard_normal((N_SENSORS, N_SENSORS)))[0]
    signature = np.round(1.0 + SEPARATION * basis[:, :N_CLASSES].T, 9)
    next_signature = np.roll(signature, -1, axis=0)
    decades = np.array([0.1, 1.0, 10.0, 100.0, 1000.0])
    feature_scale = (decades[rng.integers(0, decades.size, size=N_FEATURES)]
                     * rng.uniform(1.0, 10.0, size=N_FEATURES)
                     * rng.choice([-1.0, 1.0], size=N_FEATURES))
    gain_rate = _fixed_norm(rng.standard_normal(N_SENSORS), GAIN_DRIFT)
    offset_rate = _fixed_norm(rng.standard_normal(N_FEATURES), OFFSET_DRIFT)
    sensor_of = np.repeat(np.arange(N_SENSORS), FEATURES_PER_SENSOR)

    batches = []
    for bid in BATCH_IDS:
        counts = EXPECTED_CLASS_COUNTS[bid]
        labels = np.repeat(np.arange(1, N_CLASSES + 1),
                           [counts[gas] for gas in GAS_NAMES])
        labels = labels[rng.permutation(labels.size)]
        t = MORPH * (bid - 1) / (len(BATCH_IDS) - 1)
        sig = (1.0 - t) * signature + t * next_signature
        conc = rng.uniform(0.5, 2.0, size=(labels.size, 1))
        response = sig[labels - 1] * conc
        response *= 1.0 + NOISE * rng.standard_normal(response.shape)
        response *= 1.0 + gain_rate * (bid - 1)
        feats = response[:, sensor_of]
        feats *= 1.0 + 0.05 * rng.standard_normal(feats.shape)
        feats = (feats + offset_rate * (bid - 1)) * feature_scale
        batches.append(SampleSet(np.round(feats, 6), labels, batch_id=bid))
    return batches


def write_batch(samples: SampleSet, path: Path) -> None:
    """Write one batch in the corpus text format, six decimals per value."""
    fmt = "%d " + " ".join(f"{j}:%.6f" for j in range(1, samples.n_features + 1))
    rows = np.column_stack([samples.labels, samples.features])
    text = "\n".join(fmt % tuple(row) for row in rows.tolist()) + "\n"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def ensure_corpus(directory: Path, seed: int) -> Path:
    """Write batch1.dat .. batch10.dat for ``seed`` unless already there.

    Freshly written files are loaded back and must pass ``validate_corpus``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if all((directory / f"batch{bid}.dat").is_file() for bid in BATCH_IDS):
        return directory
    for batch in make_corpus(seed):
        write_batch(batch, directory / f"batch{batch.batch_id}.dat")
    report = validate_corpus(load_corpus(directory))
    if not report.ok:
        raise RuntimeError("generated corpus fails validation: "
                           + "; ".join(report.mismatches))
    return directory
