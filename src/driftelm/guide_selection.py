"""Guide-sample selection.

Picks k spread-out samples from a (scaled) target batch: seed with the
farthest pair, then repeatedly add the point whose distance to the selected
set is largest (Gonzalez's max-min traversal). Deterministic; all ties
resolve to the lowest index.

The farthest pair is found in two passes. A blocked GEMM pass computes every
row's approximate largest squared distance to the rows after it as
``|a|^2 + |b|^2 - 2 a.b`` on a centred copy, one block of rows at a time, so
its scratch stays O(block * n) (about 8 MB) and the n x n matrix is never
built. Only the rows whose approximate maximum lies within a rigorous
rounding bound of the largest are then rescanned with exact differences, in
ascending order, so the answer and its tie rule are those of the plain
quadratic scan. The greedy extension costs O(k * n * d).

Greedy selections are prefix-nested: the first j picks do not depend on k,
so a sweep over several k selects once at the largest and slices.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .dataset import DataError, SampleSet
from .feature_map import _as_features


def _distances_from(feats: np.ndarray, i: int) -> np.ndarray:
    return np.sqrt(np.square(feats - feats[i]).sum(axis=1))


# Values held at once by the farthest-pair pass (2**20 float64, 8 MB); its
# blocks have _SCRATCH_VALUES // n rows.
_SCRATCH_VALUES = 1 << 20


def _farthest_pair(feats: np.ndarray, block: int) -> tuple[int, int]:
    """Lowest-index (p, q), p < q, at the largest exact distance.

    ``block`` rows of squared distances to all later rows are held at a time.
    """
    n, dim = feats.shape
    centred = feats - feats.mean(axis=0)
    sq = np.einsum("ij,ij->i", centred, centred)
    approx = np.empty(n - 1)  # approx[p]: max over q > p of the GEMM value
    for lo in range(0, n - 1, block):
        hi = min(lo + block, n - 1)
        g = centred[lo:hi] @ centred[lo:].T
        g *= -2.0
        g += sq[lo:hi, None]
        g += sq[None, lo:]
        g[np.tril_indices(hi - lo)] = -np.inf  # keep q > p only
        approx[lo:hi] = g.max(axis=1)

    # Rounding bound, with u the unit roundoff and R^2 = max(sq). Let s be the
    # exact scan's float square distance and g the GEMM value. The scan's sum
    # of d squared differences is within (d+2)u*4R^2 of the true value; the
    # GEMM form is within (d+2)u*(|a|+|b|)^2 <= (d+2)u*4R^2 of the true value
    # on the centred copy; centring moves each distance by at most 2uR, so a
    # squared distance by at most 8uR^2. Hence |g - s| <= E = 8(d+3)u*R^2.
    # The scan compares sqrt(s) rounded, which may tie where s differs by a
    # relative 4u, and s <= 4R^2. So the scan's pair (p, q) has approx[p] >=
    # max(approx) - 2E - 16u*R^2 = max(approx) - 16(d+4)u*R^2; the threshold
    # doubles that for second-order terms. A non-finite bound (overflow, NaN
    # in raw arrays) compares false and so rescans every row.
    u = np.finfo(np.float64).eps / 2
    tol = 32 * (dim + 4) * u * sq.max()
    candidates = np.flatnonzero(~(approx < approx.max() - tol))

    # Exact rescan of the candidates; scanning p < q keeps the
    # lexicographically lowest tie.
    best = -1.0
    pair = (0, 1)
    for p in candidates:
        d = _distances_from(feats[p:], 0)[1:]
        q = int(np.argmax(d))
        if d[q] > best:
            best = float(d[q])
            pair = (int(p), int(p) + 1 + q)
    return pair


def ssa_select(x: Union[SampleSet, np.ndarray], k: int) -> np.ndarray:
    """Farthest-pair seeding plus greedy max-min extension to k samples.

    Returns the chosen row indices in selection order, as a read-only int64
    vector. If k exceeds the batch size, every index is returned.
    """
    feats = _as_features(x)
    n = feats.shape[0]
    if n < 2:
        raise ValueError("selection needs at least 2 samples")
    if k < 2:
        raise ValueError("k must be at least 2")
    k_eff = min(k, n)

    pair = _farthest_pair(feats, max(1, _SCRATCH_VALUES // n))
    selected = [pair[0], pair[1]]
    min_dist = np.minimum(_distances_from(feats, pair[0]), _distances_from(feats, pair[1]))
    min_dist[selected] = -np.inf
    while len(selected) < k_eff:
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        min_dist = np.minimum(min_dist, _distances_from(feats, nxt))
        min_dist[nxt] = -np.inf
    indices = np.array(selected, dtype=np.int64)
    indices.flags.writeable = False
    return indices


def split_target(x: SampleSet, indices: np.ndarray) -> tuple[SampleSet, SampleSet]:
    """Split a target batch into the guide rows at ``indices`` and the rest.

    Guides keep their labels for training; the remainder keeps labels too,
    but only for evaluation, never for training.
    """
    indices = np.asarray(indices)
    if indices.ndim != 1 or (indices.size and indices.dtype.kind not in "iu"):
        raise DataError("selection indices must be a vector of integers")
    n = x.n_samples
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise DataError("selection indices out of range for this batch")
    mask = np.zeros(n, dtype=bool)
    mask[indices] = True
    rest = np.flatnonzero(~mask)
    if rest.size != n - indices.size:
        raise DataError("selection indices must be distinct")
    return x.take(indices), x.take(rest)
