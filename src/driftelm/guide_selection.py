"""Guide-sample selection.

Picks k spread-out samples from a (scaled) target batch: seed with the
farthest pair, then repeatedly add the point whose distance to the selected
set is largest (Gonzalez's max-min traversal). Deterministic; all ties
resolve to the lowest index.

The farthest pair is found in three steps. A norm pre-filter first drops
every row that cannot belong to it: one scan from the row with the largest
centred norm gives a real pair distance D0, and a row whose centred norm
plus the largest one is below D0, by more than a rounding margin, is too
close to the centre to reach D0. A blocked GEMM pass over the kept rows then
computes each row's approximate largest squared distance to the kept rows
after it as ``|a|^2 + |b|^2 - 2 a.b`` on a centred copy, one block of rows at
a time, so its scratch stays O(block * n) (about 8 MB) and the n x n matrix
is never built. Only the rows whose approximate maximum lies within a
rigorous rounding bound of the largest are then rescanned with exact
differences, in ascending order, so the answer and its tie rule are those of
the plain quadratic scan.

The greedy extension keeps, for each row, the pick nearest to it (its
owner). By the triangle inequality a new pick at least twice a row's
distance from that row's owner cannot come nearer, so the row's distance to
the new pick is computed only when ``d(new, owner) < 2 * min_dist``, with a
rounding margin; the distances it does compute are those of the plain scan,
bit for bit. Both margins are derived in the code. How much the bounds
save depends on the input: when every row has the same centred norm the
pre-filter keeps every row, and where distances concentrate (many
dimensions, no clusters) the skip seldom fires, so the work is that of the
plain scans, O(n^2 d) for the pair and O(k n d) for the extension.

Greedy selections are prefix-nested: the first j picks do not depend on k,
so a sweep over several k selects once at the largest and slices.
"""

from __future__ import annotations

import numpy as np

from .dataset import DataError, SampleSet


def _distances_from(feats: np.ndarray, i: int, rows=slice(None)) -> np.ndarray:
    """Distances from row ``i`` to ``rows``, each summed as the full scan sums it."""
    if isinstance(rows, slice):
        diff = feats[rows] - feats[i]
    else:  # gathering makes a copy, which can be reused in place
        diff = feats[rows]
        diff -= feats[i]
    np.square(diff, out=diff)
    return np.sqrt(diff.sum(axis=1))


def _rounding(dim: int) -> tuple[float, float]:
    """(E, A) with |f - t| <= E*t + A for every distance or centred norm f.

    f is computed as _distances_from computes it (or as a norm, summed in
    any order) and t is the exact distance between the stored rows. With u
    the unit roundoff: each difference is within a relative u, its square
    within 3u, a sum of d non-negative terms within (d-1)u and the square
    root halves that and adds u, so the relative error is below (d+4)u/2.
    A square that underflows is off by at most 2^-1075 in absolute terms, so
    the sum by d * 2^-1075 and, since sqrt(s + x) <= sqrt(s) + sqrt(x), the
    distance by sqrt(d) * 2^-537. E and A double both, for second-order terms.
    """
    u = np.finfo(np.float64).eps / 2
    return (dim + 4) * u, np.sqrt(dim) * 2.0 ** -536


def _pair_rows(feats: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows that may belong to a farthest pair.

    With r the centred norms, R = max(r) and D0 a real pair distance, a pair
    (p, q) lies within r_p + r_q <= r_p + R of each other in exact arithmetic,
    so row p belongs to no farthest or tied pair if r_p + R < D0. In floating
    point, an exact norm is at most (r + A) / ((1 - E)(1 - u)) (centring
    moves each coordinate by a relative u), and a computed distance at most
    (1 + E) t + A; for E < 1/10 both together stay below (1 + 4E)(r_p + R) + 4A,
    which is the bound a dropped row must fall below. A non-finite D0
    (overflow) keeps every row; so does a non-finite norm, as NaN and inf
    compare false.
    """
    n, dim = feats.shape
    centred = feats - feats.mean(axis=0)
    norm = np.sqrt(np.einsum("ij,ij->i", centred, centred))
    far = int(np.argmax(norm))
    reach = _distances_from(feats, far).max()
    if not np.isfinite(reach):
        return np.arange(n)
    rel, tiny = _rounding(dim)
    return np.flatnonzero(~((1 + 4 * rel) * (norm + norm[far]) + 4 * tiny < reach))


# Values held at once by the farthest-pair pass (2**20 float64, 8 MB); its
# blocks have _SCRATCH_VALUES // n rows. The benchmark scores a target in
# row blocks of the same budget.
_SCRATCH_VALUES = 1 << 20


def _farthest_pair(feats: np.ndarray, block: int) -> tuple[int, int]:
    """Lowest-index (p, q), p < q, at the largest exact distance.

    ``block`` rows of squared distances to all later kept rows are held at a
    time.
    """
    rows = _pair_rows(feats)
    if rows.size < feats.shape[0]:
        feats = feats[rows]
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
    # doubles that for second-order terms. A non-finite bound (overflow)
    # compares false and so rescans every row.
    u = np.finfo(np.float64).eps / 2
    tol = 32 * (dim + 4) * u * sq.max()
    candidates = np.flatnonzero(~(approx < approx.max() - tol))

    # Exact rescan of the candidates; scanning p < q over rows kept in
    # ascending order keeps the lexicographically lowest tie.
    best = -1.0
    pair = (0, 1)
    for p in candidates:
        d = _distances_from(feats[p:], 0)[1:]
        q = int(np.argmax(d))
        if d[q] > best:
            best = float(d[q])
            pair = (int(p), int(p) + 1 + q)
    return int(rows[pair[0]]), int(rows[pair[1]])


def ssa_select(x, k: int) -> np.ndarray:
    """Farthest-pair seeding plus greedy max-min extension to k rows of x.

    Returns the chosen row indices in selection order, as a read-only int64
    vector. Raises ``ValueError`` if k is below 2 or above the batch size,
    and ``DataError`` if the samples hold NaN or Inf.
    """
    # C order, so a gathered row sums exactly as it does in a full scan.
    feats = np.ascontiguousarray(x, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError("expected an (N, n) sample matrix")
    n, dim = feats.shape
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError(f"k={k} exceeds the batch size ({n})")
    if not np.isfinite(feats).all():
        raise DataError("features contain NaN or Inf")

    pair = _farthest_pair(feats, max(1, _SCRATCH_VALUES // n))
    selected = [pair[0], pair[1]]
    first, second = _distances_from(feats, pair[0]), _distances_from(feats, pair[1])
    owner = (second < first).astype(np.intp)  # position in selected of the nearest pick
    min_dist = np.minimum(first, second)
    min_dist[selected] = -np.inf

    # Triangle skip. Let m be a row's computed distance to its owner o and b
    # the new pick's computed distance to o. By _rounding, the exact distance
    # from the row to the new pick is at least (b - A)/(1 + E) - (m + A)/(1 - E),
    # so the computed one is at least (1 - E)/(1 + E) (b - A) - m - 2A. For
    # E <= 1/6 that is >= m whenever b >= 2(1 + 4E) m + 4A, and then the plain
    # scan's np.minimum would leave min_dist[row] as it is, so the row is
    # skipped. A non-finite b (overflow) keeps every row; selected rows
    # (-inf) are always skipped.
    rel, tiny = _rounding(dim)
    while len(selected) < k:
        nxt = int(np.argmax(min_dist))
        to_picks = _distances_from(feats, nxt, selected)
        rows = np.flatnonzero(to_picks[owner] < 2 * (1 + 4 * rel) * min_dist + 4 * tiny)
        # Past three quarters of the rows a full scan is cheaper than gathering
        # them; this keeps inputs where the skip seldom fires at the plain cost.
        if 4 * rows.size > 3 * n or not np.isfinite(to_picks).all():
            rows = slice(None)
        dist = _distances_from(feats, nxt, rows)
        near = min_dist[rows]
        owner[rows] = np.where(dist < near, len(selected), owner[rows])
        min_dist[rows] = np.minimum(near, dist)
        selected.append(nxt)
        min_dist[nxt] = -np.inf
    indices = np.array(selected, dtype=np.int64)
    indices.flags.writeable = False
    return indices


def split_target(x: SampleSet, indices: np.ndarray) -> tuple[SampleSet, np.ndarray]:
    """Split a target batch into the guide rows at ``indices`` and the rest.

    The guides are a labeled `SampleSet` for training. The rest is not
    copied: it is the ascending indices of the other rows, as a read-only
    int64 vector, whose labels are for evaluation only, never for training.
    """
    indices = np.asarray(indices)
    if indices.ndim != 1 or (indices.size and indices.dtype.kind not in "iu"):
        raise DataError("selection indices must be a vector of integers")
    n = x.n_samples
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise DataError("selection indices out of range for this batch")
    mask = np.zeros(n, dtype=bool)
    mask[indices] = True
    rest = np.flatnonzero(~mask).astype(np.int64, copy=False)
    if rest.size != n - indices.size:
        raise DataError("selection indices must be distinct")
    rest.flags.writeable = False
    return x.take(indices), rest
