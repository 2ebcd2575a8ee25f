import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftelm import DataError, SampleSet, guide_selection, split_target, ssa_select
from driftelm.guide_selection import _farthest_pair, _pair_rows

from conftest import ssa_bruteforce


def test_hand_trace_on_line():
    points = np.array([[0.0], [1.0], [2.0], [10.0]])
    sel = ssa_select(points, 3)
    # farthest pair is (0, 10); the remaining min-distances are 1 and 2
    np.testing.assert_array_equal(sel, [0, 3, 2])
    assert sel.dtype == np.int64 and not sel.flags.writeable


def test_k_equals_n_selects_everything():
    points = np.random.default_rng(0).normal(size=(6, 2))
    sel = ssa_select(points, 6)
    assert sorted(sel) == list(range(6))


@pytest.mark.parametrize("k", [5, 9])
def test_k_beyond_n_is_refused(k):
    points = np.random.default_rng(1).normal(size=(4, 2))
    with pytest.raises(ValueError, match=rf"k={k} exceeds the batch size \(4\)"):
        ssa_select(points, k)


def test_all_duplicates_pick_lowest_indices():
    points = np.zeros((5, 3))
    sel = ssa_select(points, 3)
    np.testing.assert_array_equal(sel, [0, 1, 2])


def test_rejects_degenerate_requests():
    with pytest.raises(ValueError):
        ssa_select(np.zeros((1, 2)), 2)
    with pytest.raises(ValueError):
        ssa_select(np.zeros((5, 2)), 1)
    points = np.random.default_rng(6).normal(size=(20, 3))
    for bad in (np.nan, np.inf, -np.inf):
        spoilt = points.copy()
        spoilt[7] = bad
        with pytest.raises(DataError, match="NaN or Inf"):
            ssa_select(spoilt, 4)


def test_matches_bruteforce_trace():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(4, 60))
        dim = int(rng.integers(1, 5))
        k = int(rng.integers(2, min(n, 12) + 1))
        points = rng.normal(size=(n, dim))
        expected, max_dist = ssa_bruteforce(points, k)
        sel = ssa_select(points, k)
        assert list(sel) == expected
        first_pair_dist = np.linalg.norm(points[sel[0]] - points[sel[1]])
        assert first_pair_dist == pytest.approx(max_dist, rel=1e-12)


def test_greedy_step_optimality():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(40, 3))
    sel = ssa_select(points, 10)
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    for step in range(2, 10):
        chosen = sel[step]
        prior = sel[:step]
        chosen_min = dist[chosen, prior].min()
        for other in range(40):
            if other in sel[:step + 1]:
                continue
            assert dist[other, prior].min() <= chosen_min + 1e-12


def hard_points(kind, rng, n):
    """Inputs that stress the pruning bounds: exact ties and cancellation."""
    dim = int(rng.integers(1, 5))
    if kind == "lattice":  # many pairs tie exactly
        return rng.integers(-2, 3, size=(n, dim)).astype(float)
    points = rng.normal(size=(n, dim))
    if kind == "duplicates":
        return points[rng.integers(0, max(2, n // 3), size=n)]
    if kind == "constant":
        points[:, rng.random(dim) < 0.5] = 2.5
        points[:, 0] = -1.0
        return points
    if kind == "offset":  # |a|^2 + |b|^2 - 2a.b cancels almost completely
        return 1e4 + 1e-5 * points
    if kind == "line":  # collinear, evenly spaced: d(new, owner) = 2 * min_dist up to rounding
        return rng.integers(-4, 5, size=(n, 1)) * rng.normal(size=dim)
    if kind == "sphere":  # every centred norm equal (mean exactly 0): nothing is pruned
        half = rng.permuted(np.tile(rng.integers(1, 4, dim), ((n + 1) // 2, 1)), axis=1)
        half *= rng.choice([-1, 1], size=half.shape)
        return rng.permutation(np.vstack([half, -half])).astype(float)
    if kind == "outliers":  # a few far rows: most rows are pruned
        points[rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False)] *= 50.0
    return points


HARD_KINDS = ("lattice", "line", "duplicates", "constant", "offset", "sphere", "outliers")


@pytest.mark.parametrize("kind", HARD_KINDS)
@given(seed=st.integers(0, 2 ** 32 - 1), all_but_one=st.booleans())
@settings(max_examples=25, deadline=None)
def test_matches_bruteforce_on_hard_inputs(kind, seed, all_but_one):
    rng = np.random.default_rng(seed)
    points = hard_points(kind, rng, int(rng.integers(3, 41)))
    n = len(points)
    k = n - 1 if all_but_one else int(rng.integers(2, n))
    expected, _ = ssa_bruteforce(points, k)
    assert list(ssa_select(points, k)) == expected


@pytest.mark.parametrize("kind", ("normal",) + HARD_KINDS)
@given(seed=st.integers(0, 2 ** 32 - 1), block=st.integers(1, 7))
@settings(max_examples=25, deadline=None)
def test_farthest_pair_across_blocks(kind, seed, block):
    rng = np.random.default_rng(seed)
    points = hard_points(kind, rng, int(rng.integers(2 * block + 1, 41)))
    expected, _ = ssa_bruteforce(points, 2)
    assert _farthest_pair(points, block) == tuple(expected)


def test_pair_rows_follow_the_norm_spread():
    rng = np.random.default_rng(11)
    for _ in range(10):
        sphere = hard_points("sphere", rng, 40)
        np.testing.assert_array_equal(_pair_rows(sphere), np.arange(len(sphere)))
        outliers = hard_points("outliers", rng, 40)
        assert _pair_rows(outliers).size < 20


def test_matches_bruteforce_across_blocks_with_skips(monkeypatch):
    rng = np.random.default_rng(12)
    centres = 3.0 * rng.normal(size=(5, 4))  # five classes, as in a gas batch
    points = centres[rng.integers(0, 5, 300)] + rng.normal(size=(300, 4))
    monkeypatch.setattr(guide_selection, "_SCRATCH_VALUES", 300 * 8)  # 8-row blocks
    assert 3 * 8 < _pair_rows(points).size < 150
    gathered = []
    distances_from = guide_selection._distances_from

    def spy(feats, i, rows=slice(None)):
        if isinstance(rows, np.ndarray):
            gathered.append(rows.size)
        return distances_from(feats, i, rows)

    monkeypatch.setattr(guide_selection, "_distances_from", spy)
    expected, _ = ssa_bruteforce(points, 20)
    assert list(ssa_select(points, 20)) == expected
    assert len(gathered) > 10  # a greedy step gathers rows only when it skips a quarter


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_deterministic(seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(25, 3))
    a = ssa_select(points, 7)
    b = ssa_select(points, 7)
    np.testing.assert_array_equal(a, b)


class TestSplitTarget:
    def test_partition(self):
        rng = np.random.default_rng(4)
        batch = SampleSet(rng.normal(size=(20, 3)), rng.integers(1, 4, 20))
        sel = ssa_select(batch.features, 5)
        labeled, rest = split_target(batch, sel)
        assert labeled.n_samples == 5
        np.testing.assert_array_equal(labeled.features, batch.features[sel])
        # the rest is the other rows' indices, ascending, not a copy of them
        assert rest.dtype == np.int64 and not rest.flags.writeable
        np.testing.assert_array_equal(rest, np.setdiff1d(np.arange(20), sel))

    def test_labels_retained_on_both_sides(self):
        batch = SampleSet(np.arange(12.0).reshape(6, 2), [1, 2, 3, 1, 2, 3])
        sel = ssa_select(batch.features, 2)
        labeled, rest = split_target(batch, sel)
        np.testing.assert_array_equal(labeled.labels, batch.labels[sel])
        np.testing.assert_array_equal(batch.labels[rest], np.delete(batch.labels, sel))
        assert labeled.n_samples + rest.size == 6

    def test_batch5_arithmetic(self):
        # a 197-sample batch with 5 guides leaves 192 for evaluation
        rng = np.random.default_rng(5)
        batch = SampleSet(rng.normal(size=(197, 4)), rng.integers(1, 7, 197))
        labeled, rest = split_target(batch, ssa_select(batch.features, 5))
        assert labeled.n_samples == 5
        assert rest.size == 192

    def test_repeated_indices_rejected(self):
        batch = SampleSet(np.arange(12.0).reshape(6, 2), [1, 2, 3, 1, 2, 3])
        with pytest.raises(DataError, match="distinct"):
            split_target(batch, np.array([1, 1]))
        with pytest.raises(DataError, match="out of range"):
            split_target(batch, np.array([0, 6]))
        with pytest.raises(DataError, match="vector of integers"):
            split_target(batch, np.array([0.0, 1.0]))
