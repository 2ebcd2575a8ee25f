import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve

import driftelm.solvers
from driftelm import (Classifier, DataError, SampleSet, ScalerParams,
                      SolverError, accuracy, classifier_from_dict,
                      classifier_to_dict, encode_targets, hidden_output,
                      labels_from_scores, new_feature_map, predict, solve_ridge,
                      split_target, ssa_select, train_daelm_s, train_daelm_t,
                      train_elm)

from conftest import MALFORMED_MODELS, both_forms


def rel_diff(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-30)


# Objective gradients, written out independently of the solver code paths.
def ridge_grad(beta, blocks):
    return beta + sum(c * h.T @ (h @ beta - t) for h, t, c in blocks)


def elm_grad(beta, h, t, c):
    return beta - c * h.T @ (t - h @ beta)


def daelm_s_grad(beta, hs, ts, ht, tt, c_s, c_t):
    return (beta - c_s * hs.T @ (ts - hs @ beta)
            - c_t * ht.T @ (tt - ht @ beta))


def daelm_t_grad(beta, ht, tt, hu, pseudo, c_t, c_tu):
    return (beta - c_t * ht.T @ (tt - ht @ beta)
            - c_tu * hu.T @ (pseudo - hu @ beta))


def stationary(grad, beta):
    return np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(beta))


def random_instance(rng, n_rows, hidden, m):
    return rng.normal(size=(n_rows, hidden)), rng.normal(size=(n_rows, m))


@pytest.fixture
def factored_dims(monkeypatch):
    """Sizes of the matrices the solvers hand to Cholesky, in call order."""
    dims = []
    real = driftelm.solvers.cho_factor

    def recording(matrix, *args, **kwargs):
        dims.append(matrix.shape[0])
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(driftelm.solvers, "cho_factor", recording)
    return dims


def copying_reference(blocks, branch):
    """Both closed forms built with fresh temporaries and factored on a copy."""
    live = [(h, t, c) for h, t, c in blocks if c > 0 and h.shape[0] > 0]
    if branch == "primal":
        system = np.eye(live[0][0].shape[1])
        for h, _, c in live:
            system += c * (h.T @ h)
        return cho_solve(cho_factor(system.copy(), lower=True),
                         sum(c * (h.T @ t) for h, t, c in live))
    h = np.vstack([h for h, _, _ in live])
    kernel = h @ h.T
    kernel[np.diag_indices(h.shape[0])] += np.concatenate(
        [np.full(b.shape[0], 1.0 / c) for b, _, c in live])
    return h.T @ cho_solve(cho_factor(kernel.copy(), lower=True),
                           np.vstack([t for _, t, _ in live]))


def jittered_reference(matrix, rhs):
    """The retry's answer: the untouched system plus jitter, factored on a copy."""
    n = matrix.shape[0]
    jitter = 1e-10 * np.trace(matrix) / n
    return cho_solve(cho_factor(matrix + jitter * np.eye(n), lower=True), rhs)


def traced_peak(fn):
    """Peak bytes allocated while ``fn`` runs, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def random_blocks(seed, hidden, m, weights, rows):
    rng = np.random.default_rng(seed)
    return [(*random_instance(rng, n, hidden, m), c) for n, c in zip(rows, weights)]


block_lists = st.integers(1, 4).flatmap(lambda n_blocks: st.tuples(
    st.integers(0, 2 ** 32 - 1),                    # data seed
    st.integers(2, 40),                             # hidden size L
    st.integers(1, 4),                              # output width m
    st.lists(st.one_of(st.just(0.0), st.floats(-2, 2).map(lambda e: 10.0 ** e)),
             min_size=n_blocks, max_size=n_blocks),
    st.lists(st.integers(0, 30), min_size=n_blocks, max_size=n_blocks)))


class TestSolveRidge:
    @given(block_lists)
    @settings(max_examples=80, deadline=None)
    def test_primal_dual_agreement_and_stationarity(self, case):
        seed, hidden, m, weights, rows = case
        blocks = random_blocks(seed, hidden, m, weights, rows)
        primal = solve_ridge(blocks, branch="primal")
        dual = solve_ridge(blocks, branch="dual")
        assert primal.shape == dual.shape == (hidden, m)
        if all(c == 0 or n == 0 for c, n in zip(weights, rows)):
            assert not primal.any() and not dual.any()
            return
        assert rel_diff(primal, dual) < 1e-6
        for beta in (primal, dual, solve_ridge(blocks)):
            assert stationary(ridge_grad(beta, blocks), beta)

    def test_auto_branch_counts_total_rows(self, factored_dims):
        # neither block reaches L = 30 on its own, together they do
        rng = np.random.default_rng(22)
        blocks = [(*random_instance(rng, 20, 30, 2), 1.0),
                  (*random_instance(rng, 15, 30, 2), 2.0)]
        solve_ridge(blocks)
        assert factored_dims == [30]
        solve_ridge(blocks[:1] + [(*random_instance(rng, 5, 30, 2), 2.0)])
        assert factored_dims == [30, 25]
        # a zero-weight block does not count toward the rows
        solve_ridge(blocks[:1] + [(blocks[1][0], blocks[1][1], 0.0)])
        assert factored_dims == [30, 25, 20]

    def test_daelm_t_never_factors_the_unlabeled_rows(self, factored_dims):
        rng = np.random.default_rng(23)
        ht, tt = random_instance(rng, 5, 30, 3)
        hu, pseudo = random_instance(rng, 40, 30, 3)
        train_daelm_t(ht, tt, hu, pseudo, 0.001, 100.0)
        assert factored_dims == [30]

    def test_rejects_bad_blocks(self):
        h, t = np.ones((3, 4)), np.ones((3, 2))
        with pytest.raises(ValueError, match="at least one block"):
            solve_ridge([])
        with pytest.raises(ValueError, match="row counts"):
            solve_ridge([(h, t[:2], 1.0)])
        with pytest.raises(ValueError, match="hidden sizes"):
            solve_ridge([(h, t, 1.0), (np.ones((3, 5)), t, 1.0)])
        with pytest.raises(ValueError, match="output widths"):
            solve_ridge([(h, t, 1.0), (h, np.ones((3, 3)), 1.0)])
        with pytest.raises(ValueError, match="non-negative"):
            solve_ridge([(h, t, -1.0)])
        with pytest.raises(ValueError, match="non-finite"):
            solve_ridge([(h, t, 1.0), (np.full((3, 4), np.nan), t, 0.0)])
        with pytest.raises(ValueError, match="branch"):
            solve_ridge([(h, t, 1.0)], branch="banana")

    @pytest.mark.parametrize("branch", ["primal", "dual"])
    def test_failed_factorisation_raises_solver_error(self, monkeypatch, branch):
        def failing(*args, **kwargs):
            raise LinAlgError("not positive definite")

        monkeypatch.setattr(driftelm.solvers, "cho_factor", failing)
        rng = np.random.default_rng(24)
        h1, t1 = random_instance(rng, 6, 10, 2)
        h2, t2 = random_instance(rng, 3, 10, 2)
        c_s, c_t, c_tu = 1.0, 2.0, 3.0
        # the blocks of elm, daelm-s and daelm-t, forced into one form
        for blocks in ([(h1, t1, 1.0)], [(h1, t1, c_s), (h2, t2, c_t)],
                       [(h2, t2, c_t), (h1, t1, c_tu)]):
            with pytest.raises(SolverError):
                solve_ridge(blocks, branch)
        with pytest.raises(SolverError):
            train_elm(h1, t1, 1.0)
        with pytest.raises(SolverError):
            train_daelm_s(h1, t1, h2, t2, c_s, c_t)
        with pytest.raises(SolverError):
            train_daelm_t(h2, t2, h1, t1, c_t, c_tu)

    @pytest.mark.parametrize("branch", ["primal", "dual"])
    @pytest.mark.parametrize("n_blocks", [1, 2])
    @pytest.mark.parametrize("hidden", [40, 300])
    def test_in_place_forms_match_the_copying_reference(self, hidden, n_blocks, branch):
        blocks = random_blocks(hidden + n_blocks, hidden, 3, [0.7, 30.0][:n_blocks],
                               [hidden // 3, hidden // 2][:n_blocks])
        assert np.array_equal(solve_ridge(blocks, branch),
                              copying_reference(blocks, branch))

    def test_extra_allocation_is_one_system(self):
        # one L x L primal system, or one N x N dual kernel, and no copy of H
        rng = np.random.default_rng(25)
        hidden = 300
        h, t = random_instance(rng, 2 * hidden, hidden, 3)
        primal = traced_peak(lambda: solve_ridge([(h, t, 1.0)], "primal"))
        assert primal < 1.5 * hidden ** 2 * 8
        rows = hidden // 3
        h, t = random_instance(rng, rows, hidden, 3)
        dual = traced_peak(lambda: solve_ridge([(h, t, 1.0)], "dual"))
        assert dual < 2 * rows ** 2 * 8

    @pytest.mark.parametrize("rows, hidden, n_features, c",
                             [(30, 200, 2, 1e13), (100, 600, 4, 1e12)])
    def test_jitter_retry_rebuilds_the_overwritten_system(
            self, factored_dims, rows, hidden, n_features, c):
        # a forced primal with N < L at a huge weight fails its first Cholesky
        rng = np.random.default_rng(26)
        h = hidden_output(new_feature_map(hidden, n_features, seed=26),
                          rng.uniform(-1.0, 1.0, size=(rows, n_features)))
        t = rng.normal(size=(rows, 2))
        beta = solve_ridge([(h, t, c)], "primal")
        assert factored_dims == [hidden, hidden]
        expected = jittered_reference(np.eye(hidden) + c * (h.T @ h), c * (h.T @ t))
        assert np.array_equal(beta, expected)

    def test_jitter_retry_on_a_singular_system(self, factored_dims):
        singular, rhs = np.ones((2, 2)), np.array([1.0, 2.0])
        expected = jittered_reference(singular, rhs)
        assert np.array_equal(driftelm.solvers._solve_spd(singular.copy(), rhs), expected)
        assert factored_dims == [2, 2]
        with pytest.raises(SolverError):
            driftelm.solvers._solve_spd(-np.eye(3), np.ones(3))
        assert factored_dims == [2, 2, 3, 3]

    @pytest.mark.parametrize("branch", ["primal", "dual"])
    def test_inputs_are_left_unchanged_and_may_be_read_only(self, branch):
        blocks = random_blocks(27, 20, 2, [1.0, 2.0], [12, 15])
        for block in blocks:
            for a in block[:2]:
                a.flags.writeable = False
        copies = [(h.copy(), t.copy()) for h, t, _ in blocks]
        for live in (blocks[:1], blocks):
            assert np.array_equal(solve_ridge(live, branch),
                                  copying_reference(live, branch))
        for (h, t, _), (h0, t0) in zip(blocks, copies):
            assert np.array_equal(h, h0) and np.array_equal(t, t0)


class TestTrainElm:
    def test_identity_map_weak_regularization(self):
        t = np.random.default_rng(0).normal(size=(8, 3))
        beta = train_elm(np.eye(8), t, c=1e8)
        assert np.abs(beta - t).max() < 1e-6

    def test_branch_equivalence(self):
        rng = np.random.default_rng(1)
        h, t = random_instance(rng, 20, 50, 3)
        beta = train_elm(h, t, 1.0)
        assert all(rel_diff(beta, ref) < 1e-8 for ref in both_forms([(h, t, 1.0)]))

    def test_auto_branch_selection(self):
        # auto must reproduce the dual path bit-for-bit when rows < hidden
        # size, and the primal path otherwise (primal also wins the tie)
        rng = np.random.default_rng(19)
        under_h, under_t = random_instance(rng, 10, 25, 2)
        assert train_elm(under_h, under_t, 1.0).tobytes() \
            == solve_ridge([(under_h, under_t, 1.0)], "dual").tobytes()
        over_h, over_t = random_instance(rng, 40, 25, 2)
        assert train_elm(over_h, over_t, 1.0).tobytes() \
            == solve_ridge([(over_h, over_t, 1.0)], "primal").tobytes()
        square_h, square_t = random_instance(rng, 25, 25, 2)
        assert train_elm(square_h, square_t, 1.0).tobytes() \
            == solve_ridge([(square_h, square_t, 1.0)], "primal").tobytes()

    def test_stationarity(self):
        rng = np.random.default_rng(2)
        for n_rows in (10, 60):
            h, t = random_instance(rng, n_rows, 30, 4)
            beta = train_elm(h, t, 5.0)
            g = elm_grad(beta, h, t, 5.0)
            assert np.linalg.norm(g) <= 1e-8 * (1 + np.linalg.norm(beta))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            train_elm(np.array([[np.inf]]), np.array([[1.0]]), 1.0)
        with pytest.raises(ValueError):
            train_elm(np.ones((2, 2)), np.ones((2, 1)), 0.0)
        with pytest.raises(ValueError):
            train_elm(np.ones((2, 2)), np.ones((3, 1)), 1.0)


class TestTrainDaelmS:
    def test_zero_guide_penalty_collapses_to_elm(self):
        rng = np.random.default_rng(3)
        for n_s in (12, 40):  # both solver branches of train_elm
            hs, ts = random_instance(rng, n_s, 25, 6)
            ht, tt = random_instance(rng, 5, 25, 6)
            collapsed = train_daelm_s(hs, ts, ht, tt, 2.0, 0.0)
            assert rel_diff(collapsed, train_elm(hs, ts, 2.0)) < 1e-8

    def test_branch_equivalence(self):
        rng = np.random.default_rng(4)
        hs, ts = random_instance(rng, 30, 50, 6)
        ht, tt = random_instance(rng, 5, 50, 6)
        c_s, c_t = 0.3, 7.0
        beta = train_daelm_s(hs, ts, ht, tt, c_s, c_t)
        assert all(rel_diff(beta, ref) < 1e-6
                   for ref in both_forms([(hs, ts, c_s), (ht, tt, c_t)]))

    def test_stationarity(self):
        rng = np.random.default_rng(5)
        for n_s in (10, 45):
            hs, ts = random_instance(rng, n_s, 30, 3)
            ht, tt = random_instance(rng, 6, 30, 3)
            c_s, c_t = 1.5, 4.0
            beta = train_daelm_s(hs, ts, ht, tt, c_s, c_t)
            g = daelm_s_grad(beta, hs, ts, ht, tt, c_s, c_t)
            assert np.linalg.norm(g) <= 1e-8 * (1 + np.linalg.norm(beta))

    def test_dual_multipliers_match_residuals(self):
        # at the optimum each block's multiplier is its penalty times its
        # residual, and beta = Hs'alpha_s + Ht'alpha_t; both follow from beta
        rng = np.random.default_rng(6)
        hs, ts = random_instance(rng, 12, 40, 2)
        ht, tt = random_instance(rng, 4, 40, 2)
        c_s, c_t = 0.8, 3.0
        beta = train_daelm_s(hs, ts, ht, tt, c_s, c_t)  # 16 rows under L = 40: dual
        alpha_s = c_s * (ts - hs @ beta)
        alpha_t = c_t * (tt - ht @ beta)
        assert rel_diff(beta, hs.T @ alpha_s + ht.T @ alpha_t) < 1e-6

    def test_dual_blocks_are_spd(self, factored_dims):
        # the dual branch factors one stacked (rows x rows) system, and it
        # factors on the first try: no jitter retry
        rng = np.random.default_rng(7)
        hs, ts = random_instance(rng, 10, 30, 2)
        ht, tt = random_instance(rng, 5, 30, 2)
        train_daelm_s(hs, ts, ht, tt, 1.0, 1.0)
        assert factored_dims == [15]

    def test_monotone_source_fit(self):
        rng = np.random.default_rng(8)
        hs, ts = random_instance(rng, 25, 20, 3)
        ht, tt = random_instance(rng, 5, 20, 3)
        residuals = []
        for c_s in (0.01, 0.1, 1.0, 10.0, 100.0):
            beta = train_daelm_s(hs, ts, ht, tt, c_s, 2.0)
            residuals.append(np.linalg.norm(ts - hs @ beta))
        assert all(b <= a + 1e-10 for a, b in zip(residuals, residuals[1:]))

    def test_forced_dual_with_zero_penalty_matches_primal(self):
        rng = np.random.default_rng(9)
        hs, ts = random_instance(rng, 5, 10, 2)
        ht, tt = random_instance(rng, 3, 10, 2)
        c_s, c_t = 1.0, 0.0
        beta = train_daelm_s(hs, ts, ht, tt, c_s, c_t)
        assert all(rel_diff(beta, ref) < 1e-6
                   for ref in both_forms([(hs, ts, c_s), (ht, tt, c_t)]))

    def test_dimension_checks(self):
        rng = np.random.default_rng(10)
        hs, ts = random_instance(rng, 5, 10, 2)
        ht, tt = random_instance(rng, 3, 11, 2)
        with pytest.raises(ValueError, match="hidden sizes"):
            train_daelm_s(hs, ts, ht, tt, 1.0, 1.0)


class TestTrainDaelmT:
    def test_zero_unlabeled_penalty_collapses_to_elm(self):
        rng = np.random.default_rng(12)
        for n_t in (8, 30):
            ht, tt = random_instance(rng, n_t, 20, 4)
            hu, pseudo = random_instance(rng, 25, 20, 4)
            collapsed = train_daelm_t(ht, tt, hu, pseudo, 0.7, 0.0)
            assert rel_diff(collapsed, train_elm(ht, tt, 0.7)) < 1e-8
            # the zero-weight block is dropped, so the solve is elm's own
            assert collapsed.tobytes() == train_elm(ht, tt, 0.7).tobytes()

    def test_branch_equivalence(self):
        rng = np.random.default_rng(13)
        ht, tt = random_instance(rng, 10, 60, 6)
        hu, pseudo = random_instance(rng, 40, 60, 6)
        c_t, c_tu = 0.4, 9.0
        beta = train_daelm_t(ht, tt, hu, pseudo, c_t, c_tu)
        assert all(rel_diff(beta, ref) < 1e-6
                   for ref in both_forms([(ht, tt, c_t), (hu, pseudo, c_tu)]))

    def test_pseudo_override_branch_equivalence(self):
        # pseudo-targets unrelated to any base model, fewer rows than hidden nodes
        rng = np.random.default_rng(21)
        ht, tt = random_instance(rng, 6, 40, 2)
        hu, _ = random_instance(rng, 20, 40, 2)
        pseudo = rng.normal(size=(20, 2))
        c_t, c_tu = 0.5, 4.0
        beta = train_daelm_t(ht, tt, hu, pseudo, c_t, c_tu)
        assert all(rel_diff(beta, ref) < 1e-6
                   for ref in both_forms([(ht, tt, c_t), (hu, pseudo, c_tu)]))

    def test_stationarity(self):
        rng = np.random.default_rng(14)
        for n_t in (6, 35):
            ht, tt = random_instance(rng, n_t, 25, 3)
            hu, pseudo = random_instance(rng, 15, 25, 3)
            c_t, c_tu = 1.2, 3.3
            beta = train_daelm_t(ht, tt, hu, pseudo, c_t, c_tu)
            g = daelm_t_grad(beta, ht, tt, hu, pseudo, c_t, c_tu)
            assert np.linalg.norm(g) <= 1e-8 * (1 + np.linalg.norm(beta))

    def test_dual_multipliers_match_residuals(self):
        # multipliers are the weighted residuals; beta = Ht'alpha_t + Hu'alpha_tu
        rng = np.random.default_rng(15)
        ht, tt = random_instance(rng, 5, 30, 2)
        hu, pseudo = random_instance(rng, 12, 30, 2)
        c_t, c_tu = 0.9, 2.0
        beta = train_daelm_t(ht, tt, hu, pseudo, c_t, c_tu)  # 17 rows under L = 30: dual
        alpha_t = c_t * (tt - ht @ beta)
        alpha_tu = c_tu * (pseudo - hu @ beta)
        assert rel_diff(beta, ht.T @ alpha_t + hu.T @ alpha_tu) < 1e-6

    def test_pseudo_targets_steer_the_solution(self):
        rng = np.random.default_rng(20)
        ht, tt = random_instance(rng, 5, 20, 3)
        hu, pseudo = random_instance(rng, 15, 20, 3)
        c_t, c_tu = 1.0, 5.0
        beta = train_daelm_t(ht, tt, hu, pseudo, c_t, c_tu)
        other = train_daelm_t(ht, tt, hu, rng.normal(size=(15, 3)), c_t, c_tu)
        assert rel_diff(beta, other) > 1e-3
        with pytest.raises(ValueError, match="row counts"):
            train_daelm_t(ht, tt, hu, pseudo[:3], c_t, c_tu)

    def test_pseudo_targets_are_soft(self):
        # hardening the base outputs to +/-1 must change the result
        rng = np.random.default_rng(16)
        ht, tt = random_instance(rng, 5, 20, 3)
        hu, _ = random_instance(rng, 15, 20, 3)
        beta_base = rng.normal(size=(20, 3))
        c_t, c_tu = 1.0, 5.0
        pseudo = hu @ beta_base
        soft = train_daelm_t(ht, tt, hu, pseudo, c_t, c_tu)
        hard = -np.ones_like(pseudo)
        hard[np.arange(len(pseudo)), np.argmax(pseudo, axis=1)] = 1.0
        # reproduce the solve with hardened targets through the public form:
        # beta solves (I + c_t Ht'Ht + c_tu Hu'Hu) beta = c_t Ht'Tt + c_tu Hu'hard
        gram = (np.eye(20) + c_t * ht.T @ ht + c_tu * hu.T @ hu)
        rhs = c_t * ht.T @ tt + c_tu * hu.T @ hard
        hardened = np.linalg.solve(gram, rhs)
        assert rel_diff(soft, hardened) > 1e-3


class TestSingleClass:
    """Every target row, or every guide, belongs to one class."""

    @given(seed=st.integers(0, 2 ** 32 - 1), label=st.integers(1, 6),
           n=st.integers(3, 40), k=st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_trainers_stay_finite_and_stationary(self, seed, label, n, k):
        m, hidden = 6, 25
        rng = np.random.default_rng(seed)
        fmap = new_feature_map(hidden, 4, "sigmoid", seed=seed % 1000)
        source = SampleSet(rng.uniform(-1, 1, (n, 4)), np.full(n, label))
        target = SampleSet(rng.uniform(-1, 1, (n + k, 4)), np.full(n + k, label))
        guides, rest = split_target(target, ssa_select(target.features, k))
        assert guides.n_samples == k and rest.size == n
        assert set(guides.labels) == set(target.labels[rest]) == {label}

        ts = encode_targets(source.labels, m)
        tt = encode_targets(guides.labels, m)
        for t in (ts, tt):
            assert (t[:, label - 1] == 1.0).all()
            assert (np.delete(t, label - 1, axis=1) == -1.0).all()
        hs, ht, hu = (hidden_output(fmap, x)
                      for x in (source.features, guides.features, target.features[rest]))
        pseudo = hu @ rng.normal(size=(hidden, m))
        c_s, c_t, c_tu = 0.5, 10.0, 3.0
        betas = {
            "elm": (train_elm(hs, ts, c_s), [(hs, ts, c_s)]),
            "daelm-s": (train_daelm_s(hs, ts, ht, tt, c_s, c_t), [(hs, ts, c_s), (ht, tt, c_t)]),
            "daelm-t": (train_daelm_t(ht, tt, hu, pseudo, c_t, c_tu),
                        [(ht, tt, c_t), (hu, pseudo, c_tu)]),
        }
        for beta, blocks in betas.values():
            assert np.isfinite(beta).all()
            assert stationary(ridge_grad(beta, blocks), beta)


class TestPredictAndAccuracy:
    def test_unique_maximum(self):
        scores = np.array([[0.9, -0.2, -1.0, -1.0, -1.0, -1.0]])
        assert labels_from_scores(scores)[0] == 1

    def test_tie_goes_to_lowest_class(self):
        scores = np.array([[0.5, 0.5, -1.0]])
        assert labels_from_scores(scores)[0] == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        scores = rng.normal(size=(30, 6))
        np.testing.assert_array_equal(labels_from_scores(scores),
                                      labels_from_scores(3.7 * scores))

    def test_separable_training_data_is_memorized(self):
        rng = np.random.default_rng(18)
        feats = np.vstack([rng.normal(size=(30, 4)) + 6.0,
                           rng.normal(size=(30, 4)) - 6.0])
        labels = np.array([1] * 30 + [2] * 30)
        scaled = 2 * (feats - feats.min(0)) / np.ptp(feats, 0) - 1
        fmap = new_feature_map(60, 4, "radbas", seed=5)
        h = hidden_output(fmap, scaled)
        targets = -np.ones((60, 2))
        targets[np.arange(60), labels - 1] = 1.0
        beta = train_elm(h, targets, c=1e6)
        clf = Classifier(fmap, beta)
        _, predicted = predict(clf, scaled)
        assert accuracy(predicted, labels) == 1.0

    def test_non_finite_rows_are_refused(self):
        # a NaN or Inf row would otherwise get a label all the same
        clf = Classifier(new_feature_map(5, 2, seed=0), np.ones((5, 2)))
        with pytest.raises(DataError, match="NaN or Inf"):
            predict(clf, [[np.nan, 0.0], [np.inf, 1.0]])
        with pytest.raises(DataError, match="NaN or Inf"):
            predict(clf, np.array([[0.0, 0.0], [0.0, -np.inf]]))

    def test_accuracy_values(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 1], [2, 2]) == 0.0
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 5]) == 0.75

    def test_accuracy_errors(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestClassifierSerialization:
    SCALER = ScalerParams(np.array([-1.5, 0.0, 2.0]), np.array([0.5, 0.0, 3.25]))
    META = {"method": "elm", "seed": 99}

    def make_classifier(self):
        fmap = new_feature_map(7, 3, "sigmoid", seed=99)
        beta = np.random.default_rng(0).normal(size=(7, 4))
        return Classifier(fmap, beta)

    def make_document(self):
        return json.loads(json.dumps(
            classifier_to_dict(self.make_classifier(), self.SCALER, self.META)))

    def test_dict_round_trip_bit_exact(self):
        clf = self.make_classifier()
        back, scaler = classifier_from_dict(self.make_document())
        assert back.beta.tobytes() == clf.beta.tobytes()
        np.testing.assert_array_equal(back.feature_map.weights, clf.feature_map.weights)
        assert back.beta.shape[1] == clf.beta.shape[1] == 4
        assert scaler.minimum.tobytes() == self.SCALER.minimum.tobytes()
        assert scaler.maximum.tobytes() == self.SCALER.maximum.tobytes()

    def test_document_keys_and_map_digest(self):
        doc = self.make_document()
        assert list(doc) == ["format", "feature_map", "m", "beta", "scaler", "meta"]
        assert doc["m"] == 4 and doc["meta"] == self.META
        fmap = self.make_classifier().feature_map
        assert doc["feature_map"]["sha256"] == hashlib.sha256(
            fmap.weights.astype("<f8").tobytes()
            + fmap.biases.astype("<f8").tobytes()).hexdigest()

    def test_file_round_trip(self, tmp_path):
        clf = self.make_classifier()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(classifier_to_dict(clf, self.SCALER, self.META),
                                   indent=2))
        back, scaler = classifier_from_dict(json.loads(path.read_text()))
        assert back.beta.tobytes() == clf.beta.tobytes()
        assert json.dumps(classifier_to_dict(back, scaler, self.META),
                          indent=2) == path.read_text()

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            classifier_from_dict({"format": "other"})

    @pytest.mark.parametrize("case", list(MALFORMED_MODELS))
    def test_rejects_a_malformed_document(self, case):
        doc = MALFORMED_MODELS[case](self.make_document())
        with pytest.raises(DataError):
            classifier_from_dict(json.loads(json.dumps(doc)))
