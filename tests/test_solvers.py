import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError

import driftelm.solvers
from driftelm import (Classifier, DataError, SampleSet, ScalerParams,
                      SolverError, accuracy, classifier_from_dict,
                      classifier_to_dict, encode_targets, hidden_output,
                      labels_from_scores, new_feature_map, predict, solve_ridge,
                      split_target, ssa_select, train_daelm_s, train_daelm_t,
                      train_elm)
# bound here, so a test that patches the module's names leaves these alone
from driftelm.solvers import cho_factor, cho_solve

from conftest import MALFORMED_MODELS, rel_diff


# The objective's gradient, written out independently of the solver code paths.
def ridge_grad(beta, blocks):
    return beta + sum(c * h.T @ (h @ beta - t) for h, t, c in blocks)


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


def plus_gram(system, h, c):
    """``system + c * (h.T @ h)`` as a fresh array, by the arithmetic
    `solve_ridge` uses for a later block: numpy's own ``dsyrk`` (beta 1) on a
    copy, mirrored by ``triu``, where that library exists and ``h`` is
    C-ordered, else a separate Gram."""
    solvers = driftelm.solvers
    if solvers._lapack() is None or not h.flags.c_contiguous:
        return system + c * (h.T @ h)
    upper, n = system.copy(), system.shape[0]
    solvers._lapack()[2](solvers._ROW_MAJOR, solvers._UPPER, solvers._TRANS, n, h.shape[0],
                         c, h.ctypes.data, n, 1.0, upper.ctypes.data, n)
    return np.triu(upper) + np.triu(upper, 1).T


def primal_system(live):
    """I + sum_i c_i Hi'Hi, built with fresh temporaries."""
    (h, _, c), *later = live
    system = np.eye(h.shape[1]) + c * (h.T @ h)
    for h, _, c in later:
        system = plus_gram(system, h, c)
    return system


def copying_reference(blocks, branch):
    """Both closed forms built with fresh temporaries and factored on a copy.

    The copy is factored by the package's own Cholesky, and a later block's
    Gram is added by the same ``dsyrk``, so the reference differs from
    `solve_ridge` in copying only."""
    live = [(h, t, c) for h, t, c in blocks if c > 0 and h.shape[0] > 0]
    if branch == "primal":
        return cho_solve(cho_factor(primal_system(live)),
                         sum(c * (h.T @ t) for h, t, c in live))
    h = np.vstack([h for h, _, _ in live])
    kernel = h @ h.T
    kernel[np.diag_indices(h.shape[0])] += np.concatenate(
        [np.full(b.shape[0], 1.0 / c) for b, _, c in live])
    return h.T @ cho_solve(cho_factor(kernel.copy()),
                           np.vstack([t for _, t, _ in live]))


def jittered_reference(matrix, rhs):
    """The retry's answer: the untouched system plus jitter, factored on a copy."""
    n = matrix.shape[0]
    jitter = 1e-10 * np.trace(matrix) / n
    return cho_solve(cho_factor(matrix + jitter * np.eye(n)), rhs)


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
    # TestScipyFallback runs this body too; both classes hold the same property
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
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
    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    @pytest.mark.parametrize("hidden", [40, 300])
    def test_in_place_forms_match_the_copying_reference(self, hidden, n_blocks, branch):
        blocks = random_blocks(hidden + n_blocks, hidden, 3, [0.7, 30.0, 5.0][:n_blocks],
                               [hidden // 3, hidden // 2, hidden // 4][:n_blocks])
        assert np.array_equal(solve_ridge(blocks, branch),
                              copying_reference(blocks, branch))

    @pytest.mark.parametrize("layout", ["one-row", "F", "strided"])
    def test_a_later_block_of_any_layout_matches_the_copying_reference(self, layout):
        # a C-ordered later block is folded into the system, any other adds its Gram
        rng = np.random.default_rng(31)
        h, t = random_instance(rng, 60, 40, 2)
        later = {"one-row": rng.normal(size=(1, 40)),
                 "F": np.asfortranarray(rng.normal(size=(9, 40))),
                 "strided": rng.normal(size=(9, 80))[:, ::2]}[layout]
        blocks = [(h, t, 0.7), (later, rng.normal(size=(later.shape[0], 2)), 30.0)]
        assert np.array_equal(solve_ridge(blocks, "primal"),
                              copying_reference(blocks, "primal"))

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

    def test_jitter_retry_keeps_a_later_block(self, factored_dims):
        # the retry rebuilds the system from its lower triangle, which holds
        # the later block's Gram only once that Gram is mirrored into it
        rng = np.random.default_rng(32)
        fmap = new_feature_map(200, 2, seed=32)
        blocks = [(hidden_output(fmap, rng.uniform(-1.0, 1.0, size=(rows, 2))),
                   rng.normal(size=(rows, 2)), c) for rows, c in ((20, 1e13), (10, 1e13))]
        beta = solve_ridge(blocks, "primal")
        assert factored_dims == [200, 200]
        expected = jittered_reference(primal_system(blocks),
                                      sum(c * (h.T @ t) for h, t, c in blocks))
        assert np.array_equal(beta, expected)

    def test_jitter_retry_allocates_no_second_system(self):
        rng = np.random.default_rng(33)
        hidden = 600
        h = hidden_output(new_feature_map(hidden, 4, seed=33),
                          rng.uniform(-1.0, 1.0, size=(100, 4)))
        t = rng.normal(size=(100, 2))
        peak = traced_peak(lambda: solve_ridge([(h, t, 1e12)], "primal"))
        assert peak < 1.5 * hidden ** 2 * 8

    def test_jitter_retry_on_a_singular_system(self, factored_dims):
        singular, rhs = np.ones((2, 2)), np.array([1.0, 2.0])
        expected = jittered_reference(singular, rhs)
        assert np.array_equal(driftelm.solvers._solve_spd(singular.copy(), rhs), expected)
        assert factored_dims == [2, 2]
        with pytest.raises(SolverError):
            driftelm.solvers._solve_spd(-np.eye(3), np.ones(3))
        assert factored_dims == [2, 2, 3, 3]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_factor_is_made_in_the_matrix_buffer(self, order):
        rng = np.random.default_rng(28)
        a = rng.normal(size=(6, 6))
        system = np.array(a @ a.T + np.eye(6), order=order)
        saved = system.copy()
        rhs = rng.normal(size=(6, 2))
        if order == "F":  # only the C-ordered layout `_solve_spd` builds is taken
            with pytest.raises(ValueError, match="C-ordered"):
                cho_factor(system)
            with pytest.raises(ValueError):
                cho_solve(system, rhs)
            assert np.array_equal(system, saved)
            return
        factor = cho_factor(system)
        assert np.shares_memory(factor, system)
        # LAPACK reads the buffer in Fortran order, as the transpose
        lower = np.tril(factor.T)
        assert rel_diff(lower @ lower.T, saved) < 1e-12
        # the other strict triangle still holds the system
        assert np.array_equal(np.triu(factor.T, 1), np.triu(saved, 1))
        assert rel_diff(saved @ cho_solve(factor, rhs), rhs) < 1e-12
        with pytest.raises(ValueError):
            cho_factor(saved[:, :5].copy())
        with pytest.raises(ValueError):
            cho_solve(factor[:5], rhs)
        with pytest.raises(ValueError):
            cho_solve(factor, rhs[:5])

    @pytest.mark.parametrize("branch, h_scale, t_scale, c, rows, hidden", [
        ("primal", 1.0, 1.0, 1e308, 12, 8), ("dual", 1e154, 1.0, 1.0, 12, 8),
        ("primal", 1.0, 1e308, 1.0, 12, 8), ("dual", 1.0, 1e308, 1.0, 12, 8),
        ("dual", 1e154, 1.0, 1.0, 3, 20), ("auto", 1e154, 1.0, 1.0, 3, 20)],
        ids=["primal-c", "dual-h", "primal-t", "dual-t", "dual-kernel", "auto-kernel"])
    def test_overflow_raises_solver_error(self, branch, h_scale, t_scale, c, rows, hidden):
        # finite inputs whose system or right-hand side overflows to inf;
        # LAPACK factors such a system without failing, and a dual kernel
        # that is inf everywhere to a factor that solves to zero weights
        rng = np.random.default_rng(29)
        h = rng.uniform(0.0, 1.0, size=(rows, hidden))
        t = np.where(rng.random((rows, 3)) < 0.5, 1.0, -1.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SolverError, match="overflow"):
            solve_ridge([(h_scale * h, t_scale * t, c)], branch)

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


class TestScipyFallback(TestSolveRidge):
    """Every solver test again, on a numpy that ships no LAPACK to call."""

    @pytest.fixture(autouse=True, scope="class")
    def no_numpy_lapack(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(driftelm.solvers, "_lapack", lambda: None)
            # the fallback imports scipy at its first solve: not inside a test
            driftelm.solvers._solve_spd(np.eye(2), np.ones(2))
            yield


@pytest.mark.skipif(driftelm.solvers._lapack() is None,
                    reason="only numpy's own dsyrk adds a later Gram in place")
def test_a_later_block_adds_no_second_system():
    # the second block's Gram is added into the system itself, so the solve
    # holds one L x L array
    rng = np.random.default_rng(30)
    hidden = 300
    blocks = [(*random_instance(rng, n, hidden, 3), c) for n, c in ((50, 0.5), (3000, 20.0))]
    peak = traced_peak(lambda: solve_ridge(blocks))
    assert peak < 1.25 * hidden ** 2 * 8 + 64 * 1024


@pytest.mark.parametrize("hidden", [1, 63, 64, 65, 129, 300])
def test_a_later_gram_is_added_symmetric_within_one_rounding(hidden):
    # exactly mirrored, and each entry s + c*g, with g summed as dsyrk sums
    # it, differs from s + (c*g rounded) by at most one rounding
    # (nonnegative entries; 50 rows, the protocol's guide count)
    rng = np.random.default_rng(hidden)
    fmap = new_feature_map(hidden, 8, seed=hidden)
    h0, h = (hidden_output(fmap, rng.uniform(-1.0, 1.0, size=(50, 8))) for _ in range(2))
    system = h0.T @ h0
    system *= 0.5
    system[np.diag_indices(hidden)] += 1.0
    expected = system + 20.0 * plus_gram(np.zeros_like(system), h, 1.0)
    driftelm.solvers._add_gram(system, h, 20.0)
    assert np.array_equal(system, system.T)
    assert (np.abs(system - expected) <= np.finfo(float).eps * expected).all()


class TestTrainers:
    """Each trainer is `solve_ridge` on its method's blocks; the classes
    below state facts of one method each."""

    @pytest.mark.parametrize("rows", [12, 25, 40])  # below, at and above L = 25
    @pytest.mark.parametrize("method", ["elm", "daelm-s", "daelm-t"])
    def test_trainer_is_solve_ridge_on_its_blocks(self, method, rows):
        # auto takes the dual form below L rows in all and the primal form
        # from L on, so each trainer returns that forced form's bytes
        rng = np.random.default_rng(rows)
        h1, t1 = random_instance(rng, rows - 5, 25, 3)
        h2, t2 = random_instance(rng, 5, 25, 3)
        h, t = np.vstack([h1, h2]), np.vstack([t1, t2])
        c1, c2 = 0.3, 7.0
        beta, blocks = {
            "elm": (lambda: train_elm(h, t, c1), [(h, t, c1)]),
            "daelm-s": (lambda: train_daelm_s(h1, t1, h2, t2, c1, c2),
                        [(h1, t1, c1), (h2, t2, c2)]),
            "daelm-t": (lambda: train_daelm_t(h2, t2, h1, t1, c2, c1),
                        [(h2, t2, c2), (h1, t1, c1)]),
        }[method]
        branch = "primal" if rows >= 25 else "dual"
        assert beta().tobytes() == solve_ridge(blocks, branch).tobytes()


def check_dual_multipliers(train, c1, c2):
    """At the optimum each block's multiplier is its weight times its
    residual, and beta = H1'alpha_1 + H2'alpha_2; 16 rows under L = 40: dual."""
    rng = np.random.default_rng(6)
    h1, t1 = random_instance(rng, 12, 40, 2)
    h2, t2 = random_instance(rng, 4, 40, 2)
    beta = train(h1, t1, h2, t2, c1, c2)
    alpha1, alpha2 = c1 * (t1 - h1 @ beta), c2 * (t2 - h2 @ beta)
    assert rel_diff(beta, h1.T @ alpha1 + h2.T @ alpha2) < 1e-6


def check_collapse_to_elm(train):
    """A zero coupling penalty drops its block, so the solve is elm's own, on
    both branches of train_elm."""
    for rows in (12, 40):
        rng = np.random.default_rng(rows)
        h1, t1 = random_instance(rng, rows, 25, 6)
        h2, t2 = random_instance(rng, 25, 25, 6)
        assert train(h1, t1, h2, t2, 0.7, 0.0).tobytes() == train_elm(h1, t1, 0.7).tobytes()


def soft_and_other_targets():
    """A daelm-t instance: pseudo-targets from a base model, and random ones."""
    rng = np.random.default_rng(16)
    ht, tt = random_instance(rng, 5, 20, 3)
    hu, _ = random_instance(rng, 15, 20, 3)
    return ht, tt, hu, hu @ rng.normal(size=(20, 3)), rng.normal(size=(15, 3))


class TestTrainElm:
    def test_rejects_bad_inputs(self):
        for c in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError, match="positive penalty"):
                train_elm(np.ones((2, 2)), np.ones((2, 1)), c)


class TestTrainDaelmS:
    def test_zero_guide_penalty_collapses_to_elm(self):
        check_collapse_to_elm(train_daelm_s)

    def test_dual_multipliers_match_residuals(self):
        check_dual_multipliers(train_daelm_s, 0.8, 3.0)

    def test_monotone_source_fit(self):
        rng = np.random.default_rng(8)
        hs, ts = random_instance(rng, 25, 20, 3)
        ht, tt = random_instance(rng, 5, 20, 3)
        residuals = []
        for c_s in (0.01, 0.1, 1.0, 10.0, 100.0):
            beta = train_daelm_s(hs, ts, ht, tt, c_s, 2.0)
            residuals.append(np.linalg.norm(ts - hs @ beta))
        assert all(b <= a + 1e-10 for a, b in zip(residuals, residuals[1:]))


class TestTrainDaelmT:
    def test_zero_unlabeled_penalty_collapses_to_elm(self):
        check_collapse_to_elm(train_daelm_t)

    def test_dual_multipliers_match_residuals(self):
        check_dual_multipliers(train_daelm_t, 0.9, 2.0)

    def test_pseudo_targets_steer_the_solution(self):
        ht, tt, hu, pseudo, other = soft_and_other_targets()
        assert rel_diff(train_daelm_t(ht, tt, hu, pseudo, 1.0, 5.0),
                        train_daelm_t(ht, tt, hu, other, 1.0, 5.0)) > 1e-3

    def test_pseudo_targets_are_soft(self):
        # hardening the base outputs to +/-1 must change the result: beta solves
        # (I + c_t Ht'Ht + c_tu Hu'Hu) beta = c_t Ht'Tt + c_tu Hu'hard
        ht, tt, hu, pseudo, _ = soft_and_other_targets()
        c_t, c_tu = 1.0, 5.0
        hard = -np.ones_like(pseudo)
        hard[np.arange(len(pseudo)), np.argmax(pseudo, axis=1)] = 1.0
        gram = np.eye(20) + c_t * ht.T @ ht + c_tu * hu.T @ hu
        hardened = np.linalg.solve(gram, c_t * ht.T @ tt + c_tu * hu.T @ hard)
        assert rel_diff(train_daelm_t(ht, tt, hu, pseudo, c_t, c_tu), hardened) > 1e-3


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
