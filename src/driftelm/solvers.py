"""Closed-form output-weight solvers, and the model file that holds their result.

All three trainers minimize one strictly convex objective over the output
weights beta (an L-by-m matrix), given a list of ridge blocks (H_i, T_i, c_i):

    0.5*|beta|^2 + sum_i (c_i/2) * |T_i - H_i beta|^2

    elm:      (H, T, c)
    daelm-s:  (Hs, Ts, c_s), (Ht, Tt, c_t)         source rows, guide rows
    daelm-t:  (Ht, Tt, c_t), (Hu, P, c_tu)         guide rows, unlabeled rows

where P holds the base classifier's soft scores on the unlabeled rows.
`solve_ridge` has both closed forms of this regularized least-squares
problem. The weight-space ("primal") form factors one L-by-L system,
(I + sum_i c_i Hi'Hi) beta = sum_i c_i Hi'Ti. The multiplier ("dual") form
stacks the N rows of every block into H and T, factors
(HH' + diag(1/c)) alpha = T, and returns beta = H'alpha, where diag(1/c)
repeats 1/c_i once per row of block i. A block with c_i = 0 or no rows does
not enter the objective and is dropped first. The `auto` branch counts the
rows N of all remaining blocks (the total, not one block's) and picks primal
when N >= L, dual otherwise: the two costs, N*L^2 + L^3/3 and
N^2*L + N^3/3, cross at N = L. The trainers always take `auto`; only
`solve_ridge` can force a form, the reference each form is checked against.

Either form builds its system in one buffer, and `_solve_spd` factors it in
that buffer, overwriting its argument, so a solve holds one L-by-L (or
N-by-N) system and no copy of it.

The Cholesky routines are the LAPACK that numpy's PyPI wheel already ships
(``dpotrf``/``dpotrs`` of its ``numpy.libs/libscipy_openblas64_`` library),
called through ctypes, so a process loads one BLAS and no scipy. Where numpy
has no such library, `cho_factor` and `cho_solve` import ``scipy.linalg``
when first called and make the same in-place calls through it. Both take
the one layout `_solve_spd` builds, a C-ordered system read as its transpose.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from .dataset import DataError, ScalerParams
from .feature_map import RandomFeatureMap, hidden_output, map_from_descriptor

BRANCHES = ("auto", "primal", "dual")


class SolverError(RuntimeError):
    """A linear system that should be SPD failed to factor."""


_OVERFLOW = "the weights overflow float64; lower the penalties or the data's scale"


def _check_matrix(name: str, a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@functools.cache
def _lapack():
    """numpy's own ``(dpotrf, dpotrs, dsyrk)``, or None where its wheel ships none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            potrf, potrs = lib.scipy_dpotrf_64_, lib.scipy_dpotrs_64_
            syrk = lib.scipy_cblas_dsyrk64_
        except (OSError, AttributeError):
            continue
        # Fortran: every argument by reference, 64-bit integers, then the
        # hidden length of the character argument
        ref = ctypes.POINTER(ctypes.c_int64)
        potrf.argtypes = [ctypes.c_char_p, ref, ctypes.c_void_p, ref, ref, ctypes.c_size_t]
        potrs.argtypes = [ctypes.c_char_p, ref, ref, ctypes.c_void_p, ref,
                          ctypes.c_void_p, ref, ref, ctypes.c_size_t]
        # CBLAS: three enums, then sizes, scalars and pointers by value
        size, scalar = ctypes.c_int64, ctypes.c_double
        syrk.argtypes = [ctypes.c_int] * 3 + [size, size, scalar, ctypes.c_void_p, size,
                                              scalar, ctypes.c_void_p, size]
        potrf.restype = potrs.restype = syrk.restype = None
        return potrf, potrs, syrk
    return None


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def cho_factor(matrix: np.ndarray) -> np.ndarray:
    """Cholesky factor of an SPD matrix, made in its buffer; LinAlgError unless SPD.

    ``matrix`` must be a square, C-ordered, writable float64 array. The
    lower triangle of its buffer, read in Fortran order (the C array's upper
    triangle), is overwritten by the factor, and ``matrix`` is returned. Its
    other strict triangle still holds the system, so the result is meant for
    `cho_solve` only.
    """
    flags = matrix.flags
    if (matrix.dtype != np.float64 or matrix.ndim != 2 or not flags.c_contiguous
            or not flags.writeable or matrix.shape[0] != matrix.shape[1]):
        raise ValueError("matrix must be a square, C-ordered, writable float64 array")
    lapack = _lapack()
    if lapack is None:
        from scipy.linalg import cho_factor as factor  # only where numpy ships no LAPACK
        factor(matrix.T, lower=True, overwrite_a=True, check_finite=False)
        return matrix
    n, info = matrix.shape[0], ctypes.c_int64()
    lapack[0](b"L", _int(n), matrix.ctypes.data, _int(max(n, 1)), ctypes.byref(info), 1)
    if info.value > 0:
        raise LinAlgError(f"leading minor of order {info.value} is not positive definite")
    return matrix


def cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution x of A x = rhs, for ``factor = cho_factor(A)``."""
    n = factor.shape[0] if factor.ndim == 2 else -1
    if factor.shape != (n, n) or factor.dtype != np.float64 or not factor.flags.c_contiguous:
        raise ValueError("factor must be the result of cho_factor")
    lapack = _lapack()
    if lapack is None:
        from scipy.linalg import cho_solve as solve  # only where numpy ships no LAPACK
        return solve((factor.T, True), rhs, check_finite=False)
    x = np.array(rhs, dtype=np.float64, order="F")  # overwritten by the solution
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError("rhs must be a vector or matrix with as many rows as the factor")
    lead, info = _int(max(n, 1)), ctypes.c_int64()
    lapack[1](b"L", _int(n), _int(x.size // max(n, 1)), factor.ctypes.data, lead,
              x.ctypes.data, lead, ctypes.byref(info), 1)
    if info.value != 0:
        raise ValueError(f"dpotrs rejected its argument {-info.value}")
    return x


def _solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve an SPD system by Cholesky, with a single jitter retry.

    The factorization runs in numpy's own LAPACK (``dpotrf``), or, where
    numpy ships none, in scipy's (see `cho_factor`).
    ``matrix`` must be exactly symmetric and C-ordered, because LAPACK reads
    the lower triangle of its buffer in Fortran order: that is the C array's
    upper triangle, overwritten in place by the factor. After a failure the
    strict lower triangle and the saved diagonal still hold the system, and
    the retry rebuilds it with jitter.
    """
    diagonal = matrix.diagonal().copy()
    try:
        factor = cho_factor(matrix)
    except LinAlgError:
        n = matrix.shape[0]
        jitter = 1e-10 * diagonal.sum() / n
        matrix = np.tril(matrix, -1)
        matrix += matrix.T
        matrix[np.diag_indices(n)] = diagonal + jitter
        try:
            factor = cho_factor(matrix)
        except LinAlgError as exc:
            raise SolverError(
                "system is not positive definite beyond jitter tolerance") from exc
    # LAPACK factors a system that overflowed to inf without failing
    if not np.isfinite(factor.diagonal()).all():
        raise SolverError(_OVERFLOW)
    return cho_solve(factor, rhs)


# CBLAS's CblasRowMajor, CblasUpper and CblasTrans
_ROW_MAJOR, _UPPER, _TRANS = 101, 121, 112
_PANEL_ROWS = 64


def _add_gram(system: np.ndarray, h: np.ndarray, c: float) -> None:
    """``system += c * (h.T @ h)`` for an exactly symmetric, C-ordered system,
    with no L-by-L Gram beside it, and each entry's two roundings unchanged.

    numpy's own ``dsyrk`` overwrites the system's upper triangle with the
    Gram, the call numpy's ``h.T @ h`` makes before it mirrors the result.
    Row panel by row panel, each entry then becomes ``s + c * g``, with the
    earlier system's ``s`` read from the lower mirror (the diagonal from a
    saved copy), and the sum is mirrored back. Where numpy ships no such
    library, or ``h`` is not C-ordered, the Gram is made and added as is.
    """
    lapack = _lapack()
    if lapack is None or not h.flags.c_contiguous:
        gram = h.T @ h
        gram *= c
        system += gram
        return
    n = system.shape[0]
    diagonal = system.diagonal().copy()
    lapack[2](_ROW_MAJOR, _UPPER, _TRANS, n, h.shape[0], 1.0, h.ctypes.data, n,
              0.0, system.ctypes.data, n)
    diagonal += c * system.diagonal()
    scratch = np.empty(min(_PANEL_ROWS, n) * n)
    for lo in range(0, n, _PANEL_ROWS):
        hi = min(lo + _PANEL_ROWS, n)
        panel = scratch[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        # right of the diagonal: the Gram times c, plus the mirror's earlier system
        np.multiply(system[lo:hi, lo:], c, out=panel)
        panel += system[lo:, lo:hi].T
        square = panel[:, :hi - lo]
        below = np.tril_indices(hi - lo, -1)
        square[below] = square.T[below]
        np.fill_diagonal(square, diagonal[lo:hi])
        system[lo:hi, lo:] = panel
        system[hi:, lo:hi] = panel[:, hi - lo:].T


def _stacked(arrays: list) -> np.ndarray:
    """The rows of every array, stacked; a lone array is returned as it is."""
    return arrays[0] if len(arrays) == 1 else np.vstack(arrays)


def solve_ridge(blocks, branch: str = "auto") -> np.ndarray:
    """Minimizer of 0.5*|beta|^2 + sum_i (c_i/2)*|T_i - H_i beta|^2.

    ``blocks`` is a non-empty sequence of (H_i, T_i, c_i): H_i is n_i-by-L,
    T_i is n_i-by-m and c_i is a finite non-negative weight, with L and m
    shared by every block. ``branch`` forces the primal or dual form; both
    give the unique minimizer, which is zero when every weight is zero.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    checked = [(_check_matrix(f"H of block {i}", h),
                _check_matrix(f"T of block {i}", t), float(c))
               for i, (h, t, c) in enumerate(blocks)]
    if not checked:
        raise ValueError("at least one block is required")
    hidden, m = checked[0][0].shape[1], checked[0][1].shape[1]
    for i, (h, t, c) in enumerate(checked):
        if h.shape[0] != t.shape[0]:
            raise ValueError(f"row counts of H and T differ in block {i}")
        if h.shape[1] != hidden:
            raise ValueError("hidden sizes differ between blocks")
        if t.shape[1] != m:
            raise ValueError("output widths differ between blocks")
        if not np.isfinite(c) or c < 0:
            raise ValueError(f"weight of block {i} must be finite and non-negative")
    live = [(h, t, c) for h, t, c in checked if c > 0 and h.shape[0] > 0]
    if not live:
        return np.zeros((hidden, m))
    rows = sum(h.shape[0] for h, _, _ in live)
    if branch == "auto":
        branch = "primal" if rows >= hidden else "dual"

    if branch == "primal":
        # (I + c_1 H_1'H_1) + c_2 H_2'H_2 + ...: the first Gram, scaled in
        # place, holds the system, and each later one is added into it
        (h, _, c), *later = live
        system = h.T @ h
        system *= c
        system[np.diag_indices(hidden)] += 1.0
        for h, _, c in later:
            _add_gram(system, h, c)
        beta = _solve_spd(system, sum(c * (h.T @ t) for h, t, c in live))
    else:
        h = _stacked([h for h, _, _ in live])
        kernel = h @ h.T
        kernel[np.diag_indices(rows)] += np.concatenate(
            [np.full(b.shape[0], 1.0 / c) for b, _, c in live])
        beta = h.T @ _solve_spd(kernel, _stacked([t for _, t, _ in live]))
    if not np.isfinite(beta).all():  # the right-hand side or H'alpha overflowed
        raise SolverError(_OVERFLOW)
    return beta


def train_elm(h: np.ndarray, targets: np.ndarray, c: float) -> np.ndarray:
    """Regularized ELM output weights: the single block (H, T, c), c > 0."""
    c = float(c)
    if not np.isfinite(c) or c <= 0:
        raise ValueError("c must be a positive penalty")
    return solve_ridge([(h, targets, c)])


def train_daelm_s(h_source: np.ndarray, t_source: np.ndarray,
                  h_target: np.ndarray, t_target: np.ndarray,
                  c_s: float, c_t: float) -> np.ndarray:
    """Source-domain training with a guide-sample agreement penalty.

    Blocks: the labeled source rows weighted by c_s and the labeled target
    guides weighted by c_t.
    """
    return solve_ridge([(h_source, t_source, c_s), (h_target, t_target, c_t)])


def train_daelm_t(h_target: np.ndarray, t_target: np.ndarray,
                  h_unlabeled: np.ndarray, pseudo_targets: np.ndarray,
                  c_t: float, c_tu: float) -> np.ndarray:
    """Target-domain training pulled toward a base classifier's soft outputs.

    Blocks: the labeled target guides weighted by c_t and the unlabeled
    target rows weighted by c_tu. Their targets ``pseudo_targets`` are the
    base classifier's raw continuous scores on those rows, computed through
    its own feature map and never argmax-hardened.
    """
    return solve_ridge([(h_target, t_target, c_t), (h_unlabeled, pseudo_targets, c_tu)])


@dataclass(frozen=True, eq=False)
class Classifier:
    """A trained model: feature map plus output weights (hidden_size x m)."""

    feature_map: RandomFeatureMap
    beta: np.ndarray

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64, order="C")
        if beta.ndim != 2 or beta.shape[0] != self.feature_map.hidden_size:
            raise ValueError("beta shape must be (hidden_size, m)")
        if not np.isfinite(beta).all():
            raise ValueError("beta contains non-finite entries")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)


def labels_from_scores(scores: np.ndarray) -> np.ndarray:
    """Argmax class ids (1-based); ties go to the lowest class index."""
    return np.argmax(scores, axis=1).astype(np.int64) + 1


def predict(classifier: Classifier, x):
    """Class scores and argmax labels for an (N, n) matrix; DataError on NaN or Inf."""
    if not np.isfinite(x).all():
        raise DataError("features contain NaN or Inf")
    scores = hidden_output(classifier.feature_map, x) @ classifier.beta
    return scores, labels_from_scores(scores)


def accuracy(predicted, truth) -> float:
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError("prediction and truth must be equal-length vectors")
    if predicted.size == 0:
        raise ValueError("empty input")
    return float(np.mean(predicted == truth))


CLASSIFIER_FORMAT = "driftelm-classifier-v1"


def classifier_to_dict(classifier: Classifier, scaler: ScalerParams,
                       meta: dict) -> dict:
    """The model document; floats survive JSON bit-exactly, and readers skip meta."""
    return {
        "format": CLASSIFIER_FORMAT,
        "feature_map": classifier.feature_map.describe(),
        "m": classifier.beta.shape[1],
        "beta": classifier.beta.tolist(),
        "scaler": {"min": scaler.minimum.tolist(), "max": scaler.maximum.tolist()},
        "meta": meta,
    }


def _numbers(value, ndim: int, what: str) -> np.ndarray:
    """A non-empty ``ndim``-D array of finite JSON numbers, else DataError."""
    try:
        arr = np.asarray(value)
        if (arr.ndim == ndim and arr.size and arr.dtype.kind in "iuf"
                and np.isfinite(arr).all()):
            return arr.astype(np.float64)
    except ValueError:  # rows of different lengths
        pass
    raise DataError(f"model file: {what} must be a {ndim}-D array of finite numbers")


def classifier_from_dict(doc) -> tuple[Classifier, ScalerParams]:
    """The classifier and scaler of a model document; DataError on any flaw."""
    if not isinstance(doc, dict):
        raise DataError("model file must hold a JSON object")
    if doc.get("format") != CLASSIFIER_FORMAT:
        raise DataError(f"unsupported classifier format {doc.get('format')!r}")
    missing = [key for key in ("feature_map", "m", "beta", "scaler", "meta") if key not in doc]
    if missing:
        raise DataError(f"model file lacks {missing}")
    bounds = doc["scaler"] if isinstance(doc["scaler"], dict) else {}
    scaler = ScalerParams(*(_numbers(bounds.get(key), 1, f"scaler {key}")
                            for key in ("min", "max")))
    beta = _numbers(doc["beta"], 2, "beta")
    # the map's sizes are checked before its weights are drawn, so a size no
    # beta fits never reaches an allocation
    desc = doc["feature_map"] if isinstance(doc["feature_map"], dict) else {}
    size = desc.get("hidden_size"), desc.get("n_features")
    m, (rows, cols), width = doc["m"], beta.shape, scaler.minimum.shape[0]
    if type(m) is not int or (m, rows, width) != (cols, *size):
        raise DataError(f"model file: m = {m!r}, beta {rows}x{cols} and scaler width {width} "
                        f"do not fit a {size[0]}x{size[1]} feature map")
    return Classifier(map_from_descriptor(doc["feature_map"]), beta), scaler
