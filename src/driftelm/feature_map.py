"""Random hidden layer shared by the ELM variants.

A feature map is a frozen set of uniform random input weights and biases plus
an activation; it turns an (N, n) sample matrix into the (N, L) hidden
output matrix that the closed-form solvers consume. A saved map is rebuilt
from its seed, and refused unless its weights match the saved sha256: NumPy
does not promise that a seeded generator keeps its stream across versions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dataset import DataError


# Each activation overwrites its argument, a fresh N-by-L product, with
# the same elementwise arithmetic as exp(-z**2) and expit(z).
def _radbas(z: np.ndarray) -> np.ndarray:
    np.square(z, out=z)
    np.negative(z, out=z)
    return np.exp(z, out=z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    from scipy.special import expit  # only here: radbas runs never load it
    return expit(z, out=z)


ACTIVATIONS = {
    "radbas": _radbas,
    "sigmoid": _sigmoid,
}


@dataclass(frozen=True, eq=False)
class RandomFeatureMap:
    """Frozen random projection: weights (L, n), biases (L,), activation."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str
    seed: int

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, order="C")
        b = np.array(self.biases, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0] or w.shape[0] < 1:
            raise ValueError("weights must be (L, n) with biases of length L")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("weights and biases must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def hidden_size(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    def describe(self) -> dict:
        """Serializable descriptor; `map_from_descriptor` rebuilds and checks it."""
        digest = hashlib.sha256(self.weights.astype("<f8").tobytes()
                                + self.biases.astype("<f8").tobytes())
        return {
            "sha256": digest.hexdigest(),
            "seed": int(self.seed),
            "hidden_size": self.hidden_size,
            "n_features": self.n_features,
            "activation": self.activation,
        }


def new_feature_map(hidden_size: int, n_features: int, activation: str = "radbas",
                    seed: int = 0) -> RandomFeatureMap:
    """Draw weights and biases i.i.d. uniform on [-1, 1] from a seeded generator."""
    if hidden_size < 1 or n_features < 1:
        raise ValueError("hidden_size and n_features must be at least 1")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(hidden_size, n_features))
    biases = rng.uniform(-1.0, 1.0, size=hidden_size)
    return RandomFeatureMap(weights, biases, activation, seed)


def map_from_descriptor(desc) -> RandomFeatureMap:
    """The map `describe` saved; DataError unless it rebuilds to the same descriptor."""
    try:
        fmap = new_feature_map(desc["hidden_size"], desc["n_features"],
                               desc["activation"], desc["seed"])
    except (KeyError, TypeError, ValueError) as exc:  # missing or ill-typed fields
        raise DataError(f"feature map descriptor is not valid ({exc})") from None
    if fmap.describe() != desc:
        raise DataError("feature map does not rebuild to its descriptor's sha256")
    return fmap


def hidden_output(fmap: RandomFeatureMap, x, out: np.ndarray | None = None) -> np.ndarray:
    """Hidden layer output H with H[i, j] = act(w_j . x_i + b_j) for an (N, n) matrix x.

    H is written into ``out`` when one is given, a writable, C-ordered
    float64 (N, L) array, and returned; the bits are those of a fresh H.
    """
    feats = np.asarray(x, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != fmap.n_features:
        raise ValueError(f"samples of shape {feats.shape} do not match the map's "
                         f"dimension ({fmap.n_features})")
    if out is not None and not (
            isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == (feats.shape[0], fmap.hidden_size)
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writable, C-ordered float64 array of shape "
                         f"({feats.shape[0]}, {fmap.hidden_size})")
    z = np.matmul(feats, fmap.weights.T, out=out)
    z += fmap.biases
    return ACTIVATIONS[fmap.activation](z)
