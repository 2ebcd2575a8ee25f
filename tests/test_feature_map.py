import numpy as np
import pytest
from scipy.special import expit

from driftelm import RandomFeatureMap, hidden_output, new_feature_map
from driftelm.feature_map import map_from_descriptor


def test_same_seed_same_map():
    a = new_feature_map(20, 5, "radbas", seed=9)
    b = new_feature_map(20, 5, "radbas", seed=9)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.biases, b.biases)


def test_different_seeds_differ():
    a = new_feature_map(20, 5, seed=1)
    b = new_feature_map(20, 5, seed=2)
    assert np.any(a.weights != b.weights)


def test_benchmark_scale_shapes():
    f = new_feature_map(1000, 128, seed=0)
    assert f.weights.shape == (1000, 128)
    assert f.biases.shape == (1000,)
    assert f.weights.min() >= -1.0 and f.weights.max() <= 1.0


def test_activation_values():
    # one hidden unit with w=1, b=0 probes the activation directly
    f_rad = RandomFeatureMap(np.array([[1.0]]), np.array([0.0]), "radbas", seed=0)
    h = hidden_output(f_rad, np.array([[0.0], [1.0]]))
    assert h[0, 0] == pytest.approx(1.0)
    assert h[1, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    f_sig = RandomFeatureMap(np.array([[1.0]]), np.array([0.0]), "sigmoid", seed=0)
    h = hidden_output(f_sig, np.array([[0.0]]))
    assert h[0, 0] == pytest.approx(0.5)


@pytest.mark.parametrize("activation, reference", [
    ("radbas", lambda z: np.exp(-np.square(z))),
    ("sigmoid", expit),
])
def test_in_place_activation_is_bit_identical(activation, reference):
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(57, 9))
    f = new_feature_map(40, 9, activation, seed=3)
    x_before, w_before, b_before = x.copy(), f.weights.copy(), f.biases.copy()
    h = hidden_output(f, x)
    np.testing.assert_array_equal(h, reference(x @ f.weights.T + f.biases))
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(f.weights, w_before)
    np.testing.assert_array_equal(f.biases, b_before)
    assert h.flags.writeable and not np.shares_memory(h, x)
    out = np.full_like(h, np.nan)
    assert hidden_output(f, x, out) is out
    np.testing.assert_array_equal(out, h)


def test_output_ranges():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(40, 6))
    h_rad = hidden_output(new_feature_map(30, 6, "radbas", seed=4), x)
    assert np.all(h_rad > 0.0) and np.all(h_rad <= 1.0)
    h_sig = hidden_output(new_feature_map(30, 6, "sigmoid", seed=4), x)
    assert np.all(h_sig > 0.0) and np.all(h_sig < 1.0)


def test_row_permutation_equivariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(15, 4))
    f = new_feature_map(12, 4, seed=2)
    perm = rng.permutation(15)
    np.testing.assert_array_equal(hidden_output(f, x[perm]), hidden_output(f, x)[perm])


def test_dimension_mismatch():
    f = new_feature_map(5, 4, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        hidden_output(f, np.zeros((3, 7)))


def test_out_must_be_a_writable_c_ordered_h():
    f, x = new_feature_map(5, 4, seed=0), np.zeros((3, 4))
    read_only = np.empty((3, 5))
    read_only.flags.writeable = False
    for out in (np.empty((3, 5), dtype=np.float32), np.empty((3, 6)), np.empty((5, 3)).T,
                np.empty((3, 10))[:, ::2], read_only, [[0.0] * 5] * 3):
        with pytest.raises(ValueError, match="out must be"):
            hidden_output(f, x, out)


def test_descriptor_round_trip():
    f = new_feature_map(8, 3, "sigmoid", seed=123)
    g = map_from_descriptor(f.describe())
    np.testing.assert_array_equal(f.weights, g.weights)
    np.testing.assert_array_equal(f.biases, g.biases)
    assert g.activation == "sigmoid"


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        new_feature_map(0, 4, seed=0)
    with pytest.raises(ValueError):
        new_feature_map(4, 4, "tanh", seed=0)
