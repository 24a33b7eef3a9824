"""Tests for the dense-network regressor: gradient correctness against
finite differences, convergence on easy targets, determinism, and the
failure paths."""

import numpy as np
import pytest

from spectramap.errors import NumericError
from spectramap.mlp import (MlpSpec, mlp_fit, mlp_grad_check, mlp_loss,
                            mlp_predict)


def _r2(pred, y):
    return 1.0 - np.sum((pred - y) ** 2) / np.sum((y - y.mean()) ** 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec(hidden=(0,))
    with pytest.raises(ValueError):
        MlpSpec(activation="sigmoid")
    with pytest.raises(ValueError):
        MlpSpec(learning_rate=0.0)
    with pytest.raises(ValueError):
        MlpSpec(l2=-1.0)


def test_shape_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        mlp_fit(X, np.zeros(5))
    with pytest.raises(ValueError):
        mlp_fit(np.zeros((1, 2)), np.zeros(1))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    # one epoch at a vanishing rate leaves the init essentially untouched
    tanh_net = mlp_fit(X, y, MlpSpec(hidden=(5, 4), activation="tanh",
                                     epochs=1, learning_rate=1e-9, seed=1))
    assert mlp_grad_check(tanh_net, X, y) < 1e-6
    relu_net = mlp_fit(X, y, MlpSpec(hidden=(5, 4), activation="relu",
                                     epochs=1, learning_rate=1e-9, seed=1))
    # relu is kink-limited under central differences, hence the looser bound
    assert mlp_grad_check(relu_net, X, y) < 1e-4


def test_gradients_with_l2_penalty():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    net = mlp_fit(X, y, MlpSpec(hidden=(5, 4), epochs=1, learning_rate=1e-9,
                                seed=1, l2=0.01))
    assert mlp_grad_check(net, X, y) < 1e-4


def test_loss_decomposition_with_l2():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    model = mlp_fit(X, y, MlpSpec(hidden=(4,), epochs=5, seed=0, l2=0.03))
    Xs = (X - model.x_mean) / model.x_sd
    ys = (y[:, None] - model.y_mean) / model.y_sd
    h = Xs
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        a = h @ W.T + b
        h = a if i == len(model.weights) - 1 else np.tanh(a)
    expected = np.mean((h - ys) ** 2) + 0.03 * sum(np.sum(W * W)
                                                   for W in model.weights)
    assert mlp_loss(model, X, y) == pytest.approx(expected, rel=1e-12)


def test_fits_linear_target():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 2))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 5.0
    model = mlp_fit(X, y, MlpSpec(hidden=(16,), learning_rate=0.05,
                                  epochs=300, batch_size=16, seed=1))
    assert _r2(mlp_predict(model, X), y) > 0.99


def test_constant_target_converges_tightly():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 2))
    y = np.full(100, 42.0)
    # narrow net keeps the last-layer quadratic well conditioned, so
    # full-batch descent reaches the exact solution
    model = mlp_fit(X, y, MlpSpec(hidden=(2,), learning_rate=0.5,
                                  epochs=4000, batch_size=100, seed=0))
    assert np.max(np.abs(mlp_predict(model, X) - 42.0)) < 1e-6


def test_training_is_deterministic():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    spec = MlpSpec(hidden=(8,), epochs=20, seed=11)
    a = mlp_predict(mlp_fit(X, y, spec), X)
    b = mlp_predict(mlp_fit(X, y, spec), X)
    assert np.array_equal(a, b)


def test_predict_single_row():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 2))
    y = X[:, 0]
    model = mlp_fit(X, y, MlpSpec(hidden=(4,), epochs=10, seed=0))
    single = mlp_predict(model, X[3])
    assert np.isscalar(single) or single.ndim == 0
    assert single == pytest.approx(mlp_predict(model, X)[3])


@pytest.mark.parametrize("cols", [slice(0, 1), slice(0, 4), slice(None)])
def test_predict_refuses_the_wrong_input_width(cols):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 5))
    model = mlp_fit(X, X[:, 0], MlpSpec(hidden=(4,), epochs=2, seed=0))
    wrong = np.column_stack([X, X[:, 0]])[:, cols]
    with pytest.raises(ValueError, match="input dimension mismatch"):
        mlp_predict(model, wrong)
    with pytest.raises(ValueError, match="input dimension mismatch"):
        mlp_predict(model, wrong[0])


def test_multioutput_targets():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 2))
    Y = np.column_stack([X[:, 0] + X[:, 1], X[:, 0] - X[:, 1]])
    model = mlp_fit(X, Y, MlpSpec(hidden=(12,), epochs=200,
                                  learning_rate=0.05, seed=2))
    pred = mlp_predict(model, X)
    assert pred.shape == Y.shape
    assert _r2(pred[:, 0], Y[:, 0]) > 0.95
    assert _r2(pred[:, 1], Y[:, 1]) > 0.95


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 2)) * 10
    y = rng.normal(size=30) * 10
    with pytest.raises(NumericError):
        mlp_fit(X, y, MlpSpec(hidden=(32, 32), learning_rate=50.0,
                              epochs=200, seed=0))
