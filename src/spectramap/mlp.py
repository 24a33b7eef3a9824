"""Small dense feed-forward regressor trained with mini-batch gradient
descent.  Written against plain numpy so the gradients can be checked
against central finite differences parameter by parameter.

Inputs and targets are standardized internally (constants stored on the
model); the loss is the mean squared error in standardized target space
plus l2 * sum of squared weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class MlpSpec:
    hidden: Tuple[int, ...] = (32, 32)
    activation: str = "tanh"
    learning_rate: float = 0.05
    epochs: int = 500
    batch_size: int = 16
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be positive")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("bad optimizer settings")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")


@dataclass(eq=False)
class MlpModel:
    """Weights plus standardization constants; predict() works in the
    original units."""

    spec: MlpSpec
    weights: List[np.ndarray]
    biases: List[np.ndarray]
    x_mean: np.ndarray
    x_sd: np.ndarray
    y_mean: np.ndarray
    y_sd: np.ndarray


def _act(name):
    if name == "tanh":
        return np.tanh, lambda a, z: 1.0 - z * z
    return (lambda a: np.maximum(a, 0.0)), (lambda a, z: (a > 0).astype(float))


def _init_params(sizes, rng):
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return weights, biases


def _forward(weights, biases, act, X):
    """Returns pre-activations and activations per layer; the last layer
    is linear."""
    zs = [X]
    pre = []
    h = X
    L = len(weights)
    for l, (W, b) in enumerate(zip(weights, biases)):
        a = h @ W.T + b
        pre.append(a)
        h = a if l == L - 1 else act(a)
        zs.append(h)
    return pre, zs


def _loss_and_grads(weights, biases, act, dact, X, Y, l2):
    n = X.shape[0]
    pre, zs = _forward(weights, biases, act, X)
    out = zs[-1]
    diff = out - Y
    loss = float(np.mean(diff ** 2))
    gW = [None] * len(weights)
    gb = [None] * len(weights)
    # d(mean square)/d(out); mean over batch and output dims
    delta = 2.0 * diff / diff.size
    for l in range(len(weights) - 1, -1, -1):
        gW[l] = delta.T @ zs[l]
        gb[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ weights[l]) * dact(pre[l - 1], zs[l])
    if l2 > 0:
        loss += l2 * sum(float(np.sum(W * W)) for W in weights)
        for l, W in enumerate(weights):
            gW[l] = gW[l] + 2.0 * l2 * W
    return loss, gW, gb


def _standardize(M):
    mean = M.mean(axis=0)
    sd = M.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (M - mean) / sd, mean, sd


def mlp_fit(X: np.ndarray, y: np.ndarray, spec: Optional[MlpSpec] = None) -> MlpModel:
    """Train on (X, y) with seeded mini-batch SGD; deterministic for a
    fixed spec."""
    if spec is None:
        spec = MlpSpec()
    X = np.asarray(X, dtype=float)
    Y = np.asarray(y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and y disagree on sample count")
    if X.shape[0] < 2:
        raise ValueError("need at least two samples")
    Xs, x_mean, x_sd = _standardize(X)
    Ys, y_mean, y_sd = _standardize(Y)
    act, dact = _act(spec.activation)
    rng = np.random.default_rng(spec.seed)
    sizes = [X.shape[1], *spec.hidden, Y.shape[1]]
    weights, biases = _init_params(sizes, rng)
    n = X.shape[0]
    lr = spec.learning_rate
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = order[start:start + spec.batch_size]
            loss, gW, gb = _loss_and_grads(weights, biases, act, dact,
                                           Xs[idx], Ys[idx], spec.l2)
            if not np.isfinite(loss):
                raise NumericError(f"training diverged at epoch {epoch}")
            for l in range(len(weights)):
                weights[l] -= lr * gW[l]
                biases[l] -= lr * gb[l]
    return MlpModel(spec, weights, biases, x_mean, x_sd, y_mean, y_sd)


def mlp_predict(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    one = X.ndim == 1
    if one:
        X = X[None, :]
    Xs = (X - model.x_mean) / model.x_sd
    act, _ = _act(model.spec.activation)
    _, zs = _forward(model.weights, model.biases, act, Xs)
    out = zs[-1] * model.y_sd + model.y_mean
    out = out[:, 0] if out.shape[1] == 1 else out
    return out[0] if one else out


def mlp_loss(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    """Training-space loss (standardized targets, l2 included)."""
    Xs = (np.asarray(X, dtype=float) - model.x_mean) / model.x_sd
    Y = np.asarray(y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    Ys = (Y - model.y_mean) / model.y_sd
    act, dact = _act(model.spec.activation)
    loss, _, _ = _loss_and_grads(model.weights, model.biases, act, dact,
                                 Xs, Ys, model.spec.l2)
    return loss


def mlp_grad_check(model: MlpModel, X: np.ndarray, y: np.ndarray,
                   step: float = 1e-6) -> float:
    """Max relative error between analytic gradients and central finite
    differences over every weight and bias."""
    Xs = (np.asarray(X, dtype=float) - model.x_mean) / model.x_sd
    Y = np.asarray(y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    Ys = (Y - model.y_mean) / model.y_sd
    act, dact = _act(model.spec.activation)
    _, gW, gb = _loss_and_grads(model.weights, model.biases, act, dact,
                                Xs, Ys, model.spec.l2)

    def loss_at():
        loss, _, _ = _loss_and_grads(model.weights, model.biases, act, dact,
                                     Xs, Ys, model.spec.l2)
        return loss

    worst = 0.0
    for arrs, grads in ((model.weights, gW), (model.biases, gb)):
        for arr, g in zip(arrs, grads):
            flat = arr.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                up = loss_at()
                flat[i] = keep - step
                down = loss_at()
                flat[i] = keep
                fd = (up - down) / (2 * step)
                denom = max(abs(gflat[i]), abs(fd), 1e-8)
                worst = max(worst, abs(gflat[i] - fd) / denom)
    return worst
