"""Dense feed-forward networks: the shared core and the MLP regressor.

The core, also used by the Y-shaped autoencoder in `conformal`, is
`SubNet` (a dense stack with a linear final layer), the activation table
with first and second derivatives, Glorot init, forward and backward
passes, squared error, standardization, the in-place SGD step and the
central finite-difference gradient check, all in plain numpy.

The regressor trains one `SubNet` with mini-batch SGD.  Inputs and
targets are standardized internally (constants stored on the model); the
loss is the mean squared error in standardized target space plus
l2 * sum of squared weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .errors import NumericError

# name -> (f, f', f''); the derivatives take (pre-activation, f value)
ACTIVATIONS = {
    "tanh": (np.tanh,
             lambda a, z: 1.0 - z * z,
             lambda a, z: -2.0 * z * (1.0 - z * z)),
    "relu": ((lambda a: np.maximum(a, 0.0)),
             (lambda a, z: (a > 0).astype(float)),
             (lambda a, z: np.zeros_like(a))),
    "linear": ((lambda a: a),
               (lambda a, z: np.ones_like(a)),
               (lambda a, z: np.zeros_like(a))),
}


@dataclass(eq=False)
class SubNet:
    """Dense stack with a linear final layer."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]
    activation: str


def init_subnet(sizes, activation: str, rng) -> SubNet:
    """Glorot-uniform weights, drawn layer by layer, and zero biases."""
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return SubNet(weights, biases, activation)


def net_forward(net: SubNet, X):
    """Pre-activations and activations per layer (zs[0] is X)."""
    act = ACTIVATIONS[net.activation][0]
    pre = []
    zs = [X]
    h = X
    last = len(net.weights) - 1
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        a = h @ W.T + b
        pre.append(a)
        h = a if l == last else act(a)
        zs.append(h)
    return pre, zs


def net_backward(net: SubNet, pre, zs, delta_out):
    """Backpropagate d(loss)/d(output); returns weight/bias gradients and
    d(loss)/d(input)."""
    dact = ACTIVATIONS[net.activation][1]
    L = len(net.weights)
    gW = [None] * L
    gb = [None] * L
    delta = delta_out
    for l in range(L - 1, -1, -1):
        gW[l] = delta.T @ zs[l]
        gb[l] = delta.sum(axis=0)
        delta = delta @ net.weights[l]
        if l > 0:
            delta = delta * dact(pre[l - 1], zs[l])
    return gW, gb, delta


def squared_error(out, target, weight: float = 1.0):
    """Mean squared error, and weight times its gradient in out."""
    diff = out - target
    return float(np.mean(diff ** 2)), weight * 2.0 * diff / diff.size


def standardize(M):
    """Column z-scores of M, with mean and sd; constant columns keep sd 1."""
    mean = M.mean(axis=0)
    sd = M.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (M - mean) / sd, mean, sd


def training_data(X, y):
    """standardize() of the inputs and of the targets, shapes checked."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("inputs and targets disagree on sample count")
    if X.shape[0] < 2:
        raise ValueError("need at least two samples")
    return standardize(X), standardize(Y)


def rescaled(model, X, y):
    """X and y in the standardized units stored on model."""
    Y = np.asarray(y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    return ((np.asarray(X, dtype=float) - model.x_mean) / model.x_sd,
            (Y - model.y_mean) / model.y_sd)


def as_rows(X, width: int, what: str = "input") -> Tuple[np.ndarray, bool]:
    """X as float rows and whether it was one row; refuses other widths."""
    X = np.asarray(X, dtype=float)
    one = X.ndim == 1
    if one:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"{what} dimension mismatch")
    return X, one


def sgd_step(pairs: Iterable[Tuple[np.ndarray, np.ndarray]],
             lr: float) -> None:
    """In-place gradient-descent update of (parameter, gradient) pairs."""
    for p, g in pairs:
        p -= lr * g


def grad_check(loss_at: Callable[[], float],
               pairs: Iterable[Tuple[np.ndarray, np.ndarray]],
               step: float) -> float:
    """Max relative error between (parameter, gradient) pairs and central
    finite differences of loss_at(), perturbing parameters in place."""
    worst = 0.0
    for arr, g in pairs:
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


def _net(model: MlpModel) -> SubNet:
    """A SubNet sharing the model's weight and bias lists."""
    return SubNet(model.weights, model.biases, model.spec.activation)


def _loss_and_grads(net: SubNet, X, Y, l2):
    pre, zs = net_forward(net, X)
    loss, delta = squared_error(zs[-1], Y)
    gW, gb, _ = net_backward(net, pre, zs, delta)
    if l2 > 0:
        loss += l2 * sum(float(np.sum(W * W)) for W in net.weights)
        for l, W in enumerate(net.weights):
            gW[l] = gW[l] + 2.0 * l2 * W
    return loss, gW, gb


def mlp_fit(X: np.ndarray, y: np.ndarray, spec: Optional[MlpSpec] = None) -> MlpModel:
    """Train on (X, y) with seeded mini-batch SGD; deterministic for a
    fixed spec."""
    if spec is None:
        spec = MlpSpec()
    (Xs, x_mean, x_sd), (Ys, y_mean, y_sd) = training_data(X, y)
    rng = np.random.default_rng(spec.seed)
    net = init_subnet([Xs.shape[1], *spec.hidden, Ys.shape[1]],
                      spec.activation, rng)
    n = Xs.shape[0]
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = order[start:start + spec.batch_size]
            loss, gW, gb = _loss_and_grads(net, Xs[idx], Ys[idx], spec.l2)
            if not np.isfinite(loss):
                raise NumericError(f"training diverged at epoch {epoch}")
            sgd_step(zip(net.weights + net.biases, gW + gb),
                     spec.learning_rate)
    return MlpModel(spec, net.weights, net.biases, x_mean, x_sd, y_mean, y_sd)


def mlp_predict(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X, one = as_rows(X, model.x_mean.size)
    _, zs = net_forward(_net(model), (X - model.x_mean) / model.x_sd)
    out = zs[-1] * model.y_sd + model.y_mean
    out = out[:, 0] if out.shape[1] == 1 else out
    return out[0] if one else out


def mlp_loss(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    """Training-space loss (standardized targets, l2 included)."""
    Xs, Ys = rescaled(model, X, y)
    return _loss_and_grads(_net(model), Xs, Ys, model.spec.l2)[0]


def mlp_grad_check(model: MlpModel, X: np.ndarray, y: np.ndarray,
                   step: float = 1e-6) -> float:
    """Max relative error between analytic gradients and central finite
    differences over every weight and bias."""
    Xs, Ys = rescaled(model, X, y)
    net = _net(model)
    _, gW, gb = _loss_and_grads(net, Xs, Ys, model.spec.l2)
    return grad_check(lambda: _loss_and_grads(net, Xs, Ys, model.spec.l2)[0],
                      zip(net.weights + net.biases, gW + gb), step)
