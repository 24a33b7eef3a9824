"""Y-shaped conformal autoencoder.

Three dense subnetworks share a latent code: an encoder maps manifold
coordinates to the latent vector, a decoder maps the latent vector back,
and a scalar head reads a single designated latent component.  The
training loss is

    w_recon * MSE(reconstruction) + w_pred * MSE(head)
      + w_orth * sum_{i<j} mean_batch( cos^2(J_i, J_j) )

where J_i is row i of the encoder Jacobian with respect to the raw
(unstandardized) inputs.  Normalized inner products keep the penalty
scale-free; otherwise shrinking one latent coordinate to zero would game
it.

The penalty gradient is analytic.  With per-layer diagonal activation
derivatives D_l = diag(act'(a_l)) the Jacobian factorizes as
J = W_L D_{L-1} W_{L-1} ... D_1 W_1, and differentiating a contraction
<M, J> with respect to the weights needs both the explicit product-rule
terms and the implicit ones through the activations (second derivatives
of the activation enter there).  Everything is batched with einsum; a
finite-difference check lives next to the training code because this is
easy to get subtly wrong.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import NumericError

# cosine denominators are clamped here; never active for generic nets
NORM_FLOOR = 1e-30


@dataclass(frozen=True)
class YShapedSpec:
    n_latent: int = 6
    pred_index: int = 0
    encoder_hidden: Tuple[int, ...] = (32, 32)
    decoder_hidden: Tuple[int, ...] = (32, 32)
    head_hidden: Tuple[int, ...] = (16,)
    encoder_activation: str = "tanh"
    decoder_activation: str = "tanh"
    head_activation: str = "tanh"
    w_recon: float = 1.0
    w_pred: float = 1.0
    w_orth: float = 0.1
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    epochs: int = 500
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("encoder_hidden", "decoder_hidden", "head_hidden"):
            object.__setattr__(self, name,
                               tuple(int(h) for h in getattr(self, name)))
            if any(h < 1 for h in getattr(self, name)):
                raise ValueError(f"{name} widths must be positive")
        if self.n_latent < 2:
            raise ValueError("need at least two latent coordinates")
        if not 0 <= self.pred_index < self.n_latent:
            raise ValueError("pred_index outside the latent range")
        for name in ("encoder_activation", "decoder_activation",
                     "head_activation"):
            if getattr(self, name) not in ("tanh", "linear"):
                raise ValueError(f"unknown activation {getattr(self, name)!r}")
        if min(self.w_recon, self.w_pred, self.w_orth) < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.w_pred == 0:
            raise ValueError("w_pred must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("bad optimizer settings")


@dataclass(eq=False)
class SubNet:
    """Dense stack with a linear final layer."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]
    activation: str


@dataclass(eq=False)
class YShapedModel:
    spec: YShapedSpec
    encoder: SubNet
    decoder: SubNet
    head: SubNet
    x_mean: np.ndarray
    x_sd: np.ndarray
    y_mean: np.ndarray
    y_sd: np.ndarray


def _act_funcs(name):
    """(value, first derivative, second derivative), the derivatives
    written in terms of (pre-activation, activation value)."""
    if name == "tanh":
        return (np.tanh,
                lambda a, z: 1.0 - z * z,
                lambda a, z: -2.0 * z * (1.0 - z * z))
    return ((lambda a: a),
            (lambda a, z: np.ones_like(a)),
            (lambda a, z: np.zeros_like(a)))


def _init_subnet(sizes, activation, rng) -> SubNet:
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return SubNet(weights, biases, activation)


def _net_forward(net: SubNet, X):
    act, _, _ = _act_funcs(net.activation)
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


def _net_backward(net: SubNet, pre, zs, delta_out):
    """Backpropagate d(loss)/d(output); returns weight/bias gradients and
    d(loss)/d(input)."""
    _, dact, _ = _act_funcs(net.activation)
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


def _jacobian_forward(net: SubNet, Xs):
    """Batched encoder Jacobian in standardized input units, plus the
    intermediates the penalty gradient needs.

    Gs[l] is d z_l / d x (batch, width_l, d_in); Vs[l] the same for the
    pre-activation a_{l+1}."""
    _, dact, _ = _act_funcs(net.activation)
    pre, zs = _net_forward(net, Xs)
    n, d = Xs.shape
    G = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    Gs = [G]
    Vs = []
    for l in range(len(net.weights) - 1):
        V = np.einsum('ij,bjk->bik', net.weights[l], Gs[-1])
        Vs.append(V)
        Gs.append(dact(pre[l], zs[l + 1])[:, :, None] * V)
    J = np.einsum('ij,bjk->bik', net.weights[-1], Gs[-1])
    return pre, zs, Gs, Vs, J


def _penalty_value_and_M(J):
    """Mean over the batch of sum_{i<j} cos^2 between Jacobian rows, and
    its gradient with respect to J itself."""
    n_batch = J.shape[0]
    norms = np.maximum(np.linalg.norm(J, axis=2), NORM_FLOOR)
    Jn = J / norms[:, :, None]
    C = Jn @ Jn.transpose(0, 2, 1)
    mask = 1.0 - np.eye(J.shape[1])
    Coff = C * mask
    value = 0.5 * float(np.sum(Coff ** 2)) / n_batch
    H = Coff / (norms[:, :, None] * norms[:, None, :])
    q = np.sum(Coff ** 2, axis=2)
    M = (2.0 / n_batch) * (H @ J - (q / norms ** 2)[:, :, None] * J)
    return value, M


def _penalty_loss_and_grads(net: SubNet, Xs, x_sd):
    """Value and encoder-parameter gradients of the orthogonality
    penalty.  The Jacobian is taken with respect to raw inputs, so the
    standardized-unit Jacobian picks up a 1/sd column scaling."""
    _, dact, ddact = _act_funcs(net.activation)
    pre, zs, Gs, Vs, J_std = _jacobian_forward(net, Xs)
    J_raw = J_std / x_sd
    value, M_raw = _penalty_value_and_M(J_raw)
    M = M_raw / x_sd
    L = len(net.weights)
    gW = [np.zeros_like(W) for W in net.weights]
    gb = [np.zeros_like(b) for b in net.biases]
    # output layer: J = W_L G_{L-1}, no activation above it
    gW[L - 1] = np.einsum('bmd,bnd->mn', M, Gs[L - 1])
    if L == 1:
        return value, gW, gb
    # suffix factors U_l = d J / d G_l contracted from the top
    U = np.broadcast_to(net.weights[-1], (Xs.shape[0],) + net.weights[-1].shape)
    deltaD = [None] * (L - 1)
    for l in range(L - 2, -1, -1):
        sig1 = dact(pre[l], zs[l + 1])
        # explicit product-rule term for W_{l+1}
        A = np.einsum('bmj,bmd,bnd->bjn', U, M, Gs[l])
        gW[l] += np.einsum('bj,bjn->jn', sig1, A)
        # sensitivity of <M, J> to the diagonal D_l entries
        deltaD[l] = np.einsum('bmj,bmd,bjd->bj', U, M, Vs[l])
        if l > 0:
            U = (U * sig1[:, None, :]) @ net.weights[l]
    # implicit terms: activations depend on upstream parameters
    s = None
    for l in range(L - 2, -1, -1):
        sig2 = ddact(pre[l], zs[l + 1])
        term = sig2 * deltaD[l]
        if s is None:
            s = term
        else:
            s = term + (s @ net.weights[l + 1]) * dact(pre[l], zs[l + 1])
        gW[l] += np.einsum('bj,bk->jk', s, zs[l])
        gb[l] += s.sum(axis=0)
    return value, gW, gb


def _standardize(M):
    mean = M.mean(axis=0)
    sd = M.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (M - mean) / sd, mean, sd


def _loss_and_grads(model: YShapedModel, Xs, Ys):
    """Total weighted loss, its unweighted parts, and gradients for all
    three subnetworks, everything in standardized units."""
    spec = model.spec
    p = spec.pred_index
    pre_e, zs_e = _net_forward(model.encoder, Xs)
    nu = zs_e[-1]
    pre_d, zs_d = _net_forward(model.decoder, nu)
    pre_h, zs_h = _net_forward(model.head, nu[:, [p]])
    xhat = zs_d[-1]
    yhat = zs_h[-1]
    recon = float(np.mean((xhat - Xs) ** 2))
    predl = float(np.mean((yhat - Ys) ** 2))
    gW_d, gb_d, delta_nu = _net_backward(
        model.decoder, pre_d, zs_d,
        spec.w_recon * 2.0 * (xhat - Xs) / xhat.size)
    gW_h, gb_h, delta_p = _net_backward(
        model.head, pre_h, zs_h,
        spec.w_pred * 2.0 * (yhat - Ys) / yhat.size)
    delta_nu = delta_nu.copy()
    delta_nu[:, p] += delta_p[:, 0]
    gW_e, gb_e, _ = _net_backward(model.encoder, pre_e, zs_e, delta_nu)
    orth = 0.0
    if spec.w_orth > 0:
        orth, pW, pb = _penalty_loss_and_grads(model.encoder, Xs, model.x_sd)
        for l in range(len(gW_e)):
            gW_e[l] = gW_e[l] + spec.w_orth * pW[l]
            gb_e[l] = gb_e[l] + spec.w_orth * pb[l]
    else:
        orth, _ = _penalty_value_and_M(
            _jacobian_forward(model.encoder, Xs)[4] / model.x_sd)
    total = spec.w_recon * recon + spec.w_pred * predl + spec.w_orth * orth
    parts = {"recon": recon, "pred": predl, "orth": orth}
    grads = {"encoder": (gW_e, gb_e), "decoder": (gW_d, gb_d),
             "head": (gW_h, gb_h)}
    return total, parts, grads


def _make_optimizer(spec: YShapedSpec, nets: Dict[str, SubNet]):
    lr = spec.learning_rate
    if spec.optimizer == "sgd":
        def step(grads):
            for name, net in nets.items():
                gW, gb = grads[name]
                for l in range(len(net.weights)):
                    net.weights[l] -= lr * gW[l]
                    net.biases[l] -= lr * gb[l]
        return step
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state = {name: [(np.zeros_like(W), np.zeros_like(W),
                     np.zeros_like(b), np.zeros_like(b))
                    for W, b in zip(net.weights, net.biases)]
             for name, net in nets.items()}
    t = [0]

    def step(grads):
        t[0] += 1
        c1 = 1.0 - beta1 ** t[0]
        c2 = 1.0 - beta2 ** t[0]
        for name, net in nets.items():
            gW, gb = grads[name]
            for l in range(len(net.weights)):
                mW, vW, mb, vb = state[name][l]
                mW *= beta1
                mW += (1 - beta1) * gW[l]
                vW *= beta2
                vW += (1 - beta2) * gW[l] ** 2
                net.weights[l] -= lr * (mW / c1) / (np.sqrt(vW / c2) + eps)
                mb *= beta1
                mb += (1 - beta1) * gb[l]
                vb *= beta2
                vb += (1 - beta2) * gb[l] ** 2
                net.biases[l] -= lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
    return step


def yae_fit(Phi: np.ndarray, sizes: np.ndarray,
            spec: Optional[YShapedSpec] = None
            ) -> Tuple[YShapedModel, List[dict]]:
    """Train the three subnetworks jointly; returns the model and the
    per-epoch loss history (total plus unweighted parts)."""
    if spec is None:
        spec = YShapedSpec()
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(sizes, dtype=float).ravel()
    if Phi.ndim != 2 or Phi.shape[0] != y.size:
        raise ValueError("Phi and sizes disagree on sample count")
    if Phi.shape[0] < 2:
        raise ValueError("need at least two samples")
    Xs, x_mean, x_sd = _standardize(Phi)
    Ys, y_mean, y_sd = _standardize(y[:, None])
    d = Phi.shape[1]
    rng = np.random.default_rng(spec.seed)
    encoder = _init_subnet([d, *spec.encoder_hidden, spec.n_latent],
                           spec.encoder_activation, rng)
    decoder = _init_subnet([spec.n_latent, *spec.decoder_hidden, d],
                           spec.decoder_activation, rng)
    head = _init_subnet([1, *spec.head_hidden, 1], spec.head_activation, rng)
    model = YShapedModel(spec, encoder, decoder, head,
                         x_mean, x_sd, y_mean, y_sd)
    nets = {"encoder": encoder, "decoder": decoder, "head": head}
    step = _make_optimizer(spec, nets)
    n = Phi.shape[0]
    history: List[dict] = []
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = order[start:start + spec.batch_size]
            loss, _, grads = _loss_and_grads(model, Xs[idx], Ys[idx])
            if not np.isfinite(loss):
                raise NumericError(f"training diverged at epoch {epoch}")
            step(grads)
        total, parts, _ = _loss_and_grads(model, Xs, Ys)
        if not np.isfinite(total):
            raise NumericError(f"training diverged at epoch {epoch}")
        history.append({"epoch": epoch, "total": total, **parts})
    return model, history


def encode(model: YShapedModel, phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    one = phi.ndim == 1
    X = phi[None, :] if one else phi
    if X.shape[1] != model.x_mean.size:
        raise ValueError("input dimension mismatch")
    _, zs = _net_forward(model.encoder, (X - model.x_mean) / model.x_sd)
    nu = zs[-1]
    return nu[0] if one else nu


def decode(model: YShapedModel, nu: np.ndarray) -> np.ndarray:
    nu = np.asarray(nu, dtype=float)
    one = nu.ndim == 1
    N = nu[None, :] if one else nu
    if N.shape[1] != model.spec.n_latent:
        raise ValueError("latent dimension mismatch")
    _, zs = _net_forward(model.decoder, N)
    out = zs[-1] * model.x_sd + model.x_mean
    return out[0] if one else out


def predict_size(model: YShapedModel, phi: np.ndarray) -> np.ndarray:
    nu = encode(model, phi)
    one = nu.ndim == 1
    N = nu[None, :] if one else nu
    _, zs = _net_forward(model.head, N[:, [model.spec.pred_index]])
    out = zs[-1][:, 0] * model.y_sd[0] + model.y_mean[0]
    return float(out[0]) if one else out


def encoder_jacobian(model: YShapedModel, phi: np.ndarray) -> np.ndarray:
    """Jacobian of the latent coordinates with respect to the raw input
    at one point, shape (n_latent, n_inputs)."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1:
        raise ValueError("expected a single input point")
    if phi.size != model.x_mean.size:
        raise ValueError("input dimension mismatch")
    Xs = ((phi - model.x_mean) / model.x_sd)[None, :]
    J_std = _jacobian_forward(model.encoder, Xs)[4]
    return J_std[0] / model.x_sd


def orthogonality_score(model: YShapedModel, Phi: np.ndarray) -> float:
    """Mean absolute cosine between distinct encoder Jacobian rows,
    averaged over samples and pairs; zero-norm rows are skipped."""
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim == 1:
        Phi = Phi[None, :]
    if Phi.shape[0] < 1:
        raise ValueError("need at least one sample")
    Xs = (Phi - model.x_mean) / model.x_sd
    J = _jacobian_forward(model.encoder, Xs)[4] / model.x_sd
    norms = np.linalg.norm(J, axis=2)
    total, count, skipped = 0.0, 0, 0
    m = J.shape[1]
    for b in range(J.shape[0]):
        for i in range(m):
            for j in range(i + 1, m):
                if norms[b, i] == 0 or norms[b, j] == 0:
                    skipped += 1
                    continue
                total += abs(J[b, i] @ J[b, j]) / (norms[b, i] * norms[b, j])
                count += 1
    if skipped:
        warnings.warn(f"skipped {skipped} pairs with zero-norm Jacobian rows")
    if count == 0:
        raise NumericError("no Jacobian row pairs with nonzero norms")
    return total / count


def yae_grad_check(model: YShapedModel, Phi: np.ndarray, sizes: np.ndarray,
                   step: float = 1e-6) -> float:
    """Max relative error between the analytic full-loss gradient
    (orthogonality term included) and central finite differences."""
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(sizes, dtype=float).ravel()
    Xs = (Phi - model.x_mean) / model.x_sd
    Ys = (y[:, None] - model.y_mean) / model.y_sd
    _, _, grads = _loss_and_grads(model, Xs, Ys)

    def loss_at():
        return _loss_and_grads(model, Xs, Ys)[0]

    worst = 0.0
    for name, net in (("encoder", model.encoder), ("decoder", model.decoder),
                      ("head", model.head)):
        gW, gb = grads[name]
        for arrs, gs in ((net.weights, gW), (net.biases, gb)):
            for arr, g in zip(arrs, gs):
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
