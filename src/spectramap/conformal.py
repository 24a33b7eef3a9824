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
of the activation enter there).  Everything is batched with einsum;
`yae_grad_check` compares it with finite differences because this is
easy to get subtly wrong.

The subnetworks and everything dense-net generic come from the core in
`mlp`; this module adds the Y-shaped loss, the Jacobian penalty and its
gradient, and Adam.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import NumericError
from .mlp import (ACTIVATIONS, SubNet, as_rows, grad_check, init_subnet,
                  net_backward, net_forward as _net_forward, rescaled,
                  sgd_step, squared_error, training_data)

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
class YShapedModel:
    spec: YShapedSpec
    encoder: SubNet
    decoder: SubNet
    head: SubNet
    x_mean: np.ndarray
    x_sd: np.ndarray
    y_mean: np.ndarray
    y_sd: np.ndarray


def _jacobian_forward(net: SubNet, Xs):
    """Batched encoder Jacobian in standardized input units, plus the
    intermediates the penalty gradient needs.

    Gs[l] is d z_l / d x (batch, width_l, d_in); Vs[l] the same for the
    pre-activation a_{l+1}."""
    dact = ACTIVATIONS[net.activation][1]
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


def _penalty_cosines(J):
    """Jacobian row norms, the off-diagonal cosines between the rows,
    and the penalty value: the mean over the batch of sum_{i<j} cos^2."""
    norms = np.maximum(np.linalg.norm(J, axis=2), NORM_FLOOR)
    Jn = J / norms[:, :, None]
    C = Jn @ Jn.transpose(0, 2, 1)
    mask = 1.0 - np.eye(J.shape[1])
    Coff = C * mask
    value = 0.5 * float(np.sum(Coff ** 2)) / J.shape[0]
    return norms, Coff, value


def _penalty_value_and_M(J):
    """The penalty value and its gradient with respect to J itself."""
    norms, Coff, value = _penalty_cosines(J)
    H = Coff / (norms[:, :, None] * norms[:, None, :])
    q = np.sum(Coff ** 2, axis=2)
    M = (2.0 / J.shape[0]) * (H @ J - (q / norms ** 2)[:, :, None] * J)
    return value, M


def _penalty_loss_and_grads(net: SubNet, Xs, x_sd):
    """Value and encoder-parameter gradients of the orthogonality
    penalty.  The Jacobian is taken with respect to raw inputs, so the
    standardized-unit Jacobian picks up a 1/sd column scaling."""
    _, dact, ddact = ACTIVATIONS[net.activation]
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


def _forward(model: YShapedModel, Xs, Ys):
    """Forward pass of the three subnetworks with the unweighted
    reconstruction and prediction errors and their weighted deltas."""
    spec = model.spec
    pre_e, zs_e = _net_forward(model.encoder, Xs)
    nu = zs_e[-1]
    pre_d, zs_d = _net_forward(model.decoder, nu)
    pre_h, zs_h = _net_forward(model.head, nu[:, [spec.pred_index]])
    recon, delta_x = squared_error(zs_d[-1], Xs, spec.w_recon)
    predl, delta_y = squared_error(zs_h[-1], Ys, spec.w_pred)
    return (pre_e, zs_e), (pre_d, zs_d, delta_x), (pre_h, zs_h, delta_y), \
        recon, predl


def _weighted(spec: YShapedSpec, recon: float, predl: float, orth: float):
    total = spec.w_recon * recon + spec.w_pred * predl + spec.w_orth * orth
    return total, {"recon": recon, "pred": predl, "orth": orth}


def _loss(model: YShapedModel, Xs, Ys):
    """Total weighted loss and its unweighted parts, without gradients:
    the same arithmetic as _loss_and_grads, so the same bits."""
    *_, recon, predl = _forward(model, Xs, Ys)
    J = _jacobian_forward(model.encoder, Xs)[4] / model.x_sd
    return _weighted(model.spec, recon, predl, _penalty_cosines(J)[2])


def _loss_and_grads(model: YShapedModel, Xs, Ys):
    """Total weighted loss, its unweighted parts, and gradients for all
    three subnetworks, everything in standardized units."""
    spec = model.spec
    (pre_e, zs_e), (pre_d, zs_d, delta_x), (pre_h, zs_h, delta_y), \
        recon, predl = _forward(model, Xs, Ys)
    gW_d, gb_d, delta_nu = net_backward(model.decoder, pre_d, zs_d, delta_x)
    gW_h, gb_h, delta_p = net_backward(model.head, pre_h, zs_h, delta_y)
    delta_nu = delta_nu.copy()
    delta_nu[:, spec.pred_index] += delta_p[:, 0]
    gW_e, gb_e, _ = net_backward(model.encoder, pre_e, zs_e, delta_nu)
    if spec.w_orth > 0:
        orth, pW, pb = _penalty_loss_and_grads(model.encoder, Xs, model.x_sd)
        for l in range(len(gW_e)):
            gW_e[l] = gW_e[l] + spec.w_orth * pW[l]
            gb_e[l] = gb_e[l] + spec.w_orth * pb[l]
    else:
        orth = _penalty_cosines(
            _jacobian_forward(model.encoder, Xs)[4] / model.x_sd)[2]
    total, parts = _weighted(spec, recon, predl, orth)
    return total, parts, gW_e + gb_e + gW_d + gb_d + gW_h + gb_h


def _params(model: YShapedModel) -> List[np.ndarray]:
    """Weights and biases in the order of _loss_and_grads' gradients."""
    return [p for net in (model.encoder, model.decoder, model.head)
            for p in net.weights + net.biases]


def _make_optimizer(spec: YShapedSpec, params: List[np.ndarray]):
    lr = spec.learning_rate
    if spec.optimizer == "sgd":
        def step(grads):
            sgd_step(zip(params, grads), lr)
        return step
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    t = [0]

    def step(grads):
        t[0] += 1
        c1 = 1.0 - beta1 ** t[0]
        c2 = 1.0 - beta2 ** t[0]
        for p, g, (m, v) in zip(params, grads, moments):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g ** 2
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return step


def yae_fit(Phi: np.ndarray, sizes: np.ndarray,
            spec: Optional[YShapedSpec] = None
            ) -> Tuple[YShapedModel, List[dict]]:
    """Train the three subnetworks jointly; returns the model and the
    per-epoch loss history (total plus unweighted parts)."""
    if spec is None:
        spec = YShapedSpec()
    (Xs, x_mean, x_sd), (Ys, y_mean, y_sd) = training_data(
        Phi, np.ravel(sizes))
    n, d = Xs.shape
    rng = np.random.default_rng(spec.seed)
    encoder = init_subnet([d, *spec.encoder_hidden, spec.n_latent],
                          spec.encoder_activation, rng)
    decoder = init_subnet([spec.n_latent, *spec.decoder_hidden, d],
                          spec.decoder_activation, rng)
    head = init_subnet([1, *spec.head_hidden, 1], spec.head_activation, rng)
    model = YShapedModel(spec, encoder, decoder, head,
                         x_mean, x_sd, y_mean, y_sd)
    step = _make_optimizer(spec, _params(model))
    history: List[dict] = []
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = order[start:start + spec.batch_size]
            loss, _, grads = _loss_and_grads(model, Xs[idx], Ys[idx])
            if not np.isfinite(loss):
                raise NumericError(f"training diverged at epoch {epoch}")
            step(grads)
        total, parts = _loss(model, Xs, Ys)
        if not np.isfinite(total):
            raise NumericError(f"training diverged at epoch {epoch}")
        history.append({"epoch": epoch, "total": total, **parts})
    return model, history


def encode(model: YShapedModel, phi: np.ndarray) -> np.ndarray:
    X, one = as_rows(phi, model.x_mean.size)
    _, zs = _net_forward(model.encoder, (X - model.x_mean) / model.x_sd)
    nu = zs[-1]
    return nu[0] if one else nu


def decode(model: YShapedModel, nu: np.ndarray) -> np.ndarray:
    N, one = as_rows(nu, model.spec.n_latent, "latent")
    _, zs = _net_forward(model.decoder, N)
    out = zs[-1] * model.x_sd + model.x_mean
    return out[0] if one else out


def predict_size(model: YShapedModel, phi: np.ndarray) -> np.ndarray:
    X, one = as_rows(phi, model.x_mean.size)
    nu = encode(model, X)
    _, zs = _net_forward(model.head, nu[:, [model.spec.pred_index]])
    out = zs[-1][:, 0] * model.y_sd[0] + model.y_mean[0]
    return float(out[0]) if one else out


def encoder_jacobian(model: YShapedModel, phi: np.ndarray) -> np.ndarray:
    """Jacobian of the latent coordinates with respect to the raw input
    at one point, shape (n_latent, n_inputs)."""
    if np.ndim(phi) != 1:
        raise ValueError("expected a single input point")
    X, _ = as_rows(phi, model.x_mean.size)
    Xs = (X - model.x_mean) / model.x_sd
    return _jacobian_forward(model.encoder, Xs)[4][0] / model.x_sd


def orthogonality_score(model: YShapedModel, Phi: np.ndarray) -> float:
    """Mean absolute cosine between distinct encoder Jacobian rows,
    averaged over samples and pairs; zero-norm rows are skipped."""
    Phi, _ = as_rows(Phi, model.x_mean.size)
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
    Xs, Ys = rescaled(model, Phi, np.ravel(sizes))
    grads = _loss_and_grads(model, Xs, Ys)[2]
    return grad_check(lambda: _loss(model, Xs, Ys)[0],
                      zip(_params(model), grads), step)
