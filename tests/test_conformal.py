"""Tests for the Y-shaped autoencoder.

The analytic gradient of the orthogonality penalty runs through second
derivatives of the activations, so the finite-difference comparison over
every parameter is the load-bearing test here.  The disentangling task
is five input coordinates whose target depends on one linear
combination; after training, the head must predict well while the
designated latent's Jacobian row decorrelates from the others.
"""

import json
import os

import numpy as np
import pytest

from spectramap.conformal import (SubNet, YShapedModel, YShapedSpec, decode,
                                  encode, encoder_jacobian,
                                  orthogonality_score, predict_size, yae_fit,
                                  yae_grad_check, _net_forward)
from spectramap.errors import NumericError


def _disentangle_data():
    rng = np.random.default_rng(42)
    Phi = rng.uniform(-1, 1, size=(300, 5))
    t = Phi[:, 0] + 2.0 * Phi[:, 1]
    sizes = 350.0 + 50.0 * np.tanh(0.8 * t)
    return Phi[:200], sizes[:200], Phi[200:], sizes[200:]


def _linear_model(W_list, n_inputs, n_latent):
    """Hand-built model: linear encoder stack, identity standardization,
    trivial decoder/head."""
    spec = YShapedSpec(n_latent=n_latent, encoder_hidden=tuple(
        W.shape[0] for W in W_list[:-1]), decoder_hidden=(),
        head_hidden=(), encoder_activation="linear",
        decoder_activation="linear", head_activation="linear")
    encoder = SubNet([W.copy() for W in W_list],
                     [np.zeros(W.shape[0]) for W in W_list], "linear")
    decoder = SubNet([np.zeros((n_inputs, n_latent))], [np.zeros(n_inputs)],
                     "linear")
    head = SubNet([np.zeros((1, 1))], [np.zeros(1)], "linear")
    return YShapedModel(spec, encoder, decoder, head,
                        np.zeros(n_inputs), np.ones(n_inputs),
                        np.zeros(1), np.ones(1))


@pytest.fixture(scope="module")
def trained():
    Phi_tr, y_tr, Phi_te, y_te = _disentangle_data()
    spec = YShapedSpec(n_latent=3, encoder_hidden=(32,), decoder_hidden=(32,),
                       head_hidden=(16,), w_orth=2.0, learning_rate=1e-2,
                       epochs=600, batch_size=32, seed=0)
    model, history = yae_fit(Phi_tr, y_tr, spec)
    return model, history, Phi_tr, y_tr, Phi_te, y_te


def test_spec_validation():
    with pytest.raises(ValueError):
        YShapedSpec(n_latent=1)
    with pytest.raises(ValueError):
        YShapedSpec(pred_index=6)
    with pytest.raises(ValueError):
        YShapedSpec(w_pred=0.0)
    with pytest.raises(ValueError):
        YShapedSpec(w_orth=-0.1)
    with pytest.raises(ValueError):
        YShapedSpec(encoder_activation="relu")
    with pytest.raises(ValueError):
        YShapedSpec(optimizer="lbfgs")


def test_full_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    Phi = rng.normal(size=(3, 4))
    y = rng.normal(size=3) * 50 + 300
    spec = YShapedSpec(n_latent=3, encoder_hidden=(5, 4), decoder_hidden=(4,),
                       head_hidden=(3,), w_orth=0.5, epochs=1,
                       learning_rate=1e-9, batch_size=3, seed=2)
    model, _ = yae_fit(Phi, y, spec)
    assert yae_grad_check(model, Phi, y) < 1e-4


def test_gradient_check_across_depths():
    rng = np.random.default_rng(1)
    Phi = rng.normal(size=(3, 4))
    y = rng.normal(size=3)
    for hidden in [(), (6,), (5, 4, 3)]:
        spec = YShapedSpec(n_latent=2, encoder_hidden=hidden,
                           decoder_hidden=(3,), head_hidden=(2,),
                           w_orth=1.0, epochs=1, learning_rate=1e-9,
                           batch_size=3, seed=5)
        model, _ = yae_fit(Phi, y, spec)
        assert yae_grad_check(model, Phi, y) < 1e-4


def test_linear_identity_architecture_reconstructs():
    rng = np.random.default_rng(3)
    Phi = rng.normal(size=(80, 3))
    y = Phi @ np.array([1.0, -2.0, 0.5]) + 300
    spec = YShapedSpec(n_latent=3, encoder_hidden=(), decoder_hidden=(),
                       head_hidden=(), encoder_activation="linear",
                       decoder_activation="linear", head_activation="linear",
                       w_orth=0.0, learning_rate=1e-2, epochs=1500,
                       batch_size=80, seed=0)
    model, history = yae_fit(Phi, y, spec)
    assert history[-1]["recon"] < 1e-6


def test_jacobian_of_linear_encoder_is_its_matrix():
    rng = np.random.default_rng(4)
    W = rng.normal(size=(2, 3))
    model = _linear_model([W], 3, 2)
    J = encoder_jacobian(model, rng.normal(size=3))
    assert np.allclose(J, W, atol=1e-14)


def test_jacobian_at_zero_with_tanh_is_weight_product():
    rng = np.random.default_rng(5)
    W1 = rng.normal(size=(4, 3))
    W2 = rng.normal(size=(2, 4))
    model = _linear_model([W1, W2], 3, 2)
    model.encoder.activation = "tanh"
    J = encoder_jacobian(model, np.zeros(3))
    assert np.allclose(J, W2 @ W1, atol=1e-14)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(6)
    Phi = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    spec = YShapedSpec(n_latent=3, encoder_hidden=(5,), decoder_hidden=(4,),
                       head_hidden=(3,), epochs=1, learning_rate=1e-9, seed=1)
    model, _ = yae_fit(Phi, y, spec)
    x0 = Phi[0]
    J = encoder_jacobian(model, x0)
    h = 1e-6
    fd = np.zeros_like(J)
    for k in range(x0.size):
        e = np.zeros_like(x0)
        e[k] = h
        fd[:, k] = (encode(model, x0 + e) - encode(model, x0 - e)) / (2 * h)
    assert np.max(np.abs(J - fd) / np.maximum(np.abs(fd), 1e-8)) < 1e-5


def test_score_zero_for_orthogonal_rows_and_one_for_identical():
    Q = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    model = _linear_model([Q], 3, 2)
    assert orthogonality_score(model, np.zeros((4, 3))) < 1e-12
    R = np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]])
    model = _linear_model([R], 3, 2)
    assert orthogonality_score(model, np.zeros((4, 3))) == pytest.approx(1.0)


def test_score_skips_zero_norm_rows():
    W = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    model = _linear_model([W], 2, 3)
    with pytest.warns(UserWarning):
        score = orthogonality_score(model, np.zeros((2, 2)))
    assert score < 1e-12  # only the (row 0, row 2) pair survives
    all_zero = _linear_model([np.zeros((2, 2))], 2, 2)
    with pytest.warns(UserWarning):
        with pytest.raises(NumericError):
            orthogonality_score(all_zero, np.zeros((1, 2)))


def test_score_invariant_to_latent_rescaling(trained):
    model, _, _, _, Phi_te, _ = trained
    before = orthogonality_score(model, Phi_te[:20])
    model.encoder.weights[-1][1] *= 7.0
    model.encoder.biases[-1][1] *= 7.0
    try:
        after = orthogonality_score(model, Phi_te[:20])
    finally:
        model.encoder.weights[-1][1] /= 7.0
        model.encoder.biases[-1][1] /= 7.0
    assert after == pytest.approx(before, abs=1e-12)


def test_disentangles_synthetic_task(trained):
    model, _, _, _, Phi_te, y_te = trained
    pred = predict_size(model, Phi_te)
    r2 = 1 - np.sum((pred - y_te) ** 2) / np.sum((y_te - y_te.mean()) ** 2)
    assert r2 > 0.9
    assert orthogonality_score(model, Phi_te) < 0.05


def test_loss_history_finite_and_improving(trained):
    _, history, _, _, _, _ = trained
    totals = [h["total"] for h in history]
    assert np.all(np.isfinite(totals))
    assert totals[-1] <= totals[0]
    assert set(history[0]) == {"epoch", "total", "recon", "pred", "orth"}


def test_reconstruction_matches_reported_loss(trained):
    model, history, Phi_tr, _, _, _ = trained
    recon = decode(model, encode(model, Phi_tr))
    mse = np.mean(((recon - Phi_tr) / model.x_sd) ** 2)
    assert mse == pytest.approx(history[-1]["recon"], rel=1e-8)


def test_predict_size_composes_encode_and_head(trained):
    model, _, _, _, Phi_te, _ = trained
    nu = encode(model, Phi_te[:5])
    _, zs = _net_forward(model.head, nu[:, [model.spec.pred_index]])
    manual = zs[-1][:, 0] * model.y_sd[0] + model.y_mean[0]
    assert np.array_equal(predict_size(model, Phi_te[:5]), manual)


def test_prediction_invariant_in_null_directions(trained):
    model, _, _, _, Phi_te, _ = trained
    h = 1e-5
    worst = 0.0
    for x0 in Phi_te[:5]:
        row = encoder_jacobian(model, x0)[model.spec.pred_index]
        unit = row / np.linalg.norm(row)
        ref = (predict_size(model, x0 + h * unit)
               - predict_size(model, x0 - h * unit)) / (2 * h)
        null_basis = np.linalg.svd(row[None, :])[2][1:]
        for u in null_basis:
            dd = (predict_size(model, x0 + h * u)
                  - predict_size(model, x0 - h * u)) / (2 * h)
            worst = max(worst, abs(dd) / max(abs(ref), 1e-12))
    assert worst < 1e-3


def test_training_is_deterministic():
    rng = np.random.default_rng(8)
    Phi = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    spec = YShapedSpec(n_latent=2, encoder_hidden=(6,), decoder_hidden=(6,),
                       head_hidden=(4,), epochs=20, seed=9)
    a = predict_size(yae_fit(Phi, y, spec)[0], Phi)
    b = predict_size(yae_fit(Phi, y, spec)[0], Phi)
    assert np.array_equal(a, b)


def test_sgd_optimizer_runs():
    rng = np.random.default_rng(10)
    Phi = rng.normal(size=(40, 3))
    y = Phi[:, 0] * 10 + 200
    spec = YShapedSpec(n_latent=2, encoder_hidden=(8,), decoder_hidden=(8,),
                       head_hidden=(4,), optimizer="sgd", learning_rate=0.05,
                       epochs=100, batch_size=40, w_orth=0.0, seed=0)
    model, history = yae_fit(Phi, y, spec)
    assert history[-1]["pred"] < history[0]["pred"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    rng = np.random.default_rng(11)
    Phi = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    spec = YShapedSpec(n_latent=2, encoder_hidden=(16,), decoder_hidden=(16,),
                       head_hidden=(8,), optimizer="sgd", learning_rate=1e4,
                       epochs=50, seed=0)
    with pytest.raises(NumericError):
        yae_fit(Phi, y, spec)


def test_dimension_mismatches_raise(trained):
    model, _, _, _, _, _ = trained
    with pytest.raises(ValueError):
        encode(model, np.zeros(4))
    with pytest.raises(ValueError):
        decode(model, np.zeros(4))
    with pytest.raises(ValueError):
        encoder_jacobian(model, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        yae_fit(np.zeros((5, 3)), np.zeros(4), YShapedSpec(n_latent=2))


def test_history_equals_the_values_recorded_before_the_loss_only_pass():
    # tests/data/yae_history.json was written by yae_fit when each
    # epoch's history still came from the full loss-and-gradient pass
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "yae_history.json")) as fh:
        want = json.load(fh)
    rng = np.random.default_rng(7)
    Phi = rng.uniform(-1, 1, size=(40, 4))
    sizes = 300.0 + 40.0 * np.tanh(Phi[:, 0] - 0.5 * Phi[:, 2])
    for name, kw in (("adam_orth", dict(w_orth=0.5)),
                     ("sgd_no_orth", dict(w_orth=0.0, optimizer="sgd"))):
        spec = YShapedSpec(n_latent=2, encoder_hidden=(6,),
                           decoder_hidden=(6,), head_hidden=(4,),
                           learning_rate=1e-2, epochs=6, batch_size=8,
                           seed=3, **kw)
        assert yae_fit(Phi, sizes, spec)[1] == want[name], name
