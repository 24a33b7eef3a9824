"""Round-trip tests for model persistence: every model type must load
back to something that predicts identically, and saving twice must
produce identical bytes."""

import hashlib
import json
import os

import numpy as np
import pytest

from spectramap.altdmaps import alt_coordinates, fit_altdmaps
from spectramap.conformal import (YShapedModel, YShapedSpec, decode, encode,
                                  predict_size, yae_fit)
from spectramap.dmaps import (EigenSelection, Embed, KernelParams, fit_dmaps,
                              gh_fit, gh_predict, nystrom_extend)
from spectramap.gbt import GbtSpec, gbt_fit, gbt_predict
from spectramap.ihm import (ComponentModel, HardModel, IhmFeatures, Peak,
                            hard_model_eval, ihm_features)
from spectramap.mlp import MlpModel, MlpSpec, mlp_fit, mlp_predict
from spectramap.pls import PlsModel, pls_fit, pls_predict
from spectramap.pretreat import apply_column_scaler, fit_column_scaler
from spectramap.serialize import load_model, save_model

# a tiny MlpModel, YShapedModel and PlsModel written in format 2 by an
# earlier version, with their predictions on a few inputs at that version
FORMAT2 = os.path.join(os.path.dirname(__file__), "data", "format2")


def _dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode())
            h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 4))
    y = X[:, 0] * 3 + rng.normal(size=40) * 0.1 + 10
    return X, y


def test_dmap_round_trip(tmp_path, data):
    X, _ = data
    model = fit_dmaps(X, n_eig=5)
    save_model(tmp_path / "m", model)
    back = load_model(tmp_path / "m")
    assert np.array_equal(back.eigenvalues, model.eigenvalues)
    assert np.array_equal(back.eigenvectors, model.eigenvectors)
    assert np.array_equal(nystrom_extend(back, X[:3]),
                          nystrom_extend(model, X[:3]))


def test_gh_round_trip(tmp_path, data):
    X, y = data
    model = gh_fit(X, y)
    save_model(tmp_path / "m", model)
    back = load_model(tmp_path / "m")
    assert np.array_equal(gh_predict(back, X), gh_predict(model, X))
    assert back.delta == model.delta
    assert back.target_is_1d == model.target_is_1d


def test_altdmap_and_selection_round_trip(tmp_path, data):
    X, y = data
    model = fit_altdmaps(X, y[:, None], n_eig=5)
    save_model(tmp_path / "m", model)
    back = load_model(tmp_path / "m")
    assert np.array_equal(alt_coordinates(back, [1, 2]),
                          alt_coordinates(model, [1, 2]))
    assert back.n_samples == model.n_samples
    sel = EigenSelection(indices=(1, 3), residuals=np.array([0.0, 0.9, 0.2, 0.8]))
    save_model(tmp_path / "s", sel)
    sel_back = load_model(tmp_path / "s")
    assert sel_back.indices == sel.indices
    assert np.array_equal(sel_back.residuals, sel.residuals)


def test_mlp_round_trip(tmp_path, data):
    X, y = data
    model = mlp_fit(X, y, MlpSpec(hidden=(6,), epochs=20, seed=1))
    save_model(tmp_path / "m", model)
    back = load_model(tmp_path / "m")
    assert np.array_equal(mlp_predict(back, X), mlp_predict(model, X))
    assert back.spec == model.spec


def test_gbt_round_trip(tmp_path, data):
    X, y = data
    model = gbt_fit(X, y, GbtSpec(n_trees=8, max_depth=2))
    save_model(tmp_path / "m", model)
    back = load_model(tmp_path / "m")
    assert np.array_equal(gbt_predict(back, X), gbt_predict(model, X))
    assert back.train_mse == model.train_mse


def test_pls_round_trip(tmp_path, data):
    X, y = data
    model = pls_fit(X, y, 2)
    save_model(tmp_path / "m", model)
    back = load_model(tmp_path / "m")
    assert np.array_equal(pls_predict(back, X), pls_predict(model, X))
    assert back.n_components == model.n_components


def test_yshaped_round_trip(tmp_path, data):
    X, y = data
    spec = YShapedSpec(n_latent=2, encoder_hidden=(5,), decoder_hidden=(5,),
                       head_hidden=(3,), epochs=10, seed=2)
    model, _ = yae_fit(X, y, spec)
    save_model(tmp_path / "m", model)
    back = load_model(tmp_path / "m")
    assert np.array_equal(predict_size(back, X), predict_size(model, X))
    assert back.spec == model.spec


def test_saving_twice_is_byte_identical(tmp_path, data):
    X, y = data
    model = fit_dmaps(X, n_eig=4)
    save_model(tmp_path / "a", model)
    save_model(tmp_path / "b", model)
    assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")


def test_version_and_type_guards(tmp_path, data):
    X, _ = data
    model = fit_dmaps(X, n_eig=4)
    save_model(tmp_path / "m", model)
    doc_path = tmp_path / "m" / "model.json"
    doc = json.loads(doc_path.read_text())
    doc["format_version"] = 99
    doc_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(tmp_path / "m")
    doc["format_version"] = 1
    doc["model_type"] = "mystery"
    doc_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(tmp_path / "m")
    with pytest.raises(TypeError):
        save_model(tmp_path / "x", object())


def test_scaler_round_trip(tmp_path, data):
    X, _ = data
    model, _ = fit_column_scaler(np.column_stack([X, np.ones(len(X))]))
    save_model(tmp_path / "m", model)
    back = load_model(tmp_path / "m")
    assert back.keep.dtype == bool
    assert np.array_equal(back.keep, model.keep)
    F = np.column_stack([X, np.zeros(len(X))])
    assert np.array_equal(apply_column_scaler(back, F),
                          apply_column_scaler(model, F))


def test_embed_round_trip(tmp_path, data):
    X, _ = data
    model = Embed(dmap=fit_dmaps(X, n_eig=5), indices=(1, 3))
    save_model(tmp_path / "m", model)
    back = load_model(tmp_path / "m")
    assert type(back.indices) is tuple and back.indices == (1, 3)
    assert np.array_equal(nystrom_extend(back.dmap, X[:3], back.indices),
                          nystrom_extend(model.dmap, X[:3], model.indices))


def test_ihm_features_round_trip(tmp_path):
    base = HardModel((ComponentModel("gel", (Peak(1000.0, 1.0, 0.5, 20.0),
                                             Peak(1250.0, 0.8, 0.5, 28.0))),),
                     (1.0,), (0.05, 0.0))
    w = np.linspace(900.0, 1400.0, 120)
    model = IhmFeatures(base=base, wavenumbers=w, mode="medium",
                        position_bound=4.0, max_iterations=20)
    save_model(tmp_path / "m", model)
    back = load_model(tmp_path / "m")
    assert back.base == base
    assert type(back.base.components[0].peaks) is tuple
    assert (back.mode, back.position_bound, back.max_iterations) == \
        ("medium", 4.0, 20)
    X = np.stack([1.1 * hard_model_eval(base, w) + 0.01,
                  0.9 * hard_model_eval(base, w + 2.0)])
    assert np.array_equal(ihm_features(back, X)[0], ihm_features(model, X)[0])


def test_gbt_list_round_trip(tmp_path, data):
    X, y = data
    spec = GbtSpec(n_trees=5, max_depth=2)
    models = [gbt_fit(X, y, spec), gbt_fit(X, -y, spec)]
    save_model(tmp_path / "m", models)
    back = load_model(tmp_path / "m")
    assert type(back) is list and len(back) == 2
    for m, b in zip(models, back):
        assert b.spec == m.spec and b.trees == m.trees
        assert type(b.train_mse) is list
        assert np.array_equal(gbt_predict(b, X), gbt_predict(m, X))


def test_type_outside_the_allowlist_is_refused(tmp_path, data):
    X, _ = data
    save_model(tmp_path / "m", EigenSelection((1,), np.zeros(2)))
    doc_path = tmp_path / "m" / "model.json"
    doc = json.loads(doc_path.read_text())
    assert doc["format_version"] == 2
    doc["model"]["__type__"] = "RunContext"
    doc_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(tmp_path / "m")
    with pytest.raises(TypeError):
        save_model(tmp_path / "x", KernelParams())


@pytest.mark.parametrize("name", ["../outside", "sub/residuals", "..\\outside",
                                  ".hidden", ""])
def test_array_names_must_be_plain_file_names(tmp_path, name):
    model_dir = tmp_path / "m"
    save_model(model_dir, EigenSelection((1,), np.zeros(2)))
    np.save(tmp_path / "outside.npy", np.ones(2))
    doc_path = model_dir / "model.json"
    doc = json.loads(doc_path.read_text())
    doc["model"]["residuals"]["__array__"] = name
    doc_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="plain file name"):
        load_model(model_dir)


def test_format2_models_written_earlier_reload_and_predict():
    with open(os.path.join(FORMAT2, "predictions.json")) as fh:
        expected = json.load(fh)
    X = np.array(expected["inputs"])
    mlp = load_model(os.path.join(FORMAT2, "mlp"))
    yae = load_model(os.path.join(FORMAT2, "yshaped"))
    pls = load_model(os.path.join(FORMAT2, "pls"))
    assert isinstance(mlp, MlpModel) and isinstance(yae, YShapedModel)
    assert isinstance(pls, PlsModel)
    nu = encode(yae, X)
    for got, key in ((mlp_predict(mlp, X), "mlp_predict"),
                     (predict_size(yae, X), "predict_size"),
                     (nu, "encode"), (decode(yae, nu), "decode"),
                     (pls_predict(pls, X), "pls_predict")):
        np.testing.assert_allclose(got, expected[key], rtol=0, atol=1e-12,
                                   err_msg=key)
