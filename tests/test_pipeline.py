"""One prediction path: the report's rows, the persisted pipeline and
`spectramap predict` agree exactly, and spectra on another wavenumber
grid are refused."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectramap.cli import entry
from spectramap.dataset import SpectraSet, WavenumberGrid, save_spectra
from spectramap.errors import ConfigError
from spectramap.ihm import ComponentModel, HardModel, Peak, save_hard_model
from spectramap.synth import SynthSpec, synth_generate
from spectramap.workflows import load_pipeline, pipeline_predict, run_workflow

SYNTH = {"kind": "peak_spectra", "n_samples": 60, "noise": 0.01, "seed": 5}

CONFIGS = {
    "direct_dmaps_nn": {"dmaps": {"n_eig": 8}},
    "direct_dmaps_gbt": {"dmaps": {"n_eig": 8}},
    "altdmaps": {"dmaps": {"n_eig": 8},
                 "altdmaps": {"n_eig": 6, "n_alt_coords": 3}},
    # one coordinate regressed by a one-element list of GBT models
    "altdmaps_gbt_one_coord": {
        "workflow": "altdmaps", "dmaps": {"n_eig": 8},
        "altdmaps": {"n_eig": 6, "n_alt_coords": 1, "alt_regressor": "gbt"}},
    "yshaped": {"dmaps": {"n_eig": 8, "coords": [1, 2, 3]},
                "yshaped": {"n_latent": 3, "epochs": 60, "w_orth": 2.0,
                            "learning_rate": 0.01}},
    "pls_direct": {"pls": {"k_max": 6}},
    "ihm_pls": {"ihm": {"mode": "medium"}, "pls": {"k_max": 4}},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def train(case, tmp_path):
    config = dict({"workflow": case}, **CONFIGS[case],
                  data={"synth": SYNTH}, out_dir=str(tmp_path / "run"))
    if case == "ihm_pls":
        hm_path = tmp_path / "hard.json"
        save_hard_model(hm_path, HardModel(
            (ComponentModel("gel", (Peak(1000.0, 1.0, 0.5, 20.0),
                                    Peak(1250.0, 0.8, 0.5, 28.0),
                                    Peak(1600.0, 0.6, 0.5, 16.0))),),
            (1.0,), (0.05, 0.0)))
        config["ihm"] = dict(config["ihm"], model_json=str(hm_path))
    return run_workflow(config), tmp_path / "run" / "models"


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_reloaded_pipeline_reproduces_every_parity_row(case, tmp_path):
    # Each split is predicted as the batch the report scored: a BLAS
    # matrix product can round a row differently when the rows around it
    # change, so a batch of both splits may differ in the last bits.
    report, models = train(case, tmp_path)
    pipe = load_pipeline(models)
    ds, _ = synth_generate(SynthSpec(**SYNTH))
    order = {sid: i for i, sid in enumerate(ds.sample_ids)}
    for split in ("train", "test"):
        rows = [r for r in report.parity if r.split == split]
        batch = ds.subset([order[r.sample_id] for r in rows])
        preds = pipeline_predict(pipe, batch).tolist()
        assert preds == [r.predicted_nm for r in rows], split


@pytest.fixture(scope="module")
def pls_models(tmp_path_factory):
    _, models = train("pls_direct", tmp_path_factory.mktemp("pls"))
    ds, _ = synth_generate(SynthSpec(**SYNTH))
    return load_pipeline(models), ds


def test_cli_predict_refuses_a_shifted_axis(tmp_path):
    ds, _ = synth_generate(SynthSpec(**SYNTH))
    save_spectra(ds, tmp_path / "x.csv", tmp_path / "y.csv")
    cfg = write_json(tmp_path / "run.json", {
        "data": {"spectra": str(tmp_path / "x.csv"),
                 "sizes": str(tmp_path / "y.csv")},
        "pls": {"k_max": 6}})
    run = tmp_path / "run"
    assert entry(["train", "pls_direct", "--config", cfg,
                  "--out", str(run)]) == 0
    shifted = SpectraSet(WavenumberGrid(ds.grid.values + 500.0),
                         ds.intensities, ds.sample_ids)
    save_spectra(shifted, tmp_path / "shifted.csv")
    for spectra, code in (("x.csv", 0), ("shifted.csv", 2)):
        pcfg = write_json(tmp_path / "p.json", {
            "models": str(run / "models"),
            "spectra": str(tmp_path / spectra)})
        assert entry(["predict", "--config", pcfg,
                      "--out", str(tmp_path / "preds.csv")]) == code


def test_cli_predict_refuses_stage_names_that_leave_the_models_dir(tmp_path):
    # the copy's stages may not reach the original run's models
    _, models = train("pls_direct", tmp_path)
    copy = tmp_path / "copy"
    shutil.copytree(models, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    first = manifest["stages"][0]
    ds, _ = synth_generate(SynthSpec(**SYNTH))
    save_spectra(ds, tmp_path / "x.csv")
    pcfg = write_json(tmp_path / "p.json", {
        "models": str(copy), "spectra": str(tmp_path / "x.csv")})
    for name, code in ((first, 0), (f"../run/models/{first}", 2),
                       (str(models / first), 2)):
        manifest["stages"][0] = name
        (copy / "manifest.json").write_text(json.dumps(manifest))
        assert entry(["predict", "--config", pcfg,
                      "--out", str(tmp_path / "preds.csv")]) == code, name


def test_manifest_without_grid_is_refused(pls_models, tmp_path):
    pipe, _ = pls_models
    doc = dict(pipe.manifest)
    del doc["grid"]
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_pipeline(tmp_path)


def candidate_grid(w, X, draw):
    """w itself, or w shifted, with one point moved, or resized; with
    intensities of matching width."""
    kind = draw(st.sampled_from(["same", "shift", "point", "resize"]))
    if kind == "same":
        return w.copy(), X
    if kind == "shift":
        delta = draw(st.floats(-1000.0, 1000.0).filter(
            lambda d: not np.array_equal(w + d, w)))
        return w + delta, X
    i = draw(st.integers(0, w.size - 1))
    if kind == "point":
        steps = draw(st.integers(1, 3))
        toward = draw(st.sampled_from([-np.inf, np.inf]))
        new = w.copy()
        for _ in range(steps):
            new[i] = np.nextafter(new[i], toward)
        return new, X
    if draw(st.booleans()):
        return np.delete(w, i), np.delete(X, i, axis=1)
    return (np.append(w, w[-1] + 2.0),
            np.column_stack([X, X[:, -1]]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_only_the_training_grid_predicts(pls_models, data):
    pipe, ds = pls_models
    w, X = candidate_grid(ds.grid.values, ds.intensities, data.draw)
    spectra = SpectraSet(WavenumberGrid(w), X, ds.sample_ids)
    if np.array_equal(w, ds.grid.values):
        assert pipeline_predict(pipe, spectra).shape == (ds.n_samples,)
    else:
        with pytest.raises(ConfigError):
            pipeline_predict(pipe, spectra)


def test_cli_predict_refuses_a_stage_without_model_json(tmp_path, capsys):
    # a format-1 ihm_pls run kept its peak model outside the stage
    # directory, so the stage has no model.json to read a version from
    _, models = train("ihm_pls", tmp_path)
    (models / "hard_model" / "model.json").unlink()
    ds, _ = synth_generate(SynthSpec(**SYNTH))
    save_spectra(ds, tmp_path / "x.csv")
    pcfg = write_json(tmp_path / "p.json", {
        "models": str(models), "spectra": str(tmp_path / "x.csv")})
    capsys.readouterr()
    assert entry(["predict", "--config", pcfg,
                  "--out", str(tmp_path / "preds.csv")]) == 2
    assert "format 2" in capsys.readouterr().err
