import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from spectramap.cli import entry
from spectramap.dataset import SpectraSet, load_spectra, save_spectra
from spectramap.dmaps import nystrom_extend
from spectramap.serialize import load_model


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    cfg = write_json(root / "synth.json",
                     {"kind": "peak_spectra", "n_samples": 60,
                      "noise": 0.01, "seed": 3})
    assert entry(["synth", "--config", cfg, "--out", str(root / "data")]) == 0
    return root


@pytest.fixture(scope="module")
def trained_run(data_dir):
    cfg = write_json(data_dir / "run.json", {
        "data": {"spectra": str(data_dir / "data" / "spectra.csv"),
                 "sizes": str(data_dir / "data" / "sizes.csv")},
        "split": {"test_fraction": 0.25, "seed": 1},
        "dmaps": {"n_eig": 8},
    })
    out = data_dir / "run"
    assert entry(["train", "direct_dmaps_nn", "--config", cfg,
                  "--out", str(out)]) == 0
    return cfg, out


class TestSynth:
    def test_outputs_exist(self, data_dir):
        for name in ("spectra.csv", "sizes.csv", "sidecar.json"):
            assert os.path.isfile(data_dir / "data" / name)

    def test_rerun_reproduces_bytes(self, data_dir, tmp_path):
        cfg = str(data_dir / "synth.json")
        assert entry(["synth", "--config", cfg,
                      "--out", str(tmp_path / "again")]) == 0
        for name in ("spectra.csv", "sizes.csv", "sidecar.json"):
            a = (data_dir / "data" / name).read_bytes()
            b = (tmp_path / "again" / name).read_bytes()
            assert a == b

    def test_seed_flag_overrides_config(self, data_dir, tmp_path):
        cfg = str(data_dir / "synth.json")
        assert entry(["synth", "--config", cfg, "--seed", "9",
                      "--out", str(tmp_path / "other")]) == 0
        a = (data_dir / "data" / "spectra.csv").read_bytes()
        b = (tmp_path / "other" / "spectra.csv").read_bytes()
        assert a != b

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json",
                         {"kind": "peak_spectra", "n": 50})
        assert entry(["synth", "--config", cfg,
                      "--out", str(tmp_path / "x")]) == 2


class TestTrainPredictEvaluate:
    def test_train_writes_report(self, trained_run):
        _, out = trained_run
        for name in ("report.json", "metrics.csv", "parity.csv"):
            assert os.path.isfile(out / name)
        assert os.path.isfile(out / "models" / "manifest.json")

    def test_predict_then_evaluate(self, data_dir, trained_run, tmp_path):
        _, out = trained_run
        pcfg = write_json(tmp_path / "p.json", {
            "models": str(out / "models"),
            "spectra": str(data_dir / "data" / "spectra.csv")})
        preds = tmp_path / "preds.csv"
        assert entry(["predict", "--config", pcfg, "--out", str(preds)]) == 0
        with open(preds) as fh:
            assert fh.readline().strip() == "sample_id,diameter_nm"

        ecfg = write_json(tmp_path / "e.json", {
            "predictions": str(preds),
            "sizes": str(data_dir / "data" / "sizes.csv")})
        metrics = tmp_path / "metrics.json"
        assert entry(["evaluate", "--config", ecfg,
                      "--out", str(metrics)]) == 0
        doc = json.loads(metrics.read_text())
        assert doc["n_samples"] == 60
        assert doc["r2"] > 0.9

    def test_report_reemission_is_byte_identical(self, trained_run, tmp_path):
        _, out = trained_run
        rcfg = write_json(tmp_path / "r.json",
                          {"report": str(out / "report.json")})
        again = tmp_path / "again"
        assert entry(["report", "--config", rcfg, "--out", str(again)]) == 0
        for name in ("report.json", "metrics.csv", "parity.csv"):
            assert (out / name).read_bytes() == (again / name).read_bytes()

    def test_workflow_name_mismatch(self, trained_run, tmp_path):
        cfg_path, _ = trained_run
        doc = json.loads(open(cfg_path).read())
        doc["workflow"] = "yshaped"
        bad = write_json(tmp_path / "bad.json", doc)
        assert entry(["train", "direct_dmaps_nn", "--config", bad,
                      "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exit_code(self, data_dir, tmp_path):
        cfg = write_json(tmp_path / "diverge.json", {
            "data": {"spectra": str(data_dir / "data" / "spectra.csv"),
                     "sizes": str(data_dir / "data" / "sizes.csv")},
            "dmaps": {"n_eig": 8},
            "regressor": {"learning_rate": 1e6, "epochs": 50},
        })
        assert entry(["train", "direct_dmaps_nn", "--config", cfg,
                      "--out", str(tmp_path / "x")]) == 3


def test_predict_scores_a_batch_with_a_far_off_row(data_dir, trained_run,
                                                   tmp_path):
    _, out = trained_run
    ds = load_spectra(data_dir / "data" / "spectra.csv")
    X = ds.intensities.copy()
    X[7] *= 1e3
    save_spectra(SpectraSet(ds.grid, X, ds.sample_ids), tmp_path / "far.csv")
    preds = {}
    for name, spectra in (("clean", data_dir / "data" / "spectra.csv"),
                          ("far", tmp_path / "far.csv")):
        pcfg = write_json(tmp_path / f"{name}.json", {
            "models": str(out / "models"), "spectra": str(spectra)})
        path = tmp_path / f"{name}.csv"
        assert entry(["predict", "--config", pcfg, "--out", str(path)]) == 0
        preds[name] = path.read_text().splitlines()
    assert preds["far"][:8] + preds["far"][9:] == \
        preds["clean"][:8] + preds["clean"][9:]
    assert preds["far"][8] != preds["clean"][8]
    assert np.isfinite(float(preds["far"][8].split(",")[1]))


def test_a_short_sizes_row_is_a_data_error(data_dir, tmp_path, capsys):
    sizes = data_dir / "data" / "sizes.csv"
    lines = sizes.read_text().splitlines()
    short = tmp_path / "short.csv"
    # line 4 keeps its sample id and loses its diameter
    lines[3] = lines[3].split(",")[0]
    short.write_text("\n".join(lines) + "\n")
    ecfg = write_json(tmp_path / "e.json", {
        "predictions": str(sizes), "sizes": str(short)})
    capsys.readouterr()
    assert entry(["evaluate", "--config", ecfg,
                  "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert str(short) in err and "line 4" in err


@pytest.mark.parametrize("section, value", [
    ("dmaps", 5), ("regressor", 3), ("pretreatment", "snv")])
def test_a_config_section_must_be_an_object(data_dir, tmp_path, capsys,
                                            section, value):
    cfg = write_json(tmp_path / "run.json", {
        "data": {"spectra": str(data_dir / "data" / "spectra.csv"),
                 "sizes": str(data_dir / "data" / "sizes.csv")},
        section: value})
    capsys.readouterr()
    assert entry(["train", "direct_dmaps_nn", "--config", cfg,
                  "--out", str(tmp_path / "x")]) == 2
    assert f"{section} must be a JSON object" in capsys.readouterr().err


class TestPreprocessAndModels:
    def test_preprocess(self, data_dir, tmp_path):
        cfg = write_json(tmp_path / "pre.json", {
            "spectra": str(data_dir / "data" / "spectra.csv"),
            "sizes": str(data_dir / "data" / "sizes.csv"),
            "pretreatment": {"region": "fingerprint",
                             "baseline": "rubber_band",
                             "normalization": "snv"}})
        out = tmp_path / "treated"
        assert entry(["preprocess", "--config", cfg, "--out", str(out)]) == 0
        assert os.path.isfile(out / "spectra.csv")
        assert os.path.isfile(out / "sizes.csv")

    def test_dmap_fit_and_extend(self, data_dir, tmp_path):
        fit_cfg = write_json(tmp_path / "fit.json", {
            "spectra": str(data_dir / "data" / "spectra.csv"),
            "dmaps": {"n_eig": 6}})
        model_dir = tmp_path / "dmap"
        assert entry(["dmap", "fit", "--config", fit_cfg,
                      "--out", str(model_dir)]) == 0

        ext_cfg = write_json(tmp_path / "ext.json", {
            "model": str(model_dir),
            "spectra": str(data_dir / "data" / "spectra.csv"),
            "indices": [1, 2]})
        coords = tmp_path / "coords.csv"
        assert entry(["dmap", "extend", "--config", ext_cfg,
                      "--out", str(coords)]) == 0

        model = load_model(model_dir)
        expected = nystrom_extend(model, model.points, (1, 2))
        got = np.loadtxt(coords, delimiter=",", skiprows=1,
                         usecols=(1, 2))
        assert np.allclose(got, expected, atol=1e-12, rtol=0)
        # training points come back to their own embedding
        assert np.allclose(got, model.eigenvectors[:, 1:3], atol=1e-8)

    def test_dmap_extend_needs_a_diffusion_map(self, data_dir, trained_run,
                                               tmp_path):
        # a workflow's embedding stage extends with all of its eigenpairs;
        # any other model is a config error
        _, out = trained_run
        spectra = data_dir / "data" / "spectra.csv"
        coords = tmp_path / "coords.csv"
        for stage, code in (("dmap", 0), ("size_regressor", 2)):
            cfg = write_json(tmp_path / f"{stage}.json", {
                "model": str(out / "models" / stage),
                "spectra": str(spectra)})
            assert entry(["dmap", "extend", "--config", cfg,
                          "--out", str(coords)]) == code
            if code == 0:
                dmap = load_model(out / "models" / stage).dmap
                got = np.loadtxt(coords, delimiter=",", skiprows=1,
                                 usecols=range(1, dmap.n_eig + 1))
                X = load_spectra(spectra).intensities
                assert np.array_equal(got, nystrom_extend(dmap, X))

    def test_alt_fit(self, data_dir, tmp_path):
        cfg = write_json(tmp_path / "alt.json", {
            "sensor1": str(data_dir / "data" / "spectra.csv"),
            "sensor2": str(data_dir / "data" / "spectra.csv"),
            "altdmaps": {"n_eig": 5}})
        out = tmp_path / "alt_model"
        assert entry(["alt", "fit", "--config", cfg, "--out", str(out)]) == 0
        model = load_model(out)
        assert model.eigenvalues.shape == (5,)


class TestErrorSurface:
    def test_missing_config_file(self, tmp_path):
        assert entry(["synth", "--config", str(tmp_path / "nope.json"),
                      "--out", str(tmp_path / "x")]) == 2

    def test_config_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        assert entry(["synth", "--config", str(path),
                      "--out", str(tmp_path / "x")]) == 2

    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            entry([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            entry(["transmogrify"])
        assert exc.value.code == 2


class TestConsoleInvocation:
    def test_module_invocation(self, tmp_path):
        cfg = write_json(tmp_path / "s.json",
                         {"kind": "arc_manifold", "n_samples": 20})
        proc = subprocess.run(
            [sys.executable, "-m", "spectramap.cli", "synth",
             "--config", cfg, "--out", str(tmp_path / "d")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "20 spectra" in proc.stdout

    def test_installed_script(self, tmp_path):
        exe = shutil.which("spectramap")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "synth" in proc.stdout
