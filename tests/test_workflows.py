import hashlib
import json
import os

import numpy as np
import pytest

from spectramap.dataset import SpectraSet, save_spectra
from spectramap.errors import ConfigError
from spectramap.ihm import ComponentModel, HardModel, Peak, save_hard_model
from spectramap.metrics import compute_metrics
from spectramap.report import config_hash, emit_report, load_parity, load_report
from spectramap.synth import SynthSpec, synth_generate
from spectramap.workflows import (WORKFLOW_NAMES, load_pipeline,
                                  pipeline_predict, run_workflow,
                                  two_cluster_labels)


def tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def peak_config(**overrides):
    config = {
        "workflow": "direct_dmaps_nn",
        "seed": 0,
        "data": {"synth": {"kind": "peak_spectra", "n_samples": 80,
                           "noise": 0.005, "seed": 0}},
        "split": {"test_fraction": 0.25, "seed": 0},
        "dmaps": {"n_eig": 8},
    }
    config.update(overrides)
    return config


@pytest.fixture(scope="module")
def direct_nn_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("direct_nn")
    config = peak_config(out_dir=str(out))
    report = run_workflow(config)
    emit_report(report, out)
    return config, report, out


class TestConfigValidation:
    def test_unknown_workflow(self):
        with pytest.raises(ConfigError):
            run_workflow(peak_config(workflow="pca_direct"))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            run_workflow(peak_config(optimizer="adam"))

    def test_unknown_dmaps_key(self):
        with pytest.raises(ConfigError):
            run_workflow(peak_config(dmaps={"n_eig": 8, "bandwidth": 1.0}))

    def test_bad_test_fraction(self):
        with pytest.raises(ConfigError):
            run_workflow(peak_config(split={"test_fraction": 1.5}))

    def test_missing_data_section(self):
        config = peak_config()
        del config["data"]
        with pytest.raises(ConfigError):
            run_workflow(config)

    def test_sizes_required(self, tmp_path):
        ds, _ = synth_generate(SynthSpec(kind="peak_spectra", n_samples=20))
        path = tmp_path / "spectra.csv"
        save_spectra(ds, path)  # no sizes file
        config = peak_config(data={"spectra": str(path)})
        with pytest.raises(ConfigError):
            run_workflow(config)

    def test_bad_coords_value(self):
        with pytest.raises(ConfigError):
            run_workflow(peak_config(dmaps={"n_eig": 8, "coords": "best"}))

    def test_bad_alt_regressor(self):
        config = peak_config(workflow="altdmaps",
                             altdmaps={"alt_regressor": "svm"})
        with pytest.raises(ConfigError):
            run_workflow(config)

    def test_ihm_requires_model_path(self):
        with pytest.raises(ConfigError):
            run_workflow(peak_config(workflow="ihm_pls"))

    def test_pretreatment_keys_checked(self):
        config = peak_config(pretreatment={"scatter": "msc"})
        with pytest.raises(ConfigError):
            run_workflow(config)


class TestClusterDiagnostic:
    def test_two_well_separated_groups(self):
        labels = two_cluster_labels([1.0, 1.1, 5.0, 5.2])
        assert labels.tolist() == [0, 0, 1, 1]

    def test_order_independent_assignment(self):
        labels = two_cluster_labels([5.2, 1.0, 5.0, 1.1])
        assert labels.tolist() == [1, 0, 1, 0]

    def test_constant_values_single_cluster(self):
        assert two_cluster_labels([2.0, 2.0, 2.0]).tolist() == [0, 0, 0]


class TestDirectWorkflow:
    def test_predicts_held_out_sizes(self, direct_nn_run):
        _, report, _ = direct_nn_run
        assert report.test_metrics.r2 > 0.9
        assert report.train_metrics.r2 > 0.9

    def test_report_structure(self, direct_nn_run):
        config, report, _ = direct_nn_run
        assert report.workflow == "direct_dmaps_nn"
        assert report.config_hash == config_hash(config)
        assert len(report.parity) == 80
        assert len(report.split_ids("test")) == 20
        assert report.latent_count == len(
            report.diagnostics["selected_coordinates"])

    def test_nystrom_self_consistency_diagnostic(self, direct_nn_run):
        _, report, _ = direct_nn_run
        assert report.diagnostics["nystrom_train_mse"] < 1e-12

    def test_intensity_clusters_cover_every_sample(self, direct_nn_run):
        _, report, _ = direct_nn_run
        clusters = report.diagnostics["intensity_clusters"]
        ids = {r.sample_id for r in report.parity}
        assert set(clusters) == ids
        assert set(clusters.values()) <= {0, 1}

    def test_gbt_variant(self):
        report = run_workflow(peak_config(
            workflow="direct_dmaps_gbt",
            regressor={"n_trees": 150, "max_depth": 3}))
        assert report.test_metrics.r2 > 0.9

    def test_explicit_coordinate_list(self):
        report = run_workflow(peak_config(dmaps={"n_eig": 8,
                                                 "coords": [1, 2]}))
        assert report.latent_count == 2
        assert report.diagnostics["selected_coordinates"] == [1, 2]


class TestDeterminism:
    def test_rerun_is_byte_identical(self, direct_nn_run, tmp_path):
        config, _, out = direct_nn_run
        again = dict(config)
        again["out_dir"] = str(tmp_path / "again")
        report = run_workflow(again)
        emit_report(report, again["out_dir"])
        assert tree_digest(out) == tree_digest(again["out_dir"])

    def test_file_data_matches_inline_synth(self, direct_nn_run, tmp_path):
        config, report, _ = direct_nn_run
        spec_cfg = dict(config["data"]["synth"])
        ds, _ = synth_generate(SynthSpec(**spec_cfg))
        save_spectra(ds, tmp_path / "x.csv", tmp_path / "y.csv")
        from_files = dict(config)
        from_files.pop("out_dir")
        from_files["data"] = {"spectra": str(tmp_path / "x.csv"),
                              "sizes": str(tmp_path / "y.csv")}
        report2 = run_workflow(from_files)
        assert report2.parity == report.parity


# short heads: only the set of saved stages is checked
_SMALL_RUNS = {
    "direct_dmaps_nn": {"regressor": {"epochs": 20}},
    "direct_dmaps_gbt": {"regressor": {"n_trees": 10}},
    "altdmaps": {"altdmaps": {"n_eig": 6, "n_alt_coords": 2,
                              "size_regressor_config": {"epochs": 20}}},
    "yshaped": {"dmaps": {"n_eig": 8, "coords": [1, 2, 3]},
                "yshaped": {"n_latent": 3, "epochs": 20}},
    "pls_direct": {"pls": {"k_max": 4}},
    "ihm_pls": {"ihm": {"max_iterations": 20}, "pls": {"k_max": 4}},
}


@pytest.mark.parametrize("workflow", WORKFLOW_NAMES)
def test_models_dir_holds_exactly_the_prediction_stages(workflow, tmp_path):
    config = peak_config(workflow=workflow, out_dir=str(tmp_path),
                         **_SMALL_RUNS[workflow])
    if workflow == "ihm_pls":
        hard = tmp_path / "peaks.json"
        save_hard_model(hard, HardModel(
            (ComponentModel("gel", (Peak(1000.0, 1.0, 0.5, 20.0),
                                    Peak(1250.0, 0.8, 0.5, 28.0))),),
            (1.0,), (0.05, 0.0)))
        config["ihm"] = dict(config["ihm"], model_json=str(hard))
    run_workflow(config)
    models = tmp_path / "models"
    with open(models / "manifest.json", encoding="utf-8") as fh:
        stages = json.load(fh)["stages"]
    assert sorted(os.listdir(models)) == sorted(["manifest.json"] + stages)


class TestTestSetIsolation:
    def test_noise_replaced_test_rows_leave_train_metrics_alone(self, tmp_path):
        spec = SynthSpec(kind="peak_spectra", n_samples=60, noise=0.005, seed=2)
        ds, _ = synth_generate(spec)
        save_spectra(ds, tmp_path / "x.csv", tmp_path / "y.csv")
        config = {
            "workflow": "direct_dmaps_nn",
            "data": {"spectra": str(tmp_path / "x.csv"),
                     "sizes": str(tmp_path / "y.csv")},
            "split": {"test_fraction": 0.25, "seed": 5},
            "dmaps": {"n_eig": 8},
        }
        report = run_workflow(config)

        test_ids = set(report.split_ids("test"))
        rng = np.random.default_rng(99)
        lo, hi = ds.intensities.min(), ds.intensities.max()
        X = ds.intensities.copy()
        for i, sid in enumerate(ds.sample_ids):
            if sid in test_ids:
                X[i] = rng.uniform(lo, hi, size=X.shape[1])
        noisy = SpectraSet(ds.grid, X, ds.sample_ids, ds.sizes)
        save_spectra(noisy, tmp_path / "x2.csv", tmp_path / "y2.csv")
        config2 = dict(config)
        config2["data"] = {"spectra": str(tmp_path / "x2.csv"),
                           "sizes": str(tmp_path / "y2.csv")}
        report2 = run_workflow(config2)

        assert report2.split_ids("train") == report.split_ids("train")
        assert abs(report2.train_metrics.r2 - report.train_metrics.r2) < 1e-12
        assert abs(report2.train_metrics.rmse
                   - report.train_metrics.rmse) < 1e-12
        train1 = [r for r in report.parity if r.split == "train"]
        train2 = [r for r in report2.parity if r.split == "train"]
        assert train1 == train2


class TestAltWorkflow:
    @pytest.mark.parametrize("alt_kind,size_kind", [("gh", "nn"),
                                                    ("gbt", "gbt")])
    def test_online_pairings(self, alt_kind, size_kind):
        config = peak_config(
            workflow="altdmaps",
            altdmaps={"n_eig": 8, "n_alt_coords": 3,
                      "alt_regressor": alt_kind,
                      "size_regressor": size_kind,
                      "alt_regressor_config":
                          {"n_trees": 80} if alt_kind == "gbt" else {},
                      "size_regressor_config":
                          {"n_trees": 80} if size_kind == "gbt" else
                          {"epochs": 300}})
        report = run_workflow(config)
        assert report.workflow == "altdmaps"
        assert report.latent_count == 3
        diag = report.diagnostics
        assert diag["altdmap_prediction_mse"] >= 0.0
        assert np.isfinite(diag["altdmap_prediction_mse"])
        # the actual common coordinates can only predict better than
        # their own regression-through-the-embedding estimates
        assert (diag["size_r2_actual_alt_train"]
                >= diag["size_r2_predicted_alt_train"] - 1e-9)
        assert report.test_metrics.r2 > 0.5

    def test_report_carries_llr_residuals_and_harmonic_count(self, tmp_path):
        config = peak_config(workflow="altdmaps",
                             altdmaps={"n_eig": 6, "n_alt_coords": 3},
                             out_dir=str(tmp_path / "run"))
        texts = []
        for tag in ("a", "b"):
            emit_report(run_workflow(config), tmp_path / tag)
            texts.append((tmp_path / tag / "report.json").read_bytes())
        assert texts[0] == texts[1]
        diag = json.loads(texts[0])["diagnostics"]
        # LLR ranks the 7 nontrivial columns of the n_eig 8 embedding
        assert len(diag["llr_residuals"]) == 7
        assert diag["llr_residuals"][0] == 1.0
        pipe = load_pipeline(str(tmp_path / "run" / "models"))
        gh = pipe.stages[pipe.manifest["stages"].index("alt_regressor")]
        assert diag["gh_harmonics"] == gh.dmap.n_eig
        gbt = dict(config, altdmaps={"n_eig": 6, "alt_regressor": "gbt"})
        del gbt["out_dir"]
        assert "gh_harmonics" not in run_workflow(gbt).diagnostics


@pytest.fixture(scope="module")
def yshaped_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("yshaped")
    config = peak_config(
        workflow="yshaped",
        dmaps={"n_eig": 8, "coords": [1, 2, 3]},
        yshaped={"n_latent": 3, "epochs": 300, "w_orth": 2.0,
                 "learning_rate": 0.01},
        out_dir=str(out))
    report = run_workflow(config)
    emit_report(report, out)
    return config, report, out


class TestYShapedWorkflow:
    def test_quality_and_disentangling(self, yshaped_run):
        _, report, _ = yshaped_run
        assert report.test_metrics.r2 > 0.9
        assert report.diagnostics["orthogonality"] < 0.05
        assert report.diagnostics["reconstruction_l2"] < 0.5

    def test_one_latent_carries_the_size(self, yshaped_run):
        _, report, _ = yshaped_run
        assert report.latent_count == 1

    def test_loss_history_emitted(self, yshaped_run):
        _, report, out = yshaped_run
        assert len(report.loss_history) == 300
        assert set(report.loss_history[0]) == {"epoch", "total", "recon",
                                               "pred", "orth"}
        totals = [row["total"] for row in report.loss_history]
        assert np.all(np.isfinite(totals))
        assert totals[-1] <= totals[0]
        assert os.path.isfile(os.path.join(out, "loss_history.csv"))

    def test_pipeline_reload_matches_report(self, yshaped_run):
        config, report, out = yshaped_run
        pipe = load_pipeline(os.path.join(out, "models"))
        spec_cfg = dict(config["data"]["synth"])
        ds, _ = synth_generate(SynthSpec(**spec_cfg))
        order = {sid: i for i, sid in enumerate(ds.sample_ids)}
        test_rows = [r for r in report.parity if r.split == "test"]
        subset = ds.subset([order[r.sample_id] for r in test_rows])
        preds = pipeline_predict(pipe, subset)
        assert np.allclose(preds, [r.predicted_nm for r in test_rows],
                           atol=1e-12, rtol=0)


class TestPlsWorkflows:
    def test_linear_data_recovered(self):
        config = {
            "workflow": "pls_direct",
            "data": {"synth": {"kind": "peak_spectra", "n_samples": 60,
                               "noise": 0.0, "params": {"mode": "linear"}}},
            "pls": {"k_max": 6},
        }
        report = run_workflow(config)
        assert report.test_metrics.r2 > 0.99
        assert report.latent_count == report.diagnostics["pls_components"]
        assert len(report.diagnostics["pls_cv_mse"]) == 6

    def test_ihm_features_drive_pls(self, tmp_path):
        base = HardModel(
            components=(ComponentModel("gel",
                                       (Peak(1000.0, 1.0, 0.5, 20.0),
                                        Peak(1250.0, 0.8, 0.5, 28.0),
                                        Peak(1600.0, 0.6, 0.5, 16.0))),),
            weights=(1.0,), baseline=(0.05, 0.0))
        model_path = tmp_path / "peaks.json"
        save_hard_model(model_path, base)
        out = tmp_path / "run"
        config = {
            "workflow": "ihm_pls",
            "data": {"synth": {"kind": "peak_spectra", "n_samples": 40,
                               "noise": 0.0}},
            "ihm": {"model_json": str(model_path), "mode": "high",
                    "max_iterations": 60},
            "pls": {"k_max": 5},
            "out_dir": str(out),
        }
        report = run_workflow(config)
        assert report.test_metrics.r2 > 0.99
        assert report.diagnostics["ihm_unconverged_train"] == 0
        assert report.diagnostics["kept_feature_columns"] > 0
        assert os.path.isfile(out / "models" / "hard_model" / "model.json")

        ds, _ = synth_generate(SynthSpec(kind="peak_spectra", n_samples=40,
                                         noise=0.0))
        pipe = load_pipeline(out / "models")
        preds = pipeline_predict(pipe, ds)
        by_id = dict(zip(ds.sample_ids, preds))
        for row in report.parity:
            assert abs(by_id[row.sample_id] - row.predicted_nm) < 1e-8


class TestEmittedFiles:
    def test_metrics_match_parity_file(self, direct_nn_run):
        _, report, out = direct_nn_run
        rows = load_parity(os.path.join(out, "parity.csv"))
        test = [r for r in rows if r.split == "test"]
        again = compute_metrics([r.predicted_nm for r in test],
                                [r.actual_nm for r in test])
        assert abs(again.r2 - report.test_metrics.r2) < 1e-10
        assert abs(again.mape - report.test_metrics.mape) < 1e-10

    def test_report_file_round_trip(self, direct_nn_run):
        _, report, out = direct_nn_run
        back = load_report(os.path.join(out, "report.json"))
        assert back.parity == report.parity
        assert back.config_hash == report.config_hash

    def test_pipeline_reload_matches_report(self, direct_nn_run):
        config, report, out = direct_nn_run
        pipe = load_pipeline(os.path.join(out, "models"))
        spec_cfg = dict(config["data"]["synth"])
        ds, _ = synth_generate(SynthSpec(**spec_cfg))
        order = {sid: i for i, sid in enumerate(ds.sample_ids)}
        test_rows = [r for r in report.parity if r.split == "test"]
        subset = ds.subset([order[r.sample_id] for r in test_rows])
        preds = pipeline_predict(pipe, subset)
        assert np.allclose(preds, [r.predicted_nm for r in test_rows],
                           atol=1e-12, rtol=0)
