"""Config-driven experiment workflows.

One JSON-style config dict in, one RunReport out.  Every model is fit
on training rows only.  The fitted models form an ordered tuple of
stages from pretreated spectra to sizes; the report's predictions on
both splits fold that tuple over the spectra, as `pipeline_predict`
does with the persisted models.  Rerunning the same config produces
byte-identical reports and model files.

The README tables the config's sections, keys, types, defaults and
ranges; `run_workflow` checks a whole config before it loads any data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .altdmaps import alt_coordinates, fit_altdmaps
from .conformal import (YShapedModel, decode, encode, orthogonality_score,
                        predict_size, yae_fit)
from .config import (FROM_DATA, WORKFLOW_NAMES, RunConfig, n_eig_for,
                     require, spec_from)
from .dataset import SpectraSet, load_spectra, train_test_split, write_json
from .dmaps import (Embed, GhModel, fit_dmaps, gh_fit, gh_predict,
                    local_linear_residual, nystrom_extend)
from .errors import NumericError
from .gbt import GbtModel, gbt_fit, gbt_predict
from .ihm import IhmFeatures, ihm_features, load_hard_model
from .metrics import compute_metrics
from .mlp import MlpModel, MlpSpec, mlp_fit, mlp_predict
from .pls import PlsModel, pls_choose_components, pls_fit, pls_predict
from .pretreat import (ColumnScaler, PretreatmentSpec, apply_column_scaler,
                       apply_pretreatment, fit_column_scaler)
from .report import ParityRow, RunReport, config_hash
from .serialize import is_plain_name, load_model, save_model
from .synth import synth_generate

_MANIFEST_FILE = "manifest.json"


@dataclass(frozen=True)
class RunContext:
    """The config as given and as checked, the loaded data, and the
    fixed split, pretreated per side."""

    config: dict
    spec: RunConfig
    raw: SpectraSet
    train: SpectraSet
    test: SpectraSet
    train_idx: np.ndarray
    test_idx: np.ndarray


def _prepare(config: dict, spec: RunConfig) -> RunContext:
    if spec.data.synth is not None:
        ds, _ = synth_generate(spec.data.synth)
    else:
        ds = load_spectra(spec.data.spectra, spec.data.sizes)
    split = spec.split
    n_test = max(1, int(round(split.test_fraction * ds.n_samples)))
    require(ds.n_samples - n_test >= 4,
            f"split: test_fraction {split.test_fraction!r} leaves "
            f"{ds.n_samples - n_test} of {ds.n_samples} rows for training; "
            f"at least 4 are needed")
    train_raw, test_raw, train_idx, test_idx = train_test_split(
        ds, n_test, split.seed)

    pre = spec.pretreatment
    return RunContext(config=config, spec=spec, raw=ds,
                      train=apply_pretreatment(train_raw, pre),
                      test=apply_pretreatment(test_raw, pre),
                      train_idx=train_idx, test_idx=test_idx)


def two_cluster_labels(values) -> np.ndarray:
    """Deterministic 1-D two-means: centers start at min and max, ties
    go to the lower cluster.  Returns 0/1 labels (0 = lower center)."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("no values to cluster")
    c0, c1 = float(v.min()), float(v.max())
    labels = np.zeros(v.size, dtype=int)
    if c0 == c1:
        return labels
    for _ in range(200):
        labels = (np.abs(v - c1) < np.abs(v - c0)).astype(int)
        m0, m1 = float(v[labels == 0].mean()), float(v[labels == 1].mean())
        if m0 == c0 and m1 == c1:
            break
        c0, c1 = m0, m1
    return labels


def _cluster_diag(ctx: RunContext) -> Dict[str, int]:
    labels = two_cluster_labels(ctx.raw.intensities.sum(axis=1))
    return {sid: int(l) for sid, l in zip(ctx.raw.sample_ids, labels)}


def _apply_stage(stage, X: np.ndarray) -> np.ndarray:
    """Map one fitted stage's input rows to its output rows."""
    if isinstance(stage, Embed):
        return nystrom_extend(stage.dmap, X, stage.indices)
    if isinstance(stage, IhmFeatures):
        return ihm_features(stage, X)[0]
    if isinstance(stage, MlpModel):
        return mlp_predict(stage, X)
    if isinstance(stage, GbtModel):
        return gbt_predict(stage, X)
    if isinstance(stage, list):
        return np.column_stack([gbt_predict(m, X) for m in stage])
    if isinstance(stage, GhModel):
        return gh_predict(stage, X)
    if isinstance(stage, YShapedModel):
        return predict_size(stage, X)
    if isinstance(stage, ColumnScaler):
        return apply_column_scaler(stage, X)
    if isinstance(stage, PlsModel):
        return pls_predict(stage, X)
    raise TypeError(f"not a pipeline stage: {type(stage).__name__}")


class _Chain:
    """The prediction stages in order, by name, and both pretreated
    splits folded through them; the report's predictions are the final
    fold.  `models/` holds exactly these stages."""

    def __init__(self, ctx: RunContext):
        self.stages: Dict[str, object] = {}
        self.train = ctx.train.intensities
        self.test = ctx.test.intensities

    def add(self, name: str, stage, outputs=None) -> None:
        """Append a stage; `outputs` are its (train, test) rows when the
        caller already applied it."""
        self.stages[name] = stage
        self.train, self.test = outputs or (_apply_stage(stage, self.train),
                                            _apply_stage(stage, self.test))


def _embed(ctx: RunContext) -> Tuple[Embed, np.ndarray]:
    """The embedding stage and the LLR residuals of its columns (ones
    when the coordinates are not chosen by LLR)."""
    spec = ctx.spec.dmaps
    n_eig = n_eig_for(spec.n_eig, ctx.train.n_samples, "dmaps")
    if not isinstance(spec.coords, str):
        require(max(spec.coords) < n_eig,
                f"dmaps: coords must lie in [1, {n_eig}), "
                f"got {list(spec.coords)}")
    model = fit_dmaps(ctx.train.intensities, spec.kernel, n_eig=n_eig)
    if spec.coords == "llr":
        llr = local_linear_residual(model.eigenvectors[:, 1:],
                                    threshold=spec.llr_threshold)
        require(len(llr.indices) > 0,
                f"dmaps: llr_threshold {spec.llr_threshold!r} selects no "
                f"coordinate; the largest residual is "
                f"{float(llr.residuals.max()):.4g}")
        return (Embed(dmap=model, indices=tuple(i + 1 for i in llr.indices)),
                llr.residuals)
    indices = tuple(range(1, n_eig)) if spec.coords == "all" else spec.coords
    return Embed(dmap=model, indices=indices), np.ones(len(indices))


def _embedded_chain(ctx: RunContext, embed: Embed):
    """A chain opened by the embedding stage, and diagnostics comparing
    the training back-extension with the exact eigenvectors."""
    chain = _Chain(ctx)
    chain.add("dmap", embed)
    mse = float(np.mean((chain.train - embed.phi_train) ** 2))
    return chain, {"dmap_epsilon": embed.dmap.epsilon,
                   "nystrom_train_mse": mse,
                   "selected_coordinates": list(embed.indices)}


def _head_fit(spec, X: np.ndarray, y: np.ndarray):
    """Fit a size (or coordinate) regressor; y may be 1-D or (n, k)."""
    if isinstance(spec, MlpSpec):
        return mlp_fit(X, y, spec)
    Y = np.asarray(y, dtype=float)
    if Y.ndim == 2:
        return [gbt_fit(X, Y[:, j], spec) for j in range(Y.shape[1])]
    return gbt_fit(X, Y, spec)


def _persist(ctx: RunContext, stages: Dict[str, object]) -> None:
    """Save one directory per prediction stage under out_dir/models plus
    a manifest naming those stages in order; no-op without an out_dir."""
    if not ctx.spec.out_dir:
        return
    base = os.path.join(ctx.spec.out_dir, "models")
    for name, stage in stages.items():
        save_model(os.path.join(base, name), stage)
    manifest = {"workflow": ctx.spec.workflow,
                "config_hash": config_hash(ctx.config),
                "pretreatment": ctx.config.get("pretreatment", {}),
                "grid": ctx.train.grid.values.tolist(),
                "stages": list(stages)}
    write_json(os.path.join(base, _MANIFEST_FILE), manifest)


def _finish(ctx: RunContext, chain: _Chain, latent_count: int,
            diagnostics: dict, loss_history=None) -> RunReport:
    """Persist the chain's models and report its predictions on both
    splits."""
    _persist(ctx, chain.stages)
    diagnostics["intensity_clusters"] = _cluster_diag(ctx)
    y_tr, y_te = ctx.train.sizes, ctx.test.sizes
    parity = tuple(
        [ParityRow(sid, float(a), float(p), "train")
         for sid, a, p in zip(ctx.train.sample_ids, y_tr, chain.train)]
        + [ParityRow(sid, float(a), float(p), "test")
           for sid, a, p in zip(ctx.test.sample_ids, y_te, chain.test)])
    return RunReport(workflow=ctx.spec.workflow,
                     config_hash=config_hash(ctx.config),
                     train_metrics=compute_metrics(chain.train, y_tr),
                     test_metrics=compute_metrics(chain.test, y_te),
                     latent_count=int(latent_count),
                     parity=parity,
                     diagnostics=diagnostics,
                     loss_history=loss_history)


def _run_direct(ctx: RunContext) -> RunReport:
    """Size straight from the spectral embedding coordinates."""
    embed, residuals = _embed(ctx)
    chain, diagnostics = _embedded_chain(ctx, embed)
    diagnostics["llr_residuals"] = residuals
    chain.add("size_regressor", _head_fit(ctx.spec.regressor,
                                          embed.phi_train, ctx.train.sizes))
    return _finish(ctx, chain, len(embed.indices), diagnostics)


def _run_altdmaps(ctx: RunContext) -> RunReport:
    """Offline, find the variable common to the spectral embedding and
    the sizes; online, Nystrom coordinates for new spectra, regress the
    common coordinates from them, then the size from the common ones."""
    embed, residuals = _embed(ctx)
    spec = ctx.spec.altdmaps
    phi = embed.phi_train
    alt = fit_altdmaps(phi, np.asarray(ctx.train.sizes, dtype=float)[:, None],
                       *spec.kernels,
                       n_eig=n_eig_for(spec.n_eig, ctx.train.n_samples,
                                       "altdmaps"))
    llr = local_linear_residual(alt.eigenvectors[:, 1:],
                                threshold=spec.llr_threshold)
    chain, diagnostics = _embedded_chain(ctx, embed)
    diagnostics["llr_residuals"] = residuals

    n_alt_max = alt.eigenvalues.size - 1
    n_alt = (min(6, n_alt_max) if spec.n_alt_coords is FROM_DATA
             else spec.n_alt_coords)
    require(n_alt <= n_alt_max,
            f"altdmaps: n_alt_coords must lie in [1, {n_alt_max}], "
            f"got {n_alt}")
    alt_idx = tuple(range(1, n_alt + 1))
    psi_tr = alt_coordinates(alt, alt_idx)

    if spec.alt_regressor == "gh":
        f_alt = gh_fit(phi, psi_tr, delta=spec.gh_delta)
        diagnostics["gh_harmonics"] = f_alt.dmap.n_eig
    else:
        f_alt = _head_fit(spec.alt_regressor_config, phi, psi_tr)
    chain.add("alt_regressor", f_alt)
    psi_hat_tr = chain.train

    f_size = _head_fit(spec.size_regressor_config, psi_tr, ctx.train.sizes)
    chain.add("size_regressor", f_size)

    y_tr = ctx.train.sizes
    diagnostics.update({
        "alt_coordinates_used": list(alt_idx),
        "alt_selected_indices": [i + 1 for i in llr.indices],
        "alt_llr_residuals": llr.residuals,
        "alt_eigenvalues": alt.eigenvalues,
        "altdmap_prediction_mse": float(np.mean((psi_hat_tr - psi_tr) ** 2)),
        "size_r2_actual_alt_train":
            compute_metrics(_apply_stage(f_size, psi_tr), y_tr).r2,
        "size_r2_predicted_alt_train": compute_metrics(chain.train, y_tr).r2,
    })
    return _finish(ctx, chain, n_alt, diagnostics)


def _run_yshaped(ctx: RunContext) -> RunReport:
    """Embedding, then the conformal autoencoder whose first latent
    coordinate carries the size."""
    embed, residuals = _embed(ctx)
    chain, diagnostics = _embedded_chain(ctx, embed)
    diagnostics["llr_residuals"] = residuals
    phi = embed.phi_train
    model, history = yae_fit(phi, ctx.train.sizes, ctx.spec.yshaped)
    chain.add("yae", model)
    recon = decode(model, encode(model, phi))
    diagnostics["reconstruction_l2"] = float(np.linalg.norm(recon - phi)
                                             / np.linalg.norm(phi))
    diagnostics["orthogonality"] = orthogonality_score(model, phi)
    # one latent coordinate feeds the size head
    return _finish(ctx, chain, 1, diagnostics,
                   loss_history=tuple(history))


def _run_pls(ctx: RunContext) -> RunReport:
    """Latent-variable linear benchmark, optionally on peak-fit
    parameters instead of raw intensities."""
    spec = ctx.spec.pls
    chain = _Chain(ctx)
    diagnostics: dict = {}
    if ctx.spec.workflow == "ihm_pls":
        icfg = ctx.spec.ihm
        # float(): the saved stage has always held a float bound
        ihm = IhmFeatures(base=load_hard_model(icfg.model_json),
                          wavenumbers=ctx.train.grid.values,
                          mode=icfg.mode,
                          position_bound=float(icfg.position_bound),
                          max_iterations=icfg.max_iterations)
        F_tr, unc_tr, sse_tr, why_tr = ihm_features(ihm,
                                                    ctx.train.intensities)
        F_te, unc_te, sse_te, why_te = ihm_features(ihm,
                                                    ctx.test.intensities)
        chain.add("hard_model", ihm, outputs=(F_tr, F_te))
        diagnostics.update({"ihm_unconverged_train": unc_tr,
                            "ihm_unconverged_test": unc_te,
                            "ihm_termination_train": why_tr,
                            "ihm_termination_test": why_te,
                            "ihm_mean_sse_train": sse_tr,
                            "ihm_mean_sse_test": sse_te})

    try:
        scaler, Z_tr = fit_column_scaler(chain.train, spec.zscore)
    except ValueError as e:
        raise NumericError(str(e)) from e
    chain.add("scaler", scaler)
    diagnostics["kept_feature_columns"] = int(scaler.keep.sum())

    n_train = ctx.train.n_samples
    k_cap = min(n_train - 2, Z_tr.shape[1])
    k_max = min(10, k_cap) if spec.k_max is FROM_DATA else spec.k_max
    require(k_max <= k_cap,
            f"pls: k_max must lie in [1, {k_cap}], got {k_max}")
    require(spec.folds <= n_train, f"pls: folds must lie in [2, {n_train}] "
                                   f"(the training rows), got {spec.folds}")
    y_tr = ctx.train.sizes
    k, cv_mse = pls_choose_components(Z_tr, y_tr, k_max, folds=spec.folds,
                                      seed=spec.seed)
    chain.add("pls", pls_fit(Z_tr, y_tr, k))
    diagnostics["pls_components"] = k
    diagnostics["pls_cv_mse"] = cv_mse
    return _finish(ctx, chain, k, diagnostics)


_RUNNERS = {"direct_dmaps_nn": _run_direct, "direct_dmaps_gbt": _run_direct,
            "altdmaps": _run_altdmaps, "yshaped": _run_yshaped,
            "pls_direct": _run_pls, "ihm_pls": _run_pls}


def run_workflow(config: dict) -> RunReport:
    """Check the whole config, then load the data and run
    config["workflow"] (one of WORKFLOW_NAMES)."""
    spec = spec_from(RunConfig, config, "config")
    return _RUNNERS[spec.workflow](_prepare(config, spec))


@dataclass(frozen=True)
class Pipeline:
    """Fitted stages in prediction order, the manifest they were saved
    with, its pretreatment and the post-pretreatment training wavenumber
    grid."""

    manifest: dict
    stages: Tuple[object, ...]
    grid: np.ndarray
    pretreatment: PretreatmentSpec


def load_pipeline(models_dir) -> Pipeline:
    with open(os.path.join(models_dir, _MANIFEST_FILE), encoding="utf-8") as fh:
        manifest = json.load(fh)
    require("grid" in manifest,
            f"{models_dir}: manifest records no training wavenumber grid")
    require(bool(manifest.get("stages")),
            f"{models_dir}: manifest names no prediction stages")
    for name in manifest["stages"]:
        require(is_plain_name(name),
                f"{models_dir}: stage name {name!r} is not a plain name")
    stages = tuple(load_model(os.path.join(models_dir, name))
                   for name in manifest["stages"])
    return Pipeline(manifest=manifest, stages=stages,
                    grid=np.asarray(manifest["grid"], dtype=float),
                    pretreatment=spec_from(PretreatmentSpec,
                                           manifest.get("pretreatment", {}),
                                           "pretreatment"))


def pipeline_predict(pipe: Pipeline, spectra: SpectraSet) -> np.ndarray:
    """Predict sizes for new spectra with a persisted workflow.  The
    pretreated spectra must lie on exactly the training grid."""
    ds = apply_pretreatment(spectra, pipe.pretreatment)
    grid = ds.grid.values
    require(np.array_equal(grid, pipe.grid),
            f"spectra are not on the training wavenumber grid: after "
            f"pretreatment {grid.size} points over {grid[0]:g}-{grid[-1]:g} "
            f"cm^-1, expected {pipe.grid.size} over "
            f"{pipe.grid[0]:g}-{pipe.grid[-1]:g}")
    X = ds.intensities
    for stage in pipe.stages:
        X = _apply_stage(stage, X)
    return X
