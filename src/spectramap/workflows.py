"""Config-driven experiment workflows.

One JSON-style config dict in, one RunReport out.  Every model is fit
on training rows only.  The fitted models form an ordered tuple of
stages from pretreated spectra to sizes; the report's predictions on
both splits fold that tuple over the spectra, as `pipeline_predict`
does with the persisted models.  Rerunning the same config produces
byte-identical reports and model files.

Config layout (each workflow reads only the sections it needs; unknown
keys anywhere are rejected):

    {
      "workflow": "direct_dmaps_nn",       # see WORKFLOW_NAMES
      "seed": 0,                           # default for every sub-seed
      "data": {"spectra": "x.csv", "sizes": "y.csv"},   # or {"synth": {...}}
      "pretreatment": {"region": "global", "baseline": "none",
                       "normalization": "none", "exclusions": []},
      "split": {"test_fraction": 0.25, "seed": 0},
      "dmaps": {"epsilon": null, "density_normalize": true, "n_eig": 10,
                "coords": "llr", "llr_threshold": 0.5},
      "regressor": {...},                  # MlpSpec or GbtSpec fields
      "altdmaps": {"n_eig": 10, "n_alt_coords": 6, "alt_regressor": "gh",
                   "size_regressor": "nn", ...},
      "yshaped": {...},                    # YShapedSpec fields
      "pls": {"k_max": 10, "folds": 5, "zscore": true},
      "ihm": {"model_json": "peaks.json", "mode": "medium"},
      "out_dir": "runs/exp1"               # optional; enables model persistence
    }
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .altdmaps import alt_coordinates, fit_altdmaps
from .conformal import (YShapedModel, YShapedSpec, decode, encode,
                        orthogonality_score, predict_size, yae_fit)
from .config import check_keys, pretreatment_spec, require, spec_from
from .dataset import SpectraSet, load_spectra, train_test_split, write_json
from .dmaps import (Embed, GhModel, KernelParams, fit_dmaps, gh_fit,
                    gh_predict, local_linear_residual, nystrom_extend)
from .errors import ConfigError, NumericError
from .gbt import GbtModel, GbtSpec, gbt_fit, gbt_predict
from .ihm import IhmFeatures, ihm_features, load_hard_model
from .metrics import compute_metrics
from .mlp import MlpModel, MlpSpec, mlp_fit, mlp_predict
from .pls import PlsModel, pls_choose_components, pls_fit, pls_predict
from .pretreat import (ColumnScaler, apply_column_scaler, apply_pretreatment,
                       fit_column_scaler)
from .report import ParityRow, RunReport, config_hash
from .serialize import is_plain_name, load_model, save_model
from .synth import SynthSpec, synth_generate

_TOP_KEYS = frozenset({"workflow", "seed", "data", "pretreatment", "split",
                       "dmaps", "regressor", "altdmaps", "yshaped", "pls",
                       "ihm", "out_dir"})
_MANIFEST_FILE = "manifest.json"


def _top_seed(config: dict) -> int:
    return int(config.get("seed", 0))


@dataclass(frozen=True)
class RunContext:
    """Loaded data plus the fixed split, pretreated per side."""

    raw: SpectraSet
    train: SpectraSet
    test: SpectraSet
    train_idx: np.ndarray
    test_idx: np.ndarray


def _prepare(config: dict) -> RunContext:
    require(isinstance(config, dict), "config must be a mapping")
    check_keys(config, _TOP_KEYS, "config")
    data = config.get("data")
    require(isinstance(data, dict), "config needs a 'data' section")
    if "synth" in data:
        check_keys(data, ("synth",), "data")
        spec = spec_from(SynthSpec, data["synth"], "data.synth",
                         seed=_top_seed(config))
        ds, _ = synth_generate(spec)
    else:
        check_keys(data, ("spectra", "sizes"), "data")
        require(isinstance(data.get("spectra"), str),
                "data.spectra must be a file path")
        ds = load_spectra(data["spectra"], data.get("sizes"))
    require(ds.sizes is not None, "workflow needs size targets")

    split = config.get("split", {})
    check_keys(split, ("test_fraction", "seed"), "split")
    frac = float(split.get("test_fraction", 0.25))
    require(0.0 < frac < 1.0, "split.test_fraction must lie in (0, 1)")
    n_test = max(1, int(round(frac * ds.n_samples)))
    require(ds.n_samples - n_test >= 4, "split leaves too few training rows")
    seed = int(split.get("seed", _top_seed(config)))
    train_raw, test_raw, train_idx, test_idx = train_test_split(ds, n_test, seed)

    pre = pretreatment_spec(config.get("pretreatment", {}))
    return RunContext(raw=ds,
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


def _embed(config: dict, ctx: RunContext) -> Tuple[Embed, np.ndarray]:
    """The embedding stage and the LLR residuals of its columns (ones
    when the coordinates are not chosen by LLR)."""
    cfg = config.get("dmaps", {})
    check_keys(cfg, ("epsilon", "density_normalize", "n_eig", "coords",
                     "llr_threshold"), "dmaps")
    n_train = ctx.train.n_samples
    n_eig = int(cfg.get("n_eig", min(10, n_train - 1)))
    eps = cfg.get("epsilon")
    params = spec_from(KernelParams,
                       {"epsilon": eps,
                        "density_normalize": cfg.get("density_normalize", True)},
                       "dmaps")
    model = fit_dmaps(ctx.train.intensities, params, n_eig=n_eig)

    coords = cfg.get("coords", "llr")
    if coords == "all":
        indices = tuple(range(1, model.n_eig))
    elif coords == "llr":
        require(model.n_eig >= 3, "llr selection needs n_eig >= 3")
        llr = local_linear_residual(model.eigenvectors[:, 1:],
                                    threshold=float(cfg.get("llr_threshold", 0.5)))
        return (Embed(dmap=model, indices=tuple(i + 1 for i in llr.indices)),
                llr.residuals)
    elif isinstance(coords, list):
        require(len(coords) > 0, "dmaps.coords list is empty")
        indices = tuple(int(i) for i in coords)
        require(len(set(indices)) == len(indices), "duplicate dmaps.coords")
        require(all(1 <= i < model.n_eig for i in indices),
                "dmaps.coords indices must lie in [1, n_eig)")
    else:
        raise ConfigError(f"dmaps.coords must be 'llr', 'all' or a list, "
                          f"got {coords!r}")
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


def _head_fit(kind: str, cfg: dict, X: np.ndarray, y: np.ndarray, seed: int):
    """Fit a size (or coordinate) regressor; y may be 1-D or (n, k)."""
    if kind == "nn":
        return mlp_fit(X, y, spec_from(MlpSpec, cfg, "regressor", seed=seed))
    if kind == "gbt":
        spec = spec_from(GbtSpec, cfg, "regressor", seed=seed)
        Y = np.asarray(y, dtype=float)
        if Y.ndim == 2:
            return [gbt_fit(X, Y[:, j], spec) for j in range(Y.shape[1])]
        return gbt_fit(X, Y, spec)
    raise ConfigError(f"unknown regressor kind {kind!r}")


def _persist(config: dict, ctx: RunContext,
             stages: Dict[str, object]) -> None:
    """Save one directory per prediction stage under out_dir/models plus
    a manifest naming those stages in order; no-op without an out_dir."""
    out_dir = config.get("out_dir")
    if not out_dir:
        return
    base = os.path.join(os.fspath(out_dir), "models")
    for name, stage in stages.items():
        save_model(os.path.join(base, name), stage)
    manifest = {"workflow": config["workflow"],
                "config_hash": config_hash(config),
                "pretreatment": config.get("pretreatment", {}),
                "grid": ctx.train.grid.values.tolist(),
                "stages": list(stages)}
    write_json(os.path.join(base, _MANIFEST_FILE), manifest)


def _finish(config: dict, ctx: RunContext, chain: _Chain, latent_count: int,
            diagnostics: dict, loss_history=None) -> RunReport:
    """Persist the chain's models and report its predictions on both
    splits."""
    _persist(config, ctx, chain.stages)
    diagnostics["intensity_clusters"] = _cluster_diag(ctx)
    y_tr, y_te = ctx.train.sizes, ctx.test.sizes
    parity = tuple(
        [ParityRow(sid, float(a), float(p), "train")
         for sid, a, p in zip(ctx.train.sample_ids, y_tr, chain.train)]
        + [ParityRow(sid, float(a), float(p), "test")
           for sid, a, p in zip(ctx.test.sample_ids, y_te, chain.test)])
    return RunReport(workflow=config["workflow"],
                     config_hash=config_hash(config),
                     train_metrics=compute_metrics(chain.train, y_tr),
                     test_metrics=compute_metrics(chain.test, y_te),
                     latent_count=int(latent_count),
                     parity=parity,
                     diagnostics=diagnostics,
                     loss_history=loss_history)


def _run_direct(config: dict, ctx: RunContext) -> RunReport:
    """Size straight from the spectral embedding coordinates."""
    kind = {"direct_dmaps_nn": "nn", "direct_dmaps_gbt": "gbt"}[config["workflow"]]
    embed, residuals = _embed(config, ctx)
    chain, diagnostics = _embedded_chain(ctx, embed)
    diagnostics["llr_residuals"] = residuals
    chain.add("size_regressor",
              _head_fit(kind, config.get("regressor", {}), embed.phi_train,
                        ctx.train.sizes, _top_seed(config)))
    return _finish(config, ctx, chain, len(embed.indices), diagnostics)


def _run_altdmaps(config: dict, ctx: RunContext) -> RunReport:
    """Offline, find the variable common to the spectral embedding and
    the sizes; online, Nystrom coordinates for new spectra, regress the
    common coordinates from them, then the size from the common ones."""
    embed, residuals = _embed(config, ctx)
    cfg = config.get("altdmaps", {})
    check_keys(cfg, ("n_eig", "n_alt_coords", "epsilon1", "epsilon2",
                     "density_normalize", "llr_threshold", "gh_delta",
                     "alt_regressor", "size_regressor",
                     "alt_regressor_config", "size_regressor_config"),
               "altdmaps")
    n_eig = int(cfg.get("n_eig", min(10, ctx.train.n_samples - 1)))
    p1, p2 = (spec_from(KernelParams,
                        {"epsilon": cfg.get(key),
                         "density_normalize": cfg.get("density_normalize", True)},
                        "altdmaps") for key in ("epsilon1", "epsilon2"))
    phi = embed.phi_train
    alt = fit_altdmaps(phi, np.asarray(ctx.train.sizes, dtype=float)[:, None],
                       p1, p2, n_eig=n_eig)
    require(alt.eigenvalues.size >= 3, "altdmaps.n_eig must be >= 3")
    llr = local_linear_residual(alt.eigenvectors[:, 1:],
                                threshold=float(cfg.get("llr_threshold", 0.5)))
    seed = _top_seed(config)
    chain, diagnostics = _embedded_chain(ctx, embed)
    diagnostics["llr_residuals"] = residuals

    n_alt_max = alt.eigenvalues.size - 1
    n_alt = int(cfg.get("n_alt_coords", min(6, n_alt_max)))
    require(1 <= n_alt <= n_alt_max,
            f"altdmaps.n_alt_coords must lie in [1, {n_alt_max}]")
    alt_idx = tuple(range(1, n_alt + 1))
    psi_tr = alt_coordinates(alt, alt_idx)

    alt_kind = cfg.get("alt_regressor", "gh")
    if alt_kind == "gh":
        f_alt = gh_fit(phi, psi_tr, params=KernelParams(),
                       delta=float(cfg.get("gh_delta", 1e-3)))
        diagnostics["gh_harmonics"] = f_alt.dmap.n_eig
    elif alt_kind == "gbt":
        f_alt = _head_fit("gbt", cfg.get("alt_regressor_config", {}),
                          phi, psi_tr, seed)
    else:
        raise ConfigError(f"altdmaps.alt_regressor must be 'gh' or 'gbt', "
                          f"got {alt_kind!r}")
    chain.add("alt_regressor", f_alt)
    psi_hat_tr = chain.train

    size_kind = cfg.get("size_regressor", "nn")
    require(size_kind in ("nn", "gbt"),
            f"altdmaps.size_regressor must be 'nn' or 'gbt', got {size_kind!r}")
    f_size = _head_fit(size_kind, cfg.get("size_regressor_config", {}),
                       psi_tr, ctx.train.sizes, seed)
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
    return _finish(config, ctx, chain, n_alt, diagnostics)


def _run_yshaped(config: dict, ctx: RunContext) -> RunReport:
    """Embedding, then the conformal autoencoder whose first latent
    coordinate carries the size."""
    embed, residuals = _embed(config, ctx)
    chain, diagnostics = _embedded_chain(ctx, embed)
    diagnostics["llr_residuals"] = residuals
    spec = spec_from(YShapedSpec, config.get("yshaped", {}), "yshaped",
                     seed=_top_seed(config))
    phi = embed.phi_train
    model, history = yae_fit(phi, ctx.train.sizes, spec)
    chain.add("yae", model)
    recon = decode(model, encode(model, phi))
    diagnostics["reconstruction_l2"] = float(np.linalg.norm(recon - phi)
                                             / np.linalg.norm(phi))
    diagnostics["orthogonality"] = orthogonality_score(model, phi)
    # one latent coordinate feeds the size head
    return _finish(config, ctx, chain, 1, diagnostics,
                   loss_history=tuple(history))


def _run_pls(config: dict, ctx: RunContext) -> RunReport:
    """Latent-variable linear benchmark, optionally on peak-fit
    parameters instead of raw intensities."""
    cfg = config.get("pls", {})
    check_keys(cfg, ("k_max", "folds", "seed", "zscore"), "pls")
    chain = _Chain(ctx)
    diagnostics: dict = {}
    if config["workflow"] == "ihm_pls":
        icfg = config.get("ihm", {})
        check_keys(icfg, ("model_json", "mode", "position_bound",
                          "max_iterations"), "ihm")
        require(isinstance(icfg.get("model_json"), str),
                "ihm.model_json must be a file path")
        ihm = IhmFeatures(base=load_hard_model(icfg["model_json"]),
                          wavenumbers=ctx.train.grid.values,
                          mode=icfg.get("mode", "medium"),
                          position_bound=float(icfg.get("position_bound", 5.0)),
                          max_iterations=int(icfg.get("max_iterations", 200)))
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
        scaler, Z_tr = fit_column_scaler(chain.train,
                                         bool(cfg.get("zscore", True)))
    except ValueError as e:
        raise NumericError(str(e)) from e
    chain.add("scaler", scaler)
    diagnostics["kept_feature_columns"] = int(scaler.keep.sum())

    n_train = ctx.train.n_samples
    k_cap = min(n_train - 2, Z_tr.shape[1])
    k_max = int(cfg.get("k_max", min(10, k_cap)))
    require(1 <= k_max <= k_cap, f"pls.k_max must lie in [1, {k_cap}]")
    folds = int(cfg.get("folds", 5))
    seed = int(cfg.get("seed", _top_seed(config)))
    y_tr = ctx.train.sizes
    k, cv_mse = pls_choose_components(Z_tr, y_tr, k_max, folds=folds, seed=seed)
    chain.add("pls", pls_fit(Z_tr, y_tr, k))
    diagnostics["pls_components"] = k
    diagnostics["pls_cv_mse"] = cv_mse
    return _finish(config, ctx, chain, k, diagnostics)


_RUNNERS = {"direct_dmaps_nn": _run_direct, "direct_dmaps_gbt": _run_direct,
            "altdmaps": _run_altdmaps, "yshaped": _run_yshaped,
            "pls_direct": _run_pls, "ihm_pls": _run_pls}
WORKFLOW_NAMES = tuple(_RUNNERS)


def run_workflow(config: dict) -> RunReport:
    """Dispatch on config["workflow"]; see WORKFLOW_NAMES."""
    require(isinstance(config, dict), "config must be a mapping")
    workflow = config.get("workflow")
    require(workflow in WORKFLOW_NAMES,
            f"workflow must be one of {list(WORKFLOW_NAMES)}, got {workflow!r}")
    return _RUNNERS[workflow](config, _prepare(config))


@dataclass(frozen=True)
class Pipeline:
    """Fitted stages in prediction order, the manifest they were saved
    with, and the post-pretreatment training wavenumber grid."""

    manifest: dict
    stages: Tuple[object, ...]
    grid: np.ndarray


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
                    grid=np.asarray(manifest["grid"], dtype=float))


def pipeline_predict(pipe: Pipeline, spectra: SpectraSet) -> np.ndarray:
    """Predict sizes for new spectra with a persisted workflow.  The
    pretreated spectra must lie on exactly the training grid."""
    pre = pretreatment_spec(pipe.manifest.get("pretreatment", {}))
    ds = apply_pretreatment(spectra, pre)
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
