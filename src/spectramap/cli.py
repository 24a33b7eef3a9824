"""Command-line front end.

Every subcommand reads one JSON config file (--config) and writes under
--out.  Exit codes: 0 success, 2 bad config or unreadable data, 3
numeric failure inside a fit.

    spectramap synth      --config synth.json   --out data_dir
    spectramap preprocess --config pre.json     --out data_dir
    spectramap dmap fit   --config dmap.json    --out model_dir
    spectramap dmap extend --config ext.json    --out coords.csv
    spectramap alt fit    --config alt.json     --out model_dir
    spectramap train <workflow> --config run.json [--seed N] --out run_dir
    spectramap predict    --config predict.json --out predictions.csv
    spectramap evaluate   --config eval.json    --out metrics.json
    spectramap report     --config report.json  --out run_dir
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

import numpy as np

from .altdmaps import fit_altdmaps
from .config import check_keys, pretreatment_spec, spec_from
from .dataset import format_float, load_sizes, load_spectra, save_spectra
from .dmaps import DmapModel, Embed, KernelParams, fit_dmaps, nystrom_extend
from .errors import ConfigError, NumericError
from .metrics import compute_metrics
from .report import emit_report, jsonable, load_report
from .serialize import load_model, save_model
from .synth import SynthSpec, synth_generate
from .workflows import (WORKFLOW_NAMES, load_pipeline, pipeline_predict,
                        run_workflow)
from .pretreat import apply_pretreatment


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    spec = spec_from(SynthSpec, cfg, "synth config")
    dataset, sidecar = synth_generate(spec)
    os.makedirs(args.out, exist_ok=True)
    save_spectra(dataset, os.path.join(args.out, "spectra.csv"),
                 os.path.join(args.out, "sizes.csv"))
    _write_json(os.path.join(args.out, "sidecar.json"), jsonable(sidecar))
    print(f"wrote {dataset.n_samples} spectra to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("spectra", "sizes", "pretreatment"), "preprocess config")
    if not isinstance(cfg.get("spectra"), str):
        raise ConfigError("preprocess config needs a 'spectra' path")
    dataset = load_spectra(cfg["spectra"], cfg.get("sizes"))
    spec = pretreatment_spec(cfg.get("pretreatment", {}))
    treated = apply_pretreatment(dataset, spec)
    os.makedirs(args.out, exist_ok=True)
    sizes_path = (os.path.join(args.out, "sizes.csv")
                  if treated.sizes is not None else None)
    save_spectra(treated, os.path.join(args.out, "spectra.csv"), sizes_path)
    print(f"wrote {treated.n_samples} treated spectra to {args.out}")
    return 0


def _cmd_dmap_fit(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("spectra", "dmaps"), "dmap fit config")
    if not isinstance(cfg.get("spectra"), str):
        raise ConfigError("dmap fit config needs a 'spectra' path")
    dataset = load_spectra(cfg["spectra"])
    dcfg = cfg.get("dmaps", {})
    check_keys(dcfg, ("epsilon", "density_normalize", "n_eig"), "dmaps")
    dcfg = dict(dcfg)
    n_eig = int(dcfg.pop("n_eig", min(10, dataset.n_samples - 1)))
    params = spec_from(KernelParams, dcfg, "dmaps")
    model = fit_dmaps(dataset.intensities, params, n_eig=n_eig)
    save_model(args.out, model)
    print(f"fitted {n_eig} eigenpairs, epsilon={model.epsilon!r}; "
          f"saved to {args.out}")
    return 0


def _cmd_dmap_extend(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("model", "spectra", "indices"), "dmap extend config")
    for key in ("model", "spectra"):
        if not isinstance(cfg.get(key), str):
            raise ConfigError(f"dmap extend config needs a '{key}' path")
    model = load_model(cfg["model"])
    model = model.dmap if isinstance(model, Embed) else model
    if not isinstance(model, DmapModel):
        raise ConfigError(f"{cfg['model']} holds {type(model).__name__}, "
                          f"not a diffusion map")
    dataset = load_spectra(cfg["spectra"])
    indices = cfg.get("indices")
    phi = nystrom_extend(model, dataset.intensities,
                         None if indices is None else tuple(indices))
    cols = (list(range(model.n_eig)) if indices is None else list(indices))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id"] + [f"phi_{i}" for i in cols])
        for sid, row in zip(dataset.sample_ids, phi):
            writer.writerow([sid] + [format_float(v) for v in row])
    print(f"wrote {phi.shape[0]} x {phi.shape[1]} coordinates to {args.out}")
    return 0


def _cmd_alt_fit(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("sensor1", "sensor2", "altdmaps"), "alt fit config")
    for key in ("sensor1", "sensor2"):
        if not isinstance(cfg.get(key), str):
            raise ConfigError(f"alt fit config needs a '{key}' path")
    s1 = load_spectra(cfg["sensor1"])
    s2 = load_spectra(cfg["sensor2"])
    if s1.sample_ids != s2.sample_ids:
        raise ConfigError("sensor files disagree on sample ids")
    acfg = cfg.get("altdmaps", {})
    check_keys(acfg, ("n_eig", "epsilon1", "epsilon2", "density_normalize"),
               "altdmaps")
    dn = bool(acfg.get("density_normalize", True))
    model = fit_altdmaps(
        s1.intensities, s2.intensities,
        KernelParams(epsilon=acfg.get("epsilon1"), density_normalize=dn),
        KernelParams(epsilon=acfg.get("epsilon2"), density_normalize=dn),
        n_eig=int(acfg.get("n_eig", min(10, s1.n_samples - 1))))
    save_model(args.out, model)
    print(f"saved alternating kernel model to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    named = config.get("workflow")
    if named is not None and named != args.workflow:
        raise ConfigError(f"config names workflow {named!r} but the command "
                          f"line says {args.workflow!r}")
    config["workflow"] = args.workflow
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out_dir"] = args.out
    if not config.get("out_dir"):
        raise ConfigError("training needs an output directory (--out)")
    report = run_workflow(config)
    emit_report(report, config["out_dir"])
    print(f"{report.workflow}: train r2={report.train_metrics.r2:.4f} "
          f"test r2={report.test_metrics.r2:.4f} "
          f"test mape={report.test_metrics.mape:.3f}% "
          f"latent={report.latent_count}")
    return 0


def _cmd_predict(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("models", "spectra"), "predict config")
    for key in ("models", "spectra"):
        if not isinstance(cfg.get(key), str):
            raise ConfigError(f"predict config needs a '{key}' path")
    pipe = load_pipeline(cfg["models"])
    dataset = load_spectra(cfg["spectra"])
    preds = pipeline_predict(pipe, dataset)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "diameter_nm"])
        for sid, val in zip(dataset.sample_ids, np.asarray(preds).ravel()):
            writer.writerow([sid, format_float(val)])
    print(f"wrote {dataset.n_samples} predictions to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("predictions", "sizes"), "evaluate config")
    for key in ("predictions", "sizes"):
        if not isinstance(cfg.get(key), str):
            raise ConfigError(f"evaluate config needs a '{key}' path")
    predicted = load_sizes(cfg["predictions"])
    actual = load_sizes(cfg["sizes"])
    missing = sorted(set(predicted) - set(actual))
    if missing:
        raise ConfigError(f"no actual size for ids {missing[:5]}")
    ids = sorted(predicted)
    m = compute_metrics([predicted[i] for i in ids],
                        [actual[i] for i in ids])
    doc = {"n_samples": len(ids), "r2": m.r2, "rmse_nm": m.rmse,
           "mape_pct": m.mape}
    _write_json(args.out, doc)
    print(f"r2={m.r2:.4f} rmse={m.rmse:.3f} nm mape={m.mape:.3f}% "
          f"({len(ids)} samples)")
    return 0


def _cmd_report(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("report",), "report config")
    if not isinstance(cfg.get("report"), str):
        raise ConfigError("report config needs a 'report' path")
    report = load_report(cfg["report"])
    paths = emit_report(report, args.out)
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectramap",
        description="Size prediction from spectra: manifold embeddings, "
                    "benchmark regressors and experiment workflows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, seed=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output file or directory")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.set_defaults(handler=handler)
        return p

    add("synth", _cmd_synth, "generate a synthetic dataset", seed=True)
    add("preprocess", _cmd_preprocess, "apply pretreatment to spectra")

    dmap = sub.add_parser("dmap", help="embedding model operations")
    dmap_sub = dmap.add_subparsers(dest="dmap_command", required=True)
    for name, handler, help_text in (
            ("fit", _cmd_dmap_fit, "fit an embedding on spectra"),
            ("extend", _cmd_dmap_extend, "embed new spectra with a saved model")):
        p = dmap_sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(handler=handler)

    alt = sub.add_parser("alt", help="alternating kernel operations")
    alt_sub = alt.add_subparsers(dest="alt_command", required=True)
    p = alt_sub.add_parser("fit", help="fit the common-variable model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_alt_fit)

    train = sub.add_parser("train", help="run a workflow end to end")
    train.add_argument("workflow", choices=WORKFLOW_NAMES)
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--out", default=None,
                       help="run directory (defaults to config out_dir)")
    train.set_defaults(handler=_cmd_train)

    add("predict", _cmd_predict, "predict sizes with persisted models")
    add("evaluate", _cmd_evaluate, "score predictions against actual sizes")
    add("report", _cmd_report, "re-emit run files from a report.json")
    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
