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
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from .altdmaps import fit_altdmaps
from .config import command_config, n_eig_for, spec_from
from .dataset import (format_float, load_sizes, load_spectra, save_spectra,
                      write_json)
from .dmaps import DmapModel, Embed, fit_dmaps, nystrom_extend
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


def _cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    spec = spec_from(SynthSpec, cfg, "synth config")
    dataset, sidecar = synth_generate(spec)
    os.makedirs(args.out, exist_ok=True)
    save_spectra(dataset, os.path.join(args.out, "spectra.csv"),
                 os.path.join(args.out, "sizes.csv"))
    write_json(os.path.join(args.out, "sidecar.json"), jsonable(sidecar))
    print(f"wrote {dataset.n_samples} spectra to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    cfg = command_config("preprocess", _load_config(args.config))
    dataset = load_spectra(cfg.spectra, cfg.sizes)
    treated = apply_pretreatment(dataset, cfg.pretreatment)
    os.makedirs(args.out, exist_ok=True)
    sizes_path = (os.path.join(args.out, "sizes.csv")
                  if treated.sizes is not None else None)
    save_spectra(treated, os.path.join(args.out, "spectra.csv"), sizes_path)
    print(f"wrote {treated.n_samples} treated spectra to {args.out}")
    return 0


def _cmd_dmap_fit(args) -> int:
    cfg = command_config("dmap fit", _load_config(args.config))
    dataset = load_spectra(cfg.spectra)
    n_eig = n_eig_for(cfg.dmaps.n_eig, dataset.n_samples, "dmaps")
    model = fit_dmaps(dataset.intensities, cfg.dmaps.kernel, n_eig=n_eig)
    save_model(args.out, model)
    print(f"fitted {n_eig} eigenpairs, epsilon={model.epsilon!r}; "
          f"saved to {args.out}")
    return 0


def _cmd_dmap_extend(args) -> int:
    cfg = command_config("dmap extend", _load_config(args.config))
    model = load_model(cfg.model)
    model = model.dmap if isinstance(model, Embed) else model
    if not isinstance(model, DmapModel):
        raise ConfigError(f"{cfg.model} holds {type(model).__name__}, "
                          f"not a diffusion map")
    if cfg.indices is not None and not (
            cfg.indices and all(0 <= i < model.n_eig for i in cfg.indices)):
        raise ConfigError(f"dmap extend config: indices must be a nonempty "
                          f"list in [0, {model.n_eig}), "
                          f"got {list(cfg.indices)}")
    dataset = load_spectra(cfg.spectra)
    phi = nystrom_extend(model, dataset.intensities, cfg.indices)
    cols = range(model.n_eig) if cfg.indices is None else cfg.indices
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id"] + [f"phi_{i}" for i in cols])
        for sid, row in zip(dataset.sample_ids, phi):
            writer.writerow([sid] + [format_float(v) for v in row])
    print(f"wrote {phi.shape[0]} x {phi.shape[1]} coordinates to {args.out}")
    return 0


def _cmd_alt_fit(args) -> int:
    cfg = command_config("alt fit", _load_config(args.config))
    s1 = load_spectra(cfg.sensor1)
    s2 = load_spectra(cfg.sensor2)
    if s1.sample_ids != s2.sample_ids:
        raise ConfigError("sensor files disagree on sample ids")
    model = fit_altdmaps(s1.intensities, s2.intensities, *cfg.altdmaps.kernels,
                         n_eig=n_eig_for(cfg.altdmaps.n_eig, s1.n_samples,
                                         "altdmaps"))
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
    cfg = command_config("predict", _load_config(args.config))
    pipe = load_pipeline(cfg.models)
    dataset = load_spectra(cfg.spectra)
    preds = pipeline_predict(pipe, dataset)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "diameter_nm"])
        for sid, val in zip(dataset.sample_ids, np.asarray(preds).ravel()):
            writer.writerow([sid, format_float(val)])
    print(f"wrote {dataset.n_samples} predictions to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = command_config("evaluate", _load_config(args.config))
    predicted = load_sizes(cfg.predictions)
    actual = load_sizes(cfg.sizes)
    missing = sorted(set(predicted) - set(actual))
    if missing:
        raise ConfigError(f"no actual size for ids {missing[:5]}")
    ids = sorted(predicted)
    m = compute_metrics([predicted[i] for i in ids],
                        [actual[i] for i in ids])
    doc = {"n_samples": len(ids), "r2": m.r2, "rmse_nm": m.rmse,
           "mape_pct": m.mape}
    write_json(args.out, doc)
    print(f"r2={m.r2:.4f} rmse={m.rmse:.3f} nm mape={m.mape:.3f}% "
          f"({len(ids)} samples)")
    return 0


def _cmd_report(args) -> int:
    cfg = command_config("report", _load_config(args.config))
    report = load_report(cfg.report)
    paths = emit_report(report, args.out)
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


@functools.cache   # about 1 ms; in-process callers run entry() in a loop
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectramap",
        description="Size prediction from spectra: manifold embeddings, "
                    "benchmark regressors and experiment workflows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, name, handler, help_text, seed=False):
        p = group.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output file or directory")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.set_defaults(handler=handler)

    add(sub, "synth", _cmd_synth, "generate a synthetic dataset", seed=True)
    add(sub, "preprocess", _cmd_preprocess, "apply pretreatment to spectra")

    dmap = sub.add_parser("dmap", help="embedding model operations")
    dmap_sub = dmap.add_subparsers(dest="dmap_command", required=True)
    add(dmap_sub, "fit", _cmd_dmap_fit, "fit an embedding on spectra")
    add(dmap_sub, "extend", _cmd_dmap_extend,
        "embed new spectra with a saved model")

    alt = sub.add_parser("alt", help="alternating kernel operations")
    alt_sub = alt.add_subparsers(dest="alt_command", required=True)
    add(alt_sub, "fit", _cmd_alt_fit, "fit the common-variable model")

    train = sub.add_parser("train", help="run a workflow end to end")
    train.add_argument("workflow", choices=WORKFLOW_NAMES)
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--out", default=None,
                       help="run directory (defaults to config out_dir)")
    train.set_defaults(handler=_cmd_train)

    add(sub, "predict", _cmd_predict, "predict sizes with persisted models")
    add(sub, "evaluate", _cmd_evaluate,
        "score predictions against actual sizes")
    add(sub, "report", _cmd_report, "re-emit run files from a report.json")
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
