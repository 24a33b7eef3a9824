"""Run reports: a workflow's outcome plus deterministic file emission.

report.json is the canonical serialization of a RunReport; the CSV
files (metrics.csv, parity.csv, loss_history.csv) are derived views of
the same data for spreadsheet use.  Emission is deterministic: the same
report always produces byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dataset import format_float, write_json
from .metrics import Metrics, compute_metrics, metrics_to_dict

LOSS_COLUMNS = ("epoch", "recon", "pred", "orth", "total")


@dataclass(frozen=True)
class ParityRow:
    sample_id: str
    actual_nm: float
    predicted_nm: float
    split: str

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValueError(f"unknown split label {self.split!r}")


@dataclass(frozen=True)
class RunReport:
    """Everything a workflow run produced, minus the fitted models."""

    workflow: str
    config_hash: str
    train_metrics: Metrics
    test_metrics: Metrics
    latent_count: int
    parity: Tuple[ParityRow, ...]
    diagnostics: Dict = field(default_factory=dict)
    loss_history: Optional[Tuple[dict, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "parity", tuple(self.parity))
        if self.loss_history is not None:
            object.__setattr__(self, "loss_history", tuple(self.loss_history))
        splits = {r.split for r in self.parity}
        if splits != {"train", "test"}:
            raise ValueError("parity data must cover both splits")

    def split_ids(self, split: str) -> Tuple[str, ...]:
        return tuple(r.sample_id for r in self.parity if r.split == split)


def config_hash(config: dict) -> str:
    """sha256 of the canonical config JSON; out_dir is excluded so the
    same experiment hashed into different directories stays one hash."""
    trimmed = {k: v for k, v in config.items() if k != "out_dir"}
    canon = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def report_to_dict(report: RunReport) -> dict:
    train_ids = report.split_ids("train")
    test_ids = report.split_ids("test")
    out = {
        "workflow": report.workflow,
        "config_hash": report.config_hash,
        "latent_count": int(report.latent_count),
        "metrics": {
            "train": metrics_to_dict(report.train_metrics, train_ids),
            "test": metrics_to_dict(report.test_metrics, test_ids),
        },
        "split": {"train_ids": list(train_ids), "test_ids": list(test_ids)},
        "diagnostics": jsonable(report.diagnostics),
        "parity": [
            {"sample_id": r.sample_id, "actual_nm": r.actual_nm,
             "predicted_nm": r.predicted_nm, "split": r.split}
            for r in report.parity
        ],
    }
    if report.loss_history is not None:
        out["loss_history"] = [jsonable(dict(row)) for row in report.loss_history]
    return out


def report_from_dict(doc: dict) -> RunReport:
    parity = tuple(ParityRow(r["sample_id"], float(r["actual_nm"]),
                             float(r["predicted_nm"]), r["split"])
                   for r in doc["parity"])
    metrics = {}
    for split in ("train", "test"):
        rows = [r for r in parity if r.split == split]
        metrics[split] = compute_metrics([r.predicted_nm for r in rows],
                                         [r.actual_nm for r in rows])
    history = doc.get("loss_history")
    return RunReport(
        workflow=doc["workflow"],
        config_hash=doc["config_hash"],
        train_metrics=metrics["train"],
        test_metrics=metrics["test"],
        latent_count=int(doc["latent_count"]),
        parity=parity,
        diagnostics=doc.get("diagnostics", {}),
        loss_history=None if history is None else tuple(history),
    )


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def emit_report(report: RunReport, out_dir) -> Dict[str, str]:
    """Write report.json / metrics.csv / parity.csv (+ loss_history.csv
    when the workflow trained an autoencoder).  Returns {name: path}."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    doc = report_to_dict(report)
    paths["report.json"] = os.path.join(out_dir, "report.json")
    write_json(paths["report.json"], doc)

    metrics_rows = [
        [split, format_float(m.r2), format_float(m.rmse), format_float(m.mape)]
        for split, m in (("train", report.train_metrics),
                         ("test", report.test_metrics))
    ]
    paths["metrics.csv"] = os.path.join(out_dir, "metrics.csv")
    _write_text(paths["metrics.csv"],
                _csv_text(["split", "r2", "rmse_nm", "mape_pct"], metrics_rows))

    parity_rows = [[r.sample_id, format_float(r.actual_nm),
                    format_float(r.predicted_nm), r.split]
                   for r in report.parity]
    paths["parity.csv"] = os.path.join(out_dir, "parity.csv")
    _write_text(paths["parity.csv"],
                _csv_text(["sample_id", "actual_nm", "predicted_nm", "split"],
                          parity_rows))

    if report.loss_history is not None:
        rows = [[format_float(row[k]) if k != "epoch" else str(int(row[k]))
                 for k in LOSS_COLUMNS] for row in report.loss_history]
        paths["loss_history.csv"] = os.path.join(out_dir, "loss_history.csv")
        _write_text(paths["loss_history.csv"], _csv_text(LOSS_COLUMNS, rows))
    return paths


def load_report(path) -> RunReport:
    with open(path) as fh:
        return report_from_dict(json.load(fh))


def load_parity(path) -> List[ParityRow]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [ParityRow(row["sample_id"], float(row["actual_nm"]),
                          float(row["predicted_nm"]), row["split"])
                for row in reader]
