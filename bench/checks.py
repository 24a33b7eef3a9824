"""Correctness checks, computed with numpy apart from the program.

Each check returns ``None`` when it holds and a one-line reason when it
does not, so a run can report every failed check at once.
"""

from __future__ import annotations

import csv
import hashlib
import os
from typing import Optional, Sequence

import numpy as np

# Prediction is row-wise, so one spectrum scored alone must match its
# row of a batch up to float reassociation in the matrix products.
ROW_RTOL = 1e-9


def r2(pred, actual) -> float:
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    ss_res = float(np.sum((actual - pred) ** 2))
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def rmse(pred, actual) -> float:
    diff = np.asarray(pred, dtype=float) - np.asarray(actual, dtype=float)
    return float(np.sqrt(np.mean(diff ** 2)))


def check_r2_floor(what: str, pred, actual, floor: float) -> Optional[str]:
    value = r2(pred, actual)
    if not value >= floor:
        return f"{what}: R2 {value:.5f} below the floor {floor}"
    return None


def check_rows_match(what: str, got, want, rtol: float = ROW_RTOL
                     ) -> Optional[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    err = np.abs(got - want)
    bad = err > rtol * np.abs(want)
    if np.any(bad):
        i = int(np.argmax(bad))
        return (f"{what}: {int(bad.sum())} rows differ beyond {rtol} relative, "
                f"first row {i}: {got[i]!r} != {want[i]!r}")
    return None


def check_exit(what: str, code: int, expected: int = 0) -> Optional[str]:
    if code != expected:
        return f"{what}: exit code {code}, expected {expected}"
    return None


def check_same_ids(what: str, got: Sequence[str], want: Sequence[str]
                   ) -> Optional[str]:
    if list(got) != list(want):
        return f"{what}: sample ids differ from the input"
    return None


def check_outlier_batch(code: int, got, clean, outlier_row: int
                        ) -> Optional[str]:
    """The batch with one scaled row succeeds when the program exits 0
    and every other row equals its prediction in the clean batch."""
    if code != 0:
        return f"outlier batch: exit code {code}"
    keep = np.ones(len(clean), dtype=bool)
    keep[outlier_row] = False
    return check_rows_match("outlier batch", np.asarray(got)[keep],
                            np.asarray(clean)[keep])


def check_coverage(what: str, covered: float, wall: float, floor: float
                   ) -> Optional[str]:
    """Layer spans must account for at least `floor` of the wall time."""
    if not covered >= floor * wall:
        return (f"{what}: spans below the CLI and workflow glue cover "
                f"{covered / wall:.1%} of the wall time, below {floor:.0%}")
    return None


def tree_digest(path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def check_digests(what: str, first: str, second: str) -> Optional[str]:
    if first != second:
        return f"{what}: rerun models/ digest {second[:12]} != {first[:12]}"
    return None


def read_predictions(path):
    """(ids, values) from a ``sample_id,diameter_nm`` CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["sample_id", "diameter_nm"]:
        raise ValueError(f"{path}: not a predictions file")
    return [r[0] for r in rows[1:]], np.array([float(r[1]) for r in rows[1:]])


def read_parity_test(path):
    """(ids, predicted) of the test rows of a run's parity.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["split"] == "test"]
    return ([r["sample_id"] for r in rows],
            np.array([float(r["predicted_nm"]) for r in rows]))
