"""Spectra containers, CSV persistence and dataset splitting.

A spectra file is laid out one column per sample: the header row is
``wavenumber,<id1>,<id2>,...`` and every following row holds one grid
point, ``w,v1,v2,...``.  Sizes live in a separate two-column file
``sample_id,diameter_nm``.  Floats are written with ``repr`` so a
save/load round trip is bit-identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, List

import numpy as np


@dataclass(frozen=True)
class WavenumberGrid:
    """Strictly increasing, finite spectral axis in cm^-1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("grid must be a nonempty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid contains non-finite values")
        if np.any(np.diff(v) <= 0):
            raise ValueError("grid not increasing")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class SpectraSet:
    """A set of spectra on a common grid, optionally with size targets.

    intensities has shape (n_samples, n_wavenumbers); sample_ids are
    unique strings; sizes, when present, are strictly positive nm values
    aligned with sample_ids.
    """

    grid: WavenumberGrid
    intensities: np.ndarray
    sample_ids: Tuple[str, ...]
    sizes: Optional[np.ndarray] = None

    def __post_init__(self):
        X = np.asarray(self.intensities, dtype=float)
        if X.ndim != 2:
            raise ValueError("intensities must be 2-D (n_samples, n_wavenumbers)")
        if X.shape[1] != len(self.grid):
            raise ValueError("intensity row length does not match grid length")
        if not np.all(np.isfinite(X)):
            raise ValueError("intensities contain non-finite values")
        ids = tuple(str(s) for s in self.sample_ids)
        if len(ids) != X.shape[0]:
            raise ValueError("sample_ids length does not match intensity rows")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sample ids")
        X.setflags(write=False)
        object.__setattr__(self, "intensities", X)
        object.__setattr__(self, "sample_ids", ids)
        if self.sizes is not None:
            s = np.asarray(self.sizes, dtype=float)
            if s.shape != (X.shape[0],):
                raise ValueError("sizes length does not match sample count")
            if not np.all(np.isfinite(s)) or np.any(s <= 0):
                raise ValueError("sizes must be finite and > 0")
            s.setflags(write=False)
            object.__setattr__(self, "sizes", s)

    @property
    def n_samples(self) -> int:
        return self.intensities.shape[0]

    def subset(self, indices: Sequence[int]) -> "SpectraSet":
        idx = list(indices)
        return SpectraSet(
            grid=self.grid,
            intensities=self.intensities[idx],
            sample_ids=tuple(self.sample_ids[i] for i in idx),
            sizes=None if self.sizes is None else self.sizes[idx],
        )

    def with_intensities(self, X: np.ndarray) -> "SpectraSet":
        """Same samples on the same grid with replaced intensity values."""
        return SpectraSet(self.grid, X, self.sample_ids, self.sizes)

    def with_grid(self, grid: WavenumberGrid, X: np.ndarray) -> "SpectraSet":
        return SpectraSet(grid, X, self.sample_ids, self.sizes)


def format_float(x: float) -> str:
    # repr round-trips float64 exactly
    return repr(float(x))


def load_spectra(path, sizes_path=None) -> SpectraSet:
    """Load a one-column-per-sample spectra CSV, optionally attaching sizes.

    Raises ValueError on a malformed header, ragged rows, a non-increasing
    grid, duplicate ids, or sizes that do not cover every sample.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty spectra file")
        if len(header) < 2 or header[0] != "wavenumber":
            raise ValueError(f"{path}: header must start with 'wavenumber' and list sample ids")
        ids = [h.strip() for h in header[1:]]
        grid_vals: List[float] = []
        cols: List[List[float]] = [[] for _ in ids]
        for row in reader:
            if not row:
                continue
            if len(row) != len(ids) + 1:
                raise ValueError(f"{path}: row width {len(row)} does not match header")
            grid_vals.append(float(row[0]))
            for j, cell in enumerate(row[1:]):
                cols[j].append(float(cell))
    grid = WavenumberGrid(np.array(grid_vals))
    X = np.array(cols, dtype=float)  # (n_samples, n_wavenumbers)
    sizes = None
    if sizes_path is not None:
        table = load_sizes(sizes_path)
        missing = [s for s in ids if s not in table]
        if missing:
            raise ValueError(f"{sizes_path}: missing sizes for samples {missing}")
        extra = [s for s in table if s not in ids]
        if extra:
            raise ValueError(f"{sizes_path}: size rows with unknown sample ids {extra}")
        sizes = np.array([table[s] for s in ids])
    return SpectraSet(grid=grid, intensities=X, sample_ids=tuple(ids), sizes=sizes)


def save_spectra(dataset: SpectraSet, path, sizes_path=None) -> None:
    """Write a SpectraSet back to the one-column-per-sample layout."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavenumber"] + list(dataset.sample_ids))
        X = dataset.intensities
        for i, w in enumerate(dataset.grid.values):
            writer.writerow([format_float(w)]
                            + [format_float(v) for v in X[:, i]])
    if sizes_path is not None:
        if dataset.sizes is None:
            raise ValueError("dataset has no sizes to save")
        save_sizes(dict(zip(dataset.sample_ids, dataset.sizes)), sizes_path)


def load_sizes(path) -> dict:
    """Load a ``sample_id,diameter_nm`` table into an ordered dict."""
    table: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["sample_id", "diameter_nm"]:
            raise ValueError(f"{path}: expected header 'sample_id,diameter_nm'")
        for row in reader:
            if not row:
                continue
            sid = row[0].strip()
            if sid in table:
                raise ValueError(f"{path}: duplicate sample id {sid!r}")
            try:
                table[sid] = float(row[1])
            except (IndexError, ValueError):
                raise ValueError(f"{path}: line {reader.line_num} is not "
                                 f"'sample_id,diameter_nm': {row!r}") from None
    return table


def save_sizes(table: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "diameter_nm"])
        for sid, val in table.items():
            writer.writerow([sid, format_float(val)])


def split_indices(n: int, n_test: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Reproducible disjoint exhaustive train/test index split."""
    if not 0 < n_test < n:
        raise ValueError("n_test must satisfy 0 < n_test < n")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return train, test


def train_test_split(dataset: SpectraSet, n_test: int, seed: int):
    """Split a SpectraSet into (train, test, train_idx, test_idx)."""
    train_idx, test_idx = split_indices(dataset.n_samples, n_test, seed)
    return dataset.subset(train_idx), dataset.subset(test_idx), train_idx, test_idx


def kfold_indices(n: int, k: int, seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Seeded k-fold partition; fold sizes differ by at most one.

    Returns a list of (train_idx, val_idx) pairs whose validation sets
    partition range(n).
    """
    if not 2 <= k <= n:
        raise ValueError("k must satisfy 2 <= k <= n")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        val = np.sort(folds[i])
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        out.append((train, val))
    return out
