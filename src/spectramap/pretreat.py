"""Spectral pretreatment: region filtering, baselines, normalization.

Conventions fixed here once:
  * the fingerprint window is 850-1800 cm^-1 and the default exclusion
    band 1552-1560 cm^-1 (atmospheric oxygen line), both inclusive;
  * SNV uses the sample (n-1) standard deviation;
  * baselines are fitted on the already region-filtered grid;
  * rubber-band baselines come from the exact lower convex hull
    (monotone chain, cross products, no tolerance fudging).  The chain
    runs on Python floats, which are the same IEEE-754 doubles as the
    array entries, so each decision and the strict collinear rule are
    those of the arithmetic on the arrays themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union, Optional

import numpy as np

from .dataset import SpectraSet, WavenumberGrid

FINGERPRINT_WINDOW = (850.0, 1800.0)
OXYGEN_BAND = (1552.0, 1560.0)


@dataclass(frozen=True)
class PretreatmentSpec:
    """What to do to every spectrum before modeling.

    region is "global", "fingerprint" or a (low, high) pair; exclusions
    is a list of inclusive (low, high) bands removed from the grid;
    baseline in {"none", "linear_fit", "rubber_band"}; normalization in
    {"none", "snv", "minmax"}.
    """

    region: Union[str, Tuple[float, float]] = "global"
    exclusions: Tuple[Tuple[float, float], ...] = ()
    baseline: str = "none"
    normalization: str = "none"

    def __post_init__(self):
        if isinstance(self.region, str):
            if self.region not in ("global", "fingerprint"):
                raise ValueError(f"unknown region {self.region!r}")
        elif not self.region[0] < self.region[1]:
            raise ValueError("custom region must have low < high")
        if any(not lo < hi for lo, hi in self.exclusions):
            raise ValueError("exclusion band must have low < high")
        if self.baseline not in ("none", "linear_fit", "rubber_band"):
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if self.normalization not in ("none", "snv", "minmax"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


def region_mask(grid: WavenumberGrid, spec: PretreatmentSpec) -> np.ndarray:
    """Boolean mask of grid points kept by the region window and exclusions."""
    w = grid.values
    if spec.region == "global":
        mask = np.ones(w.size, dtype=bool)
    else:
        lo, hi = FINGERPRINT_WINDOW if spec.region == "fingerprint" else spec.region
        if lo > w[-1] or hi < w[0]:
            raise ValueError("region window lies outside the grid range")
        mask = (w >= lo) & (w <= hi)
    for lo, hi in spec.exclusions:
        if lo > w[-1] or hi < w[0]:
            raise ValueError("exclusion band lies outside the grid range")
        mask &= ~((w >= lo) & (w <= hi))
    if not mask.any():
        raise ValueError("region filtering removed every grid point")
    return mask


def apply_region(dataset: SpectraSet, spec: PretreatmentSpec) -> SpectraSet:
    mask = region_mask(dataset.grid, spec)
    grid = WavenumberGrid(dataset.grid.values[mask])
    return dataset.with_grid(grid, dataset.intensities[:, mask])


def baseline_linear_fit(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Subtract the least-squares line fitted to (w, y).

    Accepts a single spectrum or a (n, m) stack; returns the corrected
    values.  A spectrum that already is a line maps to zeros.
    """
    w = np.asarray(w, dtype=float)
    Y = np.atleast_2d(np.asarray(y, dtype=float))
    A = np.column_stack([np.ones_like(w), w])
    coef, *_ = np.linalg.lstsq(A, Y.T, rcond=None)
    out = Y - (A @ coef).T
    return out[0] if np.ndim(y) == 1 else out


def lower_convex_hull(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of the points (w_i, y_i).

    Monotone-chain construction over the already increasing w; the
    cross-product test is exact and collinear interior points are
    dropped.  Endpoints are always vertices.  The chain runs on Python
    floats: the same doubles, so the same decisions, without boxing a
    numpy scalar per step.
    """
    return np.array(_lower_hull(w.tolist(), y.tolist()), dtype=int)


def _lower_hull(w: List[float], y: List[float]) -> List[int]:
    hull: List[int] = []
    for i in range(len(w)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # b stays only if a->b->i is a strict left turn; collinear b is dropped
            cross = (w[b] - w[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (w[i] - w[a])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def baseline_rubber_band(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Subtract the rubber-band baseline (lower convex hull interpolant).

    The corrected spectrum is >= 0 up to interpolation rounding and is
    exactly zero on at least the two hull endpoints.
    """
    w = np.asarray(w, dtype=float)
    if np.any(np.diff(w) <= 0):
        raise ValueError("grid not increasing")
    Y = np.atleast_2d(np.asarray(y, dtype=float))
    out = np.empty_like(Y)
    w_list = w.tolist()
    for i, row in enumerate(Y):
        hull = _lower_hull(w_list, row.tolist())
        band = np.interp(w, w[hull], row[hull])
        out[i] = row - band
    return out[0] if np.ndim(y) == 1 else out


def normalize_snv(y: np.ndarray) -> np.ndarray:
    """Standard normal variate: per spectrum, subtract the mean and
    divide by the sample (n-1) standard deviation."""
    Y = np.atleast_2d(np.asarray(y, dtype=float))
    if Y.shape[1] < 2:
        raise ValueError("SNV needs at least two points per spectrum")
    mu = Y.mean(axis=1, keepdims=True)
    sd = Y.std(axis=1, ddof=1, keepdims=True)
    if np.any(sd == 0):
        raise ValueError("SNV undefined for a constant spectrum")
    out = (Y - mu) / sd
    return out[0] if np.ndim(y) == 1 else out


def normalize_minmax(y: np.ndarray) -> np.ndarray:
    """Scale each spectrum to min 0, max 1."""
    Y = np.atleast_2d(np.asarray(y, dtype=float))
    lo = Y.min(axis=1, keepdims=True)
    hi = Y.max(axis=1, keepdims=True)
    if np.any(hi == lo):
        raise ValueError("min-max scaling undefined for a constant spectrum")
    out = (Y - lo) / (hi - lo)
    return out[0] if np.ndim(y) == 1 else out


def zscore_columns(M: np.ndarray, mean: Optional[np.ndarray] = None,
                   sd: Optional[np.ndarray] = None):
    """Standardize columns to mean 0, sd 1 (sample sd, n-1).

    With mean/sd given, applies those constants instead (used to carry
    training statistics onto held-out rows).  Returns (M', mean, sd).
    Raises on a constant column.
    """
    M = np.asarray(M, dtype=float)
    if mean is None:
        if M.shape[0] < 2:
            raise ValueError("column z-scoring needs at least two rows")
        mean = M.mean(axis=0)
        sd = M.std(axis=0, ddof=1)
        if np.any(sd == 0):
            raise ValueError("constant column cannot be z-scored")
    return (M - mean) / sd, mean, sd


def apply_pretreatment(dataset: SpectraSet, spec: PretreatmentSpec) -> SpectraSet:
    """Region filter, then baseline, then normalization, per spectrum."""
    out = apply_region(dataset, spec)
    w = out.grid.values
    X = out.intensities
    if spec.baseline == "linear_fit":
        X = baseline_linear_fit(w, X)
    elif spec.baseline == "rubber_band":
        X = baseline_rubber_band(w, X)
    if spec.normalization == "snv":
        X = normalize_snv(X)
    elif spec.normalization == "minmax":
        X = normalize_minmax(X)
    return out.with_intensities(X)


@dataclass(frozen=True)
class ColumnScaler:
    """Feature-column filter plus standardization fitted on training rows.

    keep masks the raw feature columns (constant ones get dropped);
    mean/sd are per kept column.  A non-standardizing scaler carries
    mean 0 and sd 1.
    """

    keep: np.ndarray
    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self):
        keep = np.asarray(self.keep, dtype=bool)
        mean = np.asarray(self.mean, dtype=float)
        sd = np.asarray(self.sd, dtype=float)
        if keep.ndim != 1 or mean.shape != sd.shape or mean.ndim != 1:
            raise ValueError("scaler arrays must be 1-D and aligned")
        if int(keep.sum()) != mean.size:
            raise ValueError("mean/sd length must match kept column count")
        if np.any(sd <= 0):
            raise ValueError("sd entries must be positive")
        for name, arr in (("keep", keep), ("mean", mean), ("sd", sd)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def fit_column_scaler(F: np.ndarray, standardize: bool = True):
    """Drop constant columns, optionally z-score the rest; returns
    (scaler, transformed F)."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] < 2:
        raise ValueError("need a 2-D feature matrix with >= 2 rows")
    keep = F.std(axis=0, ddof=1) > 0
    if not keep.any():
        raise ValueError("every feature column is constant")
    kept = F[:, keep]
    if standardize:
        Z, mean, sd = zscore_columns(kept)
    else:
        Z = kept
        mean = np.zeros(kept.shape[1])
        sd = np.ones(kept.shape[1])
    return ColumnScaler(keep=keep, mean=mean, sd=sd), Z


def apply_column_scaler(scaler: ColumnScaler, F: np.ndarray) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != scaler.keep.size:
        raise ValueError("feature width does not match the scaler")
    return (F[:, scaler.keep] - scaler.mean) / scaler.sd
