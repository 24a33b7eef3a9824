"""Partial least squares regression via NIPALS with X-only deflation.

Both blocks are mean-centered internally (constants stored on the
model); variance scaling of X columns, when wanted, happens upstream.
For a single-column Y the NIPALS step is closed-form; multi-column Y
iterates weight/score updates to a fixed point (tolerance 1e-12 on the
score change, at most 500 sweeps).  X scores of different components
are mutually orthogonal.  Prediction uses B = W (P'W)^-1 Q'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dataset import kfold_indices
from .errors import NumericError

NIPALS_TOL = 1e-12
NIPALS_MAX_ITER = 500


@dataclass(eq=False)
class PlsModel:
    n_components: int
    x_mean: np.ndarray
    y_mean: np.ndarray
    weights: np.ndarray       # (p, A)
    x_loadings: np.ndarray    # (p, A)
    y_loadings: np.ndarray    # (q, A)
    x_scores: np.ndarray      # (n, A)
    target_is_1d: bool

    @property
    def coefficients(self) -> np.ndarray:
        """Regression matrix B (p, q) in centered coordinates."""
        M = self.x_loadings.T @ self.weights
        return self.weights @ np.linalg.solve(M, self.y_loadings.T)


def pls_fit(X: np.ndarray, Y: np.ndarray, n_components: int) -> PlsModel:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    target_is_1d = Y.ndim == 1
    if target_is_1d:
        Y = Y[:, None]
    n, p = X.shape
    if Y.shape[0] != n:
        raise ValueError("X and Y disagree on sample count")
    if not 1 <= n_components <= min(n - 1, p):
        raise ValueError("n_components out of range")
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    x_scale = np.linalg.norm(Xc)
    if x_scale == 0:
        raise NumericError("zero-variance X block")
    W = np.empty((p, n_components))
    P = np.empty((p, n_components))
    Q = np.empty((Y.shape[1], n_components))
    T = np.empty((n, n_components))
    for a in range(n_components):
        u = Yc[:, 0]
        t = None
        for _ in range(NIPALS_MAX_ITER):
            w = Xc.T @ u
            nw = np.linalg.norm(w)
            if nw < 1e-14 * max(1.0, np.linalg.norm(u)) * max(1.0, x_scale):
                raise NumericError(f"zero-variance component at index {a}")
            w = w / nw
            t_new = Xc @ w
            if np.linalg.norm(t_new) < 1e-12 * x_scale:
                raise NumericError(f"zero-variance component at index {a}")
            q = Yc.T @ t_new / (t_new @ t_new)
            if Y.shape[1] == 1:
                t = t_new
                break
            u = Yc @ q / (q @ q)
            if t is not None and np.linalg.norm(t_new - t) <= NIPALS_TOL * np.linalg.norm(t_new):
                t = t_new
                break
            t = t_new
        else:
            raise NumericError("NIPALS failed to converge")
        tt = t @ t
        p_load = Xc.T @ t / tt
        q_load = Yc.T @ t / tt
        W[:, a] = w
        P[:, a] = p_load
        Q[:, a] = q_load
        T[:, a] = t
        Xc = Xc - np.outer(t, p_load)
    return PlsModel(n_components, x_mean, y_mean, W, P, Q, T, target_is_1d)


def pls_predict(model: PlsModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    one = X.ndim == 1
    if one:
        X = X[None, :]
    out = (X - model.x_mean) @ model.coefficients + model.y_mean
    if model.target_is_1d:
        out = out[:, 0]
    return out[0] if one else out


def pls_choose_components(X: np.ndarray, Y: np.ndarray, k_max: int,
                          folds: int = 10, seed: int = 0) -> Tuple[int, np.ndarray]:
    """Pick the component count by k-fold CV MSE; identical folds are
    reused for every candidate and exact ties go to fewer components.
    Candidates whose fit degenerates (rank exhausted) score inf."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    splits = kfold_indices(n, folds, seed)
    cv_mse = np.full(k_max, np.inf)
    for k in range(1, k_max + 1):
        total, count = 0.0, 0
        ok = True
        for tr, val in splits:
            try:
                model = pls_fit(X[tr], Y[tr], k)
            except (NumericError, ValueError):
                ok = False
                break
            pred = pls_predict(model, X[val])
            total += float(np.sum((pred - Y[val]) ** 2))
            count += pred.size
        if ok:
            cv_mse[k - 1] = total / count
    if not np.any(np.isfinite(cv_mse)):
        raise NumericError("every candidate component count failed")
    best = 1 + int(np.argmin(cv_mse))  # argmin takes the first minimum
    return best, cv_mse
