"""Single-target partial least squares (PLS1) via NIPALS with X-only
deflation.

Both blocks are mean-centered internally (constants stored on the
model); variance scaling of X columns, when wanted, happens upstream.
Each NIPALS step is closed-form: w is the normalized covariance X'y of
the deflated block and t = Xw.  X scores of different components are
mutually orthogonal.  Prediction uses B = W (P'W)^-1 Q'.  Deflation is
sequential, so the first k components of a fit are the k-component fit:
the component search fits each CV fold once and scores every count k
on a prefix of that fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .dataset import kfold_indices
from .errors import NumericError


@dataclass(eq=False)
class PlsModel:
    n_components: int
    x_mean: np.ndarray
    y_mean: np.ndarray
    weights: np.ndarray       # (p, A)
    x_loadings: np.ndarray    # (p, A)
    y_loadings: np.ndarray    # (1, A)
    x_scores: np.ndarray      # (n, A)
    target_is_1d: bool        # always True; kept so saved models load

    @property
    def coefficients(self) -> np.ndarray:
        """Regression matrix B (p, 1) in centered coordinates."""
        M = self.x_loadings.T @ self.weights
        return self.weights @ np.linalg.solve(M, self.y_loadings.T)


def _nipals(X, y, limit: int) -> Tuple[np.ndarray, np.ndarray, List[tuple]]:
    """Center X and y, then run NIPALS for at most `limit` components,
    stopping at the first whose weight or score vanishes (the block's
    rank is used up).  Returns the means and the (w, p, q, t) list."""
    X, Y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if Y.ndim != 1:
        raise ValueError("y must be 1-D: PLS here fits a single target")
    Y = Y[:, None]
    if Y.shape[0] != X.shape[0]:
        raise ValueError("X and Y disagree on sample count")
    x_mean, y_mean = X.mean(axis=0), Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    x_scale = np.linalg.norm(Xc)
    u = Yc[:, 0]
    comps: List[tuple] = []
    for _ in range(limit):
        w = Xc.T @ u
        nw = np.linalg.norm(w)
        if nw < 1e-14 * max(1.0, np.linalg.norm(u)) * max(1.0, x_scale):
            break
        w = w / nw
        t = Xc @ w
        if np.linalg.norm(t) < 1e-12 * x_scale:
            break
        tt = t @ t
        p_load = Xc.T @ t / tt
        comps.append((w, p_load, Yc.T @ t / tt, t))
        # not in place: an F-ordered X would keep its layout and round differently
        Xc = Xc - np.outer(t, p_load)
    return x_mean, y_mean, comps


def _model(x_mean, y_mean, comps: List[tuple]) -> PlsModel:
    # fresh C-contiguous columns, so a prefix rounds like a fit of its size
    W, P, Q, T = (np.column_stack(c) for c in zip(*comps))
    return PlsModel(len(comps), x_mean, y_mean, W, P, Q, T, True)


def pls_fit(X: np.ndarray, y: np.ndarray, n_components: int) -> PlsModel:
    X = np.asarray(X, dtype=float)
    if not 1 <= n_components <= min(X.shape[0] - 1, X.shape[1]):
        raise ValueError("n_components out of range")
    x_mean, y_mean, comps = _nipals(X, y, n_components)
    if len(comps) < n_components:
        raise NumericError(f"zero-variance component at index {len(comps)}")
    return _model(x_mean, y_mean, comps)


def pls_predict(model: PlsModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    one = X.ndim == 1
    if one:
        X = X[None, :]
    out = ((X - model.x_mean) @ model.coefficients + model.y_mean)[:, 0]
    return out[0] if one else out


def pls_choose_components(X: np.ndarray, y: np.ndarray, k_max: int,
                          folds: int = 10, seed: int = 0) -> Tuple[int, np.ndarray]:
    """Pick the component count by k-fold CV MSE; exact ties go to fewer
    components.  Each fold is fitted once and count k is scored on the
    first k components of that fit.  A count past what some fold
    supports (its rank, len(train) - 1 or the column count) scores inf."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    sse = np.zeros(k_max)
    top, count = k_max, 0
    for tr, val in kfold_indices(X.shape[0], folds, seed):
        x_mean, y_mean, comps = _nipals(X[tr], y[tr],
                                        min(top, len(tr) - 1, X.shape[1]))
        top = len(comps)
        for k in range(1, top + 1):
            pred = pls_predict(_model(x_mean, y_mean, comps[:k]), X[val])
            sse[k - 1] += float(np.sum((pred - y[val]) ** 2))
        count += len(val)
    if top == 0:
        raise NumericError("every candidate component count failed")
    cv_mse = np.full(k_max, np.inf)
    cv_mse[:top] = sse[:top] / count
    best = 1 + int(np.argmin(cv_mse))  # argmin takes the first minimum
    return best, cv_mse
