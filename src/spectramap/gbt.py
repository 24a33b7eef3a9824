"""Gradient-boosted regression trees, second-order style: each tree is
fitted to the per-sample gradients/Hessians of the squared loss
L = 1/2 (pred - y)^2, so g = pred - y and h = 1.  Leaf weights are
-G/(H + lambda); splits come from an exact greedy scan over every
feature's sorted values with gain

    1/2 [ GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l) ]

and ties broken toward the first candidate seen (features in index
order, thresholds ascending).  There is no sampling, so training is
deterministic; the seed field is kept for interface stability.  The
training MSE after every round is recorded and is non-increasing by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass(frozen=True)
class GbtSpec:
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_samples_leaf: int = 1
    l2_leaf: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 0:
            raise ValueError("need n_trees >= 1 and max_depth >= 0")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.min_samples_leaf < 1 or self.l2_leaf < 0:
            raise ValueError("bad leaf constraints")


@dataclass(eq=False)
class GbtModel:
    spec: GbtSpec
    base_score: float
    trees: List[dict]
    train_mse: List[float]


def _best_split(X, g, h, idx, min_leaf, lam):
    """Exact greedy split over the rows idx; returns (gain, feature,
    threshold, left_idx, right_idx) or None."""
    G = g[idx].sum()
    H = h[idx].sum()
    parent = G * G / (H + lam)
    best = None
    for f in range(X.shape[1]):
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sg = g[idx][order]
        sh = h[idx][order]
        cg = np.cumsum(sg)
        ch = np.cumsum(sh)
        for pos in range(min_leaf - 1, len(idx) - min_leaf):
            if sv[pos] == sv[pos + 1]:
                continue
            GL, HL = cg[pos], ch[pos]
            GR, HR = G - GL, H - HL
            gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent)
            if best is None or gain > best[0]:
                thr = 0.5 * (sv[pos] + sv[pos + 1])
                best = (gain, f, thr, idx[order[:pos + 1]], idx[order[pos + 1:]])
    if best is None or best[0] <= 0:
        return None
    return best


def _build_tree(X, g, h, idx, depth, spec):
    if depth < spec.max_depth and len(idx) >= 2 * spec.min_samples_leaf:
        split = _best_split(X, g, h, idx, spec.min_samples_leaf, spec.l2_leaf)
        if split is not None:
            _, f, thr, left, right = split
            return {
                "feature": int(f),
                "threshold": float(thr),
                "left": _build_tree(X, g, h, left, depth + 1, spec),
                "right": _build_tree(X, g, h, right, depth + 1, spec),
            }
    G = g[idx].sum()
    H = h[idx].sum()
    return {"leaf": float(-G / (H + spec.l2_leaf))}


def _eval_tree(tree, X, idx, out):
    if "leaf" in tree:
        out[idx] = tree["leaf"]
        return
    mask = X[idx, tree["feature"]] <= tree["threshold"]
    _eval_tree(tree["left"], X, idx[mask], out)
    _eval_tree(tree["right"], X, idx[~mask], out)


def _tree_predict(tree, X):
    out = np.empty(X.shape[0])
    _eval_tree(tree, X, np.arange(X.shape[0]), out)
    return out


def gbt_fit(X: np.ndarray, y: np.ndarray, spec: Optional[GbtSpec] = None) -> GbtModel:
    if spec is None:
        spec = GbtSpec()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X and y disagree on sample count")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("inputs contain non-finite values")
    base = float(y.mean())
    pred = np.full(y.size, base)
    trees: List[dict] = []
    history: List[float] = []
    ones = np.ones(y.size)
    all_idx = np.arange(y.size)
    for _ in range(spec.n_trees):
        g = pred - y
        tree = _build_tree(X, g, ones, all_idx, 0, spec)
        trees.append(tree)
        pred = pred + spec.learning_rate * _tree_predict(tree, X)
        history.append(float(np.mean((pred - y) ** 2)))
    return GbtModel(spec, base, trees, history)


def gbt_predict(model: GbtModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    one = X.ndim == 1
    if one:
        X = X[None, :]
    pred = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        pred = pred + model.spec.learning_rate * _tree_predict(tree, X)
    return pred[0] if one else pred
