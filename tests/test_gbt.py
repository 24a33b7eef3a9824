"""Tests for the boosted-tree regressor.  The two-point oracle below is
worked by hand: base = 0.5, gradients (0.5, -0.5), Hessians 1, so with
l2_leaf = 1 the leaf weights are -G/(H+1) = (-0.25, 0.25) and the
unit-rate update lands on (0.25, 0.75)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectramap.gbt import GbtSpec, _tree_predict, gbt_fit, gbt_predict


def test_spec_validation():
    with pytest.raises(ValueError):
        GbtSpec(n_trees=0)
    with pytest.raises(ValueError):
        GbtSpec(max_depth=-1)
    with pytest.raises(ValueError):
        GbtSpec(learning_rate=0.0)
    with pytest.raises(ValueError):
        GbtSpec(learning_rate=1.5)
    with pytest.raises(ValueError):
        GbtSpec(min_samples_leaf=0)
    with pytest.raises(ValueError):
        GbtSpec(l2_leaf=-0.1)


def test_input_validation():
    with pytest.raises(ValueError):
        gbt_fit(np.zeros((3, 1)), np.zeros(4))
    with pytest.raises(ValueError):
        gbt_fit(np.array([[np.nan]]), np.array([1.0]))


def test_two_point_hand_oracle():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = gbt_fit(X, y, GbtSpec(n_trees=1, max_depth=1,
                                  learning_rate=1.0, l2_leaf=1.0))
    assert model.base_score == 0.5
    assert np.array_equal(gbt_predict(model, X), [0.25, 0.75])
    assert model.train_mse == [0.0625]


def test_depth_zero_predicts_mean_exactly():
    # binary-exact values make the gradient sum cancel exactly
    X = np.arange(4.0)[:, None]
    y = np.array([1.0, 2.0, 3.0, 4.0])
    model = gbt_fit(X, y, GbtSpec(n_trees=5, max_depth=0))
    # every stump sees zero total gradient, so nothing moves off the mean
    assert np.array_equal(gbt_predict(model, X), np.full(4, 2.5))


def test_depth_zero_stays_at_mean_on_random_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    model = gbt_fit(X, y, GbtSpec(n_trees=5, max_depth=0))
    assert np.allclose(gbt_predict(model, X), y.mean(), rtol=0, atol=1e-12)


def test_perfect_split_reaches_zero_mse():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([2.0, 2.0, 8.0, 8.0])
    model = gbt_fit(X, y, GbtSpec(n_trees=1, max_depth=1,
                                  learning_rate=1.0, l2_leaf=0.0))
    assert np.array_equal(gbt_predict(model, X), y)
    assert model.train_mse == [0.0]


def test_train_mse_non_increasing():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 4))
    y = X[:, 0] ** 2 + np.sin(X[:, 1]) + 0.1 * rng.normal(size=60)
    model = gbt_fit(X, y, GbtSpec(n_trees=50, max_depth=3, learning_rate=0.2))
    mse = np.asarray(model.train_mse)
    assert np.all(np.diff(mse) <= 1e-12)
    assert mse[-1] < mse[0]


def test_constant_target_gives_pure_leaves():
    X = np.arange(10.0)[:, None]
    y = np.full(10, 7.0)
    model = gbt_fit(X, y, GbtSpec(n_trees=3, max_depth=2))
    # no split can improve a constant target, so each tree is one leaf
    assert all("leaf" in t and t["leaf"] == 0.0 for t in model.trees)
    assert np.array_equal(gbt_predict(model, X), y)


def test_tie_breaks_toward_first_feature():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, 1.0, 5.0, 5.0])
    model = gbt_fit(X, y, GbtSpec(n_trees=1, max_depth=1))
    # both columns give the same gain; strict improvement keeps column 0
    assert model.trees[0]["feature"] == 0


def test_tie_breaks_toward_first_threshold():
    X = np.arange(4.0)[:, None]
    y = np.array([1.0, 0.0, 0.0, 1.0])
    model = gbt_fit(X, y, GbtSpec(n_trees=1, max_depth=1))
    # splitting off row 0 or row 3 gains the same; the lower threshold stays
    assert model.trees[0]["threshold"] == 0.5


def test_min_samples_leaf_constrains_threshold():
    X = np.arange(6.0)[:, None]
    y = np.array([0.0, 10.0, 10.0, 10.0, 10.0, 10.0])
    free = gbt_fit(X, y, GbtSpec(n_trees=1, max_depth=1, min_samples_leaf=1))
    assert free.trees[0]["threshold"] == 0.5
    held = gbt_fit(X, y, GbtSpec(n_trees=1, max_depth=1, min_samples_leaf=3))
    # only the 3/3 partition is allowed, i.e. the split between rows 2 and 3
    assert held.trees[0]["threshold"] == 2.5


def test_deeper_trees_fit_interactions():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, size=(200, 2))
    y = np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)
    model = gbt_fit(X, y, GbtSpec(n_trees=40, max_depth=2, learning_rate=0.3))
    pred = gbt_predict(model, X)
    assert np.mean(np.sign(pred) == y) > 0.95


def test_predict_single_row():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 2))
    y = X[:, 0]
    model = gbt_fit(X, y, GbtSpec(n_trees=5, max_depth=2))
    assert gbt_predict(model, X[4]) == pytest.approx(gbt_predict(model, X)[4])


def test_training_is_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    spec = GbtSpec(n_trees=10, max_depth=3)
    a = gbt_predict(gbt_fit(X, y, spec), X)
    b = gbt_predict(gbt_fit(X, y, spec), X)
    assert np.array_equal(a, b)


# -- bit identity ----------------------------------------------------------

def pin_inputs():
    """225 x 9 Gaussian inputs and a smooth target with noise."""
    rng = np.random.default_rng(27)
    X = rng.normal(size=(225, 9))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=225)
    return X, y


def pinned_trees():
    """Every fit that tests/data/gbt_trees.json holds, computed by the
    current code: the trees, the base score and the training MSE."""
    X, y = pin_inputs()
    flat = X.copy()
    flat[:, 4] = 1.5
    cases = {
        "default": (X, GbtSpec()),
        "rounded": (np.round(X, 1), GbtSpec(n_trees=30)),
        "constant_column": (flat, GbtSpec(n_trees=30)),
        "min_samples_leaf_3": (X, GbtSpec(n_trees=30, min_samples_leaf=3)),
        "l2_leaf_0": (X, GbtSpec(n_trees=30, l2_leaf=0.0)),
        "max_depth_0": (X, GbtSpec(n_trees=5, max_depth=0)),
    }
    out = {}
    for name, (inputs, spec) in cases.items():
        model = gbt_fit(inputs, y, spec)
        out[name] = {"base_score": model.base_score, "trees": model.trees,
                     "train_mse": model.train_mse}
    return out


def test_fits_equal_the_pinned_trees():
    # tests/data/gbt_trees.json was written by pinned_trees() while the
    # split scan still carried a Hessian array; JSON keeps every float's
    # repr, so == compares bits
    import json
    import os
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "gbt_trees.json")) as fh:
        want = json.load(fh)
    got = pinned_trees()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def oracle_best_split(X, g, h, idx, min_leaf, lam):
    """The split scan as it carried a Hessian array and scored one
    position at a time, kept verbatim as the reference."""
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


def oracle_build_tree(X, g, h, idx, depth, spec):
    if depth < spec.max_depth and len(idx) >= 2 * spec.min_samples_leaf:
        split = oracle_best_split(X, g, h, idx, spec.min_samples_leaf,
                                  spec.l2_leaf)
        if split is not None:
            _, f, thr, left, right = split
            return {
                "feature": int(f),
                "threshold": float(thr),
                "left": oracle_build_tree(X, g, h, left, depth + 1, spec),
                "right": oracle_build_tree(X, g, h, right, depth + 1, spec),
            }
    G = g[idx].sum()
    H = h[idx].sum()
    return {"leaf": float(-G / (H + spec.l2_leaf))}


def oracle_fit(X, y, spec):
    pred = np.full(y.size, float(y.mean()))
    trees, history = [], []
    ones = np.ones(y.size)
    for _ in range(spec.n_trees):
        tree = oracle_build_tree(X, pred - y, ones, np.arange(y.size), 0, spec)
        trees.append(tree)
        pred = pred + spec.learning_rate * _tree_predict(tree, X)
        history.append(float(np.mean((pred - y) ** 2)))
    return trees, history


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
       p=st.integers(1, 10),
       kind=st.sampled_from(("normal", "rounded", "integer")),
       n_trees=st.integers(1, 20), max_depth=st.integers(0, 4),
       min_leaf=st.integers(1, 5), l2_leaf=st.sampled_from((0.0, 0.3, 1.0)))
@settings(max_examples=60, deadline=None)
def test_fits_match_the_hessian_array_scan(seed, n, p, kind, n_trees,
                                           max_depth, min_leaf, l2_leaf):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X[:, 0] * rng.normal() + rng.normal(size=n)
    if kind == "rounded":
        X = np.round(X, 1)
    elif kind == "integer":
        # integer targets too: equal gains at different split points
        X = rng.integers(-3, 4, size=(n, p)).astype(float)
        y = rng.integers(-2, 3, size=n).astype(float)
    spec = GbtSpec(n_trees=n_trees, max_depth=max_depth,
                   min_samples_leaf=min_leaf, l2_leaf=l2_leaf)
    model = gbt_fit(X, y, spec)
    trees, history = oracle_fit(X, y, spec)
    assert model.trees == trees
    assert model.train_mse == history
