"""Tests for the partial least squares code.

The structural facts being pinned down: the first weight vector is the
normalized covariance direction X_c' y_c, scores of different components
are orthogonal, a full set of components reproduces ordinary least
squares, a rank-deficient X supports exactly rank(X) components
before the deflated block runs out of variance, and the component
search, which fits each fold once, scores every count exactly as
refitting that count would.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectramap.dataset import kfold_indices
from spectramap.errors import NumericError
from spectramap.pls import pls_choose_components, pls_fit, pls_predict


def _rank3_problem(seed=0, n=40, p=6):
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(n, 3))
    P = rng.normal(size=(3, p))
    X = T @ P
    y = T @ np.array([2.0, -1.0, 0.5]) + 4.0
    return X, y


def test_input_validation():
    X = np.zeros((10, 3))
    with pytest.raises(ValueError):
        pls_fit(X, np.zeros(9), 1)
    with pytest.raises(ValueError):
        pls_fit(X, np.zeros(10), 0)
    with pytest.raises(ValueError):
        pls_fit(X, np.zeros(10), 4)


def test_a_2d_target_is_refused():
    X = np.random.default_rng(0).normal(size=(10, 3))
    for Y in (np.zeros((10, 1)), np.zeros((10, 2))):
        with pytest.raises(ValueError, match="1-D"):
            pls_fit(X, Y, 1)
        with pytest.raises(ValueError, match="1-D"):
            pls_choose_components(X, Y, 2, folds=3)


def test_zero_variance_x_raises():
    X = np.ones((8, 3))
    y = np.arange(8.0)
    with pytest.raises(NumericError):
        pls_fit(X, y, 1)


def test_first_weight_is_covariance_direction():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 6))
    y = rng.normal(size=30)
    model = pls_fit(X, y, 1)
    w = (X - X.mean(axis=0)).T @ (y - y.mean())
    w = w / np.linalg.norm(w)
    assert np.allclose(model.weights[:, 0], w, atol=1e-12)


def test_scores_are_orthogonal():
    X, y = _rank3_problem(seed=1)
    model = pls_fit(X, y, 3)
    G = model.x_scores.T @ model.x_scores
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) <= 1e-8 * np.max(np.diag(G))


def test_rank_recovers_target_exactly():
    X, y = _rank3_problem()
    model = pls_fit(X, y, 3)
    pred = pls_predict(model, X)
    assert np.max(np.abs(pred - y)) < 1e-8


def test_component_past_rank_raises():
    X, y = _rank3_problem()
    with pytest.raises(NumericError):
        pls_fit(X, y, 4)


def test_chooser_finds_planted_rank():
    X, y = _rank3_problem()
    best, cv_mse = pls_choose_components(X, y, 5, folds=5, seed=0)
    assert best == 3
    # ranks past 3 fail inside every fold and score inf
    assert np.all(np.isinf(cv_mse[3:]))


def test_chooser_on_noise_prefers_one_component():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 8))
    y = rng.normal(size=60)
    best, cv_mse = pls_choose_components(X, y, 5, folds=5, seed=0)
    assert best == 1
    assert np.all(np.isfinite(cv_mse))


def test_chooser_raises_when_everything_fails():
    X = np.ones((12, 3))
    y = np.arange(12.0)
    with pytest.raises(NumericError):
        pls_choose_components(X, y, 2, folds=3, seed=0)


def test_full_rank_equals_least_squares():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 5))
    y = rng.normal(size=50)
    model = pls_fit(X, y, 5)
    Xc = X - X.mean(axis=0)
    beta, *_ = np.linalg.lstsq(Xc, y - y.mean(), rcond=None)
    assert np.allclose(model.coefficients[:, 0], beta, atol=1e-10)
    assert np.allclose(pls_predict(model, X),
                       Xc @ beta + y.mean(), atol=1e-10)


def test_mean_input_predicts_mean_target():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(25, 4))
    y = rng.normal(size=25)
    model = pls_fit(X, y, 2)
    assert pls_predict(model, X.mean(axis=0)) == pytest.approx(y.mean())


def test_single_row_prediction():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model = pls_fit(X, y, 2)
    assert pls_predict(model, X[7]) == pytest.approx(pls_predict(model, X)[7])


def choose_oracle(X, y, k_max, folds, seed):
    """The component search by refitting: every count k is fitted from
    scratch in every fold, and a count that some fold cannot fit
    (NumericError or ValueError) scores inf."""
    splits = kfold_indices(X.shape[0], folds, seed)
    cv_mse = np.full(k_max, np.inf)
    for k in range(1, k_max + 1):
        total, count = 0.0, 0
        ok = True
        for tr, val in splits:
            try:
                model = pls_fit(X[tr], y[tr], k)
            except (NumericError, ValueError):
                ok = False
                break
            pred = pls_predict(model, X[val])
            total += float(np.sum((pred - y[val]) ** 2))
            count += pred.size
        if ok:
            cv_mse[k - 1] = total / count
    if not np.any(np.isfinite(cv_mse)):
        raise NumericError("every candidate component count failed")
    return 1 + int(np.argmin(cv_mse)), cv_mse


@settings(max_examples=60, deadline=None)
@given(n=st.integers(6, 60), p=st.integers(1, 12), rank=st.integers(0, 12),
       k_max=st.integers(1, 12), folds=st.integers(2, 6),
       fortran=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_one_fit_per_fold_matches_refitting_every_count(n, p, rank, k_max,
                                                        folds, fortran, seed):
    # rank 0 draws full-rank X; otherwise X is a product of rank-r factors.
    # Both PLS workflows pass column-major blocks.
    rng = np.random.default_rng(seed)
    if rank == 0:
        X = rng.normal(size=(n, p))
    else:
        X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, p))
    if fortran:
        X = np.asfortranarray(X)
    y = X @ rng.normal(size=p) + rng.normal(size=n) + 300.0
    want_best, want_mse = choose_oracle(X, y, k_max, folds, seed % 97)
    best, cv_mse = pls_choose_components(X, y, k_max, folds=folds,
                                         seed=seed % 97)
    assert best == want_best
    assert cv_mse.tobytes() == want_mse.tobytes()
