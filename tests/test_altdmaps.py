"""Tests for alternating diffusion maps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spectramap.altdmaps import alt_coordinates, fit_altdmaps
from spectramap.dmaps import (EIG_TOL, KernelParams, fit_dmaps,
                              gaussian_kernel, gh_fit, pairwise_sq_distances,
                              density_normalize, epsilon_median_heuristic,
                              markov_normalize)
from spectramap.errors import NumericError


def two_sensor_data(n=400, alpha=1.3, dim=10, seed=7):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, 2 * np.pi, n)
    a = rng.uniform(0, 2 * np.pi, n)
    b = rng.uniform(0, 2 * np.pi, n)
    F1 = np.column_stack([np.cos(theta), np.sin(theta),
                          alpha * np.cos(a), alpha * np.sin(a)])
    F2 = np.column_stack([np.cos(theta), np.sin(theta),
                          alpha * np.cos(b), alpha * np.sin(b)])
    Q1 = np.linalg.qr(rng.normal(size=(dim, 4)))[0][:, :4].T
    Q2 = np.linalg.qr(rng.normal(size=(dim, 4)))[0][:, :4].T
    return F1 @ Q1, F2 @ Q2, theta


def linear_r2(Z, Y):
    A = np.column_stack([np.ones(len(Z)), Z])
    coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
    resid = Y - A @ coef
    return 1 - np.sum(resid ** 2) / np.sum((Y - Y.mean(axis=0)) ** 2)


class TestDegenerateCase:
    def test_identical_sensors_square_the_spectrum(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(70, 5))
        single = fit_dmaps(X, KernelParams(), n_eig=6)
        alt = fit_altdmaps(X, X, n_eig=6)
        assert np.max(np.abs(alt.eigenvalues - single.eigenvalues ** 2)) < 1e-8
        assert np.max(np.abs(alt.eigenvectors - single.eigenvectors)) < 1e-8

    def test_alt_kernel_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        X1 = rng.normal(size=(50, 4))
        X2 = rng.normal(size=(50, 3))

        def kernel(X):
            D2 = pairwise_sq_distances(X)
            from spectramap.dmaps import epsilon_median_heuristic
            W = gaussian_kernel(D2, epsilon_median_heuristic(D2))
            return markov_normalize(density_normalize(W))

        K_alt = kernel(X1) @ kernel(X2)
        assert np.max(np.abs(K_alt.sum(axis=1) - 1.0)) < 1e-12

    def test_leading_eigenpair_trivial(self):
        rng = np.random.default_rng(3)
        alt = fit_altdmaps(rng.normal(size=(60, 4)), rng.normal(size=(60, 6)),
                           n_eig=5)
        assert abs(alt.eigenvalues[0] - 1.0) < 1e-8
        col0 = alt_coordinates(alt, [0])[:, 0]
        assert np.ptp(col0) < 1e-8
        assert col0[0] == pytest.approx(1 / np.sqrt(60), rel=1e-6)


class TestCommonVariableIsolation:
    def test_common_circle_recovered_nuisances_suppressed(self):
        X1, X2, theta = two_sensor_data(n=400)
        Y = np.column_stack([np.cos(theta), np.sin(theta)])
        alt = fit_altdmaps(X1, X2, n_eig=8)
        r2_alt = linear_r2(alt_coordinates(alt, [1, 2]), Y)
        single = fit_dmaps(X1, n_eig=8)
        r2_single = linear_r2(single.eigenvectors[:, 1:3], Y)
        assert r2_alt > 0.9
        assert r2_alt > r2_single


class TestValidation:
    def test_misaligned_rows_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="aligned"):
            fit_altdmaps(rng.normal(size=(30, 3)), rng.normal(size=(29, 3)))

    def test_density_flag_must_agree(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        with pytest.raises(ValueError, match="density"):
            fit_altdmaps(X, X, KernelParams(density_normalize=True),
                         KernelParams(density_normalize=False))

    def test_index_bounds(self):
        rng = np.random.default_rng(6)
        alt = fit_altdmaps(rng.normal(size=(40, 3)), rng.normal(size=(40, 3)),
                           n_eig=4)
        with pytest.raises(ValueError):
            alt_coordinates(alt, [4])
        with pytest.raises(ValueError):
            alt_coordinates(alt, [])


# -- the subspace iteration against dense eig of K1 @ K2 -------------------

def markov(X, params=KernelParams()):
    D2 = pairwise_sq_distances(X)
    eps = params.epsilon or epsilon_median_heuristic(D2)
    W = gaussian_kernel(D2, eps)
    return markov_normalize(density_normalize(W) if params.density_normalize
                            else W)


def eig_oracle(A):
    """Eigenpairs of A by descending |lambda|, with each eigenvalue's
    condition number 1 / |y^T x| (unit left and right vectors)."""
    w, R = np.linalg.eig(A)
    order = np.argsort(-np.abs(w), kind="stable")
    w, R = w[order], R[:, order]
    wl, L = np.linalg.eig(A.T)
    L = L[:, [int(np.argmin(np.abs(wl - x))) for x in w]]
    kappa = 1.0 / np.abs(np.sum(L.conj() * R, axis=0))
    return w, R, kappa


@settings(max_examples=40, deadline=None)
@given(n=st.integers(20, 200), dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       shared=st.floats(0.0, 1.0), density=st.booleans(), k=st.integers(2, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_alt_pairs_match_dense_eig_of_the_product(n, dims, shared, density, k,
                                                  seed):
    """Each kept pair has a residual of at most EIG_TOL (lambda_0 = 1), so
    its eigenvalue lies within kappa EIG_TOL of the oracle's; twice that
    bounds it, and twice that over the eigenvalue gap bounds its unit
    vector, whose sign is fixed against the oracle's."""
    rng = np.random.default_rng(seed)
    X1 = rng.normal(size=(n, dims[0]))
    X2 = rng.normal(size=(n, dims[1]))
    X2[:, 0] = X1[:, 0] + shared * X2[:, 0]
    params = KernelParams(density_normalize=density)
    w, R, kappa = eig_oracle(markov(X1, params) @ markov(X2, params))
    assume(np.all(w[:k + 1].imag == 0) and abs(w[k - 1]) - abs(w[k]) > 1e-9)
    w, R = w.real, R.real
    alt = fit_altdmaps(X1, X2, params, params, n_eig=k)
    assert np.all(np.abs(alt.eigenvalues - w[:k]) <= 2 * kappa[:k] * EIG_TOL)
    for j in range(k):
        gap = np.min(np.abs(np.delete(w, j) - w[j]))
        x = R[:, j] / np.linalg.norm(R[:, j])
        v = alt.eigenvectors[:, j] * np.sign(alt.eigenvectors[:, j] @ x)
        assert np.linalg.norm(v - x) <= 2 * kappa[j] * EIG_TOL / gap + 1e-13


class TestSubspaceIteration:
    def test_block_covering_all_samples_matches_dense_eig(self):
        # 2 * n_eig >= n: the block spans the space in one sweep
        rng = np.random.default_rng(8)
        X1, X2 = rng.normal(size=(20, 3)), rng.normal(size=(20, 2))
        w, R, _ = eig_oracle(markov(X1) @ markov(X2))
        alt = fit_altdmaps(X1, X2, n_eig=10)
        assert np.all(w[:10].imag == 0)
        assert np.max(np.abs(alt.eigenvalues - w[:10].real)) < 1e-12
        aligned = R[:, :10].real * np.sign(np.sum(R[:, :10].real
                                                   * alt.eigenvectors, axis=0))
        aligned /= np.linalg.norm(aligned, axis=0)
        assert np.max(np.abs(alt.eigenvectors - aligned)) < 1e-10

    def test_two_fits_are_bit_equal(self):
        X1, X2, _ = two_sensor_data(n=300)
        a, b = (fit_altdmaps(X1, X2, n_eig=8) for _ in range(2))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_kept_complex_pair_is_refused(self):
        # lambda_1,2 = 0.1976 +- 0.0154i in the dense spectrum
        rng = np.random.default_rng(4)
        X1, X2 = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
        p = KernelParams(epsilon=1.0, density_normalize=False)
        w = np.linalg.eigvals(markov(X1, p) @ markov(X2, p))
        assert np.sort(np.abs(w.imag))[-1] > 0.01
        with pytest.raises(NumericError, match="complex"):
            fit_altdmaps(X1, X2, p, p, n_eig=3)


def traced_peak(fn):
    """tracemalloc peak of one call, in bytes above the memory live
    before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_alternating_and_gh_fits_stay_within_a_few_kernels_of_memory():
    """At n = 800, one n x n float64 matrix is 5.1 MB.  Building the two
    Markov kernels peaks at about 3.1 of them; the dense path (K1 @ K2
    beside K1 and K2, then eig's complex eigenvectors) reached 5.0, and
    gh_fit's full n x (n - 1) eigendecomposition reached 7.0, against
    about 2.1 now.  The bounds sit between."""
    n = 800
    rng = np.random.default_rng(0)
    s = np.sort(rng.uniform(0, 1, n))
    X1 = np.column_stack([np.cos(3 * s), np.sin(3 * s),
                          0.1 * rng.normal(size=n)])
    X2 = (200 + 300 * s + rng.normal(size=n))[:, None]
    kernel = 8 * n * n
    assert traced_peak(lambda: fit_altdmaps(X1, X2, n_eig=6)) < 4.0 * kernel
    F = rng.normal(size=(n, 6))
    assert traced_peak(lambda: gh_fit(X1, F)) < 3.0 * kernel
