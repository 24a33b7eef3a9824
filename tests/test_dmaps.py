"""Tests for the diffusion-map core: kernels against double-loop
oracles, eigensolve invariants, Nystrom self-consistency, eigenvector
ranking and geometric harmonics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from spectramap.dmaps import (
    DmapModel,
    KernelParams,
    density_normalize,
    epsilon_median_heuristic,
    fit_dmaps,
    gaussian_kernel,
    gh_fit,
    gh_predict,
    local_linear_residual,
    markov_normalize,
    nystrom_extend,
    pairwise_sq_distances,
    _kernel_rows,
)
from spectramap.errors import NumericError


def pairwise_oracle(X):
    n = len(X)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            D[i, j] = float(np.sum((X[i] - X[j]) ** 2))
    return D


def arc_points(n=300, span=1.5 * np.pi, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, 1.0, n)
    theta = s * span
    P = np.column_stack([np.cos(theta), np.sin(theta)])
    Q = np.linalg.qr(rng.normal(size=(dim, 2)))[0][:, :2].T
    return P @ Q, s


class TestKernels:
    def test_pairwise_matches_double_loop(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 4))
        D2 = pairwise_sq_distances(X)
        assert np.allclose(D2, pairwise_oracle(X), atol=1e-10)
        assert np.allclose(D2, D2.T)
        assert np.all(np.diag(D2) == 0)
        assert D2.min() >= 0

    def test_pairwise_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            pairwise_sq_distances(np.array([[1.0, np.nan]]))

    def test_gaussian_kernel_frozen_value(self):
        D2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        W = gaussian_kernel(D2, 1.0)
        assert W[0, 0] == 1.0
        assert W[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-15)
        # scale enters squared: eps=2 divides distances by 4
        W2 = gaussian_kernel(D2, 2.0)
        assert W2[0, 1] == pytest.approx(np.exp(-0.25), rel=1e-15)

    def test_median_heuristic_frozen_value(self):
        D2 = np.full((4, 4), 4.0)
        np.fill_diagonal(D2, 0.0)
        assert epsilon_median_heuristic(D2) == pytest.approx(2.0)

    def test_median_heuristic_rejects_coincident_points(self):
        with pytest.raises(ValueError, match="zero"):
            epsilon_median_heuristic(np.zeros((3, 3)))

    def test_density_normalize_matches_double_loop(self):
        rng = np.random.default_rng(1)
        W = gaussian_kernel(pairwise_oracle(rng.normal(size=(15, 3))), 2.0)
        Wt = density_normalize(W)
        p = W.sum(axis=1)
        expect = np.array([[W[i, j] / (p[i] * p[j]) for j in range(15)] for i in range(15)])
        assert np.allclose(Wt, expect, atol=1e-14)
        assert np.allclose(Wt, Wt.T, atol=1e-14)

    def test_markov_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            X = rng.normal(size=(rng.integers(10, 60), rng.integers(2, 8)))
            K = markov_normalize(density_normalize(
                gaussian_kernel(pairwise_sq_distances(X), 1.5)))
            assert np.max(np.abs(K.sum(axis=1) - 1.0)) < 1e-12
            assert K.min() >= 0


class TestFit:
    def test_spectral_invariants(self):
        X, _ = arc_points(n=120)
        model = fit_dmaps(X, KernelParams(epsilon=0.3), n_eig=6)
        lam, phi = model.eigenvalues, model.eigenvectors
        assert abs(lam[0] - 1.0) < 1e-10
        assert np.all(np.diff(lam) <= 1e-14)
        # trivial eigenvector is constant
        assert np.ptp(phi[:, 0]) < 1e-8
        # sign convention: largest-magnitude entry positive
        for k in range(phi.shape[1]):
            j = np.argmax(np.abs(phi[:, k]))
            assert phi[j, k] > 0
        # eigen residual against the reconstructed Markov matrix
        W = gaussian_kernel(pairwise_sq_distances(X), model.epsilon)
        K = markov_normalize(density_normalize(W))
        resid = K @ phi - phi * lam
        assert np.max(np.linalg.norm(resid, axis=0)) < 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        X, _ = arc_points(n=80, seed=4)
        perm = rng.permutation(80)
        a = fit_dmaps(X, KernelParams(epsilon=0.3), n_eig=5)
        b = fit_dmaps(X[perm], KernelParams(epsilon=0.3), n_eig=5)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-10)
        # the sign rule keys off the largest-magnitude entry, which can
        # land on either of two symmetric extremes; align before comparing
        aligned = a.eigenvectors[perm] * np.sign(
            np.sum(a.eigenvectors[perm] * b.eigenvectors, axis=0))
        assert np.allclose(aligned, b.eigenvectors, atol=1e-8)

    def test_validation(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ValueError):
            fit_dmaps(X, n_eig=1)
        with pytest.raises(ValueError):
            fit_dmaps(X, n_eig=10)
        with pytest.raises(ValueError):
            KernelParams(epsilon=-1.0)

    def test_arc_embedding_tracks_arclength(self):
        X, s = arc_points(n=300)
        model = fit_dmaps(X, KernelParams(epsilon=0.2), n_eig=5)
        corr = abs(np.corrcoef(model.eigenvectors[:, 1], s)[0, 1])
        assert corr > 0.99


class TestNystrom:
    def test_self_consistency_at_training_points(self):
        X, _ = arc_points(n=200, seed=5)
        model = fit_dmaps(X, KernelParams(epsilon=0.25), n_eig=6)
        back = nystrom_extend(model, X)
        assert np.max(np.abs(back - model.eigenvectors)) < 1e-8

    def test_small_eigenvalues_refused(self):
        rng = np.random.default_rng(6)
        t = np.sort(rng.uniform(0, 1, 120))[:, None]
        model = fit_dmaps(t, KernelParams(), n_eig=40)
        bad = model.non_extendable()
        assert bad, "expected some eigenvalues below the Nystrom floor"
        with pytest.raises(ValueError, match="not extendable"):
            nystrom_extend(model, t[:3], indices=[bad[0]])
        ok = [i for i in range(model.n_eig) if i not in bad]
        out = nystrom_extend(model, t[:3], indices=ok)
        assert out.shape == (3, len(ok))

    def test_dimension_mismatch_rejected(self):
        X, _ = arc_points(n=60, seed=7)
        model = fit_dmaps(X, KernelParams(epsilon=0.3), n_eig=4)
        with pytest.raises(ValueError, match="training dimension"):
            nystrom_extend(model, np.zeros((2, 3)))


class TestLocalLinearResidual:
    def test_harmonic_vs_independent_direction(self):
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0, 1, 300))
        p1 = t - t.mean()
        p1 /= np.linalg.norm(p1)
        p2 = t ** 2 - (t ** 2).mean()
        p2 /= np.linalg.norm(p2)
        p3 = rng.normal(size=300)
        p3 -= p3.mean()
        p3 /= np.linalg.norm(p3)
        sel = local_linear_residual(np.column_stack([p1, p2, p3]))
        r = sel.residuals
        assert r[0] == 1.0
        # the quadratic harmonic is mostly explained; the stated
        # bandwidth rule (diameter/3) leaves a ~0.1 smoothing bias
        assert r[1] < 0.15
        assert r[2] > 0.7
        assert r[2] > 4 * r[1]
        assert sel.indices == (0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            local_linear_residual(np.zeros((10, 1)))
        with pytest.raises(ValueError):
            local_linear_residual(np.zeros((3, 2)))


class TestGeometricHarmonics:
    def test_constant_target_extends_exactly(self):
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0, 1, 80))[:, None]
        gh = gh_fit(t, np.full(80, 7.25), delta=1e-3)
        pred = gh_predict(gh, np.array([[0.123], [0.77], [0.5]]))
        assert np.max(np.abs(pred - 7.25)) < 1e-12

    def test_smooth_function_lifts_to_held_out_points(self):
        rng = np.random.default_rng(2)
        t = np.sort(rng.uniform(0, 1, 250))[:, None]
        f = np.sin(2 * np.pi * t[:, 0]) + t[:, 0]
        idx = rng.permutation(250)
        tr, te = np.sort(idx[:200]), np.sort(idx[200:])
        gh = gh_fit(t[tr], f[tr], delta=1e-3)
        rel = np.linalg.norm(gh_predict(gh, t[te]) - f[te]) / np.linalg.norm(f[te])
        assert rel < 1e-2

    def test_training_points_reproduced_within_residual(self):
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0, 1, 100))[:, None]
        f = np.cos(np.pi * t[:, 0])
        gh = gh_fit(t, f, delta=1e-3)
        rel = np.linalg.norm(gh_predict(gh, t) - f) / np.linalg.norm(f)
        assert rel <= gh.train_residual + 1e-10

    def test_multioutput_targets(self):
        rng = np.random.default_rng(4)
        t = np.sort(rng.uniform(0, 1, 90))[:, None]
        F = np.column_stack([t[:, 0] ** 2, np.sin(np.pi * t[:, 0])])
        gh = gh_fit(t, F, delta=1e-4)
        out = gh_predict(gh, t[:5])
        assert out.shape == (5, 2)

    def test_validation(self):
        t = np.linspace(0, 1, 30)[:, None]
        with pytest.raises(ValueError):
            gh_fit(t, np.zeros(29))
        with pytest.raises(ValueError):
            gh_fit(t, np.zeros(30), delta=1.5)


def spectra_like(n, seed, d=476):
    """Rows on a large common offset, like raw Raman intensities."""
    return 0.3 * np.random.default_rng(seed).normal(size=(n, d)) + 5.0


def kernel_rows_oracle(model, X_new):
    """Markov kernel rows from cdist, without the row-minimum shift."""
    W = np.exp(-cdist(X_new, model.points, "sqeuclidean")
               / model.epsilon ** 2)
    if model.density_normalize:
        W = W / np.outer(W.sum(axis=1), model.p_row_sums)
    return W / W.sum(axis=1)[:, None]


class TestGemmKernel:
    """The GEMM distances and shifted kernel rows against cdist."""

    # GEMM cancellation on centred rows: a few ulps of the largest D2
    D2_RTOL = 1e-13

    def test_pairwise_matches_cdist_on_offset_spectra(self):
        X = spectra_like(300, seed=0)
        D2 = pairwise_sq_distances(X)
        ref = cdist(X, X, "sqeuclidean")
        assert np.max(np.abs(D2 - ref)) <= self.D2_RTOL * ref.max()
        assert np.all(np.diag(D2) == 0.0)
        assert D2.min() >= 0.0

    def test_kernel_rows_match_cdist(self):
        X = spectra_like(400, seed=1)
        model = fit_dmaps(X[:300], KernelParams(), n_eig=6)
        K_ref = kernel_rows_oracle(model, X[300:])
        # a D2 error of 1e-13 * max D2 moves exp(-D2 / eps^2) by that
        # times max D2 / eps^2, which is below 10 on these rows
        K = _kernel_rows(model, X[300:])
        assert np.max(np.abs(K - K_ref)) <= 1e-11 * K_ref.max()
        phi_ref = K_ref @ model.eigenvectors / model.eigenvalues
        phi = nystrom_extend(model, X[300:])
        assert np.max(np.abs(phi - phi_ref)) <= 1e-11 * np.abs(phi_ref).max()

    @pytest.mark.parametrize("seed", range(20))
    def test_identical_rows_are_still_refused(self, seed):
        rng = np.random.default_rng(seed)
        row = rng.normal(size=476) * rng.uniform(0.1, 10) + rng.uniform(-5, 5)
        X = np.tile(row, (int(rng.integers(3, 30)), 1))
        assert not pairwise_sq_distances(X).any()
        with pytest.raises(ValueError, match="all pairwise distances are zero"):
            fit_dmaps(X, KernelParams(), n_eig=2)


@pytest.fixture(scope="module")
def spectra_model():
    X = spectra_like(360, seed=4, d=60)
    return fit_dmaps(X[:240], KernelParams(), n_eig=6), X[240:]


@settings(max_examples=30, deadline=None)
@given(n_rows=st.integers(1, 600), pick=st.integers(0, 10 ** 6),
       power=st.sampled_from([-3, 3]), seed=st.integers(0, 2 ** 32 - 1))
def test_scaling_one_row_leaves_the_others_bit_identical(
        spectra_model, n_rows, pick, power, seed):
    model, pool = spectra_model
    rows = np.random.default_rng(seed).integers(0, len(pool), n_rows)
    batch = pool[rows]
    i = pick % n_rows
    scaled = batch.copy()
    scaled[i] *= 10.0 ** power
    clean = nystrom_extend(model, batch)
    got = nystrom_extend(model, scaled)
    keep = np.arange(n_rows) != i
    assert np.array_equal(got[keep], clean[keep])
    assert np.all(np.isfinite(got[i]))


def llr_oracle(Phi):
    """Leave-one-out local linear residuals one sample at a time: cdist
    distances, the sample's row deleted from the weights, the design and
    the target, and one solve per sample and column."""
    n, m = Phi.shape
    res = np.empty(m)
    res[0] = 1.0
    for k in range(1, m):
        P = Phi[:, :k]
        t = Phi[:, k]
        dist = cdist(P, P)
        h = (1.0 / 3.0) * dist.max()
        Wgt = np.exp(-((dist / h) ** 2))
        A = np.column_stack([np.ones(n), P])
        pred = np.empty(n)
        eye = np.eye(k + 1) * 1e-8
        for i in range(n):
            w = np.delete(Wgt[i], i)
            Ai = np.delete(A, i, axis=0)
            ti = np.delete(t, i)
            Aw = Ai * w[:, None]
            theta = np.linalg.solve(Ai.T @ Aw + eye, Aw.T @ ti)
            pred[i] = A[i] @ theta
        res[k] = np.sqrt(np.sum((t - pred) ** 2) / np.sum(t * t))
    return tuple(int(i) for i in np.nonzero(res > 0.5)[0]), res


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 6), data=st.data())
def test_batched_llr_matches_the_per_sample_oracle(m, data):
    # columns on scales 0.1-10, some of them near-functions of column 0
    n = data.draw(st.integers(10 * m, 120), label="n")
    scales = data.draw(st.lists(st.floats(0.1, 10.0), min_size=m,
                                max_size=m), label="scales")
    harmonic = data.draw(st.lists(st.booleans(), min_size=m, max_size=m),
                         label="harmonic")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    Phi = rng.normal(size=(n, m))
    for j in range(1, m):
        if harmonic[j]:
            Phi[:, j] = np.cos(j * Phi[:, 0]) + 1e-3 * Phi[:, j]
    Phi *= np.array(scales)
    keep, res = llr_oracle(Phi)
    sel = local_linear_residual(Phi)
    assert np.allclose(sel.residuals, res, rtol=0, atol=1e-12)
    assert sel.indices == keep
