"""Tests for the diffusion-map core: kernels against double-loop
oracles, eigensolve invariants, Nystrom self-consistency, eigenvector
ranking and geometric harmonics."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from spectramap.dmaps import (
    EIG_TOL,
    NYSTROM_EIG_FLOOR,
    DmapModel,
    KernelParams,
    density_normalize,
    epsilon_median_heuristic,
    fit_dmaps,
    gaussian_kernel,
    gh_fit,
    gh_predict,
    leading_eigenpairs,
    local_linear_residual,
    markov_normalize,
    nystrom_extend,
    pairwise_sq_distances,
    _kernel_rows,
)
from spectramap import dmaps
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


def _pivoted_solve(M, b):
    """Gaussian elimination with partial pivoting in the inputs' dtype."""
    M, b = M.copy(), b.copy()
    size = b.size
    for c in range(size):
        p = c + int(np.argmax(np.abs(M[c:, c])))
        M[[c, p]], b[[c, p]] = M[[p, c]], b[[p, c]]
        f = M[c + 1:, c] / M[c, c]
        M[c + 1:, c:] -= f[:, None] * M[c, c:]
        b[c + 1:] -= f * b[c]
    x = np.empty_like(b)
    for c in range(size - 1, -1, -1):
        x[c] = (b[c] - M[c, c + 1:] @ x[c + 1:]) / M[c, c]
    return x


def llr_oracle(Phi):
    """Leave-one-out local linear residuals one sample at a time, in
    np.longdouble so that the oracle's own rounding stays far below the
    test's tolerance: direct pairwise distances, the sample's row deleted
    from the weights, the design and the target, and one pivoted solve
    per sample and column."""
    Phi = np.asarray(Phi, dtype=np.longdouble)
    n, m = Phi.shape
    res = np.empty(m, dtype=np.longdouble)
    res[0] = 1.0
    for k in range(1, m):
        P = Phi[:, :k]
        t = Phi[:, k]
        dist = np.sqrt(np.sum((P[:, None, :] - P[None, :, :]) ** 2, axis=2))
        h = (1.0 / 3.0) * dist.max()
        Wgt = np.exp(-((dist / h) ** 2))
        A = np.column_stack([np.ones(n, dtype=np.longdouble), P])
        pred = np.empty(n, dtype=np.longdouble)
        eye = np.eye(k + 1, dtype=np.longdouble) * 1e-8
        for i in range(n):
            w = np.delete(Wgt[i], i)
            Ai = np.delete(A, i, axis=0)
            ti = np.delete(t, i)
            Aw = Ai * w[:, None]
            theta = _pivoted_solve(Ai.T @ Aw + eye, Aw.T @ ti)
            pred[i] = A[i] @ theta
        res[k] = np.sqrt(np.sum((t - pred) ** 2) / np.sum(t * t))
    res = res.astype(float)
    return tuple(int(i) for i in np.nonzero(res > 0.5)[0]), res


@st.composite
def llr_problems(draw):
    """(n, column scales 0.1-10, which columns are near-functions of
    column 0, seed) for 2-6 columns."""
    m = draw(st.integers(2, 6), label="m")
    n = draw(st.integers(10 * m, 120), label="n")
    scales = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m),
                  label="scales")
    harmonic = draw(st.lists(st.booleans(), min_size=m, max_size=m),
                    label="harmonic")
    seed = draw(st.integers(0, 2 ** 32 - 1), label="seed")
    return n, scales, harmonic, seed


@settings(max_examples=40, deadline=None)
@given(problem=llr_problems())
# two draws on which a float64 oracle missed by 6.0e-13 and 7.8e-12, and
# one on which the program without its refinement step missed by 3.1e-12
@example(problem=(40, [2.0, 1.0, 4.0, 1.0], [False, True, True, True], 40))
@example(problem=(50, [1.0, 1.0, 1.0, 2.0, 1.0],
                  [False, True, True, True, False], 0))
@example(problem=(50, [1.0, 1.0, 1.0, 3.0, 1.0],
                  [False, True, True, True, False], 0))
def test_batched_llr_matches_the_per_sample_oracle(problem):
    n, scales, harmonic, seed = problem
    rng = np.random.default_rng(seed)
    Phi = rng.normal(size=(n, len(scales)))
    for j in range(1, len(scales)):
        if harmonic[j]:
            Phi[:, j] = np.cos(j * Phi[:, 0]) + 1e-3 * Phi[:, j]
    Phi *= np.array(scales)
    keep, res = llr_oracle(Phi)
    sel = local_linear_residual(Phi)
    assert np.allclose(sel.residuals, res, rtol=0, atol=1e-12)
    assert sel.indices == keep


# -- leading_eigenpairs against dense eigh, and gh_fit's harmonic count ----

def gaussian_points(n, dim, seed):
    return np.random.default_rng(seed).normal(size=(n, dim))


def symmetric_kernel(X, scale=1.0):
    """S = D^-1/2 W~ D^-1/2 over the rows of X, epsilon `scale` times
    the median heuristic, built from the public kernel pieces."""
    D2 = pairwise_sq_distances(X)
    Wt = density_normalize(gaussian_kernel(D2, scale * epsilon_median_heuristic(D2)))
    d = Wt.sum(axis=1)
    S = Wt / np.sqrt(np.outer(d, d))
    return 0.5 * (S + S.T)


def assert_pairs_match(lam, V, ref_val, ref_vec):
    """Kept pairs against the leading oracle pairs.  Each kept pair has
    a residual of at most EIG_TOL |lambda_0|, so its eigenvalue lies
    within that of the oracle's and its vector within that over the
    eigenvalue gap (Davis-Kahan); twice the bounds leave room for the
    oracle's own rounding.  Vectors are compared after fixing each
    column's sign against the oracle."""
    k = lam.size
    tol = EIG_TOL * abs(ref_val[0])
    assert np.all(np.abs(lam - ref_val[:k]) <= 2 * tol)
    for j in range(k):
        gap = np.min(np.abs(np.delete(ref_val, j) - ref_val[j]))
        v = V[:, j] / np.linalg.norm(V[:, j])
        v = v * np.sign(v @ ref_vec[:, j])
        assert np.linalg.norm(v - ref_vec[:, j]) <= 2 * tol / gap + 1e-13


@settings(max_examples=40, deadline=None)
@given(n=st.integers(20, 160), dim=st.integers(1, 4),
       scale=st.floats(0.3, 2.0), k=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_leading_eigenpairs_match_eigh_on_symmetric_kernels(n, dim, scale, k,
                                                             seed):
    S = symmetric_kernel(gaussian_points(n, dim, seed), scale)
    ref_val, ref_vec = np.linalg.eigh(S)
    ref_val, ref_vec = ref_val[::-1], ref_vec[:, ::-1]
    # the k-th and (k+1)-th pairs must be told apart for "the leading k"
    # to name one set of pairs
    assume(ref_val[k - 1] - ref_val[k] > 1e-9)
    lam, V = leading_eigenpairs(lambda Q: S @ Q, n, k, 2 * k, symmetric=True)
    assert lam.shape == (k,) and V.shape == (n, k)
    assert_pairs_match(lam, V, ref_val, ref_vec)


class TestLeadingEigenpairs:
    def test_block_at_least_n_is_a_full_solve(self):
        S = symmetric_kernel(gaussian_points(30, 2, seed=0))
        ref_val, ref_vec = np.linalg.eigh(S)
        order = np.argsort(-np.abs(ref_val), kind="stable")
        for block in (30, 45):
            lam, V = leading_eigenpairs(lambda Q: S @ Q, 30, 29, block,
                                        symmetric=True)
            assert lam.size == 29
            assert_pairs_match(lam[:10], V[:, :10], ref_val[order],
                               ref_vec[:, order])

    def test_two_runs_are_bit_equal(self):
        S = symmetric_kernel(gaussian_points(150, 3, seed=1), 0.5)
        runs = [leading_eigenpairs(lambda Q: S @ Q, 150, 6, 12, symmetric=True)
                for _ in range(2)]
        assert all(np.array_equal(a, b) for a, b in zip(*runs))
        t = np.sort(np.random.default_rng(2).uniform(0, 1, 300))[:, None]
        a, b = (gh_fit(t, np.sin(6 * t[:, 0])) for _ in range(2))
        assert np.array_equal(a.dmap.eigenvalues, b.dmap.eigenvalues)
        assert np.array_equal(a.dmap.eigenvectors, b.dmap.eigenvectors)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_exhausted_budget_raises_numeric_error(self, monkeypatch):
        S = symmetric_kernel(gaussian_points(200, 2, seed=3), 0.5)
        monkeypatch.setattr(dmaps, "EIG_MAX_SWEEPS", 2)
        with pytest.raises(NumericError, match="did not converge.*residual"):
            leading_eigenpairs(lambda Q: S @ Q, 200, 4, 8, symmetric=True)

    def test_clustered_spectrum_grows_the_block(self):
        # three well-separated clusters: lambda_0..2 all near 1, so a
        # two-column block cannot separate the leading pair
        rng = np.random.default_rng(4)
        X = np.concatenate([rng.normal(c, 0.05, size=(40, 2))
                            for c in (0.0, 5.0, 10.0)])
        S = symmetric_kernel(X)
        ref_val, ref_vec = np.linalg.eigh(S)
        lam, V = leading_eigenpairs(lambda Q: S @ Q, 120, 1, 2, symmetric=True)
        assert_pairs_match(lam, V, ref_val[::-1], ref_vec[:, ::-1])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(20, 260), dim=st.integers(1, 3),
       place=st.floats(0.0, 1.0), near=st.sampled_from([0.0, 1e-7, 1e-5, 1e-3]),
       side=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_gh_fit_keeps_the_dense_harmonic_count(n, dim, place, near, side, seed):
    """near 0: delta drawn log-uniformly in [1e-5, 1e-1]; otherwise the
    cutoff sits at a relative distance `near` above or below one of the
    oracle's eigenvalues."""
    t = gaussian_points(n, dim, seed)
    vals = np.linalg.eigvalsh(symmetric_kernel(t))[::-1]
    if near == 0.0:
        delta = 10.0 ** (-5 + 4 * place)
    else:
        eligible = np.nonzero((vals[1:] > 1e-5) & (vals[1:] < 0.9 * vals[0]))[0] + 1
        assume(eligible.size > 0)
        j = eligible[min(int(place * eligible.size), eligible.size - 1)]
        delta = vals[j] * (1.0 + side * near) / vals[0]
    # at most n - 1 harmonics, as from a dense fit of n - 1 pairs
    m = min(int(np.sum(vals >= max(delta * vals[0], NYSTROM_EIG_FLOOR))), n - 1)
    assert gh_fit(t, t[:, 0], delta=delta).dmap.n_eig == m


@st.composite
def distance_inputs(draw):
    """Point sets of every make the training kernel sees: a common offset,
    F order, repeated rows and wide or narrow columns."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(2, 80))
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 10.0 ** draw(st.integers(-3, 3))
    X += draw(st.sampled_from([0.0, 5.0, -1e3]))
    if draw(st.booleans()):
        X[rng.integers(0, n, size=n // 3)] = X[0]
    return np.asfortranarray(X) if draw(st.booleans()) else X


@settings(max_examples=60, deadline=None)
@given(X=distance_inputs())
def test_median_heuristic_upper_triangle_equals_the_full_matrix(X):
    D2 = pairwise_sq_distances(X)
    assert np.array_equal(D2, D2.T)
    full = D2[D2 > 0]
    assume(full.size)
    assert epsilon_median_heuristic(D2) == float(np.sqrt(np.median(full)))
