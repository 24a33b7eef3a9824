"""Diffusion maps with Nystrom out-of-sample extension and geometric
harmonics lifting.

Kernel construction, for points x_i with pairwise squared distances
D2_ij and scale parameter eps:

    W_ij  = exp(-D2_ij / eps^2)
    W~    = P^-1 W P^-1   with P_ii = sum_j W_ij     (density normalization)
    K     = D^-1 W~       with D_ii = sum_j W~_ij    (Markov normalization)

K is row-stochastic, so its leading eigenvalue is 1 with a constant
eigenvector; the following eigenvectors phi_1, phi_2, ... are the
embedding coordinates.  Instead of solving the nonsymmetric K directly,
the eigenproblem is conjugated to the symmetric

    S = D^-1/2 W~ D^-1/2

which shares eigenvalues with K; its orthonormal eigenvectors v map to
K's right eigenvectors via phi = D^-1/2 v.  Each phi column is then
rescaled to unit 2-norm and sign-fixed so that its largest-magnitude
entry is positive.

New points are embedded without refitting through the Nystrom formula

    phi_k(x) = 1/lambda_k * sum_j K(x, x_j) phi_k(x_j)

where the kernel row of x is normalized with the training conventions
(training P entries on the right, the new point's own row sums on the
left).  Eigenpairs with lambda below NYSTROM_EIG_FLOOR are not
extendable and are refused.

Every kernel (training, Nystrom rows and the coordinate-selection
weights) is built on one distance primitive.  Both sides are centred on
the training column mean c, and

    D2(a, b) = |a - c|^2 + |b - c|^2 - 2 (a - c).(b - c),  clipped at 0,

so one matrix product (BLAS GEMM) does the work.  Centring keeps the
cancellation error near 1e-15 of the largest D2 even for spectra on a
large common offset, and c is taken as x_0 + mean(x - x_0), which
equals the row itself when all rows are the same: identical rows then
give exact zeros, so the median heuristic still refuses them.  The
training diagonal is set to exactly 0.  The training side (c, the
centred points and their squared norms) is cached on the DmapModel
object, not stored in the model files.

Before exp, each Nystrom row has its smallest D2 subtracted.  That
multiplies the row of W by exp(min D2 / eps^2), a per-row factor which
the left-hand density and Markov normalizations both divide out, so
the shift changes nothing but rounding.  It keeps the nearest training
point at weight 1, so the row sums never underflow, however far the new
point lies: a far-off spectrum is embedded near its nearest training
point instead of failing its whole batch.  The training kernel needs no
shift, since its diagonal is already exp(0) = 1.  New points are
extended NYSTROM_CHUNK_ROWS rows at a time, which bounds the memory of
a batch kernel; each row is computed on its own, but a BLAS product
may still round a row differently when the rows beside it change.

Geometric harmonics reuse the same machinery to lift a function given
on training points to new points: fit a kernel over the input
coordinates, keep the eigenpairs with lambda >= max(delta * lambda_max,
NYSTROM_EIG_FLOOR), project the target onto them (D-weighted
projection, under which the phi are orthogonal), and evaluate the
retained eigenfunctions at new points via Nystrom.  Since phi_0 of a
Markov kernel is constant, constant targets extend exactly.  Only the
kept pairs are computed: leading_eigenpairs runs block subspace
iteration with Rayleigh-Ritz on S, from a block of GH_BLOCK columns that
doubles until a converged Ritz value lies below the cutoff, so the
harmonic count is the one a full eigh gives, without its n x n
eigenvector block.  fit_dmaps itself keeps the full eigh: past the
first few pairs its spectrum flattens, where subspace iteration would
converge slowly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple, Sequence

import numpy as np

from .errors import NumericError

NYSTROM_EIG_FLOOR = 1e-6
# rows of new points per Nystrom kernel block
NYSTROM_CHUNK_ROWS = 256
LLR_BANDWIDTH_SCALE = 1.0 / 3.0  # see local_linear_residual
LLR_RIDGE = 1e-8
# leading_eigenpairs: residual bound relative to |lambda_0|, sweep
# budget, and the largest |theta_last / theta_tested| a block may keep
EIG_TOL = 1e-13
EIG_MAX_SWEEPS = 300
EIG_GROW_RATIO = 0.05
GH_BLOCK = 64  # starting block of the geometric-harmonics eigensolve


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel scale and normalization switches.

    epsilon None means "use the median heuristic at fit time".
    """

    epsilon: Optional[float] = None
    density_normalize: bool = True

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")


@dataclass(frozen=True)
class DmapModel:
    """Fitted diffusion map: reference points, kernel settings and the
    eigen-decomposition (column 0 is the trivial constant eigenvector)."""

    points: np.ndarray
    epsilon: float
    density_normalize: bool
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    p_row_sums: Optional[np.ndarray]
    d_row_sums: np.ndarray

    @property
    def n_eig(self) -> int:
        return self.eigenvalues.size

    def non_extendable(self) -> Tuple[int, ...]:
        """Indices whose eigenvalue is too small for Nystrom extension."""
        return tuple(int(i) for i in np.nonzero(self.eigenvalues < NYSTROM_EIG_FLOOR)[0])

    @cached_property
    def _train_side(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centre, centred points, their squared norms): the training
        side of every Nystrom kernel row, computed once per model
        object.  It is not a dataclass field, so it is never saved."""
        centre = _column_centre(self.points)
        C = self.points - centre
        return centre, C, _sq_norms(C)


@dataclass(frozen=True)
class EigenSelection:
    """Selected eigenvector indices plus the residuals that justified them."""

    indices: Tuple[int, ...]
    residuals: np.ndarray


@dataclass(frozen=True)
class Embed:
    """Pipeline stage: Nystrom coordinates of spectra in a fitted embedding."""

    dmap: DmapModel
    indices: Tuple[int, ...]

    @property
    def phi_train(self) -> np.ndarray:
        """The exact training eigenvectors the heads are fit on."""
        return self.dmap.eigenvectors[:, list(self.indices)]


def _column_centre(X: np.ndarray) -> np.ndarray:
    """Column mean of X, taken as x_0 + mean(x - x_0) so that it equals
    the common row exactly when all rows are the same."""
    return X[0] + (X - X[0]).mean(axis=0)


def _sq_norms(C: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", C, C)


def _sq_distances(A: np.ndarray, B: np.ndarray, sq_a: np.ndarray,
                  sq_b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of A and B, centred on the same
    point, with squared norms sq_a and sq_b: one GEMM, clipped at 0."""
    D2 = np.add.outer(sq_a, sq_b)
    G = A @ B.T
    G *= 2.0
    D2 -= G
    return np.maximum(D2, 0.0, out=D2)


def pairwise_sq_distances(X: np.ndarray) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances with a zero diagonal."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (n_samples, n_features)")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    C = X - _column_centre(X)
    sq = _sq_norms(C)
    D2 = _sq_distances(C, C, sq, sq)
    np.fill_diagonal(D2, 0.0)
    return D2


def gaussian_kernel(D2: np.ndarray, epsilon: float) -> np.ndarray:
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return np.exp(-np.asarray(D2, dtype=float) / (epsilon * epsilon))


def epsilon_median_heuristic(D2: np.ndarray) -> float:
    """Kernel scale from data: sqrt of the median nonzero squared distance."""
    vals = np.asarray(D2)[np.asarray(D2) > 0]
    if vals.size == 0:
        raise ValueError("all pairwise distances are zero; cannot pick epsilon")
    return float(np.sqrt(np.median(vals, overwrite_input=True)))


def density_normalize(W: np.ndarray) -> np.ndarray:
    """W~ = P^-1 W P^-1 with P the diagonal of row sums."""
    p = W.sum(axis=1)
    if np.any(p <= 0):
        raise NumericError("kernel row sum underflowed to zero")
    return W / np.outer(p, p)


def markov_normalize(Wt: np.ndarray) -> np.ndarray:
    """K = D^-1 W~; rows sum to one."""
    d = Wt.sum(axis=1)
    if np.any(d <= 0):
        raise NumericError("kernel row sum underflowed to zero")
    return Wt / d[:, None]


def training_kernel(X: np.ndarray, params: KernelParams
                    ) -> Tuple[np.ndarray, Optional[np.ndarray], float]:
    """Distances, epsilon, W and (if enabled) the density normalization
    of a training set: returns (W~, the row sums P or None, epsilon).

    W_ii = exp(0) = 1, so every row sum of W is at least 1 and every row
    of W~ keeps a diagonal entry of at least 1/n^2: no row sum can
    underflow, and none is guarded.  W and W~ are formed in place in
    the distance matrix, with the same roundings as gaussian_kernel and
    density_normalize."""
    D2 = pairwise_sq_distances(X)
    eps = params.epsilon if params.epsilon is not None else epsilon_median_heuristic(D2)
    D2 /= -(eps * eps)
    W = np.exp(D2, out=D2)
    if not params.density_normalize:
        return W, None, float(eps)
    p = W.sum(axis=1)
    W /= np.outer(p, p)
    return W, p, float(eps)


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is positive."""
    V = V.copy()
    idx = np.argmax(np.abs(V), axis=0)
    flip = V[idx, np.arange(V.shape[1])] < 0
    V[:, flip] *= -1.0
    return V


def leading_eigenpairs(apply: Callable[[np.ndarray], np.ndarray], n: int,
                       k: int, block: int, symmetric: bool = False,
                       cutoff: Optional[Callable[[float], float]] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Leading eigenpairs, by descending |lambda|, of the n x n operator
    A behind `apply` (an n x b block Q -> A Q).

    Block subspace iteration from a Gaussian start block drawn with a
    fixed seed, so reruns give the same bits.  Each sweep applies A to
    the orthonormal basis Q, takes the Ritz pairs (theta, Q y) from the
    eigenproblem of Q^T A Q (eigh when `symmetric`, eig otherwise; eig
    may return complex pairs), and orthonormalizes A Q by QR for the
    next sweep.  It stops when every pair it has to decide on passes

        |A v - theta v| <= EIG_TOL * |theta_0| * |v|,

    and raises NumericError, naming the worst residual, once
    EIG_MAX_SWEEPS sweeps have not sufficed.  A block of n columns spans
    the whole space, so its Rayleigh-Ritz step is a full eigensolve and
    needs no test.

    It returns the first k pairs.  Given `cutoff` (a function of
    theta_0; real spectra only), it returns the leading pairs with
    theta >= cutoff, at most k, and the first pair below the cutoff
    must pass the test as well, so the count is the one a full solve
    gives.

    A tested pair j converges by about |lambda_b / lambda_j| per sweep
    for a block of b columns.  So whenever the last Ritz value exceeds
    EIG_GROW_RATIO times the last tested one, or the block cannot hold
    the pairs to test, the block doubles (at most to n): A Q is kept and
    fresh Gaussian columns are appended.  A near-degenerate or slowly
    decaying spectrum thus ends in a larger block, not in the budget.
    """
    rng = np.random.default_rng(0)
    b = min(block, n)
    Q = np.linalg.qr(rng.standard_normal((n, b)))[0]
    worst = np.inf
    for _ in range(EIG_MAX_SWEEPS):
        Z = apply(Q)
        H = Q.T @ Z
        theta, Y = np.linalg.eigh(0.5 * (H + H.T)) if symmetric else np.linalg.eig(H)
        order = np.argsort(-np.abs(theta), kind="stable")
        theta, Y = theta[order], Y[:, order]
        kept = tested = k
        if cutoff is not None:
            below = np.nonzero(theta < cutoff(theta[0]))[0]
            kept = min(k, int(below[0]) if below.size else b)
            tested = min(kept + 1, k)
        if b == n:
            return theta[:kept], Q @ Y[:, :kept]
        if tested >= b or abs(theta[-1]) > EIG_GROW_RATIO * abs(theta[tested - 1]):
            b = min(2 * b, n)
            Q = np.linalg.qr(np.hstack([Z, rng.standard_normal((n, b - Z.shape[1]))]))[0]
            continue
        V = Q @ Y[:, :tested]
        res = np.linalg.norm(Z @ Y[:, :tested] - V * theta[:tested], axis=0)
        v_norm = np.linalg.norm(V, axis=0)
        if np.all(res <= EIG_TOL * abs(theta[0]) * v_norm):
            return theta[:kept], V[:, :kept]
        worst = float(np.max(res / v_norm) / abs(theta[0]))
        Q = np.linalg.qr(Z)[0]
    raise NumericError(f"leading eigenpairs did not converge in "
                       f"{EIG_MAX_SWEEPS} sweeps: worst residual "
                       f"{worst:.3g} of |lambda_0|")


def _symmetric_kernel(X: np.ndarray, params: KernelParams):
    """The symmetric conjugate S = D^-1/2 W~ D^-1/2 of the Markov kernel
    of X, with 1/sqrt(D), the row sums P (or None) and D, and epsilon.
    S is built in place of W~."""
    Wt, p, eps = training_kernel(X, params)
    d = Wt.sum(axis=1)
    inv_sqrt_d = 1.0 / np.sqrt(d)
    Wt *= np.outer(inv_sqrt_d, inv_sqrt_d)
    S = Wt + Wt.T
    S *= 0.5
    return S, inv_sqrt_d, p, d, eps


def _dmap_model(X: np.ndarray, params: KernelParams, kernel, lam: np.ndarray,
                V: np.ndarray) -> DmapModel:
    """A DmapModel from eigenpairs (lam, V) of the symmetric kernel:
    phi = D^-1/2 V, columns unit-norm and sign-fixed."""
    _, inv_sqrt_d, p, d, eps = kernel
    phi = V * inv_sqrt_d[:, None]
    phi = phi / np.linalg.norm(phi, axis=0)
    phi = _fix_signs(phi)
    if abs(lam[0] - 1.0) > 1e-8:
        raise NumericError(f"leading eigenvalue {lam[0]!r} is not 1; kernel is broken")
    return DmapModel(points=X.copy(), epsilon=eps,
                     density_normalize=params.density_normalize,
                     eigenvalues=lam, eigenvectors=phi,
                     p_row_sums=p, d_row_sums=d)


def fit_dmaps(X: np.ndarray, params: Optional[KernelParams] = None,
              n_eig: int = 10) -> DmapModel:
    """Fit a diffusion map on the rows of X keeping n_eig eigenpairs
    (the trivial pair included as column 0), by a full eigh of S."""
    X = np.asarray(X, dtype=float)
    if params is None:
        params = KernelParams()
    if n_eig < 2:
        raise ValueError("n_eig must be at least 2")
    if X.ndim != 2 or X.shape[0] <= n_eig:
        raise ValueError("need more samples than requested eigenpairs")
    kernel = _symmetric_kernel(X, params)
    vals, vecs = np.linalg.eigh(kernel[0])
    order = np.argsort(vals)[::-1][:n_eig]
    return _dmap_model(X, params, kernel, vals[order], vecs[:, order])


def _kernel_rows(model: DmapModel, X_new: np.ndarray) -> np.ndarray:
    """Markov kernel rows K(x_new, x_train) under training conventions,
    each row's D2 shifted by its minimum (see the module docstring).
    The nearest training point keeps weight 1, so no row sum can
    underflow, and none is guarded."""
    centre, C, sq = model._train_side
    A = X_new - centre
    D2 = _sq_distances(A, C, _sq_norms(A), sq)
    D2 -= D2.min(axis=1, keepdims=True)
    D2 /= -(model.epsilon * model.epsilon)
    W = np.exp(D2, out=D2)
    if model.density_normalize:
        W /= np.outer(W.sum(axis=1), model.p_row_sums)
    W /= W.sum(axis=1)[:, None]
    return W


def nystrom_extend(model: DmapModel, X_new: np.ndarray,
                   indices: Optional[Sequence[int]] = None) -> np.ndarray:
    """Embed new points with the Nystrom formula, one column per
    requested eigenvector index (default: all of them).

    Raises ValueError if a requested eigenvalue is below
    NYSTROM_EIG_FLOOR; those indices are listed by model.non_extendable().
    """
    if indices is None:
        idx = np.arange(model.n_eig)
    else:
        idx = np.asarray(list(indices), dtype=int)
        if idx.size == 0:
            raise ValueError("no eigenvector indices requested")
        if np.any(idx < 0) or np.any(idx >= model.n_eig):
            raise ValueError("eigenvector index out of range")
    lam = model.eigenvalues[idx]
    bad = idx[lam < NYSTROM_EIG_FLOOR]
    if bad.size:
        raise ValueError(f"eigenvalues of indices {bad.tolist()} are below "
                         f"{NYSTROM_EIG_FLOOR}; not extendable")
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2 or X_new.shape[1] != model.points.shape[1]:
        raise ValueError("new points must match the training dimension")
    if not np.all(np.isfinite(X_new)):
        raise ValueError("new points contain non-finite values")
    V = model.eigenvectors if indices is None else model.eigenvectors[:, idx]
    out = np.empty((X_new.shape[0], idx.size))
    for start in range(0, X_new.shape[0], NYSTROM_CHUNK_ROWS):
        rows = slice(start, start + NYSTROM_CHUNK_ROWS)
        out[rows] = (_kernel_rows(model, X_new[rows]) @ V) / lam
    return out


def local_linear_residual(Phi: np.ndarray, threshold: float = 0.5) -> EigenSelection:
    """Rank eigenvector columns by how novel they are.

    Column k is predicted from columns 0..k-1 by leave-one-out locally
    weighted linear regression, with weights W = gaussian_kernel(D2, h)
    over the pairwise_sq_distances D2 of the predictor columns and h =
    LLR_BANDWIDTH_SCALE * their diameter.  W_ii = 0 leaves sample i out
    of its own fit, exactly as deleting row i would.  With A = [1, the
    predictors] and target t, the n local systems
    (A^T diag(W_i) A + LLR_RIDGE I) theta_i = A^T diag(W_i) t come from
    two products, W @ (A_j A_j^T) and W @ (A_j t_j), and one batched
    solve.  Forming these normal equations squares the conditioning of
    the local designs, which are near-collinear when earlier columns are
    harmonics of one another, so one step of iterative refinement
    corrects theta_i by the same systems applied to the normal-equation
    residual, formed from the fit residuals t_j - A_j theta_i directly.
    The residual

        r_k = sqrt( sum_i (t_i - A_i theta_i)^2 / sum_i t_i^2 )

    is near zero when phi_k is a function (harmonic) of earlier columns
    and near one when it carries a new direction.  Column 0 has no
    predecessors and gets r_0 = 1 by convention.  Indices with
    r_k > threshold form the selection.
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2 or Phi.shape[1] < 2:
        raise ValueError("need at least two eigenvector columns")
    n, m = Phi.shape
    if n < 4:
        raise ValueError("too few samples for leave-one-out local fits")
    res = np.empty(m)
    res[0] = 1.0
    for k in range(1, m):
        D2 = pairwise_sq_distances(Phi[:, :k])
        h = LLR_BANDWIDTH_SCALE * np.sqrt(D2.max())
        if h <= 0:
            raise ValueError("degenerate predictor coordinates")
        W = gaussian_kernel(D2, h)
        np.fill_diagonal(W, 0.0)
        A = np.column_stack([np.ones(n), Phi[:, :k]])
        t = Phi[:, k]
        AA = (A[:, :, None] * A[:, None, :]).reshape(n, -1)
        M = (W @ AA).reshape(n, k + 1, k + 1) + LLR_RIDGE * np.eye(k + 1)
        theta = np.linalg.solve(M, (W @ (A * t[:, None]))[:, :, None])[..., 0]
        E = theta @ A.T  # E[i, j] = t_j - A_j theta_i, built in place
        np.subtract(t, E, out=E)
        E *= W
        refine = E @ A - LLR_RIDGE * theta
        theta += np.linalg.solve(M, refine[:, :, None])[..., 0]
        err = t - np.einsum("ij,ij->i", A, theta)
        denom = float(np.sum(t * t))
        res[k] = float(np.sqrt(np.sum(err ** 2) / denom)) if denom > 0 else 0.0
    keep = tuple(int(i) for i in np.nonzero(res > threshold)[0])
    return EigenSelection(indices=keep, residuals=res)


@dataclass(frozen=True)
class GhModel:
    """Geometric-harmonics lift of a target defined on training inputs."""

    dmap: DmapModel
    coefficients: np.ndarray
    delta: float
    train_residual: float
    target_is_1d: bool


def gh_fit(inputs: np.ndarray, targets: np.ndarray,
           params: Optional[KernelParams] = None, delta: float = 1e-3) -> GhModel:
    """Project targets onto the kernel eigenfunctions over the inputs.

    Eigenpairs with lambda >= delta * lambda_max survive the cutoff
    (floored at the Nystrom limit so every retained harmonic stays
    extendable), at most n - 1 of them; only those are computed, by
    leading_eigenpairs.  Coefficients come from the D-weighted
    projection, under which distinct eigenvectors are exactly
    orthogonal.
    """
    inputs = np.asarray(inputs, dtype=float)
    F = np.asarray(targets, dtype=float)
    target_is_1d = F.ndim == 1
    F2 = F[:, None] if target_is_1d else F
    if inputs.shape[0] != F2.shape[0]:
        raise ValueError("inputs and targets disagree on sample count")
    if inputs.shape[0] < 3:
        raise ValueError("need at least three points")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if params is None:
        params = KernelParams()
    kernel = _symmetric_kernel(inputs, params)
    S, n = kernel[0], inputs.shape[0]
    lam, V = leading_eigenpairs(
        lambda Q: S @ Q, n, n - 1, GH_BLOCK, symmetric=True,
        cutoff=lambda lam0: max(delta * lam0, NYSTROM_EIG_FLOOR))
    if lam.size == 0:
        raise NumericError("no harmonic survives the eigenvalue cutoff")
    dm = _dmap_model(inputs, params, kernel, lam, V)
    Phi = dm.eigenvectors
    d = dm.d_row_sums
    num = Phi.T @ (d[:, None] * F2)
    den = np.sum(Phi * (d[:, None] * Phi), axis=0)
    gamma = num / den[:, None]
    fitted = Phi @ gamma
    norm_f = np.linalg.norm(F2)
    resid = float(np.linalg.norm(fitted - F2) / norm_f) if norm_f > 0 \
        else float(np.linalg.norm(fitted - F2))
    return GhModel(dmap=dm, coefficients=gamma, delta=float(delta),
                   train_residual=resid, target_is_1d=target_is_1d)


def gh_predict(gh: GhModel, X_new: np.ndarray) -> np.ndarray:
    """Evaluate the lifted target at new input coordinates."""
    phi_new = nystrom_extend(gh.dmap, X_new)
    out = phi_new @ gh.coefficients
    return out[:, 0] if gh.target_is_1d else out

