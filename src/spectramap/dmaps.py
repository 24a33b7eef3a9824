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
coordinates, keep eigenpairs with lambda >= delta * lambda_max, project
the target onto them (D-weighted projection, under which the phi are
orthogonal), and evaluate the retained eigenfunctions at new points via
Nystrom.  Since phi_0 of a Markov kernel is constant, constant targets
extend exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Sequence

import numpy as np

from .errors import NumericError

NYSTROM_EIG_FLOOR = 1e-6
# rows of new points per Nystrom kernel block
NYSTROM_CHUNK_ROWS = 256
LLR_BANDWIDTH_SCALE = 1.0 / 3.0  # see local_linear_residual
LLR_RIDGE = 1e-8


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel scale and normalization switches.

    epsilon None means "use the median heuristic at fit time".
    """

    epsilon: Optional[float] = None
    density_normalize: bool = True

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


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

    def truncate(self, m: int) -> "DmapModel":
        # a contiguous copy, laid out like a loaded model's, so that
        # Nystrom products round alike before and after a reload
        return DmapModel(self.points, self.epsilon, self.density_normalize,
                         self.eigenvalues[:m],
                         np.ascontiguousarray(self.eigenvectors[:, :m]),
                         self.p_row_sums, self.d_row_sums)


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
    return float(np.sqrt(np.median(vals)))


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
    underflow, and none is guarded."""
    D2 = pairwise_sq_distances(X)
    eps = params.epsilon if params.epsilon is not None else epsilon_median_heuristic(D2)
    W = gaussian_kernel(D2, eps)
    if not params.density_normalize:
        return W, None, float(eps)
    return density_normalize(W), W.sum(axis=1), float(eps)


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is positive."""
    V = V.copy()
    idx = np.argmax(np.abs(V), axis=0)
    flip = V[idx, np.arange(V.shape[1])] < 0
    V[:, flip] *= -1.0
    return V


def fit_dmaps(X: np.ndarray, params: Optional[KernelParams] = None,
              n_eig: int = 10) -> DmapModel:
    """Fit a diffusion map on the rows of X keeping n_eig eigenpairs
    (the trivial pair included as column 0)."""
    X = np.asarray(X, dtype=float)
    if params is None:
        params = KernelParams()
    if n_eig < 2:
        raise ValueError("n_eig must be at least 2")
    if X.ndim != 2 or X.shape[0] <= n_eig:
        raise ValueError("need more samples than requested eigenpairs")
    Wt, p, eps = training_kernel(X, params)
    d = Wt.sum(axis=1)
    inv_sqrt_d = 1.0 / np.sqrt(d)
    S = Wt * np.outer(inv_sqrt_d, inv_sqrt_d)
    S = 0.5 * (S + S.T)
    vals, vecs = np.linalg.eigh(S)
    order = np.argsort(vals)[::-1][:n_eig]
    lam = vals[order]
    phi = vecs[:, order] * inv_sqrt_d[:, None]
    phi = phi / np.linalg.norm(phi, axis=0)
    phi = _fix_signs(phi)
    if abs(lam[0] - 1.0) > 1e-8:
        raise NumericError(f"leading eigenvalue {lam[0]!r} is not 1; kernel is broken")
    return DmapModel(points=X.copy(), epsilon=eps,
                     density_normalize=params.density_normalize,
                     eigenvalues=lam, eigenvectors=phi,
                     p_row_sums=p, d_row_sums=d)


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
    solve.  The residual

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
        theta = np.linalg.solve(M, (W @ (A * t[:, None]))[:, :, None])
        err = t - np.einsum("ij,ij->i", A, theta[:, :, 0])
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
    extendable).  Coefficients come from the D-weighted projection,
    under which distinct eigenvectors are exactly orthogonal.
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
    full = fit_dmaps(inputs, params, n_eig=inputs.shape[0] - 1)
    cutoff = max(delta * full.eigenvalues[0], NYSTROM_EIG_FLOOR)
    m = int(np.sum(full.eigenvalues >= cutoff))
    if m == 0:
        raise NumericError("no harmonic survives the eigenvalue cutoff")
    dm = full.truncate(m)
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

