"""Alternating diffusion maps over two synchronized sensors.

Both sensors observe the same samples; each gets its own Markov kernel
K1, K2 (the full diffusion-map construction, including density
normalization when enabled).  Their product

    K_alt = K1 @ K2

is again row-stochastic and its eigenvectors Psi parameterize only the
structure the two sensors share: diffusion alternates between the
sensors, so variation seen by a single sensor averages out.  K_alt is
never formed.  Its n_eig leading eigenpairs come from
dmaps.leading_eigenpairs, block subspace iteration on Q -> K1 (K2 Q)
with a block of 2 n_eig columns: each sweep orthonormalizes the product
by QR, and Rayleigh-Ritz uses a general (nonsymmetric) eig of the small
projected matrix.  It stops when every kept pair has
|K_alt v - lambda v| <= EIG_TOL |lambda_0| |v|, and a fit that does not
get there within EIG_MAX_SWEEPS sweeps raises NumericError.
Eigenvalues of a real stochastic product must be real here, and any
kept eigenpair with a relative imaginary part above 1e-8 aborts the
fit.  Eigenvectors are unit-norm with the largest-magnitude entry
positive, matching the single-sensor convention, so feeding the same
data to both sensors reproduces the single-sensor eigenvectors with
squared eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .dmaps import (KernelParams, leading_eigenpairs, training_kernel,
                    _fix_signs)
from .errors import NumericError

IMAG_LEAK_TOL = 1e-8


@dataclass(frozen=True)
class AltDmapModel:
    """Fitted alternating diffusion map for one synchronized sensor pair."""

    epsilon1: float
    epsilon2: float
    density_normalize: bool
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    n_samples: int


def _markov_kernel(X: np.ndarray, params: KernelParams) -> Tuple[np.ndarray, float]:
    """K = D^-1 W~, formed in place of W~ (rounded as markov_normalize)."""
    Wt, _, eps = training_kernel(X, params)
    Wt /= Wt.sum(axis=1)[:, None]
    return Wt, eps


def fit_altdmaps(X1: np.ndarray, X2: np.ndarray,
                 params1: Optional[KernelParams] = None,
                 params2: Optional[KernelParams] = None,
                 n_eig: int = 10) -> AltDmapModel:
    """Fit the alternating kernel K1 @ K2 over paired sensor matrices.

    X1 and X2 must have one row per sample, rows aligned.  Keeps the
    n_eig leading eigenpairs sorted by descending |lambda|; raises
    NumericError if complex parts leak past IMAG_LEAK_TOL.
    """
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    if X1.ndim != 2 or X2.ndim != 2 or X1.shape[0] != X2.shape[0]:
        raise ValueError("sensor matrices must be 2-D with aligned rows")
    if params1 is None:
        params1 = KernelParams()
    if params2 is None:
        params2 = KernelParams()
    if params1.density_normalize != params2.density_normalize:
        raise ValueError("sensors must agree on density normalization")
    n = X1.shape[0]
    if n_eig < 2 or n <= n_eig:
        raise ValueError("need more samples than requested eigenpairs")
    K1, eps1 = _markov_kernel(X1, params1)
    K2, eps2 = _markov_kernel(X2, params2)
    vals, vecs = leading_eigenpairs(lambda Q: K1 @ (K2 @ Q), n, n_eig,
                                    2 * n_eig)
    scale = np.maximum(np.abs(vals), 1e-300)
    if np.any(np.abs(vals.imag) > IMAG_LEAK_TOL * scale):
        raise NumericError("alternating kernel produced complex eigenvalues")
    if np.max(np.abs(vecs.imag)) > IMAG_LEAK_TOL * np.max(np.abs(vecs.real)):
        raise NumericError("alternating kernel produced complex eigenvectors")
    lam = vals.real
    Psi = vecs.real
    Psi = Psi / np.linalg.norm(Psi, axis=0)
    Psi = _fix_signs(Psi)
    if abs(lam[0] - 1.0) > 1e-8:
        raise NumericError(f"leading alternating eigenvalue {lam[0]!r} is not 1")
    return AltDmapModel(epsilon1=eps1, epsilon2=eps2,
                        density_normalize=params1.density_normalize,
                        eigenvalues=lam, eigenvectors=Psi, n_samples=n)


def alt_coordinates(model: AltDmapModel, indices: Sequence[int]) -> np.ndarray:
    """Selected eigenvector columns as embedding coordinates."""
    idx = np.asarray(list(indices), dtype=int)
    if idx.size == 0:
        raise ValueError("no coordinate indices requested")
    if np.any(idx < 0) or np.any(idx >= model.eigenvalues.size):
        raise ValueError("coordinate index out of range")
    return model.eigenvectors[:, idx]
