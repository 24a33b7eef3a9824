"""Alternating diffusion maps over two synchronized sensors.

Both sensors observe the same samples; each gets its own Markov kernel
K1, K2 (the full diffusion-map construction, including density
normalization when enabled).  Their product

    K_alt = K1 @ K2

is again row-stochastic and its eigenvectors Psi parameterize only the
structure the two sensors share: diffusion alternates between the
sensors, so variation seen by a single sensor averages out.  K_alt is
not symmetric, so a general eigensolver is used; eigenvalues of a real
stochastic product must be real here, and any eigenpair with a relative
imaginary part above 1e-8 aborts the fit.  Eigenvectors are unit-norm
with the largest-magnitude entry positive, matching the single-sensor
convention, so feeding the same data to both sensors reproduces the
single-sensor eigenvectors with squared eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .dmaps import KernelParams, markov_normalize, training_kernel, _fix_signs
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
    Wt, _, eps = training_kernel(X, params)
    return markov_normalize(Wt), eps


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
    K_alt = K1 @ K2
    vals, vecs = np.linalg.eig(K_alt)
    order = np.argsort(np.abs(vals))[::-1][:n_eig]
    vals = vals[order]
    vecs = vecs[:, order]
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
