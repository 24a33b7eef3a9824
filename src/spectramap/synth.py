"""Synthetic dataset generators with known hidden structure.

Each generator returns a SpectraSet plus a sidecar dict holding every
hidden variable, so downstream checks can compare recovered structure
against ground truth.  Three kinds:

arc_manifold       points along a planar circular arc, lifted into the
                   ambient dimension by a random orthonormal map; the
                   hidden variable is arclength.
two_sensor_common  two observation matrices sharing one hidden angle
                   theta, each polluted by its own independent nuisance
                   angle with a larger amplitude, so nothing separates
                   the common variable inside either single sensor.
peak_spectra       pseudo-Voigt mixtures on a wavenumber grid whose
                   shape varies smoothly with a hidden "size" emitted as
                   the target; the default coupling widens peaks and
                   lifts the background as size grows, and a "linear"
                   coupling mode mixes two fixed end-member spectra
                   affinely instead (useful as an exactly linear
                   regression oracle).

All randomness flows through one seeded generator per call, so the same
spec reproduces the same dataset bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .dataset import SpectraSet, WavenumberGrid
from .ihm import ComponentModel, HardModel, Peak, hard_model_eval


@dataclass(frozen=True)
class ArcParams:
    """`params` of `arc_manifold`."""

    ambient_dim: int = 5
    radius: float = 1.0
    span: float = 1.5 * np.pi

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise ValueError("ambient_dim must be at least 2")


@dataclass(frozen=True)
class TwoSensorParams:
    """`params` of `two_sensor_common`."""

    ambient_dim1: int = 6
    ambient_dim2: int = 6
    alpha: float = 1.3

    def __post_init__(self):
        if min(self.ambient_dim1, self.ambient_dim2) < 4:
            raise ValueError("ambient dims must be at least 4")


@dataclass(frozen=True)
class PeakParams:
    """`params` of `peak_spectra`; grid None is 850-1800 cm^-1 in steps
    of 2."""

    size_min: float = 208.0
    size_max: float = 483.0
    coupling: float = 1.0
    mode: str = "width"
    grid: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if not self.size_min < self.size_max:
            raise ValueError("need size_min < size_max")
        if self.mode not in ("width", "linear"):
            raise ValueError(f"unknown coupling mode {self.mode!r}")


PARAMS = {"arc_manifold": ArcParams, "two_sensor_common": TwoSensorParams,
          "peak_spectra": PeakParams}
KINDS = tuple(PARAMS)


@dataclass(frozen=True)
class SynthSpec:
    """`params` is the kind's spec in PARAMS; a dict of its fields is
    turned into it."""

    kind: str
    n_samples: int = 200
    noise: float = 0.0
    seed: int = 0
    params: Union[ArcParams, TwoSensorParams, PeakParams, dict] = field(
        default_factory=dict, metadata={"spec_by": ("kind", PARAMS)})

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if self.n_samples < 10:
            raise ValueError("need at least 10 samples")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if isinstance(self.params, dict):
            object.__setattr__(self, "params",
                               PARAMS[self.kind](**self.params))


def _orthonormal_lift(rng, ambient: int, intrinsic: int) -> np.ndarray:
    """Random (ambient x intrinsic) matrix with orthonormal columns."""
    Q, _ = np.linalg.qr(rng.normal(size=(ambient, intrinsic)))
    return Q[:, :intrinsic]


def _ids(n: int) -> Tuple[str, ...]:
    return tuple(f"s{i:04d}" for i in range(n))


def _arc_manifold(spec: SynthSpec, rng) -> Tuple[SpectraSet, Dict]:
    p = spec.params
    ambient, radius = p.ambient_dim, p.radius
    t = np.sort(rng.uniform(0.0, p.span, size=spec.n_samples))
    planar = radius * np.column_stack([np.cos(t), np.sin(t)])
    Q = _orthonormal_lift(rng, ambient, 2)
    X = planar @ Q.T
    if spec.noise > 0:
        X = X + spec.noise * rng.normal(size=X.shape)
    arclength = radius * t
    data = SpectraSet(WavenumberGrid(np.arange(ambient, dtype=float)),
                      X, _ids(spec.n_samples), sizes=1.0 + arclength)
    sidecar = {"arclength": arclength, "angle": t, "lift": Q}
    return data, sidecar


def _two_sensor_common(spec: SynthSpec, rng) -> Tuple[SpectraSet, Dict]:
    p = spec.params
    d1, d2, alpha = p.ambient_dim1, p.ambient_dim2, p.alpha
    n = spec.n_samples
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    nuis1 = rng.uniform(0.0, 2.0 * np.pi, size=n)
    nuis2 = rng.uniform(0.0, 2.0 * np.pi, size=n)
    base1 = np.column_stack([np.cos(theta), np.sin(theta),
                             alpha * np.cos(nuis1), alpha * np.sin(nuis1)])
    base2 = np.column_stack([np.cos(theta), np.sin(theta),
                             alpha * np.cos(nuis2), alpha * np.sin(nuis2)])
    X1 = base1 @ _orthonormal_lift(rng, d1, 4).T
    X2 = base2 @ _orthonormal_lift(rng, d2, 4).T
    if spec.noise > 0:
        X1 = X1 + spec.noise * rng.normal(size=X1.shape)
        X2 = X2 + spec.noise * rng.normal(size=X2.shape)
    data = SpectraSet(WavenumberGrid(np.arange(d1, dtype=float)),
                      X1, _ids(n), sizes=1.0 + theta)
    sidecar = {"theta": theta, "nuisance1": nuis1, "nuisance2": nuis2,
               "sensor2": X2}
    return data, sidecar


def _peak_spectra(spec: SynthSpec, rng) -> Tuple[SpectraSet, Dict]:
    p = spec.params
    size_min, size_max, coupling = p.size_min, p.size_max, p.coupling
    grid = (np.arange(850.0, 1801.0, 2.0) if p.grid is None
            else np.asarray(p.grid, dtype=float))
    n = spec.n_samples
    sizes = rng.uniform(size_min, size_max, size=n)
    z = (sizes - size_min) / (size_max - size_min)

    def model_at(zi: float) -> HardModel:
        widen = 1.0 + 0.5 * coupling * zi
        peaks = (Peak(1000.0, 2.0, 0.6, 14.0 * widen),
                 Peak(1250.0, 1.3, 0.4, 20.0 * widen),
                 Peak(1600.0, 2.6, 0.5, 11.0 * widen))
        comp = ComponentModel("synthetic", peaks)
        return HardModel((comp,), (1.0,),
                         (0.05 + 0.15 * coupling * zi, 0.0))

    if p.mode == "width":
        X = np.vstack([hard_model_eval(model_at(zi), grid) for zi in z])
    else:
        lo = hard_model_eval(model_at(0.0), grid)
        hi = hard_model_eval(model_at(1.0), grid)
        X = lo[None, :] + np.outer(z, hi - lo)
    if spec.noise > 0:
        X = X + spec.noise * rng.normal(size=X.shape)
    data = SpectraSet(WavenumberGrid(grid), X, _ids(n), sizes=sizes)
    sidecar = {"size": sizes, "z": z}
    return data, sidecar


def synth_generate(spec: SynthSpec) -> Tuple[SpectraSet, Dict]:
    """Generate the dataset spec.kind names; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "arc_manifold":
        return _arc_manifold(spec, rng)
    if spec.kind == "two_sensor_common":
        return _two_sensor_common(spec, rng)
    return _peak_spectra(spec, rng)
