"""Hard modeling of spectra with pseudo-Voigt peaks.

A hard model is a linear baseline plus weighted component models, each
component a sum of peaks.  A peak is amplitude-parameterized:

    v(w) = intensity * ( shape * G(u) + (1 - shape) * L(u) ),
    u = (w - position) / hwhm,  G = exp(-ln2 * u^2),  L = 1 / (1 + u^2)

so both line shapes peak at 1 and halve at u = +-1, making hwhm a true
half-width at half maximum for any shape fraction.

Evaluation and fitting share one layout per (model, mode), made by one
walk over components and peaks: the (n_peaks, 4) table of (position,
intensity, shape, hwhm), each peak's component, and the free parameters
theta = (offset, slope, component weights, the table's first k columns
row by row), k = 1 (positions) in "medium" mode and 4 in "high" mode.
All peaks are evaluated at once, each component summed in peak order.

Fitting is damped Gauss-Newton (Levenberg-Marquardt with Marquardt's
diag(J'J) scaling) over theta.  Positions are box-bounded around their
initial values and the other parameters are projected onto their
physical ranges after every trial step, so accepted steps never leave
the feasible set and the SSE is non-increasing by construction.

The stopping tests are MINPACK's relative ones (More, "The
Levenberg-Marquardt algorithm: implementation and theory", 1978), with
D = sqrt(diag(J'J)) and the reason recorded in ``FitResult.reason``:

- "gtol": every component of the projected gradient g = J'r has cosine
  |g_j| / (D_j ||r||) <= LM_GTOL, where a parameter at a bound whose
  gradient points out of the box counts as zero (so does an exact fit);
- "ftol": after a trial step, the relative SSE decrease and the relative
  reduction predicted by the damped linear model are both <= LM_FTOL
  (a rejected step decreases nothing, so there the prediction decides);
- "xtol": the trial step, scaled by D, is <= LM_XTOL times the scaled
  parameter vector;
- "lambda_max": the damping overflowed LM_LAMBDA_MAX, and
  "max_iterations": the budget ran out; neither counts as converged.

Every test is a ratio of quantities of the same units, so scaling a
spectrum together with its baseline and peak intensities by a power of
two gives the same iterations, the same reason and exactly scaled
parameters.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from dataclasses import asdict, dataclass, field
from typing import Tuple

import numpy as np

from .dataset import write_json
from .errors import ConfigError, NumericError

LN2 = float(np.log(2.0))
MODES = ("medium", "high")

LM_LAMBDA0 = 1e-3
LM_MAX_ITER = 200
LM_FTOL = 1e-10
LM_XTOL = 1e-10
LM_GTOL = 1e-10
LM_LAMBDA_MAX = 1e12
POSITION_BOUND = 5.0
HWHM_FLOOR = 1e-6


@dataclass(frozen=True)
class Peak:
    position: float
    intensity: float
    shape: float
    hwhm: float

    def __post_init__(self):
        if self.hwhm <= 0:
            raise ValueError("hwhm must be positive")
        if not 0.0 <= self.shape <= 1.0:
            raise ValueError("shape fraction must lie in [0, 1]")
        if self.intensity < 0:
            raise ValueError("intensity must be nonnegative")


@dataclass(frozen=True)
class ComponentModel:
    name: str
    peaks: Tuple[Peak, ...]

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(self.peaks))
        if not self.peaks:
            raise ValueError("component needs at least one peak")


@dataclass(frozen=True)
class HardModel:
    components: Tuple[ComponentModel, ...]
    weights: Tuple[float, ...]
    baseline: Tuple[float, float]  # (offset, slope)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "weights",
                           tuple(float(w) for w in self.weights))
        object.__setattr__(self, "baseline",
                           (float(self.baseline[0]), float(self.baseline[1])))
        if len(self.components) != len(self.weights):
            raise ValueError("one weight per component required")
        if not self.components:
            raise ValueError("need at least one component")
        if any(w < 0 for w in self.weights):
            raise ValueError("component weights must be nonnegative")


@dataclass(frozen=True)
class IhmFeatures:
    """Pipeline stage: peak parameters fitted per spectrum on a fixed grid."""

    base: HardModel
    wavenumbers: np.ndarray
    mode: str
    position_bound: float
    max_iterations: int


CONVERGED_REASONS = ("gtol", "ftol", "xtol")


@dataclass(frozen=True)
class FitResult:
    model: HardModel
    sse: float
    n_iterations: int
    reason: str  # one of CONVERGED_REASONS, "lambda_max", "max_iterations"
    parameters: np.ndarray = field(compare=False)  # model's theta

    @property
    def converged(self) -> bool:
        return self.reason in CONVERGED_REASONS


def pseudo_voigt_eval(peak: Peak, grid: np.ndarray) -> np.ndarray:
    return component_eval(ComponentModel("peak", (peak,)), grid)


def component_eval(component: ComponentModel, grid: np.ndarray) -> np.ndarray:
    return hard_model_eval(HardModel((component,), (1.0,), (0.0, 0.0)), grid)


def hard_model_eval(model: HardModel, grid: np.ndarray) -> np.ndarray:
    lay = _layout(model, "medium")
    return _evaluate(lay, lay.theta, np.asarray(grid, dtype=float))


def n_free_parameters(model: HardModel, mode: str) -> int:
    return _layout(model, mode).theta.size


def extract_parameters(model: HardModel, mode: str) -> np.ndarray:
    """The mode's free parameters theta (see the module docstring)."""
    return _layout(model, mode).theta


def rebuild_model(template: HardModel, values: np.ndarray,
                  mode: str) -> HardModel:
    """Inverse of extract_parameters against the template's structure."""
    lay = _layout(template, mode)
    if np.size(values) != lay.theta.size:
        raise ValueError("parameter vector length does not match the model")
    return _rebuild(template, lay, np.asarray(values, dtype=float))


_Layout = namedtuple("_Layout", "table comp n_comp k theta")


def _layout(model: HardModel, mode: str) -> _Layout:
    """The one walk over components and peaks: the peak table, each
    peak's component, the free table columns k and the model's theta."""
    if mode not in MODES:
        raise ValueError(f"unknown fit mode {mode!r}")
    rows = np.array([(ci, p.position, p.intensity, p.shape, p.hwhm)
                     for ci, comp in enumerate(model.components)
                     for p in comp.peaks], dtype=float)
    k = 1 if mode == "medium" else 4
    free = rows[:, 1:1 + k].ravel()
    return _Layout(rows[:, 1:], rows[:, 0].astype(int), len(model.weights), k,
                   np.concatenate((model.baseline, model.weights, free)))


def _rebuild(template: HardModel, lay: _Layout, theta) -> HardModel:
    table = lay.table.copy()
    table[:, :lay.k] = theta[2 + lay.n_comp:].reshape(-1, lay.k)
    rows = iter(table.tolist())
    comps = [ComponentModel(c.name, [Peak(*next(rows)) for _ in c.peaks])
             for c in template.components]
    return HardModel(comps, theta[2:2 + lay.n_comp], theta[:2])


def _evaluate(lay: _Layout, theta: np.ndarray, grid: np.ndarray,
              jacobian: bool = False):
    """The model spectrum of theta on grid and, with `jacobian`, its
    analytic (n_grid, n_theta) derivative; line shapes are peak-major."""
    weights = theta[2:2 + lay.n_comp]
    # (n_peaks, 1) columns: the free ones from theta, the others from the table
    free = theta[2 + lay.n_comp:].reshape(-1, lay.k).T[:, :, None]
    position, intensity, shape, hwhm = (*free, *lay.table.T[lay.k:, :, None])
    u = (grid - position) / hwhm
    gauss = np.exp(-LN2 * u * u)
    lorentz = 1.0 / (1.0 + u * u)
    unit = shape * gauss + (1.0 - shape) * lorentz
    sums = np.zeros((lay.n_comp, grid.size))
    for ci, row in zip(lay.comp, intensity * unit):
        sums[ci] += row
    out = theta[0] + theta[1] * grid
    for weight, comp_sum in zip(weights, sums):
        out += weight * comp_sum
    if not jacobian:
        return out
    # d(unit)/du, with dG/du = -2 ln2 u G and dL/du = -2 u L^2
    dunit_du = (shape * (-2.0 * LN2) * u * gauss
                + (1.0 - shape) * (-2.0 * u) * lorentz * lorentz)
    weight = weights[lay.comp, None]
    scaled_dunit = weight * intensity * dunit_du
    J = np.empty((grid.size, theta.size))   # C order keeps J.T @ J's bits
    J[:, 0] = 1.0
    J[:, 1] = grid
    J[:, 2:2 + lay.n_comp] = sums.T
    dpeak = J[:, 2 + lay.n_comp:].reshape(grid.size, -1, lay.k).T  # a view
    dpeak[0] = scaled_dunit * (-1.0 / hwhm)
    if lay.k == 4:
        dpeak[1] = weight * unit
        dpeak[2] = weight * intensity * (gauss - lorentz)
        dpeak[3] = scaled_dunit * (-u / hwhm)
    return out, J


def _eval_and_jacobian(template, values, mode, grid):
    return _evaluate(_layout(template, mode), values, grid, jacobian=True)


def _projector(lay: _Layout, position_bound: float):
    """The feasible box (lo, hi) that trial steps are clipped onto:
    positions boxed around their initial values, weights/intensities
    nonnegative, shape fractions in [0, 1], widths positive."""
    edges = np.array([(-position_bound, 0.0, 0.0, HWHM_FLOOR),
                      (position_bound, np.inf, 1.0, np.inf)])
    lo, hi = np.repeat(edges[:, None, :lay.k], len(lay.table), axis=1)
    lo[:, 0] += lay.table[:, 0]
    hi[:, 0] += lay.table[:, 0]
    return (np.concatenate(([-np.inf] * 2 + [0.0] * lay.n_comp, lo.ravel())),
            np.concatenate(([np.inf] * (2 + lay.n_comp), hi.ravel())))


def fit_hard_model(model: HardModel, grid: np.ndarray,
                   intensity: np.ndarray, mode: str = "medium",
                   position_bound: float = POSITION_BOUND,
                   max_iterations: int = LM_MAX_ITER) -> FitResult:
    """Least-squares fit of the mode's free parameters to one spectrum.
    Stops on the first stopping test met (see the module docstring);
    max_iterations is only a budget.  Returns the best parameters seen
    even when the budget runs out or the damping overflows (converged
    False in those cases)."""
    lay = _layout(model, mode)
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(intensity, dtype=float)
    if grid.shape != y.shape or grid.ndim != 1:
        raise ValueError("spectrum and grid shapes disagree")
    outside = ~((grid[0] <= lay.table[:, 0]) & (lay.table[:, 0] <= grid[-1]))
    if outside.any():
        raise ValueError(f"peak at {lay.table[outside, 0][0]} outside the "
                         "grid extent")
    theta = lay.theta
    lo, hi = _projector(lay, position_bound)
    eye = np.eye(theta.size)
    pred, J = _evaluate(lay, theta, grid, jacobian=True)
    r = pred - y
    sse = float(r @ r)
    lam = LM_LAMBDA0
    reason = "max_iterations"
    iters = 0
    for iters in range(1, max_iterations + 1):
        g = J.T @ r
        A = J.T @ J
        d = np.sqrt(A.diagonal())
        if not (d > 0).all():
            raise NumericError("Jacobian rank collapse")
        pushed_out = ((theta <= lo) & (g > 0)) | ((theta >= hi) & (g < 0))
        if (np.abs(np.where(pushed_out, 0.0, g)) / d).max() \
                <= LM_GTOL * np.sqrt(sse):
            reason = "gtol"
            break
        # the system in D-scaled variables z = D delta has a unit diagonal,
        # so it is the same for any rescaling of the parameters or the data
        A_scaled = A / (d[:, None] * d)
        g_scaled = g / d
        try:
            z = np.linalg.solve(A_scaled + lam * eye, -g_scaled)
        except np.linalg.LinAlgError:
            raise NumericError("Jacobian rank collapse") from None
        if not np.isfinite(z).all():
            raise NumericError("Jacobian rank collapse")
        cand = (theta + z / d).clip(lo, hi)
        cand_pred, cand_J = _evaluate(lay, cand, grid, jacobian=True)
        cand_r = cand_pred - y
        cand_sse = float(cand_r @ cand_r)
        decrease = sse - cand_sse
        predicted = float(z @ A_scaled @ z) + 2.0 * lam * float(z @ z)
        step = np.sqrt(((d * (cand - theta)) ** 2).sum())
        size = np.sqrt(((d * theta) ** 2).sum())
        tol_sse = LM_FTOL * sse
        if decrease > 0:
            theta, r, J, sse = cand, cand_r, cand_J, cand_sse
            lam = max(lam / 10.0, 1e-15)
        else:
            lam *= 10.0
        if decrease <= tol_sse and predicted <= tol_sse:
            reason = "ftol"
            break
        if step <= LM_XTOL * size:
            reason = "xtol"
            break
        if lam > LM_LAMBDA_MAX:
            reason = "lambda_max"
            break
    return FitResult(_rebuild(model, lay, theta), sse, iters, reason, theta)


def ihm_features(stage: IhmFeatures, X: np.ndarray):
    """Apply the stage to rows X: feature rows, the unconverged count,
    the mean SSE and the count of each termination reason."""
    fits = [fit_hard_model(stage.base, stage.wavenumbers, x, stage.mode,
                           position_bound=stage.position_bound,
                           max_iterations=stage.max_iterations) for x in X]
    reasons = Counter(fit.reason for fit in fits)
    sse_total = 0.0
    for fit in fits:
        sse_total += fit.sse
    unconverged = sum(count for reason, count in reasons.items()
                      if reason not in CONVERGED_REASONS)
    return (np.array([fit.parameters for fit in fits]), unconverged,
            sse_total / len(X), dict(sorted(reasons.items())))


@dataclass(frozen=True)
class _Baseline:
    offset: float
    slope: float


@dataclass(frozen=True)
class _Component:
    name: str
    weight: float
    peaks: Tuple[Peak, ...]


@dataclass(frozen=True)
class _HardModelFile:
    """The hard-model file format; spec_from checks a file against it."""

    baseline: _Baseline
    components: Tuple[_Component, ...]


def hard_model_to_dict(model: HardModel) -> dict:
    return asdict(_HardModelFile(_Baseline(*model.baseline), tuple(
        _Component(c.name, w, c.peaks)
        for c, w in zip(model.components, model.weights))))


def hard_model_from_dict(data: dict) -> HardModel:
    from .config import spec_from   # config imports this module
    doc = spec_from(_HardModelFile, data, "hard model")
    return HardModel([ComponentModel(c.name, c.peaks) for c in doc.components],
                     [c.weight for c in doc.components],
                     (doc.baseline.offset, doc.baseline.slope))


def save_hard_model(path, model: HardModel) -> None:
    write_json(path, hard_model_to_dict(model))


def load_hard_model(path) -> HardModel:
    with open(path, encoding="utf-8") as fh:
        try:
            return hard_model_from_dict(json.load(fh))
        except ValueError as e:   # ConfigError and JSON syntax included
            raise ConfigError(f"{path}: {e}") from None
