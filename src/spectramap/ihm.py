"""Hard modeling of spectra with pseudo-Voigt peaks.

A hard model is a linear baseline plus weighted component models, each
component a sum of peaks.  A peak is amplitude-parameterized:

    v(w) = intensity * ( shape * G(u) + (1 - shape) * L(u) ),
    u = (w - position) / hwhm,  G = exp(-ln2 * u^2),  L = 1 / (1 + u^2)

so both line shapes peak at 1 and halve at u = +-1, making hwhm a true
half-width at half maximum for any shape fraction.

Fitting is damped Gauss-Newton (Levenberg-Marquardt with Marquardt's
diag(J'J) scaling) over exactly the free parameters of the chosen mode:
"medium" frees baseline, component weights, and peak positions; "high"
frees baseline, weights, and all four parameters of every peak.
Positions are box-bounded around their initial values and the other
parameters are projected onto their physical ranges after every trial
step, so accepted steps never leave the feasible set and the SSE is
non-increasing by construction.

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
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .dataset import write_json
from .errors import NumericError

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

    @property
    def converged(self) -> bool:
        return self.reason in CONVERGED_REASONS


def pseudo_voigt_eval(peak: Peak, grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    u = (grid - peak.position) / peak.hwhm
    gauss = np.exp(-LN2 * u * u)
    lorentz = 1.0 / (1.0 + u * u)
    return peak.intensity * (peak.shape * gauss + (1.0 - peak.shape) * lorentz)


def component_eval(component: ComponentModel, grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    out = np.zeros_like(grid)
    for peak in component.peaks:
        out += pseudo_voigt_eval(peak, grid)
    return out


def hard_model_eval(model: HardModel, grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    out = model.baseline[0] + model.baseline[1] * grid
    for comp, weight in zip(model.components, model.weights):
        out += weight * component_eval(comp, grid)
    return out


def n_free_parameters(model: HardModel, mode: str) -> int:
    _check_mode(mode)
    n_peaks = sum(len(c.peaks) for c in model.components)
    per_peak = 1 if mode == "medium" else 4
    return 2 + len(model.components) + per_peak * n_peaks


def extract_parameters(model: HardModel, mode: str) -> np.ndarray:
    """Flatten the mode's free parameters.  Order: baseline offset,
    slope, component weights in component order, then per component and
    peak either the position (medium) or (position, intensity, shape,
    hwhm) (high)."""
    _check_mode(mode)
    out = [model.baseline[0], model.baseline[1], *model.weights]
    for comp in model.components:
        for p in comp.peaks:
            if mode == "medium":
                out.append(p.position)
            else:
                out.extend((p.position, p.intensity, p.shape, p.hwhm))
    return np.array(out, dtype=float)


def rebuild_model(template: HardModel, values: np.ndarray,
                  mode: str) -> HardModel:
    """Inverse of extract_parameters against the template's structure."""
    _check_mode(mode)
    values = np.asarray(values, dtype=float)
    if values.size != n_free_parameters(template, mode):
        raise ValueError("parameter vector length does not match the model")
    offset, slope = values[0], values[1]
    n_comp = len(template.components)
    weights = values[2:2 + n_comp]
    pos = 2 + n_comp
    comps = []
    for comp in template.components:
        peaks = []
        for p in comp.peaks:
            if mode == "medium":
                peaks.append(Peak(values[pos], p.intensity, p.shape, p.hwhm))
                pos += 1
            else:
                peaks.append(Peak(values[pos], values[pos + 1],
                                  values[pos + 2], values[pos + 3]))
                pos += 4
        comps.append(ComponentModel(comp.name, tuple(peaks)))
    return HardModel(tuple(comps), tuple(weights), (offset, slope))


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"unknown fit mode {mode!r}")


def _eval_and_jacobian(template, values, mode, grid):
    """Model spectrum and its derivative with respect to every free
    parameter, all analytic."""
    n_comp = len(template.components)
    n = grid.size
    J = np.zeros((n, values.size))
    out = np.full(n, values[0] + values[1] * grid, dtype=float)
    J[:, 0] = 1.0
    J[:, 1] = grid
    pos = 2 + n_comp
    for ci, comp in enumerate(template.components):
        weight = values[2 + ci]
        comp_sum = np.zeros(n)
        for p in comp.peaks:
            if mode == "medium":
                position, intensity, shape, hwhm = (values[pos], p.intensity,
                                                    p.shape, p.hwhm)
            else:
                position, intensity, shape, hwhm = values[pos:pos + 4]
            u = (grid - position) / hwhm
            gauss = np.exp(-LN2 * u * u)
            lorentz = 1.0 / (1.0 + u * u)
            unit = shape * gauss + (1.0 - shape) * lorentz
            comp_sum += intensity * unit
            # d(unit)/du, with dG/du = -2 ln2 u G and dL/du = -2 u L^2
            dunit_du = (shape * (-2.0 * LN2) * u * gauss
                        + (1.0 - shape) * (-2.0 * u) * lorentz * lorentz)
            J[:, pos] = weight * intensity * dunit_du * (-1.0 / hwhm)
            if mode == "high":
                J[:, pos + 1] = weight * unit
                J[:, pos + 2] = weight * intensity * (gauss - lorentz)
                J[:, pos + 3] = weight * intensity * dunit_du * (-u / hwhm)
                pos += 4
            else:
                pos += 1
        out += weight * comp_sum
        J[:, 2 + ci] = comp_sum
    return out, J


def _projector(template, theta0, mode, position_bound):
    """The feasible box (lo, hi) that trial steps are clipped onto:
    positions boxed around their initial values, weights/intensities
    nonnegative, shape fractions in [0, 1], widths positive."""
    n_comp = len(template.components)
    lo = np.full(theta0.size, -np.inf)
    hi = np.full(theta0.size, np.inf)
    lo[2:2 + n_comp] = 0.0
    pos = 2 + n_comp
    for comp in template.components:
        for _ in comp.peaks:
            lo[pos] = theta0[pos] - position_bound
            hi[pos] = theta0[pos] + position_bound
            if mode == "high":
                lo[pos + 1] = 0.0
                lo[pos + 2], hi[pos + 2] = 0.0, 1.0
                lo[pos + 3] = HWHM_FLOOR
                pos += 4
            else:
                pos += 1
    return lo, hi


def fit_hard_model(model: HardModel, grid: np.ndarray,
                   intensity: np.ndarray, mode: str = "medium",
                   position_bound: float = POSITION_BOUND,
                   max_iterations: int = LM_MAX_ITER) -> FitResult:
    """Least-squares fit of the mode's free parameters to one spectrum.
    Stops on the first stopping test met (see the module docstring);
    max_iterations is only a budget.  Returns the best parameters seen
    even when the budget runs out or the damping overflows (converged
    False in those cases)."""
    _check_mode(mode)
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(intensity, dtype=float)
    if grid.shape != y.shape or grid.ndim != 1:
        raise ValueError("spectrum and grid shapes disagree")
    for comp in model.components:
        for p in comp.peaks:
            if not grid[0] <= p.position <= grid[-1]:
                raise ValueError(
                    f"peak at {p.position} outside the grid extent")
    theta = extract_parameters(model, mode)
    lo, hi = _projector(model, theta, mode, position_bound)
    eye = np.eye(theta.size)
    pred, J = _eval_and_jacobian(model, theta, mode, grid)
    r = pred - y
    sse = float(r @ r)
    lam = LM_LAMBDA0
    reason = "max_iterations"
    iters = 0
    for iters in range(1, max_iterations + 1):
        g = J.T @ r
        A = J.T @ J
        d = np.sqrt(np.diag(A))
        if not np.all(d > 0):
            raise NumericError("Jacobian rank collapse")
        pushed_out = ((theta <= lo) & (g > 0)) | ((theta >= hi) & (g < 0))
        if np.max(np.abs(np.where(pushed_out, 0.0, g)) / d) \
                <= LM_GTOL * np.sqrt(sse):
            reason = "gtol"
            break
        # the system in D-scaled variables z = D delta has a unit diagonal,
        # so it is the same for any rescaling of the parameters or the data
        A_scaled = A / np.outer(d, d)
        g_scaled = g / d
        try:
            z = np.linalg.solve(A_scaled + lam * eye, -g_scaled)
        except np.linalg.LinAlgError:
            raise NumericError("Jacobian rank collapse") from None
        if not np.all(np.isfinite(z)):
            raise NumericError("Jacobian rank collapse")
        cand = np.clip(theta + z / d, lo, hi)
        cand_pred, cand_J = _eval_and_jacobian(model, cand, mode, grid)
        cand_r = cand_pred - y
        cand_sse = float(cand_r @ cand_r)
        decrease = sse - cand_sse
        predicted = float(z @ A_scaled @ z) + 2.0 * lam * float(z @ z)
        step = np.sqrt(np.sum((d * (cand - theta)) ** 2))
        size = np.sqrt(np.sum((d * theta) ** 2))
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
    return FitResult(rebuild_model(model, theta, mode), sse, iters, reason)


def ihm_features(stage: IhmFeatures, X: np.ndarray):
    """Apply the stage to rows X: feature rows, the unconverged count,
    the mean SSE and the count of each termination reason."""
    rows = []
    reasons: dict = {}
    sse_total = 0.0
    for x in X:
        result = fit_hard_model(stage.base, stage.wavenumbers, x, stage.mode,
                                position_bound=stage.position_bound,
                                max_iterations=stage.max_iterations)
        rows.append(extract_parameters(result.model, stage.mode))
        reasons[result.reason] = reasons.get(result.reason, 0) + 1
        sse_total += result.sse
    unconverged = sum(count for reason, count in reasons.items()
                      if reason not in CONVERGED_REASONS)
    return (np.array(rows), unconverged, sse_total / len(X),
            dict(sorted(reasons.items())))


def hard_model_to_dict(model: HardModel) -> dict:
    return {
        "baseline": {"offset": model.baseline[0], "slope": model.baseline[1]},
        "components": [
            {"name": comp.name, "weight": weight,
             "peaks": [{"position": p.position, "intensity": p.intensity,
                        "shape": p.shape, "hwhm": p.hwhm}
                       for p in comp.peaks]}
            for comp, weight in zip(model.components, model.weights)],
    }


def hard_model_from_dict(data: dict) -> HardModel:
    try:
        comps = tuple(
            ComponentModel(c["name"],
                           tuple(Peak(p["position"], p["intensity"],
                                      p["shape"], p["hwhm"])
                                 for p in c["peaks"]))
            for c in data["components"])
        weights = tuple(float(c["weight"]) for c in data["components"])
        baseline = (data["baseline"]["offset"], data["baseline"]["slope"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed hard-model dictionary: {exc}") from None
    return HardModel(comps, weights, baseline)


def save_hard_model(path, model: HardModel) -> None:
    write_json(path, hard_model_to_dict(model))


def load_hard_model(path) -> HardModel:
    with open(path, encoding="utf-8") as fh:
        return hard_model_from_dict(json.load(fh))
