"""Tests for the hard-modeling code.

Line-shape facts pinned here: both mixture components have unit height
at the peak position, halve at one half-width, and the Lorentzian is
exactly 1/5 at two half-widths (1/(1+4)).  The fitter is checked by
self-fit: a spectrum generated from a known model must be recovered from
a perturbed start.  Its stopping rule is checked by scaling a noisy
spectrum together with its hard model by powers of two, which must not
change a single decision or bit, and by one pinned noisy fit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectramap.errors import NumericError
from spectramap.ihm import (MODES, ComponentModel, HardModel, Peak,
                            _eval_and_jacobian, component_eval,
                            extract_parameters, fit_hard_model,
                            hard_model_eval, hard_model_from_dict,
                            hard_model_to_dict, load_hard_model,
                            n_free_parameters, rebuild_model, save_hard_model)

GRID = np.arange(850.0, 1801.0, 2.0)


def _three_peak_model():
    return HardModel(
        (ComponentModel("a", (Peak(1000.0, 2.0, 0.7, 12.0),
                              Peak(1220.0, 1.2, 0.3, 18.0))),
         ComponentModel("b", (Peak(1480.0, 3.0, 0.5, 9.0),))),
        (1.5, 0.8), (0.2, 1e-4))


def _many_peak_model():
    def comp(n, base):
        return ComponentModel(f"c{base}", tuple(
            Peak(900.0 + base + 3.0 * i, 1.0, 0.5, 8.0) for i in range(n)))
    return HardModel((comp(23, 0), comp(17, 200), comp(4, 500)),
                     (1.0, 1.0, 1.0), (0.0, 0.0))


def test_type_validation():
    with pytest.raises(ValueError):
        Peak(1000.0, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        Peak(1000.0, 1.0, 1.5, 5.0)
    with pytest.raises(ValueError):
        Peak(1000.0, -1.0, 0.5, 5.0)
    with pytest.raises(ValueError):
        ComponentModel("x", ())
    comp = ComponentModel("x", (Peak(1000.0, 1.0, 0.5, 5.0),))
    with pytest.raises(ValueError):
        HardModel((comp,), (1.0, 2.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        HardModel((comp,), (-1.0,), (0.0, 0.0))


def test_pure_gaussian_halves_at_hwhm():
    peak = Peak(1200.0, 4.0, 1.0, 15.0)
    vals = pseudo_voigt_at(peak, [1200.0, 1185.0, 1215.0])
    assert vals[0] == 4.0
    assert abs(vals[1] - 2.0) < 1e-10
    assert abs(vals[2] - 2.0) < 1e-10


def test_pure_lorentzian_fifth_at_two_hwhm():
    peak = Peak(1200.0, 5.0, 0.0, 15.0)
    vals = pseudo_voigt_at(peak, [1200.0, 1170.0, 1230.0])
    assert vals[0] == 5.0
    assert abs(vals[1] - 1.0) < 1e-12
    assert abs(vals[2] - 1.0) < 1e-12


def pseudo_voigt_at(peak, points):
    from spectramap.ihm import pseudo_voigt_eval
    return pseudo_voigt_eval(peak, np.asarray(points, dtype=float))


def test_half_mix_matches_formula_oracle():
    rng = np.random.default_rng(0)
    peak = Peak(1234.5, 2.5, 0.5, 11.0)
    w = rng.uniform(850, 1800, size=50)
    u = (w - 1234.5) / 11.0
    oracle = 2.5 * (0.5 * np.exp(-np.log(2) * u ** 2) + 0.5 / (1 + u ** 2))
    assert np.max(np.abs(pseudo_voigt_at(peak, w) - oracle)) < 1e-14


def test_mixture_halves_at_hwhm_for_any_shape():
    for eta in (0.0, 0.25, 0.5, 0.9, 1.0):
        peak = Peak(1000.0, 3.0, eta, 20.0)
        vals = pseudo_voigt_at(peak, [980.0, 1020.0])
        assert np.max(np.abs(vals - 1.5)) < 1e-10


def test_peak_symmetry():
    peak = Peak(1300.0, 1.7, 0.4, 13.0)
    offsets = np.linspace(0.5, 60.0, 40)
    left = pseudo_voigt_at(peak, 1300.0 - offsets)
    right = pseudo_voigt_at(peak, 1300.0 + offsets)
    assert np.max(np.abs(left - right)) < 1e-12


def test_zero_weights_give_pure_baseline():
    comp = ComponentModel("x", (Peak(1000.0, 1.0, 0.5, 5.0),))
    model = HardModel((comp,), (0.0,), (1.5, 0.01))
    assert np.allclose(hard_model_eval(model, GRID), 1.5 + 0.01 * GRID,
                       atol=0)


def test_single_peak_model_equals_peak_eval():
    peak = Peak(1100.0, 2.0, 0.6, 10.0)
    model = HardModel((ComponentModel("x", (peak,)),), (1.0,), (0.0, 0.0))
    assert np.array_equal(hard_model_eval(model, GRID),
                          pseudo_voigt_at(peak, GRID))


def test_model_matches_summation_oracle():
    model = _three_peak_model()
    oracle = model.baseline[0] + model.baseline[1] * GRID
    for comp, weight in zip(model.components, model.weights):
        for p in comp.peaks:
            oracle = oracle + weight * pseudo_voigt_at(p, GRID)
    assert np.max(np.abs(hard_model_eval(model, GRID) - oracle)) < 1e-12


def test_parameter_counts():
    model = _three_peak_model()
    assert n_free_parameters(model, "medium") == 2 + 2 + 3
    assert n_free_parameters(model, "high") == 2 + 2 + 4 * 3
    big = _many_peak_model()
    assert n_free_parameters(big, "medium") == 49
    assert n_free_parameters(big, "high") == 181
    assert extract_parameters(big, "medium").size == 49
    assert extract_parameters(big, "high").size == 181


def test_extract_rebuild_round_trip():
    model = _three_peak_model()
    for mode in ("medium", "high"):
        vec = extract_parameters(model, mode)
        assert rebuild_model(model, vec, mode) == model
    with pytest.raises(ValueError):
        rebuild_model(model, np.zeros(3), "medium")
    with pytest.raises(ValueError):
        extract_parameters(model, "low")


def test_extraction_order_is_documented_layout():
    model = _three_peak_model()
    vec = extract_parameters(model, "medium")
    assert vec[0] == 0.2 and vec[1] == 1e-4
    assert tuple(vec[2:4]) == (1.5, 0.8)
    assert tuple(vec[4:]) == (1000.0, 1220.0, 1480.0)
    hv = extract_parameters(model, "high")
    assert tuple(hv[4:8]) == (1000.0, 2.0, 0.7, 12.0)


def test_jacobian_matches_finite_differences():
    model = _three_peak_model()
    for mode in ("medium", "high"):
        theta = extract_parameters(model, mode)
        _, J = _eval_and_jacobian(model, theta, mode, GRID)
        h = 1e-6
        worst = 0.0
        for k in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fp, _ = _eval_and_jacobian(model, tp, mode, GRID)
            fm, _ = _eval_and_jacobian(model, tm, mode, GRID)
            fd = (fp - fm) / (2 * h)
            worst = max(worst, np.max(np.abs(J[:, k] - fd)
                                      / np.maximum(np.abs(fd), 1e-8)))
        assert worst < 1e-3


def test_medium_self_fit_recovers_parameters():
    truth = _three_peak_model()
    y = hard_model_eval(truth, GRID)
    start = HardModel(
        (ComponentModel("a", (Peak(1002.5, 2.0, 0.7, 12.0),
                              Peak(1217.5, 1.2, 0.3, 18.0))),
         ComponentModel("b", (Peak(1482.0, 3.0, 0.5, 9.0),))),
        (1.2, 1.1), (0.5, 0.0))
    res = fit_hard_model(start, GRID, y, mode="medium")
    assert res.converged
    assert res.sse < 1e-10
    got = extract_parameters(res.model, "medium")
    want = extract_parameters(truth, "medium")
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-4


def test_high_self_fit_recovers_identifiable_parameters():
    truth = _three_peak_model()
    y = hard_model_eval(truth, GRID)
    start = HardModel(
        (ComponentModel("a", (Peak(1001.0, 1.9, 0.65, 12.5),
                              Peak(1219.0, 1.25, 0.35, 17.5))),
         ComponentModel("b", (Peak(1481.0, 2.9, 0.55, 9.3),))),
        (1.5, 0.8), (0.3, 5e-5))
    res = fit_hard_model(start, GRID, y, mode="high")
    assert res.converged
    assert res.sse < 1e-10
    # weight*intensity is the identifiable combination in high mode
    for fc, ft, wf, wt in zip(res.model.components, truth.components,
                              res.model.weights, truth.weights):
        for pf, pt in zip(fc.peaks, ft.peaks):
            assert abs(pf.position - pt.position) / pt.position < 1e-4
            assert abs(pf.hwhm - pt.hwhm) / pt.hwhm < 1e-4
            assert abs(pf.shape - pt.shape) < 1e-4
            assert abs(wf * pf.intensity - wt * pt.intensity) \
                / (wt * pt.intensity) < 1e-4


def test_position_bound_pins_the_shift():
    truth = HardModel((ComponentModel("a", (Peak(1000.0, 2.0, 0.5, 10.0),)),),
                      (1.0,), (0.0, 0.0))
    y = hard_model_eval(truth, GRID)
    start = HardModel((ComponentModel("a", (Peak(988.0, 2.0, 0.5, 10.0),)),),
                      (1.0,), (0.0, 0.0))
    res = fit_hard_model(start, GRID, y, mode="medium")
    assert res.model.components[0].peaks[0].position <= 993.0 + 1e-12
    wide = fit_hard_model(start, GRID, y, mode="medium", position_bound=20.0)
    assert abs(wide.model.components[0].peaks[0].position - 1000.0) < 1e-6
    assert wide.sse < 1e-10


def test_exhausted_budget_returns_best_so_far_unconverged():
    truth = HardModel((ComponentModel("a", (Peak(1000.0, 2.0, 0.5, 10.0),)),),
                      (1.0,), (0.0, 0.0))
    y = hard_model_eval(truth, GRID)
    start = HardModel((ComponentModel("a", (Peak(996.0, 1.0, 0.5, 14.0),)),),
                      (1.0,), (0.1, 0.0))
    res = fit_hard_model(start, GRID, y, mode="high", max_iterations=1)
    assert not res.converged
    init_sse = float(np.sum((hard_model_eval(start, GRID) - y) ** 2))
    assert res.sse <= init_sse


def test_zero_intensity_peak_collapses_jacobian():
    dead = HardModel((ComponentModel("a", (Peak(1000.0, 0.0, 0.5, 10.0),
                                           Peak(1200.0, 1.0, 0.5, 10.0))),),
                     (1.0,), (0.0, 0.0))
    y = hard_model_eval(dead, GRID) + 0.01
    with pytest.raises(NumericError):
        fit_hard_model(dead, GRID, y, mode="medium")


def test_fit_validates_inputs():
    model = _three_peak_model()
    y = hard_model_eval(model, GRID)
    with pytest.raises(ValueError):
        fit_hard_model(model, GRID, y[:-1])
    outside = HardModel(
        (ComponentModel("a", (Peak(2000.0, 1.0, 0.5, 10.0),)),),
        (1.0,), (0.0, 0.0))
    with pytest.raises(ValueError):
        fit_hard_model(outside, GRID, y)
    with pytest.raises(ValueError):
        fit_hard_model(model, GRID, y, mode="low")


def test_json_round_trip(tmp_path):
    model = _three_peak_model()
    again = hard_model_from_dict(hard_model_to_dict(model))
    assert again == model
    path = tmp_path / "model.json"
    save_hard_model(path, model)
    assert load_hard_model(path) == model
    with pytest.raises(ValueError):
        hard_model_from_dict({"components": [{"name": "x"}]})


def test_component_eval_sums_peaks():
    comp = ComponentModel("a", (Peak(1000.0, 2.0, 0.7, 12.0),
                                Peak(1100.0, 1.0, 0.2, 9.0)))
    total = pseudo_voigt_at(comp.peaks[0], GRID) \
        + pseudo_voigt_at(comp.peaks[1], GRID)
    assert np.array_equal(component_eval(comp, GRID), total)


def _noisy_fit_problem():
    """A 0.02-noise spectrum of the three-peak model and a start off in
    every parameter."""
    y = hard_model_eval(_three_peak_model(), GRID) \
        + 0.02 * np.random.default_rng(0).standard_normal(GRID.size)
    start = HardModel(
        (ComponentModel("a", (Peak(996.0, 1.8, 0.6, 14.0),
                              Peak(1223.0, 1.0, 0.4, 15.0))),
         ComponentModel("b", (Peak(1476.0, 3.3, 0.5, 10.0),))),
        (1.0, 1.0), (0.0, 0.0))
    return start, y


def _scaled(model, c):
    """The model with its baseline and every peak intensity times c."""
    return HardModel(
        tuple(ComponentModel(comp.name, tuple(
            Peak(p.position, c * p.intensity, p.shape, p.hwhm)
            for p in comp.peaks)) for comp in model.components),
        model.weights, (c * model.baseline[0], c * model.baseline[1]))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(-60, 60), mode=st.sampled_from(MODES))
def test_stopping_decisions_do_not_depend_on_the_data_scale(k, mode):
    # c = 2^k scales exactly, so every ratio the stopping tests form and
    # every fitted parameter, scaled back, must come out bit-identical
    start, y = _noisy_fit_problem()
    c = 2.0 ** k
    ref = fit_hard_model(start, GRID, y, mode=mode)
    got = fit_hard_model(_scaled(start, c), GRID, c * y, mode=mode)
    assert (got.n_iterations, got.converged, got.reason) \
        == (ref.n_iterations, ref.converged, ref.reason)
    assert ref.converged
    assert np.array_equal(
        extract_parameters(_scaled(got.model, 1.0 / c), mode),
        extract_parameters(ref.model, mode))


def test_pinned_noisy_medium_fit():
    start, y = _noisy_fit_problem()
    res = fit_hard_model(start, GRID, y, mode="medium")
    assert (res.n_iterations, res.reason, res.converged) == (8, "ftol", True)
    want = [0.15835639116820324, 0.00013454535793583429, 1.6469152609155948,
            0.6843315173304523, 999.990393011824, 1219.9928451560731,
            1479.9817743795263]
    np.testing.assert_allclose(extract_parameters(res.model, "medium"),
                               want, rtol=1e-12, atol=0)


PIN_TEMPLATES = {
    "three_peaks": HardModel(
        (ComponentModel("synthetic", (Peak(998.0, 2.0, 0.5, 16.0),
                                      Peak(1253.0, 1.3, 0.5, 23.0),
                                      Peak(1602.0, 2.6, 0.5, 13.0))),),
        (1.0,), (0.0, 0.0)),
    # split peaks: medium fits stop on xtol and ftol, high ones run out
    "two_components_five_peaks": HardModel(
        (ComponentModel("low", (Peak(988.0, 1.0, 0.6, 10.0),
                                Peak(1012.0, 1.0, 0.6, 10.0),
                                Peak(1248.0, 1.3, 0.4, 20.0))),
         ComponentModel("high", (Peak(1588.0, 1.3, 0.5, 10.0),
                                 Peak(1612.0, 1.3, 0.5, 10.0)))),
        (1.0, 1.0), (0.0, 0.0)),
}


def pinned_fits():
    """Every fit, feature row and model evaluation that
    tests/data/ihm_fits.json holds, computed by the current code."""
    from spectramap.ihm import IhmFeatures, ihm_features
    from spectramap.synth import SynthSpec, synth_generate
    ds, _ = synth_generate(SynthSpec(kind="peak_spectra", n_samples=20,
                                     noise=0.01, seed=11))
    grid = ds.grid.values
    out = {}
    for name, template in PIN_TEMPLATES.items():
        out[f"{name}/eval"] = hard_model_eval(template, grid).tolist()
        for mode in MODES:
            fits = []
            for x in ds.intensities:
                res = fit_hard_model(template, grid, x, mode)
                fits.append({"row": extract_parameters(res.model,
                                                       mode).tolist(),
                             "sse": res.sse, "n_iterations": res.n_iterations,
                             "reason": res.reason})
            stage = IhmFeatures(template, grid, mode, 5.0, 200)
            assert ihm_features(stage, ds.intensities)[0].tolist() \
                == [f["row"] for f in fits]
            out[f"{name}/{mode}"] = fits
    return out


def test_fits_and_evaluations_equal_the_pinned_bits():
    # tests/data/ihm_fits.json was written by pinned_fits() before the
    # evaluator and the parameter walk were rewritten; JSON keeps every
    # float's repr, so == compares bits
    import json
    import os
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "ihm_fits.json")) as fh:
        want = json.load(fh)
    got = pinned_fits()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
