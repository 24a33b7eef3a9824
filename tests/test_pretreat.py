"""Tests for pretreatment; the rubber-band baseline is checked against an
independent gift-wrapping lower-hull oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectramap.dataset import SpectraSet, WavenumberGrid
from spectramap.pretreat import (
    PretreatmentSpec,
    apply_pretreatment,
    apply_region,
    baseline_linear_fit,
    baseline_rubber_band,
    lower_convex_hull,
    normalize_minmax,
    normalize_snv,
    region_mask,
    zscore_columns,
)


def giftwrap_lower_hull(w, y):
    """O(n^2) oracle: walk the lower hull by minimal slope, exact
    cross-multiplied comparisons, farthest point wins slope ties so
    collinear interior points are excluded."""
    n = len(w)
    hull = [0]
    i = 0
    while i < n - 1:
        best = i + 1
        for j in range(i + 2, n):
            # slope(i->j) vs slope(i->best), compared without division
            lhs = (y[j] - y[i]) * (w[best] - w[i])
            rhs = (y[best] - y[i]) * (w[j] - w[i])
            if lhs < rhs or (lhs == rhs and w[j] > w[best]):
                best = j
        hull.append(best)
        i = best
    return np.array(hull)


class TestRubberBand:
    def test_hull_matches_giftwrap_oracle_on_random_spectra(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(5, 60))
            w = np.sort(rng.uniform(0, 100, size=n))
            while np.any(np.diff(w) == 0):
                w = np.sort(rng.uniform(0, 100, size=n))
            y = rng.normal(size=n)
            assert np.array_equal(lower_convex_hull(w, y), giftwrap_lower_hull(w, y)), trial

    def test_collinear_points_excluded_exactly(self):
        w = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 1.0, 2.0, 0.0, 5.0])
        # integer coordinates keep the cross products exact
        assert lower_convex_hull(w, y).tolist() == [0, 3, 4]
        line = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert lower_convex_hull(w, line).tolist() == [0, 4]

    def test_corrected_spectrum_nonnegative_with_zeros(self):
        rng = np.random.default_rng(7)
        w = np.linspace(400, 1800, 200)
        y = rng.normal(size=200).cumsum() + 50
        out = baseline_rubber_band(w, y)
        assert out.min() >= -1e-9
        assert np.sum(np.abs(out) < 1e-12) >= 2

    def test_convex_spectrum_goes_to_zero_on_hull(self):
        w = np.linspace(0, 1, 50)
        y = (w - 0.3) ** 2
        out = baseline_rubber_band(w, y)
        # a convex curve is its own rubber band only at hull vertices;
        # endpoints are always exact zeros
        assert abs(out[0]) < 1e-14 and abs(out[-1]) < 1e-14

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_nonnegativity_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        w = np.cumsum(rng.uniform(0.5, 2.0, size=n))
        y = rng.normal(scale=5.0, size=n)
        out = baseline_rubber_band(w, y)
        assert out.min() >= -1e-9


class TestLinearBaseline:
    def test_line_maps_to_zero(self):
        w = np.linspace(0, 10, 40)
        y = 3.0 - 0.25 * w
        assert np.max(np.abs(baseline_linear_fit(w, y))) < 1e-12

    def test_matches_closed_form_ols(self):
        rng = np.random.default_rng(3)
        w = np.sort(rng.uniform(0, 50, size=80))
        y = rng.normal(size=80)
        slope = np.cov(w, y, ddof=1)[0, 1] / np.var(w, ddof=1)
        intercept = y.mean() - slope * w.mean()
        expected = y - (intercept + slope * w)
        assert np.allclose(baseline_linear_fit(w, y), expected, atol=1e-10)


class TestNormalization:
    def test_snv_frozen_example(self):
        # sample (n-1) sd of [1,2,3] is exactly 1
        assert np.allclose(normalize_snv(np.array([1.0, 2.0, 3.0])), [-1.0, 0.0, 1.0])

    def test_minmax_frozen_example(self):
        assert np.allclose(normalize_minmax(np.array([2.0, 4.0, 6.0])), [0.0, 0.5, 1.0])

    def test_snv_row_stats(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(6, 90)) * 3 + 7
        out = normalize_snv(Y)
        assert np.allclose(out.mean(axis=1), 0, atol=1e-12)
        assert np.allclose(out.std(axis=1, ddof=1), 1, atol=1e-12)

    def test_snv_idempotent(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(4, 50))
        once = normalize_snv(Y)
        assert np.allclose(normalize_snv(once), once, atol=1e-12)

    def test_minmax_idempotent(self):
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(4, 50))
        once = normalize_minmax(Y)
        assert np.allclose(normalize_minmax(once), once, atol=1e-14)

    def test_constant_row_rejected(self):
        with pytest.raises(ValueError):
            normalize_snv(np.ones(10))
        with pytest.raises(ValueError):
            normalize_minmax(np.ones(10))

    def test_zscore_columns(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(30, 5)) * 2 + 3
        Z, mu, sd = zscore_columns(M)
        assert np.allclose(Z.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(Z.std(axis=0, ddof=1), 1, atol=1e-12)
        # applying the same constants to new rows reuses training stats
        Z2, _, _ = zscore_columns(M[:3], mean=mu, sd=sd)
        assert np.allclose(Z2, Z[:3])
        M[:, 2] = 4.0
        with pytest.raises(ValueError, match="constant column"):
            zscore_columns(M)


class TestRegion:
    def grid_set(self):
        w = np.arange(100.0, 3426.0, 1.0)
        X = np.ones((2, w.size))
        return SpectraSet(WavenumberGrid(w), X, ("a", "b"))

    def test_fingerprint_window(self):
        ds = self.grid_set()
        spec = PretreatmentSpec(region="fingerprint")
        out = apply_region(ds, spec)
        assert out.grid.values[0] == 850.0
        assert out.grid.values[-1] == 1800.0

    def test_exclusion_band_inclusive(self):
        ds = self.grid_set()
        spec = PretreatmentSpec(exclusions=((1552.0, 1560.0),))
        out = apply_region(ds, spec)
        kept = out.grid.values
        assert not np.any((kept >= 1552.0) & (kept <= 1560.0))
        assert 1551.0 in kept and 1561.0 in kept
        assert len(ds.grid) - len(out.grid) == 9

    def test_empty_result_rejected(self):
        ds = self.grid_set()
        with pytest.raises(ValueError, match="removed every grid point"):
            region_mask(ds.grid, PretreatmentSpec(region=(100.0, 3425.0),
                                                  exclusions=((50.0, 4000.0),)))

    def test_window_outside_grid_rejected(self):
        ds = self.grid_set()
        with pytest.raises(ValueError, match="outside the grid"):
            apply_region(ds, PretreatmentSpec(region=(5000.0, 6000.0)))

    def test_bad_spec_values(self):
        with pytest.raises(ValueError):
            PretreatmentSpec(region="infrared")
        with pytest.raises(ValueError):
            PretreatmentSpec(region=(10.0, 5.0))
        with pytest.raises(ValueError):
            PretreatmentSpec(baseline="quadratic")


class TestFullPipeline:
    def test_order_region_then_baseline_then_norm(self):
        rng = np.random.default_rng(9)
        w = np.arange(400.0, 2000.0, 2.0)
        X = rng.normal(size=(3, w.size)) + np.linspace(0, 5, w.size)
        ds = SpectraSet(WavenumberGrid(w), X, ("a", "b", "c"))
        spec = PretreatmentSpec(region="fingerprint", baseline="linear_fit",
                                normalization="snv")
        out = apply_pretreatment(ds, spec)
        assert out.grid.values[0] >= 850.0
        assert np.allclose(out.intensities.mean(axis=1), 0, atol=1e-10)
        assert np.allclose(out.intensities.std(axis=1, ddof=1), 1, atol=1e-10)


def pin_spectra():
    """30 spectra on a 600-2000 1/cm grid at 2 1/cm: a convex background,
    three Gaussian peaks and sigma = 0.01 noise each."""
    rng = np.random.default_rng(24)
    w = np.arange(600.0, 2001.0, 2.0)
    X = np.empty((30, w.size))
    for i in range(30):
        u = (w - rng.uniform(900.0, 1500.0)) / 700.0
        row = rng.uniform(0.5, 2.0) + rng.uniform(0.2, 1.5) * u * u
        for _ in range(3):
            mu, sigma = rng.uniform(850.0, 1800.0), rng.uniform(4.0, 20.0)
            row += rng.uniform(0.2, 1.5) * np.exp(-0.5 * ((w - mu) / sigma) ** 2)
        X[i] = row + rng.normal(scale=0.01, size=w.size)
    ids = tuple(f"s{i:02d}" for i in range(30))
    return SpectraSet(WavenumberGrid(w), X, ids)


def hull_cases():
    """Rows whose hulls hinge on exact ties of the cross product."""
    n = np.arange(12.0)
    return {
        "collinear_line": (n, 2.0 * n - 3.0),
        "collinear_run": (n, np.array([9.0, 6, 3, 0, 1, 2, 3, 4, 8, 5, 6, 7])),
        "constant": (n[:8], np.full(8, 2.5)),
        "plateau": (n[:10], np.array([3.0, 1, 1, 1, 1, 2, 0.5, 0.5, 0.5, 4])),
        "v": (n[:9], np.abs(n[:9] - 4.0)),
        "two_points": (np.array([1.0, 2.0]), np.array([3.0, -1.0])),
        "rounded_line": (np.linspace(850.0, 1800.0, 50),
                         1e-3 * np.linspace(850.0, 1800.0, 50) + 0.1),
    }


def array_bits(a):
    import hashlib
    return {"shape": list(a.shape), "dtype": str(a.dtype),
            "c_contiguous": bool(a.flags.c_contiguous),
            "sha256": hashlib.sha256(a.tobytes()).hexdigest()}


def pretreat_bits():
    """Every output that tests/data/pretreat_bits.json holds, computed by
    the current code.  linear_fit is left out: its lstsq bits follow the
    LAPACK build."""
    ds = pin_spectra()
    out = {}
    for norm in ("none", "snv", "minmax"):
        spec = PretreatmentSpec(region="fingerprint",
                                exclusions=((1552.0, 1560.0),),
                                baseline="rubber_band", normalization=norm)
        out[f"apply/rubber_band/{norm}"] = array_bits(
            apply_pretreatment(ds, spec).intensities)
    region = apply_region(ds, PretreatmentSpec(region="fingerprint",
                                               exclusions=((1552.0, 1560.0),)))
    w, X = region.grid.values, region.intensities
    out["rubber_band/batch"] = array_bits(baseline_rubber_band(w, X))
    out["rubber_band/fortran"] = array_bits(
        baseline_rubber_band(w, np.asfortranarray(X)))
    out["rubber_band/row"] = array_bits(baseline_rubber_band(w, X[3]))
    for name, (hw, hy) in hull_cases().items():
        out[f"hull/{name}"] = lower_convex_hull(hw, hy).tolist()
    return out


def test_pretreatment_outputs_equal_the_pinned_bits():
    # tests/data/pretreat_bits.json was written by pretreat_bits() while
    # the hull still indexed numpy arrays element by element
    import json
    import os
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "pretreat_bits.json")) as fh:
        want = json.load(fh)
    got = pretreat_bits()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def numpy_scalar_hull(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The monotone chain as it indexed numpy arrays element by element,
    kept verbatim as the reference for the chain on Python floats."""
    n = w.size
    hull = []
    for i in range(n):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # b stays only if a->b->i is a strict left turn; collinear b is dropped
            cross = (w[b] - w[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (w[i] - w[a])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.array(hull, dtype=int)


ROW_KINDS = ("noise", "collinear", "constant", "plateau", "v")


def property_grid(kind, n, rng):
    if kind == "integer":
        return np.cumsum(rng.integers(1, 4, size=n)).astype(float) + 600.0
    if kind == "uniform":
        return np.linspace(850.0, 1800.0, n)
    steps = rng.uniform(0.1, 5.0, size=n)
    return np.cumsum(steps) + rng.uniform(-100.0, 100.0)


def property_row(kind, w, rng):
    n = w.size
    y = rng.normal(scale=rng.uniform(0.1, 10.0), size=n) + rng.normal()
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo, n)) + 1
    if kind == "collinear":
        # integer values on a line: exact ties on an integer grid
        y[lo:hi] = float(rng.integers(-5, 6)) * (w[lo:hi] - w[lo]) \
            + float(rng.integers(-20, 0))
    elif kind == "constant":
        y[:] = float(rng.integers(-3, 4))
    elif kind == "plateau":
        y[lo:hi] = y.min() - float(rng.integers(0, 2))
    elif kind == "v":
        y = np.abs(w - w[lo]) * float(rng.integers(1, 4)) \
            + float(rng.integers(-5, 6))
    return y


@given(seed=st.integers(0, 2**32 - 1),
       grid_kind=st.sampled_from(("integer", "uniform", "nonuniform")),
       n=st.integers(2, 300),
       kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=50),
       k=st.integers(-40, 40))
@settings(max_examples=60, deadline=None)
def test_rubber_band_rows_match_the_numpy_scalar_chain(seed, grid_kind, n,
                                                       kinds, k):
    rng = np.random.default_rng(seed)
    w = property_grid(grid_kind, n, rng)
    Y = np.array([property_row(kind, w, rng) for kind in kinds])
    out = baseline_rubber_band(w, Y)
    for row, got in zip(Y, out):
        hull = numpy_scalar_hull(w, row)
        assert lower_convex_hull(w, row).tolist() == hull.tolist()
        want = row - np.interp(w, w[hull], row[hull])
        assert got.tobytes() == want.tobytes()
    # a row's bits do not depend on its batch or its position in it
    order = rng.permutation(len(Y))
    mixed = baseline_rubber_band(w, np.vstack([Y[order], Y[:1]]))
    for pos, i in enumerate(order):
        assert mixed[pos].tobytes() == out[i].tobytes()
        assert baseline_rubber_band(w, Y[i]).tobytes() == out[i].tobytes()
    # scaling by a power of two is exact at every step
    scale = 2.0 ** k
    assert baseline_rubber_band(w, Y * scale).tobytes() \
        == (out * scale).tobytes()
