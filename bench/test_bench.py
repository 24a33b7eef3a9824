"""The benchmark's own tests: every correctness check can fail, the
generator is seeded, and span bookkeeping adds up.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def sized():
    rng = np.random.default_rng(0)
    actual = rng.uniform(gen.SIZE_MIN, gen.SIZE_MAX, size=200)
    return actual, actual + rng.normal(scale=2.0, size=actual.size)


class TestR2Floor:
    def test_close_predictions_pass(self, sized):
        actual, pred = sized
        assert checks.check_r2_floor("w", pred, actual, 0.99) is None

    def test_shuffled_predictions_fail(self, sized):
        actual, pred = sized
        shuffled = np.random.default_rng(1).permutation(pred)
        assert "below the floor" in checks.check_r2_floor(
            "w", shuffled, actual, 0.99)

    def test_rmse_is_exact_on_a_constant_offset(self, sized):
        actual, _ = sized
        assert checks.rmse(actual + 3.0, actual) == pytest.approx(3.0)


class TestRowsMatch:
    def test_reassociation_noise_passes(self, sized):
        _, pred = sized
        assert checks.check_rows_match("s", pred * (1 + 1e-13), pred) is None

    def test_perturbed_single_result_fails(self, sized):
        _, pred = sized
        single = pred.copy()
        single[7] *= 1 + 1e-8
        msg = checks.check_rows_match("stream vs batch", single, pred)
        assert "1 rows differ" in msg and "first row 7" in msg

    def test_changed_parity_row_fails(self, sized):
        _, pred = sized
        parity = pred.copy()
        parity[0] += 0.5
        assert checks.check_rows_match("vs parity", pred, parity) is not None

    def test_shape_mismatch_fails(self, sized):
        _, pred = sized
        assert "shape" in checks.check_rows_match("s", pred[:-1], pred)

    def test_zero_tolerance_demands_equality(self, sized):
        _, pred = sized
        assert checks.check_rows_match("r", pred, pred, 0.0) is None
        assert checks.check_rows_match(
            "r", np.nextafter(pred, np.inf), pred, 0.0) is not None


class TestExitAndIds:
    def test_exit_codes(self):
        assert checks.check_exit("predict", 0) is None
        assert "exit code 3" in checks.check_exit("predict", 3)

    def test_reordered_ids_fail(self):
        assert checks.check_same_ids("p", ["a", "b"], ["a", "b"]) is None
        assert checks.check_same_ids("p", ["b", "a"], ["a", "b"]) is not None


class TestOutlierBatch:
    def test_failed_batch_is_reported(self, sized):
        _, clean = sized
        assert "exit code 3" in checks.check_outlier_batch(3, None, clean, 0)

    def test_other_rows_must_equal_the_clean_batch(self, sized):
        _, clean = sized
        got = clean.copy()
        got[0] = 1e9  # the outlier row itself may be anything
        assert checks.check_outlier_batch(0, got, clean, 0) is None
        got[1] += 1.0
        assert checks.check_outlier_batch(0, got, clean, 0) is not None


class TestDigest:
    def _tree(self, root):
        (root / "dmap").mkdir(parents=True)
        (root / "manifest.json").write_bytes(b'{"a": 1}\n')
        (root / "dmap" / "points.npy").write_bytes(bytes(range(64)))

    def test_equal_trees_agree(self, tmp_path):
        self._tree(tmp_path / "a")
        self._tree(tmp_path / "b")
        assert checks.check_digests(
            "t", checks.tree_digest(tmp_path / "a"),
            checks.tree_digest(tmp_path / "b")) is None

    def test_one_changed_byte_is_caught(self, tmp_path):
        self._tree(tmp_path / "a")
        self._tree(tmp_path / "b")
        f = tmp_path / "b" / "dmap" / "points.npy"
        data = bytearray(f.read_bytes())
        data[10] ^= 1
        f.write_bytes(bytes(data))
        assert checks.check_digests(
            "t", checks.tree_digest(tmp_path / "a"),
            checks.tree_digest(tmp_path / "b")) is not None

    def test_renamed_file_is_caught(self, tmp_path):
        self._tree(tmp_path / "a")
        self._tree(tmp_path / "b")
        os.rename(tmp_path / "b" / "manifest.json", tmp_path / "b" / "m.json")
        assert checks.tree_digest(tmp_path / "a") != \
            checks.tree_digest(tmp_path / "b")


class TestGenerator:
    def test_same_seed_same_spectra(self):
        w = gen.grid(850.0, 1800.0)
        a = gen.make_spectra(np.random.default_rng(5), 20, w, 0.01, True)
        b = gen.make_spectra(np.random.default_rng(5), 20, w, 0.01, True)
        c = gen.make_spectra(np.random.default_rng(6), 20, w, 0.01, True)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_sizes_in_range_and_peaks_widen(self):
        w = gen.grid(850.0, 1800.0)
        X, sizes = gen.make_spectra(np.random.default_rng(0), 50, w, 0.0)
        assert np.all((sizes >= gen.SIZE_MIN) & (sizes <= gen.SIZE_MAX))
        # wider peaks raise the shoulder next to the 1600 cm^-1 peak
        shoulder = X[:, np.searchsorted(w, 1630.0)]
        assert np.corrcoef(shoulder, sizes)[0, 1] > 0.9

    def test_csv_round_trip_is_exact(self, tmp_path):
        w = gen.grid(850.0, 900.0)
        X, sizes = gen.make_spectra(np.random.default_rng(1), 4, w, 0.01)
        ids = ["a", "b", "c", "d"]
        gen.write_spectra(tmp_path / "s.csv", w, X, ids)
        gen.write_sizes(tmp_path / "y.csv", ids, sizes)
        dataset = pytest.importorskip("spectramap.dataset")
        ds = dataset.load_spectra(tmp_path / "s.csv", tmp_path / "y.csv")
        assert np.array_equal(ds.intensities, X)
        assert np.array_equal(ds.grid.values, w)
        assert np.array_equal(ds.sizes, sizes)
        assert list(ds.sample_ids) == ids


    def test_written_inputs_match_the_arrays_checked_against(self, tmp_path):
        from dataclasses import replace

        from workloads import WORKLOADS
        wl = replace(WORKLOADS["routes_small"], n_calib=6, new_batch=3)
        gen.write_inputs(wl, 4, str(tmp_path))
        dataset = pytest.importorskip("spectramap.dataset")
        arrays = np.load(tmp_path / "inputs.npz")
        ds = dataset.load_spectra(tmp_path / "spectra.csv",
                                  tmp_path / "sizes.csv")
        new = dataset.load_spectra(tmp_path / "new.csv")
        assert np.array_equal(ds.intensities, arrays["X"])
        assert np.array_equal(ds.sizes, arrays["sizes"])
        assert np.array_equal(new.intensities, arrays["X_new"])
        assert list(new.sample_ids) == gen.sample_ids("n", 3)
        assert (tmp_path / "hard_model.json").is_file()


class TestSpans:
    def _recorder(self):
        # a fake clock that ticks once per reading makes durations exact
        ticks = iter(range(100))
        rec = spans.Recorder(clock=lambda: float(next(ticks)))
        fit = rec.wrap("dmaps.fit_dmaps", lambda: None)
        gh = rec.wrap("dmaps.gh_fit", lambda: fit())
        run = rec.wrap("workflows.run_workflow", lambda: (fit(), gh()))
        entry = rec.wrap("cli.entry", lambda: run())
        return rec, entry

    def test_self_times_partition_the_root(self):
        rec, entry = self._recorder()
        entry()
        name, start, end, parent = rec.spans[0]
        assert name == "cli.entry" and parent == -1
        totals = rec.self_times()
        assert sum(totals.values()) == end - start
        # the fit inside gh_fit counts as gh_fit time, the other as dmaps.fit_s
        assert totals["dmaps.fit_s"] == 1.0
        assert totals["dmaps.gh_fit_s"] == 3.0

    def test_coverage_counts_layer_self_time_only(self):
        rec, entry = self._recorder()
        entry()
        # entry 0-9 and run_workflow 1-8 are glue (2 + 3 of self time);
        # fit_dmaps 2-3 and gh_fit 4-7 (with its fit 5-6) are the layers
        assert rec.covered([(0.0, 9.0)]) == 4.0
        assert rec.covered([(2.0, 7.0)]) == 4.0
        assert rec.covered([(3.5, 9.0)]) == 3.0
        # a span that sticks out of every interval is not counted
        assert rec.covered([(2.5, 6.5)]) == 1.0

    @pytest.mark.parametrize("glue_s, passes", [(4.0, True), (6.0, False)])
    def test_glue_self_time_can_fail_the_coverage_check(self, glue_s, passes):
        now = [0.0]

        def advance(dt):
            now[0] += dt

        rec = spans.Recorder(clock=lambda: now[0])
        fit = rec.wrap("dmaps.fit_dmaps", lambda: advance(100.0 - glue_s))
        run = rec.wrap("workflows.run_workflow",
                       lambda: (advance(glue_s / 2), fit()))
        entry = rec.wrap("cli.entry", lambda: (advance(glue_s / 2), run()))
        entry()
        covered = rec.covered([(0.0, now[0])])
        assert covered == 100.0 - glue_s
        msg = checks.check_coverage("train", covered, now[0], 0.95)
        assert (msg is None) == passes

    def test_wrapper_returns_and_counts(self):
        rec = spans.Recorder()

        def count(c, args, kwargs, out):
            c["n"] += out

        f = rec.wrap("pls.pls_fit", lambda x: x * 2, count)
        assert f(3) == 6 and f(4) == 8
        assert rec.counts["n"] == 14 and len(rec.spans) == 2

    def test_unclaimed_span_goes_to_other(self):
        rec = spans.Recorder()
        rec.wrap("conformal.encode", lambda: None)()
        assert set(rec.self_times()) == {spans.OTHER}
