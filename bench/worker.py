"""Run one workload in this process and write its result as JSON.

Started by ``run.py`` with the BLAS and OpenMP pools pinned to one
thread and ``src/`` on ``PYTHONPATH``.  Phases:

1. generate the workload's spectra from ``--seed`` and write them as CSV,
   in a short-lived child process (``gen.py``), so that the generator's
   memory does not count in this process's ``peak_rss_mb``;
2. training run ``a``: ``spectramap train`` for every workflow, in
   process through ``spectramap.cli.entry``;
3. set-up probes: fresh processes that import ``spectramap.cli`` and
   load every pipeline the predict phase uses;
4. rounds for half of ``--seconds``: ``spectramap predict`` on every
   batch, then a closed-loop stream of single spectra through a
   pipeline loaded with ``load_pipeline``;
5. training run ``b``, whose ``models/`` trees must equal run ``a``'s;
6. rounds for the other half of ``--seconds``.

With ``--trace 1`` the same phases run with spans around the program's
layers, and the result holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from workloads import SPLIT, WORKLOADS  # noqa: E402

SETUP_PROBES = 3
OUTLIER_ROW = 0
OUTLIER_SCALE = 1e3
MIN_COVERAGE = 0.95


def import_program():
    """Import spectramap from this checkout's src/, or stop."""
    want = os.path.join(ROOT, "src", "spectramap")
    try:
        import spectramap
    except ImportError as e:
        raise SystemExit(f"cannot import spectramap from {want}: {e}")
    got = os.path.dirname(os.path.abspath(spectramap.__file__))
    if got != want:
        raise SystemExit(f"imported spectramap from {got}, expected {want}")
    from spectramap import cli, dataset, workflows
    return cli, dataset, workflows


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Run:
    def __init__(self, wl, seed, seconds, run_dir, recorder):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.dir = run_dir
        self.rec = recorder
        self.errors = []
        self.ops = []            # (kind, start, end) of every timed call
        self.attempted = 0
        self.failed = 0
        self.rss_after = {}      # phase -> ru_maxrss (MB) when it ended

    def check(self, message):
        if message is not None and message not in self.errors:
            self.errors.append(message)

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def timed_cli(self, kind, argv):
        t0 = time.perf_counter()
        code = self.cli.entry(argv)
        t1 = time.perf_counter()
        self.ops.append((kind, t0, t1))
        return code, t1 - t0

    # -- phase 1 -------------------------------------------------------
    def generate(self):
        wl = self.wl
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "gen.py"), "--workload",
             wl.name, "--seed", str(self.seed), "--dir", self.dir],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"generator failed: {proc.stderr.strip()}")
        with np.load(self.path("inputs.npz")) as arrays:
            self.w, self.X, self.sizes = (arrays["w"], arrays["X"],
                                          arrays["sizes"])
            if wl.new_batch:
                self.X_new = arrays["X_new"]
                self.sizes_new = arrays["sizes_new"]
        self.ids = gen.sample_ids("c", wl.n_calib)
        if wl.new_batch:
            self.ids_new = gen.sample_ids("n", wl.new_batch)

    # -- phase 2 -------------------------------------------------------
    def train_config(self, workflow):
        cfg = {"seed": 0, "split": SPLIT,
               "data": {"spectra": self.path("spectra.csv"),
                        "sizes": self.path("sizes.csv")}}
        cfg.update(json.loads(json.dumps(self.wl.workflows[workflow])))
        if "ihm" in cfg:
            cfg["ihm"]["model_json"] = self.path("hard_model.json")
        write_json(self.path(f"train_{workflow}.json"), cfg)

    def calibrate(self, rep):
        """One `spectramap train` per workflow into run directory `rep`."""
        for wf in self.wl.workflows:
            code, dt = self.timed_cli(
                "train", ["train", wf, "--config", self.path(f"train_{wf}.json"),
                          "--out", self.path(rep, wf)])
            self.train_s += dt
            if code != 0:
                raise SystemExit(f"train {wf} ({rep}): exit code {code}")
        self.rss_after[f"train_{rep}"] = max_rss_mb()

    def check_reruns(self):
        for wf, models in self.models.items():
            self.check(checks.check_digests(
                f"train {wf}", checks.tree_digest(models),
                checks.tree_digest(self.path("b", wf, "models"))))

    # -- batches -------------------------------------------------------
    def prepare_batches(self):
        """(label, workflow, csv, ids, sizes, kind) for every predict call
        of a round, plus the spectra the stream sends."""
        index = {sid: i for i, sid in enumerate(self.ids)}
        self.parity = {}
        for wf in self.wl.workflows:
            self.parity[wf] = checks.read_parity_test(
                self.path("a", wf, "parity.csv"))
        held_ids = next(iter(self.parity.values()))[0]
        for wf, (ids, _) in self.parity.items():
            self.check(checks.check_same_ids(f"parity {wf}", ids, held_ids))
        rows = [index[s] for s in held_ids]
        X_held, y_held = self.X[rows], self.sizes[rows]
        gen.write_spectra(self.path("heldout.csv"), self.w, X_held, held_ids)
        self.batches = []
        for wf in self.wl.workflows:
            self.batches.append((f"heldout_{wf}", wf, self.path("heldout.csv"),
                                 held_ids, y_held, "heldout"))
            if self.wl.new_batch:
                self.batches.append((f"new_{wf}", wf, self.path("new.csv"),
                                     self.ids_new, self.sizes_new, "new"))
        if self.wl.outlier:
            X_out = X_held.copy()
            X_out[OUTLIER_ROW] *= OUTLIER_SCALE
            gen.write_spectra(self.path("outlier.csv"), self.w, X_out, held_ids)
            wf = self.wl.stream_workflow
            self.batches.append((f"outlier_{wf}", wf, self.path("outlier.csv"),
                                 held_ids, y_held, "outlier"))
        for label, wf, csv_path, *_ in self.batches:
            write_json(self.path(f"predict_{label}.json"),
                       {"models": self.models[wf], "spectra": csv_path})
        if self.wl.new_batch:
            self.stream_X, self.stream_ids = self.X_new, self.ids_new
            self.stream_source = f"new_{self.wl.stream_workflow}"
        else:
            self.stream_X, self.stream_ids = X_held, held_ids
            self.stream_source = f"heldout_{self.wl.stream_workflow}"
        n = self.wl.stream_len
        if n > len(self.stream_ids):
            raise SystemExit(f"stream of {n} exceeds its source batch")
        self.stream_X, self.stream_ids = self.stream_X[:n], self.stream_ids[:n]

    # -- phase 3 -------------------------------------------------------
    def probe_setup(self):
        argv = [sys.executable, os.path.join(BENCH, "probe.py"),
                *[self.models[wf] for wf in self.wl.workflows]]
        times = []
        for _ in range(SETUP_PROBES):
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=60, cwd=ROOT)
            if proc.returncode != 0:
                raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if doc["package"] != os.path.join(ROOT, "src", "spectramap"):
                raise SystemExit(f"set-up probe imported {doc['package']}")
            times.append(doc["setup_s"])
        self.setup_s = statistics.median(times)

    # -- phase 4 -------------------------------------------------------
    def one_round(self, first):
        for label, wf, csv_path, ids, y, kind in self.batches:
            out = self.path(f"pred_{label}.csv")
            code, dt = self.timed_cli(
                "predict", ["predict", "--config",
                            self.path(f"predict_{label}.json"), "--out", out])
            self.attempted += 1
            if kind == "outlier":
                got = checks.read_predictions(out)[1] if code == 0 else None
                reason = checks.check_outlier_batch(
                    code, got, self.outputs[f"heldout_{wf}"], OUTLIER_ROW)
                if reason is not None:
                    self.failed += 1
                    self.outlier_reason = reason
                continue
            self.check(checks.check_exit(f"predict {label}", code))
            if code != 0:
                continue
            got_ids, pred = checks.read_predictions(out)
            self.check(checks.check_same_ids(f"predict {label}", got_ids, ids))
            if first:
                self.outputs[label] = pred
            else:
                self.check(checks.check_rows_match(
                    f"predict {label} repeated", pred, self.outputs[label], 0.0))
            self.batch_spectra += len(ids)
            self.batch_s += dt

        source = self.outputs.get(self.stream_source)
        ds_cls, predict = self.SpectraSet, self.workflows.pipeline_predict
        grid, pipe = self.grid, self.pipe
        got = np.empty(len(self.stream_ids))
        clock = time.perf_counter
        for i, sid in enumerate(self.stream_ids):
            t0 = clock()
            value = predict(pipe, ds_cls(grid, self.stream_X[i:i + 1], (sid,)))
            t1 = clock()
            got[i] = value[0]
            self.ops.append(("predict", t0, t1))
            self.latencies.append(t1 - t0)
        self.attempted += len(self.stream_ids)
        if source is not None:
            self.check(checks.check_rows_match(
                "stream vs batch", got, source[:len(got)]))

    def measure(self, seconds, phase):
        """Rounds until `seconds` have passed, at least one."""
        deadline = time.perf_counter() + seconds
        start = self.rounds
        while self.rounds == start or time.perf_counter() < deadline:
            self.one_round(first=self.rounds == 0)
            self.rounds += 1
        self.rss_after[phase] = max_rss_mb()

    def accuracy(self):
        """R2 floors per workflow and pooled RMSE, from round one."""
        preds, actual = {}, {}
        for label, wf, _, ids, y, kind in self.batches:
            if kind == "outlier" or label not in self.outputs:
                continue
            preds.setdefault(wf, []).append(self.outputs[label])
            actual.setdefault(wf, []).append(y)
            if kind == "heldout":
                self.check(checks.check_rows_match(
                    f"predict {label} vs parity.csv", self.outputs[label],
                    self.parity[wf][1]))
        for wf, floor in self.wl.r2_floor.items():
            if wf not in preds:
                self.check(f"{wf}: no successful batch")
                continue
            self.check(checks.check_r2_floor(
                wf, np.concatenate(preds[wf]), np.concatenate(actual[wf]),
                floor))
        all_p = np.concatenate([np.concatenate(v) for v in preds.values()])
        all_y = np.concatenate([np.concatenate(v) for v in actual.values()])
        self.rmse = checks.rmse(all_p, all_y)
        self.r2 = {wf: checks.r2(np.concatenate(preds[wf]),
                                 np.concatenate(actual[wf])) for wf in preds}

    def run(self):
        """Training run `b` sits between the two halves of the rounds, so
        each timing spans two windows about half a run apart; the host's
        speed moves on that scale (README, "Bounds and noise")."""
        self.cli, self.dataset, self.workflows = import_program()
        if self.rec is not None:
            spans.install(self.rec)
        self.generate()
        self.rss_after["generate"] = max_rss_mb()
        for wf in self.wl.workflows:
            self.train_config(wf)
        self.train_s = 0.0
        self.calibrate("a")
        self.models = {wf: self.path("a", wf, "models")
                       for wf in self.wl.workflows}
        self.prepare_batches()
        self.probe_setup()
        self.outputs = {}
        self.latencies = []
        self.batch_spectra = 0
        self.batch_s = 0.0
        self.outlier_reason = None
        self.rounds = 0
        self.SpectraSet = self.dataset.SpectraSet
        self.grid = self.dataset.WavenumberGrid(self.w)
        self.pipe = self.workflows.load_pipeline(
            self.models[self.wl.stream_workflow])
        self.measure(self.seconds / 2, "rounds_1")
        self.calibrate("b")
        self.check_reruns()
        self.measure(self.seconds / 2, "rounds_2")
        self.accuracy()


def end_to_end(run: Run) -> dict:
    lat_ms = np.asarray(run.latencies) * 1e3
    return {
        "setup_s": (run.setup_s, "s"),
        "train_s": (run.train_s, "s"),
        "predict_batch_spectra_per_s": (run.batch_spectra / run.batch_s,
                                        "spectra/s"),
        "predict_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "predict_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
        "peak_rss_mb": (max_rss_mb(), "MB"),
        "models_mb": (sum(map(spans.tree_bytes, run.models.values())) / 1e6,
                      "MB"),
    }


def per_layer(run: Run, cost: float) -> dict:
    rec = run.rec
    selfs = rec.self_times()
    out = {}
    for metric in sorted(set(spans.SELF_METRIC.values()) | {spans.OTHER}):
        out[metric] = (selfs.get(metric, 0.0), "s")
    for metric in spans.COUNTS:
        out[metric] = (rec.counts.get(metric, 0), "count")
    for kind in ("train", "predict"):
        ops = [(t0, t1) for k, t0, t1 in run.ops if k == kind]
        wall = sum(t1 - t0 for t0, t1 in ops)
        cov = rec.covered(ops)
        out[f"trace.coverage_{kind}_pct"] = (100.0 * cov / wall, "%")
        run.check(checks.check_coverage(kind, cov, wall, MIN_COVERAGE))
    out["trace.spans"] = (len(rec.spans), "count")
    out["trace.overhead_s"] = (len(rec.spans) * cost, "s")
    out["trace.train_s"] = (run.train_s, "s")
    out["trace.predict_ms_p50"] = (
        float(np.percentile(np.asarray(run.latencies) * 1e3, 50)), "ms")
    out["test_rmse_nm"] = (run.rmse, "nm")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True, help="scratch run directory")
    ap.add_argument("--result", required=True, help="result JSON path")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    cost = spans.span_cost() if args.trace else 0.0
    recorder = spans.Recorder() if args.trace else None
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.dir,
              recorder)
    run.run()
    metrics = per_layer(run, cost) if args.trace else end_to_end(run)
    for reason in run.errors:
        print(f"check failed: {reason}", file=sys.stderr)
    if run.outlier_reason:
        print(f"failed operation ({run.failed}x): {run.outlier_reason}",
              file=sys.stderr)
    info = {"rounds": run.rounds, "stream_calls": len(run.latencies),
            "r2": run.r2, "test_rmse_nm": run.rmse, "errors": run.errors,
            "rss_after_mb": run.rss_after}
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    if recorder is not None and args.trace_file:
        recorder.dump(args.trace_file,
                      {"workload": args.workload, "seed": args.seed,
                       "ops": run.ops, "span_cost_s": cost,
                       "metrics": result["metrics"]})
    write_json(args.result, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
