"""Spans around spectramap's layers, recorded from outside the package.

``install`` replaces each function listed in ``WRAPPED`` by a wrapper in
every ``spectramap`` module namespace that binds it, so calls made
through ``from .dmaps import fit_dmaps`` in ``workflows`` and calls made
inside ``dmaps`` itself (``gh_fit`` -> ``fit_dmaps``) are both seen.
``src/`` is not modified.

A span is ``(name, start, end, parent)``; spans stay in memory and are
written once, at the end of the run.  A span's self time is its
duration minus the durations of its child spans.  Every span's self
time lands in exactly one per-layer metric (``SELF_METRIC``), so the
``*_s`` metrics partition the time the spans cover.  Children of a span
whose metric is in ``INCLUSIVE`` hand their self time to that metric:
``pls.cv_s`` is the whole component search, refits included, and the
geometric-harmonics metrics include the eigensolve and Nystrom rows
they run through ``fit_dmaps`` and ``nystrom_extend``.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped in that layer
WRAPPED = {
    "dataset": ("load_spectra", "load_sizes"),
    "pretreat": ("apply_pretreatment", "fit_column_scaler",
                 "apply_column_scaler"),
    "dmaps": ("fit_dmaps", "local_linear_residual", "nystrom_extend",
              "gh_fit", "gh_predict"),
    "altdmaps": ("fit_altdmaps", "alt_coordinates"),
    "mlp": ("mlp_fit", "mlp_predict"),
    "gbt": ("gbt_fit", "gbt_predict"),
    "pls": ("pls_choose_components", "pls_fit", "pls_predict"),
    "conformal": ("yae_fit", "predict_size", "encode", "decode",
                  "orthogonality_score"),
    "ihm": ("fit_hard_model", "extract_parameters", "load_hard_model",
            "save_hard_model"),
    "serialize": ("save_model", "load_model"),
    "report": ("emit_report",),
    "workflows": ("run_workflow", "load_pipeline", "pipeline_predict"),
    "cli": ("entry",),
}

SELF_METRIC = {
    "dataset.load_spectra": "dataset.load_s",
    "dataset.load_sizes": "dataset.load_s",
    "pretreat.apply_pretreatment": "pretreat.apply_s",
    "pretreat.fit_column_scaler": "pretreat.apply_s",
    "pretreat.apply_column_scaler": "pretreat.apply_s",
    "dmaps.fit_dmaps": "dmaps.fit_s",
    "dmaps.local_linear_residual": "dmaps.llr_s",
    "dmaps.nystrom_extend": "dmaps.nystrom_s",
    "dmaps.gh_fit": "dmaps.gh_fit_s",
    "dmaps.gh_predict": "dmaps.gh_predict_s",
    "altdmaps.fit_altdmaps": "altdmaps.fit_s",
    "mlp.mlp_fit": "mlp.fit_s",
    "mlp.mlp_predict": "mlp.predict_s",
    "gbt.gbt_fit": "gbt.fit_s",
    "gbt.gbt_predict": "gbt.predict_s",
    "pls.pls_choose_components": "pls.cv_s",
    "conformal.yae_fit": "conformal.fit_s",
    "ihm.fit_hard_model": "ihm.fit_s",
    "serialize.save_model": "serialize.save_s",
    "serialize.load_model": "serialize.load_s",
    "report.emit_report": "report.emit_s",
    "workflows.run_workflow": "workflows.self_s",
    "workflows.load_pipeline": "workflows.self_s",
    "workflows.pipeline_predict": "workflows.self_s",
    "cli.entry": "cli.self_s",
}
OTHER = "trace.other_s"  # wrapped spans no named metric claims
# Self time that is not a layer's work: the CLI and workflow glue, and
# wrapped functions no named metric claims.  Coverage leaves it out.
GLUE = frozenset({"cli.self_s", "workflows.self_s", OTHER})
INCLUSIVE = frozenset({"pls.cv_s", "dmaps.gh_fit_s", "dmaps.gh_predict_s"})

COUNTS = ("dataset.values_parsed", "pretreat.spectra", "dmaps.kernel_entries",
          "mlp.steps", "gbt.trees", "pls.fit_calls", "conformal.steps",
          "ihm.fits", "ihm.lm_iterations", "ihm.unconverged",
          "serialize.bytes")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _epoch_steps(args, kwargs, default_spec):
    spec = _arg(args, kwargs, 2, "spec") or default_spec()
    n = len(args[0])
    return spec.epochs * math.ceil(n / spec.batch_size)


def tree_bytes(path) -> int:
    """Total size of the files under path."""
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def _counters():
    """name -> callback(counts, args, kwargs, result); run after the span
    closes, so counting costs no layer any time."""
    from spectramap.conformal import YShapedSpec
    from spectramap.mlp import MlpSpec

    def load_spectra(c, a, k, ds):
        c["dataset.values_parsed"] += ds.intensities.size + len(ds.grid)

    def load_sizes(c, a, k, table):
        c["dataset.values_parsed"] += len(table)

    def apply_pretreatment(c, a, k, out):
        c["pretreat.spectra"] += out.n_samples

    def fit_dmaps(c, a, k, model):
        c["dmaps.kernel_entries"] += model.points.shape[0] ** 2

    def nystrom_extend(c, a, k, phi):
        model = _arg(a, k, 0, "model")
        c["dmaps.kernel_entries"] += phi.shape[0] * model.points.shape[0]

    def mlp_fit(c, a, k, model):
        c["mlp.steps"] += _epoch_steps(a, k, MlpSpec)

    def gbt_fit(c, a, k, model):
        c["gbt.trees"] += len(model.trees)

    def pls_fit(c, a, k, model):
        c["pls.fit_calls"] += 1

    def yae_fit(c, a, k, out):
        c["conformal.steps"] += _epoch_steps(a, k, YShapedSpec)

    def fit_hard_model(c, a, k, result):
        c["ihm.fits"] += 1
        c["ihm.lm_iterations"] += result.n_iterations
        c["ihm.unconverged"] += 0 if result.converged else 1

    def save_model(c, a, k, _):
        c["serialize.bytes"] += tree_bytes(_arg(a, k, 0, "path"))

    return {"dataset.load_spectra": load_spectra,
            "dataset.load_sizes": load_sizes,
            "pretreat.apply_pretreatment": apply_pretreatment,
            "dmaps.fit_dmaps": fit_dmaps,
            "dmaps.nystrom_extend": nystrom_extend,
            "mlp.mlp_fit": mlp_fit,
            "gbt.gbt_fit": gbt_fit,
            "pls.pls_fit": pls_fit,
            "conformal.yae_fit": yae_fit,
            "ihm.fit_hard_model": fit_hard_model,
            "serialize.save_model": save_model}


class Recorder:
    """In-memory span list for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.clock = clock

    def wrap(self, name, fn, count=None):
        spans, stack, counts, clock = (self.spans, self.stack, self.counts,
                                       self.clock)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def owned_self_times(self):
        """(metric, self time) of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        owned = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            up = owned[parent][0] if parent >= 0 else None
            metric = up if up in INCLUSIVE else SELF_METRIC.get(name, OTHER)
            owned.append((metric, (end - start) - child[i]))
        return owned

    def self_times(self):
        """metric -> summed self time."""
        totals = defaultdict(float)
        for metric, dt in self.owned_self_times():
            totals[metric] += dt
        return totals

    def covered(self, intervals) -> float:
        """Seconds of the disjoint (start, end) intervals spent in layer
        self time: the self time of the spans that lie inside an interval,
        less that of the ``GLUE`` metrics."""
        intervals = sorted(intervals)
        starts = [t0 for t0, _ in intervals]
        total = 0.0
        for (name, start, end, _), (metric, dt) in zip(
                self.spans, self.owned_self_times()):
            if metric in GLUE:
                continue
            i = bisect.bisect_right(starts, start) - 1
            if i >= 0 and end <= intervals[i][1]:
                total += dt
        return total

    def dump(self, path, extra) -> None:
        doc = {"fields": ["name", "start", "end", "parent"],
               "spans": self.spans, "counts": dict(self.counts), **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(recorder: Recorder) -> None:
    """Wrap every WRAPPED function wherever a spectramap module binds it."""
    import importlib
    for layer in WRAPPED:
        importlib.import_module(f"spectramap.{layer}")
    counters = _counters()
    originals = {}
    for layer, names in WRAPPED.items():
        mod = sys.modules[f"spectramap.{layer}"]
        for fname in names:
            fn = getattr(mod, fname)
            key = f"{layer}.{fname}"
            originals[id(fn)] = recorder.wrap(key, fn, counters.get(key))
    for modname, mod in list(sys.modules.items()):
        if modname != "spectramap" and not modname.startswith("spectramap."):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and callable(value):
                setattr(mod, attr, wrapper)


def span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call, on this machine."""
    def noop():
        return None

    rec = Recorder()
    traced = rec.wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(n):
        traced()
    return max(0.0, (clock() - t0 - bare) / n)
