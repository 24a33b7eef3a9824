"""Benchmark launcher: one workload in one fresh, single-threaded process.

    python3 bench/run.py --workload calib_dense --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The launcher pins the BLAS and OpenMP
thread pools to one thread, puts the checkout's ``src/`` on
``PYTHONPATH``, starts ``worker.py`` and waits for it, then prints the
result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a run with spans around every layer (the spans
are also written to ``bench/out/trace-<workload>-s<seed>.json``).
Exits non-zero without a result when the program is missing or a run
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None) -> int:
    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="spectramap benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spectramap", "cli.py")):
        print(f"no spectramap sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir, "--result", result_path]
    if args.trace:
        cmd += ["--trace-file", os.path.join(OUT, f"trace-{tag}.json")]
    # own session, so a timeout can stop the worker and its probes alike
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=sys.stderr, start_new_session=True)
    result = None
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
        if code == 0:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
    except subprocess.TimeoutExpired:
        code = f"no exit within {WORKER_TIMEOUT_S} s"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if result is None:
        print(f"worker failed: {code}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
