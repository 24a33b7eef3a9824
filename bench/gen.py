"""Seeded pseudo-Voigt spectra with a planted particle size.

The size coupling follows ``spectramap.synth.peak_spectra``: three
pseudo-Voigt peaks whose half-widths grow by ``1 + 0.5 z`` and a
background offset of ``0.05 + 0.15 z``, where ``z`` maps the size from
[208, 483] nm onto [0, 1].  The code is repeated here on purpose, so
that a change to the program's own generator cannot change what the
benchmark measures.

``nuisance=True`` adds what the paper's real-data pretreatment exists
to remove: a random convex instrument background, a random atmospheric
oxygen line at 1556 cm^-1 and a random overall gain.

Run as a script, it writes one workload's inputs, so that the memory the
generator needs is not counted in the measured process's peak:

    python3 bench/gen.py --workload monitor_stream --seed 1 --dir RUN_DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

SIZE_MIN = 208.0
SIZE_MAX = 483.0
LN2 = float(np.log(2.0))
# (position, intensity, gaussian share, hwhm at z = 0), as in peak_spectra
PEAKS = ((1000.0, 2.0, 0.6, 14.0),
         (1250.0, 1.3, 0.4, 20.0),
         (1600.0, 2.6, 0.5, 11.0))
OXYGEN_LINE = 1556.0


def grid(low: float, high: float, step: float = 2.0) -> np.ndarray:
    return np.arange(low, high + 0.5 * step, step)


def pseudo_voigt(w: np.ndarray, position, intensity, shape, hwhm) -> np.ndarray:
    """Broadcasts over rows: position/hwhm may be (n, 1) columns."""
    u = (w - position) / hwhm
    return intensity * (shape * np.exp(-LN2 * u * u)
                        + (1.0 - shape) / (1.0 + u * u))


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float):
    """n values, one uniform draw in each of n equal strata of [lo, hi),
    in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def make_spectra(rng: np.random.Generator, n: int, w: np.ndarray,
                 noise: float, nuisance: bool = False):
    """Return (intensities (n, len(w)), sizes (n,)) drawn from rng.

    Sizes and nuisance parameters are Latin-hypercube draws: each lands
    once in every one of n equal strata of its range, so every seed
    covers the ranges evenly and accuracy differs less from seed to seed.
    """
    sizes = _strata(rng, n, SIZE_MIN, SIZE_MAX)
    z = ((sizes - SIZE_MIN) / (SIZE_MAX - SIZE_MIN))[:, None]
    widen = 1.0 + 0.5 * z
    X = np.broadcast_to(0.05 + 0.15 * z, (n, w.size)).copy()
    for pos, inten, shape, hwhm in PEAKS:
        X += pseudo_voigt(w, pos, inten, shape, hwhm * widen)
    if nuisance:
        t = (w - w[0]) / (w[-1] - w[0])
        a, b, c, o2, gain = (_strata(rng, n, lo, hi)[:, None] for lo, hi in
                             ((0.2, 1.0), (-0.5, 0.5), (0.5, 2.0),
                              (0.5, 1.5), (0.7, 1.3)))
        X = gain * (X + pseudo_voigt(w, OXYGEN_LINE, o2, 1.0, 1.5)) \
            + a + b * t + c * (t - 0.5) ** 2
    X += noise * rng.normal(size=X.shape)
    return X, sizes


def write_spectra(path: str, w: np.ndarray, X: np.ndarray, ids) -> None:
    """One column per sample, as ``spectramap.dataset.load_spectra`` reads.
    Written line by line, so no more than one line is held as text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("wavenumber," + ",".join(ids) + "\n")
        for wi, row in zip(w, X.T):
            fh.write(repr(float(wi)) + "," + ",".join(map(repr, row.tolist()))
                     + "\n")


def write_sizes(path: str, ids, sizes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample_id,diameter_nm\n")
        for sid, s in zip(ids, sizes.tolist()):
            fh.write(f"{sid},{s!r}\n")


def sample_ids(prefix: str, n: int):
    return [f"{prefix}{i:05d}" for i in range(n)]


def hard_model(w, X, n_peaks):
    """Medium-mode IHM template: the n tallest local maxima of the mean
    calibration spectrum, half-width 8, half Gaussian."""
    m = X.mean(axis=0)
    idx = [i for i in range(1, m.size - 1) if m[i] > m[i - 1] and m[i] > m[i + 1]]
    idx = sorted(sorted(idx, key=lambda i: -m[i])[:n_peaks])
    peaks = [{"position": float(w[i]), "intensity": float(m[i]),
              "shape": 0.5, "hwhm": 8.0} for i in idx]
    return {"baseline": {"offset": 0.0, "slope": 0.0},
            "components": [{"name": "seeded", "weight": 1.0, "peaks": peaks}]}


def write_inputs(wl, seed: int, run_dir: str) -> None:
    """The workload's CSV files (and hard model), plus ``inputs.npz`` with
    the arrays the benchmark checks against."""
    rng = np.random.default_rng(seed)
    w = grid(*wl.grid)
    X, sizes = make_spectra(rng, wl.n_calib, w, wl.noise, wl.nuisance)
    ids = sample_ids("c", wl.n_calib)
    write_spectra(os.path.join(run_dir, "spectra.csv"), w, X, ids)
    write_sizes(os.path.join(run_dir, "sizes.csv"), ids, sizes)
    arrays = {"w": w, "X": X, "sizes": sizes}
    if wl.new_batch:
        X_new, sizes_new = make_spectra(rng, wl.new_batch, w, wl.noise,
                                        wl.nuisance)
        write_spectra(os.path.join(run_dir, "new.csv"), w, X_new,
                      sample_ids("n", wl.new_batch))
        arrays.update(X_new=X_new, sizes_new=sizes_new)
    if wl.hard_model_peaks:
        with open(os.path.join(run_dir, "hard_model.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(hard_model(w, X, wl.hard_model_peaks), fh, indent=1,
                      sort_keys=True)
    np.savez(os.path.join(run_dir, "inputs.npz"), **arrays)


def main(argv=None) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="write one workload's inputs")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    write_inputs(WORKLOADS[args.workload], args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
