"""The three workloads: what is generated, trained, scored and streamed.

Workflow configs are passed to ``spectramap train`` as written here,
with only the ``data`` paths (and the hard-model path) filled in.  Model
seeds and the split seed are fixed; ``--seed`` changes the spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

SPLIT = {"test_fraction": 0.25, "seed": 0}

REAL_DATA_PRETREATMENT = {"region": "fingerprint",
                          "exclusions": [[1552.0, 1560.0]],
                          "baseline": "rubber_band",
                          "normalization": "snv"}


@dataclass(frozen=True)
class Workload:
    name: str
    n_calib: int                     # spectra in the calibration file
    grid: Tuple[float, float]        # cm^-1, 2 cm^-1 spacing
    noise: float
    nuisance: bool                   # background, oxygen line, gain
    workflows: Dict[str, dict]       # workflow -> train config sections
    stream_workflow: str
    stream_len: int                  # single spectra per round
    new_batch: int = 0               # fresh spectra scored per round
    outlier: bool = False            # also score held-out with one row x1e3
    # just under the lowest R2 seen over seeds 1-40 (README, "Accuracy")
    r2_floor: Dict[str, float] = field(default_factory=dict)
    hard_model_peaks: int = 0        # > 0: write an IHM model seeded here


WORKLOADS = {
    "calib_dense": Workload(
        name="calib_dense",
        n_calib=2000,
        grid=(850.0, 1800.0),
        noise=0.01,
        nuisance=False,
        workflows={
            "altdmaps": {
                "dmaps": {"n_eig": 10},
                # n_eig 6 keeps the alternating eigenvalues >= ~1e-4; with
                # the default 10 some seeds reach ~1e-6, where eig returns
                # complex pairs and fit_altdmaps refuses them (CHANGES.md)
                "altdmaps": {"n_eig": 6, "alt_regressor": "gh",
                             "size_regressor": "nn",
                             "size_regressor_config": {"epochs": 150}},
            },
        },
        stream_workflow="altdmaps",
        stream_len=200,
        outlier=True,
        r2_floor={"altdmaps": 0.993},
    ),
    "routes_small": Workload(
        name="routes_small",
        n_calib=300,
        grid=(850.0, 1800.0),
        noise=0.01,
        nuisance=False,
        workflows={
            "yshaped": {
                "dmaps": {"n_eig": 10},
                "yshaped": {"n_latent": 2, "encoder_hidden": [16],
                            "decoder_hidden": [16], "head_hidden": [8],
                            "epochs": 150, "batch_size": 16,
                            "learning_rate": 0.01},
            },
            "direct_dmaps_gbt": {"dmaps": {"n_eig": 10}},
            "pls_direct": {},
            "ihm_pls": {"ihm": {"mode": "medium"}},
        },
        stream_workflow="ihm_pls",
        stream_len=50,
        new_batch=50,
        r2_floor={"yshaped": 0.97, "direct_dmaps_gbt": 0.999,
                  "pls_direct": 0.999, "ihm_pls": 0.999},
        hard_model_peaks=3,
    ),
    "monitor_stream": Workload(
        name="monitor_stream",
        n_calib=1000,
        grid=(600.0, 2000.0),
        noise=0.01,
        nuisance=True,
        workflows={
            "direct_dmaps_nn": {"dmaps": {"n_eig": 10},
                                "pretreatment": REAL_DATA_PRETREATMENT},
        },
        stream_workflow="direct_dmaps_nn",
        stream_len=400,
        new_batch=1200,
        r2_floor={"direct_dmaps_nn": 0.996},
    ),
}
