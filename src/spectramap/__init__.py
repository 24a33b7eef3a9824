"""spectramap: manifold-learning toolkit for predicting particle size
from vibrational spectra.

Submodules:
    config     the config schema: one spec per section, one walker
    dataset    spectra containers, CSV persistence, splits
    pretreat   region filtering, baselines, normalization
    metrics    regression quality metrics
    dmaps      diffusion maps, Nystrom extension, geometric harmonics
    altdmaps   alternating diffusion maps over paired sensors
    mlp        dense-net core (SubNet, forward/backward, SGD, gradient
               check) and the feed-forward regressor trained on it
    gbt        second-order gradient-boosted regression trees
    pls        NIPALS partial least squares
    conformal  Y-shaped conformal autoencoder on the mlp dense-net core
    ihm        pseudo-Voigt hard models and Levenberg-Marquardt fitting
    synth      synthetic datasets with known hidden structure
    report     run reports, parity tables, deterministic emission
    serialize  directory-based model persistence
    workflows  end-to-end experiment runners
    cli        command-line interface
"""

__version__ = "0.1.0"
