"""Semi-supervised variational Bayes adaptation of Simplified PLDA models.

The names in ``__all__`` are the supported API.  Every other name stays
importable from its submodule, but is internal and may change.
"""

from . import fileio
from .adapt import RunConfig, RunReport, run_adaptation, sweep_m, train_supervised
from .model import Dataset, SpldaModel, marginal_params
from .oracles import clustering_metrics
from .synth import SynthSpec, generate, pairwise_llr, split_dataset
from .vbpoint import Hyperparams

__all__ = [
    "run_adaptation", "train_supervised", "sweep_m",
    "RunConfig", "RunReport", "Hyperparams", "Dataset", "SpldaModel",
    "marginal_params", "pairwise_llr", "SynthSpec", "generate", "split_dataset",
    "clustering_metrics", "fileio",
]
__version__ = "0.1.0"
