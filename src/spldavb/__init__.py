"""Semi-supervised variational Bayes adaptation of Simplified PLDA models."""

from .adapt import (
    RunConfig,
    RunReport,
    init_responsibilities,
    prune_and_merge,
    run_adaptation,
    sampled_statistics,
    sweep_m,
    train_supervised,
)
from .model import (
    Dataset,
    SpldaModel,
    SuffStats,
    accumulate_stats,
    center_stats,
    marginal_params,
)
from .oracles import clustering_metrics, mc_expectation_oracle
from .synth import SynthSpec, generate, pairwise_llr
from .vbpoint import (
    DirichletPosterior,
    Hyperparams,
    Responsibilities,
    SpeakerPosteriors,
    elbo_point,
    min_divergence,
    mstep_tau0,
    mstep_V,
    mstep_W,
    update_q_pi,
    update_q_theta,
    update_q_y,
)
from .vbbayes import (
    AlphaPosterior,
    RowPosteriors,
    WishartPosterior,
    elbo_bayes,
    optimize_hyper_alpha,
    optimize_hyper_mu,
    update_q_alpha,
    update_q_theta_bayes,
    update_q_vtilde_rows,
    update_q_wishart,
    update_q_y_bayes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
