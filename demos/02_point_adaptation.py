"""Adapt a supervised model to unlabelled data with the point variant.

Half of the speakers are labelled (the in-domain set), the other half
arrive unlabelled.  The run clusters the unlabelled i-vectors and
re-estimates the model parameters with the labelled set down-weighted by
eta.  Clustering quality is reported against the held-back true labels.
"""

import numpy as np

from spldavb import (
    Hyperparams,
    RunConfig,
    SynthSpec,
    clustering_metrics,
    generate,
    run_adaptation,
    train_supervised,
)
from spldavb.synth import split_dataset

phi, labels, _ = generate(SynthSpec(
    d=8, n_y=4, m_true=8, per_speaker=12, eigenvoice_scale=5.0,
    noise_scale=1.0, seed=0))
dataset, true_unsup = split_dataset(phi, labels, sup_fraction=0.5, seed=0)
m_unsup = len(np.unique(true_unsup))
print(f"labelled: {dataset.phi_d.shape[0]} i-vectors "
      f"({dataset.m_d} speakers); unlabelled: {dataset.phi.shape[0]} "
      f"({m_unsup} speakers, hidden)")

init = train_supervised(dataset.phi_d, dataset.labels_d, n_y=4, seed=0).model

config = RunConfig(m_init=m_unsup, init_method="ahc", max_iter=200, seed=0)
report = run_adaptation(dataset, init, Hyperparams(eta=0.5), config)

print(f"converged: {report.converged} after {len(report.elbo_trace)} "
      "iterations")
print("lower bound trace (every 5th):")
for it in range(0, len(report.elbo_trace), 5):
    print(f"  iter {it:3d}  {report.elbo_trace[it]:12.3f}")

metrics = clustering_metrics(report.labels, true_unsup)
print(f"adjusted Rand index: {metrics.ari:.3f}")
print(f"cluster purity:      {metrics.purity:.3f}")
