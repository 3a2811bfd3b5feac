"""Deterministic annealing and cluster prune/merge control.

Two experiments on the same data:

1. Hard separation (between/within scale ratio 1.5): compare a plain run
   against one with an annealed temperature schedule.  Annealing flattens
   the responsibilities early and often escapes poor local optima.
2. Over-provisioned clustering (twice as many initial clusters as
   speakers): periodic prune/merge steps shrink the model back to the
   true speaker count.  Each candidate is kept on its lower bound with
   the parameters held, and the next iteration's sweep starts from the
   kept structure.
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

print("-- annealing on hard-separation data --")
for seed in range(3):
    phi, labels, _ = generate(SynthSpec(
        d=10, n_y=2, m_true=8, per_speaker=10, eigenvoice_scale=1.5,
        noise_scale=1.0, seed=seed))
    dataset, true_unsup = split_dataset(phi, labels, 0.5, seed=seed)
    init = train_supervised(dataset.phi_d, dataset.labels_d, n_y=2,
                            seed=seed).model
    m = len(np.unique(true_unsup))
    finals = {}
    for anneal in (False, True):
        report = run_adaptation(
            dataset, init, Hyperparams(),
            RunConfig(m_init=m, init_method="ahc", anneal=anneal,
                      max_iter=200, seed=seed))
        finals[anneal] = report.elbo_trace[-1]
    print(f"seed {seed}: plain {finals[False]:11.3f}   "
          f"annealed {finals[True]:11.3f}   "
          f"winner: {'annealed' if finals[True] >= finals[False] else 'plain'}")

print()
print("-- prune/merge from an over-provisioned start --")
phi, labels, _ = generate(SynthSpec(
    d=8, n_y=4, m_true=8, per_speaker=12, eigenvoice_scale=5.0,
    noise_scale=1.0, seed=0))
dataset, true_unsup = split_dataset(phi, labels, 0.5, seed=0)
init = train_supervised(dataset.phi_d, dataset.labels_d, n_y=4, seed=0).model
m_true = len(np.unique(true_unsup))
report = run_adaptation(
    dataset, init, Hyperparams(),
    RunConfig(m_init=2 * m_true, init_method="ahc", prune_merge=True,
              prune_every=3, max_iter=200, seed=0))
print(f"cluster count trace: {report.m_trace[0]} -> ... -> "
      f"{report.m_trace[-1]} (true: {m_true})")
changes = [(it, m) for it, m in enumerate(report.m_trace)
           if it == 0 or m != report.m_trace[it - 1]]
for it, m in changes:
    print(f"  iter {it:3d}: M = {m}")
metrics = clustering_metrics(report.labels, true_unsup)
print(f"adjusted Rand index: {metrics.ari:.3f}")
