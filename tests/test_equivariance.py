"""A run depends on the i-vectors, not on the coordinates they are written in.

Mapping the data by phi' = A phi + b and the model by mu' = A mu + b,
V' = A V, W' = A^-T W A^-1 adds -N ln|det A| to every bound, with N
counting every i-vector, and leaves the labels and the responsibilities
as they were.  The point variant is equivariant under any invertible A.
The Bayesian variant is equivariant under translations and signed
permutations: q([V | mu]) factorises over the coordinates, and its
default beta reads tr(cov), which only an orthogonal A keeps.

Every run has ``elbo_tol=0`` and a fixed ``max_iter``, because the
stopping rule is relative to |ELBO|, which the map shifts.
"""

from functools import lru_cache

import numpy as np
import pytest

from spldavb import adapt, vbpoint
from spldavb.adapt import RunConfig, run_adaptation
from spldavb.model import Dataset, SpldaModel
from spldavb.vbpoint import Hyperparams
from test_cluster_control import split_problem

SEEDS = range(6)
INITS = ("ahc", "random_y")
MODES = {"plain": {}, "prune_merge": dict(prune_merge=True),
         "anneal": dict(anneal=True)}
CASES = [(seed, init, mode) for seed in SEEDS for init in INITS
         for mode in MODES]


def mapped_problem(dataset, model, a, b):
    """The dataset and model written in the coordinates x' = A x + b."""
    a_inv = np.linalg.inv(a)
    return (Dataset(phi=dataset.phi @ a.T + b, phi_d=dataset.phi_d @ a.T + b,
                    labels_d=dataset.labels_d),
            SpldaModel(mu=a @ model.mu + b, v=a @ model.v,
                       w=a_inv.T @ model.w @ a_inv))


def run(dataset, model, variant, init, mode, beta=None):
    """``(report, r)``: a run and the responsibilities of its last sweep.
    A vector ``beta`` also turns on the per-row ``hyper_opt_mu`` step."""
    last = []
    update_q_theta = vbpoint.update_q_theta

    def recording(*args, **kwargs):
        last[:] = [update_q_theta(*args, **kwargs)]
        return last[0]

    config = RunConfig(m_init=6, variant=variant, init_method=init,
                       elbo_tol=0.0, max_iter=60, seed=0,
                       hyper_opt_mu=beta is not None, **MODES[mode])
    vbpoint.update_q_theta = recording
    try:
        report = run_adaptation(dataset, model, Hyperparams(beta=beta), config)
    finally:
        vbpoint.update_q_theta = update_q_theta
    return report, last[0].r


@lru_cache(maxsize=None)
def original(seed, variant, init, mode):
    dataset, model = split_problem(seed=seed)
    return run(dataset, model, variant, init, mode)


def assert_equivariant(a, b, n, logdet_a):
    """Run ``b`` is run ``a`` seen through a map with ln|det A| =
    ``logdet_a``, on ``n`` i-vectors."""
    (report_a, r_a), (report_b, r_b) = a, b
    np.testing.assert_array_equal(report_b.labels, report_a.labels)
    assert report_b.m_trace == report_a.m_trace
    np.testing.assert_allclose(
        report_b.elbo_trace, np.subtract(report_a.elbo_trace, n * logdet_a),
        rtol=1e-9, atol=0)
    np.testing.assert_allclose(r_b, r_a, rtol=0, atol=1e-8)


def signed_permutation(rng, d):
    """A random signed permutation matrix, its permutation and a shift."""
    perm = rng.permutation(d)
    return np.eye(d)[perm] * rng.choice([-1.0, 1.0], d)[:, None], perm, \
        rng.normal(0.0, 3.0, d)


@pytest.mark.parametrize("seed, init, mode", CASES)
def test_point_run_under_affine_map(seed, init, mode):
    dataset, model = split_problem(seed=seed)
    rng = np.random.default_rng(100 + seed)
    a = np.eye(dataset.d) + 0.5 * rng.standard_normal((dataset.d,) * 2)
    b = rng.normal(0.0, 3.0, dataset.d)
    n = dataset.phi.shape[0] + dataset.phi_d.shape[0]
    assert_equivariant(original(seed, "point", init, mode),
                       run(*mapped_problem(dataset, model, a, b), "point",
                           init, mode),
                       n, np.linalg.slogdet(a)[1])


@pytest.mark.parametrize("seed, init, mode", CASES)
def test_bayes_run_under_translation_and_sign_flips(seed, init, mode):
    dataset, model = split_problem(seed=seed)
    rng = np.random.default_rng(200 + seed)
    a = np.diag(rng.choice([-1.0, 1.0], dataset.d))
    b = rng.normal(0.0, 3.0, dataset.d)
    n = dataset.phi.shape[0] + dataset.phi_d.shape[0]
    assert_equivariant(original(seed, "bayes", init, mode),
                       run(*mapped_problem(dataset, model, a, b), "bayes",
                           init, mode),
                       n, 0.0)


@pytest.mark.parametrize("beta_kind", ["scalar", "per-row"])
@pytest.mark.parametrize("seed, init, mode", CASES)
def test_bayes_run_under_signed_permutation(seed, init, mode, beta_kind):
    # The row step solves for all rows at once, so the order in which the
    # coordinates are written cannot matter; a per-row beta moves with
    # its coordinate, and hyper_opt_mu keeps it per row.
    dataset, model = split_problem(seed=seed)
    rng = np.random.default_rng(300 + seed)
    a, perm, b = signed_permutation(rng, dataset.d)
    n = dataset.phi.shape[0] + dataset.phi_d.shape[0]
    mapped = mapped_problem(dataset, model, a, b)
    if beta_kind == "scalar":
        before = original(seed, "bayes", init, mode)
        after = run(*mapped, "bayes", init, mode)
    else:
        variant = adapt._start(dataset, model, Hyperparams(),
                               RunConfig(variant="bayes"))[0]
        beta = variant.hyper.beta * rng.uniform(0.5, 2.0, dataset.d)
        before = run(dataset, model, "bayes", init, mode, beta)
        after = run(*mapped, "bayes", init, mode, beta[perm])
    assert_equivariant(before, after, n, 0.0)
