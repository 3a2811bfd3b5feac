"""Implementation-independent checks: Monte-Carlo expectation estimates and
clustering metrics.

These deliberately avoid the matrix-expectation code paths of the inference
modules so they can serve as oracles in the verification suite.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import wishart

from .linalg import check_array


@dataclass
class MetricReport:
    ari: float
    purity: float
    confusion: np.ndarray


def clustering_metrics(pred_labels, true_labels):
    """Adjusted Rand index (pair counting) and majority-vote purity."""
    pred = check_array(pred_labels, "pred_labels")
    true = check_array(true_labels, "true_labels")
    if pred.shape != true.shape:
        raise ValueError("label vectors must have the same length")
    if pred.size == 0:
        raise ValueError("empty labelings")
    _, pred_idx = np.unique(pred, return_inverse=True)
    _, true_idx = np.unique(true, return_inverse=True)
    k_pred = pred_idx.max() + 1
    k_true = true_idx.max() + 1
    contingency = np.zeros((k_pred, k_true), dtype=np.int64)
    np.add.at(contingency, (pred_idx, true_idx), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(contingency.astype(float)).sum()
    sum_rows = comb2(contingency.sum(axis=1).astype(float)).sum()
    sum_cols = comb2(contingency.sum(axis=0).astype(float)).sum()
    total = comb2(float(pred.size))
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        ari = 1.0
    else:
        ari = (sum_cells - expected) / (max_index - expected)
    purity = contingency.max(axis=1).sum() / pred.size
    return MetricReport(ari=float(ari), purity=float(purity), confusion=contingency)


def mc_expectation_oracle(dist, integrand, n_draws, seed=0):
    """Monte-Carlo estimate (with standard error) of E[integrand(x)].

    ``dist`` is a dict: {"kind": ..., parameters...} with kinds

    - ``gaussian``       mean (k,), cov (k, k)
    - ``gaussian_rows``  means (d, k), covs (d, k, k) - independent row draws
    - ``wishart``        scale (d, d), dof
    - ``dirichlet``      tau (M,)
    - ``gamma``          a, b (shape/rate; scalars or arrays)
    """
    rng = np.random.default_rng(seed)
    kind = dist["kind"]
    if kind == "gaussian":
        chol = np.linalg.cholesky(np.atleast_2d(dist["cov"]))
        sampler = lambda: dist["mean"] + chol @ rng.standard_normal(chol.shape[0])
    elif kind == "gaussian_rows":
        means = np.asarray(dist["means"], dtype=float)
        chols = np.array([np.linalg.cholesky(c) if np.any(c) else np.zeros_like(c)
                          for c in dist["covs"]])

        def sampler():
            z = rng.standard_normal(means.shape)
            return means + np.einsum("rab,rb->ra", chols, z)
    elif kind == "wishart":
        frozen = wishart(df=dist["dof"], scale=dist["scale"])
        sampler = lambda: frozen.rvs(random_state=rng)
    elif kind == "dirichlet":
        sampler = lambda: rng.dirichlet(dist["tau"])
    elif kind == "gamma":
        sampler = lambda: rng.gamma(shape=dist["a"], scale=1.0 / np.asarray(dist["b"]))
    else:
        raise ValueError(f"unsupported distribution spec: {kind!r}")

    first = np.asarray(integrand(sampler()), dtype=float)
    total = first.copy()
    total_sq = first ** 2
    for _ in range(n_draws - 1):
        val = np.asarray(integrand(sampler()), dtype=float)
        total += val
        total_sq += val ** 2
    mean = total / n_draws
    var = np.maximum(total_sq / n_draws - mean ** 2, 0.0)
    stderr = np.sqrt(var / n_draws)
    return mean, stderr
