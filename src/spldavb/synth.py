"""Synthetic data generation and verification scoring for the SPLDA model."""

from dataclasses import dataclass

import numpy as np

from .linalg import inv_pd, logdet_pd, sym
from .model import Dataset, SpldaModel

__all__ = ["SynthSpec", "generate", "random_model", "pairwise_llr", "pairwise_llr_matrix"]


@dataclass
class SynthSpec:
    """Recipe for a ground-truth synthetic dataset.

    vectors-per-speaker may be a fixed int or an inclusive (low, high) range;
    ``eigenvoice_scale / noise_scale >= 5`` gives the easy-separation regime.
    """

    d: int
    n_y: int
    m_true: int
    per_speaker: int | tuple[int, int]
    eigenvoice_scale: float = 1.0
    noise_scale: float = 1.0
    model: SpldaModel | None = None
    seed: int = 0

    def __post_init__(self):
        if min(self.d, self.n_y, self.m_true) < 1:
            raise ValueError("all sizes must be >= 1")
        if self.eigenvoice_scale <= 0 or self.noise_scale <= 0:
            raise ValueError("scales must be > 0")


def random_model(d, n_y, eigenvoice_scale, noise_scale, rng):
    """Random SPLDA model with controllable speaker/noise scales."""
    mu = rng.standard_normal(d)
    v = eigenvoice_scale * rng.standard_normal((d, n_y)) / np.sqrt(n_y)
    w = np.eye(d) / noise_scale ** 2
    return SpldaModel(mu=mu, v=v, w=w)


def generate(spec):
    """Sample (phi, labels, model) from the generative model.

    Returns ``(phi, labels, model)`` where ``phi`` is (N, d) and ``labels``
    assigns each row to one of ``m_true`` speakers.  Reproducible by seed.
    """
    rng = np.random.default_rng(spec.seed)
    model = spec.model
    if model is None:
        model = random_model(spec.d, spec.n_y, spec.eigenvoice_scale,
                             spec.noise_scale, rng)
    if isinstance(spec.per_speaker, tuple):
        counts = rng.integers(spec.per_speaker[0], spec.per_speaker[1] + 1,
                              size=spec.m_true)
    else:
        counts = np.full(spec.m_true, spec.per_speaker)
    noise_chol = np.linalg.cholesky(inv_pd(model.w))
    phis, labels = [], []
    for i in range(spec.m_true):
        y = rng.standard_normal(model.n_y)
        eps = rng.standard_normal((counts[i], model.d)) @ noise_chol.T
        phis.append(model.mu + y @ model.v.T + eps)
        labels.extend([i] * counts[i])
    return np.vstack(phis), np.array(labels, dtype=int), model


def split_dataset(phi, labels, sup_fraction, seed=0):
    """Split synthetic speakers into supervised and unsupervised subsets."""
    rng = np.random.default_rng(seed)
    speakers = np.unique(labels)
    n_sup = max(1, int(round(sup_fraction * speakers.size)))
    sup_spk = set(rng.choice(speakers, size=n_sup, replace=False).tolist())
    sup_mask = np.array([l in sup_spk for l in labels])
    sup_labels_raw = labels[sup_mask]
    remap = {s: i for i, s in enumerate(np.unique(sup_labels_raw))}
    labels_d = np.array([remap[l] for l in sup_labels_raw], dtype=int)
    dataset = Dataset(phi=phi[~sup_mask], phi_d=phi[sup_mask], labels_d=labels_d)
    return dataset, labels[~sup_mask]


def pairwise_llr(model, phi_a, phi_b):
    """Same-speaker vs independent-speakers log-likelihood ratio.

    ln p(a, b | same) - ln p(a) p(b); the two-cover verification score of
    the point model, by the closed form of :func:`pairwise_llr_matrix`.
    """
    return float(pairwise_llr_matrix(model, np.stack([phi_a, phi_b]))[0, 1])


def pairwise_llr_matrix(model, phi):
    """(N, N) same-speaker vs independent-speakers log-likelihood ratios
    ln p(a, b | same) - ln p(a) p(b) of every pair of rows of ``phi``.

    Two-covariance closed form (Ioffe 2006): with B = V V^T, T = B + W^-1,
    Q1 = (T - B T^-1 B)^-1 and P = T^-1 B Q1, the score of centred rows
    (a, b) is c + q(a) + q(b) + a^T P b, where
    c = (ln|T| - ln|T - B T^-1 B|) / 2 and q(x) = x^T (T^-1 - Q1) x / 2.
    All pairs cost one GEMM plus a per-row quadratic form.
    """
    between = model.v @ model.v.T
    total = between + inv_pd(model.w)
    total_inv = inv_pd(total)
    schur = sym(total - between @ total_inv @ between)
    q1 = inv_pd(schur)
    cross = sym(total_inv @ between @ q1)
    const = 0.5 * (logdet_pd(total) - logdet_pd(schur))
    x = phi - model.mu
    q = 0.5 * ((x @ (total_inv - q1)) * x).sum(axis=1)
    return sym(const + q[:, None] + q[None, :] + x @ cross @ x.T)
