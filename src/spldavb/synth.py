"""Synthetic data generation and verification scoring for the SPLDA model."""

from contextlib import suppress
from dataclasses import dataclass, fields

import numpy as np

from .linalg import check_array, check_settings, freeze, inv_logdet_pd, inv_pd, sym
from .model import Dataset, SpldaModel


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a ground-truth synthetic dataset, checked when built; a
    field cannot be assigned after.

    The sizes are integers >= 1, the seed an integer >= 0 and the scales
    finite and > 0 (see ``linalg.check_settings``).
    vectors-per-speaker may be a fixed integer or an inclusive (low, high)
    range of integers, given as any pair and kept as a tuple, at least 1
    either way, so every speaker has an i-vector;
    ``eigenvoice_scale / noise_scale >= 5`` gives the easy-separation regime.
    With ``model`` set the data are drawn from it: ``d`` and ``n_y`` must be
    the model's, and the scales, which are then not read, their defaults.
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
        model = self.model
        check_settings(**{f.name: getattr(self, f.name) for f in fields(self)
                          if f.type in (int, float)})
        for name in ("d", "n_y"):
            value = getattr(self, name)
            if model is not None and value != getattr(model, name):
                raise ValueError(f"{name}={value} differs from the model's "
                                 f"{name}={getattr(model, name)}")
        for name in ("eigenvoice_scale", "noise_scale"):
            value = getattr(self, name)
            # A field's class attribute is its default.
            if model is not None and value != getattr(SynthSpec, name):
                raise ValueError(f"{name}={value!r} has no effect with a model, "
                                 "which the data are drawn from")
        per = self.per_speaker
        with suppress(TypeError):  # an integer is not iterable
            per = tuple(per)
            object.__setattr__(self, "per_speaker", per)
        low, high = per if isinstance(per, tuple) and len(per) == 2 else (per,) * 2
        if not (np.issubdtype(type(low), np.integer)
                and np.issubdtype(type(high), np.integer) and 1 <= low <= high):
            raise ValueError(f"per_speaker must be >= 1: an integer, or a range "
                             f"(low, high) of integers with 1 <= low <= high; "
                             f"got {self.per_speaker!r}")


def random_model(d, n_y, eigenvoice_scale, noise_scale, rng):
    """Random SPLDA model with controllable speaker/noise scales."""
    mu = rng.standard_normal(d)
    v = eigenvoice_scale * rng.standard_normal((d, n_y)) / np.sqrt(n_y)
    w = np.eye(d) / noise_scale ** 2
    return SpldaModel(mu=freeze(mu), v=freeze(v), w=w)


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
    """Split synthetic speakers into supervised and unsupervised subsets.

    ``sup_fraction``, in [0, 1], is the share of the speakers labelled,
    rounded to a whole speaker; at least one speaker is labelled, so 0
    gives one.  Returns ``(dataset, labels)``, the labels of
    ``dataset.phi``.  The dataset holds the fresh subsets themselves, made
    read-only."""
    check_settings(sup_fraction=sup_fraction, seed=seed)
    phi, labels = check_array(phi, "phi"), check_array(labels, "labels")
    rng = np.random.default_rng(seed)
    speakers = np.unique(labels)
    n_sup = max(1, int(round(sup_fraction * speakers.size)))
    sup_mask = np.isin(labels, rng.choice(speakers, size=n_sup, replace=False))
    labels_d = np.unique(labels[sup_mask], return_inverse=True)[1]
    dataset = Dataset(phi=freeze(phi[~sup_mask]), phi_d=freeze(phi[sup_mask]),
                      labels_d=labels_d)
    return dataset, labels[~sup_mask]


def pairwise_llr(model, phi_a, phi_b):
    """Same-speaker vs independent-speakers log-likelihood ratio.

    ln p(a, b | same) - ln p(a) p(b); the two-cover verification score of
    the point model, by the closed form of :func:`pairwise_llr_matrix`.
    """
    pair = []
    for name, phi in (("phi_a", phi_a), ("phi_b", phi_b)):
        pair.append(check_array(phi, name))
        if pair[-1].shape != (model.d,):
            raise ValueError(f"{name} has {pair[-1].size} entries; expected "
                             f"the model's d = {model.d}")
    return float(pairwise_llr_matrix(model, np.stack(pair))[0, 1])


def pairwise_llr_matrix(model, phi):
    """(N, N) same-speaker vs independent-speakers log-likelihood ratios
    ln p(a, b | same) - ln p(a) p(b) of every pair of rows of ``phi``.

    Two-covariance closed form (Ioffe 2006): with B = V V^T, T = B + W^-1,
    Q1 = (T - B T^-1 B)^-1 and P = T^-1 B Q1, the score of centred rows
    (a, b) is c + q(a) + q(b) + a^T P b, where
    c = (ln|T| - ln|T - B T^-1 B|) / 2 and q(x) = x^T (T^-1 - Q1) x / 2.
    All pairs cost one GEMM plus a per-row quadratic form; T and the Schur
    complement are each factored once, for both the inverse and ln|.|.
    """
    between = model.v @ model.v.T
    total = between + inv_pd(model.w)
    total_inv, logdet_total = inv_logdet_pd(total)
    schur = sym(total - between @ total_inv @ between)
    q1, logdet_schur = inv_logdet_pd(schur)
    cross = sym(total_inv @ between @ q1)
    const = 0.5 * (logdet_total - logdet_schur)
    x = phi - model.mu
    q = 0.5 * ((x @ (total_inv - q1)) * x).sum(axis=1)
    return sym(const + q[:, None] + q[None, :] + x @ cross @ x.T)
