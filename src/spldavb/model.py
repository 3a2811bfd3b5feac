"""SPLDA generative model, sufficient statistics and the i-vector marginal.

The model is ``phi_j = mu + V y_i + eps_j`` with ``y_i ~ N(0, I)`` and
``eps_j ~ N(0, W^-1)``.  Everything downstream (both inference variants)
works with the zeroth/first/second-order statistics defined here.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import chol_with_jitter, inv_pd, logdet_pd, sym

__all__ = [
    "SpldaModel",
    "Dataset",
    "SuffStats",
    "accumulate_stats",
    "center_stats",
    "marginal_params",
]


@dataclass(frozen=True)
class SpldaModel:
    """Point parameters of an SPLDA model.

    mu : (d,) speaker-independent mean
    v  : (d, n_y) eigenvoice matrix
    w  : (d, d) within-class precision
    """

    mu: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        v = np.asarray(self.v, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", sym(w))
        d = mu.shape[0]
        if v.shape[0] != d or w.shape != (d, d):
            raise ValueError(
                f"inconsistent shapes: mu {mu.shape}, V {v.shape}, W {w.shape}"
            )
        if v.shape[1] > d:
            raise ValueError(f"n_y={v.shape[1]} exceeds d={d}")
        # Fails (with jitter) if W is not positive definite.
        chol_with_jitter(self.w)

    @property
    def d(self):
        return self.mu.shape[0]

    @property
    def n_y(self):
        return self.v.shape[1]

    @property
    def vtilde(self):
        """Augmented matrix [V | mu], shape (d, n_y + 1)."""
        return np.hstack([self.v, self.mu[:, None]])

    def logdet_w(self):
        return logdet_pd(self.w)


@dataclass(frozen=True)
class Dataset:
    """Supervised and unsupervised i-vector collections.

    phi      : (N, d) unsupervised i-vectors (may be empty)
    phi_d    : (N_d, d) supervised i-vectors (may be empty)
    labels_d : (N_d,) integer speaker index per supervised i-vector
    """

    phi: np.ndarray
    phi_d: np.ndarray
    labels_d: np.ndarray

    def __post_init__(self):
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        phi_d = np.atleast_2d(np.asarray(self.phi_d, dtype=float))
        labels = np.asarray(self.labels_d, dtype=int)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_d", phi_d)
        object.__setattr__(self, "labels_d", labels)
        if phi.size and phi_d.size and phi.shape[1] != phi_d.shape[1]:
            raise ValueError("phi and phi_d dimension mismatch")
        n_d = phi_d.shape[0] if phi_d.size else 0  # atleast_2d([]) is (1, 0)
        if labels.shape != (n_d,):
            raise ValueError(f"labels_d has shape {labels.shape}, not ({n_d},)")
        if phi_d.size:
            m_d = labels.max() + 1
            if labels.min() < 0:
                raise ValueError("negative speaker label")
            counts = np.bincount(labels, minlength=m_d)
            if (counts == 0).any():
                raise ValueError("every supervised speaker index needs >= 1 i-vector")
        for name, arr in (("phi", phi), ("phi_d", phi_d)):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"{name} contains NaN/Inf")

    @property
    def d(self):
        return self.phi.shape[1] if self.phi.size else self.phi_d.shape[1]

    @property
    def m_d(self):
        return int(self.labels_d.max()) + 1 if self.labels_d.size else 0

    def one_hot_labels(self):
        """(N_d, M_d) one-hot responsibility matrix for the supervised set."""
        r = np.zeros((self.phi_d.shape[0], self.m_d))
        r[np.arange(self.phi_d.shape[0]), self.labels_d] = 1.0
        return r


@dataclass
class SuffStats:
    """Per-speaker zeroth/first-order statistics plus the global second order.

    The global ``S = sum_j phi_j phi_j^T`` is stored once; every update
    needs only this global sum, never per-speaker second-order matrices.
    ``fbar`` holds the first-order sums centered on a mean once the public
    helper ``center_stats`` has filled it; every update reads the raw sums.
    """

    n: np.ndarray  # (M,) soft counts
    f: np.ndarray  # (M, d) first-order sums
    s: np.ndarray | None = None  # (d, d) global second order
    fbar: np.ndarray | None = field(default=None, repr=False)  # (M, d)

    @property
    def d(self):
        return self.f.shape[1]

    @property
    def n_total(self):
        return float(self.n.sum())


def accumulate_stats(resp, phi, *, s=None):
    """Accumulate soft-count sufficient statistics.

    resp : (N, M) responsibilities, rows summing to 1
    phi  : (N, d) i-vectors
    s    : optional precomputed ``phi.T @ phi``; the global second order
           does not depend on ``resp`` because its rows sum to 1
    """
    resp = np.asarray(resp, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if resp.ndim != 2 or phi.ndim != 2 or resp.shape[0] != phi.shape[0]:
        raise ValueError(
            f"shape mismatch: resp {resp.shape} vs phi {phi.shape} (rows must agree)"
        )
    if (resp < 0).any():
        raise ValueError("negative responsibility")
    if resp.shape[0]:
        row_sums = resp.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > 1e-9:
            raise ValueError("responsibility rows must sum to 1 within 1e-9")
    n = resp.sum(axis=0)
    f = resp.T @ phi
    if s is None:
        s = phi.T @ phi
    return SuffStats(n=n, f=f, s=s)


def center_stats(stats, mu):
    """``stats`` with the first-order sums centered on ``mu`` in ``fbar``.

    Idempotent for a fixed ``mu``: ``fbar`` is always recomputed from the
    raw sums.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (stats.d,):
        raise ValueError(f"mu shape {mu.shape} does not match d={stats.d}")
    return SuffStats(n=stats.n, f=stats.f, s=stats.s,
                     fbar=stats.f - np.outer(stats.n, mu))


def marginal_params(model):
    """Marginal (mean, covariance) of one i-vector from a one-session speaker.

    Returns ``(mu, V V^T + W^-1)``.
    """
    cov = model.v @ model.v.T + inv_pd(model.w)
    return model.mu.copy(), sym(cov)
