"""SPLDA generative model, sufficient statistics and the i-vector marginal.

The model is ``phi_j = mu + V y_i + eps_j`` with ``y_i ~ N(0, I)`` and
``eps_j ~ N(0, W^-1)``.  Everything downstream (both inference variants)
works with the zeroth/first/second-order statistics defined here.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import (check_array, chol_with_jitter, freeze, freeze_fields, inv_pd,
                     logdet_chol, sym)


@dataclass(frozen=True)
class SpldaModel:
    """Point parameters of an SPLDA model.

    mu : (d,) speaker-independent mean
    v  : (d, n_y) eigenvoice matrix
    w  : (d, d) within-class precision

    The arrays are read-only (see ``linalg.freeze``), so the log|W| kept
    from the factor that validated W cannot go stale.
    """

    mu: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        mu, v = (freeze(getattr(self, name), borrowed=name)
                 for name in ("mu", "v"))
        w = check_array(self.w, "w")
        d = mu.shape[0]
        if v.shape[0] != d or w.shape != (d, d):
            raise ValueError(
                f"inconsistent shapes: mu {mu.shape}, V {v.shape}, W {w.shape}"
            )
        if v.shape[1] > d:
            raise ValueError(f"n_y={v.shape[1]} exceeds d={d}")
        w = freeze(sym(w))
        # Fails (with jitter) if W is not positive definite.  Only log|W|
        # is kept from the factor, for ``logdet_w``.
        self.__dict__.update(mu=mu, v=v, w=w,
                             _logdet_w=logdet_chol(chol_with_jitter(w)))

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
        """log|W|, from the factor that validated W."""
        return self._logdet_w


@dataclass(frozen=True)
class Dataset:
    """Supervised and unsupervised i-vector collections.

    phi      : (N, d) unsupervised i-vectors (may be empty)
    phi_d    : (N_d, d) supervised i-vectors (may be empty)
    labels_d : (N_d,) integer speaker index per supervised i-vector

    An empty set is stored as (0, d), d from the other set, whatever shape
    it is given in; at least one set must hold i-vectors.  The arrays are
    read-only.
    """

    phi: np.ndarray
    phi_d: np.ndarray
    labels_d: np.ndarray

    def __post_init__(self):
        phi, phi_d = (np.atleast_2d(freeze(getattr(self, name), borrowed=name))
                      for name in ("phi", "phi_d"))
        if not phi.size and not phi_d.size:
            raise ValueError("phi and phi_d are both empty")
        d = (phi if phi.size else phi_d).shape[1]
        phi, phi_d = (arr if arr.size else freeze(np.zeros((0, d)))
                      for arr in (phi, phi_d))
        labels = freeze(self.labels_d, borrowed="labels_d")
        self.__dict__.update(phi=phi, phi_d=phi_d, labels_d=labels)
        if phi.shape[1] != phi_d.shape[1]:
            raise ValueError("phi and phi_d dimension mismatch")
        if labels.shape != (phi_d.shape[0],):
            raise ValueError(f"labels_d has shape {labels.shape}, "
                             f"not ({phi_d.shape[0]},)")
        if (np.bincount(labels) == 0).any():
            raise ValueError("every supervised speaker index needs >= 1 i-vector")

    @property
    def d(self):
        return self.phi.shape[1]

    @property
    def m_d(self):
        return int(self.labels_d.max()) + 1 if self.labels_d.size else 0


def _one_hot(labels, m):
    """(N, m) hard responsibilities: row j is 1 in column ``labels[j]``."""
    r = np.zeros((labels.shape[0], m))
    r[np.arange(labels.shape[0]), labels] = 1.0
    return r


def _hard_stats(labels, phi, m):
    """Counts ``n`` (m,) and first-order sums ``f`` (m, d) of the hard
    assignment of row j of ``phi`` to cluster ``labels[j] < m``.

    One weighted bincount over the flat index ``label * d + column`` adds
    each cluster's rows in row order, so no (N, m) one-hot is built.
    """
    d = phi.shape[1]
    n = np.bincount(labels, minlength=m).astype(float)
    cells = (labels[:, None] * d + np.arange(d)).ravel()
    f = np.bincount(cells, weights=phi.ravel(), minlength=m * d).reshape(m, d)
    return n, f


@dataclass(frozen=True)
class SuffStats:
    """Per-speaker zeroth/first-order statistics plus the global second order.

    The global ``S = sum_j phi_j phi_j^T`` is stored once; every update
    needs only this global sum, never per-speaker second-order matrices.
    ``fbar`` holds the first-order sums centered on a mean once the public
    helper ``center_stats`` has filled it; every update reads the raw sums.
    The arrays are made read-only in place, as every sweep's statistics
    share one ``s``.
    """

    n: np.ndarray  # (M,) soft counts
    f: np.ndarray  # (M, d) first-order sums
    s: np.ndarray | None = None  # (d, d) global second order
    fbar: np.ndarray | None = field(default=None, repr=False)  # (M, d)

    def __post_init__(self):
        freeze_fields(self, ("n", "f", "s", "fbar"))

    @property
    def d(self):
        return self.f.shape[1]

    @property
    def n_total(self):
        return float(self.n.sum())


def accumulate_stats(resp, phi, *, s=None):
    """Accumulate soft-count sufficient statistics.

    resp : (N, M) finite, nonnegative responsibilities, rows summing to 1
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
    if resp.shape[0]:
        # Neither check makes an N x M temporary; NaN or inf reaches the
        # row sums of the one gemv.
        row_sums = resp @ np.ones(resp.shape[1])
        if not np.isfinite(row_sums).all():
            raise ValueError("non-finite responsibility")
        if resp.min(initial=0.0) < 0:
            raise ValueError("negative responsibility")
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


def _labelled_stats(dataset):
    """The hard statistics of the labelled set of ``dataset``, with its
    second order ``phi_d.T @ phi_d``."""
    return SuffStats(*_hard_stats(dataset.labels_d, dataset.phi_d, dataset.m_d),
                     s=dataset.phi_d.T @ dataset.phi_d)


def marginal_params(model):
    """Marginal (mean, covariance) of one i-vector from a one-session speaker.

    Returns ``(mu, V V^T + W^-1)``.
    """
    cov = model.v @ model.v.T + inv_pd(model.w)
    return model.mu.copy(), sym(cov)
