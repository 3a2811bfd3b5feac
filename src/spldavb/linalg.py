"""Small shared linear-algebra helpers (Cholesky-based, with a jitter policy).

Each ``*_pd`` helper factors its matrix once; a caller that needs both
the inverse and the log-determinant takes them from one factor with
:func:`inv_logdet_pd`.
"""

import numpy as np
import scipy.linalg.lapack


class NotPositiveDefiniteError(ValueError):
    pass


def sym(a):
    """Symmetrize a square matrix, or each matrix of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def chol_with_jitter(a):
    """Lower Cholesky factor of ``a``.

    On failure, adds ``1e-10 * tr(a)/dim`` to the diagonal once and retries;
    a second failure raises :class:`NotPositiveDefiniteError`.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * np.trace(a) / a.shape[0]
    try:
        return np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            f"matrix of shape {a.shape} is not positive definite (jitter {jitter:g} did not help)"
        ) from None


def logdet_chol(chol):
    """log|a| from the lower Cholesky factor of ``a``."""
    return 2.0 * np.log(chol.diagonal()).sum()


def _inv_chol(chol):
    """a^-1 from the lower Cholesky factor of ``a``: one LAPACK ``potrs``
    solve against the identity, the routine ``scipy.linalg.cho_solve``
    wraps, called directly; like ``cho_solve``, it rejects a factor that
    is not finite (an infinite diagonal of ``a`` factors without error)."""
    if not chol.size:  # potrs rejects a 0 x 0 system
        return np.zeros((0, 0))
    if not np.isfinite(chol).all():
        raise ValueError("array must not contain infs or NaNs")
    return sym(scipy.linalg.lapack.dpotrs(chol, np.eye(chol.shape[0]), lower=1)[0])


def logdet_pd(a):
    """log|a| for a symmetric positive-definite matrix, via Cholesky."""
    return logdet_chol(chol_with_jitter(a))


def inv_pd(a):
    """Inverse of a symmetric positive-definite matrix, via Cholesky."""
    return _inv_chol(chol_with_jitter(a))


def inv_logdet_pd(a):
    """``(inv_pd(a), logdet_pd(a))`` from one Cholesky factorization."""
    chol = chol_with_jitter(a)
    return _inv_chol(chol), logdet_chol(chol)
