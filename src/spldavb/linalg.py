"""Small shared linear-algebra helpers (Cholesky-based, with a jitter policy)."""

import numpy as np
import scipy.linalg


class NotPositiveDefiniteError(ValueError):
    pass


def sym(a):
    """Symmetrize a square matrix, or each matrix of a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


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


def logdet_pd(a):
    """log|a| for a symmetric positive-definite matrix, via Cholesky."""
    return 2.0 * np.sum(np.log(np.diag(chol_with_jitter(a))))


def inv_pd(a):
    """Inverse of a symmetric positive-definite matrix, via Cholesky."""
    return sym(scipy.linalg.cho_solve((chol_with_jitter(a), True),
                                      np.eye(a.shape[0])))
