"""Small shared helpers: the package's one immutability rule
(:func:`freeze`), its one rule for scalar settings
(:func:`check_settings`) and for a caller's arrays
(:func:`check_array`), and linear algebra that is Cholesky- or
eigh-based, with one jitter policy.

Each ``*_pd`` helper factors its matrix once; a caller that needs both
the inverse and the log-determinant takes them from one factor with
:func:`inv_logdet_pd`, and one that needs the spectrum from
:func:`eigh_pd`.
"""

import numpy as np
import scipy.linalg.lapack


class NotPositiveDefiniteError(ValueError):
    pass


def _at_least(low):
    return f"be >= {low}", lambda value: value >= low


# These two tests are elementwise, so the array rules below share them.
_FINITE = "be finite", np.isfinite
_POSITIVE = "be finite and > 0", lambda value: (0 < value) & (value < np.inf)
_UNIT = "lie in [0, 1]", lambda value: 0 <= value <= 1
_HALF_OPEN_UNIT = "lie in (0, 1]", lambda value: 0 < value <= 1

# The kind of each scalar setting and its condition, (text, test), by name:
# a name has one rule wherever it appears.  Every test fails NaN.  A name
# not listed, such as RunConfig's anneal, is a bool with no condition.
_SETTINGS = {
    **dict.fromkeys(("m_init", "max_iter", "prune_every", "n_y", "d", "m_true"),
                    (int, _at_least(1))),
    **dict.fromkeys(("sampler_k", "seed"), (int, _at_least(0))),
    **dict.fromkeys(("prune_threshold", "merge_threshold", "elbo_tol"),
                    (float, _at_least(0))),
    "kappa_growth": (float, _at_least(1)),
    **dict.fromkeys(("kappa0", "eta"), (float, _HALF_OPEN_UNIT)),
    "sup_fraction": (float, _UNIT),
    **dict.fromkeys(("tau0", "a_alpha", "b_alpha", "beta", "eigenvoice_scale",
                     "noise_scale"), (float, _POSITIVE)),
}

# What each kind accepts, by numpy type: Python's bool is an int, but its
# type is not an np.integer, and an array, a list or a string is no kind.
_KINDS = {bool: ("a bool", (np.bool_,)), int: ("an integer", (np.integer,)),
          float: ("a real number", (np.integer, np.floating))}


def check_settings(**values):
    """Raise a ValueError naming the setting for the first ``name=value``
    that is not of its kind in ``_SETTINGS`` (a numpy scalar will do, and
    an integer for a real number) or fails its condition there."""
    for name, value in values.items():
        kind, condition = _SETTINGS.get(name, (bool, None))
        noun, types = _KINDS[kind]
        if not any(np.issubdtype(type(value), t) for t in types):
            raise ValueError(f"{name} must be {noun}, got {value!r}")
        if condition is not None and not condition[1](value):
            raise ValueError(f"{name} must {condition[0]}, got {value!r}")


# The kind, the allowed numbers of dimensions and the condition of each
# array a caller hands in, by name, as in _SETTINGS: a real array is read
# as floats, labels (int) as ints that must be whole numbers, so 0.5 is
# never truncated.  A 1-D phi, phi_d or x is one row; x, a matrix to
# write, may hold any double, as the file round-trips every one.
_ARRAYS = {
    **dict.fromkeys(("phi", "phi_d"), (float, (1, 2), _FINITE)),
    "x": (float, (1, 2), None),
    **dict.fromkeys(("phi_a", "phi_b", "mu", "mu0"), (float, (1,), _FINITE)),
    **dict.fromkeys(("v", "w"), (float, (2,), _FINITE)),
    "beta": (float, (0, 1), _POSITIVE),
    **dict.fromkeys(("labels", "pred_labels", "true_labels"), (int, (1,), None)),
    **dict.fromkeys(("labels_d", "oracle_labels"), (int, (1,), (
        "not hold a negative speaker label", lambda value: value >= 0))),
}


def check_array(a, name):
    """``a`` as the floats or ints its rule in ``_ARRAYS`` reads, with no
    copy when it already is.  Raise a ValueError naming ``name`` if ``a``
    does not hold integers or floats (a bool, string, object or complex
    array is never read as numbers), has a number of dimensions its rule
    does not allow, holds a label that is not a whole number, or has an
    entry that fails its condition."""
    kind, dims, condition = _ARRAYS[name]
    a = np.asarray(a)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got an array of "
                         f"dtype {a.dtype}")
    if a.ndim not in dims:
        raise ValueError(f"{name} must be {' or '.join(f'{n}-D' for n in dims)}, "
                         f"got shape {a.shape}")
    with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
        out = a.astype(kind, copy=False)
    if kind is int and not np.array_equal(out, a):
        raise ValueError(f"{name} must be integers, got {a[out != a][0]}")
    if condition is not None:
        ok = condition[1](out)
        if not ok.all():
            raise ValueError(f"{name} must {condition[0]}, got {out[~ok][0]}")
    return out


def freeze(a, dtype=None, *, borrowed=None):
    """``np.asarray(a, dtype)``, read-only: every array a frozen object
    holds or caches passes through here.

    An array the package built is made read-only in place, with no copy,
    together with every array in its ``.base`` chain, the arrays it is a
    view of.  A ``borrowed`` one, which a caller handed to a public
    constructor as the field ``borrowed`` names, is
    ``check_array(a, borrowed)``, whose rule sets its dtype in place of
    ``dtype``.  It is kept only if it and every array in that chain are
    read-only, and copied otherwise, so a caller's array never turns
    read-only and no write the caller can still make shows through it.
    """
    a = check_array(a, borrowed) if borrowed else np.asarray(a, dtype=dtype)
    base = a.base
    if borrowed:
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if a.flags.writeable or isinstance(base, np.ndarray):
            a, base = a.copy(), None
    if a.flags.writeable:
        a.setflags(write=False)
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            base.setflags(write=False)
        base = base.base
    return a


def freeze_fields(obj, names, dtype=None, *, borrowed=False):
    """Rebind each field in ``names`` of the frozen dataclass ``obj`` that
    is not None to its :func:`freeze`, borrowed under its own name if
    ``borrowed``, unless that is the array it holds."""
    for name in names:
        value = getattr(obj, name)
        if value is not None:
            frozen = freeze(value, dtype, borrowed=borrowed and name)
            if frozen is not value:
                object.__setattr__(obj, name, frozen)


def sym(a):
    """Symmetrize a square matrix, or each matrix of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _with_jitter(a, factor, ok):
    """``factor(a)``; if that fails ``ok``, ``factor(a + jitter I)`` with
    jitter = ``1e-10 * tr(a)/dim``, and if that fails too,
    :class:`NotPositiveDefiniteError`.  ``factor`` may also fail by raising
    ``LinAlgError``."""
    jitter = 0.0
    for _ in range(2):  # a, then a + jitter I
        try:
            out = factor(a + jitter * np.eye(a.shape[0]) if jitter else a)
            if ok(out):
                return out
        except np.linalg.LinAlgError:
            pass
        jitter = 1e-10 * np.trace(a) / a.shape[0]
    raise NotPositiveDefiniteError(
        f"matrix of shape {a.shape} is not positive definite (jitter {jitter:g} did not help)")


def chol_with_jitter(a):
    """Lower Cholesky factor of ``a``; see :func:`_with_jitter`."""
    return _with_jitter(a, np.linalg.cholesky, lambda chol: True)


def eigh_pd(a):
    """``np.linalg.eigh(a)`` of a symmetric positive-definite ``a``, under
    ``chol_with_jitter``'s rule: if an eigenvalue is not positive, the
    eigendecomposition of ``a`` plus the jitter; if one still is not,
    :class:`NotPositiveDefiniteError`."""
    return _with_jitter(a, np.linalg.eigh, lambda eig: (eig[0] > 0).all())


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
