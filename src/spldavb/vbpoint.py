"""Variational inference with point estimates of (mu, V, W).

Coordinate-ascent updates for q(Y), q(theta), q(pi), the full variational
lower bound with a per-term breakdown, the closed-form M-steps for [V|mu]
and W, the log-domain Newton solver that both empirical-Bayes steps share
(the Dirichlet parameter tau0 here, the Gamma shape in ``vbbayes``) and
the minimum divergence re-standardization.  Every variational update takes
the deterministic-annealing temperature kappa (exact untempered update at
1).  A point model is the Bayesian one with zero row covariances, so the
Bayesian variant reuses these E-step and bound formulas.
"""

import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import digamma, gammaln, polygamma

from .linalg import check_settings, freeze, freeze_fields, inv_pd, sym

LOG2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class Hyperparams:
    """Hyperparameters shared by both inference variants, checked when
    built.  A field cannot be assigned after, and an array ``mu0`` or
    ``beta`` is read-only: an empirical-Bayes step makes a new object with
    ``dataclasses.replace``, which checks again."""

    tau0: float = 1.0
    eta: float = 1.0
    # Bayesian-variant parameters (unused by the point variant).
    mu0: np.ndarray | None = None
    beta: np.ndarray | float | None = None
    a_alpha: float = 1e-3
    b_alpha: float = 1e-3

    def __post_init__(self):
        scalar_beta = np.isscalar(self.beta)  # "1" too, which is rejected
        check_settings(tau0=self.tau0, eta=self.eta, a_alpha=self.a_alpha,
                       b_alpha=self.b_alpha,
                       **({"beta": self.beta} if scalar_beta else {}))
        freeze_fields(self, ("mu0",) if scalar_beta else ("mu0", "beta"),
                      borrowed=True)


@dataclass(frozen=True)
class GaussianRows:
    """Independent Gaussian rows x_r with untempered precisions L_r that
    share bases: one basis P_g per group g of rows, a scale vector s_r per
    row, and for g = group[r]

        P_g^T L_r P_g = diag(s_r),   L_r^-1 = P_g diag(1/s_r) P_g^T,
        log|L_r| = sum_k log s_rk - 2 log|det P_g|.

    Cov(x_r) = L_r^-1 / kappa: the rows held are those of the temperature
    ``kappa``, and every aggregate, ``entropy()`` included, is of them.  A
    point mass has s = inf: its covariance is zero and the aggregates read
    0 without a floating-point warning.  The aggregates cost
    O(G R k + G k^3); the dense (R, k, k) held precisions ``prec`` are
    built on demand, for the model file.

    mean         : (R, k) row means
    basis        : (G, k, k) shared bases P_g
    group        : (R,) group index of each row
    s            : (R, k) per-row scales
    logdet_basis : (G,) log|det P_g|, given by the code that builds the
                   bases: 0 for an orthonormal basis

    1/s, the (G, R) group one-hot and the side-by-side bases are derived
    on first use and kept; the fields cannot be reassigned and the arrays
    are read-only, so the derived values cannot go stale.
    """

    mean: np.ndarray
    basis: np.ndarray
    group: np.ndarray
    s: np.ndarray
    logdet_basis: np.ndarray
    kappa: float = 1.0

    def __post_init__(self):
        freeze_fields(self, ("mean", "basis", "group", "s", "logdet_basis"))

    @cached_property
    def _s_inv(self):
        return freeze(1.0 / self.s)

    @cached_property
    def _onehot(self):
        return freeze(self.group == np.arange(len(self.basis))[:, None])

    @cached_property
    def _own(self):
        """(R,) flat index of (r, group[r]) in an (R, G) array."""
        return freeze(np.arange(len(self.group)) * len(self.basis) + self.group)

    @cached_property
    def _flat_basis(self):
        """(k, G k) the bases side by side, [P_1 ... P_G]."""
        return freeze(np.swapaxes(self.basis, 0, 1).reshape(self.basis.shape[1], -1))

    @property
    def prec(self):
        """(R, k, k) precisions kappa L_r = P^-T diag(kappa s_r) P^-1 of the
        rows held.  A row with an infinite scale is a point mass: +inf on
        the diagonal, 0 off it."""
        p_inv = np.linalg.inv(self.basis)[self.group]
        finite = np.isfinite(self.s).all(axis=1)
        s = np.where(finite[:, None], self.kappa * self.s, 0.0)  # no 0 * inf
        prec = (np.swapaxes(p_inv, 1, 2) * s[:, None, :]) @ p_inv
        prec[~finite] = np.where(np.eye(self.s.shape[1], dtype=bool), np.inf, 0.0)
        return prec

    def sum_cov(self, w):
        """sum_r w_r Cov(x_r) for weights w (R,)."""
        # sum_g P_g diag(c_g) P_g^T with c_g = sum_{r in g} w_r / s_r
        c = (self._onehot * w).dot(self._s_inv).ravel() / self.kappa
        p = self._flat_basis
        return (p * c).dot(p.T)

    def trace_cov(self, h):
        """(R,) traces tr(H Cov(x_r)) for a (k, k) matrix H."""
        p = self._flat_basis
        # row g: diag(P_g^T H P_g)
        return self._traces((h.dot(p) * p).sum(axis=0).reshape(-1, p.shape[0]))

    def _traces(self, h_diag):
        """(R,) sum_k h_diag[g, k] / s_rk / kappa with g = group[r], from
        the (G, k) diagonals diag(P_g^T H P_g) of ``trace_cov``."""
        # (R, G) tr(H P_g diag(1/s_r) P_g^T) for every g; row r reads its own
        return self._s_inv.dot(h_diag.T).take(self._own) / self.kappa

    def logdet_prec(self):
        """(R,) log|L_r| (untempered)."""
        return np.log(self.s).sum(axis=1) - 2.0 * self.logdet_basis[self.group]

    def entropy(self):
        """The entropy of the held rows, with Cov(x_r) = L_r^-1 / kappa:
        sum_r k/2 (ln 2pi + 1 - ln kappa) - 1/2 log|L_r|, the -lnq term of
        the bound.  A point mass gives -inf."""
        r, k = self.s.shape
        return 0.5 * r * k * (LOG2PI + 1.0 - np.log(self.kappa)) \
            - 0.5 * self.logdet_prec().sum()

    def mapped(self, a, b=0.0):
        """The rows of x' = A x + b: means A m_r + b, precisions
        A^-T L_r A^-1, that is bases A P_g with the same s."""
        return replace(self, mean=self.mean @ a.T + b, basis=a @ self.basis,
                       logdet_basis=self.logdet_basis + np.linalg.slogdet(a)[1])


class SpeakerPosteriors(GaussianRows):
    """Gaussian speaker-factor posteriors q(y_i) for a block of M speakers.

    Every precision in the block is L_i = I + n_i G with one shared G
    (V^T W V, or E[V^T W V] in the Bayesian variant), so a block is
    ``GaussianRows`` with one group: P is the orthonormal eigenbasis of G,
    so log|det P| = 0, and s_i = 1 + n_i lam for its eigenvalues lam.
    Build a block with :meth:`from_pair`.
    """

    @classmethod
    def from_pair(cls, g, n, rhs, kappa=1.0, eig=None):
        """Posteriors with L_i = I + n_i g and means ybar_i = L_i^-1 rhs_i;
        ``eig`` is ``np.linalg.eigh(g)`` when the caller already has it."""
        lam, basis = np.linalg.eigh(g) if eig is None else eig
        s = 1.0 + n[:, None] * lam
        ybar = (rhs.dot(basis) / s).dot(basis.T)
        return cls(ybar, basis[None], np.zeros(len(n), dtype=int), s,
                   np.zeros(1), kappa)

    @property
    def ybar(self):
        return self.mean

    @property
    def m(self):
        return self.mean.shape[0]

    @property
    def n_y(self):
        return self.mean.shape[1]

    def e_ytilde(self):
        """(M, n_y + 1) augmented means [ybar; 1]."""
        return np.hstack([self.ybar, np.ones((self.m, 1))])

    def sum_e_yy(self, w):
        """sum_i w_i E[y_i y_i^T] for weights w (M,)."""
        return self.sum_cov(w) + (self.ybar * w[:, None]).T @ self.ybar

    @cached_property
    def e_yy_total(self):
        """sum_i E[y_i y_i^T], built once per block: the bound's lnP(Y)
        and ``min_divergence`` both read it.  Read-only, as it is shared."""
        return freeze(self.sum_e_yy(np.ones(self.m)))

    def trace_e_yy(self, h):
        """(M,) traces tr(H E[y_i y_i^T]) for an (n_y, n_y) matrix H."""
        return self.trace_cov(h) + ((self.ybar @ h) * self.ybar).sum(axis=1)


@dataclass(frozen=True)
class Responsibilities:
    """Row-stochastic cluster responsibilities.

    ``h`` is the entropy -sum_ji r_ji ln r_ji when the q(theta) softmax
    that built ``r`` handed it back (it had every ln r_ji in hand), else
    None; ``entropy()`` then computes it from ``r``.  ``r`` is made
    read-only in place, so ``h`` and the statistics reduced from ``r``
    cannot go stale.
    """

    r: np.ndarray  # (N, M)
    h: float | None = None

    def __post_init__(self):
        freeze_fields(self, ("r",))

    def entropy(self):
        """-sum_ji r_ji ln r_ji: the carried ``h`` if there is one, else
        the sum of ``_neg_xlogx(r)``."""
        return float(_neg_xlogx(self.r).sum()) if self.h is None else self.h


def _neg_xlogx(x):
    """-x ln x elementwise, with 0 ln 0 = 0: the package's one entropy
    formula.  It takes numpy's log, as the softmax does, and not
    ``scipy.special.entr``, whose log can differ from it in the last bit."""
    return -(x * np.log(x, out=np.zeros_like(x), where=x > 0))


@dataclass(frozen=True)
class DirichletPosterior:
    """q(pi) = Dir(tau) with the digamma expectation cached: ``tau`` cannot
    be reassigned and is read-only, and so is the cached ``e_ln_pi``."""

    tau: np.ndarray

    def __post_init__(self):
        freeze_fields(self, ("tau",), float)
        if (self.tau <= 0).any():
            raise ValueError("Dirichlet parameters must be positive")

    @cached_property
    def e_ln_pi(self):
        return freeze(digamma(self.tau) - digamma(self.tau.sum()))


@dataclass(frozen=True)
class ExpectedParams:
    """The parameter expectations the shared E-step and the merge score
    read: the means ``mu`` (d,), ``v`` (d, n_y) and ``w`` (d, d), E[ln|W|]
    = ``ln_w`` and ``u`` = sum_r wbar_rr Sigma_r, what the row covariances
    Sigma_r of [V | mu] add to E[Vt^T W Vt] = Vtbar^T Wbar Vtbar + u.  A
    point model's rows have zero covariance: its view, ``from_model``, has
    u = None, and the E-step skips the u terms.

    ``wv`` = Wbar Vbar, ``g`` = E[V^T W V] and its eigendecomposition
    ``eig_g`` are derived on first use and kept, read-only, so the two
    q(Y) blocks and q(theta) of one sweep share one W V, one G and one
    ``eigh``.
    """

    mu: np.ndarray
    v: np.ndarray
    w: np.ndarray
    ln_w: float
    u: np.ndarray | None = None

    def __post_init__(self):
        freeze_fields(self, ("mu", "v", "w", "u"))

    @classmethod
    def from_model(cls, model):
        """The view of the point model ``model``: u = None, E[ln|W|] = ln|W|."""
        return cls(model.mu, model.v, model.w, model.logdet_w())

    @cached_property
    def wv(self):
        """(d, n_y) W V."""
        return freeze(self.w @ self.v)

    @cached_property
    def g(self):
        """(n_y, n_y) E[V^T W V] = V^T W V + u_yy."""
        g = sym(self.v.T @ self.wv)
        if self.u is not None:
            g += self.u[:-1, :-1]
        return freeze(g)

    @cached_property
    def eig_g(self):
        """``np.linalg.eigh(g)``, the shared basis of every q(y_i); every
        block built on it holds a view of the basis."""
        lam, basis = np.linalg.eigh(self.g)
        return freeze(lam), freeze(basis)

    def rhs(self, n, f):
        """(M, n_y) b_i = (f_i - n_i mu)^T W V - n_i u_{y mu}, with which
        q(y_i) of counts ``n`` and sums ``f`` has mean L_i^-1 b_i."""
        n = n[:, None]  # outer products by broadcasting, as np.outer
        b = (f - n * self.mu) @ self.wv
        if self.u is not None:
            b -= n * self.u[:-1, -1]
        return b


def _expected(model):
    """``model`` as ``ExpectedParams``; an ``ExpectedParams`` passes
    through."""
    return model if isinstance(model, ExpectedParams) \
        else ExpectedParams.from_model(model)


def update_q_y(stats, model, kappa=1.0):
    """q(y_i) updates from (expected or hard) raw statistics.

    L_i = I + E[N_i] E[V^T W V],
    ybar_i = L_i^-1 (E[V]^T E[W] E[Fbar_i] - E[N_i] u_{y mu}),
    with Fbar_i = F_i - N_i E[mu] the first-order sums centred here and
    ``u`` as in ``ExpectedParams``.  ``model`` is an ``SpldaModel`` (a
    point model, u = 0) or an ``ExpectedParams``, whose W V and G the call
    reuses.
    """
    ex = _expected(model)
    return SpeakerPosteriors.from_pair(
        ex.g, stats.n, ex.rhs(stats.n, stats.f), kappa, ex.eig_g)


def update_q_theta(phi, posteriors, model, dirichlet, kappa=1.0):
    """Responsibility update; computed in log space, kappa-tempered.

    ``model`` is an ``SpldaModel`` (a point model) or an
    ``ExpectedParams``, whose W V and G the call reuses.  The log weight of
    vector j and cluster i, E[ln N(phi_j | Vt ytilde_i, W^-1)] + E[ln pi_i],
    is kept only up to terms that are the same in every cluster, which the
    softmax over i cancels exactly: 1/2 (E[ln|W|] - d ln 2pi), the
    quadratic (phi_j - mu)^T W (phi_j - mu) and u_mumu.  What is left is

        ln rho_ji = (phi_j - mu)^T W V ybar_i + c_i,
        c_i = -1/2 tr(G E[y_i y_i^T]) - ybar_i^T u_{y mu} + E[ln pi_i],

    with G = E[V^T W V].  The centring phi_j - mu stays in the N x d
    product: folding mu into c_i would cancel badly when |mu| is large
    against the spread of phi.  The returned ``Responsibilities`` carry
    their entropy, -lnq(theta) of the bound.
    """
    ex = _expected(model)
    c = -0.5 * posteriors.trace_e_yy(ex.g)
    if ex.u is not None:
        c -= posteriors.ybar @ ex.u[:-1, -1]
    c += dirichlet.e_ln_pi
    log_rho = ((phi - ex.mu) @ ex.wv) @ posteriors.ybar.T  # (N, M)
    log_rho += c
    return _normalize_log_rho(log_rho, kappa)


# exp(x) is subnormal or zero for every x below this and a normal double
# from it up.
_LN_TINY = np.log(np.finfo(float).tiny)


def _normalize_log_rho(log_rho, kappa):
    """Tempered softmax of each row, with no subnormal responsibility,
    and its entropy.

    Overwrites ``log_rho``, in which it works.  Shifted weights below
    ln(tiny) are dropped: their responsibility is an exact 0 instead of a
    subnormal, which the BLAS handles far more slowly.  ``exp`` never sees
    -inf or an argument below ln(tiny), on which it takes a slow path.
    When some weight drops, the first ``exp``, for the row normalisers,
    reads the weights clamped at -700: each term the clamp raises stays
    below exp(-700) ~ 1e-304 while the row sum is at least 1, so every
    normaliser keeps its bits.  The second reads 0 for each dropped weight
    and its result is zeroed there by a product with the kept mask; -inf
    weights are first raised to the most negative double, as -inf times 0
    is NaN.  The masks are built only when some weight drops, and kappa =
    1 skips the tempering products, which are exact there.  Every
    responsibility >= tiny keeps the bits of the untruncated softmax.  The
    last buffer holds ln r, and 0 where r is 0, so the entropy -sum r ln r
    is one dot product, carried as ``Responsibilities.h``.
    """
    row_max = log_rho.max(axis=1, keepdims=True)
    if not np.isfinite(row_max).all():
        raise ValueError("degenerate model: a responsibility row is all -inf "
                         "or holds NaN or +inf")
    z = log_rho
    if kappa != 1.0:
        # fl(kappa x) is monotone in x, so kappa times the row max is the
        # row max of the tempered weights.
        z *= kappa
        row_max = kappa * row_max
    z -= row_max
    low = z.min(initial=0.0)  # every z <= 0 now
    if low < _LN_TINY:
        r = np.maximum(z, -700.0)
        np.exp(r, out=r)
    else:
        r = np.exp(z)
    ln_norm = np.log(r.sum(axis=1, keepdims=True))
    z -= ln_norm
    # fl(x - c) is monotone in x and in c, so no z falls below ln(tiny)
    # now unless low less the largest ln normaliser does; that holds too
    # when the first pass dropped an entry.
    if low - ln_norm.max(initial=0.0) < _LN_TINY:
        if low == -np.inf:
            np.maximum(z, np.finfo(float).min, out=z)
        keep = z >= _LN_TINY
        z *= keep  # 0 ln 0 = 0 where r is an exact 0
        np.exp(z, out=r)
        r *= keep
    else:
        np.exp(z, out=r)
    return Responsibilities(r=r, h=-float(np.vdot(r, z)))


def update_q_pi(expected_counts, tau0, kappa=1.0):
    """Dirichlet update tau_i = E[N_i] + tau0, annealed.

    Tempering scales the natural parameters tau - 1 by kappa:
    tau_i = x - (1 - kappa)(x - 1) with x = E[N_i] + tau0, which is x
    exactly at kappa = 1 and positive for any tau0 > 0, 0 < kappa <= 1.
    """
    counts = np.asarray(expected_counts, dtype=float)
    if (counts < 0).any():
        raise ValueError("expected counts must be nonnegative")
    tau = counts + tau0
    return DirichletPosterior(tau=tau - (1.0 - kappa) * (tau - 1.0))


def accumulators(stats, posteriors):
    """Augmented accumulators (C, R) for the M-steps.

    C = sum_i E[F_i] E[ytilde_i]^T   (d, n_y+1)
    R = sum_i E[N_i] E[ytilde ytilde^T]   (n_y+1, n_y+1)
    """
    n_y = posteriors.n_y
    ytilde = posteriors.e_ytilde()
    c = stats.f.T @ ytilde
    r = np.empty((n_y + 1, n_y + 1))
    r[:n_y, :n_y] = posteriors.sum_e_yy(stats.n)
    r[:n_y, n_y] = r[n_y, :n_y] = stats.n @ posteriors.ybar
    r[n_y, n_y] = stats.n.sum()
    return c, sym(r)


def _scatter(s_global, c, r, vtilde, rho=0.0):
    """Residual scatter S - 2 C E[Vt]^T + E[Vt R Vt^T] from the accumulators
    (C, R); the row covariances add rho_r = tr(R Sigma_r) to the diagonal."""
    k = s_global - 2.0 * c @ vtilde.T + vtilde @ r @ vtilde.T
    k.flat[::k.shape[0] + 1] += rho
    return k


def _block_terms(block, vtilde, w, ln_w, rho=0.0):
    """E[lnP(Phi|Y,theta)], lnP(Y) and -lnq(Y) of a block ``(stats,
    posteriors, acc)`` with accumulators ``acc`` = (C, R), under parameter
    means ``vtilde``, ``w`` and E[ln|W|] = ``ln_w``; Bayesian row
    covariances add ``rho`` = tr(R Sigma_r) to the scatter's diagonal."""
    stats, posts, (c, r) = block
    m_ny = posts.m * posts.n_y
    terms = (0.5 * stats.n_total * (ln_w - w.shape[0] * LOG2PI)
             - 0.5 * (w * _scatter(stats.s, c, r, vtilde, rho)).sum(),
             -0.5 * m_ny * LOG2PI - 0.5 * posts.e_yy_total.trace(),
             posts.entropy())
    # x + 0.0 is x for every x but -0.0: an empty block's terms read +0.0.
    return tuple(t + 0.0 for t in terms)


def _ln_dirichlet_c(tau):
    tau = np.atleast_1d(tau)
    return float(gammaln(tau.sum()) - gammaln(tau).sum())


@lru_cache(maxsize=64)
def _ln_dirichlet_prior(m, tau0):
    """ln C(tau0 1_m), the normaliser of the symmetric Dirichlet prior:
    ``_ln_dirichlet_c`` of ``np.full(m, tau0)``, kept per exact (m, tau0)
    because it is fixed while M and tau0 are."""
    return _ln_dirichlet_c(np.full(m, tau0))


def _cluster_terms(n, entropy, dirichlet, tau0):
    """lnP(theta|pi), lnP(pi), -lnq(theta) and -lnq(pi) of responsibilities
    with counts ``n`` and entropy ``entropy``, q(pi) = ``dirichlet``."""
    e_ln_pi, tau = dirichlet.e_ln_pi, dirichlet.tau
    return (float(n @ e_ln_pi),
            _ln_dirichlet_prior(tau.shape[0], float(tau0)) + (tau0 - 1.0) * e_ln_pi.sum(),
            entropy,
            -(_ln_dirichlet_c(tau) + float((tau - 1.0) @ e_ln_pi)))


def _bound(block, clusters, eta=1.0, block_d=None, extra=None):
    """``(total, terms)`` from the unlabelled block's ``_block_terms``, the
    ``_cluster_terms``, eta times the labelled block's ``block_d`` if there
    is one, and ``extra``; the dict's order is the order of summation."""
    (data, y, q_y), (theta, pi, q_theta, q_pi) = block, clusters
    terms = {"lnP(Phi|Y,theta)": data, "lnP(Y)": y,
             "lnP(theta|pi)": theta, "lnP(pi)": pi}
    if block_d is not None:
        terms["eta*lnP(Phi_d|Y_d)"] = eta * block_d[0]
        terms["eta*lnP(Y_d)"] = eta * block_d[1]
    terms.update({"-lnq(Y)": q_y, "-lnq(theta)": q_theta, "-lnq(pi)": q_pi})
    if block_d is not None:
        terms["-eta*lnq(Y_d)"] = eta * block_d[2]
    terms.update(extra or {})
    return float(sum(terms.values())), terms


def elbo_point(block, resp, dirichlet, model, hyper, block_d=None):
    """Variational lower bound for the point-estimate model.

    Returns ``(total, breakdown)`` where ``breakdown`` maps term names to
    values.  It is the bound of the state held: at kappa < 1 each factor
    holds its tempered parameters and each -lnq term is that factor's own
    entropy, so the total is still a lower bound on ln p(Phi).  ``block``
    and ``block_d`` are the unlabelled and labelled ``(stats, posteriors,
    acc)``.  The labelled block's terms carry the weight eta, so this is
    the objective the M-steps maximise and it does not fall at kappa = 1
    for any eta.  A labelled block passed in yields its three terms, even
    when empty; an absent one (None) yields none.
    """
    vtilde, w, ln_w = model.vtilde, model.w, model.logdet_w()
    return _bound(
        _block_terms(block, vtilde, w, ln_w),
        _cluster_terms(block[0].n, resp.entropy(), dirichlet, hyper.tau0),
        hyper.eta,
        None if block_d is None else _block_terms(block_d, vtilde, w, ln_w))


def mstep_V(c_p, r_p):
    """Closed-form update of the augmented [V | mu].

    Solves Vtilde R' = C' by a linear system, from the pooled accumulators
    C' = C + eta C_d and R' = R + eta R_d.
    """
    r_p = sym(r_p)
    # The 2-norm condition number of a symmetric matrix, max|lam| / min|lam|,
    # from its eigenvalues (an SVD would give the same number).
    lam = np.abs(np.linalg.eigvalsh(r_p))
    cond = lam.max() / lam.min() if lam.min() > 0 else np.inf
    if not np.isfinite(cond) or cond > 1e14:
        raise np.linalg.LinAlgError(
            f"weighted accumulator R' is singular (condition number {cond:.3e})"
        )
    return np.linalg.solve(r_p, c_p.T).T


def mstep_W(s_p, c_p, r_p, vtilde, n_p):
    """Closed-form update of the within-class precision W.

    W^-1 = (K + K^T) / 2 / N' with K = S' - 2 C' Vtilde^T + Vtilde R' Vtilde^T,
    from the pooled statistics S' = S + eta S_d, C' = C + eta C_d,
    R' = R + eta R_d and N' = E[N] + eta N_d.
    """
    d = s_p.shape[0]
    if n_p <= d:
        raise ValueError(
            f"E[N] + eta*N_d = {n_p:.3g} <= d = {d}: W would be degenerate"
        )
    return inv_pd(sym(_scatter(s_p, c_p, r_p, vtilde)) / n_p)


def _log_newton(fun, x, what, lo=0.0, hi=np.inf, tol=1e-10):
    """Safeguarded Newton root finder for a positive scalar x, stepping in
    u = ln x.

    ``fun(x)`` returns ``(f, df/du, floor)``, where ``floor`` is the
    rounding error of f.  Each step is clipped to +-10 in u and x to
    [lo, hi].  The loop stops when a step moves ln x by less than ``tol``
    or when |f| <= floor: f can be resolved only to its rounding error,
    which limits the attainable step for very large roots.  A
    RuntimeWarning naming ``what`` is raised when x reaches a bound, which
    is returned, or after 100 iterations, when the x with the smallest |f|
    is returned.
    """
    best = (np.inf, x)
    for _ in range(100):
        f, slope, floor = fun(x)
        if abs(f) < best[0]:
            best = (abs(f), x)
        step = float(np.clip(-f / slope, -10.0, 10.0))
        x = float(np.clip(x * np.exp(step), lo, hi))
        if x in (lo, hi):
            warnings.warn(f"{what} Newton hit the clamp boundary",
                          RuntimeWarning)
            return x
        if abs(step) < tol or abs(f) <= floor:
            return x
    warnings.warn(f"{what} Newton did not converge in 100 iterations "
                  f"(best residual {best[0]:.3e})", RuntimeWarning)
    return best[1]


def mstep_tau0(e_ln_pi, tau0_init=1.0, tol=1e-10):
    """Newton update of tau0 in the log domain.

    Solves f(tau0) = psi(M tau0) - psi(tau0) + g = 0 with
    g = mean(E[ln pi_i]) by ``_log_newton``, with the exact derivative
    df/du = M tau0 psi'(M tau0) - tau0 psi'(tau0), which converges
    quadratically; ``tol`` is its step tolerance in ln tau0.  f falls from
    +inf to ln M + g, so a finite root exists only when ln M + g < 0;
    otherwise the maximum-likelihood tau0 is unbounded, and a
    RuntimeWarning is raised and ``tau0_init`` returned unchanged.
    """
    e_ln_pi = np.asarray(e_ln_pi, dtype=float)
    m = e_ln_pi.shape[0]
    if m < 2:
        raise ValueError("tau0 update needs M >= 2")
    g = float(e_ln_pi.mean())
    tau0 = float(tau0_init)
    if np.log(m) + g >= 0:
        warnings.warn(
            f"tau0 has no finite optimum: ln M + mean(E[ln pi]) = "
            f"{np.log(m) + g:.3e} >= 0; keeping tau0 = {tau0:g}",
            RuntimeWarning,
        )
        return tau0

    def fun(t):
        psi_m, psi_1 = digamma(m * t), digamma(t)
        return (psi_m - psi_1 + g,
                m * t * polygamma(1, m * t) - t * polygamma(1, t),
                4 * np.finfo(float).eps * (abs(psi_m) + abs(psi_1) + abs(g)))

    return _log_newton(fun, tau0, "tau0", tol=tol)


def min_divergence(blocks, mu, v):
    """Minimum-divergence re-standardization of the latent prior.

    Absorbs the aggregate posterior mean/covariance of the speaker factors
    into (mu, V) so that the prior stays N(0, I).  The i-vector marginal is
    left invariant, W included, which is unchanged.  ``blocks`` are
    ``(posteriors, weight)`` pairs; each speaker counts ``weight`` times in
    the aggregate.  Returns ``(mu', v', (mu_y, t))``, the new arrays
    read-only, where ``t`` is the lower Cholesky factor of Sigma_y (used to
    transform the speaker posteriors in step).
    """
    denom = sum(w * p.m for p, w in blocks)
    mu_y = sum(w * p.ybar.sum(axis=0) for p, w in blocks) / denom
    rho = sum(w * p.e_yy_total for p, w in blocks)
    sigma_y = sym(rho / denom - np.outer(mu_y, mu_y))
    t = np.linalg.cholesky(sigma_y)  # raises if Sigma_y is not PD
    return freeze(mu + v @ mu_y), freeze(v @ t), (mu_y, t)


def standardize_posteriors(posteriors, mu_y, t):
    """Re-express speaker posteriors in the transformed latent coordinates.

    y' = T^-1 (y - mu_y); precision transforms as L' = T^T L T, which keeps
    the data-dependent part of the bound invariant.
    """
    t_inv = np.linalg.inv(t)
    return posteriors.mapped(t_inv, -t_inv @ mu_y)
