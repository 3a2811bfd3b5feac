"""Fully Bayesian variant: posteriors over the model parameters themselves.

Priors: hierarchical Gaussian-Gamma over the eigenvoice columns (an
automatic-relevance prior that can switch columns off), Gaussian over the
mean, and a non-informative (improper) prior over the within-class
precision.  The augmented matrix [V | mu] gets row-wise Gaussian
posteriors, the column scales Gamma posteriors, and W a Wishart posterior.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import digamma, gammaln, polygamma

from .linalg import eigh_pd, freeze, freeze_fields, sym
from .vbpoint import (
    LOG2PI,
    ExpectedParams,
    GaussianRows,
    _block_terms,
    _bound,
    _cluster_terms,
    _log_newton,
    _scatter,
    update_q_theta,
    update_q_y,
)


class RowPosteriors(GaussianRows):
    """Row-wise Gaussian posteriors over the augmented [V | mu]:
    ``GaussianRows`` with k = n_y + 1 and row precisions
    L_r = wbar_rr R' + D_g, with one shared R' and one diagonal
    D_g = diag(E[alpha], beta_g) per group g of rows with equal beta.  The
    row update sets P_g = D_g^-1/2 U for the eigenvectors U of
    D_g^-1/2 R' D_g^-1/2, so log|det P_g| = -1/2 sum ln D_g, and
    s_r = 1 + wbar_rr lam for its eigenvalues lam.  A point mass has P = I,
    log|det P| = 0 and s = inf.

    ``e_vq_vq()`` and ``sigma_mu()`` are computed once per posterior and
    returned read-only: the q(alpha) update and the bound share one
    E[v_q^T v_q], the bound and the mean-prior update one Sigma_mu.
    """

    @classmethod
    def point_mass(cls, vtilde):
        vtilde = np.asarray(vtilde, dtype=float)
        d, k = vtilde.shape
        return cls(mean=vtilde.copy(), basis=np.eye(k)[None],
                   group=np.zeros(d, dtype=int), s=np.full((d, k), np.inf),
                   logdet_basis=np.zeros(1))

    @property
    def d(self):
        return self.mean.shape[0]

    @property
    def n_y(self):
        return self.mean.shape[1] - 1

    @property
    def vbar(self):
        return self.mean[:, : self.n_y]

    @property
    def mubar(self):
        return self.mean[:, self.n_y]

    def e_vq_vq(self):
        """(n_y,) expectations E[v_q^T v_q] per eigenvoice column."""
        return self._e_vq_vq

    @cached_property
    def _e_vq_vq(self):
        return freeze(self.sum_cov(np.ones(self.d)).diagonal()[: self.n_y]
                      + np.einsum("rq,rq->q", self.vbar, self.vbar))

    def expected(self, wpost):
        """The parameter expectations the shared E-step reads under
        q(Vtilde) q(W), as ``ExpectedParams``: the row means, E[W],
        E[ln|W|] and u = sum_r wbar_rr Sigma_r."""
        wbar = wpost.e_w
        return ExpectedParams(self.mubar, self.vbar, wbar, wpost.e_ln_w,
                              self.sum_cov(wbar.diagonal()))

    def e_mu_quad(self, mu0):
        """(d,) E[(mu_r - mu0_r)^2] under the row posteriors."""
        return self.sigma_mu() + self.mubar ** 2 - 2.0 * mu0 * self.mubar + mu0 ** 2

    def sigma_mu(self):
        """(d,) posterior variances of the mean components,
        tr(e e^T Sigma_r) for the unit vector e of the mu coordinate."""
        return self._sigma_mu

    @cached_property
    def _sigma_mu(self):
        # ``trace_cov(e e^T)``: diag(P_g^T e e^T P_g) is row mu of P_g squared.
        return freeze(self._traces(self.basis[:, self.n_y, :] ** 2))


@dataclass(frozen=True)
class AlphaPosterior:
    """Gamma posteriors over the column-scale hyperparameters alpha_q.

    The fields cannot be reassigned and ``b_prime`` is read-only, so
    E[alpha] and E[ln alpha] are computed once and kept, read-only.
    """

    a_prime: float
    b_prime: np.ndarray

    def __post_init__(self):
        freeze_fields(self, ("b_prime",), float)
        if self.a_prime <= 0 or (self.b_prime <= 0).any():
            raise ValueError("Gamma parameters must be positive")

    @cached_property
    def e_alpha(self):
        return freeze(self.a_prime / self.b_prime)

    @cached_property
    def e_ln_alpha(self):
        return freeze(digamma(self.a_prime) - np.log(self.b_prime))


@dataclass(frozen=True)
class WishartPosterior:
    """q(W) = Wishart(scale, dof), kept as the eigendecomposition of E[W]:
    E[W] = sym(Q diag(omega) Q^T), with E[ln|W|] and the entropy of the
    q(W) held, the -lnq(W) of the lower bound.  The row update of [V | mu]
    reads (omega, Q) as its basis of E[W].  ``k`` and ``dof`` are the
    inverse scale and dof of the q(W) held, which the model file writes.

    Constructed either from an inverse-scale accumulator K by one ``eigh``
    of K (``from_update``) or as a point mass pinned at a given W by one
    ``eigh`` of W (``point_mass``, for degenerate-reduction checks), which
    keeps E[W] = sym(W) and has no dof, scale or entropy.  The fields
    cannot be reassigned and the arrays are read-only, so E[W] and its
    eigenpair cannot drift apart.
    """

    e_w: np.ndarray
    e_ln_w: float
    omega: np.ndarray
    q: np.ndarray
    k: np.ndarray | None = None
    dof: float | None = None
    entropy: float | None = None

    def __post_init__(self):
        freeze_fields(self, ("e_w", "omega", "q", "k"))

    @classmethod
    def from_update(cls, k, dof, kappa=1.0):
        """q(W) from K and N', annealed: scale K^-1 / kappa and dof
        dof_eff = N' - (1 - kappa)(N' - d - 1), both exact at kappa = 1.
        K is symmetrized here.  With K = Q diag(e) Q^T, E[W] has
        eigenvalues omega = dof_eff / (kappa e) on Q, and log|K| = sum ln e.
        The entropy is -(ln B + 1/2 (dof_eff - d - 1) E[ln|W|]
        - 1/2 dof_eff d), with ln B of that scale and dof.  ``k`` keeps
        the held inverse scale kappa K and ``dof`` keeps dof_eff."""
        k = sym(np.asarray(k, dtype=float))
        d = k.shape[0]
        dof = float(dof)
        # N' > d is the kappa = 1 condition and gives dof_eff > d at every
        # kappa in (0, 1], so a run that would fail at kappa = 1 fails at once.
        if dof <= d:
            raise ValueError(
                f"Wishart dof N' = {dof:.3g} <= d = {d} (kappa = {kappa:.3g}); "
                "more (weighted) data is needed for a valid q(W)")
        dof_eff = dof - (1.0 - kappa) * (dof - d - 1.0)
        e, q = eigh_pd(k)
        logdet_k_inv = -np.log(e).sum()
        e_ln_w = float(_wishart_digamma_sum(dof_eff, d) + d * np.log(2.0)
                       + logdet_k_inv - d * np.log(kappa))
        entropy = -(_ln_wishart_b(logdet_k_inv - d * np.log(kappa), dof_eff, d)
                    + 0.5 * (dof_eff - d - 1.0) * e_ln_w - 0.5 * dof_eff * d)
        omega = dof_eff / (kappa * e)
        return cls(sym((q * omega) @ q.T), e_ln_w, omega, q, k=kappa * k,
                   dof=dof_eff, entropy=entropy)

    @classmethod
    def point_mass(cls, w):
        w = sym(np.asarray(w, dtype=float))
        omega, q = eigh_pd(w)
        return cls(w, float(np.log(omega).sum()), omega, q)

    @property
    def d(self):
        return self.e_w.shape[0]


@lru_cache(maxsize=64)
def _wishart_digamma_sum(dof, d):
    """sum_{i=1..d} psi((dof + 1 - i) / 2), the dof part of E[ln|W|]; kept
    per exact (dof, d), which holds while N' and kappa do."""
    return digamma(0.5 * (dof + 1.0 - np.arange(1, d + 1))).sum()


def update_q_y_bayes(stats, expected, kappa=1.0):
    """``update_q_y`` under ``expected`` = ``rowpost.expected(wpost)``.  The
    adaptation sweep calls ``vbpoint`` directly, as in the point variant."""
    return update_q_y(stats, expected, kappa)


def update_q_theta_bayes(phi, posteriors, expected, dirichlet, kappa=1.0):
    """``update_q_theta`` under ``expected`` = ``rowpost.expected(wpost)``;
    E[ln|W|] is constant along each row, so only the bound reads it."""
    return update_q_theta(phi, posteriors, expected, dirichlet, kappa)


def update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper, kappa=1.0):
    """The row posteriors of [V | mu] that maximise the bound jointly.

    c_p, r_p : pooled accumulators C' = C + eta C_d, R' = R + eta R_d
    The row precisions wbar_rr R' + D_g do not depend on the means; they
    are factored with one eigh of D_g^-1/2 R' D_g^-1/2 per distinct beta
    (see ``RowPosteriors``).  The means M solve, for all rows at once,
    Wbar M R' + [D_r m_r]_r = B = Wbar C' + [0 | beta mu0], so no result
    depends on the order of the rows.  With Wbar = Q diag(omega) Q^T, the
    eigenpair that ``wpost`` keeps, and
    group 0's P and lam, solve0(X) = Q [(Q^T X P) / (1 + omega lam^T)] P^T
    solves it for rows that all have group 0's prior.  The other rows
    have beta = beta_0 + delta, delta > 0, and differ only in the mu
    column: on them z = delta mu solves (diag(1/delta) + K) z = solve0(B)
    e_mu, with K = Q diag(c) Q^T, c_i = sum_j p_j^2 / (1 + omega_i lam_j)
    and p = P^T e_mu, and M = solve0(B - z e_mu^T).  When every row has
    the same beta there is one group and no such system.
    """
    d, k = c_p.shape
    n_y = k - 1
    wbar = wpost.e_w
    mu0, beta = _mean_prior(hyper, d)
    betas, group = np.unique(beta, return_inverse=True)
    prior_diag = np.empty((betas.size, k))  # D_g
    prior_diag[:, :n_y] = alphapost.e_alpha
    prior_diag[:, n_y] = betas
    d_inv_sqrt = prior_diag ** -0.5
    lam, u = np.linalg.eigh(
        d_inv_sqrt[:, :, None] * sym(r_p) * d_inv_sqrt[:, None, :])
    basis = d_inv_sqrt[:, :, None] * u
    s = 1.0 + wbar.diagonal()[:, None] * lam[group]
    if not (s > 0).all():
        row = np.flatnonzero(~(s > 0).all(axis=1))[0]
        raise np.linalg.LinAlgError(f"row {row} posterior precision is singular")
    rhs = wbar @ c_p  # B
    rhs[:, n_y] += beta * mu0
    omega, q = wpost.omega, wpost.q
    p, p_mu = basis[0], basis[0][n_y]
    scale = 1.0 / (1.0 + omega[:, None] * lam[0])
    coords = (q.T @ rhs @ p) * scale  # solve0(B) = q coords p^T
    if betas.size > 1:
        p_scale = scale * p_mu  # solve0(x e_mu^T) = q ((q^T x) p_scale^T) p^T
        rows = group > 0  # beta = beta_0 + delta, delta > 0
        q_s = q[rows]
        z = np.linalg.solve(  # z = delta mu on those rows
            np.diag(1.0 / (beta[rows] - betas[0])) + (q_s * (p_scale @ p_mu)) @ q_s.T,
            q_s @ (coords @ p_mu))
        coords -= (q_s.T @ z)[:, None] * p_scale
    return RowPosteriors(mean=q @ coords @ p.T, basis=basis, group=group, s=s,
                         logdet_basis=-0.5 * np.log(prior_diag).sum(axis=1),
                         kappa=kappa)


def _mean_prior(hyper, d):
    """``(mu0, beta)`` of the prior N(mu0, diag(beta)^-1) over mu as (d,)
    arrays; neither has a default here.  beta is contiguous either way, so
    a scalar and a constant vector give the same bits."""
    for name, what in (("beta", "precision"), ("mu0", "mean")):
        if getattr(hyper, name) is None:
            raise ValueError(f"Hyperparams.{name} is unset; the mean prior needs "
                             f"a {what} (run_adaptation sets it from the data)")
    return hyper.mu0, np.full(d, hyper.beta, dtype=float)


def update_q_alpha(rowpost, hyper, kappa=1.0):
    """Gamma posterior per eigenvoice column.

    a' = a + d/2, b'_q = b + E[v_q^T v_q]/2, annealed by scaling the natural
    parameters (a' - 1, b') by kappa: a' - (1 - kappa)(a' - 1) and
    kappa b'_q, both exact at kappa = 1.
    """
    a_prime = hyper.a_alpha + 0.5 * rowpost.d
    return AlphaPosterior(
        a_prime=a_prime - (1.0 - kappa) * (a_prime - 1.0),
        b_prime=kappa * (hyper.b_alpha + 0.5 * rowpost.e_vq_vq()))


def update_q_wishart(s_p, c_p, r_p, rowpost, n_p, kappa=1.0):
    """Wishart posterior over W from the pooled statistics S' = S + eta S_d,
    C' = C + eta C_d, R' = R + eta R_d and N' = E[N] + eta N_d."""
    k = _scatter(s_p, c_p, r_p, rowpost.mean, rowpost.trace_cov(r_p))
    return WishartPosterior.from_update(k, n_p, kappa=kappa)


def _ln_wishart_b(logdet_scale, dof, d):
    """ln B(scale, dof), the Wishart normalizer of a d x d scale, from
    log|scale|."""
    return float(
        -0.5 * dof * logdet_scale
        - 0.5 * dof * d * np.log(2.0)
        - _ln_multigamma(0.5 * dof, d)
    )


@lru_cache(maxsize=64)
def _ln_multigamma(a, d):
    """ln Gamma_d(a); the value of ``scipy.special.multigammaln`` without
    its Python loop over the d factors.  Kept per exact (a, d): q(W)'s
    entropy reads it at a = dof_eff/2, which holds while N' and kappa do."""
    if a <= 0.5 * (d - 1):
        raise ValueError(f"condition a ({a}) > 0.5 * (d-1) ({0.5 * (d - 1)}) not met")
    return (d * (d - 1) * 0.25) * np.log(np.pi) \
        + np.sum(gammaln(a - (np.arange(1, d + 1) - 1.0) / 2))


def elbo_bayes(block, resp, dirichlet, rowpost, alphapost, wpost, hyper,
               block_d=None):
    """Variational lower bound of the Bayesian variant, with breakdown.

    The blocks are those of ``elbo_point``, whose terms this adds to; the
    improper-prior constant of P(W) is dropped (additive constant).  Like
    ``elbo_point`` it is the bound of the state held: each -lnq term is
    the entropy its factor computes at the temperature it holds, so an
    entry at kappa < 1 is a lower bound on ln p(Phi) too, up to that
    constant.
    """
    n_y = rowpost.n_y
    d = rowpost.d
    e_vv = rowpost.e_vq_vq()
    mu0, beta = _mean_prior(hyper, d)
    mu_quad = rowpost.e_mu_quad(mu0)

    if wpost.entropy is None:
        raise ValueError("elbo_bayes needs q(W) from update_q_wishart (from_update); "
                         "this q(W) is a point mass, with no dof or scale")
    vtbar, wbar, ln_w = rowpost.mean, wpost.e_w, wpost.e_ln_w
    sum_ln_alpha = alphapost.e_ln_alpha.sum()

    extra = {
        "lnP(V|alpha)": -0.5 * n_y * d * LOG2PI
        + 0.5 * d * sum_ln_alpha
        - 0.5 * float(alphapost.e_alpha @ e_vv),
        "lnP(alpha)": n_y * (hyper.a_alpha * np.log(hyper.b_alpha)
                             - gammaln(hyper.a_alpha))
        + (hyper.a_alpha - 1.0) * sum_ln_alpha
        - hyper.b_alpha * alphapost.e_alpha.sum(),
        "lnP(mu)": -0.5 * d * LOG2PI + 0.5 * np.log(beta).sum()
        - 0.5 * float(beta @ mu_quad),
        "lnP(W)": -0.5 * (d + 1.0) * ln_w,
        "-lnq(Vtilde)": rowpost.entropy(),
        "-lnq(alpha)": -(
            n_y * ((alphapost.a_prime - 1.0) * digamma(alphapost.a_prime)
                   - alphapost.a_prime - gammaln(alphapost.a_prime))
            + np.log(alphapost.b_prime).sum()
        ),
        "-lnq(W)": wpost.entropy,
    }

    def block_terms(blk):
        return _block_terms(blk, vtbar, wbar, ln_w, rowpost.trace_cov(blk[2][1]))

    return _bound(
        block_terms(block),
        _cluster_terms(block[0].n, resp.entropy(), dirichlet, hyper.tau0),
        hyper.eta, None if block_d is None else block_terms(block_d), extra)


# Clamp interval of the shape a that optimize_hyper_alpha returns.
_A_MIN, _A_MAX = 1e-6, 1e6
# Upper bound on the precision beta that optimize_hyper_mu returns.
_BETA_MAX = 1e8


def optimize_hyper_alpha(alphapost, a_init=1.0):
    """Empirical-Bayes update of the Gamma hyperparameters (a, b).

    Moment matching: solves
    f(a) = psi(a) - ln a + ln(mean E[alpha]) - mean E[ln alpha] = 0 by
    ``vbpoint._log_newton`` on [_A_MIN, _A_MAX], with
    df/du = a psi'(a) - 1 for u = ln a, then sets b = a / mean E[alpha].
    """
    c = float(alphapost.e_ln_alpha.mean())
    d_mom = float(alphapost.e_alpha.mean())
    gap = np.log(d_mom) - c
    if gap <= 0:
        # Degenerate moment pair (zero-variance limit): a -> infinity.
        warnings.warn(
            "E[ln alpha] >= ln E[alpha]: clamping shape at a_max", RuntimeWarning)
        return _A_MAX, _A_MAX / d_mom

    def fun(a):
        psi, ln_a = digamma(a), np.log(a)
        return (psi - ln_a + gap, a * polygamma(1, a) - 1.0,
                4 * np.finfo(float).eps * (abs(psi) + abs(ln_a) + abs(gap)))

    a = _log_newton(fun, float(np.clip(a_init, _A_MIN, _A_MAX)), "hyper-alpha",
                    lo=_A_MIN, hi=_A_MAX)
    return a, a / d_mom


def optimize_hyper_mu(rowpost, isotropic=False):
    """Empirical-Bayes update of (mu0, beta) for the mean prior.

    mu0 is set to the posterior mean; with that substitution
    beta_r^-1 = Sigma_mu_r.  Isotropic mode averages the inverse over rows.
    The arrays are returned read-only, so ``Hyperparams`` keeps them.
    """
    mu0 = freeze(rowpost.mubar.copy())
    beta_inv = rowpost.e_mu_quad(mu0)
    if isotropic:
        beta = min(1.0 / max(float(beta_inv.mean()), 1.0 / _BETA_MAX), _BETA_MAX)
        return mu0, float(beta)
    return mu0, freeze(1.0 / np.maximum(beta_inv, 1.0 / _BETA_MAX))
