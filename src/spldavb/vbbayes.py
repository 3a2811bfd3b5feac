"""Fully Bayesian variant: posteriors over the model parameters themselves.

Priors: hierarchical Gaussian-Gamma over the eigenvoice columns (an
automatic-relevance prior that can switch columns off), Gaussian over the
mean, and a non-informative (improper) prior over the within-class
precision.  The augmented matrix [V | mu] gets row-wise Gaussian
posteriors, the column scales Gamma posteriors, and W a Wishart posterior.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, polygamma

from .linalg import inv_pd, logdet_pd, sym
from .model import SpldaModel
from .vbpoint import (
    LOG2PI,
    _bound_terms,
    _data_term,
    _scatter,
    update_q_theta,
    update_q_y,
)

__all__ = [
    "RowPosteriors",
    "AlphaPosterior",
    "WishartPosterior",
    "update_q_y_bayes",
    "update_q_theta_bayes",
    "update_q_vtilde_rows",
    "update_q_alpha",
    "update_q_wishart",
    "elbo_bayes",
    "optimize_hyper_alpha",
    "optimize_hyper_mu",
]


@dataclass
class RowPosteriors:
    """Row-wise Gaussian posteriors over the augmented [V | mu].

    mean   : (d, n_y+1) posterior row means (assembled E[Vtilde])
    cov    : (d, n_y+1, n_y+1) posterior row covariances
    prec   : (d, n_y+1, n_y+1) untempered precisions (None for a point mass)
    logdet : (d,) log-determinants of ``prec`` (None for a point mass)
    """

    mean: np.ndarray
    cov: np.ndarray
    prec: np.ndarray | None = None
    logdet: np.ndarray | None = None

    @classmethod
    def point_mass(cls, vtilde):
        vtilde = np.asarray(vtilde, dtype=float)
        d, k = vtilde.shape
        return cls(mean=vtilde.copy(), cov=np.zeros((d, k, k)))

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
        n_y = self.n_y
        diag_cov = np.einsum("rqq->rq", self.cov[:, :n_y, :n_y])
        return diag_cov.sum(axis=0) + (self.vbar ** 2).sum(axis=0)

    def u(self, wbar):
        """sum_r wbar_rr Sigma_r, what the row covariances add to
        E[Vt^T W Vt] = Vtbar^T Wbar Vtbar + u."""
        return np.einsum("r,rab->ab", np.diag(wbar), self.cov)

    def rho(self, r):
        """(d,) tr(R Sigma_r), what the row covariances add to the diagonal
        of E[Vt R Vt^T] = Vtbar R Vtbar^T + diag(rho)."""
        return np.einsum("ab,rab->r", r, self.cov)

    def expected(self, wpost):
        """The parameter expectations the shared E-step reads under
        q(Vtilde) q(W): ``(means, E[ln|W|], u)``, the means as an
        ``SpldaModel``."""
        wbar = wpost.e_w
        return (SpldaModel(mu=self.mubar, v=self.vbar, w=wbar), wpost.e_ln_w,
                self.u(wbar))

    def sigma_mu(self):
        """(d,) posterior variances of the mean components."""
        return self.cov[:, self.n_y, self.n_y]

    def logdet_prec(self):
        return self.logdet


@dataclass
class AlphaPosterior:
    """Gamma posteriors over the column-scale hyperparameters alpha_q."""

    a_prime: float
    b_prime: np.ndarray

    def __post_init__(self):
        self.b_prime = np.asarray(self.b_prime, dtype=float)
        if self.a_prime <= 0 or (self.b_prime <= 0).any():
            raise ValueError("Gamma parameters must be positive")

    @property
    def e_alpha(self):
        return self.a_prime / self.b_prime

    @property
    def e_ln_alpha(self):
        return digamma(self.a_prime) - np.log(self.b_prime)


class WishartPosterior:
    """q(W) = Wishart(scale, dof) with E[W] and E[ln|W|] cached, and the
    ln B(K^-1, N') of the untempered q(W) that the lower bound needs.

    Constructed either from an inverse-scale accumulator K (``from_update``)
    or as a point mass pinned at a given W (degenerate-reduction checks).
    """

    def __init__(self, e_w, e_ln_w, k=None, dof=None, ln_b=None):
        self.e_w = sym(np.asarray(e_w, dtype=float))
        self.e_ln_w = float(e_ln_w)
        self.k = k
        self.dof = dof
        self.ln_b = ln_b

    @classmethod
    def from_update(cls, k, dof, kappa=1.0):
        """q(W) from K and N', annealed: scale K^-1 / kappa and dof
        N' - (1 - kappa)(N' - d - 1), both exact at kappa = 1."""
        k = sym(np.asarray(k, dtype=float))
        d = k.shape[0]
        dof = float(dof)
        dof_eff = dof - (1.0 - kappa) * (dof - d - 1.0)
        if dof_eff <= d:
            raise ValueError(
                f"Wishart dof {dof_eff:.3g} <= d = {d} (N' = {dof:.3g}, "
                f"kappa = {kappa:.3g}); more (weighted) data or a larger "
                "kappa is needed for a valid q(W)")
        k_inv = inv_pd(k)
        logdet_k_inv = logdet_pd(k_inv)
        scale = k_inv / kappa
        e_ln_w = (
            digamma(0.5 * (dof_eff + 1.0 - np.arange(1, d + 1))).sum()
            + d * np.log(2.0)
            + logdet_k_inv - d * np.log(kappa)
        )
        self = cls(e_w=dof_eff * scale, e_ln_w=e_ln_w, k=k, dof=dof,
                   ln_b=_ln_wishart_b(k_inv, dof, logdet_k_inv))
        self._dof_eff = dof_eff
        self._scale = scale
        return self

    @classmethod
    def point_mass(cls, w):
        w = sym(np.asarray(w, dtype=float))
        return cls(e_w=w, e_ln_w=logdet_pd(w))

    @property
    def d(self):
        return self.e_w.shape[0]


def update_q_y_bayes(stats, expected, kappa=1.0):
    """``update_q_y`` under ``expected`` = ``rowpost.expected(wpost)``."""
    mean, _, u = expected
    return update_q_y(stats, mean, kappa, u=u)


def update_q_theta_bayes(phi, posteriors, expected, dirichlet, kappa=1.0):
    """``update_q_theta`` under ``expected`` = ``rowpost.expected(wpost)``."""
    mean, ln_w, u = expected
    return update_q_theta(phi, posteriors, mean, dirichlet, kappa,
                          ln_w=ln_w, u=u)


def update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper, rowpost, kappa=1.0):
    """One Gauss-Seidel sweep over the row posteriors of [V | mu].

    c_p, r_p : eta-weighted accumulators C', R'
    Rows are updated in ascending order using the latest neighbor means;
    each row update is exact coordinate ascent with the others held fixed.
    The row precisions diag(alpha_r) + wbar_rr R' do not depend on the
    means, so the whole stack is factored once, before the sweep.
    """
    d = rowpost.d
    n_y = rowpost.n_y
    wbar = wpost.e_w
    mu0, beta = _mean_prior(hyper, d)
    prec = np.diag(wbar)[:, None, None] * sym(r_p)
    cols = np.arange(n_y)
    prec[:, cols, cols] += alphapost.e_alpha
    prec[:, n_y, n_y] += beta
    chol = _cholesky_rows(prec)
    chol_inv = np.linalg.inv(chol)
    prec_inv = np.swapaxes(chol_inv, 1, 2) @ chol_inv
    # sum_s wbar_rs (C_s^T - R' vbar_s) folded back to full sums; the part
    # that does not involve the means is computed once.
    rhs_fixed = wbar @ c_p  # (d, n_y+1)
    rhs_fixed[:, n_y] += beta * mu0
    mean = rowpost.mean.copy()
    for r in range(d):
        v_w = mean.T @ wbar[r] - wbar[r, r] * mean[r]
        mean[r] = prec_inv[r] @ (rhs_fixed[r] - r_p @ v_w)
    return RowPosteriors(
        mean=mean, cov=sym(prec_inv / kappa), prec=prec,
        logdet=2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))


def _mean_prior(hyper, d):
    """``(mu0, beta)`` of the prior N(mu0, diag(beta)^-1) over mu as (d,)
    arrays; mu0 defaults to zero, beta has no default."""
    if hyper.beta is None:
        raise ValueError("Hyperparams.beta is unset; the mean prior needs a "
                         "precision (run_adaptation sets it from the data)")
    beta = np.broadcast_to(np.asarray(hyper.beta, dtype=float), (d,))
    mu0 = np.zeros(d) if hyper.mu0 is None else np.asarray(hyper.mu0, dtype=float)
    return mu0, beta


def _cholesky_rows(prec):
    """Batched lower Cholesky factors; a failure names the first bad row."""
    try:
        return np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        for r, p in enumerate(prec):
            try:
                np.linalg.cholesky(p)
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"row {r} posterior precision is singular") from None
        raise


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


def update_q_wishart(e_s, s_d, c_p, r_p, rowpost, e_n, n_d, eta, kappa=1.0):
    """Wishart posterior over W from the eta-weighted accumulators."""
    k = _scatter(e_s + eta * s_d, c_p, r_p, rowpost.mean, rowpost.rho(r_p))
    dof = e_n + eta * n_d
    return WishartPosterior.from_update(sym(k), dof, kappa=kappa)


def _ln_wishart_b(scale, dof, logdet_scale=None):
    """ln B(scale, dof), the Wishart normalizer."""
    d = scale.shape[0]
    if logdet_scale is None:
        logdet_scale = logdet_pd(scale)
    return float(
        -0.5 * dof * logdet_scale
        - 0.5 * dof * d * np.log(2.0)
        - _ln_multigamma(0.5 * dof, d)
    )


def _ln_multigamma(a, d):
    """ln Gamma_d(a); the value of ``scipy.special.multigammaln`` without
    its Python loop over the d factors."""
    if a <= 0.5 * (d - 1):
        raise ValueError(f"condition a ({a}) > 0.5 * (d-1) ({0.5 * (d - 1)}) not met")
    return (d * (d - 1) * 0.25) * np.log(np.pi) \
        + np.sum(gammaln(a - (np.arange(1, d + 1) - 1.0) / 2))


def elbo_bayes(stats, stats_d, posteriors, posteriors_d, resp, dirichlet,
               rowpost, alphapost, wpost, hyper, acc, acc_d):
    """Variational lower bound of the Bayesian variant, with breakdown.

    The supervised data and speaker-factor terms carry the weight eta; the
    improper-prior constant of P(W) is dropped (additive constant).
    ``acc`` and ``acc_d`` are the accumulators ``(C, R)`` of the two blocks.
    """
    n_y = rowpost.n_y
    d = rowpost.d
    e_vv = rowpost.e_vq_vq()
    mu0, beta = _mean_prior(hyper, d)
    mubar = rowpost.mubar
    mu_quad = rowpost.sigma_mu() + mubar ** 2 - 2.0 * mu0 * mubar + mu0 ** 2

    if wpost.k is None or wpost.dof is None:
        raise ValueError("elbo_bayes needs a proper Wishart posterior (invalid dof)")
    dof = wpost.dof
    vtbar, wbar, ln_w = rowpost.mean, wpost.e_w, wpost.e_ln_w

    terms = _bound_terms(
        stats, posteriors, posteriors_d, resp, dirichlet, hyper,
        _data_term(stats, acc, vtbar, wbar, ln_w, rowpost.rho(acc[1])),
        _data_term(stats_d, acc_d, vtbar, wbar, ln_w, rowpost.rho(acc_d[1])))
    terms.update({
        "lnP(V|alpha)": -0.5 * n_y * d * LOG2PI
        + 0.5 * d * alphapost.e_ln_alpha.sum()
        - 0.5 * float(alphapost.e_alpha @ e_vv),
        "lnP(alpha)": n_y * (hyper.a_alpha * np.log(hyper.b_alpha)
                             - gammaln(hyper.a_alpha))
        + (hyper.a_alpha - 1.0) * alphapost.e_ln_alpha.sum()
        - hyper.b_alpha * alphapost.e_alpha.sum(),
        "lnP(mu)": -0.5 * d * LOG2PI + 0.5 * np.log(beta).sum()
        - 0.5 * float(beta @ mu_quad),
        "lnP(W)": -0.5 * (d + 1.0) * ln_w,
        "-lnq(Vtilde)": 0.5 * d * (n_y + 1.0) * (LOG2PI + 1.0)
        - 0.5 * rowpost.logdet_prec().sum(),
        "-lnq(alpha)": -(
            n_y * ((alphapost.a_prime - 1.0) * digamma(alphapost.a_prime)
                   - alphapost.a_prime - gammaln(alphapost.a_prime))
            + np.log(alphapost.b_prime).sum()
        ),
        "-lnq(W)": -(
            wpost.ln_b
            + 0.5 * (dof - d - 1.0) * ln_w
            - 0.5 * dof * d
        ),
    })
    total = float(sum(terms.values()))
    return total, terms


# Newton iteration limits of optimize_hyper_alpha: residual tolerance,
# iteration cap and the clamp interval of the shape a.
_ALPHA_TOL, _ALPHA_MAX_ITER = 1e-10, 100
_A_MIN, _A_MAX = 1e-6, 1e6
# Upper bound on the precision beta that optimize_hyper_mu returns.
_BETA_MAX = 1e8


def optimize_hyper_alpha(alphapost, a_init=1.0):
    """Empirical-Bayes update of the Gamma hyperparameters (a, b).

    Moment-matching Newton iteration in the log domain:
    f(a) = psi(a) - ln a + ln(mean E[alpha]) - mean E[ln alpha] = 0,
    then b = a / mean E[alpha].
    """
    c = float(alphapost.e_ln_alpha.mean())
    d_mom = float(alphapost.e_alpha.mean())
    gap = np.log(d_mom) - c
    a = float(np.clip(a_init, _A_MIN, _A_MAX))
    if gap <= 0:
        # Degenerate moment pair (zero-variance limit): a -> infinity.
        warnings.warn(
            "E[ln alpha] >= ln E[alpha]: clamping shape at a_max", RuntimeWarning)
        return _A_MAX, _A_MAX / d_mom
    best = (np.inf, a)
    for _ in range(_ALPHA_MAX_ITER):
        fa = digamma(a) - np.log(a) + gap
        if abs(fa) < best[0]:
            best = (abs(fa), a)
        if abs(fa) < _ALPHA_TOL:
            return a, a / d_mom
        denom = polygamma(1, a) * a - 1.0
        step = np.clip(-fa / denom, -10.0, 10.0)
        a = float(np.clip(a * np.exp(step), _A_MIN, _A_MAX))
        if a in (_A_MIN, _A_MAX):
            warnings.warn("hyper-alpha Newton hit the clamp boundary", RuntimeWarning)
            return a, a / d_mom
    warnings.warn(
        f"hyper-alpha Newton did not converge (best residual {best[0]:.3e})",
        RuntimeWarning,
    )
    return best[1], best[1] / d_mom


def optimize_hyper_mu(rowpost, isotropic=False):
    """Empirical-Bayes update of (mu0, beta) for the mean prior.

    mu0 is set to the posterior mean; with that substitution
    beta_r^-1 = Sigma_mu_r.  Isotropic mode averages the inverse over rows.
    """
    mubar = rowpost.mubar
    mu0 = mubar.copy()
    beta_inv = rowpost.sigma_mu() + mubar ** 2 - 2.0 * mu0 * mubar + mu0 ** 2
    if isotropic:
        beta = min(1.0 / max(float(beta_inv.mean()), 1.0 / _BETA_MAX), _BETA_MAX)
        return mu0, float(beta)
    beta = 1.0 / np.maximum(beta_inv, 1.0 / _BETA_MAX)
    return mu0, beta
