"""Variational inference with point estimates of (mu, V, W).

Coordinate-ascent updates for q(Y), q(theta), q(pi), the full variational
lower bound with a per-term breakdown, the closed-form M-steps for [V|mu]
and W, the Newton solver for the Dirichlet parameter tau0 and the minimum
divergence re-standardization.  Every variational update takes the
deterministic-annealing temperature kappa (exact untempered update at 1).
A point model is the Bayesian one with zero row covariances, so the
Bayesian variant reuses these E-step and bound formulas.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, polygamma

from .linalg import inv_pd, sym
from .model import SpldaModel

__all__ = [
    "Hyperparams",
    "SpeakerPosteriors",
    "Responsibilities",
    "DirichletPosterior",
    "update_q_y",
    "update_q_theta",
    "update_q_pi",
    "accumulators",
    "elbo_point",
    "mstep_V",
    "mstep_W",
    "mstep_tau0",
    "min_divergence",
]

LOG2PI = np.log(2.0 * np.pi)


@dataclass
class Hyperparams:
    """Fixed hyperparameters shared by both inference variants."""

    tau0: float = 1.0
    eta: float = 1.0
    # Bayesian-variant parameters (unused by the point variant).
    mu0: np.ndarray | None = None
    beta: np.ndarray | float | None = None
    a_alpha: float = 1e-3
    b_alpha: float = 1e-3

    def __post_init__(self):
        if not self.tau0 > 0:
            raise ValueError("tau0 must be > 0")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        for name in ("a_alpha", "b_alpha"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.beta is not None and not (np.asarray(self.beta) > 0).all():
            raise ValueError(f"beta must be > 0, got {self.beta!r}")


class SpeakerPosteriors:
    """Gaussian speaker-factor posteriors q(y_i) for a block of speakers.

    Every precision in the block has the form L_i = I + n_i G with one
    shared G (V^T W V, or E[V^T W V] in the Bayesian variant).  The block
    is stored factored: a shared ``basis`` P (n_y, n_y) and ``s`` (M, n_y)
    with

        P^T L_i P = diag(s_i),   L_i^-1 = P diag(1/s_i) P^T,
        log|L_i| = -log|P P^T| + sum_k log s_ik.

    From the q(Y) updates, P is the eigenbasis of G and s_i = 1 + n_i lam
    for its eigenvalues lam.  Standardization y' = T^-1 (y - mu_y) maps
    the precisions to T^T L_i T, that is P to T^-1 P, and leaves s
    unchanged.  Every aggregate the updates need (summed second moments,
    traces against a fixed matrix, log-determinants) costs O(M n_y) after
    one O(n_y^3) eigendecomposition; no dense per-speaker matrix is built.

    The precisions are untempered; with annealing the actual posterior
    covariance is ``(1/kappa) L_i^-1``.  Build a block with
    :meth:`from_pair`.
    """

    def __init__(self, ybar, kappa, basis, s):
        self.ybar = ybar  # (M, n_y)
        self.kappa = kappa
        self.basis = basis  # (n_y, n_y)
        self.s = s  # (M, n_y)

    @classmethod
    def from_pair(cls, g, n, rhs, kappa=1.0):
        """Posteriors with L_i = I + n_i g and means ybar_i = L_i^-1 rhs_i."""
        lam, basis = np.linalg.eigh(g)
        post = cls(None, kappa, basis, 1.0 + n[:, None] * lam)
        post.ybar = post._solve(rhs)
        return post

    @property
    def m(self):
        return self.ybar.shape[0]

    @property
    def n_y(self):
        return self.ybar.shape[1]

    def _solve(self, x):
        """(M, n_y) rows L_i^-1 x_i (untempered)."""
        coords = np.einsum("ak,ma->mk", self.basis, x) / self.s
        return np.einsum("ak,mk->ma", self.basis, coords)

    def e_ytilde(self):
        """(M, n_y + 1) augmented means [ybar; 1]."""
        return np.hstack([self.ybar, np.ones((self.m, 1))])

    def sum_e_yy(self, w):
        """sum_i w_i E[y_i y_i^T] for weights w (M,)."""
        c = (w[:, None] / self.s).sum(axis=0)
        cov = (self.basis * c) @ self.basis.T
        return cov / self.kappa + (self.ybar * w[:, None]).T @ self.ybar

    def trace_e_yy(self, h):
        """(M,) traces tr(H E[y_i y_i^T]) for an (n_y, n_y) matrix H."""
        h_diag = np.sum((h @ self.basis) * self.basis, axis=0)  # diag(P^T H P)
        return (h_diag / self.s).sum(axis=1) / self.kappa \
            + np.sum((self.ybar @ h) * self.ybar, axis=1)

    def logdet_prec(self):
        """(M,) log|L_i| (untempered)."""
        return np.log(self.s).sum(axis=1) \
            - 2.0 * np.linalg.slogdet(self.basis)[1]

    def standardized(self, mu_y, t):
        """The block in coordinates y' = T^-1 (y - mu_y); L_i' = T^T L_i T."""
        t_inv = np.linalg.inv(t)
        return type(self)((self.ybar - mu_y) @ t_inv.T, self.kappa,
                          t_inv @ self.basis, self.s)


@dataclass(frozen=True)
class Responsibilities:
    """Row-stochastic cluster responsibilities."""

    r: np.ndarray  # (N, M)

    @property
    def counts(self):
        """Expected occupation counts E[N_i]."""
        return self.r.sum(axis=0)

    def entropy(self):
        """-sum_ji r_ji ln r_ji, with 0 ln 0 = 0."""
        r = self.r
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.log(r)
            terms *= r  # 0 * -inf is nan where r == 0
        terms[r == 0] = 0.0
        return float(-np.sum(terms))


@dataclass
class DirichletPosterior:
    """q(pi) = Dir(tau) with the digamma expectation cached."""

    tau: np.ndarray

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        if (self.tau <= 0).any():
            raise ValueError("Dirichlet parameters must be positive")

    @property
    def e_ln_pi(self):
        return digamma(self.tau) - digamma(self.tau.sum())


def update_q_y(stats, model, kappa=1.0, *, u=None):
    """q(y_i) updates from (expected or hard) raw statistics.

    L_i = I + E[N_i] E[V^T W V],
    ybar_i = L_i^-1 (E[V]^T E[W] E[Fbar_i] - E[N_i] u_{y mu}),
    with ``model`` holding the parameter means and Fbar_i = F_i - N_i E[mu]
    the first-order sums centred here.  ``u`` = sum_r wbar_rr Sigma_r is
    what the row covariances Sigma_r of [V | mu] add to E[Vt^T W Vt]; a
    point model has u = 0, the default.
    """
    n_y = model.n_y
    u = np.zeros((n_y + 1, n_y + 1)) if u is None else u
    wv = model.w @ model.v  # (d, n_y)
    g = sym(model.v.T @ wv) + u[:n_y, :n_y]  # (n_y, n_y)
    rhs = (stats.f - np.outer(stats.n, model.mu)) @ wv \
        - np.outer(stats.n, u[:n_y, n_y])
    return SpeakerPosteriors.from_pair(g, stats.n, rhs, kappa)


def update_q_theta(phi, posteriors, model, dirichlet, kappa=1.0, *,
                   ln_w=None, u=None):
    """Responsibility update; computed in log space, kappa-tempered.

    ``model`` holds the parameter means, ``ln_w`` is E[ln|W|] (ln|W| of a
    point model, the default) and ``u`` is as in ``update_q_y``.
    """
    n_y = model.n_y
    ln_w = model.logdet_w() if ln_w is None else ln_w
    u = np.zeros((n_y + 1, n_y + 1)) if u is None else u
    delta = phi - model.mu  # (N, d)
    wv = model.w @ model.v
    g = sym(model.v.T @ wv) + u[:n_y, :n_y]
    quad = np.sum((delta @ model.w) * delta, axis=1)  # (N,)
    cross = (delta @ wv) @ posteriors.ybar.T  # (N, M)
    # tr(E[Vc^T W Vc] E[yt yt^T]) for the centred Vc = [V | mu - E[mu]]
    tr_term = posteriors.trace_e_yy(g) \
        + (2.0 * posteriors.ybar @ u[:n_y, n_y] + u[n_y, n_y])  # (M,)
    # Built in place in ``cross``, adding in the order
    # (const - quad/2) + cross - tr/2 + E[ln pi], which fixes the rounding.
    log_rho = cross
    log_rho += 0.5 * (ln_w - model.d * LOG2PI) - 0.5 * quad[:, None]
    log_rho -= 0.5 * tr_term
    log_rho += dirichlet.e_ln_pi
    return _normalize_log_rho(log_rho, kappa)


# exp(x) is subnormal or zero for every x below this and a normal double
# from it up.
_LN_TINY = np.log(np.finfo(float).tiny)


def _normalize_log_rho(log_rho, kappa):
    """Tempered softmax of each row, with no subnormal responsibility.

    Overwrites ``log_rho``, in which it works.  Shifted weights below
    ln(tiny) become -inf, so their exp is an exact 0 instead of a
    subnormal (which exp and the BLAS handle far more slowly).
    Every responsibility >= tiny keeps the bits of the untruncated softmax,
    and so does each row's normaliser: the dropped terms are below tiny
    while the row sum is at least 1.
    """
    # fl(kappa x) is monotone in x, so kappa times the row max is the row
    # max of the tempered weights; at kappa = 1 both products are exact.
    row_max = log_rho.max(axis=1, keepdims=True)
    if not np.isfinite(row_max).all():
        raise ValueError("degenerate model: a responsibility row is all -inf")
    z = log_rho
    z *= kappa
    z -= kappa * row_max
    z[z < _LN_TINY] = -np.inf
    r = np.exp(z)
    z -= np.log(r.sum(axis=1, keepdims=True))
    z[z < _LN_TINY] = -np.inf
    np.exp(z, out=r)
    return Responsibilities(r=r)


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


def _data_term(stats, acc, vtilde, w, ln_w, rho=0.0):
    """E[ln P(Phi | Y, theta)] of one block with accumulators ``acc``, under
    parameter means ``vtilde``, ``w`` and E[ln|W|] = ``ln_w``."""
    c, r = acc
    inner = _scatter(stats.s, c, r, vtilde, rho)
    return 0.5 * stats.n_total * (ln_w - w.shape[0] * LOG2PI) \
        - 0.5 * np.sum(w * inner)


def _y_prior_term(posteriors):
    rho = posteriors.sum_e_yy(np.ones(posteriors.m))
    return -0.5 * posteriors.m * posteriors.n_y * LOG2PI - 0.5 * np.trace(rho)


def _y_entropy_term(posteriors):
    # E[ln q(Y)] (enters the bound with a minus sign)
    return -0.5 * posteriors.m * posteriors.n_y * (LOG2PI + 1.0) \
        + 0.5 * posteriors.logdet_prec().sum()


def _ln_dirichlet_c(tau):
    tau = np.atleast_1d(tau)
    return float(gammaln(tau.sum()) - gammaln(tau).sum())


def _bound_terms(stats, posteriors, posteriors_d, resp, dirichlet, hyper,
                 loglik, loglik_d):
    """The lower-bound terms both variants share, given the expected block
    log-likelihoods of the unlabelled and labelled blocks; the labelled
    block enters with the weight eta."""
    m = dirichlet.tau.shape[0]
    eta = hyper.eta
    e_ln_pi = dirichlet.e_ln_pi
    return {
        "lnP(Phi|Y,theta)": loglik,
        "lnP(Y)": _y_prior_term(posteriors),
        "lnP(theta|pi)": float(stats.n @ e_ln_pi),
        "lnP(pi)": _ln_dirichlet_c(np.full(m, hyper.tau0))
        + (hyper.tau0 - 1.0) * e_ln_pi.sum(),
        "eta*lnP(Phi_d|Y_d)": eta * loglik_d,
        "eta*lnP(Y_d)": eta * _y_prior_term(posteriors_d),
        "-lnq(Y)": -_y_entropy_term(posteriors),
        "-lnq(theta)": resp.entropy(),
        "-lnq(pi)": -(
            _ln_dirichlet_c(dirichlet.tau)
            + float((dirichlet.tau - 1.0) @ e_ln_pi)
        ),
        "-eta*lnq(Y_d)": -eta * _y_entropy_term(posteriors_d),
    }


def elbo_point(stats, stats_d, posteriors, posteriors_d, resp, dirichlet,
               model, hyper, acc, acc_d):
    """Variational lower bound for the point-estimate model.

    Returns ``(total, breakdown)`` where ``breakdown`` maps term names to
    values.  Defined for the untempered (kappa = 1) objective.  The
    labelled block's terms carry the weight eta, so this is the objective
    the M-steps maximise and it does not fall at kappa = 1 for any eta.
    ``acc`` and ``acc_d`` are the accumulators ``(C, R)`` of the two blocks.
    """
    vtilde, ln_w = model.vtilde, model.logdet_w()
    terms = _bound_terms(
        stats, posteriors, posteriors_d, resp, dirichlet, hyper,
        _data_term(stats, acc, vtilde, model.w, ln_w),
        _data_term(stats_d, acc_d, vtilde, model.w, ln_w))
    total = float(sum(terms.values()))
    return total, terms


def mstep_V(c, r, c_d, r_d, eta):
    """Closed-form update of the augmented [V | mu].

    Solves Vtilde (R + eta R_d) = (C + eta C_d) by a linear system.
    """
    c_p = c + eta * c_d
    r_p = sym(r + eta * r_d)
    cond = np.linalg.cond(r_p)
    if not np.isfinite(cond) or cond > 1e14:
        raise np.linalg.LinAlgError(
            f"weighted accumulator R' is singular (condition number {cond:.3e})"
        )
    return np.linalg.solve(r_p, c_p.T).T


def mstep_W(e_s, s_d, c_p, r_p, vtilde, e_n, n_d, eta):
    """Closed-form update of the within-class precision W.

    W^-1 = (K + K^T) / 2 / (E[N] + eta N_d) with
    K = E[S] + eta S_d - 2 C' Vtilde^T + Vtilde R' Vtilde^T.
    """
    d = e_s.shape[0]
    denom = e_n + eta * n_d
    if denom <= d:
        raise ValueError(
            f"E[N] + eta*N_d = {denom:.3g} <= d = {d}: W would be degenerate"
        )
    k = _scatter(e_s + eta * s_d, c_p, r_p, vtilde)
    w_inv = sym(k) / denom
    return inv_pd(w_inv)


# Iteration cap of the tau0 Newton solver.
_TAU0_MAX_ITER = 100


def mstep_tau0(e_ln_pi, tau0_init=1.0, tol=1e-10):
    """Newton update of tau0 in the log domain.

    Solves f(tau0) = psi(M tau0) - psi(tau0) + g = 0 with
    g = mean(E[ln pi_i]), stepping in u = ln tau0 with the exact derivative
    df/du = M tau0 psi'(M tau0) - tau0 psi'(tau0), which converges
    quadratically; it stops when a step changes ln tau0 by less than ``tol``
    or f is zero to within its rounding error.  f falls from +inf to
    ln M + g, so a finite root exists only when ln M + g < 0; otherwise the
    maximum-likelihood tau0 is unbounded, and a RuntimeWarning is raised and
    ``tau0_init`` returned unchanged.
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
    best = (np.inf, tau0)
    for _ in range(_TAU0_MAX_ITER):
        psi_m, psi_1 = digamma(m * tau0), digamma(tau0)
        ft = psi_m - psi_1 + g
        if abs(ft) < best[0]:
            best = (abs(ft), tau0)
        slope = m * tau0 * polygamma(1, m * tau0) - tau0 * polygamma(1, tau0)
        step = float(np.clip(-ft / slope, -10.0, 10.0))  # log-domain safeguard
        tau0 = tau0 * np.exp(step)
        # f can be resolved only to its rounding error, which limits the
        # attainable step for very large roots
        noise = 4 * np.finfo(float).eps * (abs(psi_m) + abs(psi_1) + abs(g))
        if abs(step) < tol or abs(ft) <= noise:
            return tau0
    warnings.warn(
        f"tau0 Newton did not converge in {_TAU0_MAX_ITER} iterations "
        f"(best residual {best[0]:.3e})",
        RuntimeWarning,
    )
    return best[1]


def min_divergence(posteriors, posteriors_d, model, eta):
    """Minimum-divergence re-standardization of the latent prior.

    Absorbs the aggregate posterior mean/covariance of the speaker factors
    into (mu, V) so that the prior stays N(0, I).  The i-vector marginal is
    left invariant.  Returns ``(model, (mu_y, t))`` where ``t`` is the lower
    Cholesky factor of Sigma_y (used to transform the speaker posteriors in
    step).
    """
    m, m_d = posteriors.m, posteriors_d.m
    denom = m + eta * m_d
    mu_y = (posteriors.ybar.sum(axis=0) + eta * posteriors_d.ybar.sum(axis=0)) / denom
    rho = posteriors.sum_e_yy(np.ones(m)) + eta * posteriors_d.sum_e_yy(np.ones(m_d))
    sigma_y = sym(rho / denom - np.outer(mu_y, mu_y))
    t = np.linalg.cholesky(sigma_y)  # raises if Sigma_y is not PD
    new = SpldaModel(mu=model.mu + model.v @ mu_y, v=model.v @ t, w=model.w)
    return new, (mu_y, t)


def standardize_posteriors(posteriors, mu_y, t):
    """Re-express speaker posteriors in the transformed latent coordinates.

    y' = T^-1 (y - mu_y); precision transforms as L' = T^T L T, which keeps
    the data-dependent part of the bound invariant.
    """
    return posteriors.standardized(mu_y, t)
