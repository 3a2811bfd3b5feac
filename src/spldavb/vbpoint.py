"""Variational inference with point estimates of (mu, V, W).

Coordinate-ascent updates for q(Y), q(theta), q(pi), the full variational
lower bound with a per-term breakdown, the closed-form M-steps for [V|mu]
and W, the Newton solver for the Dirichlet parameter tau0, the minimum
divergence re-standardization and the deterministic-annealing (kappa)
variants of every update.
"""

import warnings
from dataclasses import dataclass, field

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


class SpeakerPosteriors:
    """Gaussian speaker-factor posteriors q(y_i) for a block of speakers.

    Every precision in the block has the form L_i = A + n_i G.  The q(Y)
    updates give one shared pair with A = I (G = V^T W V, or E[V^T W V]
    in the Bayesian variant); standardization maps it to (T^T A T, T^T G T).
    A dense ``prec`` argument is held as per-speaker pairs A_i = L_i, G = 0.

    The block is stored factored: ``basis`` P (shared (n_y, n_y), or per
    speaker (M, n_y, n_y)) and eigenvalues lam diagonalize the pair,
    P^T A P = I and P^T G P = diag(lam).  For a shared pair with A = I,
    P and lam come from one eigendecomposition of G; for dense precisions
    L_i = U_i diag(e_i) U_i^T (one batched eigendecomposition) P_i is
    U_i diag(e_i)^-1/2 and lam is 0.  With ``s`` (M, n_y) holding
    s_i = 1 + n_i lam,

        P^T L_i P = diag(s_i),   L_i^-1 = P diag(1/s_i) P^T,
        log|L_i| = -log|P P^T| + sum_k log s_ik.

    With a shared pair every aggregate the updates need (summed second
    moments, traces against a fixed matrix, log-determinants) then costs
    O(M n_y) after one O(n_y^3) eigendecomposition.  The dense
    (M, n_y, n_y) arrays ``prec``, ``cov()``, ``e_yy()`` and
    ``e_yy_tilde()`` are built only when asked for.  Standardization
    y' = T^-1 (y - mu_y) maps P to T^-1 P and leaves s unchanged.

    ``prec`` holds the untempered precisions L_i; with annealing the actual
    posterior covariance is ``(1/kappa) L_i^-1``.
    """

    def __init__(self, ybar, prec, kappa=1.0):
        """Posteriors with dense per-speaker precisions ``prec`` (M, n_y, n_y)."""
        prec = np.asarray(prec, dtype=float)
        n_y = prec.shape[-1]
        eig, u = np.linalg.eigh(prec)
        self._set(ybar, kappa, prec, np.zeros((n_y, n_y)), np.zeros(prec.shape[0]),
                  u / np.sqrt(eig)[..., None, :], np.ones_like(eig))

    @classmethod
    def from_pair(cls, g, n, rhs, kappa=1.0):
        """Posteriors with L_i = I + n_i g and means ybar_i = L_i^-1 rhs_i."""
        lam, basis = np.linalg.eigh(g)
        post = object.__new__(cls)
        post._set(None, kappa, np.eye(len(g)), g, n, basis, 1.0 + n[:, None] * lam)
        post.ybar = post._solve(rhs)
        return post

    def _set(self, ybar, kappa, a, g, n, basis, s):
        self.ybar = ybar  # (M, n_y)
        self.kappa = kappa
        self._a, self._g, self._n = a, g, n
        self.basis = basis
        self.s = s  # (M, n_y)

    @property
    def m(self):
        return self.ybar.shape[0]

    @property
    def n_y(self):
        return self.ybar.shape[1]

    @property
    def prec(self):
        """(M, n_y, n_y) untempered precisions L_i = A + n_i G."""
        return self._a + self._n[:, None, None] * self._g

    def _solve(self, x):
        """(M, n_y) rows L_i^-1 x_i (untempered)."""
        coords = np.einsum("...ak,...a->...k", self.basis, x) / self.s
        return np.einsum("...ak,...k->...a", self.basis, coords)

    def cov(self):
        return (self.basis / self.s[:, None, :]) @ np.swapaxes(self.basis, -1, -2) \
            / self.kappa

    def e_yy(self):
        """(M, n_y, n_y) second moments E[y y^T]."""
        return self.cov() + np.einsum("ma,mb->mab", self.ybar, self.ybar)

    def e_ytilde(self):
        """(M, n_y + 1) augmented means [ybar; 1]."""
        return np.hstack([self.ybar, np.ones((self.m, 1))])

    def e_yy_tilde(self):
        """(M, n_y+1, n_y+1) augmented second moments."""
        m, n_y = self.m, self.n_y
        out = np.empty((m, n_y + 1, n_y + 1))
        out[:, :n_y, :n_y] = self.e_yy()
        out[:, :n_y, n_y] = self.ybar
        out[:, n_y, :n_y] = self.ybar
        out[:, n_y, n_y] = 1.0
        return out

    def sum_e_yy(self, w):
        """sum_i w_i E[y_i y_i^T] for weights w (M,)."""
        c = w[:, None] / self.s
        # A shared basis takes the speaker sum before the basis products.
        c = c.sum(axis=tuple(range(c.ndim - self.basis.ndim + 1)))
        cov = (self.basis * c[..., None, :]) @ np.swapaxes(self.basis, -1, -2)
        cov = cov.reshape(-1, self.n_y, self.n_y).sum(axis=0)
        return cov / self.kappa + (self.ybar * w[:, None]).T @ self.ybar

    def trace_e_yy(self, h):
        """(M,) traces tr(H E[y_i y_i^T]) for an (n_y, n_y) matrix H."""
        h_diag = np.sum((h @ self.basis) * self.basis, axis=-2)  # diag(P^T H P)
        return (h_diag / self.s).sum(axis=1) / self.kappa \
            + np.sum((self.ybar @ h) * self.ybar, axis=1)

    def logdet_prec(self):
        """(M,) log|L_i| (untempered)."""
        return np.log(self.s).sum(axis=1) \
            - 2.0 * np.linalg.slogdet(self.basis)[1]

    def standardized(self, mu_y, t):
        """The block in coordinates y' = T^-1 (y - mu_y); L_i' = T^T L_i T."""
        t_inv = np.linalg.inv(t)
        post = object.__new__(type(self))
        post._set((self.ybar - mu_y) @ t_inv.T, self.kappa, t.T @ self._a @ t,
                  t.T @ self._g @ t, self._n, t_inv @ self.basis, self.s)
        return post


@dataclass
class Responsibilities:
    """Row-stochastic cluster responsibilities plus the raw log weights."""

    r: np.ndarray  # (N, M)
    log_rho: np.ndarray = field(repr=False, default=None)  # (N, M), unnormalized

    @property
    def counts(self):
        """Expected occupation counts E[N_i]."""
        return self.r.sum(axis=0)

    def entropy(self):
        """-sum_ji r_ji ln r_ji, with 0 ln 0 = 0."""
        r = self.r
        return float(-np.sum(np.where(r > 0, r * np.log(np.where(r > 0, r, 1.0)), 0.0)))


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


def update_q_y(stats, model, kappa=1.0):
    """q(y_i) updates from (expected or hard) centered statistics.

    L_i = I + E[N_i] V^T W V,  ybar_i = L_i^-1 V^T W E[Fbar_i].
    """
    if stats.fbar is None:
        raise ValueError("stats must be centered (call center_stats first)")
    wv = model.w @ model.v  # (d, n_y)
    g = sym(model.v.T @ wv)  # (n_y, n_y)
    return SpeakerPosteriors.from_pair(g, stats.n, stats.fbar @ wv, kappa)


def update_q_theta(phi, posteriors, model, dirichlet, kappa=1.0):
    """Responsibility update; computed in log space, kappa-tempered."""
    delta = phi - model.mu  # (N, d)
    wv = model.w @ model.v
    g = sym(model.v.T @ wv)
    quad = np.sum((delta @ model.w) * delta, axis=1)  # (N,)
    cross = (delta @ wv) @ posteriors.ybar.T  # (N, M)
    tr_term = posteriors.trace_e_yy(g)  # (M,)
    log_rho = (
        0.5 * (model.logdet_w() - model.d * LOG2PI)
        - 0.5 * quad[:, None]
        + cross
        - 0.5 * tr_term[None, :]
        + dirichlet.e_ln_pi[None, :]
    )
    return _normalize_log_rho(log_rho, kappa)


def _normalize_log_rho(log_rho, kappa):
    if not np.isfinite(log_rho.max(axis=1)).all():
        raise ValueError("degenerate model: a responsibility row is all -inf")
    z = log_rho if kappa == 1.0 else kappa * log_rho
    z_shift = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z_shift).sum(axis=1, keepdims=True))
    r = np.exp(z_shift - log_norm)
    return Responsibilities(r=r, log_rho=log_rho)


def update_q_pi(expected_counts, tau0, kappa=1.0):
    """Dirichlet update tau_i = E[N_i] + tau0 (kappa-annealed variant below).

    With annealing, tau_i = kappa (E[N_i] + tau0 - 1) + 1.  The kappa == 1
    branch is kept separate so the annealed code path is bit-identical to the
    standard one.
    """
    counts = np.asarray(expected_counts, dtype=float)
    if (counts < 0).any():
        raise ValueError("expected counts must be nonnegative")
    if kappa == 1.0:
        tau = counts + tau0
    else:
        tau = kappa * (counts + tau0 - 1.0) + 1.0
        if (tau <= 0).any():
            raise ValueError(
                "annealed tau non-positive; raise kappa or tau0"
            )
    return DirichletPosterior(tau=tau)


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


def _data_term(n_total, s_global, c, r, model):
    vt = model.vtilde
    inner = s_global - 2.0 * c @ vt.T + vt @ r @ vt.T
    return 0.5 * n_total * (model.logdet_w() - model.d * LOG2PI) \
        - 0.5 * np.sum(model.w * inner)


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


def elbo_point(stats, stats_d, posteriors, posteriors_d, resp, dirichlet,
               model, hyper):
    """Variational lower bound for the point-estimate model.

    Returns ``(total, breakdown)`` where ``breakdown`` maps term names to
    values.  Defined for the untempered (kappa = 1) objective; the supervised
    terms enter unweighted (eta affects only parameter estimation).
    """
    m = dirichlet.tau.shape[0]
    e_ln_pi = dirichlet.e_ln_pi
    c, r = accumulators(stats, posteriors)
    c_d, r_d = accumulators(stats_d, posteriors_d)
    terms = {
        "lnP(Phi|Y,theta)": _data_term(stats.n_total, stats.s, c, r, model),
        "lnP(Y)": _y_prior_term(posteriors),
        "lnP(theta|pi)": float(stats.n @ e_ln_pi),
        "lnP(pi)": _ln_dirichlet_c(np.full(m, hyper.tau0))
        + (hyper.tau0 - 1.0) * e_ln_pi.sum(),
        "lnP(Phi_d|Y_d)": _data_term(stats_d.n_total, stats_d.s, c_d, r_d, model),
        "lnP(Y_d)": _y_prior_term(posteriors_d),
        "-lnq(Y)": -_y_entropy_term(posteriors),
        "-lnq(theta)": resp.entropy(),
        "-lnq(pi)": -(
            _ln_dirichlet_c(dirichlet.tau)
            + float((dirichlet.tau - 1.0) @ e_ln_pi)
        ),
        "-lnq(Y_d)": -_y_entropy_term(posteriors_d),
    }
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
    k = e_s + eta * s_d - 2.0 * c_p @ vtilde.T + vtilde @ r_p @ vtilde.T
    w_inv = sym(k) / denom
    return inv_pd(w_inv)


def mstep_tau0(e_ln_pi, tau0_init=1.0, tol=1e-10, max_iter=100):
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
    for _ in range(max_iter):
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
        f"tau0 Newton did not converge in {max_iter} iterations "
        f"(best residual {best[0]:.3e})",
        RuntimeWarning,
    )
    return best[1]


def min_divergence(posteriors, posteriors_d, model, eta, with_transform=False):
    """Minimum-divergence re-standardization of the latent prior.

    Absorbs the aggregate posterior mean/covariance of the speaker factors
    into (mu, V) so that the prior stays N(0, I).  The i-vector marginal is
    left invariant.  With ``with_transform=True`` also returns ``(mu_y, t)``
    where ``t`` is the lower Cholesky factor of Sigma_y (used to transform
    the speaker posteriors in step).
    """
    m, m_d = posteriors.m, posteriors_d.m
    denom = m + eta * m_d
    mu_y = (posteriors.ybar.sum(axis=0) + eta * posteriors_d.ybar.sum(axis=0)) / denom
    rho = posteriors.sum_e_yy(np.ones(m)) + eta * posteriors_d.sum_e_yy(np.ones(m_d))
    sigma_y = sym(rho / denom - np.outer(mu_y, mu_y))
    t = np.linalg.cholesky(sigma_y)  # raises if Sigma_y is not PD
    new = SpldaModel(mu=model.mu + model.v @ mu_y, v=model.v @ t, w=model.w)
    if with_transform:
        return new, (mu_y, t)
    return new


def standardize_posteriors(posteriors, mu_y, t):
    """Re-express speaker posteriors in the transformed latent coordinates.

    y' = T^-1 (y - mu_y); precision transforms as L' = T^T L T, which keeps
    the data-dependent part of the bound invariant.
    """
    return posteriors.standardized(mu_y, t)
