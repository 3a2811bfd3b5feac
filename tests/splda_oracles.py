"""Reference computations the test suite checks the library against.

Per-speaker likelihoods from explicit second-order statistics, dense
per-speaker views of factored speaker posteriors, the parameter moments
E[Vt^T W Vt] and E[Vt R Vt^T], the responsibility log weights, softmax and
entropy in their direct forms, the pair score as a ratio of joint-Gaussian
densities and central finite differences.  None of this is
needed to run an adaptation; each function follows its formula directly
rather than the library's aggregate forms.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class SpeakerStatsEntry:
    """Statistics of a single speaker (second order optional)."""

    n: float
    f: np.ndarray
    s: np.ndarray | None = None

    def centered(self, mu):
        """Return (fbar, sbar) centered around ``mu``."""
        fbar = self.f - self.n * mu
        sbar = None
        if self.s is not None:
            sbar = self.s - np.outer(mu, self.f) - np.outer(self.f, mu) \
                + self.n * np.outer(mu, mu)
        return fbar, sbar


def stats_entry(stats, i, s_i=None):
    """Speaker ``i`` of ``stats``; ``s_i`` must be supplied for second-order use."""
    return SpeakerStatsEntry(n=float(stats.n[i]), f=stats.f[i].copy(), s=s_i)


def per_speaker_second_order(resp, phi):
    """(M, d, d) per-speaker second-order matrices (on-demand, O(M d^2))."""
    resp = np.asarray(resp, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.einsum("jm,ja,jb->mab", resp, phi, phi)


def cond_loglik(entry, y, model):
    """ln P(Phi_i | y_i, theta) for one speaker from its statistics.

    ``entry.s`` (per-speaker second order) is required.
    """
    if entry.s is None:
        raise ValueError("cond_loglik needs the per-speaker second-order statistic")
    y = np.asarray(y, dtype=float)
    fbar, sbar = entry.centered(model.mu)
    wv = model.w @ model.v
    d = model.d
    out = 0.5 * entry.n * (model.logdet_w() - d * np.log(2.0 * np.pi))
    out -= 0.5 * np.sum(model.w * sbar)
    out += y @ (wv.T @ fbar)
    out -= 0.5 * entry.n * (y @ (model.v.T @ wv) @ y)
    return float(out)


def cond_loglik_augmented(entry, y, model):
    """Same likelihood through the augmented [V|mu], [y;1] form."""
    if entry.s is None:
        raise ValueError("cond_loglik needs the per-speaker second-order statistic")
    y = np.asarray(y, dtype=float)
    ytilde = np.append(y, 1.0)
    vt = model.vtilde
    d = model.d
    vy = vt @ ytilde
    inner = entry.s - 2.0 * np.outer(entry.f, vy) + entry.n * np.outer(vy, vy)
    out = 0.5 * entry.n * (model.logdet_w() - d * np.log(2.0 * np.pi))
    out -= 0.5 * np.sum(model.w * inner)
    return float(out)


def dense_prec(posts):
    """(M, n_y, n_y) untempered precisions P^-T diag(s_i) P^-1 of a
    ``SpeakerPosteriors`` block."""
    p_inv = np.linalg.inv(posts.basis)
    return (p_inv.T * posts.s[:, None, :]) @ p_inv


def dense_cov(posts):
    """(M, n_y, n_y) covariances P diag(1/s_i) P^T / kappa."""
    return (posts.basis / posts.s[:, None, :]) @ posts.basis.T / posts.kappa


def dense_e_yy(posts):
    """(M, n_y, n_y) second moments E[y y^T]."""
    return dense_cov(posts) + np.einsum("ma,mb->mab", posts.ybar, posts.ybar)


def e_yy_tilde(posts):
    """(M, n_y+1, n_y+1) augmented second moments E[ytilde ytilde^T] of a
    ``SpeakerPosteriors`` block, ytilde = [y; 1]."""
    m, n_y = posts.m, posts.n_y
    out = np.empty((m, n_y + 1, n_y + 1))
    out[:, :n_y, :n_y] = dense_e_yy(posts)
    out[:, :n_y, n_y] = posts.ybar
    out[:, n_y, :n_y] = posts.ybar
    out[:, n_y, n_y] = 1.0
    return out


def e_vt_w_vt(rowpost, wpost):
    """E[Vtilde^T W Vtilde] = Vtbar^T Wbar Vtbar + u, with the package's
    u = sum_r wbar_rr Sigma_r."""
    wbar = wpost.e_w
    return rowpost.mean.T @ wbar @ rowpost.mean + rowpost.u(wbar)


def e_vt_r_vt(rowpost, r):
    """E[Vtilde R Vtilde^T] = Vtbar R Vtbar^T + diag(rho), with the
    package's rho_r = tr(R Sigma_r)."""
    return rowpost.mean @ r @ rowpost.mean.T + np.diag(rowpost.rho(r))


def log_weights(phi, posts, model, dirichlet, ln_w=None, u=None):
    """(N, M) untempered q(theta) log weights
    E[ln N(phi_j | Vt ytilde_i, W^-1)] + E[ln pi_i], one vector and one
    speaker at a time, in the uncentred augmented form with the dense
    second moments E[ytilde ytilde^T].  ``model`` holds the parameter
    means, ``ln_w`` is E[ln|W|] (default ln|W|) and ``u`` what the row
    covariances add to E[Vt^T W Vt] (default 0)."""
    vt, w = model.vtilde, model.w
    ln_w = np.linalg.slogdet(w)[1] if ln_w is None else ln_w
    e_vwv = vt.T @ w @ vt + (0.0 if u is None else u)
    e_yy = e_yy_tilde(posts)
    yt = posts.e_ytilde()
    e_ln_pi = dirichlet.e_ln_pi
    out = np.empty((phi.shape[0], posts.m))
    for j, x in enumerate(phi):
        for i in range(posts.m):
            quad = x @ w @ x - 2.0 * x @ w @ vt @ yt[i] \
                + np.sum(e_vwv * e_yy[i])
            out[j, i] = 0.5 * (ln_w - model.d * np.log(2.0 * np.pi)) \
                - 0.5 * quad + e_ln_pi[i]
    return out


def softmax_untruncated(log_rho, kappa):
    """Tempered row softmax of log weights with every exp kept, subnormal
    results included: the library's normaliser before it truncated below
    the smallest normal double."""
    row_max = log_rho.max(axis=1, keepdims=True)
    z = log_rho if kappa == 1.0 else kappa * log_rho
    z_shift = z - kappa * row_max
    log_norm = np.log(np.exp(z_shift).sum(axis=1, keepdims=True))
    return np.exp(z_shift - log_norm)


def entropy_nested_where(r):
    """-sum_ji r_ji ln r_ji with 0 ln 0 = 0, masking before the log."""
    return float(-np.sum(np.where(r > 0, r * np.log(np.where(r > 0, r, 1.0)), 0.0)))


def gauss_logpdf(x, mean, cov):
    """ln N(x | mean, cov) of one vector, through a Cholesky factor."""
    diff = np.atleast_1d(x - mean)
    chol = np.linalg.cholesky((cov + cov.T) / 2.0)
    z = np.linalg.solve(chol, diff)
    return float(-0.5 * z @ z - 0.5 * diff.size * np.log(2.0 * np.pi)
                 - np.log(np.diag(chol)).sum())


def pairwise_llr_joint(model, phi_a, phi_b):
    """ln p(a, b | same) - ln p(a) p(b) from the 2d-dimensional joint
    Gaussian of a same-speaker pair, covariance [[T, B], [B, T]] with
    B = V V^T and T = B + W^-1, against the product of the marginals."""
    between = model.v @ model.v.T
    total = between + np.linalg.inv(model.w)
    joint_cov = np.block([[total, between], [between, total]])
    same = gauss_logpdf(np.concatenate([phi_a, phi_b]),
                        np.concatenate([model.mu, model.mu]), joint_cov)
    lone = gauss_logpdf(phi_a, model.mu, total) \
        + gauss_logpdf(phi_b, model.mu, total)
    return same - lone


def fd_gradient(objective, params, step=1e-5):
    """Central-difference gradient of a scalar objective over a flat vector."""
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += step
        dn[i] -= step
        f_up, f_dn = objective(up), objective(dn)
        if not (np.isfinite(f_up) and np.isfinite(f_dn)):
            raise ValueError("objective non-finite while probing the gradient")
        grad[i] = (f_up - f_dn) / (2.0 * step)
    return grad


def fd_gradient_check(objective, params, step=1e-5):
    """Max-abs central-difference gradient (stationarity residual)."""
    return float(np.abs(fd_gradient(objective, params, step)).max())
