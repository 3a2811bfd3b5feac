"""Reference computations the test suite checks the library against.

Per-speaker likelihoods from explicit second-order statistics, dense
per-speaker views of factored speaker posteriors, the parameter moments
E[Vt^T W Vt] and E[Vt R Vt^T], row posteriors of [V | mu] from dense
covariances and their update through a batched Cholesky of the dense
precision stack, the inverse through two triangular solves, the
synthetic supervised/unsupervised split by a loop over the i-vectors, the
closed-form pair scores with every inverse and log-determinant from its
own factorization, the responsibility log weights, softmax and entropy in their direct forms, the
pair score as a ratio of joint-Gaussian densities, central finite
differences, the whole lower bound at given responsibilities with the
parameters held, a Monte Carlo estimate of the lower bound of a held
state from draws of its factors, the text formats written one value at a time and
parsed one row at a time, and the closest pairs of speaker posterior
means by a double loop.  None of this is needed to run an adaptation; each function follows its formula directly
rather than the library's aggregate forms.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.stats import dirichlet, gamma, multivariate_normal, norm, wishart

from spldavb.linalg import chol_with_jitter, inv_pd, logdet_pd, sym
from spldavb.model import Dataset, SuffStats, accumulate_stats
from spldavb.vbbayes import (
    RowPosteriors,
    _mean_prior,
    elbo_bayes,
    update_q_y_bayes,
)
from spldavb.vbpoint import (
    Hyperparams,
    Responsibilities,
    SpeakerPosteriors,
    accumulators,
    elbo_point,
    update_q_pi,
    update_q_y,
)


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
    p_inv = np.linalg.inv(posts.basis[0])
    return (p_inv.T * posts.s[:, None, :]) @ p_inv


def dense_cov(rows):
    """(R, k, k) covariances P_g diag(1/s_r) P_g^T / kappa of a
    ``GaussianRows`` block, g the group of row r."""
    p = rows.basis[rows.group]
    return (p / rows.s[:, None, :]) @ np.swapaxes(p, 1, 2) / rows.kappa


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
    return rowpost.mean.T @ wbar @ rowpost.mean + rowpost.sum_cov(wbar.diagonal())


def e_vt_r_vt(rowpost, r):
    """E[Vtilde R Vtilde^T] = Vtbar R Vtbar^T + diag(rho), with the
    package's rho_r = tr(R Sigma_r)."""
    return rowpost.mean @ r @ rowpost.mean.T + np.diag(rowpost.trace_cov(r))


def rowpost_from_cov(mean, cov):
    """``RowPosteriors`` with row means ``mean`` (d, k) and covariances
    ``cov`` (d, k, k), factored row by row (one group per row): the basis
    of row r holds the eigenvectors of cov_r, with their log|det| taken by
    ``slogdet``, and s_r the reciprocals of its eigenvalues, inf where an
    eigenvalue is 0 (a point-mass direction)."""
    e, basis = np.linalg.eigh(cov)
    s = np.full_like(e, np.inf)
    np.divide(1.0, e, out=s, where=e > 0)
    return RowPosteriors(mean=np.asarray(mean, dtype=float), basis=basis,
                         group=np.arange(e.shape[0]), s=s,
                         logdet_basis=np.linalg.slogdet(basis)[1])


def update_q_vtilde_rows_batched(c_p, r_p, wpost, alphapost, hyper,
                                 kappa=1.0):
    """``update_q_vtilde_rows`` through the dense (d, k, k) precision stack
    diag(E[alpha], beta_r) + wbar_rr R': one batched Cholesky and its
    batched inverse; the means solve the dense (d k, d k) system
    (Wbar kron R' + block-diag(D_r)) vec(M) = vec(B) with row-major vec.
    Returns ``(mean, cov, prec, logdet)``."""
    d, k = c_p.shape
    wbar = wpost.e_w
    mu0, beta = _mean_prior(hyper, d)
    prior = np.zeros((d, k, k))  # D_r
    cols = np.arange(k - 1)
    prior[:, cols, cols] = alphapost.e_alpha
    prior[:, k - 1, k - 1] = beta
    prec = np.diag(wbar)[:, None, None] * sym(r_p) + prior
    chol = np.linalg.cholesky(prec)
    chol_inv = np.linalg.inv(chol)
    prec_inv = np.swapaxes(chol_inv, 1, 2) @ chol_inv
    rhs = wbar @ c_p
    rhs[:, k - 1] += beta * mu0
    system = np.kron(wbar, sym(r_p)) + scipy.linalg.block_diag(*prior)
    mean = np.linalg.solve(system, rhs.ravel()).reshape(d, k)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return mean, sym(prec_inv / kappa), prec, logdet


def gauss_seidel_row_means(c_p, r_p, wpost, alphapost, hyper, mean,
                           order=None):
    """One Gauss-Seidel pass over the row means of [V | mu] from ``mean``,
    in the row order ``order`` (default ascending), the row update the
    package used before its joint solve: row r solves its own
    stationarity condition with the newest means of the other rows."""
    d, k = c_p.shape
    wbar = wpost.e_w
    mu0, beta = _mean_prior(hyper, d)
    rhs = wbar @ c_p
    rhs[:, k - 1] += beta * mu0
    mean = np.array(mean, dtype=float)
    for r in range(d) if order is None else order:
        l_r = np.diag(np.append(alphapost.e_alpha, beta[r])) + wbar[r, r] * r_p
        v_w = mean.T @ wbar[r] - wbar[r, r] * mean[r]
        mean[r] = np.linalg.solve(l_r, rhs[r] - r_p @ v_w)
    return mean


def inv_pd_two_solves(a):
    """Inverse of a symmetric positive-definite matrix through the jittered
    Cholesky factor L and two triangular solves, L^-T (L^-1 I)."""
    l = chol_with_jitter(a)
    x = scipy.linalg.solve_triangular(l, np.eye(a.shape[0]), lower=True)
    return sym(scipy.linalg.solve_triangular(l.T, x, lower=False))


def split_dataset_loops(phi, labels, sup_fraction, seed=0):
    """``synth.split_dataset`` with the supervised mask and the label remap
    each built by a Python loop over the i-vectors."""
    rng = np.random.default_rng(seed)
    speakers = np.unique(labels)
    n_sup = max(1, int(round(sup_fraction * speakers.size)))
    sup_spk = set(rng.choice(speakers, size=n_sup, replace=False).tolist())
    sup_mask = np.array([l in sup_spk for l in labels])
    sup_labels_raw = labels[sup_mask]
    remap = {s: i for i, s in enumerate(np.unique(sup_labels_raw))}
    labels_d = np.array([remap[l] for l in sup_labels_raw], dtype=int)
    dataset = Dataset(phi=phi[~sup_mask], phi_d=phi[sup_mask], labels_d=labels_d)
    return dataset, labels[~sup_mask]


def pairwise_llr_matrix_separate(model, phi):
    """``synth.pairwise_llr_matrix`` with T and the Schur complement each
    factored twice, once by ``inv_pd`` and once by ``logdet_pd``."""
    between = model.v @ model.v.T
    total = between + inv_pd(model.w)
    total_inv = inv_pd(total)
    schur = sym(total - between @ total_inv @ between)
    q1 = inv_pd(schur)
    cross = sym(total_inv @ between @ q1)
    const = 0.5 * (logdet_pd(total) - logdet_pd(schur))
    x = phi - model.mu
    q = 0.5 * ((x @ (total_inv - q1)) * x).sum(axis=1)
    return sym(const + q[:, None] + q[None, :] + x @ cross @ x.T)


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


def fixed_param_elbo(variant, params, r):
    """The whole lower bound of ``variant`` (an ``adapt._Point`` or
    ``adapt._Bayes``) at responsibilities ``r`` with the parameters
    ``params`` held and q(Y), q(pi) refit at kappa = 1, through
    ``elbo_point`` or ``elbo_bayes``."""
    hyper, stats_d = variant.hyper, variant.stats_d
    stats = accumulate_stats(r, variant.phi)
    dirichlet = update_q_pi(stats.n, hyper.tau0)
    resp = Responsibilities(r=r)
    if isinstance(params, tuple):
        rowpost, wpost, alphapost = params
        expected = rowpost.expected(wpost)
        posts = update_q_y_bayes(stats, expected)
        posts_d = update_q_y_bayes(stats_d, expected)
        return elbo_bayes((stats, posts, accumulators(stats, posts)), resp,
                          dirichlet, rowpost, alphapost, wpost, hyper,
                          (stats_d, posts_d, accumulators(stats_d, posts_d)))[0]
    posts, posts_d = update_q_y(stats, params), update_q_y(stats_d, params)
    return elbo_point((stats, posts, accumulators(stats, posts)), resp,
                      dirichlet, params, hyper,
                      (stats_d, posts_d, accumulators(stats_d, posts_d)))[0]


def _draw_rows(rows, n, rng):
    """``n`` draws of the independent Gaussian rows of a ``GaussianRows``
    block, as (n, R, k), and the (n,) ln q of each draw."""
    dists = [multivariate_normal(mean, cov)
             for mean, cov in zip(rows.mean, dense_cov(rows))]
    x = np.stack([dist.rvs(size=n, random_state=rng).reshape(n, -1)
                  for dist in dists], axis=1)
    return x, sum(dist.logpdf(x[:, i]) for i, dist in enumerate(dists))


def _gauss_loglik(x, mean, w):
    """(n,) sum_j ln N(x_j | mean_j, W^-1) of each draw: ``mean`` is
    (n, N, d) and ``w`` (n, d, d)."""
    diff = x - mean
    ln_w = np.linalg.slogdet(w)[1]
    return 0.5 * x.shape[0] * (ln_w - x.shape[1] * np.log(2.0 * np.pi)) \
        - 0.5 * np.einsum("snd,sde,sne->s", diff, w, diff)


def monte_carlo_bound(dataset, bound_args, n, rng):
    """(n,) draws of ln p(Phi, Z) - ln q(Z), whose mean is the lower bound
    of a held state.  ``bound_args`` are the arguments a sweep passed to
    ``elbo_point`` (block, resp, dirichlet, model, hyper, block_d) or to
    ``elbo_bayes`` (block, resp, dirichlet, rowpost, alphapost, wpost,
    hyper, block_d).  Z is drawn from the factors these hold: Y, Y_d,
    theta and pi, and for the Bayesian variant also [V | mu], W and
    alpha, with W ~ Wishart(dof, k^-1) from the posterior's ``dof`` and
    ``k``.  The labelled terms carry the weight eta, and the improper
    prior ln p(W) = -(d + 1)/2 ln|W| drops its constant, as the bound
    does."""
    (_, posts, _), resp, q_pi = bound_args[:3]
    hyper, (_, posts_d, _) = bound_args[-2:]
    y, lnq_y = _draw_rows(posts, n, rng)
    y_d, lnq_y_d = _draw_rows(posts_d, n, rng)
    r = resp.r
    # theta_j by inverting row j's cumulative sums at a uniform draw
    theta = np.minimum(
        (np.cumsum(r, axis=1) < rng.random((n, r.shape[0], 1))).sum(axis=2),
        r.shape[1] - 1)
    pi = dirichlet(q_pi.tau).rvs(size=n, random_state=rng)
    ln_p = norm.logpdf(y).sum(axis=(1, 2)) \
        + np.log(np.take_along_axis(pi, theta, axis=1)).sum(axis=1) \
        + dirichlet(np.full(r.shape[1], hyper.tau0)).logpdf(pi.T) \
        + hyper.eta * norm.logpdf(y_d).sum(axis=(1, 2))
    ln_q = lnq_y + hyper.eta * lnq_y_d \
        + np.log(r[np.arange(r.shape[0]), theta]).sum(axis=1) \
        + dirichlet(q_pi.tau).logpdf(pi.T)
    if len(bound_args) == 6:  # point estimates of [V | mu] and W
        model = bound_args[3]
        vt = np.broadcast_to(model.vtilde, (n,) + model.vtilde.shape)
        w = np.broadcast_to(model.w, (n,) + model.w.shape)
    else:
        rowpost, alphapost, wpost = bound_args[3:6]
        d, n_y = rowpost.d, rowpost.n_y
        vt, lnq_vt = _draw_rows(rowpost, n, rng)
        q_w = wishart(df=wpost.dof, scale=np.linalg.inv(wpost.k))
        w = q_w.rvs(size=n, random_state=rng).reshape(n, d, d)
        q_alpha = gamma(alphapost.a_prime, scale=1.0 / alphapost.b_prime)
        alpha = q_alpha.rvs(size=(n, n_y), random_state=rng)
        mu0 = np.zeros(d) if hyper.mu0 is None else hyper.mu0
        ln_p = ln_p + norm.logpdf(vt[:, :, :n_y],
                                  scale=alpha[:, None, :] ** -0.5).sum(axis=(1, 2)) \
            + gamma(hyper.a_alpha, scale=1.0 / hyper.b_alpha).logpdf(alpha).sum(axis=1) \
            + norm.logpdf(vt[:, :, n_y], loc=mu0,
                          scale=np.asarray(hyper.beta) ** -0.5).sum(axis=1) \
            - 0.5 * (d + 1.0) * np.linalg.slogdet(w)[1]
        ln_q = ln_q + lnq_vt + q_w.logpdf(w.transpose(1, 2, 0)) \
            + q_alpha.logpdf(alpha).sum(axis=1)
    v, mu = vt[:, :, :-1], vt[:, None, :, -1]
    y_theta = np.take_along_axis(y, theta[:, :, None], axis=1)
    ln_p = ln_p + _gauss_loglik(dataset.phi, mu + y_theta @ np.swapaxes(v, 1, 2), w) \
        + hyper.eta * _gauss_loglik(
            dataset.phi_d, mu + y_d[:, dataset.labels_d] @ np.swapaxes(v, 1, 2), w)
    return ln_p - ln_q


def empty_block(d, n_y):
    """A block ``(stats, posteriors, acc)`` of no speakers."""
    stats = SuffStats(n=np.zeros(0), f=np.zeros((0, d)), s=np.zeros((d, d)))
    posts = SpeakerPosteriors.from_pair(
        np.zeros((n_y, n_y)), np.zeros(0), np.zeros((0, n_y)))
    return stats, posts, accumulators(stats, posts)


def padded_hard_elbo(sample, model, tau0):
    """The bound of one hard sampler draw through ``elbo_point``, with an
    empty labelled block and a responsibility matrix without rows (zero
    entropy): what ``adapt._hard_elbo`` must equal."""
    n = sample[0].n
    return elbo_point(sample, Responsibilities(r=np.zeros((0, n.shape[0]))),
                      update_q_pi(n, tau0), model, Hyperparams(tau0=tau0),
                      empty_block(model.d, model.n_y))[0]


def format_row_per_value(row):
    """One line of a text file, one ``%.17g`` per value."""
    return " ".join("%.17g" % x for x in np.atleast_1d(row))


def _rows_text(x):
    return "".join(format_row_per_value(row) + "\n" for row in x)


def matrix_text(x):
    """The bytes of an ``IVEC`` file holding ``x``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return f"IVEC {x.shape[0]} {x.shape[1]}\n" + _rows_text(x)


def labels_text(labels):
    return "".join(f"{l}\n" for l in np.asarray(labels, dtype=int))


def model_text(model, bayes_state=None):
    """The bytes of a model file, section by section."""
    f = format_row_per_value
    out = [f"SPLDA {model.d} {model.n_y}\n", "MU\n", f(model.mu) + "\n",
           "V\n", _rows_text(model.v), "W\n", _rows_text(model.w)]
    if bayes_state is not None:
        rowpost, wpost = bayes_state["rowpost"], bayes_state["wpost"]
        alphapost, hyper = bayes_state["alphapost"], bayes_state["hyper"]
        out += ["BAYES\n", "VT_MEAN\n", _rows_text(rowpost.mean), "VT_PREC\n"]
        out += [_rows_text(block) for block in rowpost.prec]
        out += ["ALPHA\n", f(alphapost.a_prime) + "\n",
                f(alphapost.b_prime) + "\n",
                "WISHART\n", f(wpost.dof) + "\n", _rows_text(wpost.k),
                "HYPER\n"]
        out += [f"{key} {f(getattr(hyper, key))}\n"
                for key in ("tau0", "eta", "a_alpha", "b_alpha", "mu0", "beta")]
    return "".join(out)


def parse_matrix_rows(path):
    """An ``IVEC`` file parsed one row at a time by numpy's conversion of a
    list of strings."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows, cols = (int(v) for v in lines[0].split()[1:])
    body = np.empty((rows, cols))
    for i in range(rows):
        body[i] = lines[i + 1].split()
    return body


def closest_pairs_oracle(ybar, n_pairs=6):
    """Double-loop reference for ``adapt._closest_posterior_pairs``."""
    m = ybar.shape[0]
    dists = [(float(np.linalg.norm(ybar[i] - ybar[j])), i, j)
             for i in range(m) for j in range(i + 1, m)]
    dists.sort()
    return [(i, j) for _, i, j in dists[:n_pairs]]
