import types
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma, multigammaln
from scipy.stats import dirichlet as dirichlet_dist
from scipy.stats import entropy as categorical_entropy
from scipy.stats import gamma as gamma_dist
from scipy.stats import multivariate_normal, wishart

from spldavb.adapt import RunConfig, run_adaptation, train_supervised
from spldavb.linalg import NotPositiveDefiniteError, inv_pd, logdet_pd, sym
from spldavb.model import Dataset, SpldaModel, accumulate_stats, center_stats
from spldavb.synth import SynthSpec, generate, split_dataset
from spldavb.vbbayes import (
    AlphaPosterior,
    RowPosteriors,
    WishartPosterior,
    _ln_multigamma,
    _ln_wishart_b,
    _wishart_digamma_sum,
    elbo_bayes,
    optimize_hyper_alpha,
    optimize_hyper_mu,
    update_q_alpha,
    update_q_theta_bayes,
    update_q_vtilde_rows,
    update_q_wishart,
    update_q_y_bayes,
)
from spldavb.vbpoint import (
    DirichletPosterior,
    Hyperparams,
    SpeakerPosteriors,
    _cluster_terms,
    _ln_dirichlet_c,
    _ln_dirichlet_prior,
    accumulators,
    mstep_W,
    mstep_tau0,
    update_q_pi,
    update_q_theta,
    update_q_y,
)
from splda_oracles import (
    dense_cov,
    dense_prec,
    e_vt_r_vt,
    e_vt_w_vt,
    empty_block,
    gauss_seidel_row_means,
    log_weights,
    rowpost_from_cov,
    update_q_vtilde_rows_batched,
)


def random_model(rng, d, n_y):
    a = rng.standard_normal((d, d))
    return SpldaModel(
        mu=rng.standard_normal(d),
        v=rng.standard_normal((d, n_y)),
        w=a @ a.T + d * np.eye(d),
    )


def random_rowpost(rng, d, n_y):
    k = n_y + 1
    mean = rng.standard_normal((d, k))
    cov = np.empty((d, k, k))
    for r in range(d):
        a = rng.standard_normal((k, k))
        cov[r] = sym(a @ a.T / k + np.eye(k))
    return rowpost_from_cov(mean, cov)


def block_accumulators(state):
    """The accumulators (C, R) of both blocks of an ``elbo_bayes`` state."""
    stats, stats_d, posts, posts_d = state[:4]
    return accumulators(stats, posts), accumulators(stats_d, posts_d)


def state_elbo(state):
    """``elbo_bayes`` of an ``elbo_bayes`` state, with both blocks."""
    stats, stats_d, posts, posts_d, *rest = state
    acc, acc_d = block_accumulators(state)
    return elbo_bayes((stats, posts, acc), *rest, (stats_d, posts_d, acc_d))


def random_problem(rng, n, m, d, n_y):
    model = random_model(rng, d, n_y)
    resp = rng.random((n, m))
    resp /= resp.sum(axis=1, keepdims=True)
    phi = rng.standard_normal((n, d))
    stats = accumulate_stats(resp, phi)
    return model, phi, stats


class TestDegenerateReduction:
    def test_q_y_matches_point_variant(self):
        rng = np.random.default_rng(30)
        model, phi, stats = random_problem(rng, 25, 4, 5, 2)
        rowpost = RowPosteriors.point_mass(model.vtilde)
        wpost = WishartPosterior.point_mass(model.w)
        bayes = update_q_y_bayes(stats, rowpost.expected(wpost))
        point = update_q_y(center_stats(stats, model.mu), model)
        np.testing.assert_allclose(bayes.ybar, point.ybar, atol=1e-12)
        np.testing.assert_allclose(dense_prec(bayes), dense_prec(point),
                                   atol=1e-12)

    def test_q_theta_matches_point_variant(self):
        rng = np.random.default_rng(31)
        model, phi, stats = random_problem(rng, 25, 4, 5, 2)
        posts = update_q_y(center_stats(stats, model.mu), model)
        dirichlet = update_q_pi(stats.n, tau0=1.0)
        rowpost = RowPosteriors.point_mass(model.vtilde)
        wpost = WishartPosterior.point_mass(model.w)
        bayes = update_q_theta_bayes(phi, posts, rowpost.expected(wpost),
                                     dirichlet)
        point = update_q_theta(phi, posts, model, dirichlet)
        np.testing.assert_allclose(bayes.r, point.r, atol=1e-12)
        ex = rowpost.expected(wpost)
        mean = SpldaModel(mu=ex.mu, v=ex.v, w=ex.w)
        np.testing.assert_allclose(
            log_weights(phi, posts, mean, dirichlet, ln_w=ex.ln_w, u=ex.u),
            log_weights(phi, posts, model, dirichlet), atol=1e-10)

    def test_q_wishart_matches_point_mstep(self):
        rng = np.random.default_rng(32)
        model, phi, stats = random_problem(rng, 30, 3, 4, 2)
        posts = update_q_y(center_stats(stats, model.mu), model)
        c, r = accumulators(stats, posts)
        rowpost = RowPosteriors.point_mass(model.vtilde)
        wpost = update_q_wishart(stats.s, c, r, rowpost, stats.n_total)
        w_point = mstep_W(stats.s, c, r, model.vtilde, stats.n_total)
        np.testing.assert_allclose(
            wpost.e_w / stats.n_total * stats.n_total, wpost.e_w)
        np.testing.assert_allclose(wpost.e_w, w_point, rtol=1e-10)


class TestExpectationIdentities:
    def test_vt_w_vt_monte_carlo(self):
        rng = np.random.default_rng(33)
        d, n_y = 3, 1
        rowpost = random_rowpost(rng, d, n_y)
        a = rng.standard_normal((d, d))
        scale = sym(a @ a.T / d + np.eye(d))
        dof = d + 4.0
        k = inv_pd(scale * dof) * dof
        wpost = WishartPosterior.from_update(k, dof)
        analytic = e_vt_w_vt(rowpost, wpost)
        n_draws = 60_000
        chols = np.linalg.cholesky(dense_cov(rowpost))
        acc = np.zeros_like(analytic)
        # At kappa = 1, q(W) has dof N' and scale K^-1.
        ws = wishart(df=dof, scale=inv_pd(sym(k))).rvs(
            size=n_draws, random_state=rng)
        for t in range(n_draws):
            vt = rowpost.mean + np.einsum(
                "rab,rb->ra", chols, rng.standard_normal((d, n_y + 1)))
            acc += vt.T @ ws[t] @ vt
        mc = acc / n_draws
        rel = np.abs(mc - analytic).max() / np.abs(analytic).max()
        assert rel < 0.02

    def test_vt_r_vt_monte_carlo(self):
        rng = np.random.default_rng(34)
        d, n_y = 4, 2
        rowpost = random_rowpost(rng, d, n_y)
        a = rng.standard_normal((n_y + 1, n_y + 1))
        r = sym(a @ a.T + np.eye(n_y + 1))
        analytic = e_vt_r_vt(rowpost, r)
        n_draws = 60_000
        chols = np.linalg.cholesky(dense_cov(rowpost))
        acc = np.zeros((d, d))
        for _ in range(n_draws):
            vt = rowpost.mean + np.einsum(
                "rab,rb->ra", chols, rng.standard_normal((d, n_y + 1)))
            acc += vt @ r @ vt.T
        mc = acc / n_draws
        rel = np.abs(mc - analytic).max() / np.abs(analytic).max()
        assert rel < 0.02

    def test_e_vq_vq_from_moments(self):
        rng = np.random.default_rng(35)
        rowpost = random_rowpost(rng, 5, 2)
        oracle, cov = np.zeros(2), dense_cov(rowpost)
        for q in range(2):
            oracle[q] = sum(cov[r, q, q] + rowpost.mean[r, q] ** 2
                            for r in range(5))
        np.testing.assert_allclose(rowpost.e_vq_vq(), oracle, rtol=1e-12)


class TestRowPosteriorStorage:
    def test_point_mass_precision_is_infinite_on_the_diagonal(self):
        # A 0 * inf product would raise under the suite's
        # error::RuntimeWarning filter.
        prec = RowPosteriors.point_mass(np.ones((3, 2))).prec
        np.testing.assert_array_equal(
            prec, np.broadcast_to([[np.inf, 0.0], [0.0, np.inf]], (3, 2, 2)))

    def test_frozen_and_read_only(self):
        rng = np.random.default_rng(37)
        rowpost = random_rowpost(rng, 4, 2)
        for name in ("mean", "basis", "group", "s", "kappa"):
            with pytest.raises(FrozenInstanceError):
                setattr(rowpost, name, getattr(rowpost, name))
        for name in ("basis", "group", "s"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(rowpost, name)[0] = 0
        # The log-determinants read the cached log|det P_g|.
        np.testing.assert_array_equal(
            rowpost.logdet_prec(),
            np.log(rowpost.s).sum(axis=1)
            - 2.0 * np.linalg.slogdet(rowpost.basis)[1][rowpost.group])


def _assert_rows_stationary(rowpost, c_p, r_p, wpost, alphapost, hyper):
    """Each row mean solves its own stationarity condition given the
    means of all the other rows: the joint maximiser of the bound."""
    d, n_y = rowpost.d, rowpost.n_y
    wbar = wpost.e_w
    beta = np.broadcast_to(np.asarray(hyper.beta), (d,))
    mean = rowpost.mean
    for r in range(d):
        l_r = np.diag(np.append(alphapost.e_alpha, beta[r])) \
            + wbar[r, r] * r_p
        rhs = c_p.T @ wbar[r] - r_p @ (mean.T @ wbar[r]) \
            + wbar[r, r] * (r_p @ mean[r])
        rhs[n_y] += beta[r] * hyper.mu0[r]
        residual = np.abs(l_r @ mean[r] - rhs).max()
        assert residual < 1e-9


class TestRowUpdates:
    def _hyper(self, rng, d):
        return Hyperparams(mu0=rng.standard_normal(d), beta=0.5)

    def test_joint_stationarity_after_convergence(self):
        # The step is the joint maximiser, so one call converges, for one
        # beta, two values or one value per row.
        rng = np.random.default_rng(36)
        d, n_y = 3, 2
        model, phi, stats = random_problem(rng, 30, 4, d, n_y)
        posts = update_q_y(center_stats(stats, model.mu), model)
        c_p, r_p = accumulators(stats, posts)
        wpost = WishartPosterior.point_mass(model.w)
        alphapost = AlphaPosterior(a_prime=2.0, b_prime=np.array([1.0, 3.0]))
        for kind in ("scalar", "two-valued", "distinct"):
            hyper = Hyperparams(mu0=rng.standard_normal(d),
                                beta=_random_beta(rng, d, kind))
            rowpost = update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper)
            _assert_rows_stationary(rowpost, c_p, r_p, wpost, alphapost, hyper)

    def test_diagonal_w_decouples_rows(self):
        rng = np.random.default_rng(37)
        d, n_y = 4, 2
        model, phi, stats = random_problem(rng, 25, 3, d, n_y)
        posts = update_q_y(center_stats(stats, model.mu), model)
        c_p, r_p = accumulators(stats, posts)
        w_diag = np.diag(rng.random(d) + 1.0)
        wpost = WishartPosterior.point_mass(w_diag)
        alphapost = AlphaPosterior(a_prime=1.5, b_prime=np.ones(n_y))
        hyper = self._hyper(rng, d)
        rowpost = update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper)
        beta = 0.5
        for r in range(d):
            l_r = np.diag(np.append(alphapost.e_alpha, beta)) \
                + w_diag[r, r] * r_p
            rhs = w_diag[r, r] * c_p[r]
            rhs = rhs + 0.0
            rhs[n_y] += beta * hyper.mu0[r]
            np.testing.assert_allclose(rowpost.mean[r],
                                       np.linalg.solve(l_r, rhs), atol=1e-10)

    def test_strong_priors_dominate(self):
        rng = np.random.default_rng(38)
        d, n_y = 3, 2
        model, phi, stats = random_problem(rng, 20, 3, d, n_y)
        posts = update_q_y(center_stats(stats, model.mu), model)
        c_p, r_p = accumulators(stats, posts)
        wpost = WishartPosterior.point_mass(model.w)
        alphapost = AlphaPosterior(a_prime=1e12, b_prime=np.ones(n_y))
        mu0 = rng.standard_normal(d)
        hyper = Hyperparams(mu0=mu0, beta=1e12)
        rowpost = update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper)
        np.testing.assert_allclose(rowpost.vbar, 0.0, atol=1e-6)
        np.testing.assert_allclose(rowpost.mubar, mu0, atol=1e-6)

    def test_one_sweep_matches_row_loop_oracle(self):
        # Precisions row by row; the means from the dense (d k, d k)
        # system Wbar kron R' + I kron D, with row-major vec.
        rng = np.random.default_rng(39)
        d, n_y = 4, 2
        model, phi, stats = random_problem(rng, 25, 3, d, n_y)
        posts = update_q_y(center_stats(stats, model.mu), model)
        c_p, r_p = accumulators(stats, posts)
        wpost = WishartPosterior.point_mass(model.w)
        alphapost = AlphaPosterior(a_prime=1.5, b_prime=np.array([0.5, 2.0]))
        hyper = self._hyper(rng, d)
        wbar = wpost.e_w
        prior = np.diag(np.append(alphapost.e_alpha, 0.5))
        rhs = wbar @ c_p
        rhs[:, n_y] += 0.5 * hyper.mu0
        mean = np.linalg.solve(np.kron(wbar, r_p) + np.kron(np.eye(d), prior),
                               rhs.ravel()).reshape(d, n_y + 1)
        for kappa in (1.0, 0.4):
            rowpost = update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper,
                                           kappa)
            for r in range(d):
                l_r = prior + wbar[r, r] * r_p
                np.testing.assert_allclose(rowpost.prec[r], kappa * l_r,
                                           atol=1e-12)
                np.testing.assert_allclose(dense_cov(rowpost)[r],
                                           np.linalg.inv(l_r) / kappa, atol=1e-10)
                assert rowpost.logdet_prec()[r] == pytest.approx(
                    np.linalg.slogdet(l_r)[1], abs=1e-10)
            np.testing.assert_allclose(rowpost.mean, mean, atol=1e-10)

    @pytest.mark.parametrize("beta_kind", ["scalar", "two-valued", "distinct"])
    def test_gauss_seidel_passes_converge_to_the_step(self, beta_kind):
        # Repeated row-by-row passes, each row exact given the newest
        # others, approach the joint solution in any row order.
        rng = np.random.default_rng(41)
        d, n_y = 6, 3
        c_p, r_p, wpost, alphapost = _row_inputs(rng, d, n_y)
        hyper = Hyperparams(mu0=rng.standard_normal(d),
                            beta=_random_beta(rng, d, beta_kind))
        rowpost = update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper)
        for order in (np.arange(d), rng.permutation(d)):
            mean = rng.standard_normal((d, n_y + 1))
            for _ in range(3000):
                prev = mean
                mean = gauss_seidel_row_means(c_p, r_p, wpost, alphapost,
                                              hyper, mean, order)
                if np.abs(mean - prev).max() < 1e-15:
                    break
            _rel_check(rowpost.mean, mean)

    def test_singular_row_is_named(self):
        d, n_y = 3, 1
        wpost = WishartPosterior.point_mass(np.diag([1e-3, 1e-3, 10.0]))
        alphapost = AlphaPosterior(a_prime=1.0, b_prime=np.ones(n_y))
        with pytest.raises(np.linalg.LinAlgError, match="row 2 "):
            update_q_vtilde_rows(
                np.zeros((d, n_y + 1)), -np.eye(n_y + 1), wpost, alphapost,
                Hyperparams(mu0=np.zeros(d), beta=1.0))

    def test_run_builds_no_dense_row_stack(self, monkeypatch):
        # Every sweep reads the rows through their factors: the package has
        # no dense (d, k, k) covariances, and reading the dense precisions
        # would raise here.
        def dense(self):
            raise AssertionError("a sweep read a dense row stack")

        assert not hasattr(RowPosteriors, "cov")
        monkeypatch.setattr(RowPosteriors, "prec", property(dense))
        phi, labels, _ = generate(SynthSpec(d=6, n_y=2, m_true=4,
                                            per_speaker=10,
                                            eigenvoice_scale=3.0, seed=5))
        dataset, _ = split_dataset(phi, labels, 0.5, seed=5)
        model = train_supervised(dataset.phi_d, dataset.labels_d, 2,
                                 seed=5).model
        report = run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=6, variant="bayes", init_method="random_y", anneal=True,
            prune_merge=True, prune_every=3, max_iter=20,
            hyper_opt_alpha=True, hyper_opt_mu=True, seed=5))
        assert len(report.elbo_trace) > 1
        assert np.isfinite(report.elbo_trace).all()

    def test_unset_beta_is_named(self):
        # An unset beta used to become NaN means and log-determinants.
        rng = np.random.default_rng(37)
        state = list(TestElboBayes()._full_state(rng))
        rowpost, alphapost, wpost = state[6:9]
        (c, r), _ = block_accumulators(state)
        state[9] = Hyperparams()
        with pytest.raises(ValueError, match="beta"):
            update_q_vtilde_rows(c, r, wpost, alphapost, state[9])
        with pytest.raises(ValueError, match="beta"):
            state_elbo(state)

    def test_unset_mu0_is_named(self):
        # run_adaptation fills mu0 from the data; called directly, the row
        # update and the bound have no default for it, as for beta.
        rng = np.random.default_rng(37)
        state = list(TestElboBayes()._full_state(rng))
        rowpost, alphapost, wpost = state[6:9]
        (c, r), _ = block_accumulators(state)
        state[9] = Hyperparams(beta=1.0)
        with pytest.raises(ValueError, match="Hyperparams.mu0 is unset"):
            update_q_vtilde_rows(c, r, wpost, alphapost, state[9])
        with pytest.raises(ValueError, match="Hyperparams.mu0 is unset"):
            state_elbo(state)


def _random_beta(rng, d, kind):
    """A mean-prior precision of one value, two values or d values."""
    if kind == "scalar":
        return rng.uniform(0.1, 2.0)
    if kind == "two-valued":
        return rng.uniform(0.1, 2.0, 2)[np.arange(d) % 2]
    return rng.uniform(0.1, 2.0, d)


def _rel_check(actual, oracle):
    np.testing.assert_allclose(actual, oracle, rtol=1e-10,
                               atol=1e-10 * np.abs(oracle).max())


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.integers(1, 5),
       st.sampled_from(["scalar", "two-valued", "distinct"]),
       st.sampled_from([1.0, 0.4]), st.integers(0, 2**31 - 1))
def test_factored_rows_match_batched_oracle(d, n_y, beta_kind, kappa, seed):
    rng = np.random.default_rng(seed)
    k = n_y + 1
    a = rng.standard_normal((d, d))
    wpost = WishartPosterior.point_mass(
        a @ a.T + rng.uniform(0.1, 2.0) * np.eye(d))
    b = rng.standard_normal((k, k + 2))
    r_p = b @ b.T * rng.uniform(0.1, 10.0)
    c_p = rng.standard_normal((d, k))
    alphapost = AlphaPosterior(a_prime=rng.uniform(0.5, 3.0),
                               b_prime=rng.uniform(0.2, 5.0, n_y))
    hyper = Hyperparams(mu0=rng.standard_normal(d),
                        beta=_random_beta(rng, d, beta_kind))
    rowpost = update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper, kappa)
    mean, cov, prec, logdet = update_q_vtilde_rows_batched(
        c_p, r_p, wpost, alphapost, hyper, kappa)
    wbar = wpost.e_w
    _rel_check(rowpost.mean, mean)
    _rel_check(dense_cov(rowpost), cov)
    _rel_check(rowpost.prec, kappa * prec)
    _rel_check(rowpost.logdet_prec(), logdet)
    _rel_check(rowpost.sum_cov(wbar.diagonal()), np.einsum("r,rab->ab", np.diag(wbar), cov))
    _rel_check(rowpost.trace_cov(r_p), np.einsum("ab,rab->r", r_p, cov))
    _rel_check(rowpost.e_vq_vq(), np.einsum("rqq->q", cov[:, :n_y, :n_y])
               + (mean[:, :n_y] ** 2).sum(axis=0))
    _rel_check(rowpost.sigma_mu(), cov[:, n_y, n_y])
    # The same checks on a single-group q(Y) block of d speakers from the
    # same draw: L_i = I + n_i G with G = R'_yy and n_i = wbar_ii.
    n, g = np.diag(wbar), r_p[:n_y, :n_y]
    posts = SpeakerPosteriors.from_pair(g, n, c_p[:, :n_y], kappa)
    prec_y = np.eye(n_y) + n[:, None, None] * g
    cov_y = np.linalg.inv(prec_y) / kappa
    ybar = np.linalg.solve(prec_y, c_p[:, :n_y, None])[:, :, 0]
    _rel_check(posts.ybar, ybar)
    _rel_check(dense_cov(posts), cov_y)
    _rel_check(posts.prec, kappa * prec_y)
    _rel_check(posts.logdet_prec(), np.linalg.slogdet(prec_y)[1])
    _rel_check(posts.sum_cov(n), np.einsum("r,rab->ab", n, cov_y))
    _rel_check(posts.trace_cov(g), np.einsum("ab,rab->r", g, cov_y))
    _rel_check(posts.sum_e_yy(n), np.einsum("r,rab->ab", n, cov_y)
               + (ybar * n[:, None]).T @ ybar)
    _rel_check(posts.trace_e_yy(g), np.einsum("ab,rab->r", g, cov_y)
               + np.einsum("ra,ab,rb->r", ybar, g, ybar))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["single", "multi"]), st.integers(1, 8),
       st.integers(1, 5), st.sampled_from([1.0, 0.4]),
       st.integers(0, 2**31 - 1))
def test_mapped_rows_are_the_affine_image(kind, rows, k, kappa, seed):
    # x' = A x + b maps the means to A m + b, the covariances to
    # A Sigma A^T and log|L| by -2 ln|det A|: the rotation that q(Y) and
    # the rows of q([V | mu]) share.
    rng = np.random.default_rng(seed)
    if kind == "single":
        a = rng.standard_normal((k, k + 2))
        block = SpeakerPosteriors.from_pair(
            a @ a.T, rng.uniform(0.0, 20.0, rows),
            rng.standard_normal((rows, k)), kappa)
    else:
        n_groups = rng.integers(1, 4)
        s = rng.uniform(0.1, 10.0, (rows, k))
        s[1:][rng.random(rows - 1) < 0.3] = np.inf  # point masses
        basis = np.eye(k) + 0.4 * rng.standard_normal((n_groups, k, k))
        block = RowPosteriors(
            mean=rng.standard_normal((rows, k)), basis=basis,
            group=rng.integers(0, n_groups, rows), s=s,
            logdet_basis=np.linalg.slogdet(basis)[1], kappa=kappa)
    a = np.eye(k) + 0.4 * rng.standard_normal((k, k))
    b = rng.standard_normal(k)
    mapped = block.mapped(a, b)
    assert type(mapped) is type(block)
    np.testing.assert_array_equal(mapped.s, block.s)
    _rel_check(mapped.mean, np.einsum("ab,rb->ra", a, block.mean) + b)
    _rel_check(dense_cov(mapped), a @ dense_cov(block) @ a.T)
    finite = np.isfinite(block.s).all(axis=1)
    _rel_check(mapped.logdet_prec()[finite], block.logdet_prec()[finite]
               - 2.0 * np.linalg.slogdet(a)[1])
    assert np.isposinf(mapped.logdet_prec()[~finite]).all()


class TestAlphaUpdate:
    def test_shape_parameter(self):
        d = 100
        rowpost = RowPosteriors.point_mass(np.zeros((d, 3)))
        hyper = Hyperparams(a_alpha=1e-3, b_alpha=1e-3)
        post = update_q_alpha(rowpost, hyper)
        assert post.a_prime == pytest.approx(50.001)
        np.testing.assert_allclose(post.b_prime, 1e-3)

    def test_rate_from_column_norms(self):
        rng = np.random.default_rng(39)
        rowpost = random_rowpost(rng, 4, 2)
        hyper = Hyperparams(a_alpha=0.5, b_alpha=2.0)
        post = update_q_alpha(rowpost, hyper)
        np.testing.assert_allclose(
            post.b_prime, 2.0 + 0.5 * rowpost.e_vq_vq(), rtol=1e-12)

    def test_kappa_one_bit_identical(self):
        rng = np.random.default_rng(40)
        rowpost = random_rowpost(rng, 3, 2)
        hyper = Hyperparams(a_alpha=1e-3, b_alpha=1e-3)
        a = update_q_alpha(rowpost, hyper, kappa=1.0)
        b = update_q_alpha(rowpost, hyper)
        assert a.a_prime == b.a_prime
        np.testing.assert_array_equal(a.b_prime, b.b_prime)

    def test_annealed_formula(self):
        rng = np.random.default_rng(41)
        rowpost = random_rowpost(rng, 3, 1)
        hyper = Hyperparams(a_alpha=0.1, b_alpha=0.2)
        post = update_q_alpha(rowpost, hyper, kappa=0.5)
        assert post.a_prime == pytest.approx(0.5 * (0.1 + 1.5 - 1.0) + 1.0)
        np.testing.assert_allclose(
            post.b_prime, 0.5 * (0.2 + 0.5 * rowpost.e_vq_vq()), rtol=1e-12)


class TestWishartPosterior:
    def test_identity_scale_expectation(self):
        post = WishartPosterior.from_update(np.eye(2), 5.0)
        np.testing.assert_allclose(post.e_w, 5.0 * np.eye(2), atol=1e-12)
        expected = digamma(2.5) + digamma(2.0) + 2.0 * np.log(2.0)
        assert post.e_ln_w == pytest.approx(expected)

    def test_log_determinant_monte_carlo(self):
        rng = np.random.default_rng(42)
        d = 3
        a = rng.standard_normal((d, d))
        k = sym(a @ a.T + d * np.eye(d))
        dof = 9.0
        post = WishartPosterior.from_update(k, dof)
        draws = wishart(df=dof, scale=inv_pd(k)).rvs(size=40_000,
                                                     random_state=rng)
        vals = np.array([logdet_pd(sym(w)) for w in draws])
        se = vals.std(ddof=1) / np.sqrt(vals.shape[0])
        assert abs(vals.mean() - post.e_ln_w) < 3.0 * se

    def test_rejects_low_dof(self):
        with pytest.raises(ValueError, match="dof"):
            WishartPosterior.from_update(np.eye(3), 3.0)

    def test_annealed_dof(self):
        d = 2
        post = WishartPosterior.from_update(np.eye(d), 10.0, kappa=0.5)
        # dof N' - (1 - kappa)(N' - d - 1) and scale K^-1 / kappa = 2 I:
        # E[W] = dof 2 I and E[ln|W|] = sum_i psi((dof + 1 - i) / 2)
        # + d ln 2 + ln|2 I|.
        dof = 0.5 * (10.0 - d - 1.0) + d + 1.0
        np.testing.assert_allclose(post.e_w, dof * 2.0 * np.eye(d), atol=1e-12)
        assert post.e_ln_w == pytest.approx(
            digamma(0.5 * (dof + 1.0 - np.arange(1, d + 1))).sum()
            + d * np.log(2.0) + d * np.log(2.0))

    def test_kappa_one_bit_identical(self):
        k = np.diag([2.0, 3.0])
        a = WishartPosterior.from_update(k, 7.0, kappa=1.0)
        b = WishartPosterior.from_update(k, 7.0)
        np.testing.assert_array_equal(a.e_w, b.e_w)
        assert a.e_ln_w == b.e_ln_w

    def test_annealed_log_determinant_expectation(self):
        rng = np.random.default_rng(42)
        d, dof, kappa = 4, 9.5, 0.4
        a = rng.standard_normal((d, d))
        k = a @ a.T + np.eye(d)
        post = WishartPosterior.from_update(k, dof, kappa=kappa)
        dof_eff = kappa * (dof - d - 1.0) + d + 1.0
        expected = digamma(0.5 * (dof_eff + 1.0 - np.arange(1, d + 1))).sum() \
            + d * np.log(2.0) + np.linalg.slogdet(np.linalg.inv(k) / kappa)[1]
        assert post.e_ln_w == pytest.approx(expected, rel=1e-12)

    def test_singular_scale_takes_the_jitter(self):
        a = np.random.default_rng(3).standard_normal((4, 4))
        a[2] = 0.0  # a zero row and column: singular, PD after the jitter
        k = a @ a.T
        assert np.linalg.eigh(k)[0].min() <= 0.0
        post = WishartPosterior.from_update(k, 9.0)
        e, q = np.linalg.eigh(k + 1e-10 * np.trace(k) / 4 * np.eye(4))
        np.testing.assert_array_equal(post.omega, 9.0 / e)
        np.testing.assert_array_equal(post.q, q)
        assert np.isfinite(post.e_ln_w) and np.isfinite(post.entropy)

    def test_indefinite_scale_is_rejected(self):
        with pytest.raises(NotPositiveDefiniteError, match="jitter"):
            WishartPosterior.from_update(np.diag([1.0, -1.0, 2.0]), 9.0)

    def test_point_mass_keeps_w_and_its_eigenpair(self):
        a = np.random.default_rng(4).standard_normal((3, 5))
        w = a @ a.T
        w[0, 1] += 1e-9  # not quite symmetric
        post = WishartPosterior.point_mass(w)
        e, q = np.linalg.eigh(sym(w))
        np.testing.assert_array_equal(post.e_w, sym(w))
        np.testing.assert_array_equal(post.omega, e)
        np.testing.assert_array_equal(post.q, q)
        assert post.e_ln_w == np.log(e).sum()

    def test_annealed_low_dof_names_kappa(self):
        # N' - (1 - kappa)(N' - d - 1) = 2.5 <= d = 3
        with pytest.raises(ValueError, match="kappa"):
            WishartPosterior.from_update(np.eye(3), 1.0, kappa=0.5)

    def test_annealed_run_rejects_dof_at_most_d_up_front(self):
        # N' = N + eta N_d = 2 + 0.1 * 6 = 2.6 <= d = 4, which kappa = 1
        # never accepts, though the tempered dof at kappa = 0.2 is 4.52 > d.
        phi_d = np.random.default_rng(0).standard_normal((6, 4))
        labels_d = np.repeat(np.arange(3), 2)
        model = train_supervised(phi_d, labels_d, 2, max_iter=5).model
        dataset = Dataset(phi=np.random.default_rng(2).standard_normal((2, 4)),
                          phi_d=phi_d, labels_d=labels_d)
        with pytest.raises(ValueError,
                           match=r"N' = 2\.6 <= d = 4 \(kappa = 0\.2\)"):
            run_adaptation(dataset, model, Hyperparams(eta=0.1), RunConfig(
                variant="bayes", init_method="random_y", m_init=1, anneal=True))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6),
       st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 6),
       st.floats(1e-3, 1e3), st.integers(0, 2**31 - 1))
def test_kappa_one_gives_untempered_closed_forms(counts, tau0, a, d, extra_dof,
                                                 seed):
    rng = np.random.default_rng(seed)
    counts = np.array(counts)
    np.testing.assert_array_equal(update_q_pi(counts, tau0, kappa=1.0).tau,
                                  counts + tau0)
    rowpost = random_rowpost(rng, d, 2)
    hyper = Hyperparams(a_alpha=a, b_alpha=0.5)
    alpha = update_q_alpha(rowpost, hyper, kappa=1.0)
    assert alpha.a_prime == a + 0.5 * d
    np.testing.assert_array_equal(alpha.b_prime, 0.5 + 0.5 * rowpost.e_vq_vq())
    x = rng.standard_normal((d, d))
    k = sym(x @ x.T + np.eye(d))
    dof = d + extra_dof
    wpost = WishartPosterior.from_update(k, dof, kappa=1.0)
    # E[W] = Q diag(dof / e) Q^T and log|K^-1| = -sum ln e from one eigh
    # of K = Q diag(e) Q^T.
    e, q = np.linalg.eigh(k)
    logdet_k = np.log(e).sum()
    np.testing.assert_array_equal(wpost.omega, dof / e)
    np.testing.assert_array_equal(wpost.q, q)
    np.testing.assert_array_equal(wpost.e_w, sym((q * (dof / e)) @ q.T))
    assert wpost.e_ln_w == digamma(0.5 * (dof + 1.0 - np.arange(1, d + 1))).sum() \
        + d * np.log(2.0) - logdet_k
    assert wpost.entropy == -(_ln_wishart_b(-logdet_k, dof, d)
                              + 0.5 * (dof - d - 1.0) * wpost.e_ln_w
                              - 0.5 * dof * d)


class TestElboBayes:
    def _full_state(self, rng, d=3, n_y=2, n=30, m=3):
        model, phi, stats = random_problem(rng, n, m, d, n_y)
        labels = rng.integers(0, 2, size=8)
        labels[:2] = [0, 1]
        phi_d = rng.standard_normal((8, d))
        r_d = np.zeros((8, 2))
        r_d[np.arange(8), labels] = 1.0
        stats_d = accumulate_stats(r_d, phi_d)
        hyper = Hyperparams(mu0=rng.standard_normal(d), beta=0.5,
                            a_alpha=1e-3, b_alpha=1e-3, eta=0.8)
        rowpost = random_rowpost(rng, d, n_y)
        wpost = WishartPosterior.from_update(
            sym(rng.standard_normal((d, d)) @ np.eye(d)
                @ rng.standard_normal((d, d)).T * 0.0 + (n + 4) * np.eye(d)),
            float(n))
        alphapost = update_q_alpha(rowpost, hyper)
        expected = rowpost.expected(wpost)
        posts = update_q_y_bayes(stats, expected)
        posts_d = update_q_y_bayes(stats_d, expected)
        dirichlet = update_q_pi(stats.n, tau0=1.0)
        resp = update_q_theta_bayes(phi, posts, expected, dirichlet)
        return (stats, stats_d, posts, posts_d, resp, dirichlet, rowpost,
                alphapost, wpost, hyper)

    def test_terms_sum_and_count(self):
        rng = np.random.default_rng(43)
        state = self._full_state(rng)
        total, terms = state_elbo(state)
        assert len(terms) == 17
        assert total == pytest.approx(sum(terms.values()), abs=1e-10)

    def test_scalar_and_constant_vector_beta_give_the_same_bits(self):
        # lnP(mu) reads beta @ E[(mu - mu0)^2]; a scalar beta is spelled
        # as the same contiguous vector, so numpy sums both in one order.
        # numpy sums a stride-0 vector in another order than a contiguous
        # one on about half of all draws, so five draws would show one.
        d = 40
        for seed in range(5):
            rng = np.random.default_rng(seed)
            state = list(self._full_state(rng, d=d, n=60))
            bounds = []
            for beta in (0.5, np.full(d, 0.5)):
                state[9] = replace(state[9], beta=beta)
                bounds.append(state_elbo(state))
            assert bounds[0] == bounds[1]

    def test_point_mass_wishart_is_rejected(self):
        rng = np.random.default_rng(49)
        state = list(self._full_state(rng))
        state[8] = WishartPosterior.point_mass(state[8].e_w)
        with pytest.raises(ValueError, match=r"^elbo_bayes needs q\(W\) from "
                           r"update_q_wishart \(from_update\); this q\(W\) is "
                           r"a point mass, with no dof or scale$"):
            state_elbo(state)

    def test_absent_labelled_block_equals_empty_one(self):
        rng = np.random.default_rng(47)
        stats, _, posts, _, *rest = self._full_state(rng)
        block = (stats, posts, accumulators(stats, posts))
        absent, absent_terms = elbo_bayes(block, *rest)
        empty, empty_terms = elbo_bayes(block, *rest, empty_block(3, 2))
        assert absent == empty
        assert len(absent_terms) == 14 and len(empty_terms) == 17
        assert {k: empty_terms[k] for k in absent_terms} == absent_terms

    def test_gamma_entropy_matches_quadrature(self):
        rng = np.random.default_rng(44)
        state = self._full_state(rng, n_y=1)
        alphapost = state[7]
        _, terms = state_elbo(state)
        a, b = alphapost.a_prime, float(alphapost.b_prime[0])
        pdf = gamma_dist(a, scale=1.0 / b).pdf

        def integrand(x):
            p = pdf(x)
            return -p * np.log(p) if p > 0 else 0.0

        oracle, err = quad(integrand, 0, np.inf, limit=200)
        assert terms["-lnq(alpha)"] == pytest.approx(oracle, abs=max(1e-8, 10 * err))

    def test_row_entropy_matches_gaussian_formula(self):
        rng = np.random.default_rng(45)
        state = self._full_state(rng)
        rowpost = state[6]
        _, terms = state_elbo(state)
        k = rowpost.n_y + 1
        oracle = sum(0.5 * (k * (np.log(2 * np.pi) + 1.0) + logdet_pd(c))
                     for c in dense_cov(rowpost))
        assert terms["-lnq(Vtilde)"] == pytest.approx(oracle, rel=1e-10)

    def test_wishart_entropy_monte_carlo(self):
        rng = np.random.default_rng(46)
        state = list(self._full_state(rng))
        wpost = state[8]
        _, terms = state_elbo(state)
        frozen = wishart(df=wpost.dof, scale=inv_pd(wpost.k))
        draws = frozen.rvs(size=30_000, random_state=rng)
        vals = -frozen.logpdf(draws.transpose(1, 2, 0))
        se = vals.std(ddof=1) / np.sqrt(vals.shape[0])
        assert abs(vals.mean() - terms["-lnq(W)"]) < 3.0 * se


def _gaussian_entropy(rows):
    """sum_r of the scipy entropy of N(mean_r, (kappa L_r)^-1), from the
    dense held precisions of a ``GaussianRows`` block."""
    return sum(multivariate_normal(cov=np.linalg.inv(prec)).entropy()
               for prec in rows.prec)


@pytest.mark.parametrize("kappa", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("eta", [1.0, 0.5])
@pytest.mark.parametrize("beta_kind", ["scalar", "two-valued"])
def test_entropies_match_scipy_for_the_held_factors(beta_kind, eta, kappa):
    # Every factor is updated at kappa, so each -lnq term of the bound is
    # the entropy of the tempered factor the state holds.
    rng = np.random.default_rng(70)
    d, n_y, m, dof = 5, 2, 6, 12.0
    _, phi, stats = random_problem(rng, 40, m, d, n_y)
    phi_d = rng.standard_normal((9, d))
    stats_d = accumulate_stats(np.eye(3)[np.arange(9) % 3], phi_d)
    hyper = Hyperparams(mu0=rng.standard_normal(d),
                        beta=_random_beta(rng, d, beta_kind), eta=eta)
    a = rng.standard_normal((d, d))
    k = sym(a @ a.T + d * np.eye(d))
    wpost = WishartPosterior.from_update(k, dof, kappa)
    rowpost = random_rowpost(rng, d, n_y)
    expected = rowpost.expected(wpost)
    dirichlet = update_q_pi(rng.uniform(1.0, 8.0, m), hyper.tau0, kappa)
    resp = update_q_theta(phi, update_q_y(stats, expected, kappa), expected,
                          dirichlet, kappa)
    stats = accumulate_stats(resp.r, phi)
    posts = update_q_y(stats, expected, kappa)
    posts_d = update_q_y(stats_d, expected, kappa)
    dirichlet = update_q_pi(stats.n, hyper.tau0, kappa)
    acc, acc_d = accumulators(stats, posts), accumulators(stats_d, posts_d)
    rowpost = update_q_vtilde_rows(acc[0] + eta * acc_d[0], acc[1] + eta * acc_d[1],
                                   wpost, update_q_alpha(rowpost, hyper, kappa),
                                   hyper, kappa)
    assert len(rowpost.basis) == (2 if beta_kind == "two-valued" else 1)
    alphapost = update_q_alpha(rowpost, hyper, kappa)
    _, terms = elbo_bayes((stats, posts, acc), resp, dirichlet, rowpost,
                          alphapost, wpost, hyper, (stats_d, posts_d, acc_d))

    dof_eff = dof - (1.0 - kappa) * (dof - d - 1.0)
    oracle = {
        "-lnq(Y)": _gaussian_entropy(posts),
        "-eta*lnq(Y_d)": eta * _gaussian_entropy(posts_d),
        "-lnq(Vtilde)": _gaussian_entropy(rowpost),
        "-lnq(W)": wishart(df=dof_eff, scale=np.linalg.inv(k) / kappa).entropy(),
        "-lnq(pi)": dirichlet_dist(dirichlet.tau).entropy(),
        "-lnq(alpha)": gamma_dist(alphapost.a_prime,
                                  scale=1.0 / alphapost.b_prime).entropy().sum(),
        "-lnq(theta)": categorical_entropy(resp.r, axis=1).sum(),
    }
    for name, value in oracle.items():
        assert terms[name] == pytest.approx(value, rel=1e-10, abs=1e-10), name


class TestSharedQuantities:
    """Precomputed inputs must give the recomputing path's bits."""

    def _state(self, kappa):
        """A full state whose q(W) is held at ``kappa``, with the K and N'
        it was built from."""
        rng = np.random.default_rng(47)
        state = list(TestElboBayes()._full_state(rng, d=4, n_y=2))
        wpost = state[8]
        k = sym(wpost.k + np.diag(rng.random(4)))
        state[8] = WishartPosterior.from_update(k, wpost.dof, kappa=kappa)
        return state, k, wpost.dof

    @pytest.mark.parametrize("kappa", [1.0, 0.4])
    def test_cached_wishart_normalizer(self, kappa):
        # The entropy of the held q(W): dof dof_eff and scale K^-1 / kappa,
        # which the posterior keeps as its dof and inverse scale.
        state, k, dof = self._state(kappa)
        wpost = state[8]
        logdet_k_inv = -np.log(np.linalg.eigh(k)[0]).sum()
        dof_eff = dof - (1.0 - kappa) * (dof - 5.0)
        assert wpost.entropy == -(
            _ln_wishart_b(logdet_k_inv - 4 * np.log(kappa), dof_eff, 4)
            + 0.5 * (dof_eff - 5.0) * wpost.e_ln_w - 0.5 * dof_eff * 4)
        assert wpost.dof == dof_eff
        np.testing.assert_array_equal(wpost.k, kappa * k)
        if kappa == 1.0:
            assert wpost.e_ln_w == digamma(
                0.5 * (dof + 1.0 - np.arange(1, 5))).sum() \
                + 4 * np.log(2.0) + logdet_k_inv

    def test_ln_multigamma_matches_scipy(self):
        rng = np.random.default_rng(48)
        for d in (1, 2, 7, 60, 200):
            for a in 0.5 * (d - 1) + np.array([1e-3, 0.7, 12.5, 3e4]) \
                    * rng.random(4):
                assert _ln_multigamma(a, d) == multigammaln(a, d)
        with pytest.raises(ValueError, match="condition"):
            _ln_multigamma(1.0, 3)


class TestHyperOpt:
    def test_recovers_gamma_parameters(self):
        post = AlphaPosterior(a_prime=2.0, b_prime=np.array([3.0, 3.0]))
        a, b = optimize_hyper_alpha(post)
        assert a == pytest.approx(2.0, abs=1e-6)
        assert b == pytest.approx(3.0, abs=1e-6)

    def test_degenerate_moments_clamp(self):
        fake = types.SimpleNamespace(
            e_alpha=np.array([2.0]), e_ln_alpha=np.array([np.log(2.0)]))
        with pytest.warns(RuntimeWarning, match="clamping"):
            a, b = optimize_hyper_alpha(fake)
        assert a == 1e6

    @staticmethod
    def moments_with_root(a):
        # mean E[alpha] = 1 and mean E[ln alpha] = psi(a) - ln a, so f has
        # its root at a
        return types.SimpleNamespace(e_alpha=np.array([1.0]),
                                     e_ln_alpha=np.array([digamma(a)
                                                          - np.log(a)]))

    @pytest.mark.parametrize("true", [1e4, 1e5])
    def test_large_root_without_warning(self, true):
        # f is nearly flat around large roots: a small |f| is not a close a
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, _ = optimize_hyper_alpha(self.moments_with_root(true))
        assert a == pytest.approx(true, rel=1e-8)

    def test_root_above_clamp_warns(self):
        with pytest.warns(RuntimeWarning, match="clamp boundary"):
            a, b = optimize_hyper_alpha(self.moments_with_root(1e7))
        assert (a, b) == (1e6, 1e6)

    def test_extreme_inits_agree(self):
        post = AlphaPosterior(a_prime=0.7, b_prime=np.array([5.0, 0.3, 1.1]))
        a1, b1 = optimize_hyper_alpha(post, a_init=1e-3)
        a2, b2 = optimize_hyper_alpha(post, a_init=1e3)
        assert a1 == pytest.approx(a2, rel=1e-8)
        assert b1 == pytest.approx(b2, rel=1e-8)

    def test_mu_prior_unit_variance(self):
        d = 4
        cov = np.zeros((d, 3, 3))
        cov[:, 2, 2] = 1.0
        rowpost = rowpost_from_cov(np.arange(d * 3, dtype=float).reshape(d, 3),
                                   cov)
        mu0, beta = optimize_hyper_mu(rowpost)
        np.testing.assert_allclose(mu0, rowpost.mubar)
        np.testing.assert_allclose(beta, 1.0)

    def test_mu_prior_isotropic(self):
        cov = np.zeros((2, 2, 2))
        cov[0, 1, 1] = 1.0
        cov[1, 1, 1] = 3.0
        rowpost = rowpost_from_cov(np.zeros((2, 2)), cov)
        _, beta = optimize_hyper_mu(rowpost, isotropic=True)
        assert beta == pytest.approx(0.5)

    def test_mu_update_increases_prior_term(self):
        rng = np.random.default_rng(47)
        rowpost = random_rowpost(rng, 5, 2)
        old_mu0 = rng.standard_normal(5)
        old_beta = np.full(5, 0.3)

        def term(mu0, beta):
            beta = np.broadcast_to(np.asarray(beta, dtype=float), (5,))
            quad_ = rowpost.sigma_mu() + rowpost.mubar ** 2 \
                - 2.0 * mu0 * rowpost.mubar + mu0 ** 2
            return float(-2.5 * np.log(2 * np.pi)
                         + 0.5 * np.log(beta).sum() - 0.5 * beta @ quad_)

        new_mu0, new_beta = optimize_hyper_mu(rowpost)
        assert term(new_mu0, new_beta) >= term(old_mu0, old_beta)


def _row_inputs(rng, d, n_y):
    """Random pooled accumulators and posteriors for one row sweep."""
    k = n_y + 1
    a = rng.standard_normal((d, d))
    wpost = WishartPosterior.point_mass(a @ a.T + rng.uniform(0.1, 2.0) * np.eye(d))
    b = rng.standard_normal((k, k + 2))
    alphapost = AlphaPosterior(a_prime=rng.uniform(0.5, 3.0),
                               b_prime=rng.uniform(0.2, 5.0, n_y))
    return rng.standard_normal((d, k)), b @ b.T, wpost, alphapost


def _assert_rows_equal(a, b):
    for name in ("mean", "basis", "group", "s"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    assert a.kappa == b.kappa


class TestOneGroupRows:
    """A scalar beta forms one group of rows without ``np.unique``; it must
    be the path a vector beta with equal entries takes."""

    @pytest.mark.parametrize("kappa", [1.0, 0.4])
    def test_scalar_beta_equals_constant_vector(self, kappa):
        rng = np.random.default_rng(61)
        d, n_y = 7, 3
        c_p, r_p, wpost, alphapost = _row_inputs(rng, d, n_y)
        mu0 = rng.standard_normal(d)
        rows = [update_q_vtilde_rows(c_p, r_p, wpost, alphapost,
                                     Hyperparams(mu0=mu0, beta=beta), kappa)
                for beta in (0.7, np.full(d, 0.7))]
        assert len(rows[0].basis) == 1
        _assert_rows_equal(*rows)

    def test_short_run_with_constant_vector_beta(self):
        phi, labels, _ = generate(SynthSpec(d=6, n_y=2, m_true=5,
                                            per_speaker=8,
                                            eigenvoice_scale=3.0, seed=62))
        dataset, _ = split_dataset(phi, labels, 0.5, seed=62)
        model = train_supervised(dataset.phi_d, dataset.labels_d, 2,
                                 seed=62).model
        config = RunConfig(m_init=8, variant="bayes", init_method="random_y",
                           anneal=True, max_iter=12, elbo_tol=0.0,
                           hyper_opt_alpha=True, seed=62)
        scalar, vector = (run_adaptation(dataset, model, Hyperparams(beta=beta),
                                         config)
                          for beta in (0.4, np.full(6, 0.4)))
        np.testing.assert_array_equal(scalar.labels, vector.labels)
        assert scalar.m_trace == vector.m_trace
        assert scalar.kappa_trace == vector.kappa_trace
        a, b = scalar.bayes_state, vector.bayes_state
        _assert_rows_equal(a["rowpost"], b["rowpost"])
        assert a["alphapost"].a_prime == b["alphapost"].a_prime
        np.testing.assert_array_equal(a["alphapost"].b_prime,
                                      b["alphapost"].b_prime)
        for name in ("e_w", "e_ln_w", "k", "dof", "entropy"):
            np.testing.assert_array_equal(getattr(a["wpost"], name),
                                          getattr(b["wpost"], name))
        assert scalar.elbo_terms == vector.elbo_terms
        np.testing.assert_array_equal(scalar.elbo_trace, vector.elbo_trace)

    @pytest.mark.parametrize("kappa", [1.0, 0.4])
    def test_two_valued_beta_from_hyper_opt_mu_matches_oracle(self, kappa):
        # Rows of equal posterior variance of mu get equal beta from the
        # per-row empirical-Bayes step (integer means cancel exactly).
        rng = np.random.default_rng(63)
        d, n_y = 6, 2
        k = n_y + 1
        mean = rng.standard_normal((d, k))
        mean[:, n_y] = rng.integers(-3, 4, d)
        cov = np.zeros((d, k, k))
        cov[:] = np.eye(k)
        cov[:, n_y, n_y] = np.where(np.arange(d) % 2, 0.5, 2.0)
        mu0, beta = optimize_hyper_mu(rowpost_from_cov(mean, cov))
        assert np.unique(beta).size == 2
        hyper = Hyperparams(mu0=mu0, beta=beta)
        c_p, r_p, wpost, alphapost = _row_inputs(rng, d, n_y)
        rowpost = update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper,
                                       kappa)
        assert len(rowpost.basis) == 2
        oracle_mean, oracle_cov, oracle_prec, oracle_logdet = \
            update_q_vtilde_rows_batched(c_p, r_p, wpost, alphapost, hyper,
                                         kappa)
        _rel_check(rowpost.mean, oracle_mean)
        _rel_check(dense_cov(rowpost), oracle_cov)
        _rel_check(rowpost.prec, kappa * oracle_prec)
        _rel_check(rowpost.logdet_prec(), oracle_logdet)


def _rowposts(rng, kappa):
    """Row posteriors of one group, of two groups and of one group per
    row, at temperature ``kappa``."""
    d, n_y = 5, 2
    c_p, r_p, wpost, alphapost = _row_inputs(rng, d, n_y)
    out = [update_q_vtilde_rows(c_p, r_p, wpost, alphapost,
                                Hyperparams(mu0=np.zeros(d), beta=beta), kappa)
           for beta in (0.3, np.where(np.arange(d) % 2, 0.3, 1.7))]
    return out + [replace(random_rowpost(rng, d, n_y), kappa=kappa)]


class TestCachedMoments:
    """Each moment or constant kept on a posterior or per run is the same
    bits as its direct evaluation, and cannot go stale."""

    @pytest.mark.parametrize("kappa", [1.0, 0.4])
    def test_row_moments_equal_direct_evaluation(self, kappa):
        rng = np.random.default_rng(64)
        for rowpost in _rowposts(rng, kappa):
            n_y, k = rowpost.n_y, rowpost.n_y + 1
            e_vv = rowpost.sum_cov(np.ones(rowpost.d)).diagonal()[:n_y] \
                + np.einsum("rq,rq->q", rowpost.vbar, rowpost.vbar)
            np.testing.assert_array_equal(rowpost.e_vq_vq(), e_vv)
            np.testing.assert_array_equal(
                rowpost.sigma_mu(), rowpost.trace_cov(np.diag(np.eye(k)[n_y])))
            np.testing.assert_array_equal(
                rowpost._flat_basis,
                np.swapaxes(rowpost.basis, 0, 1).reshape(k, -1))
            assert rowpost.e_vq_vq() is rowpost.e_vq_vq()
            assert rowpost.sigma_mu() is rowpost.sigma_mu()

    def test_row_posteriors_cannot_go_stale(self):
        rng = np.random.default_rng(65)
        rowpost = _rowposts(rng, 1.0)[0]
        e_vv, sigma = rowpost.e_vq_vq(), rowpost.sigma_mu()
        for name in ("mean", "basis", "group", "s", "kappa"):
            with pytest.raises(FrozenInstanceError):
                setattr(rowpost, name, getattr(rowpost, name))
        for arr in (rowpost.mean, rowpost.vbar, rowpost.mubar, rowpost.basis,
                    rowpost.s, rowpost._flat_basis, e_vv, sigma):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        # The arrays a posterior is built from are frozen with it.
        mean = rng.standard_normal((3, 2))
        RowPosteriors.point_mass(mean)
        mean[0, 0] = 1.0  # point_mass keeps a copy
        rowpost_from_cov(mean, np.broadcast_to(np.eye(2), (3, 2, 2)))
        with pytest.raises(ValueError, match="read-only"):
            mean[0, 0] = 2.0
        # A q(Y) block's basis is a view of the eigenbasis of G that the
        # E-step shares; that basis is read-only too.
        model, _, stats = random_problem(rng, 12, 3, rowpost.d, rowpost.n_y)
        expected = rowpost.expected(WishartPosterior.point_mass(model.w))
        posts = update_q_y(stats, expected)
        for arr in (expected.eig_g[1], posts.basis, posts._flat_basis):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0
        # A new temperature is a new posterior with its own moments.
        cooler = replace(rowpost, kappa=0.5)
        np.testing.assert_array_equal(cooler.sigma_mu(), 2.0 * sigma)

    @pytest.mark.parametrize("kappa", [1.0, 0.4])
    def test_wishart_dof_terms_equal_direct_evaluation(self, kappa):
        rng = np.random.default_rng(66)
        d = 5
        a = rng.standard_normal((d, d))
        k = sym(a @ a.T + np.eye(d))
        for dof in (11.0, np.nextafter(11.0, 12.0), 11.0, 23.7):
            post = WishartPosterior.from_update(k, dof, kappa)
            dof_eff = dof - (1.0 - kappa) * (dof - d - 1.0)
            e, q = np.linalg.eigh(k)
            logdet_k_inv = -np.log(e).sum()
            assert post.e_ln_w == (
                digamma(0.5 * (dof_eff + 1.0 - np.arange(1, d + 1))).sum()
                + d * np.log(2.0) + logdet_k_inv - d * np.log(kappa))
            logdet_scale = logdet_k_inv - d * np.log(kappa)
            ln_b = -0.5 * dof_eff * logdet_scale \
                - 0.5 * dof_eff * d * np.log(2.0) - multigammaln(0.5 * dof_eff, d)
            assert post.entropy == -(ln_b + 0.5 * (dof_eff - d - 1.0) * post.e_ln_w
                                     - 0.5 * dof_eff * d)
            omega = dof_eff / (kappa * e)
            np.testing.assert_array_equal(post.omega, omega)
            np.testing.assert_array_equal(post.e_w, sym((q * omega) @ q.T))
            np.testing.assert_array_equal(post.e_w, post.e_w.T)
        assert _wishart_digamma_sum.cache_info().hits > 0
        assert _ln_multigamma.cache_info().hits > 0
        np.testing.assert_array_equal(post.k, kappa * k)
        assert post.dof == dof_eff

    def test_dirichlet_prior_constant_follows_tau0(self):
        rng = np.random.default_rng(67)
        m, tau0 = 6, 1.0
        for _ in range(4):
            # q(pi) of new counts, and the tau0 the empirical-Bayes step
            # sets from it, as in an adaptation with hyper_opt_tau0
            dirichlet = update_q_pi(rng.uniform(0.0, 5.0, m), tau0)
            e_ln_pi = dirichlet.e_ln_pi
            new = mstep_tau0(e_ln_pi, tau0)
            assert new != tau0
            for t in (tau0, new, new):  # the last call reads the cache
                prior = _cluster_terms(np.ones(m), 0.0, dirichlet, t)[1]
                assert _ln_dirichlet_prior(m, t) \
                    == _ln_dirichlet_c(np.full(m, t))
                assert prior == _ln_dirichlet_c(np.full(m, t)) \
                    + (t - 1.0) * e_ln_pi.sum()
            tau0 = new
        assert _ln_dirichlet_prior.cache_info().hits > 0

    def test_posterior_expectations_are_kept_read_only(self):
        rng = np.random.default_rng(68)
        tau = rng.uniform(0.2, 3.0, 4)
        dirichlet = DirichletPosterior(tau)
        np.testing.assert_array_equal(
            dirichlet.e_ln_pi, digamma(tau) - digamma(tau.sum()))
        alpha = AlphaPosterior(a_prime=2.5, b_prime=rng.uniform(0.2, 3.0, 3))
        np.testing.assert_array_equal(alpha.e_alpha, 2.5 / alpha.b_prime)
        np.testing.assert_array_equal(
            alpha.e_ln_alpha, digamma(2.5) - np.log(alpha.b_prime))
        for post, name in ((dirichlet, "tau"), (alpha, "a_prime"),
                           (alpha, "b_prime")):
            with pytest.raises(FrozenInstanceError):
                setattr(post, name, getattr(post, name))
        a = rng.standard_normal((3, 3))
        k = a @ a.T + np.eye(3)
        wisharts = (WishartPosterior.from_update(k, 9.0),
                    WishartPosterior.point_mass(k))
        for post in wisharts:
            for field in fields(post):
                with pytest.raises(FrozenInstanceError):
                    setattr(post, field.name, getattr(post, field.name))
        k_copy = k.copy()
        k[0, 0] = 7.0  # the caller's K and W stay writable
        for arr in (tau, dirichlet.e_ln_pi, alpha.b_prime, alpha.e_alpha,
                    alpha.e_ln_alpha, *(post.e_w for post in wisharts),
                    *(post.omega for post in wisharts),
                    *(post.q for post in wisharts), wisharts[0].k):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        np.testing.assert_array_equal(wisharts[0].k, sym(k_copy))
