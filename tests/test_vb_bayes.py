import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma, multigammaln
from scipy.stats import gamma as gamma_dist
from scipy.stats import wishart

from spldavb.linalg import inv_pd, logdet_pd, sym
from spldavb.model import SpldaModel, accumulate_stats, center_stats
from spldavb.vbbayes import (
    AlphaPosterior,
    RowPosteriors,
    WishartPosterior,
    _ln_multigamma,
    _ln_wishart_b,
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
    accumulators,
    mstep_W,
    update_q_pi,
    update_q_theta,
    update_q_y,
)
from splda_oracles import dense_prec, e_vt_r_vt, e_vt_w_vt, log_weights


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
    prec = np.empty((d, k, k))
    for r in range(d):
        a = rng.standard_normal((k, k))
        cov[r] = sym(a @ a.T / k + np.eye(k))
        prec[r] = inv_pd(cov[r])
    return RowPosteriors(mean=mean, cov=cov, prec=prec,
                         logdet=np.array([logdet_pd(p) for p in prec]))


def block_accumulators(state):
    """The accumulators (C, R) of both blocks of an ``elbo_bayes`` state."""
    stats, stats_d, posts, posts_d = state[:4]
    return accumulators(stats, posts), accumulators(stats_d, posts_d)


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
        mean, ln_w, u = rowpost.expected(wpost)
        np.testing.assert_allclose(
            log_weights(phi, posts, mean, dirichlet, ln_w=ln_w, u=u),
            log_weights(phi, posts, model, dirichlet), atol=1e-10)

    def test_q_wishart_matches_point_mstep(self):
        rng = np.random.default_rng(32)
        model, phi, stats = random_problem(rng, 30, 3, 4, 2)
        posts = update_q_y(center_stats(stats, model.mu), model)
        c, r = accumulators(stats, posts)
        rowpost = RowPosteriors.point_mass(model.vtilde)
        wpost = update_q_wishart(stats.s, np.zeros((4, 4)), c, r, rowpost,
                                 stats.n_total, 0.0, 1.0)
        w_point = mstep_W(stats.s, np.zeros((4, 4)), c, r, model.vtilde,
                          stats.n_total, 0.0, 1.0)
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
        wpost = WishartPosterior.from_update(inv_pd(scale * dof) * dof, dof)
        analytic = e_vt_w_vt(rowpost, wpost)
        n_draws = 60_000
        chols = np.linalg.cholesky(rowpost.cov)
        acc = np.zeros_like(analytic)
        ws = wishart(df=dof, scale=wpost._scale).rvs(
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
        chols = np.linalg.cholesky(rowpost.cov)
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
        oracle = np.zeros(2)
        for q in range(2):
            oracle[q] = sum(rowpost.cov[r, q, q] + rowpost.mean[r, q] ** 2
                            for r in range(5))
        np.testing.assert_allclose(rowpost.e_vq_vq(), oracle, rtol=1e-12)


class TestRowUpdates:
    def _hyper(self, rng, d):
        return Hyperparams(mu0=rng.standard_normal(d), beta=0.5)

    def test_joint_stationarity_after_convergence(self):
        rng = np.random.default_rng(36)
        d, n_y = 3, 2
        model, phi, stats = random_problem(rng, 30, 4, d, n_y)
        posts = update_q_y(center_stats(stats, model.mu), model)
        c_p, r_p = accumulators(stats, posts)
        wpost = WishartPosterior.point_mass(model.w)
        alphapost = AlphaPosterior(a_prime=2.0, b_prime=np.array([1.0, 3.0]))
        hyper = self._hyper(rng, d)
        rowpost = RowPosteriors.point_mass(model.vtilde)
        for _ in range(2000):
            prev = rowpost.mean.copy()
            rowpost = update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper,
                                           rowpost)
            if np.abs(rowpost.mean - prev).max() < 1e-14:
                break
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
        rowpost = update_q_vtilde_rows(
            c_p, r_p, wpost, alphapost, hyper,
            RowPosteriors.point_mass(model.vtilde))
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
        rowpost = update_q_vtilde_rows(
            c_p, r_p, wpost, alphapost, hyper,
            RowPosteriors.point_mass(model.vtilde))
        for _ in range(5):
            rowpost = update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper,
                                           rowpost)
        np.testing.assert_allclose(rowpost.vbar, 0.0, atol=1e-6)
        np.testing.assert_allclose(rowpost.mubar, mu0, atol=1e-6)


    def test_one_sweep_matches_row_loop_oracle(self):
        rng = np.random.default_rng(39)
        d, n_y = 4, 2
        model, phi, stats = random_problem(rng, 25, 3, d, n_y)
        posts = update_q_y(center_stats(stats, model.mu), model)
        c_p, r_p = accumulators(stats, posts)
        wpost = WishartPosterior.point_mass(model.w)
        alphapost = AlphaPosterior(a_prime=1.5, b_prime=np.array([0.5, 2.0]))
        hyper = self._hyper(rng, d)
        start = RowPosteriors.point_mass(model.vtilde)
        wbar = wpost.e_w
        for kappa in (1.0, 0.4):
            rowpost = update_q_vtilde_rows(c_p, r_p, wpost, alphapost, hyper,
                                           start, kappa)
            mean = start.mean.copy()
            for r in range(d):
                l_r = np.diag(np.append(alphapost.e_alpha, 0.5)) \
                    + wbar[r, r] * r_p
                rhs = c_p.T @ wbar[r] - r_p @ (mean.T @ wbar[r]) \
                    + wbar[r, r] * (r_p @ mean[r])
                rhs[n_y] += 0.5 * hyper.mu0[r]
                mean[r] = np.linalg.solve(l_r, rhs)
                np.testing.assert_allclose(rowpost.prec[r], l_r, atol=1e-12)
                np.testing.assert_allclose(rowpost.cov[r],
                                           np.linalg.inv(l_r) / kappa, atol=1e-10)
                assert rowpost.logdet_prec()[r] == pytest.approx(
                    np.linalg.slogdet(l_r)[1], abs=1e-10)
            np.testing.assert_allclose(rowpost.mean, mean, atol=1e-10)

    def test_singular_row_is_named(self):
        d, n_y = 3, 1
        wpost = WishartPosterior.point_mass(np.diag([1e-3, 1e-3, 10.0]))
        alphapost = AlphaPosterior(a_prime=1.0, b_prime=np.ones(n_y))
        with pytest.raises(np.linalg.LinAlgError, match="row 2 "):
            update_q_vtilde_rows(
                np.zeros((d, n_y + 1)), -np.eye(n_y + 1), wpost, alphapost,
                Hyperparams(beta=1.0), RowPosteriors.point_mass(np.zeros((d, n_y + 1))))

    def test_unset_beta_is_named(self):
        # An unset beta used to become NaN means and log-determinants.
        rng = np.random.default_rng(37)
        state = list(TestElboBayes()._full_state(rng))
        rowpost, alphapost, wpost = state[6:9]
        (c, r), _ = block_accumulators(state)
        state[9] = Hyperparams()
        with pytest.raises(ValueError, match="beta"):
            update_q_vtilde_rows(c, r, wpost, alphapost, state[9], rowpost)
        with pytest.raises(ValueError, match="beta"):
            elbo_bayes(*state, *block_accumulators(state))


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
        assert post._dof_eff == pytest.approx(0.5 * (10.0 - d - 1.0) + d + 1.0)
        np.testing.assert_allclose(post._scale, 2.0 * np.eye(d), atol=1e-12)

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

    def test_annealed_low_dof_names_kappa(self):
        # N' - (1 - kappa)(N' - d - 1) = 2.5 <= d = 3
        with pytest.raises(ValueError, match="kappa"):
            WishartPosterior.from_update(np.eye(3), 1.0, kappa=0.5)


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
    k_inv = inv_pd(k)
    np.testing.assert_array_equal(wpost.e_w, sym(dof * k_inv))
    assert wpost.e_ln_w == digamma(0.5 * (dof + 1.0 - np.arange(1, d + 1))).sum() \
        + d * np.log(2.0) + logdet_pd(k_inv)
    assert wpost.ln_b == _ln_wishart_b(k_inv, dof)


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
        total, terms = elbo_bayes(*state, *block_accumulators(state))
        assert len(terms) == 17
        assert total == pytest.approx(sum(terms.values()), abs=1e-10)

    def test_gamma_entropy_matches_quadrature(self):
        rng = np.random.default_rng(44)
        state = self._full_state(rng, n_y=1)
        alphapost = state[7]
        _, terms = elbo_bayes(*state, *block_accumulators(state))
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
        _, terms = elbo_bayes(*state, *block_accumulators(state))
        k = rowpost.n_y + 1
        oracle = sum(0.5 * (k * (np.log(2 * np.pi) + 1.0) + logdet_pd(c))
                     for c in rowpost.cov)
        assert terms["-lnq(Vtilde)"] == pytest.approx(oracle, rel=1e-10)

    def test_wishart_entropy_monte_carlo(self):
        rng = np.random.default_rng(46)
        state = list(self._full_state(rng))
        wpost = state[8]
        _, terms = elbo_bayes(*state, *block_accumulators(state))
        frozen = wishart(df=wpost.dof, scale=inv_pd(wpost.k))
        draws = frozen.rvs(size=30_000, random_state=rng)
        vals = -frozen.logpdf(draws.transpose(1, 2, 0))
        se = vals.std(ddof=1) / np.sqrt(vals.shape[0])
        assert abs(vals.mean() - terms["-lnq(W)"]) < 3.0 * se


class TestSharedQuantities:
    """Precomputed inputs must give the recomputing path's bits."""

    def _state(self, kappa):
        rng = np.random.default_rng(47)
        state = list(TestElboBayes()._full_state(rng, d=4, n_y=2))
        stats, stats_d, posts, posts_d, resp, dirichlet, rowpost, alphapost, \
            wpost, hyper = state
        k = sym(wpost.k + np.diag(rng.random(4)))
        state[8] = WishartPosterior.from_update(k, wpost.dof, kappa=kappa)
        return state, rng.standard_normal((30, 4))

    @pytest.mark.parametrize("kappa", [1.0, 0.4])
    def test_cached_wishart_normalizer(self, kappa):
        state, _ = self._state(kappa)
        wpost = state[8]
        assert wpost.ln_b == _ln_wishart_b(inv_pd(wpost.k), wpost.dof)
        if kappa == 1.0:
            assert wpost.e_ln_w == digamma(
                0.5 * (wpost.dof + 1.0 - np.arange(1, 5))).sum() \
                + 4 * np.log(2.0) + logdet_pd(inv_pd(wpost.k))

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
        rowpost = RowPosteriors(mean=np.arange(d * 3, dtype=float).reshape(d, 3),
                                cov=cov)
        mu0, beta = optimize_hyper_mu(rowpost)
        np.testing.assert_allclose(mu0, rowpost.mubar)
        np.testing.assert_allclose(beta, 1.0)

    def test_mu_prior_isotropic(self):
        cov = np.zeros((2, 2, 2))
        cov[0, 1, 1] = 1.0
        cov[1, 1, 1] = 3.0
        rowpost = RowPosteriors(mean=np.zeros((2, 2)), cov=cov)
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
