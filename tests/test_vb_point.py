import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import digamma
from scipy.stats import multivariate_normal

from spldavb.linalg import inv_pd, sym
from spldavb.model import (
    SpldaModel,
    SuffStats,
    accumulate_stats,
    center_stats,
    marginal_params,
)
from spldavb.vbpoint import (
    DirichletPosterior,
    ExpectedParams,
    Hyperparams,
    Responsibilities,
    SpeakerPosteriors,
    accumulators,
    elbo_point,
    min_divergence,
    mstep_V,
    mstep_W,
    mstep_tau0,
    standardize_posteriors,
    update_q_pi,
    update_q_theta,
    update_q_y,
)
from spldavb.vbpoint import _log_newton, _normalize_log_rho
from spldavb.vbbayes import (
    WishartPosterior,
    update_q_theta_bayes,
    update_q_y_bayes,
)
from splda_oracles import (
    dense_cov,
    dense_e_yy,
    dense_prec,
    e_yy_tilde,
    empty_block,
    entropy_nested_where,
    log_weights,
    rowpost_from_cov,
    softmax_untruncated,
)


def random_model(rng, d, n_y):
    a = rng.standard_normal((d, d))
    return SpldaModel(
        mu=rng.standard_normal(d),
        v=rng.standard_normal((d, n_y)),
        w=a @ a.T + d * np.eye(d),
    )


def random_posteriors(rng, m, n_y, kappa=1.0):
    a = rng.standard_normal((n_y, n_y))
    return SpeakerPosteriors.from_pair(
        a @ a.T, 5.0 * rng.random(m), rng.standard_normal((m, n_y)), kappa)


class TestUpdateQY:
    def test_zero_counts_gives_prior(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 4, 2)
        stats = center_stats(
            SuffStats(n=np.zeros(3), f=np.zeros((3, 4)), s=np.zeros((4, 4))),
            model.mu)
        posts = update_q_y(stats, model)
        np.testing.assert_array_equal(posts.ybar, 0.0)
        np.testing.assert_array_equal(posts.s, 1.0)

    def test_scalar_case(self):
        model = SpldaModel(mu=np.zeros(1), v=np.ones((1, 1)), w=np.ones((1, 1)))
        stats = center_stats(
            SuffStats(n=np.array([3.0]), f=np.array([[6.0]]),
                      s=np.array([[12.0]])), model.mu)
        posts = update_q_y(stats, model)
        assert dense_prec(posts)[0, 0, 0] == pytest.approx(4.0)
        assert posts.ybar[0, 0] == pytest.approx(1.5)

    def test_matches_per_speaker_oracle(self):
        rng = np.random.default_rng(4)
        d, n_y, m = 5, 3, 6
        model = random_model(rng, d, n_y)
        resp = rng.random((20, m))
        resp /= resp.sum(axis=1, keepdims=True)
        phi = rng.standard_normal((20, d))
        stats = center_stats(accumulate_stats(resp, phi), model.mu)
        posts = update_q_y(stats, model)
        for i in range(m):
            l_i = np.eye(n_y) + stats.n[i] * model.v.T @ model.w @ model.v
            y_i = np.linalg.solve(l_i, model.v.T @ model.w @ stats.fbar[i])
            np.testing.assert_allclose(dense_prec(posts)[i], (l_i + l_i.T) / 2,
                                       atol=1e-12)
            np.testing.assert_allclose(posts.ybar[i], y_i, rtol=1e-10, atol=1e-12)

    def test_annealed_covariance_scaling(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 4, 2)
        resp = np.ones((10, 1))
        phi = rng.standard_normal((10, 4))
        stats = center_stats(accumulate_stats(resp, phi), model.mu)
        full = update_q_y(stats, model, kappa=1.0)
        half = update_q_y(stats, model, kappa=0.5)
        np.testing.assert_array_equal(half.ybar, full.ybar)
        np.testing.assert_allclose(dense_cov(half), 2.0 * dense_cov(full),
                                   rtol=1e-12)


def q_y_from_centred(stats, model, kappa, u):
    """q(Y) the way the update ran before it read raw statistics: the
    first-order sums centred by ``center_stats`` first."""
    n_y = model.n_y
    wv = model.w @ model.v
    g = sym(model.v.T @ wv) + u[:n_y, :n_y]
    rhs = center_stats(stats, model.mu).fbar @ wv \
        - np.outer(stats.n, u[:n_y, n_y])
    return SpeakerPosteriors.from_pair(g, stats.n, rhs, kappa)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([1.0, 0.4]), st.booleans())
def test_q_y_from_raw_stats_equals_centred_route(seed, kappa, with_u):
    rng = np.random.default_rng(seed)
    d, n_y, m = 5, 3, 4
    model = random_model(rng, d, n_y)
    resp = rng.dirichlet(np.ones(m), size=12)
    stats = accumulate_stats(resp, 3.0 + rng.standard_normal((12, d)))
    u = np.zeros((n_y + 1, n_y + 1))
    if with_u:
        a = rng.standard_normal((n_y + 1, n_y + 1))
        u = a @ a.T
    got = update_q_y(stats, replace(ExpectedParams.from_model(model), u=u), kappa)
    want = q_y_from_centred(stats, model, kappa, u)
    for name in ("ybar", "basis", "s"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.kappa == want.kappa


def assert_matches_dense(posts, prec, atol=1e-10):
    """Factored posteriors against per-speaker inverses and log-determinants
    of the dense precisions ``prec`` (M, n_y, n_y)."""
    m, n_y = posts.ybar.shape
    cov = np.stack([np.linalg.inv(p) for p in prec]) / posts.kappa
    e_yy = cov + np.stack([np.outer(y, y) for y in posts.ybar])
    eyt = np.zeros((m, n_y + 1, n_y + 1))
    for i in range(m):
        yt = np.append(posts.ybar[i], 1.0)
        eyt[i] = np.outer(yt, yt)
        eyt[i, :n_y, :n_y] += cov[i]
    np.testing.assert_allclose(dense_prec(posts), prec, atol=atol)
    np.testing.assert_allclose(dense_cov(posts), cov, atol=atol)
    np.testing.assert_allclose(dense_e_yy(posts), e_yy, atol=atol)
    np.testing.assert_allclose(e_yy_tilde(posts), eyt, atol=atol)
    np.testing.assert_allclose(
        posts.logdet_prec(), [np.linalg.slogdet(p)[1] for p in prec], atol=atol)
    rng = np.random.default_rng(0)
    w = rng.random(m)
    h = sym(rng.standard_normal((n_y, n_y)))
    np.testing.assert_allclose(
        posts.sum_e_yy(w), sum(w[i] * e_yy[i] for i in range(m)), atol=atol)
    np.testing.assert_allclose(
        posts.trace_e_yy(h), [np.trace(h @ e_yy[i]) for i in range(m)],
        atol=atol)


class TestFactoredPosteriors:
    def _stats(self, rng, model, n=30, m=6):
        resp = rng.random((n, m))
        resp /= resp.sum(axis=1, keepdims=True)
        return accumulate_stats(resp, rng.standard_normal((n, model.d)))

    def test_update_q_y(self):
        rng = np.random.default_rng(100)
        model = random_model(rng, 6, 3)
        stats = center_stats(self._stats(rng, model), model.mu)
        g = model.v.T @ model.w @ model.v
        for kappa in (1.0, 0.3):
            posts = update_q_y(stats, model, kappa)
            assert_matches_dense(
                posts, np.stack([np.eye(3) + n * g for n in stats.n]))

    def test_update_q_y_bayes(self):
        rng = np.random.default_rng(101)
        d, n_y = 5, 3
        model = random_model(rng, d, n_y)
        stats = self._stats(rng, model)
        cov = np.stack([sym(a @ a.T) / d
                        for a in rng.standard_normal((d, n_y + 1, n_y + 1))])
        rowpost = rowpost_from_cov(model.vtilde, cov)
        wpost = WishartPosterior.from_update(inv_pd(model.w) * 20.0, 20.0)
        wbar = wpost.e_w
        e_vwv = model.v.T @ wbar @ model.v + sum(
            wbar[r, r] * cov[r, :n_y, :n_y] for r in range(d))
        for kappa in (1.0, 0.3):
            posts = update_q_y_bayes(stats, rowpost.expected(wpost), kappa)
            assert_matches_dense(
                posts, np.stack([np.eye(n_y) + n * e_vwv for n in stats.n]))

    def test_standardize_posteriors(self):
        rng = np.random.default_rng(102)
        model = random_model(rng, 6, 3)
        stats = center_stats(self._stats(rng, model), model.mu)
        posts = update_q_y(stats, model, kappa=0.5)
        mu_y = rng.standard_normal(3)
        t = np.linalg.cholesky(sym(np.cov(rng.standard_normal((3, 10)))))
        std = standardize_posteriors(posts, mu_y, t)
        np.testing.assert_allclose(
            std.ybar, np.linalg.solve(t, (posts.ybar - mu_y).T).T, atol=1e-10)
        assert_matches_dense(
            std, np.stack([t.T @ p @ t for p in dense_prec(posts)]))


class TestUpdateQTheta:
    def test_single_cluster(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 2)
        posts = random_posteriors(rng, 1, 2)
        resp = update_q_theta(rng.standard_normal((7, 3)), posts, model,
                              DirichletPosterior(np.array([2.0])))
        np.testing.assert_array_equal(resp.r, np.ones((7, 1)))

    def test_identical_clusters_split_evenly(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 3, 2)
        a = rng.standard_normal((2, 2))
        posts = SpeakerPosteriors.from_pair(
            a @ a.T, np.full(2, 1.5), np.tile(rng.standard_normal(2), (2, 1)))
        resp = update_q_theta(rng.standard_normal((5, 3)), posts, model,
                              DirichletPosterior(np.array([3.0, 3.0])))
        np.testing.assert_allclose(resp.r, 0.5, atol=1e-12)

    def test_softmax_oracle(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 4, 2)
        posts = random_posteriors(rng, 3, 2)
        dirichlet = DirichletPosterior(np.array([1.0, 2.0, 3.0]))
        phi = rng.standard_normal((11, 4))
        for kappa in (1.0, 0.4):
            resp = update_q_theta(phi, posts, model, dirichlet, kappa=kappa)
            z = kappa * log_weights(phi, posts, model, dirichlet)
            oracle = np.exp(z - z.max(axis=1, keepdims=True))
            oracle /= oracle.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(resp.r, oracle, rtol=1e-13, atol=1e-15)
            assert np.abs(resp.r.sum(axis=1) - 1.0).max() < 1e-12

    def test_small_kappa_flattens(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 3, 1)
        posts = random_posteriors(rng, 4, 1)
        dirichlet = DirichletPosterior(np.ones(4))
        phi = rng.standard_normal((6, 3))
        resp = update_q_theta(phi, posts, model, dirichlet, kappa=1e-6)
        assert np.ptp(resp.r) < 1e-3


class TestUpdateQPi:
    def test_counts_plus_prior(self):
        post = update_q_pi(np.array([2.0, 5.0]), tau0=0.5)
        np.testing.assert_array_equal(post.tau, [2.5, 5.5])

    def test_digamma_expectation(self):
        # psi(2) = psi(1) + 1, so the first component gives exactly -1
        post = DirichletPosterior(np.array([1.0, 1.0]))
        assert post.e_ln_pi[0] == pytest.approx(
            digamma(1.0) - digamma(2.0))
        assert post.e_ln_pi[0] == pytest.approx(-1.0)

    def test_annealed_formula(self):
        post = update_q_pi(np.array([4.0]), tau0=1.5, kappa=0.5)
        assert post.tau[0] == pytest.approx(0.5 * (4.0 + 1.5 - 1.0) + 1.0)

    def test_kappa_one_bit_identical(self):
        counts = np.array([0.3, 7.7, 1.1])
        a = update_q_pi(counts, tau0=0.9, kappa=1.0)
        b = update_q_pi(counts, tau0=0.9)
        np.testing.assert_array_equal(a.tau, b.tau)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            update_q_pi(np.array([-0.1]), tau0=1.0)


class TestAccumulators:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        m, d, n_y = 4, 5, 2
        resp = rng.random((15, m))
        resp /= resp.sum(axis=1, keepdims=True)
        phi = rng.standard_normal((15, d))
        stats = accumulate_stats(resp, phi)
        posts = random_posteriors(rng, m, n_y)
        c, r = accumulators(stats, posts)
        c_or = np.zeros((d, n_y + 1))
        r_or = np.zeros((n_y + 1, n_y + 1))
        eyy = e_yy_tilde(posts)
        yt = posts.e_ytilde()
        for i in range(m):
            c_or += np.outer(stats.f[i], yt[i])
            r_or += stats.n[i] * eyy[i]
        np.testing.assert_allclose(c, c_or, atol=1e-12)
        np.testing.assert_allclose(r, r_or, atol=1e-12)


class TestElbo:
    def test_reduces_to_gaussian_loglik(self):
        # V = 0 and a single cluster: the bound is tight and equals the
        # sum of Gaussian log-densities of the observations.
        rng = np.random.default_rng(14)
        d = 3
        mu = rng.standard_normal(d)
        a = rng.standard_normal((d, d))
        w = a @ a.T + d * np.eye(d)
        model = SpldaModel(mu=mu, v=np.zeros((d, 2)), w=w)
        phi = rng.standard_normal((8, d))
        resp = Responsibilities(r=np.ones((8, 1)))
        stats = center_stats(accumulate_stats(resp.r, phi), mu)
        posts = update_q_y(stats, model)
        dirichlet = update_q_pi(stats.n, tau0=1.0)
        total, terms = elbo_point((stats, posts, accumulators(stats, posts)),
                                  resp, dirichlet, model, Hyperparams(),
                                  empty_block(d, 2))
        oracle = multivariate_normal(mean=mu, cov=inv_pd(w)).logpdf(phi).sum()
        assert total == pytest.approx(oracle, rel=1e-10)
        assert len(terms) == 10

    def test_terms_sum_to_total(self):
        rng = np.random.default_rng(15)
        d, n_y, m = 4, 2, 3
        model = random_model(rng, d, n_y)
        resp_r = rng.random((12, m))
        resp_r /= resp_r.sum(axis=1, keepdims=True)
        phi = rng.standard_normal((12, d))
        stats = center_stats(accumulate_stats(resp_r, phi), model.mu)
        posts = update_q_y(stats, model)
        labels = np.array([0, 0, 1, 1, 1])
        phi_d = rng.standard_normal((5, d))
        r_d = np.zeros((5, 2))
        r_d[np.arange(5), labels] = 1.0
        stats_d = center_stats(accumulate_stats(r_d, phi_d), model.mu)
        posts_d = update_q_y(stats_d, model)
        dirichlet = update_q_pi(stats.n, tau0=1.0)
        total, terms = elbo_point((stats, posts, accumulators(stats, posts)),
                                  Responsibilities(r=resp_r), dirichlet,
                                  model, Hyperparams(),
                                  (stats_d, posts_d,
                                   accumulators(stats_d, posts_d)))
        assert total == pytest.approx(sum(terms.values()), abs=1e-12)

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_absent_labelled_block_equals_empty_one(self, eta):
        rng = np.random.default_rng(18)
        model = random_model(rng, 4, 2)
        resp = Responsibilities(r=rng.dirichlet(np.ones(3), size=12))
        stats = accumulate_stats(resp.r, rng.standard_normal((12, 4)))
        posts = update_q_y(stats, model)
        block = (stats, posts, accumulators(stats, posts))
        args = (resp, update_q_pi(stats.n, tau0=0.7), model,
                Hyperparams(tau0=0.7, eta=eta))
        absent, absent_terms = elbo_point(block, *args)
        empty, empty_terms = elbo_point(block, *args, empty_block(4, 2))
        assert absent == empty
        assert len(absent_terms) == 7 and len(empty_terms) == 10
        assert {k: empty_terms[k] for k in absent_terms} == absent_terms

    def test_precomputed_inputs_give_same_bits(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, 4, 2)
        resp = Responsibilities(r=rng.dirichlet(np.ones(3), size=12))
        phi = rng.standard_normal((12, 4))
        stats = center_stats(accumulate_stats(resp.r, phi), model.mu)
        stats_s = center_stats(
            accumulate_stats(resp.r, phi, s=phi.T @ phi), model.mu)
        assert (stats_s.s == stats.s).all()

    def test_data_term_scales_with_duplication(self):
        rng = np.random.default_rng(16)
        d, n_y, m = 3, 2, 2
        model = random_model(rng, d, n_y)
        resp = rng.random((9, m))
        resp /= resp.sum(axis=1, keepdims=True)
        phi = rng.standard_normal((9, d))
        posts = random_posteriors(rng, m, n_y)

        def data_term(resp_, phi_):
            stats = accumulate_stats(resp_, phi_)
            c, r = accumulators(stats, posts)
            from spldavb.vbpoint import _block_terms
            return _block_terms((stats, posts, (c, r)), model.vtilde, model.w,
                                model.logdet_w())[0]

        single = data_term(resp, phi)
        double = data_term(np.vstack([resp, resp]), np.vstack([phi, phi]))
        assert double == pytest.approx(2.0 * single, rel=1e-12)


class TestMsteps:
    def test_mstep_v_solves_normal_equations(self):
        rng = np.random.default_rng(18)
        d, n_y = 4, 2
        c = rng.standard_normal((d, n_y + 1))
        a = rng.standard_normal((n_y + 1, n_y + 1))
        r = a @ a.T + np.eye(n_y + 1)
        c_d = rng.standard_normal((d, n_y + 1))
        b = rng.standard_normal((n_y + 1, n_y + 1))
        r_d = b @ b.T + np.eye(n_y + 1)
        eta = 0.6
        vt = mstep_V(c + eta * c_d, r + eta * r_d)
        np.testing.assert_allclose(vt @ (r + eta * r_d), c + eta * c_d,
                                   atol=1e-10)

    def test_mstep_v_rejects_singular(self):
        with pytest.raises(np.linalg.LinAlgError, match="condition"):
            mstep_V(np.zeros((3, 2)), np.zeros((2, 2)))

    @staticmethod
    def _rejects(r_p):
        try:
            mstep_V(np.ones((2, r_p.shape[0])), r_p)
        except np.linalg.LinAlgError as err:
            assert "condition number" in str(err)
            return True
        return False

    @pytest.mark.parametrize("seed", range(4))
    def test_mstep_v_condition_check_matches_svd(self, seed):
        # max|lam| / min|lam| of a symmetric matrix is the 2-norm condition
        # number np.linalg.cond takes from an SVD: random SPD matrices and
        # near-singular ones on both sides of the 1e14 limit get the same
        # verdict.
        rng = np.random.default_rng(seed)
        k = 5
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        a = rng.standard_normal((k, k))
        cases = [a @ a.T + 0.1 * np.eye(k)]
        for cond in (1e12, 3e13, 4e14, 1e16):
            cases.append(sym((q * np.geomspace(1.0, 1.0 / cond, k)) @ q.T))
        verdicts = [self._rejects(r_p) for r_p in cases]
        assert verdicts == [np.linalg.cond(r_p) > 1e14 for r_p in cases]
        assert verdicts == [False, False, False, True, True]

    def test_mstep_w_recovers_sample_covariance(self):
        # With V = 0, one cluster and hard counts the update reduces to the
        # inverse of the biased sample covariance around mu.
        rng = np.random.default_rng(20)
        d, n = 3, 40
        phi = rng.standard_normal((n, d)) @ np.diag([1.0, 2.0, 0.5])
        mu = phi.mean(axis=0)
        model = SpldaModel(mu=mu, v=np.zeros((d, 2)), w=np.eye(d))
        resp = np.ones((n, 1))
        stats = center_stats(accumulate_stats(resp, phi), mu)
        posts = update_q_y(stats, model)
        c, r = accumulators(stats, posts)
        w = mstep_W(stats.s, c, r, model.vtilde, stats.n_total)
        cov = (phi - mu).T @ (phi - mu) / n
        np.testing.assert_allclose(w, inv_pd(cov), rtol=1e-9)

    def test_mstep_w_rejects_low_count(self):
        d = 4
        with pytest.raises(ValueError, match="degenerate"):
            mstep_W(np.eye(d), np.zeros((d, 2)), np.eye(2),
                    np.zeros((d, 2)), 3.0)


class TestMstepTau0:
    def test_known_root(self):
        # for M = 2, psi(2) - psi(1) = 1, so g = -1 has the root tau0 = 1
        tau0 = mstep_tau0(np.array([-1.0, -1.0]), tau0_init=5.0)
        assert tau0 == pytest.approx(1.0, abs=1e-6)

    def test_matches_bisection_oracle(self):
        m, true = 5, 3.7
        g = digamma(true) - digamma(m * true)
        e_ln_pi = np.full(m, g)
        newton = mstep_tau0(e_ln_pi, tau0_init=0.5)
        bisect = brentq(lambda t: digamma(m * t) - digamma(t) + g, 1e-8, 1e6,
                        xtol=1e-12)
        assert newton == pytest.approx(bisect, rel=1e-8)
        assert newton == pytest.approx(true, rel=1e-8)

    def test_extreme_inits_agree(self):
        m, true = 3, 0.2
        g = digamma(true) - digamma(m * true)
        lo = mstep_tau0(np.full(m, g), tau0_init=1e-4)
        hi = mstep_tau0(np.full(m, g), tau0_init=1e4)
        assert lo == pytest.approx(hi, rel=1e-8)
        assert lo > 0

    def test_requires_two_clusters(self):
        with pytest.raises(ValueError, match="M >= 2"):
            mstep_tau0(np.array([-0.5]))

    @pytest.mark.parametrize("m, true", [(4, 240.0), (50, 1e4)])
    def test_large_root_without_warning(self, m, true):
        # f is nearly flat around large roots: a small |f| is not a close tau0
        g = digamma(true) - digamma(m * true)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau0 = mstep_tau0(np.full(m, g))
        assert tau0 == pytest.approx(true, rel=1e-8)

    def test_no_finite_root_warns_and_keeps_init(self):
        # f > ln M + g >= 0 everywhere, so the optimum is tau0 -> inf
        with pytest.warns(RuntimeWarning, match="no finite optimum"):
            tau0 = mstep_tau0(np.full(4, -np.log(4) + 1e-3), tau0_init=3.0)
        assert tau0 == 3.0


class TestLogNewton:
    def test_no_convergence_warns_and_returns_best(self):
        # f = cbrt(u), u = ln x: a Newton step maps u to -2u, and once the
        # step clip binds the iterates cycle between u = 4 and u = -6
        def fun(x):
            u = np.log(x)
            return np.cbrt(u), np.cbrt(u) ** -2 / 3, 0.0

        with pytest.warns(RuntimeWarning,
                          match="cbrt Newton did not converge in 100 iter"):
            x = _log_newton(fun, np.e, "cbrt")
        assert x == np.e  # u = 1 has the smallest |f|


class TestMinDivergence:
    def test_standard_posterior_is_fixed_point(self):
        rng = np.random.default_rng(22)
        model = random_model(rng, 4, 2)
        posts = SpeakerPosteriors.from_pair(
            np.zeros((2, 2)), np.zeros(5), np.zeros((5, 2)))
        posts_d = SpeakerPosteriors.from_pair(
            np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)))
        mu, v, _ = min_divergence([(posts, 1.0), (posts_d, 1.0)],
                                  model.mu, model.v)
        new = SpldaModel(mu=mu, v=v, w=model.w)
        np.testing.assert_array_equal(new.mu, model.mu)
        np.testing.assert_array_equal(new.v, model.v)
        np.testing.assert_array_equal(new.w, model.w)

    def test_pure_translation(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 4, 2)
        shift = np.array([0.7, -1.2])
        posts = SpeakerPosteriors.from_pair(
            np.zeros((2, 2)), np.zeros(6), np.tile(shift, (6, 1)))
        posts_d = SpeakerPosteriors.from_pair(
            np.zeros((2, 2)), np.zeros(0), np.zeros((0, 2)))
        mu, v, _ = min_divergence([(posts, 1.0), (posts_d, 1.0)],
                                  model.mu, model.v)
        new = SpldaModel(mu=mu, v=v, w=model.w)
        np.testing.assert_allclose(new.mu, model.mu + model.v @ shift, atol=1e-12)
        np.testing.assert_allclose(new.v, model.v, atol=1e-12)

    def test_marginal_invariance(self):
        rng = np.random.default_rng(24)
        d, n_y = 5, 3
        model = random_model(rng, d, n_y)
        posts = random_posteriors(rng, 7, n_y)
        posts_d = random_posteriors(rng, 3, n_y)
        eta = 0.5
        mu, v, (mu_y, t) = min_divergence([(posts, 1.0), (posts_d, eta)],
                                          model.mu, model.v)
        new = SpldaModel(mu=mu, v=v, w=model.w)
        sigma_y = t @ t.T
        # marginal of old model under the generalized prior N(mu_y, Sigma_y)
        old_mean = model.mu + model.v @ mu_y
        old_cov = model.v @ sigma_y @ model.v.T + inv_pd(model.w)
        new_mean, new_cov = marginal_params(new)
        np.testing.assert_allclose(new_mean, old_mean, atol=1e-10)
        np.testing.assert_allclose(new_cov, old_cov, atol=1e-10)

    def test_reads_the_blocks_cached_second_moment(self):
        rng = np.random.default_rng(27)
        posts = random_posteriors(rng, 6, 3)
        total = posts.e_yy_total
        assert posts.e_yy_total is total and not total.flags.writeable
        assert (total == posts.sum_e_yy(np.ones(6))).all()

    def test_posterior_standardization(self):
        rng = np.random.default_rng(25)
        n_y = 2
        posts = random_posteriors(rng, 20, n_y)
        posts_d = random_posteriors(rng, 0, n_y)
        model = random_model(rng, 4, n_y)
        *_, (mu_y, t) = min_divergence([(posts, 1.0), (posts_d, 1.0)],
                                       model.mu, model.v)
        std = standardize_posteriors(posts, mu_y, t)
        # aggregate posterior becomes zero-mean with identity second moment
        np.testing.assert_allclose(std.ybar.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(dense_e_yy(std).mean(axis=0), np.eye(n_y),
                                   atol=1e-10)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_responsibilities_stay_row_stochastic(n, m, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, 3, 2)
    posts = random_posteriors(rng, m, 2)
    dirichlet = DirichletPosterior(rng.random(m) + 0.1)
    phi = rng.standard_normal((n, 3))
    resp = update_q_theta(phi, posts, model, dirichlet)
    assert (resp.r >= 0).all()
    np.testing.assert_allclose(resp.r.sum(axis=1), 1.0, atol=1e-10)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_entropy_nonnegative(seed):
    rng = np.random.default_rng(seed)
    r = rng.random((6, 3))
    r /= r.sum(axis=1, keepdims=True)
    assert Responsibilities(r=r).entropy() >= 0.0


TINY = np.finfo(float).tiny


# Tempered, shifted log weights: near the row max (they set the row's
# normaliser), around ln(tiny) ~ -708.4 either side of the truncation, and
# anywhere down to where exp underflows to zero.
_weights = st.one_of(st.floats(min_value=-4.0, max_value=0.0),
                     st.floats(min_value=-712.0, max_value=-704.0),
                     st.floats(min_value=-2000.0, max_value=0.0))


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=1.0)),
       st.lists(st.lists(_weights, min_size=1, max_size=8),
                min_size=1, max_size=5),
       st.floats(min_value=-1e3, max_value=1e3))
def test_normalizer_has_no_subnormals_and_keeps_normal_bits(
        kappa, weights, base):
    m = max(len(row) for row in weights)
    rows = [[0.0] + row + [-1e4] * (m - len(row)) for row in weights]
    log_rho = base + np.array(rows) / kappa
    r = _normalize_log_rho(log_rho.copy(), kappa).r
    oracle = softmax_untruncated(log_rho, kappa)
    assert ((r == 0) | (r >= TINY)).all()
    np.testing.assert_array_equal(r, np.where(oracle >= TINY, oracle, 0.0))
    assert np.abs(r.sum(axis=1) - 1.0).max() <= 1e-12


def test_normalizer_truncates_at_smallest_normal():
    # Shifted weights just either side of ln(tiny): the one whose exp is
    # normal keeps its bits, the subnormal one becomes an exact 0.
    ln_tiny = np.log(TINY)
    log_rho = np.array([[0.0, ln_tiny, np.nextafter(ln_tiny, -np.inf), -720.0]])
    r = _normalize_log_rho(log_rho.copy(), 1.0).r
    oracle = softmax_untruncated(log_rho, 1.0)
    assert 0 < oracle[0, 2] < TINY and 0 < oracle[0, 3] < TINY
    np.testing.assert_array_equal(r, [[1.0, oracle[0, 1], 0.0, 0.0]])


LN_TINY = np.log(TINY)


def _shifted(log_rho, kappa):
    """The tempered weights less their row max, as the softmax's first
    pass sees them."""
    z = kappa * log_rho
    return z - z.max(axis=1, keepdims=True)


_SOFTMAX_CASES = {
    "kappa 1, nothing dropped": (
        1.0, [[0.0, -1.0, -30.0, -700.0], [3.0, 2.5, -100.0, 0.1]]),
    # Row 0: ln(tiny) + 0.5 is kept by the first pass and falls below
    # ln(tiny) once the row's ln normaliser ln 3 is taken off.  Row 1:
    # ln(tiny) + 2 stays above it, its ln normaliser being about 0.41.
    "dropped by the second pass only": (
        1.0, [[0.0, 0.0, 0.0, LN_TINY + 0.5], [0.0, LN_TINY + 2.0, -1.0, -2.0]]),
    "dropped by the first pass, kappa 0.3": (
        0.3, [[0.0, -800.0, -2.0, -1e4], [-5.0, 0.0, LN_TINY - 1.0, -3.0]]),
    # Row 0's normaliser is exactly 1, so the second pass must still see
    # the entries the first pass dropped.
    "dropped by the first pass, two of them -inf": (
        1.0, [[0.0, -np.inf, -1e4, -800.0], [-1.0, 0.0, -1e4, -np.inf]]),
}


@pytest.mark.parametrize("case", list(_SOFTMAX_CASES))
def test_softmax_branches_keep_the_untruncated_bits(case):
    kappa, rows = _SOFTMAX_CASES[case]
    log_rho = 17.25 + np.array(rows) / kappa
    shifted = _shifted(log_rho, kappa)
    assert (shifted < LN_TINY).any() == ("first pass" in case)
    oracle = softmax_untruncated(log_rho, kappa)
    if case == "dropped by the second pass only":
        assert 0 < oracle[0, 3] < TINY <= oracle[1, 1]
    resp = _normalize_log_rho(log_rho.copy(), kappa)
    np.testing.assert_array_equal(resp.r, np.where(oracle >= TINY, oracle, 0.0))
    assert resp.entropy() == resp.h
    want = entropy_nested_where(resp.r)
    assert abs(resp.h - want) <= 1e-12 * want + resp.r.size * np.finfo(float).eps


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_softmax_names_a_nan_or_inf_row(bad):
    with pytest.raises(ValueError, match="NaN or \\+inf"):
        _normalize_log_rho(np.array([[0.0, -1.0], [bad, 0.0]]), 1.0)


def test_point_params_skip_the_zero_u_terms_bit_for_bit():
    # A point model has u = 0; leaving out its terms must not move a bit.
    rng = np.random.default_rng(5)
    model = random_model(rng, 5, 3)
    posts = random_posteriors(rng, 4, 3)
    dirichlet = DirichletPosterior(rng.random(4) + 0.5)
    phi = rng.standard_normal((9, 5))
    stats = accumulate_stats(rng.dirichlet(np.ones(4), size=9), phi)
    point = ExpectedParams.from_model(model)
    zero_u = replace(point, u=np.zeros((4, 4)))
    assert point.u is None
    np.testing.assert_array_equal(point.rhs(stats.n, stats.f),
                                  zero_u.rhs(stats.n, stats.f))
    a = update_q_theta(phi, posts, point, dirichlet)
    b = update_q_theta(phi, posts, zero_u, dirichlet)
    np.testing.assert_array_equal(a.r, b.r)
    assert a.h == b.h


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.0, max_value=0.9))
def test_entropy_matches_nested_where_with_exact_zeros(seed, zero_share):
    rng = np.random.default_rng(seed)
    r = rng.dirichlet(np.ones(5), size=9)
    r[rng.random(r.shape) < zero_share] = 0.0
    r[np.arange(9), rng.integers(0, 5, 9)] += 1e-3  # no all-zero row
    r[0, :2] = [TINY, 0.0]
    r /= r.sum(axis=1, keepdims=True)
    assert (r == 0).any()
    assert Responsibilities(r=r).entropy() == entropy_nested_where(r)


def _offset_problem(rng, variant, offset):
    """q(theta) inputs whose mean mu sits ``offset`` spreads of phi away
    from 0: ``(phi, posts, params, delta, oracle)``, with ``params`` an
    ``SpldaModel`` (point) or ``rowpost.expected(wpost)`` with u != 0
    (bayes), ``delta`` = phi - mu and ``oracle`` the ``log_weights``
    arguments of the same problem translated to mu = 0.  The oracle works
    in the uncentred form, which would cancel at a large offset itself."""
    d, n_y, m, n = 5, 3, 4, 9
    model = random_model(rng, d, n_y)
    mu = offset + model.mu
    phi = mu + rng.standard_normal((n, d))
    if offset:
        # Sterbenz: phi and mu within a factor 2 of each other make
        # phi - mu exact, so both sides see the same centred problem.
        assert ((phi > mu / 2) & (phi < 2 * mu)).all()
    posts = random_posteriors(rng, m, n_y)
    if variant == "point":
        params = SpldaModel(mu=mu, v=model.v, w=model.w)
        oracle = dict(model=SpldaModel(mu=np.zeros(d), v=model.v, w=model.w))
        return phi, posts, params, phi - mu, oracle
    k = n_y + 1
    cov = np.empty((d, k, k))
    for r in range(d):
        a = rng.standard_normal((k, k))
        cov[r] = sym(a @ a.T / k + 0.1 * np.eye(k))
    rowpost = rowpost_from_cov(np.column_stack([model.v, mu]), cov)
    wpost = WishartPosterior.from_update(sym(np.linalg.inv(model.w)) * 20.0,
                                         20.0)
    params = rowpost.expected(wpost)
    assert np.abs(params.u).max() > 0
    oracle = dict(model=SpldaModel(mu=np.zeros(d), v=params.v, w=params.w),
                  ln_w=params.ln_w, u=params.u)
    return phi, posts, params, phi - mu, oracle


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(["point", "bayes"]),
       st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0)),
       st.sampled_from([0.0, 1e3]))
def test_q_theta_matches_softmax_of_log_weight_oracle(seed, variant, kappa,
                                                      offset):
    # The update keeps only the per-cluster part of each log weight; the
    # terms it drops are constant along a row, so the softmax must agree
    # with the softmax of the full oracle log weights, also when |mu| is
    # 1e3 times the spread of phi.
    rng = np.random.default_rng(seed)
    phi, posts, params, delta, oracle = _offset_problem(rng, variant, offset)
    dirichlet = DirichletPosterior(rng.random(posts.m) + 0.5)
    q_theta = update_q_theta if variant == "point" else update_q_theta_bayes
    resp = q_theta(phi, posts, params, dirichlet, kappa)
    want = softmax_untruncated(
        log_weights(delta, posts, dirichlet=dirichlet, **oracle), kappa)
    np.testing.assert_allclose(resp.r, np.where(want >= TINY, want, 0.0),
                               rtol=1e-12, atol=0.0)


# Shifted log weights of one row, beside its max of 0: one-hot rows (every
# other weight far below ln(tiny)), entries either side of ln(tiny), and
# small but normal entries.
_entropy_rows = st.lists(
    st.one_of(st.just(-1e4), st.floats(min_value=-712.0, max_value=-704.0),
              st.floats(min_value=-60.0, max_value=0.0),
              st.floats(min_value=-2000.0, max_value=0.0)),
    min_size=0, max_size=6)


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0)),
       st.lists(_entropy_rows, min_size=1, max_size=6),
       st.floats(min_value=-1e3, max_value=1e3))
def test_softmax_carries_its_entropy(kappa, rows, base):
    m = 1 + max(len(row) for row in rows)
    log_rho = base + np.array(
        [[0.0] + row + [-1e4] * (m - 1 - len(row)) for row in rows]) / kappa
    resp = _normalize_log_rho(log_rho, kappa)
    r = resp.r
    assert resp.h is not None and resp.entropy() == resp.h
    # The oracle takes ln of the rounded r; h uses the ln r the softmax
    # held before its exp rounded it.  Each of the N M terms r ln r (at
    # most 1/e in size) is rounded a few times on either side, so the two
    # may differ by about eps per entry, which is not small against the
    # entropy of near one-hot rows: the row [0, -30] has entropy ~3e-12.
    # Over 20000 random matrices the gap was at most 0.5 N M eps.
    want = entropy_nested_where(r)
    assert abs(resp.h - want) <= 1e-12 * want + r.size * np.finfo(float).eps
