import numpy as np
import pytest

from spldavb.linalg import inv_pd
from spldavb.model import (
    Dataset,
    SpldaModel,
    accumulate_stats,
    center_stats,
    marginal_params,
)
from splda_oracles import (
    SpeakerStatsEntry,
    cond_loglik,
    cond_loglik_augmented,
    per_speaker_second_order,
    stats_entry,
)


def random_resp(rng, n, m):
    r = rng.random((n, m))
    return r / r.sum(axis=1, keepdims=True)


def random_model(rng, d, n_y):
    a = rng.standard_normal((d, d))
    return SpldaModel(
        mu=rng.standard_normal(d),
        v=rng.standard_normal((d, n_y)),
        w=a @ a.T + d * np.eye(d),
    )


class TestAccumulate:
    def test_hard_counts(self):
        resp = np.array([[1.0, 0.0], [1.0, 0.0]])
        phi = np.array([[1.0, 0.0], [3.0, 0.0]])
        stats = accumulate_stats(resp, phi)
        assert stats.n[0] == 2.0
        np.testing.assert_array_equal(stats.f[0], [4.0, 0.0])

    def test_symmetric_split(self):
        stats = accumulate_stats(np.array([[0.5, 0.5]]), np.array([[2.0, 2.0]]))
        np.testing.assert_array_equal(stats.n, [0.5, 0.5])
        np.testing.assert_array_equal(stats.f, [[1.0, 1.0], [1.0, 1.0]])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        n, m, d = 20, 3, 5
        resp = random_resp(rng, n, m)
        phi = rng.standard_normal((n, d))
        stats = accumulate_stats(resp, phi)
        # naive double-loop accumulation
        n_or = np.zeros(m)
        f_or = np.zeros((m, d))
        s_or = np.zeros((d, d))
        for j in range(n):
            for i in range(m):
                n_or[i] += resp[j, i]
                f_or[i] += resp[j, i] * phi[j]
            s_or += np.outer(phi[j], phi[j])
        np.testing.assert_allclose(stats.n, n_or, atol=1e-12)
        np.testing.assert_allclose(stats.f, f_or, atol=1e-12)
        np.testing.assert_allclose(stats.s, s_or, atol=1e-12)

    def test_total_count_conserved(self):
        rng = np.random.default_rng(3)
        for n, m in [(1, 1), (50, 7), (200, 3)]:
            resp = random_resp(rng, n, m)
            stats = accumulate_stats(resp, rng.standard_normal((n, 4)))
            assert abs(stats.n_total - n) <= 1e-10 * n

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            accumulate_stats(np.ones((3, 2)) / 2, np.ones((4, 2)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            accumulate_stats(np.array([[1.5, -0.5]]), np.ones((1, 2)))


class TestCenter:
    def test_zero_mean_identity(self):
        rng = np.random.default_rng(0)
        stats = accumulate_stats(random_resp(rng, 10, 2), rng.standard_normal((10, 3)))
        c = center_stats(stats, np.zeros(3))
        np.testing.assert_array_equal(c.fbar, stats.f)

    def test_single_point_at_mean(self):
        phi = np.array([[1.0, -2.0]])
        stats = accumulate_stats(np.array([[1.0]]), phi)
        c = center_stats(stats, phi[0])
        np.testing.assert_allclose(c.fbar, 0.0, atol=1e-15)

    def test_matches_direct_centered_oracle(self):
        rng = np.random.default_rng(11)
        n, m, d = 15, 4, 3
        resp = random_resp(rng, n, m)
        phi = rng.standard_normal((n, d))
        mu = rng.standard_normal(d)
        stats = center_stats(accumulate_stats(resp, phi), mu)
        np.testing.assert_allclose(
            stats.fbar, resp.T @ (phi - mu), atol=1e-10)

    def test_fixed_point(self):
        rng = np.random.default_rng(5)
        stats = accumulate_stats(random_resp(rng, 8, 2), rng.standard_normal((8, 3)))
        mu = rng.standard_normal(3)
        once = center_stats(stats, mu)
        twice = center_stats(once, mu)
        np.testing.assert_array_equal(once.fbar, twice.fbar)


class TestCondLoglik:
    def test_empty_speaker(self):
        model = random_model(np.random.default_rng(1), 3, 2)
        entry = SpeakerStatsEntry(n=0.0, f=np.zeros(3), s=np.zeros((3, 3)))
        assert cond_loglik(entry, np.ones(2), model) == 0.0

    def test_scalar_gaussian(self):
        model = SpldaModel(mu=np.zeros(1), v=np.zeros((1, 1)), w=np.ones((1, 1)))
        entry = SpeakerStatsEntry(n=1.0, f=np.array([2.0]), s=np.array([[4.0]]))
        expected = 0.5 * np.log(1.0 / (2 * np.pi)) - 2.0
        assert cond_loglik(entry, np.array([0.7]), model) == pytest.approx(expected)

    def test_per_vector_gaussian_oracle(self):
        rng = np.random.default_rng(3)
        d, n_y, n = 4, 2, 12
        model = random_model(rng, d, n_y)
        resp = random_resp(rng, n, 2)
        phi = rng.standard_normal((n, d))
        y = rng.standard_normal(n_y)
        s_per = per_speaker_second_order(resp, phi)
        stats = accumulate_stats(resp, phi)
        cov = inv_pd(model.w)
        mean = model.mu + model.v @ y
        chol = np.linalg.cholesky(cov)
        for i in range(2):
            entry = stats_entry(stats, i, s_i=s_per[i])
            got = cond_loglik(entry, y, model)
            # direct sum of weighted Gaussian log-pdfs
            oracle = 0.0
            for j in range(n):
                z = np.linalg.solve(chol, phi[j] - mean)
                oracle += resp[j, i] * (
                    -0.5 * z @ z - 0.5 * d * np.log(2 * np.pi)
                    - np.log(np.diag(chol)).sum())
            assert got == pytest.approx(oracle, rel=1e-9)

    def test_augmented_form_agrees(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            d, n_y = 5, 3
            model = random_model(rng, d, n_y)
            resp = random_resp(rng, 9, 2)
            phi = rng.standard_normal((9, d))
            s_per = per_speaker_second_order(resp, phi)
            stats = accumulate_stats(resp, phi)
            y = rng.standard_normal(n_y)
            entry = stats_entry(stats, 0, s_i=s_per[0])
            a = cond_loglik(entry, y, model)
            b = cond_loglik_augmented(entry, y, model)
            assert a == pytest.approx(b, rel=1e-9)

    def test_rejects_non_pd_w(self):
        with pytest.raises(Exception):
            SpldaModel(mu=np.zeros(2), v=np.zeros((2, 1)),
                       w=np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestMarginal:
    def test_no_speaker_variability(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 2)
        model = SpldaModel(mu=model.mu, v=np.zeros((3, 2)), w=model.w)
        _, cov = marginal_params(model)
        np.testing.assert_allclose(cov, inv_pd(model.w), atol=1e-12)

    def test_scalar(self):
        model = SpldaModel(mu=np.zeros(1), v=np.array([[2.0]]), w=np.ones((1, 1)))
        _, cov = marginal_params(model)
        assert cov[0, 0] == pytest.approx(5.0)

    def test_monte_carlo_sampling(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3, 2)
        mean, cov = marginal_params(model)
        n = 200_000
        y = rng.standard_normal((n, 2))
        noise_chol = np.linalg.cholesky(inv_pd(model.w))
        phi = model.mu + y @ model.v.T + rng.standard_normal((n, 3)) @ noise_chol.T
        emp = np.cov(phi.T)
        rel = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
        assert rel < 0.03


class TestDataset:
    def test_rejects_gap_in_speakers(self):
        with pytest.raises(ValueError):
            Dataset(phi=np.zeros((0, 2)), phi_d=np.ones((2, 2)),
                    labels_d=np.array([0, 2]))

    def test_rejects_nan(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            Dataset(phi=bad, phi_d=np.ones((1, 2)), labels_d=np.array([0]))

    def test_rejects_labels_without_vectors(self):
        for phi_d in (np.zeros((0, 3)), np.array([])):
            with pytest.raises(ValueError, match="labels_d"):
                Dataset(phi=np.ones((5, 3)), phi_d=phi_d, labels_d=[0, 1, 2])
        ds = Dataset(phi=np.ones((5, 3)), phi_d=np.zeros((0, 3)),
                     labels_d=np.zeros(0, int))
        assert ds.m_d == 0

    def test_one_hot(self):
        ds = Dataset(phi=np.zeros((0, 2)), phi_d=np.ones((3, 2)),
                     labels_d=np.array([0, 1, 0]))
        r = ds.one_hot_labels()
        np.testing.assert_array_equal(r, [[1, 0], [0, 1], [1, 0]])
