import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spldavb.linalg import inv_logdet_pd, inv_pd, logdet_pd
from spldavb.model import (
    Dataset,
    SpldaModel,
    _hard_stats,
    accumulate_stats,
    center_stats,
    marginal_params,
)
from splda_oracles import (
    SpeakerStatsEntry,
    cond_loglik,
    cond_loglik_augmented,
    inv_pd_two_solves,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN fails every comparison, so a sign or row-sum check written as
        # "reject if r < 0" or "reject if |sum - 1| > tol" lets it through.
        with pytest.raises(ValueError, match="non-finite responsibility"):
            accumulate_stats(np.array([[0.5, bad], [1.0, 0.0]]), np.ones((2, 3)))


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

    def test_rejects_inconsistent_shapes(self):
        model = random_model(np.random.default_rng(26), 5, 2)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            SpldaModel(mu=model.mu[:-1], v=model.v, w=model.w)
        with pytest.raises(ValueError, match="exceeds"):
            SpldaModel(mu=model.mu, v=np.zeros((5, 6)), w=model.w)


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


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 80), st.integers(0, 4), st.floats(0.0, 1.0),
       st.integers(0, 2**31 - 1))
def test_inv_pd_equals_two_triangular_solves(d, extra, ridge, seed):
    # One LAPACK solve against the Cholesky factor gives the bits of the
    # two separate triangular solves; a 1 x 1 solve may round its last bit
    # differently.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d + extra))
    a = a @ a.T + ridge * np.eye(d)
    expected = inv_pd_two_solves(a)
    if d == 1:
        assert np.abs(inv_pd(a) - expected) <= np.spacing(expected)
    else:
        assert (inv_pd(a) == expected).all()


class TestFactorReuse:
    """The model keeps log|W| from the factor that validates W."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_logdet_w_equals_logdet_pd(self, seed):
        model = random_model(np.random.default_rng(seed), 6, 2)
        assert model.logdet_w() == logdet_pd(model.w)

    def test_logdet_w_of_a_w_that_needs_the_jitter(self):
        a = np.random.default_rng(3).standard_normal((4, 4))
        a[2] = 0.0  # a zero row and column: singular, PD after the jitter
        w = a @ a.T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(w)
        model = SpldaModel(mu=np.zeros(4), v=np.zeros((4, 1)), w=w)
        assert np.isfinite(model.logdet_w())
        assert model.logdet_w() == logdet_pd(w)

    @pytest.mark.parametrize("d", [1, 5, 30])
    def test_inv_logdet_pd_equals_separate_calls(self, d):
        a = np.random.default_rng(d).standard_normal((d, d + 2))
        a = a @ a.T
        inv, logdet = inv_logdet_pd(a)
        assert (inv == inv_pd(a)).all()
        assert logdet == logdet_pd(a)

    def test_infinite_matrix_is_rejected(self):
        a = np.diag([np.inf, 1.0])
        with pytest.raises(ValueError, match="infs or NaNs"):
            inv_pd(a)

    def test_empty_matrix(self):
        inv, logdet = inv_logdet_pd(np.zeros((0, 0)))
        assert inv.shape == inv_pd(np.zeros((0, 0))).shape == (0, 0)
        assert logdet == 0.0


class TestDataset:
    def test_rejects_gap_in_speakers(self):
        with pytest.raises(ValueError):
            Dataset(phi=np.zeros((0, 2)), phi_d=np.ones((2, 2)),
                    labels_d=np.array([0, 2]))

    def test_rejects_fractional_labels(self):
        # A label is checked, not truncated: [0.5, 1.7, 1.2] is not [0, 1, 1].
        for labels, shown in (([0.5, 1.7, 1.2], "0.5"), ([0, np.nan, 1], "nan")):
            with pytest.raises(ValueError,
                               match=f"labels_d must be integers, got {shown}"):
                Dataset(phi=np.zeros((0, 2)), phi_d=np.ones((3, 2)),
                        labels_d=labels)
        ds = Dataset(phi=np.zeros((0, 2)), phi_d=np.ones((3, 2)),
                     labels_d=[0.0, 1.0, 1.0])
        assert ds.labels_d.dtype.kind == "i"
        np.testing.assert_array_equal(ds.labels_d, [0, 1, 1])

    def test_rejects_nan(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="^phi must be finite, got nan"):
            Dataset(phi=bad, phi_d=np.ones((1, 2)), labels_d=np.array([0]))

    def test_rejects_labels_without_vectors(self):
        for phi_d in (np.zeros((0, 3)), np.array([])):
            with pytest.raises(ValueError, match="labels_d"):
                Dataset(phi=np.ones((5, 3)), phi_d=phi_d, labels_d=[0, 1, 2])
        ds = Dataset(phi=np.ones((5, 3)), phi_d=np.zeros((0, 3)),
                     labels_d=np.zeros(0, int))
        assert ds.m_d == 0

    def test_empty_set_takes_the_other_sets_dimension(self):
        for empty in ([], np.zeros((0, 3)), np.zeros((0, 0))):
            ds = Dataset(phi=empty, phi_d=np.ones((2, 3)), labels_d=[0, 1])
            assert ds.phi.shape == (0, 3) and ds.d == 3
            ds = Dataset(phi=np.ones((2, 3)), phi_d=empty, labels_d=[])
            assert ds.phi_d.shape == (0, 3) and ds.m_d == 0
        with pytest.raises(ValueError, match="both empty"):
            Dataset(phi=np.zeros((0, 3)), phi_d=[], labels_d=[])


class TestHardStats:
    def test_counts_and_row_order_sums(self):
        # At this size pairwise sums, and the one-hot GEMM of OpenBLAS,
        # round apart from the sequential sums in hundreds of entries.
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 39, size=600)
        labels[labels == 4] = 5  # cluster 4 has no rows, nor has cluster 39
        phi = rng.standard_normal((600, 60)) + 1.0 / 3.0
        n, f = _hard_stats(labels, phi, 40)
        assert n.dtype == float
        np.testing.assert_array_equal(n, np.bincount(labels, minlength=40))
        sequential = np.zeros((40, 60))
        for label, row in zip(labels, phi):
            sequential[label] += row
        np.testing.assert_array_equal(f, sequential)
        assert n[4] == n[39] == 0 and (f[[4, 39]] == 0).all()

    def test_empty_labelled_set(self):
        ds = Dataset(phi=np.ones((5, 3)), phi_d=[], labels_d=[])
        n, f = _hard_stats(ds.labels_d, ds.phi_d, ds.m_d)
        assert n.shape == (0,) and f.shape == (0, 3)
