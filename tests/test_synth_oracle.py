import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from spldavb.model import SpldaModel
from spldavb.oracles import clustering_metrics, mc_expectation_oracle
from spldavb.synth import (
    SynthSpec,
    generate,
    pairwise_llr,
    pairwise_llr_matrix,
    split_dataset,
)
from splda_oracles import fd_gradient, fd_gradient_check, pairwise_llr_joint


class TestGenerate:
    def test_deterministic_by_seed(self):
        spec = SynthSpec(d=4, n_y=2, m_true=3, per_speaker=5, seed=7)
        phi1, labels1, model1 = generate(spec)
        phi2, labels2, model2 = generate(spec)
        np.testing.assert_array_equal(phi1, phi2)
        np.testing.assert_array_equal(labels1, labels2)
        np.testing.assert_array_equal(model1.v, model2.v)

    def test_counts(self):
        phi, labels, _ = generate(SynthSpec(d=3, n_y=1, m_true=4, per_speaker=6))
        assert phi.shape == (24, 3)
        np.testing.assert_array_equal(np.bincount(labels), [6, 6, 6, 6])

    def test_count_range(self):
        phi, labels, _ = generate(
            SynthSpec(d=2, n_y=1, m_true=10, per_speaker=(2, 4), seed=3))
        counts = np.bincount(labels)
        assert counts.min() >= 2 and counts.max() <= 4

    def test_low_noise_collapses_speakers(self):
        phi, labels, _ = generate(SynthSpec(
            d=5, n_y=2, m_true=4, per_speaker=20, eigenvoice_scale=1.0,
            noise_scale=1e-4, seed=1))
        for i in range(4):
            spread = phi[labels == i].std(axis=0).max()
            assert spread < 1e-3

    def test_low_eigenvoice_matches_noise_covariance(self):
        spec = SynthSpec(d=3, n_y=2, m_true=50, per_speaker=200,
                         eigenvoice_scale=1e-6, noise_scale=1.5, seed=2)
        phi, _, model = generate(spec)
        emp = np.cov(phi.T)
        target = 1.5 ** 2 * np.eye(3)
        rel = np.abs(emp - target).max() / (1.5 ** 2)
        assert rel < 0.05

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            SynthSpec(d=2, n_y=1, m_true=1, per_speaker=2, noise_scale=0.0)


class TestSplit:
    def test_split_covers_everything(self):
        phi, labels, _ = generate(
            SynthSpec(d=3, n_y=1, m_true=10, per_speaker=4, seed=5))
        dataset, true_unsup = split_dataset(phi, labels, sup_fraction=0.4, seed=5)
        assert dataset.phi.shape[0] + dataset.phi_d.shape[0] == 40
        assert true_unsup.shape[0] == dataset.phi.shape[0]
        # supervised labels are dense 0..M_d-1
        assert set(dataset.labels_d.tolist()) == set(range(dataset.m_d))
        assert dataset.m_d == 4

    def test_speakers_not_split_across_sides(self):
        phi, labels, _ = generate(
            SynthSpec(d=3, n_y=1, m_true=6, per_speaker=5, seed=9))
        dataset, true_unsup = split_dataset(phi, labels, sup_fraction=0.5, seed=1)
        sup_count = dataset.phi_d.shape[0]
        assert sup_count % 5 == 0
        # every supervised speaker keeps all its vectors together
        np.testing.assert_array_equal(np.bincount(dataset.labels_d),
                                      np.full(dataset.m_d, 5))


class TestPairwiseLlr:
    def test_zero_eigenvoice_gives_zero(self):
        rng = np.random.default_rng(0)
        model = SpldaModel(mu=rng.standard_normal(3), v=np.zeros((3, 2)),
                           w=np.eye(3))
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert pairwise_llr(model, a, b) == pytest.approx(0.0, abs=1e-10)

    def test_sign_in_strong_eigenvoice_regime(self):
        rng = np.random.default_rng(1)
        phi, labels, model = generate(SynthSpec(
            d=4, n_y=2, m_true=2, per_speaker=2, eigenvoice_scale=5.0,
            noise_scale=0.5, seed=1))
        same = pairwise_llr(model, phi[0], phi[1])
        diff = pairwise_llr(model, phi[0], phi[2])
        assert same > 0 > diff

    def test_quadrature_oracle_1d(self):
        mu, v, sigma = 0.3, 1.7, 0.8
        model = SpldaModel(mu=np.array([mu]), v=np.array([[v]]),
                           w=np.array([[1.0 / sigma ** 2]]))
        a, b = 1.1, -0.4

        def joint(y):
            return (norm.pdf(a, mu + v * y, sigma)
                    * norm.pdf(b, mu + v * y, sigma) * norm.pdf(y))

        same, _ = quad(joint, -12, 12, limit=200)
        marg_sd = np.sqrt(v ** 2 + sigma ** 2)
        lone = norm.logpdf(a, mu, marg_sd) + norm.logpdf(b, mu, marg_sd)
        oracle = np.log(same) - lone
        got = pairwise_llr(model, np.array([a]), np.array([b]))
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(4)
        phi, _, model = generate(SynthSpec(
            d=3, n_y=2, m_true=2, per_speaker=3, seed=4))
        mat = pairwise_llr_matrix(model, phi)
        for a in range(phi.shape[0]):
            for b in range(phi.shape[0]):
                assert mat[a, b] == pytest.approx(
                    pairwise_llr_joint(model, phi[a], phi[b]), abs=1e-8)

    def test_pair_score_matches_joint_oracle(self):
        phi, _, model = generate(SynthSpec(
            d=5, n_y=2, m_true=3, per_speaker=2, eigenvoice_scale=3.0, seed=6))
        for a in range(phi.shape[0]):
            for b in range(phi.shape[0]):
                assert pairwise_llr(model, phi[a], phi[b]) == pytest.approx(
                    pairwise_llr_joint(model, phi[a], phi[b]), abs=1e-8)

    def test_closed_form_matrix_full_w(self):
        # full non-isotropic W, nonzero mu and d > n_y, unlike generate()
        rng = np.random.default_rng(11)
        d, n_y, n = 7, 3, 32
        a = rng.standard_normal((d, d))
        model = SpldaModel(mu=3.0 * rng.standard_normal(d),
                           v=2.0 * rng.standard_normal((d, n_y)),
                           w=a @ a.T + 0.5 * np.eye(d))
        phi = model.mu + rng.standard_normal((n, d)) @ np.diag(
            np.linspace(0.5, 4.0, d))
        mat = pairwise_llr_matrix(model, phi)
        oracle = np.array([[pairwise_llr_joint(model, phi[i], phi[j])
                            for j in range(n)] for i in range(n)])
        np.testing.assert_array_equal(mat, mat.T)
        scale = np.abs(oracle).max()
        np.testing.assert_allclose(mat, oracle, rtol=0, atol=1e-10 * scale)


class TestClusteringMetrics:
    def test_perfect_match(self):
        rep = clustering_metrics([0, 0, 1, 1, 2], [0, 0, 1, 1, 2])
        assert rep.ari == 1.0
        assert rep.purity == 1.0

    def test_permutation_invariance(self):
        true = [0, 0, 1, 1, 2, 2]
        rep = clustering_metrics([2, 2, 0, 0, 1, 1], true)
        assert rep.ari == 1.0

    def test_single_cluster_prediction(self):
        rep = clustering_metrics([0, 0, 0, 0], [0, 0, 1, 1])
        assert rep.ari == pytest.approx(0.0, abs=1e-12)
        assert rep.purity == pytest.approx(0.5)

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(6)
        pred = rng.integers(0, 5, size=3000)
        true = rng.integers(0, 5, size=3000)
        assert abs(clustering_metrics(pred, true).ari) < 0.05

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            clustering_metrics([0, 1], [0, 1, 2])


class TestFiniteDifferences:
    def test_quadratic_gradient(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        grad = fd_gradient(lambda p: p @ a @ p, x)
        np.testing.assert_allclose(grad, (a + a.T) @ x, atol=1e-6)

    def test_zero_at_stationary_point(self):
        a = np.diag([1.0, 2.0, 3.0])
        res = fd_gradient_check(lambda p: p @ a @ p, np.zeros(3))
        assert res < 1e-8

    def test_rejects_nonfinite_objective(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                fd_gradient(lambda p: np.log(p[0]), np.zeros(1))


class TestMcOracle:
    def test_dirichlet_mean(self):
        mean, se = mc_expectation_oracle(
            {"kind": "dirichlet", "tau": np.array([2.0, 2.0])},
            lambda x: x[0], 20_000, seed=1)
        assert abs(mean - 0.5) < 3 * se + 1e-12

    def test_gamma_mean(self):
        mean, se = mc_expectation_oracle(
            {"kind": "gamma", "a": 2.0, "b": 3.0}, lambda x: x, 20_000, seed=2)
        assert abs(mean - 2.0 / 3.0) < 3 * se

    def test_gaussian_second_moment(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        mean, se = mc_expectation_oracle(
            {"kind": "gaussian", "mean": np.zeros(2), "cov": cov},
            lambda x: np.outer(x, x), 20_000, seed=3)
        assert (np.abs(mean - cov) < 3 * se + 0.02).all()

    def test_wishart_mean(self):
        scale = np.diag([0.5, 1.5])
        mean, se = mc_expectation_oracle(
            {"kind": "wishart", "scale": scale, "dof": 6.0},
            lambda w: w, 20_000, seed=4)
        assert (np.abs(mean - 6.0 * scale) < 3 * se + 0.02).all()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            mc_expectation_oracle({"kind": "cauchy"}, lambda x: x, 10)
