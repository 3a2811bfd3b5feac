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
from splda_oracles import (
    fd_gradient,
    fd_gradient_check,
    pairwise_llr_joint,
    pairwise_llr_matrix_separate,
    split_dataset_loops,
)


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

    @pytest.mark.parametrize("field, value, match", [
        ("eigenvoice_scale", np.nan, "eigenvoice_scale must be finite"),
        ("noise_scale", np.inf, "noise_scale must be finite"),
        ("d", 2.5, "d must be an integer"),
        ("n_y", 1.0, "n_y must be an integer"),
        ("m_true", True, "m_true must be an integer"),
        ("seed", 2.5, "seed must be an integer, got 2.5"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", True, "seed must be an integer, got True"),
        *((field, value, f"{field} must be a real number")
          for field in ("eigenvoice_scale", "noise_scale")
          for value in (True, np.array([1.0, 2.0]), "1")),
    ])
    def test_rejects_what_generate_cannot_read(self, field, value, match):
        kwargs = dict(d=3, n_y=1, m_true=2, per_speaker=2)
        with pytest.raises(ValueError, match=f"^{match}"):
            SynthSpec(**{**kwargs, field: value})

    @pytest.mark.parametrize("field, value, match", [
        ("d", 2, "d=2 differs from the model's d=6"),
        ("n_y", 1, "n_y=1 differs from the model's n_y=2"),
        ("eigenvoice_scale", 9.0, "eigenvoice_scale=9.0 has no effect"),
        ("noise_scale", 0.5, "noise_scale=0.5 has no effect"),
    ])
    def test_a_given_model_fixes_the_sizes_and_scales(self, field, value, match):
        _, _, model = generate(SynthSpec(d=6, n_y=2, m_true=1, per_speaker=1))
        kwargs = dict(d=6, n_y=2, m_true=3, per_speaker=4, model=model)
        with pytest.raises(ValueError, match=f"^{match}"):
            SynthSpec(**{**kwargs, field: value})
        phi, _, drawn = generate(SynthSpec(**kwargs))
        assert drawn is model and phi.shape == (12, 6)

    @pytest.mark.parametrize("per_speaker", [0, -2, (0, 2), (5, 2), (-1, 3)])
    def test_rejects_a_speaker_without_ivectors(self, per_speaker):
        # (0, 2) would drop the speakers that draw 0; (5, 2) has no count.
        with pytest.raises(ValueError, match="^per_speaker must be >= 1"):
            SynthSpec(d=3, n_y=1, m_true=6, per_speaker=per_speaker, seed=3)

    @pytest.mark.parametrize("pair", [[4, 16], np.array([4, 16])])
    @pytest.mark.parametrize("m_true", [2, 3])
    def test_any_pair_is_a_range(self, pair, m_true):
        # A pair is kept as a tuple, so that generate draws each count from
        # the range, as it does for the tuple (4, 16).
        spec = SynthSpec(d=3, n_y=1, m_true=m_true, per_speaker=pair, seed=0)
        assert isinstance(spec.per_speaker, tuple) and spec.per_speaker == (4, 16)
        phi, labels, _ = generate(spec)
        phi_t, labels_t, _ = generate(SynthSpec(
            d=3, n_y=1, m_true=m_true, per_speaker=(4, 16), seed=0))
        np.testing.assert_array_equal(labels, labels_t)
        np.testing.assert_array_equal(phi, phi_t)

    @pytest.mark.parametrize("per_speaker", [
        2.5, 2.0, np.float64(3.0), True, "ab", (4,), (4, 8, 16), (4.0, 16),
        [2, 2.5], None])
    def test_rejects_anything_but_integers(self, per_speaker):
        # Nothing is rounded: a float count, even a whole one, is rejected
        # where the spec is built, not in generate.
        with pytest.raises(ValueError, match="^per_speaker must be >= 1"):
            SynthSpec(d=3, n_y=1, m_true=2, per_speaker=per_speaker)


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

    @pytest.mark.parametrize("fraction", [-0.5, 1.5, np.nan])
    def test_rejects_a_fraction_outside_zero_one(self, fraction):
        phi, labels, _ = generate(SynthSpec(d=3, n_y=1, m_true=4, per_speaker=2))
        with pytest.raises(ValueError, match=r"^sup_fraction must lie in \[0, 1\]"):
            split_dataset(phi, labels, fraction)

    @pytest.mark.parametrize("setting, value, match", [
        ("seed", 2.5, r"seed must be an integer, got 2\.5"),
        ("sup_fraction", True, "sup_fraction must be a real number, got True"),
        ("sup_fraction", np.array([0.5]), "sup_fraction must be a real number"),
    ])
    def test_rejects_a_setting_of_another_kind(self, setting, value, match):
        phi, labels, _ = generate(SynthSpec(d=3, n_y=1, m_true=4, per_speaker=2))
        kwargs = dict(sup_fraction=0.5, seed=0)
        with pytest.raises(ValueError, match=f"^{match}"):
            split_dataset(phi, labels, **{**kwargs, setting: value})

    @pytest.mark.parametrize("seed", range(6))
    def test_permuted_sparse_labels_match_the_loop_split(self, seed):
        # Speaker ids far from 0..M-1, rows in random order.
        rng = np.random.default_rng(seed)
        phi, labels, _ = generate(SynthSpec(
            d=3, n_y=1, m_true=9, per_speaker=(1, 6), seed=seed))
        ids = rng.choice(1000, size=9, replace=False) - 300
        order = rng.permutation(labels.size)
        phi, labels = phi[order], ids[labels[order]]
        for fraction in (0.0, 0.3, 0.5, 1.0):
            got = split_dataset(phi, labels, fraction, seed=seed)
            want = split_dataset_loops(phi, labels, fraction, seed=seed)
            for a, b in ((got[0].phi, want[0].phi),
                         (got[0].phi_d, want[0].phi_d),
                         (got[0].labels_d, want[0].labels_d),
                         (got[1], want[1])):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)


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
        np.testing.assert_allclose(mat, oracle, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_latent_form_matches_the_joint_and_the_d_space_forms(self, seed):
        # The n_y-dimensional form against the 2d-dimensional joint
        # Gaussian (measured: <= 2.0e-14 x scale) and against the d x d
        # two-covariance form it replaced (measured: <= 2.7e-13 x scale).
        rng = np.random.default_rng(seed)
        d, n_y, n = 9, 4, 25
        a = rng.standard_normal((d, d))
        model = SpldaModel(mu=rng.standard_normal(d),
                           v=rng.standard_normal((d, n_y)),
                           w=a @ a.T + 0.1 * np.eye(d))
        phi = rng.standard_normal((n, d))
        mat = pairwise_llr_matrix(model, phi)
        oracle = np.array([[pairwise_llr_joint(model, phi[i], phi[j])
                            for j in range(n)] for i in range(n)])
        scale = np.abs(oracle).max()
        np.testing.assert_allclose(mat, oracle, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(mat, pairwise_llr_matrix_separate(model, phi),
                                   rtol=0, atol=1e-12 * scale)


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

    def test_rejects_non_integer_labels(self):
        # Truncation would read 0.5, 1.7, 1.2 as 0, 1, 1 and score ARI 1.
        with pytest.raises(ValueError, match="^pred_labels must be integers"):
            clustering_metrics([0.5, 1.7, 1.2], [0, 1, 1])
        with pytest.raises(ValueError, match="^true_labels must be integers"):
            clustering_metrics([0, 1, 1], [0, 1, np.nan])

    def test_any_integer_ids_are_labels(self):
        # Negative ids and whole floats name clusters as well as any others.
        rep = clustering_metrics([-1, -1, 3, 3, 7], [0, 0, 1, 1, 2])
        assert (rep.ari, rep.purity) == (1.0, 1.0)
        assert clustering_metrics([0.0, 0.0, 1.0], [5, 5, -2]).ari == 1.0


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
