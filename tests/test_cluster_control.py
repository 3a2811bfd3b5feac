import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spldavb import adapt, linalg, vbbayes, vbpoint
from spldavb.adapt import (
    RunConfig,
    Responsibilities,
    init_responsibilities,
    prune_and_merge,
    run_adaptation,
    sampled_statistics,
    sweep_m,
    train_supervised,
)
from spldavb.model import Dataset, accumulate_stats
from spldavb.oracles import clustering_metrics
from spldavb.synth import SynthSpec, generate, split_dataset
from spldavb.vbpoint import Hyperparams
from splda_oracles import (closest_pairs_oracle, fixed_param_elbo,
                           monte_carlo_bound, padded_hard_elbo)


# Settings under which RunConfig reads each gated knob, so that a bad value
# meets the knob's range check and not the rule against unread knobs.
READ_WITH = dict(kappa0=dict(anneal=True), kappa_growth=dict(anneal=True),
                 prune_threshold=dict(prune_merge=True),
                 merge_threshold=dict(prune_merge=True),
                 prune_every=dict(prune_merge=True))


def easy_problem(seed=0, m_true=4, per_speaker=10, d=6, n_y=2):
    phi, labels, model = generate(SynthSpec(
        d=d, n_y=n_y, m_true=m_true, per_speaker=per_speaker,
        eigenvoice_scale=5.0, noise_scale=1.0, seed=seed))
    dataset = Dataset(phi=phi, phi_d=np.zeros((0, d)), labels_d=np.zeros(0, int))
    return dataset, labels, model


def split_problem(seed=0, d=5, n_y=2):
    """Half the speakers labelled, with a model trained on them."""
    phi, labels, _ = generate(SynthSpec(
        d=d, n_y=n_y, m_true=8, per_speaker=(4, 16), eigenvoice_scale=3.0,
        seed=seed))
    dataset, _ = split_dataset(phi, labels, 0.5, seed=seed)
    model = train_supervised(dataset.phi_d, dataset.labels_d, n_y,
                             seed=seed, max_iter=20).model
    return dataset, model


def tiny_labelled_problem(phi):
    """Four labelled speakers of three i-vectors each (d = 4), a model
    briefly trained on them, and ``phi`` as the unlabelled set."""
    phi_d = np.random.default_rng(0).standard_normal((12, 4))
    labels_d = np.repeat(np.arange(4), 3)
    model = train_supervised(phi_d, labels_d, 2, max_iter=5).model
    return Dataset(phi=phi, phi_d=phi_d, labels_d=labels_d), model


def sweep_inputs(variant, seed=5, **config):
    """A run's start on a split problem, as ``adapt._start`` makes it: the
    variant, its params at the trained model (point masses for the
    Bayesian variant), and the statistics and q(pi) of random_y initial
    responsibilities."""
    dataset, model = split_problem(seed=seed)
    return adapt._start(dataset, model, Hyperparams(), RunConfig(
        m_init=4, variant=variant, init_method="random_y", seed=seed,
        **config))


class TestInit:
    def test_uniform(self):
        dataset, _, model = easy_problem()
        resp = init_responsibilities(
            dataset, model, RunConfig(m_init=5, init_method="uniform_pi"))
        np.testing.assert_allclose(resp.r, 0.2)

    def test_oracle(self):
        dataset, labels, model = easy_problem()
        resp = init_responsibilities(dataset, model, RunConfig(
            m_init=4, init_method="oracle", oracle_labels=labels))
        np.testing.assert_array_equal(np.argmax(resp.r, axis=1), labels)
        np.testing.assert_array_equal(resp.r.sum(axis=1), 1.0)

    def test_oracle_requires_labels(self):
        dataset, _, model = easy_problem()
        with pytest.raises(ValueError, match="oracle_labels"):
            init_responsibilities(dataset, model,
                                  RunConfig(m_init=4, init_method="oracle"))

    @pytest.mark.parametrize("init_method", ["ahc", "random_y", "uniform_pi"])
    def test_oracle_labels_need_oracle_init(self, init_method):
        with pytest.raises(ValueError, match="oracle_labels"):
            RunConfig(init_method=init_method, oracle_labels=np.zeros(3, int))

    @pytest.mark.parametrize("edit", ["negative", "short", "long",
                                      "fractional"])
    def test_oracle_labels_checked_against_data(self, edit):
        dataset, labels, model = easy_problem()
        labels = {"negative": np.where(labels == 3, -1, labels),
                  "fractional": np.where(labels == 0, 0.6, labels),
                  "short": labels[:-1],
                  "long": np.append(labels, 0)}[edit]
        with pytest.raises(ValueError, match="oracle_labels"):
            init_responsibilities(dataset, model, RunConfig(
                m_init=4, init_method="oracle", oracle_labels=labels))

    def test_random_y_is_seeded_and_stochastic(self):
        dataset, _, model = easy_problem()
        cfg = RunConfig(m_init=6, init_method="random_y", seed=11)
        a = init_responsibilities(dataset, model, cfg)
        b = init_responsibilities(dataset, model, cfg)
        np.testing.assert_array_equal(a.r, b.r)
        np.testing.assert_allclose(a.r.sum(axis=1), 1.0, atol=1e-10)

    def test_ahc_recovers_separated_clusters(self):
        dataset, labels, model = easy_problem(seed=23)
        resp = init_responsibilities(
            dataset, model, RunConfig(m_init=4, init_method="ahc"))
        pred = np.argmax(resp.r, axis=1)
        assert clustering_metrics(pred, labels).ari == 1.0

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_ahc_with_one_unlabelled_vector(self, variant):
        # Linkage needs two observations; the one i-vector forms column 0.
        dataset, model = tiny_labelled_problem(
            np.random.default_rng(5).standard_normal((1, 4)))
        cfg = RunConfig(m_init=2, init_method="ahc", variant=variant)
        np.testing.assert_array_equal(
            init_responsibilities(dataset, model, cfg).r, [[1.0, 0.0]])
        report = run_adaptation(dataset, model, Hyperparams(), cfg)
        np.testing.assert_array_equal(report.labels, [0])
        assert np.isfinite(report.elbo_trace).all()


class TestSampledStatistics:
    def test_hard_resp_reproduces_exact_stats(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, size=12)
        r = np.zeros((12, 3))
        r[np.arange(12), labels] = 1.0
        phi = rng.standard_normal((12, 4))
        counts, fsums = sampled_statistics(Responsibilities(r=r), phi, k=5, seed=1)
        for j in range(5):
            np.testing.assert_array_equal(counts[j], np.bincount(labels, minlength=3))
            np.testing.assert_allclose(fsums[j], r.T @ phi, atol=1e-12)

    def test_counts_partition_data(self):
        rng = np.random.default_rng(3)
        r = rng.random((20, 4))
        r /= r.sum(axis=1, keepdims=True)
        phi = rng.standard_normal((20, 3))
        counts, fsums = sampled_statistics(Responsibilities(r=r), phi, k=7, seed=2)
        np.testing.assert_array_equal(counts.sum(axis=1), 20.0)
        np.testing.assert_allclose(fsums.sum(axis=1),
                                   np.tile(phi.sum(axis=0), (7, 1)), atol=1e-10)

    def test_concentration_around_soft_counts(self):
        rng = np.random.default_rng(4)
        r = rng.random((50, 3))
        r /= r.sum(axis=1, keepdims=True)
        phi = rng.standard_normal((50, 2))
        k = 4000
        counts, _ = sampled_statistics(Responsibilities(r=r), phi, k=k, seed=3)
        expected = r.sum(axis=0)
        se = np.sqrt((r * (1 - r)).sum(axis=0) / k)
        assert (np.abs(counts.mean(axis=0) - expected) < 4 * se).all()

    def test_sample_elbos_consistent_for_identical_samples(self):
        dataset, labels, model = easy_problem(m_true=3, per_speaker=5)
        r = np.zeros((15, 3))
        r[np.arange(15), labels] = 1.0
        counts, fsums = sampled_statistics(
            Responsibilities(r=r), dataset.phi, k=4, seed=5)
        elbos = [adapt._hard_elbo(smp, model, 1.0) for smp in
                 adapt._sample_accumulators(counts, fsums,
                                            dataset.phi.T @ dataset.phi, model)]
        assert np.ptp(elbos) < 1e-9 * abs(elbos[0])

    def test_hard_elbo_equals_padded_bound(self):
        # _hard_elbo sums one block and the cluster terms; an empty labelled
        # block passed to elbo_point adds only exact zeros.
        dataset, _, model = easy_problem(m_true=3, per_speaker=5)
        r = np.random.default_rng(6).dirichlet(np.ones(4), size=15)
        counts, fsums = sampled_statistics(
            Responsibilities(r=r), dataset.phi, k=8, seed=7)
        for smp in adapt._sample_accumulators(
                counts, fsums, dataset.phi.T @ dataset.phi, model):
            assert adapt._hard_elbo(smp, model, 0.7) == \
                padded_hard_elbo(smp, model, 0.7)


class TestPruneMerge:
    def _config(self):
        return RunConfig(m_init=3, prune_merge=True)

    def test_prunes_empty_column(self):
        r = np.zeros((6, 3))
        r[:3, 0] = 1.0
        r[3:, 2] = 1.0
        resp, elbo, state, changed = prune_and_merge(
            Responsibilities(r=r), self._config(),
            lambda m: "state", score=lambda r, merge=None: 0.0)
        assert changed
        assert resp.r.shape[1] == 2

    def test_merges_duplicate_columns(self):
        rng = np.random.default_rng(6)
        col = rng.random(8) * 0.5 + 0.25
        r = np.column_stack([col / 2, col / 2, 1.0 - col])
        resp, elbo, state, changed = prune_and_merge(
            Responsibilities(r=r), self._config(),
            lambda m: "state", score=lambda r, merge=None: 0.0)
        assert changed
        assert resp.r.shape[1] == 2
        np.testing.assert_allclose(resp.r.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_restructure_that_hurts_elbo(self):
        r = np.zeros((6, 3))
        r[:3, 0] = 1.0
        r[3:, 2] = 1.0
        refreshed = []
        resp, elbo, state, changed = prune_and_merge(
            Responsibilities(r=r), self._config(),
            lambda m: refreshed.append(m) or "state", extra_pairs=[(0, 2)],
            score=lambda m, merge=None:
                -100.0 if merge or m.shape[1] < 3 else 0.0)
        assert not changed
        assert resp.r.shape[1] == 3
        assert elbo == 0.0
        assert refreshed == []

    def test_no_change_is_reported(self):
        rng = np.random.default_rng(7)
        r = np.eye(3)[rng.integers(0, 3, size=9)]
        r = 0.8 * r + 0.2 / 3
        _, _, _, changed = prune_and_merge(
            Responsibilities(r=r), self._config(),
            lambda m: None, score=lambda r, merge=None: 0.0)
        assert not changed

    def test_heaviest_column_stays_when_none_reaches_threshold(self):
        r = np.array([[0.3, 0.45, 0.25]])
        resp, elbo, state, changed = prune_and_merge(
            Responsibilities(r=r), self._config(),
            lambda m: "state", score=lambda r, merge=None: 0.0)
        assert changed
        np.testing.assert_array_equal(resp.r, [[1.0]])

    def test_row_with_no_mass_in_kept_columns_keeps_its_heaviest(self):
        # Row 4 lies wholly in columns 1 and 2, both below the threshold.
        r = np.array([[1.0, 0.0, 0.0]] * 4 + [[0.0, 0.3, 0.7]])
        resp, elbo, state, changed = prune_and_merge(
            Responsibilities(r=r), replace(self._config(), prune_threshold=1.5),
            lambda m: "state", score=lambda r, merge=None: 0.0)
        assert changed
        np.testing.assert_array_equal(resp.r, [[1.0, 0.0]] * 4 + [[0.0, 1.0]])

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_run_with_a_row_alone_in_a_pruned_column(self, variant):
        # AHC puts unlabelled i-vector 10 alone in a column that holds less
        # than prune_threshold, and its other responsibilities are exact
        # zeros.
        phi, labels, _ = generate(SynthSpec(
            d=10, n_y=3, m_true=16, per_speaker=(1, 8), eigenvoice_scale=6.0,
            seed=13))
        dataset, _ = split_dataset(phi, labels, 0.5, seed=13)
        model = train_supervised(dataset.phi_d, dataset.labels_d, 3,
                                 max_iter=10, seed=13).model
        report = run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=8, variant=variant, init_method="ahc", prune_merge=True,
            prune_every=1, prune_threshold=1.5, max_iter=20))
        assert np.isfinite(report.elbo_trace).all()

    def test_run_goes_on_when_no_column_reaches_threshold(self):
        # One i-vector spread over three columns, none of which holds 0.5.
        dataset, model = tiny_labelled_problem(
            np.random.default_rng(1004).standard_normal((1, 4)))
        report = run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=3, init_method="random_y", prune_merge=True, prune_every=1,
            seed=4, max_iter=10))
        assert report.m_trace[:3] == [3, 3, 1]
        np.testing.assert_array_equal(report.labels, [0])
        assert np.isfinite(report.elbo_trace).all()


class TestScoreGate:
    """The prune/merge gate: a candidate is kept only if its fixed-parameter
    score holds against the current structure's, and the final structure
    is handed to ``refresh`` once."""

    @staticmethod
    def _config():
        return RunConfig(m_init=3, prune_merge=True)

    def test_failing_scores_run_no_sweep(self):
        r = np.zeros((6, 3))
        r[:3, 0] = 1.0
        r[3:, 2] = 1.0
        resp = Responsibilities(r=r)
        refreshed, scored = [], []

        def score(m, merge=None):
            scored.append((m.shape[1], merge))
            return 0.0 if m is r and merge is None else -1.0

        out = prune_and_merge(
            resp, self._config(), lambda m: refreshed.append(m) or "state",
            extra_pairs=[(0, 2)], score=score)
        assert out == (resp, 0.0, None, False)
        assert refreshed == []
        # The baseline, the prune and the extra merge were each scored.
        assert scored == [(3, None), (2, None), (3, (0, 2))]

    def test_one_refresh_of_the_final_structure(self):
        r = np.zeros((6, 4))
        r[:3, :2] = 0.5  # columns 0 and 1 duplicate each other
        r[3:, 3] = 1.0  # column 2 is empty
        refreshed = []
        resp, elbo, state, changed = prune_and_merge(
            Responsibilities(r=r), self._config(),
            lambda m: refreshed.append(m) or "refreshed",
            score=lambda m, merge=None: 0.0 if m is r else -1e-12)
        # The prune and then the merge pass their scores; only the final
        # structure is refreshed.
        assert changed
        assert len(refreshed) == 1 and refreshed[0] is resp.r
        np.testing.assert_array_equal(resp.r, np.eye(2)[[0, 0, 0, 1, 1, 1]])
        assert (elbo, state) == (-1e-12, "refreshed")

    @staticmethod
    def _held_params(variant, eta, seed):
        """A split problem, a variant over it and parameters after three
        iterations of a run."""
        dataset, model = split_problem(seed=seed % 8)
        report = run_adaptation(dataset, model, Hyperparams(eta=eta), RunConfig(
            m_init=5, variant=variant, init_method="random_y", max_iter=3,
            seed=seed))
        if variant == "bayes":
            state = report.bayes_state
            params = (state["rowpost"], state["wpost"], state["alphapost"])
            return adapt._Bayes(dataset, state["hyper"],
                                RunConfig(variant="bayes")), params
        return adapt._Point(dataset, Hyperparams(eta=eta), RunConfig()), \
            report.model

    @staticmethod
    def _random_resp(rng, n, keep):
        """(n, len(keep)) responsibilities with exact zeros, as q(theta)
        gives, in which every row keeps mass on the ``keep`` columns."""
        r = rng.random((n, keep.shape[0])) ** 4
        r[r < 0.02] = 0.0
        r[np.arange(n), rng.choice(np.flatnonzero(keep), n)] += 0.1
        return r / r.sum(axis=1, keepdims=True)

    @settings(deadline=None, max_examples=30)
    @given(variant=st.sampled_from(["point", "bayes"]),
           eta=st.sampled_from([1.0, 0.5]), seed=st.integers(0, 2**16),
           data=st.data())
    def test_scores_match_fixed_parameter_bound(self, variant, eta, seed,
                                                data):
        var, params = self._held_params(variant, eta, seed)
        rng = np.random.default_rng(seed)
        m = data.draw(st.integers(2, 7), label="M")
        i, j = sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=2,
                                         max_size=2, unique=True), label="i, j"))
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=m,
                                           max_size=m), label="keep"))
        keep[rng.integers(m)] = True
        r = self._random_resp(rng, var.phi.shape[0], keep)
        pruned = r[:, keep] / r[:, keep].sum(axis=1, keepdims=True)
        merged = np.delete(r, j, axis=1)
        merged[:, i] = r[:, i] + r[:, j]

        bound = adapt._FixedBound(var, params,
                                 var.reduce(Responsibilities(r=r)))
        base = fixed_param_elbo(var, params, r)
        for delta, cand in ((bound(r, (i, j)) - bound(r), merged),
                            (bound(pruned) - bound(r), pruned)):
            oracle = fixed_param_elbo(var, params, cand) - base
            np.testing.assert_allclose(delta, oracle, rtol=1e-9,
                                       atol=1e-12 * abs(base))

    @settings(deadline=None, max_examples=30)
    @given(variant=st.sampled_from(["point", "bayes"]),
           eta=st.sampled_from([1.0, 0.5]), seed=st.integers(0, 2**16),
           m=st.integers(1, 7))
    def test_refresh_sweep_ends_above_fixed_parameter_bound(self, variant, eta,
                                                            seed, m):
        # The one gate keeps a restructure on its score alone.  That holds
        # the next recorded bound up because the next iteration's sweep
        # starts from the state the score scores, q(Y) and q(pi) refit
        # under the held parameters, and every later step of it ascends.
        var, params = self._held_params(variant, eta, seed)
        r = self._random_resp(np.random.default_rng(seed), var.phi.shape[0],
                              np.ones(m, dtype=bool))
        reduced = var.reduce(Responsibilities(r=r))
        refreshed = var.sweep(params, reduced.stats, adapt.vbpoint.update_q_pi(
            reduced.stats.n, var.hyper.tau0), 1.0).elbo
        fixed = fixed_param_elbo(var, params, r)
        assert refreshed >= fixed - 1e-9 * abs(fixed)


def merge_pairs_oracle(r, threshold):
    """Double-loop reference for ``adapt._merge_pairs``."""
    norms = np.linalg.norm(r, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    cos = (r.T @ r) / np.outer(norms, norms)
    pairs = []
    m = r.shape[1]
    for i in range(m):
        for j in range(i + 1, m):
            if cos[i, j] > threshold:
                pairs.append((cos[i, j], i, j))
    pairs.sort(reverse=True)
    return [(i, j) for _, i, j in pairs]


class TestCandidatePairs:
    def test_merge_pairs_match_oracle_on_random_input(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 5, 30):
            for _ in range(20):
                r = rng.random((40, m)) ** 4
                r /= r.sum(axis=1, keepdims=True)
                for threshold in (0.0, 0.5, 0.95):
                    assert adapt._merge_pairs(r, threshold) \
                        == merge_pairs_oracle(r, threshold)

    def test_merge_pairs_tie_order(self):
        r = np.full((9, 5), 1.0 / 5)  # uniform_pi: every cosine is equal
        pairs = adapt._merge_pairs(r, 0.95)
        assert pairs == merge_pairs_oracle(r, 0.95)
        assert pairs == sorted(((i, j) for i in range(5)
                                for j in range(i + 1, 5)), reverse=True)

    def test_closest_pairs_match_oracle_on_random_input(self):
        rng = np.random.default_rng(12)
        for m in (0, 1, 2, 7, 60):
            for n_y in (1, 3, 12):
                ybar = rng.standard_normal((m, n_y))
                for n_pairs in (1, 6, 5000):
                    assert adapt._closest_posterior_pairs(ybar, n_pairs) \
                        == closest_pairs_oracle(ybar, n_pairs)

    @pytest.mark.parametrize("n_pairs", [6, 7, 8])
    def test_closest_pairs_tie_order(self, n_pairs):
        # Seven zero distances: the n_pairs-th closest falls inside, at the
        # end of, and just past the run of ties.
        rng = np.random.default_rng(13)
        ybar = rng.standard_normal((8, 3))
        ybar[[2, 5, 7]] = ybar[0]  # four identical means, six zero distances
        ybar[6] = ybar[1]
        pairs = adapt._closest_posterior_pairs(ybar, n_pairs)
        assert pairs == closest_pairs_oracle(ybar, n_pairs)
        assert pairs[:7] == [(0, 2), (0, 5), (0, 7), (1, 6), (2, 5), (2, 7),
                             (5, 7)][:n_pairs]

    @pytest.mark.parametrize("variant, config", [
        ("point", {}), ("point", dict(do_msteps=False)), ("bayes", {})])
    def test_closest_pairs_rank_the_sweeps_means(self, monkeypatch, variant,
                                                 config):
        # The extra merge candidates of an iteration rank the q(Y) means of
        # its sweep: the standardized ones when min_div re-standardized
        # them, otherwise the sweep's own.
        dataset, model = split_problem(seed=2)
        standardized = "do_msteps" not in config and variant == "point"
        made, received = [], []  # means made by each sweep, means ranked

        def recording(name):
            def spy(*args, _f=getattr(adapt.vbpoint, name), **kwargs):
                made.append((name, _f(*args, **kwargs)))
                return made[-1][1]
            monkeypatch.setattr(adapt.vbpoint, name, spy)

        recording("update_q_y")
        recording("standardize_posteriors")

        def closest(ybar, *args, _f=adapt._closest_posterior_pairs):
            # Each sweep makes the unlabelled q(Y), then the labelled one,
            # then, with min_div, the standardized unlabelled block.
            raw = made[-3 if standardized else -2]
            means = made[-1] if standardized else raw
            assert raw[0] == "update_q_y"
            if standardized:
                assert means[0] == "standardize_posteriors"
                assert not np.array_equal(means[1].ybar, raw[1].ybar)
            received.append((ybar, means[1].ybar))
            return _f(ybar, *args)

        monkeypatch.setattr(adapt, "_closest_posterior_pairs", closest)
        run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=6, variant=variant, init_method="ahc", prune_merge=True,
            prune_every=1, elbo_tol=0.0, max_iter=6, **config))
        assert len(received) == 4  # iterations 1 to 4 attempt one each
        for ybar, means in received:
            np.testing.assert_array_equal(ybar, means)


def test_point_mass_bayes_sweep_is_the_point_sweep(monkeypatch):
    # A point model is the Bayesian one with point-mass parameter
    # posteriors, so the shared E-step of a Bayesian sweep from point
    # masses at the model gives exactly the point sweep's q(Y), q(theta)
    # and q(pi).
    bayes, params, stats, dirichlet = sweep_inputs("bayes")
    point, model, _, _ = sweep_inputs("point")
    blocks = []  # each sweep's q(Y) of the unlabelled, then labelled block

    def update_q_y(*args, _f=adapt.vbpoint.update_q_y, **kwargs):
        blocks.append(_f(*args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(adapt.vbpoint, "update_q_y", update_q_y)
    b = bayes.sweep(params, stats, dirichlet, 1.0)
    p = point.sweep(model, stats, dirichlet, 1.0)
    (b_posts, b_posts_d), (p_posts, p_posts_d) = blocks[:2], blocks[2:]
    assert (b.reduced.resp.r == p.reduced.resp.r).all()
    assert (b_posts.ybar == p_posts.ybar).all()
    assert (b_posts_d.ybar == p_posts_d.ybar).all()
    assert (b.dirichlet.tau == p.dirichlet.tau).all()


class TestSingleReduction:
    """Each responsibility matrix is reduced to statistics exactly once."""

    @staticmethod
    def counting(monkeypatch, events):
        """Record each reduction, soft or hard, and each q(theta) update in
        ``events``."""
        for module, name, event in (
                (adapt, "accumulate_stats", "stats"),
                (adapt, "_hard_stats", "stats"),
                (adapt, "_labelled_stats", "stats"),
                (adapt.vbpoint, "update_q_theta", "q_theta")):

            def recording(*args, _f=getattr(module, name), _e=event, **kwargs):
                events.append(_e)
                return _f(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_point_sweep_reduces_only_its_new_responsibilities(
            self, monkeypatch, variant):
        var, params, stats, dirichlet = sweep_inputs(variant)
        fresh_stats = adapt.accumulate_stats
        events = []
        self.counting(monkeypatch, events)
        swept = var.sweep(params, stats, dirichlet, 1.0)
        assert events == ["q_theta", "stats"]
        carried = swept.reduced
        fresh = fresh_stats(carried.resp.r, var.phi)
        for name in ("n", "f", "s"):
            np.testing.assert_array_equal(getattr(carried.stats, name),
                                          getattr(fresh, name))
        # Neither half of the pair can change without the other.
        with pytest.raises(ValueError, match="read-only"):
            carried.resp.r[0, 0] = 0.5
        with pytest.raises(FrozenInstanceError):
            carried.resp.r = fresh.n
        with pytest.raises(FrozenInstanceError):
            carried.stats = fresh

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_run_reduces_once_per_sweep(self, monkeypatch, variant):
        dataset, model = split_problem(seed=6)
        events = []
        self.counting(monkeypatch, events)
        run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=4, variant=variant, init_method="ahc", elbo_tol=0.0,
            max_iter=6))
        # The labelled block, the initial responsibilities, then one
        # reduction right after each sweep's q(theta).
        assert events == ["stats", "stats"] + ["q_theta", "stats"] * 6


class TestFactorizationBudget:
    """Each positive-definite matrix is factored once per iteration, no
    SVD tests R', and each basis gets its log-determinant from the code
    that builds it: no q(Y) block, row posterior or merge score takes one."""

    @staticmethod
    def counting(monkeypatch, events,
                 names=("cholesky", "svd", "cond", "slogdet")):
        """Record each call of the numpy.linalg routines ``names``."""
        for name in names:

            def recording(*args, _f=getattr(np.linalg, name), _e=name, **kwargs):
                events.append(_e)
                return _f(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)

    def test_train_supervised_iteration(self, monkeypatch):
        dataset, model = split_problem(seed=7)
        events = []
        self.counting(monkeypatch, events)
        train_supervised(dataset.phi_d, dataset.labels_d, model.n_y,
                         model_init=model, max_iter=4, elbo_tol=0.0)
        # Per iteration: the new W's scatter (inverted by mstep_W), the new
        # W and Sigma_y; q(Y)'s orthonormal basis has log|det| = 0.
        assert events.count("cholesky") == 3 * 4
        assert "slogdet" not in events
        assert "svd" not in events and "cond" not in events  # R' by eigvalsh

    @staticmethod
    def marking_bound(monkeypatch, events):
        """Record a ``"bound"`` event when the point sweep's bound runs."""

        def elbo_point(*args, _f=adapt.vbpoint.elbo_point, **kwargs):
            events.append("bound")
            return _f(*args, **kwargs)

        monkeypatch.setattr(adapt.vbpoint, "elbo_point", elbo_point)

    def test_point_sweep_and_update(self, monkeypatch):
        variant, model, stats, dirichlet = sweep_inputs("point")
        events = []
        self.counting(monkeypatch, events)
        self.marking_bound(monkeypatch, events)
        variant.sweep(model, stats, dirichlet, 1.0)
        # Before the bound: both q(Y) blocks are built on one orthonormal
        # eigenbasis, and the bound reads log|W| from the model.  After it:
        # mstep_W's scatter, the new W and Sigma_y; min_divergence keeps W,
        # and mstep_V takes no SVD.  The standardized q(Y) adds log|det| of
        # its map T^-1 to its basis's.
        assert events == ["bound"] + ["cholesky"] * 3 + ["slogdet"]

    @pytest.mark.parametrize("strategy", ["average_accumulators",
                                          "best_sample"])
    def test_point_update_with_sampler(self, monkeypatch, strategy):
        variant, model, stats, dirichlet = sweep_inputs(
            "point", sampler_k=8, sampler_strategy=strategy)
        events = []
        self.counting(monkeypatch, events)
        self.marking_bound(monkeypatch, events)
        variant.sweep(model, stats, dirichlet, 1.0)
        # After the bound, the eight draws' q(Y) share one orthonormal
        # eigenbasis of G; then the M-steps and the standardization factor
        # as without the sampler.
        assert events[events.index("bound") + 1:] \
            == ["cholesky"] * 3 + ["slogdet"]

    def bayes_sweep_events(self, monkeypatch, two_betas=False):
        """The counted factorizations and solves of one Bayesian sweep, under
        the default scalar beta or two distinct betas."""
        variant, params, stats, dirichlet = sweep_inputs("bayes")
        if two_betas:
            variant.hyper = replace(variant.hyper, beta=variant.hyper.beta
                                    * np.where(np.arange(stats.d) % 2, 1.0, 2.0))
        # Parameters as a sweep leaves them, with q(W) from from_update.
        params = variant.sweep(params, stats, dirichlet, 1.0).params
        events = []
        self.counting(monkeypatch, events, names=(
            "cholesky", "eigh", "slogdet", "svd", "cond", "solve"))

        def dpotrs(*args, _f=scipy.linalg.lapack.dpotrs, **kwargs):
            events.append("dpotrs")
            return _f(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrs", dpotrs)
        variant.sweep(params, stats, dirichlet, 1.0)
        return events

    def test_bayes_sweep(self, monkeypatch):
        # The eigh of G, whose basis has log|det| = 0; the row step's eigh
        # of the scaled R' (one beta), whose bases take their log|det| from
        # D_g, and no solve, since one group needs no correction; the eigh
        # of K, which gives E[W], E[ln|W|], ln B and the next row step's
        # basis of E[W].  Nothing factors E[W] again.
        assert self.bayes_sweep_events(monkeypatch) == ["eigh", "eigh", "eigh"]

    def test_bayes_sweep_with_two_betas(self, monkeypatch):
        # Two row groups: one batched eigh of both scaled R', then the one
        # solve that corrects the mu column of the second group's rows.
        assert self.bayes_sweep_events(monkeypatch, two_betas=True) \
            == ["eigh", "eigh", "solve", "eigh"]

    def test_merge_score(self, monkeypatch):
        variant, model, stats, dirichlet = sweep_inputs("point")
        # Any responsibilities will do: those of a sweep, scored with the
        # parameters it started from.
        reduced = variant.sweep(model, stats, dirichlet, 1.0).reduced
        events = []
        self.counting(monkeypatch, events)
        score = adapt._FixedBound(variant, model, reduced)
        assert events == []
        for pair in ((0, 1), (0, 3), (2, 3)):
            score(reduced.resp.r, pair)
        assert events == []

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_score_and_refresh_share_one_eigh(self, monkeypatch, variant):
        # One prune/merge attempt, after iteration 3 of 0-4, which
        # restructures M 6 -> 5.  Its score builds one ExpectedParams, so
        # one eigh of G, and its refresh runs no sweep, so no row update or
        # q(W) update adds an eigh.
        dataset, model = split_problem(seed=0)
        events, attempts = [], []
        self.counting(monkeypatch, events, names=("eigh",))

        class CountedBound(adapt._FixedBound):
            def __init__(self, *args):
                events.clear()
                super().__init__(*args)

        def counted(*args, **kwargs):
            out = prune_and_merge(*args, **kwargs)
            attempts.append((out[3], len(events)))
            return out

        monkeypatch.setattr(adapt, "_FixedBound", CountedBound)
        monkeypatch.setattr(adapt, "prune_and_merge", counted)
        run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=6, variant=variant, init_method="ahc", prune_merge=True,
            prune_every=3, elbo_tol=0.0, max_iter=5, seed=0))
        assert attempts == [(True, 1)]


class TestAllocationBudget:
    """The q(theta)-to-statistics path makes no N x M temporary beyond r,
    and a hard assignment is reduced without one.

    At N = 1000, M = 500 an N x M boolean mask holds N M bytes, far more
    than numpy's 64 KB ufunc buffer, so tracemalloc's peak shows it."""

    N, M = 1000, 500

    @staticmethod
    def peak_bytes(f, *args):
        """Peak traced allocation of ``f(*args)``, its result included."""
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_accumulate_stats(self):
        rng = np.random.default_rng(0)
        r = rng.dirichlet(np.ones(self.M), size=self.N)
        phi = rng.standard_normal((self.N, 4))
        assert self.peak_bytes(accumulate_stats, r, phi) < self.N * self.M

    def test_softmax_with_nothing_dropped(self):
        log_rho = np.random.default_rng(1).standard_normal((self.N, self.M))
        r_bytes = log_rho.nbytes
        assert self.peak_bytes(vbpoint._normalize_log_rho, log_rho, 1.0) \
            < r_bytes + self.N * self.M / 2

    def test_labelled_block(self):
        # N labelled i-vectors of M speakers, reduced by _hard_stats.
        rng = np.random.default_rng(2)
        dataset = Dataset(phi=rng.standard_normal((3, 4)),
                          phi_d=rng.standard_normal((self.N, 4)),
                          labels_d=np.arange(self.N) % self.M)
        assert self.peak_bytes(adapt._Variant, dataset, Hyperparams(),
                               RunConfig()) < self.N * self.M

    def test_sampled_statistics(self):
        # Beside the N x M cumulative sums, one draw's N x M boolean
        # comparison at a time: room for three, not for all k.
        k = 16
        rng = np.random.default_rng(3)
        resp = Responsibilities(r=rng.dirichlet(np.ones(self.M), size=self.N))
        phi = rng.standard_normal((self.N, 4))
        assert self.peak_bytes(sampled_statistics, resp, phi, k) \
            < resp.r.nbytes + 3 * self.N * self.M


@pytest.mark.parametrize("variant", ["point", "bayes"])
def test_empty_labelled_block_terms_are_positive_zeros(variant):
    dataset, _, model = easy_problem(seed=1)
    report = run_adaptation(dataset, model, Hyperparams(), RunConfig(
        m_init=4, variant=variant, init_method="ahc", max_iter=5))
    for name in ("eta*lnP(Phi_d|Y_d)", "eta*lnP(Y_d)", "-eta*lnq(Y_d)"):
        value = report.elbo_terms[name]
        assert value == 0.0 and not np.signbit(value), name


class TestRuns:
    def test_point_run_is_deterministic(self):
        dataset, labels, model = easy_problem(seed=31)
        cfg = RunConfig(m_init=4, init_method="ahc", max_iter=30, seed=3)
        hyper = Hyperparams()
        a = run_adaptation(dataset, model, hyper, cfg)
        b = run_adaptation(dataset, model, Hyperparams(), cfg)
        np.testing.assert_array_equal(a.elbo_trace, b.elbo_trace)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.model.v, b.model.v)

    def test_point_run_recovers_easy_labels(self):
        dataset, labels, model = easy_problem(seed=41, m_true=4)
        report = run_adaptation(dataset, model, Hyperparams(),
                                RunConfig(m_init=4, init_method="ahc",
                                          max_iter=100))
        assert clustering_metrics(report.labels, labels).ari == 1.0
        assert report.converged

    def test_prune_merge_reduces_cluster_count(self):
        phi, labels, _ = generate(SynthSpec(
            d=8, n_y=4, m_true=8, per_speaker=12, eigenvoice_scale=5.0,
            noise_scale=1.0, seed=0))
        dataset, true_unsup = split_dataset(phi, labels, 0.5, seed=0)
        init_model = train_supervised(
            dataset.phi_d, dataset.labels_d, n_y=4, seed=0).model
        m_true_unsup = len(np.unique(true_unsup))
        report = run_adaptation(
            dataset, init_model, Hyperparams(),
            RunConfig(m_init=2 * m_true_unsup, init_method="ahc",
                      prune_merge=True, prune_every=3, max_iter=200, seed=0))
        assert report.m_trace[0] == 2 * m_true_unsup
        assert report.m_trace[-1] == m_true_unsup
        assert clustering_metrics(report.labels, true_unsup).ari == 1.0

    @pytest.mark.parametrize("prune_merge", [False, True])
    @pytest.mark.parametrize("anneal", [False, True])
    @pytest.mark.parametrize("eta", [1.0, 0.5])
    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_bound_does_not_fall_at_kappa_one(self, variant, eta, anneal,
                                               prune_merge):
        # Every step of a sweep and every parameter step maximises the
        # reported bound, so it can fall only after a restructure.
        dataset, model = split_problem(seed=6)
        cfg = RunConfig(m_init=6, variant=variant, init_method="ahc",
                        anneal=anneal, prune_merge=prune_merge,
                        **(dict(prune_every=3) if prune_merge else {}),
                        max_iter=40, seed=6)
        report = run_adaptation(dataset, model, Hyperparams(eta=eta), cfg)
        restructured = {int(note.split()[1].rstrip(":"))
                        for note in report.diagnostics if "restructured" in note}
        assert not prune_merge or restructured
        elbo, kappa = report.elbo_trace, report.kappa_trace
        for it in range(1, len(elbo)):
            if kappa[it - 1] < 1.0 or it - 1 in restructured:
                continue
            drop = (elbo[it - 1] - elbo[it]) / max(1.0, abs(elbo[it - 1]))
            assert drop <= cfg.elbo_tol, f"bound fell by {drop:.3g} at {it}"

    @staticmethod
    def _tempered(terms, kappa):
        """F_kappa = kappa * sum(lnP terms) + sum(-lnq terms) of a bound's
        breakdown; at kappa = 1 it is the bound itself."""
        return sum(value if name.startswith("-") else kappa * value
                   for name, value in terms.items())

    @pytest.mark.parametrize("variant, knobs", [
        ("point", {}),
        ("point", dict(min_div=False)),
        ("point", dict(hyper_opt_tau0=True)),
        ("point", dict(min_div=False, hyper_opt_tau0=True)),
        ("bayes", {}),
        ("bayes", dict(hyper_opt_tau0=True, hyper_opt_alpha=True,
                       hyper_opt_mu=True)),
    ])
    def test_annealed_sweeps_ascend_the_tempered_objective(self, variant,
                                                           knobs):
        # A sweep at kappa updates each factor to the maximiser of F_kappa
        # with the others held, and the parameter and hyperparameter steps
        # maximise lnP terms, which F_kappa weights by kappa > 0.  So sweep
        # t + 1 does not lower F at its own kappa below the state of sweep
        # t, before and after kappa reaches 1.
        recorded = []

        def spy(f):
            def recording(*args, **kwargs):
                total, terms = f(*args, **kwargs)
                recorded.append(terms)
                return total, terms
            return recording

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vbpoint, "elbo_point", spy(vbpoint.elbo_point))
            mp.setattr(vbbayes, "elbo_bayes", spy(vbbayes.elbo_bayes))
            for seed in range(6):
                dataset, model = split_problem(seed=seed)
                for eta in (1.0, 0.5):
                    recorded.clear()
                    cfg = RunConfig(m_init=6, variant=variant,
                                    init_method="ahc", anneal=True,
                                    elbo_tol=0.0, max_iter=40, seed=seed,
                                    **knobs)
                    report = run_adaptation(dataset, model,
                                            Hyperparams(eta=eta), cfg)
                    kappa = report.kappa_trace
                    assert len(recorded) == len(kappa) == cfg.max_iter
                    assert kappa[0] < 1.0 == kappa[-1]
                    for t in range(len(kappa) - 1):
                        before = self._tempered(recorded[t], kappa[t + 1])
                        after = self._tempered(recorded[t + 1], kappa[t + 1])
                        drop = (before - after) / max(1.0, abs(before))
                        assert drop <= 1e-10, (seed, eta, t, drop)

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_bound_is_the_monte_carlo_mean_over_the_held_q(self, variant, eta):
        # Z drawn from the factors each sweep's bound read, at kappa 0.2,
        # 0.5 and 1: the mean of ln p(Phi, Z) - ln q(Z) is the recorded
        # entry, within 3 standard errors of 4000 draws.
        phi, labels, _ = generate(SynthSpec(
            d=3, n_y=2, m_true=4, per_speaker=4, eigenvoice_scale=3.0, seed=0))
        dataset, _ = split_dataset(phi, labels, 0.5, seed=0)
        model = train_supervised(dataset.phi_d, dataset.labels_d, 2,
                                 seed=0, max_iter=10).model
        recorded = []

        def spy(f):
            def recording(*args):
                recorded.append(args)
                return f(*args)
            return recording

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vbpoint, "elbo_point", spy(vbpoint.elbo_point))
            mp.setattr(vbbayes, "elbo_bayes", spy(vbbayes.elbo_bayes))
            report = run_adaptation(dataset, model, Hyperparams(eta=eta),
                                    RunConfig(m_init=3, variant=variant,
                                              init_method="ahc", anneal=True,
                                              kappa0=0.2, kappa_growth=2.5,
                                              max_iter=3, elbo_tol=0.0))
        assert report.kappa_trace == [0.2, 0.5, 1.0]
        rng = np.random.default_rng(0)
        for args, elbo in zip(recorded, report.elbo_trace, strict=True):
            draws = monte_carlo_bound(dataset, args, 4000, rng)
            se = draws.std(ddof=1) / np.sqrt(draws.size)
            assert abs(draws.mean() - elbo) < 3.0 * se, (elbo, draws.mean(), se)

    @staticmethod
    def _run_with_final_r(*args):
        """``run_adaptation(*args)`` and the responsibilities behind its
        labels, the last q(theta) of the run."""
        last = []

        def spy(*a, _f=adapt.vbpoint.update_q_theta, **kwargs):
            last[:] = [_f(*a, **kwargs)]
            return last[0]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adapt.vbpoint, "update_q_theta", spy)
            report = run_adaptation(*args)
        np.testing.assert_array_equal(np.argmax(last[0].r, axis=1),
                                      report.labels)
        return report, last[0].r

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**16),
           variant=st.sampled_from(["point", "bayes"]),
           schedule=st.sampled_from(["plain", "anneal", "prune_merge"]),
           init_method=st.sampled_from(["ahc", "random_y"]))
    # Two clusters that coincide tie on six rows, within 2.5e-14.
    @example(seed=1998, variant="point", schedule="anneal",
             init_method="random_y")
    def test_doubled_labelled_speakers_at_half_eta_match_eta_one(
            self, seed, variant, schedule, init_method):
        # Each labelled speaker entered twice, as two speakers, doubles every
        # labelled sum, and eta = 0.5 halves it again: the pooled statistics,
        # q(W), the bound and min_divergence all see what the original run
        # sees at eta = 1, so both maximise the same objective.  They agree
        # to rounding, so a label can differ only on a row whose top two
        # responsibilities tie to rounding.
        dataset, model = split_problem(seed=seed)
        m_d = dataset.labels_d.max() + 1
        doubled = Dataset(
            phi=dataset.phi, phi_d=np.vstack([dataset.phi_d, dataset.phi_d]),
            labels_d=np.concatenate([dataset.labels_d, dataset.labels_d + m_d]))
        cfg = RunConfig(m_init=6, variant=variant, init_method=init_method,
                        anneal=schedule != "plain",
                        prune_merge=schedule == "prune_merge",
                        **(dict(prune_every=3) if schedule == "prune_merge"
                           else {}),
                        max_iter=30, seed=seed)
        # The default mean prior of the bayes variant is read from the
        # labelled i-vectors, so both runs get the same explicit one.
        prior = dict(mu0=dataset.phi_d.mean(axis=0), beta=0.1) \
            if variant == "bayes" else {}
        once, r = self._run_with_final_r(dataset, model,
                                         Hyperparams(**prior), cfg)
        twice, r_twice = self._run_with_final_r(
            doubled, model, Hyperparams(eta=0.5, **prior), cfg)
        assert twice.m_trace == once.m_trace
        np.testing.assert_allclose(twice.elbo_trace, once.elbo_trace,
                                   rtol=1e-12)
        np.testing.assert_allclose(r_twice, r, rtol=0, atol=1e-9)
        top = np.sort(r, axis=1)
        clear = top[:, -1] - top[:, -2] > 1e-9 if r.shape[1] > 1 \
            else np.ones(r.shape[0], dtype=bool)
        np.testing.assert_array_equal(twice.labels[clear], once.labels[clear])
        rows = np.flatnonzero(~clear)
        assert (r[rows, twice.labels[rows]] >= top[rows, -1] - 1e-9).all()

    @pytest.mark.parametrize("prune_every", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_shorter_run_is_a_prefix_of_a_longer_one(self, variant,
                                                     prune_every):
        # Entry it of each trace is iteration it's sweep, and no prune/merge
        # attempt runs on the last iteration, so a run with max_iter=n is
        # the first n iterations of a run with max_iter=n+1: the traces,
        # and the notes of every attempt but the longer run's last one.
        dataset, model = split_problem(seed=0)

        def run(max_iter):
            return run_adaptation(dataset, model, Hyperparams(), RunConfig(
                m_init=6, variant=variant, init_method="ahc",
                prune_merge=True, prune_every=prune_every, elbo_tol=0.0,
                max_iter=max_iter, seed=0))

        def attempt_iteration(note):
            return int(note.split()[1].rstrip(":"))

        short = run(2)
        for n in range(2, 9):
            longer = run(n + 1)
            for name in ("elbo_trace", "m_trace", "kappa_trace"):
                assert getattr(short, name) == getattr(longer, name)[:n], \
                    (name, n)
            assert short.diagnostics == [
                note for note in longer.diagnostics
                if attempt_iteration(note) < n - 1], n
            # The breakdown is that of the last recorded sweep.
            assert sum(short.elbo_terms.values()) == pytest.approx(
                short.elbo_trace[-1], rel=1e-12)
            short = longer
        assert short.m_trace[-1] < 6  # the runs restructure

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_one_sweep_per_trace_entry(self, monkeypatch, variant):
        # A kept restructure runs no sweep of its own: the next iteration's
        # sweep starts from it and is recorded like every other.
        sweeps = []
        original = adapt._Variant.sweep

        def counted(*args, **kwargs):
            sweeps.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(adapt._Variant, "sweep", counted)
        dataset, model = split_problem(seed=0)
        report = run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=6, variant=variant, init_method="ahc", prune_merge=True,
            prune_every=1, elbo_tol=0.0, max_iter=12, seed=0))
        assert report.diagnostics  # at least one kept restructure
        assert len(sweeps) == len(report.elbo_trace) == 12

    def test_prune_merge_attempts_come_prune_every_apart(self, monkeypatch):
        calls = []

        def rejecting(resp, config, refresh, extra_pairs=(), score=None):
            calls.append(resp)
            return resp, score(resp.r), None, False

        monkeypatch.setattr(adapt, "prune_and_merge", rejecting)
        dataset, _, model = easy_problem(seed=5)
        report = run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=4, init_method="ahc", prune_merge=True, prune_every=5,
            elbo_tol=0.0, max_iter=16))
        assert len(report.elbo_trace) == 16
        # A rejected attempt waits prune_every iterations like an accepted
        # one: attempts after iterations 5 and 10 only.  None runs after
        # iteration 15, the last, which no later sweep would record.
        assert len(calls) == 2

    def test_annealing_schedule_reaches_one(self):
        dataset, _, model = easy_problem(seed=61)
        report = run_adaptation(
            dataset, model, Hyperparams(),
            RunConfig(m_init=4, init_method="uniform_pi", anneal=True,
                      kappa0=0.25, kappa_growth=1.5, max_iter=80))
        assert report.kappa_trace[0] == 0.25
        assert report.kappa_trace[-1] == 1.0
        ks = np.array(report.kappa_trace)
        assert (np.diff(ks) >= -1e-15).all()

    def test_empty_unsupervised_falls_back_to_supervised(self):
        phi, labels, model = generate(SynthSpec(
            d=4, n_y=2, m_true=6, per_speaker=8, seed=71))
        dataset = Dataset(phi=np.zeros((0, 4)), phi_d=phi, labels_d=labels)
        report = run_adaptation(dataset, model, Hyperparams(),
                                RunConfig(m_init=1, max_iter=60))
        np.testing.assert_array_equal(report.labels, labels)
        diffs = np.diff(report.elbo_trace)
        assert (diffs >= -1e-8 * np.abs(report.elbo_trace[:-1])).all()

    @pytest.mark.parametrize("hyper, settings, name", [
        ({}, dict(variant="bayes"), "variant"),
        ({}, dict(variant="bayes", m_init=7), "variant"),
        ({"eta": 0.3}, {}, "eta"),
        ({"tau0": 5.0}, {}, "tau0"),
        ({"tau0": 5.0}, dict(m_init=7), "tau0"),
        ({}, dict(m_init=7), "m_init"),
        ({}, dict(anneal=True), "anneal"),
        ({}, dict(min_div=False), "min_div"),
        ({}, dict(do_msteps=False), "do_msteps"),
        ({}, dict(seed=9), "seed"),
        ({}, dict(init_method="random_y"), "init_method"),
        ({}, dict(prune_merge=True), "prune_merge"),
        ({}, dict(anneal=True, do_msteps=False, m_init=7, seed=9,
                  init_method="random_y"), "m_init"),
    ])
    def test_empty_unsupervised_rejects_unread_settings(self, hyper,
                                                         settings, name):
        # The supervised fallback reads only max_iter and elbo_tol.
        phi, labels, model = generate(SynthSpec(
            d=4, n_y=2, m_true=6, per_speaker=8, seed=71))
        dataset = Dataset(phi=np.zeros((0, 4)), phi_d=phi, labels_d=labels)
        with pytest.raises(ValueError, match=rf"\b{name}=.*no effect"):
            run_adaptation(dataset, model, Hyperparams(**hyper),
                           RunConfig(**settings))
        run_adaptation(dataset, model, Hyperparams(),
                       RunConfig(max_iter=3, elbo_tol=0.0))

    def test_bayes_run_is_deterministic(self):
        dataset, labels, model = easy_problem(seed=81, d=5)
        cfg = RunConfig(m_init=4, variant="bayes", init_method="ahc",
                        max_iter=25)
        a = run_adaptation(dataset, model, Hyperparams(), cfg)
        b = run_adaptation(dataset, model, Hyperparams(), cfg)
        np.testing.assert_array_equal(a.elbo_trace, b.elbo_trace)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_row_shuffle_permutes_labels(self, variant):
        dataset, _, model = easy_problem(seed=91, d=5)
        perm = np.random.default_rng(1).permutation(dataset.phi.shape[0])
        shuffled = Dataset(phi=dataset.phi[perm], phi_d=dataset.phi_d,
                           labels_d=dataset.labels_d)
        cfg = RunConfig(m_init=4, variant=variant, init_method="random_y",
                        elbo_tol=0.0, max_iter=15, seed=5)
        a = run_adaptation(dataset, model, Hyperparams(), cfg)
        b = run_adaptation(shuffled, model, Hyperparams(), cfg)
        np.testing.assert_array_equal(b.labels, a.labels[perm])
        np.testing.assert_allclose(b.elbo_trace, a.elbo_trace, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_relabel_supervised_speakers_leaves_run_unchanged(self, variant):
        dataset, model = split_problem(seed=7)
        perm = np.random.default_rng(2).permutation(dataset.m_d)
        relabelled = Dataset(phi=dataset.phi, phi_d=dataset.phi_d,
                             labels_d=perm[dataset.labels_d])
        cfg = RunConfig(m_init=4, variant=variant, init_method="random_y",
                        elbo_tol=0.0, max_iter=15, seed=5)
        a = run_adaptation(dataset, model, Hyperparams(), cfg)
        b = run_adaptation(relabelled, model, Hyperparams(), cfg)
        np.testing.assert_array_equal(b.labels, a.labels)
        assert b.m_trace == a.m_trace
        np.testing.assert_allclose(b.elbo_trace, a.elbo_trace, rtol=1e-9, atol=0)

    def test_sampler_sweeps_draw_fresh_assignments(self, monkeypatch):
        draws = []

        def recording(*args, **kwargs):
            counts, fsums = sampled_statistics(*args, **kwargs)
            draws.append(fsums)
            return counts, fsums

        monkeypatch.setattr(adapt, "sampled_statistics", recording)
        dataset, _, model = easy_problem(seed=17)
        # Two identical clusters keep every responsibility at 1/2, so each
        # sweep samples from the same distribution.
        run_adaptation(dataset, model, Hyperparams(),
                       RunConfig(m_init=2, init_method="uniform_pi",
                                 sampler_k=2, elbo_tol=0.0, max_iter=2))
        assert len(draws) == 2
        assert not np.array_equal(draws[0], draws[1])

    @pytest.mark.parametrize("knob, value, variant", [
        ("sampler_k", 3, "bayes"),
        ("sampler_strategy", "best_sample", "bayes"),
        ("min_div", False, "bayes"),
        ("do_msteps", False, "bayes"),
        ("hyper_opt_alpha", True, "point"),
        ("hyper_opt_mu", True, "point"),
    ])
    def test_variant_only_knob_rejected(self, knob, value, variant):
        with pytest.raises(ValueError, match=knob):
            RunConfig(variant=variant, **{knob: value})

    @pytest.mark.parametrize("knob, value", [
        ("max_iter", 0),
        ("prune_every", 0),
        ("prune_every", -2),
        ("sampler_k", -1),
        ("init_method", "kmeans"),
        ("elbo_tol", -1.0),
        ("elbo_tol", float("nan")),
        ("prune_threshold", float("nan")),
        ("merge_threshold", float("nan")),
        ("kappa_growth", float("nan")),
        # integer knobs are neither rounded nor left to fail mid-run
        ("m_init", 2.5),
        ("m_init", True),
        ("max_iter", 2.5),
        ("prune_every", 2.5),
        ("sampler_k", 1.5),
        ("seed", 2.0),
        ("seed", -1),
    ])
    def test_invalid_knob_rejected(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            RunConfig(**READ_WITH.get(knob, {}), **{knob: value})

    def test_numpy_integer_knobs_accepted(self):
        cfg = RunConfig(m_init=np.int64(3), max_iter=np.int32(4),
                        prune_merge=True, prune_every=np.uint8(2),
                        sampler_k=np.int16(2), seed=np.uint32(7))
        assert (cfg.m_init, cfg.max_iter, cfg.prune_every, cfg.sampler_k,
                cfg.seed) == (3, 4, 2, 2, 7)

    @pytest.mark.parametrize(
        "knob", [f.name for f in fields(RunConfig) if f.type is float])
    def test_nan_float_knob_rejected(self, knob):
        # Every range check fails NaN, a float knob added later included.
        with pytest.raises(ValueError, match=rf"^{knob} must"):
            RunConfig(**READ_WITH.get(knob, {}), **{knob: float("nan")})

    @pytest.mark.parametrize("value", [True, np.array([0.5]), "0.5"])
    @pytest.mark.parametrize(
        "knob", [f.name for f in fields(RunConfig) if f.type is float])
    def test_float_knob_of_another_kind_rejected(self, knob, value):
        # A bool, an array or a string is not a real number, though a
        # range check might read it as one.
        with pytest.raises(ValueError, match=rf"^{knob} must be a real number"):
            RunConfig(**READ_WITH.get(knob, {}), **{knob: value})

    def test_every_scalar_setting_has_one_rule(self):
        # One table checks every scalar setting, by name: an int or float
        # field added later needs a rule there.
        settings = [(f.name, f.type) for cls in (RunConfig, SynthSpec)
                    for f in fields(cls) if f.type in (int, float)]
        settings += [(f.name, float) for f in fields(Hyperparams)
                     if f.name != "mu0"]
        for name, kind in settings:
            assert linalg._SETTINGS[name][0] is kind, name

    @pytest.mark.parametrize(
        "knob", [f.name for f in fields(RunConfig) if f.type is bool])
    def test_non_bool_bool_knob_rejected(self, knob):
        # "false" is truthy: taken as a bool it would turn the knob on.
        with pytest.raises(ValueError, match=rf"^{knob} must be a bool"):
            RunConfig(**READ_WITH.get(knob, {}), **{knob: "false"})
        RunConfig(**READ_WITH.get(knob, {}), **{knob: np.bool_(False)})

    @pytest.mark.parametrize("knob, settings", [
        # kappa would stay at 0.5 and never reach 1
        ("kappa_growth", dict(anneal=True, kappa0=0.5, kappa_growth=1.0)),
        # the sampler feeds only the M-steps
        ("sampler_k", dict(sampler_k=3, do_msteps=False)),
        ("sampler_strategy", dict(sampler_strategy="best_sample")),
        # the schedule is read only when annealing
        ("kappa0", dict(kappa0=0.5)),
        ("kappa_growth", dict(kappa_growth=2.0)),
        # the thresholds and the period are read only by prune/merge
        ("prune_threshold", dict(prune_threshold=1.0)),
        ("merge_threshold", dict(merge_threshold=0.5)),
        ("prune_every", dict(prune_every=2)),
        # kappa starts at 1, so the growth factor is never applied
        ("kappa_growth", dict(anneal=True, kappa0=1.0, kappa_growth=2.0)),
        # the re-standardization runs only after the M-steps
        ("min_div", dict(min_div=False, do_msteps=False)),
    ])
    def test_knob_without_effect_rejected(self, knob, settings):
        with pytest.raises(ValueError, match=knob):
            RunConfig(**settings)

    def test_knob_neighbours_of_rejected_settings_accepted(self):
        RunConfig(anneal=True, kappa0=1.0)
        RunConfig(sampler_k=3, sampler_strategy="best_sample")
        RunConfig(sampler_k=0, do_msteps=False)
        RunConfig(anneal=True, kappa0=0.5, kappa_growth=2.0)
        RunConfig(prune_merge=True, prune_threshold=1.0, merge_threshold=0.5,
                  prune_every=2)

    @pytest.mark.parametrize("side", ["phi", "phi_d"])
    def test_empty_list_runs_as_zero_rows(self, side):
        # np.atleast_2d([]) is (1, 0); a run must see an empty set, and the
        # supervised fallback when it is the unlabelled one, either way.
        dataset, model = split_problem(seed=2)
        reports = []
        for empty in ([], np.zeros((0, dataset.d))):
            if side == "phi":
                data = Dataset(phi=empty, phi_d=dataset.phi_d,
                               labels_d=dataset.labels_d)
                cfg = RunConfig(max_iter=10)
            else:
                data = Dataset(phi=dataset.phi, phi_d=empty, labels_d=[])
                cfg = RunConfig(m_init=3, max_iter=10)
            rep = run_adaptation(data, model, Hyperparams(), cfg)
            reports.append((rep.elbo_trace, rep.m_trace, rep.kappa_trace,
                            rep.labels.tolist(), rep.model.mu.tolist(),
                            rep.model.v.tolist(), rep.model.w.tolist(),
                            rep.elbo_terms, rep.diagnostics, rep.converged,
                            rep.bayes_state))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_eta_without_labelled_rejected(self, variant):
        # eta weights only the labelled block, which is empty here.
        dataset, model = split_problem(seed=2)
        data = Dataset(phi=dataset.phi, phi_d=np.zeros((0, dataset.d)),
                       labels_d=[])
        cfg = RunConfig(m_init=3, variant=variant, max_iter=3)
        with pytest.raises(ValueError, match=r"^Hyperparams\.eta=0\.3 has no "
                                             r"effect without labelled"):
            run_adaptation(data, model, Hyperparams(eta=0.3), cfg)
        run_adaptation(data, model, Hyperparams(), cfg)

    def test_dimension_mismatch_rejected(self):
        dataset, _, _ = easy_problem(d=6)
        _, _, wrong = generate(SynthSpec(d=5, n_y=2, m_true=2, per_speaker=3))
        with pytest.raises(ValueError, match="dimension"):
            run_adaptation(dataset, wrong, Hyperparams(), RunConfig(m_init=2))

    def test_dimension_mismatch_rejected_without_unlabelled(self):
        # The check runs before the supervised fallback, which used to fail
        # with a numpy broadcasting error.
        phi, labels, _ = generate(SynthSpec(d=6, n_y=2, m_true=4,
                                            per_speaker=8, seed=72))
        dataset = Dataset(phi=np.zeros((0, 6)), phi_d=phi, labels_d=labels)
        _, _, wrong = generate(SynthSpec(d=5, n_y=2, m_true=2, per_speaker=3))
        with pytest.raises(ValueError, match="model dimension 5 does not "
                                             "match data 6"):
            run_adaptation(dataset, wrong, Hyperparams(), RunConfig())

    def test_bayes_run_in_one_dimension(self):
        # np.cov of one-dimensional data is 0-d; the default beta reads it.
        dataset, model = split_problem(seed=3, d=1, n_y=1)
        report = run_adaptation(dataset, model, Hyperparams(), RunConfig(
            variant="bayes", m_init=3, init_method="random_y", max_iter=10))
        assert np.isfinite(report.elbo_trace).all()
        assert report.model.d == 1 and report.model.n_y == 1
        assert np.isfinite(report.bayes_state["hyper"].beta)


class TestHyperparams:
    @pytest.mark.parametrize("variant, knob, field", [
        ("point", "hyper_opt_tau0", "tau0"),
        ("bayes", "hyper_opt_tau0", "tau0"),
        ("bayes", "hyper_opt_alpha", "a_alpha"),
        ("bayes", "hyper_opt_mu", "mu0"),
    ])
    def test_empirical_bayes_step(self, monkeypatch, variant, knob, field):
        mstep_tau0 = adapt.vbpoint.mstep_tau0
        tau0s = []

        def recording(*args, **kwargs):
            tau0s.append(mstep_tau0(*args, **kwargs))
            return tau0s[-1]

        monkeypatch.setattr(adapt.vbpoint, "mstep_tau0", recording)
        dataset, model = split_problem(seed=4)
        cfg = RunConfig(m_init=4, variant=variant, init_method="ahc",
                        max_iter=30, seed=4)
        off = run_adaptation(dataset, model, Hyperparams(), cfg)
        on = run_adaptation(dataset, model, Hyperparams(),
                            replace(cfg, **{knob: True}))
        assert on.elbo_trace != off.elbo_trace
        elbo = np.array(on.elbo_trace)
        floor = -cfg.elbo_tol * np.maximum(1.0, np.abs(elbo[:-1]))
        assert (np.diff(elbo) >= floor).all()
        if variant == "point":  # the point report carries no hyperparameters
            start, final = Hyperparams().tau0, tau0s[-1]
        else:
            start = getattr(off.bayes_state["hyper"], field)
            final = getattr(on.bayes_state["hyper"], field)
        assert not np.array_equal(final, start)

    @pytest.mark.parametrize("field, value", [
        ("a_alpha", 0.0),
        ("a_alpha", -1.0),
        ("b_alpha", 0.0),
        ("b_alpha", -1.0),
        ("beta", 0.0),
        ("beta", -1.0),
        ("beta", np.array([1.0, 0.0, 2.0])),
        # every range check, NaN included
        *((field, value) for field in ("tau0", "eta")
          for value in (0.0, -1.0, float("nan"))),
        *((field, float("nan")) for field in ("a_alpha", "b_alpha", "beta")),
        ("eta", 1.5),
        # inf passes "> 0", and a run would fail deep inside without
        # naming it
        *((field, np.inf) for field in ("tau0", "a_alpha", "b_alpha", "beta")),
        ("beta", np.array([1.0, np.inf, 2.0])),
    ])
    def test_nonpositive_prior_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Hyperparams(**{field: value})

    @pytest.mark.parametrize("field, value", [
        *((field, value) for field in ("tau0", "eta", "a_alpha", "b_alpha")
          for value in (True, [0.5], np.array([0.5]), "0.5")),
        ("beta", True),
        ("beta", "1"),
    ])
    def test_scalar_prior_of_another_kind_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a real number"):
            Hyperparams(**{field: value})
        # A list or array beta is a vector prior, one entry per dimension.
        Hyperparams(beta=[0.5, 1.0])
        Hyperparams(beta=np.array([0.5]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_mu0_rejected(self, value):
        mu0 = np.zeros(5)
        mu0[2] = value
        with pytest.raises(ValueError, match="^mu0 must be finite"):
            Hyperparams(mu0=mu0)

    @pytest.mark.parametrize("field, value", [
        ("mu0", np.zeros(3)),
        ("mu0", np.zeros((1, 5))),
        ("mu0", 0.0),
        ("beta", np.ones(3)),
        ("beta", np.ones((1, 5))),
    ])
    def test_mean_prior_of_wrong_size_rejected(self, field, value):
        # d = 5: mu0 needs 5 entries, beta 1 or 5.  A wrong number of
        # dimensions is rejected when the Hyperparams is built, a wrong
        # length, which needs d, by run_adaptation.
        dataset, model = split_problem(seed=4)
        message = (rf"^Hyperparams\.{field} has shape" if np.ndim(value) == 1
                   else rf"^{field} must be (0-D or )?1-D, got shape")
        with pytest.raises(ValueError, match=message):
            run_adaptation(dataset, model, Hyperparams(**{field: value}),
                           RunConfig(m_init=2, variant="bayes", max_iter=1))

    @pytest.mark.parametrize("field, value", [
        ("mu0", np.zeros(5)),
        ("beta", np.ones(1)),
        ("beta", np.ones(5)),
    ])
    def test_mean_prior_of_right_size_accepted(self, field, value):
        dataset, model = split_problem(seed=4)
        run_adaptation(dataset, model, Hyperparams(**{field: value}),
                       RunConfig(m_init=2, variant="bayes", max_iter=1))

    @pytest.mark.parametrize("field, value", [
        ("mu0", np.ones(5)),
        ("beta", 2.0),
        ("a_alpha", 5.0),
        ("b_alpha", 7.0),
    ])
    def test_point_variant_rejects_bayes_hyperparams(self, field, value):
        dataset, model = split_problem(seed=4)
        hyper = Hyperparams(**{field: value})
        labelled_only = Dataset(phi=np.zeros((0, 5)), phi_d=dataset.phi_d,
                                labels_d=dataset.labels_d)
        for data in (dataset, labelled_only):
            with pytest.raises(ValueError, match=field):
                run_adaptation(data, model, hyper, RunConfig(m_init=2))
        run_adaptation(dataset, model, hyper,
                       RunConfig(m_init=2, variant="bayes", max_iter=1))

    def test_learned_tau0_is_checked_at_its_step(self, monkeypatch):
        # The tau0 step rebinds the variant's Hyperparams with
        # dataclasses.replace, so an out-of-range tau0 fails there, at the
        # first step, and reaches no later update.
        steps = []

        def zero(*args, **kwargs):
            steps.append(args)
            return 0.0

        monkeypatch.setattr(adapt.vbpoint, "mstep_tau0", zero)
        dataset, model = split_problem(seed=4)
        with pytest.raises(ValueError, match="tau0"):
            run_adaptation(dataset, model, Hyperparams(), RunConfig(
                m_init=4, init_method="random_y", hyper_opt_tau0=True))
        assert len(steps) == 1

    def test_report_holds_the_last_sweeps_hyperparameters(self, monkeypatch):
        # Each hyperparameter step rebinds the latest Hyperparams: the tau0
        # step keeps the alpha and mu steps of its own sweep, and the
        # report returns what the three steps of the last sweep returned.
        returned = {}
        for module, name in ((adapt.vbpoint, "mstep_tau0"),
                             (adapt.vbbayes, "optimize_hyper_alpha"),
                             (adapt.vbbayes, "optimize_hyper_mu")):

            def spy(*args, _f=getattr(module, name), _name=name, **kwargs):
                returned.setdefault(_name, []).append(_f(*args, **kwargs))
                return returned[_name][-1]

            monkeypatch.setattr(module, name, spy)
        dataset, model = split_problem(seed=4)
        report = run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=4, variant="bayes", init_method="ahc", max_iter=10,
            hyper_opt_tau0=True, hyper_opt_alpha=True, hyper_opt_mu=True))
        assert min(report.m_trace) >= 2  # the tau0 step ran in every sweep
        assert {len(calls) for calls in returned.values()} \
            == {len(report.elbo_trace)}
        hyper = report.bayes_state["hyper"]
        assert hyper.tau0 == returned["mstep_tau0"][-1]
        assert (hyper.a_alpha, hyper.b_alpha) \
            == returned["optimize_hyper_alpha"][-1]
        mu0, beta = returned["optimize_hyper_mu"][-1]
        assert hyper.mu0 is mu0 and hyper.beta is beta

    def test_caller_hyperparams_reach_run_unmodified(self):
        dataset, model = split_problem(seed=4)
        hyper = Hyperparams(eta=0.5, tau0=0.7)
        report = run_adaptation(dataset, model, hyper, RunConfig(
            m_init=4, variant="bayes", init_method="ahc", max_iter=10,
            hyper_opt_alpha=True, hyper_opt_mu=True))
        used = report.bayes_state["hyper"]
        assert (used.eta, used.tau0) == (0.5, 0.7)
        assert used.mu0 is not None and used.a_alpha != hyper.a_alpha
        assert hyper == Hyperparams(eta=0.5, tau0=0.7)

    def test_zero_dimensional_beta_is_a_scalar(self):
        # A 0-d or 1-entry array beta keeps the isotropic hyper_opt_mu step,
        # as a Python float does; it is not turned into a per-row vector,
        # so the rows stay in one group.
        dataset, model = split_problem(seed=3)
        config = RunConfig(m_init=4, variant="bayes", init_method="ahc",
                           hyper_opt_mu=True, elbo_tol=0.0, max_iter=5)
        scalar, *others = (
            run_adaptation(dataset, model, Hyperparams(beta=beta), config)
            for beta in (0.5, np.float64(0.5), np.array(0.5), np.array([0.5])))
        for other in others:
            np.testing.assert_array_equal(scalar.elbo_trace, other.elbo_trace)
            np.testing.assert_array_equal(scalar.labels, other.labels)
            assert np.ndim(other.bayes_state["hyper"].beta) == 0
            assert len(other.bayes_state["rowpost"].basis) == 1


class TestTrainSupervised:
    def test_requires_enough_data(self):
        with pytest.raises(ValueError, match="N_d"):
            train_supervised(np.zeros((3, 5)), np.array([0, 1, 2]), n_y=1)

    @pytest.mark.parametrize("defect, message", [
        ("negative", "negative speaker label"),
        ("gap", "every supervised speaker index needs >= 1 i-vector"),
        ("nan", "^phi_d must be finite, got nan"),
        ("fractional", "labels_d must be integers, got 0.5"),
        ("elbo_tol", "elbo_tol must be >= 0"),
        ("max_iter", "max_iter must be >= 1"),  # would return the init
        ("fractional max_iter", "max_iter must be an integer, got 2.5"),
        ("fractional n_y", "n_y must be an integer, got 1.5"),
        ("negative seed", "seed must be >= 0, got -1"),
        ("array elbo_tol", "^elbo_tol must be a real number"),
    ])
    def test_rejects_invalid_input(self, defect, message):
        phi, labels, _ = generate(SynthSpec(
            d=3, n_y=1, m_true=4, per_speaker=5, seed=92))
        elbo_tol, max_iter, n_y, seed = 1e-7, 200, 1, 0
        if defect == "negative":
            labels[-1] = -1
        elif defect == "gap":
            labels[labels == 3] = 4
        elif defect == "fractional":  # not truncated to the same labels
            labels = labels + 0.5
        elif defect == "elbo_tol":  # would run every iteration
            elbo_tol = -1.0
        elif defect == "max_iter":
            max_iter = 0
        elif defect == "fractional max_iter":
            max_iter = 2.5
        elif defect == "fractional n_y":
            n_y = 1.5
        elif defect == "negative seed":
            seed = -1
        elif defect == "array elbo_tol":
            elbo_tol = np.array([1.0])
        else:
            phi[2, 1] = np.nan
        with pytest.raises(ValueError, match=message):
            train_supervised(phi, labels, n_y=n_y, max_iter=max_iter,
                             elbo_tol=elbo_tol, seed=seed)

    @pytest.mark.parametrize("d, n_y", [(4, 2), (5, 3)])
    def test_rejects_mismatched_model_init(self, d, n_y):
        phi, labels, _ = generate(SynthSpec(
            d=5, n_y=2, m_true=10, per_speaker=6, seed=91))
        _, _, init = generate(SynthSpec(d=d, n_y=n_y, m_true=2,
                                        per_speaker=3))
        with pytest.raises(ValueError, match=rf"model_init has d={d}, "
                                             rf"n_y={n_y}; expected d=5 .*n_y=2"):
            train_supervised(phi, labels, n_y=2, model_init=init)

    def test_seed_rejected_with_model_init(self):
        # The seed only draws the random initial model.
        phi, labels, init = generate(SynthSpec(
            d=5, n_y=2, m_true=10, per_speaker=6, seed=91))
        with pytest.raises(ValueError, match="seed=12345 has no effect"):
            train_supervised(phi, labels, n_y=2, model_init=init, seed=12345)
        train_supervised(phi, labels, n_y=2, model_init=init, max_iter=2)
        train_supervised(phi, labels, n_y=2, seed=12345, max_iter=2)

    def test_monotone_and_converges(self):
        phi, labels, _ = generate(SynthSpec(
            d=5, n_y=2, m_true=10, per_speaker=6, seed=91))
        report = train_supervised(phi, labels, n_y=2, seed=1)
        diffs = np.diff(report.elbo_trace)
        floor = -1e-8 * np.maximum(1.0, np.abs(np.array(report.elbo_trace[:-1])))
        assert (diffs >= floor).all()
        assert report.converged

    def test_recovers_generating_marginal(self):
        phi, labels, true_model = generate(SynthSpec(
            d=4, n_y=2, m_true=150, per_speaker=8, eigenvoice_scale=2.0,
            seed=101))
        report = train_supervised(phi, labels, n_y=2, seed=2)
        from spldavb.model import marginal_params
        del true_model
        mean_e = phi.mean(axis=0)
        cov_e = np.cov(phi.T, bias=True)
        mean_f, cov_f = marginal_params(report.model)
        assert np.abs(mean_f - mean_e).max() < 0.05
        assert np.abs(cov_f - cov_e).max() / np.abs(cov_e).max() < 0.10


class TestSweepM:
    def test_selects_highest_final_bound(self):
        dataset, labels, model = easy_problem(seed=9)
        best, reports = sweep_m(
            dataset, model, Hyperparams(),
            RunConfig(m_init=1, init_method="ahc", max_iter=60, seed=9),
            m_values=[1, 2, 4, 6])
        finals = [rep.elbo_trace[-1] for rep in reports]
        assert best.elbo_trace[-1] == max(finals)
        assert len(reports) == 4
        # The generating count (4 speakers) should win over starved fits.
        assert best.m_trace[0] == 4
        assert clustering_metrics(best.labels, labels).ari == 1.0

    def test_empty_values_rejected(self):
        dataset, _, model = easy_problem(seed=9)
        with pytest.raises(ValueError, match="non-empty"):
            sweep_m(dataset, model, Hyperparams(),
                    RunConfig(m_init=1), m_values=[])

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_value_rejected(self, value):
        # Neither is rounded to a cluster count.
        dataset, _, model = easy_problem(seed=9)
        with pytest.raises(ValueError, match="m_init must be an integer"):
            sweep_m(dataset, model, Hyperparams(), RunConfig(m_init=1),
                    m_values=[3, value])
