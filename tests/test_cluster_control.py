from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from spldavb import adapt
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
from spldavb.model import Dataset
from spldavb.oracles import clustering_metrics
from spldavb.synth import SynthSpec, generate, split_dataset
from spldavb.vbpoint import Hyperparams


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

    @pytest.mark.parametrize("edit", ["negative", "short", "long"])
    def test_oracle_labels_checked_against_data(self, edit):
        dataset, labels, model = easy_problem()
        labels = {"negative": np.where(labels == 3, -1, labels),
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


class TestPruneMerge:
    def _config(self):
        return RunConfig(m_init=3, prune_merge=True)

    def test_prunes_empty_column(self):
        r = np.zeros((6, 3))
        r[:3, 0] = 1.0
        r[3:, 2] = 1.0
        resp, elbo, state, changed = prune_and_merge(
            Responsibilities(r=r), self._config(),
            lambda m: (1.0, "state"), current_elbo=0.0)
        assert changed
        assert resp.r.shape[1] == 2

    def test_merges_duplicate_columns(self):
        rng = np.random.default_rng(6)
        col = rng.random(8) * 0.5 + 0.25
        r = np.column_stack([col / 2, col / 2, 1.0 - col])
        resp, elbo, state, changed = prune_and_merge(
            Responsibilities(r=r), self._config(),
            lambda m: (2.0, "state"), current_elbo=0.0)
        assert changed
        assert resp.r.shape[1] == 2
        np.testing.assert_allclose(resp.r.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_restructure_that_hurts_elbo(self):
        r = np.zeros((6, 3))
        r[:3, 0] = 1.0
        r[3:, 2] = 1.0
        resp, elbo, state, changed = prune_and_merge(
            Responsibilities(r=r), self._config(),
            lambda m: (-100.0 if m.shape[1] < 3 else 0.0, "state"),
            current_elbo=0.0)
        assert not changed
        assert resp.r.shape[1] == 3
        assert elbo == 0.0

    def test_no_change_is_reported(self):
        rng = np.random.default_rng(7)
        r = np.eye(3)[rng.integers(0, 3, size=9)]
        r = 0.8 * r + 0.2 / 3
        _, _, _, changed = prune_and_merge(
            Responsibilities(r=r), self._config(),
            lambda m: (0.0, None), current_elbo=0.0)
        assert not changed


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


def closest_pairs_oracle(ybar, n_pairs=6):
    """Double-loop reference for ``adapt._closest_posterior_pairs``."""
    m = ybar.shape[0]
    dists = [(float(np.linalg.norm(ybar[i] - ybar[j])), i, j)
             for i in range(m) for j in range(i + 1, m)]
    dists.sort()
    return [(i, j) for _, i, j in dists[:n_pairs]]


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

    def test_closest_pairs_tie_order(self):
        rng = np.random.default_rng(13)
        ybar = rng.standard_normal((8, 3))
        ybar[[2, 5, 7]] = ybar[0]  # four identical means, six zero distances
        ybar[6] = ybar[1]
        pairs = adapt._closest_posterior_pairs(ybar, 8)
        assert pairs == closest_pairs_oracle(ybar, 8)
        assert pairs[:7] == [(0, 2), (0, 5), (0, 7), (1, 6), (2, 5), (2, 7),
                             (5, 7)]


def runs_with_and_without_reuse(monkeypatch, dataset, model, cfg):
    """Run ``cfg`` twice with the real prune/merge but every candidate
    rejected (each attempt's first refresh is its baseline sweep; the rest
    read -inf): first with the returned baseline state dropped, so the
    next iteration sweeps again, then as is.  Returns ``(report, sweeps,
    refreshes per attempt)`` for each run."""
    variant = {"point": adapt._Point, "bayes": adapt._Bayes}[cfg.variant]
    sweep, prune_and_merge = variant.sweep, adapt.prune_and_merge
    runs = []
    for reuse in (False, True):
        sweeps, attempts = [], []

        def counting(self, *args):
            sweeps.append(args)
            return sweep(self, *args)

        def rejecting(resp, config, refresh, current_elbo, extra_pairs=()):
            calls = []

            def gate(r):
                elbo, state = refresh(r)
                calls.append(r)
                return (elbo if len(calls) == 1 else -np.inf), state

            out = prune_and_merge(resp, config, gate, current_elbo, extra_pairs)
            attempts.append(len(calls))
            return out if reuse else (*out[:2], None, out[3])

        with monkeypatch.context() as patch:
            patch.setattr(variant, "sweep", counting)
            patch.setattr(adapt, "prune_and_merge", rejecting)
            report = run_adaptation(dataset, model, Hyperparams(), cfg)
        runs.append((report, len(sweeps), attempts))
    return runs


class TestSingleReduction:
    """Each responsibility matrix is reduced to statistics exactly once."""

    @staticmethod
    def counting(monkeypatch, events):
        """Record each reduction and each q(theta) update in ``events``."""
        for module, name, event in (
                (adapt, "accumulate_stats", "stats"),
                (adapt.vbpoint, "update_q_theta", "q_theta"),
                (adapt.vbbayes, "update_q_theta_bayes", "q_theta")):

            def recording(*args, _f=getattr(module, name), _e=event, **kwargs):
                events.append(_e)
                return _f(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)

    def test_point_sweep_reduces_only_its_new_responsibilities(
            self, monkeypatch):
        dataset, model = split_problem(seed=5)
        hyper = Hyperparams()
        config = RunConfig(m_init=4, init_method="random_y", seed=5)
        variant = adapt._Point(dataset, hyper, config)
        reduced = variant.reduce(
            init_responsibilities(dataset, model, config, tau0=hyper.tau0))
        dirichlet = adapt.vbpoint.update_q_pi(reduced.stats.n, hyper.tau0)
        fresh_stats = adapt.accumulate_stats
        events = []
        self.counting(monkeypatch, events)
        state = variant.sweep(model, reduced, dirichlet, 1.0)
        assert events == ["q_theta", "stats"]
        carried = state["reduced"]
        fresh = fresh_stats(carried.resp.r, dataset.phi)
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

    def test_prune_merge_attempts_come_prune_every_apart(self, monkeypatch):
        calls = []

        def rejecting(resp, config, refresh, current_elbo, extra_pairs=()):
            calls.append(current_elbo)
            return resp, current_elbo, None, False

        monkeypatch.setattr(adapt, "prune_and_merge", rejecting)
        dataset, _, model = easy_problem(seed=5)
        report = run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=4, init_method="ahc", prune_merge=True, prune_every=5,
            elbo_tol=0.0, max_iter=16))
        assert len(report.elbo_trace) == 16
        # A rejected attempt waits prune_every iterations like an accepted
        # one: attempts after iterations 5, 10 and 15 only.
        assert len(calls) == 3

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_rejected_attempt_reuses_its_baseline_sweep(self, monkeypatch,
                                                        variant):
        dataset, model = split_problem(seed=4)
        (off, sweeps_off, attempts_off), (on, sweeps_on, attempts_on) = \
            runs_with_and_without_reuse(monkeypatch, dataset, model, RunConfig(
                m_init=5, variant=variant, init_method="ahc",
                prune_merge=True, prune_every=3, elbo_tol=0.0, max_iter=17,
                seed=4))
        assert attempts_on == attempts_off
        # Attempts after iterations 3, 6, 9, 12 and 15, each with a next one.
        assert len(attempts_on) == 5 and min(attempts_on) >= 2
        assert sweeps_off == 17 + sum(attempts_off)
        assert sweeps_on == sweeps_off - len(attempts_on)
        assert on.elbo_trace == off.elbo_trace
        assert on.m_trace == off.m_trace
        assert on.kappa_trace == off.kappa_trace
        assert on.elbo_terms == off.elbo_terms
        np.testing.assert_array_equal(on.labels, off.labels)

    @pytest.mark.parametrize("variant", ["point", "bayes"])
    def test_baseline_sweep_not_reused_after_tau0_step(self, monkeypatch,
                                                       variant):
        mstep_tau0 = adapt.vbpoint.mstep_tau0
        steps = []

        def recording(e_ln_pi, tau0_init):
            steps.append((tau0_init, mstep_tau0(e_ln_pi, tau0_init)))
            return steps[-1][1]

        monkeypatch.setattr(adapt.vbpoint, "mstep_tau0", recording)
        dataset, model = split_problem(seed=4)
        (off, sweeps_off, _), (on, sweeps_on, attempts) = \
            runs_with_and_without_reuse(monkeypatch, dataset, model, RunConfig(
                m_init=5, variant=variant, init_method="ahc",
                prune_merge=True, prune_every=3, elbo_tol=0.0, max_iter=17,
                hyper_opt_tau0=True, seed=4))
        assert len(attempts) == 5
        assert all(new != old for old, new in steps)  # tau0 moves each step
        assert sweeps_on == sweeps_off == 17 + sum(attempts)
        assert on.elbo_trace == off.elbo_trace

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
        ({}, dict(anneal=True, min_div=False, do_msteps=False, m_init=7,
                  seed=9, init_method="random_y"), "m_init"),
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
    ])
    def test_invalid_knob_rejected(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            RunConfig(**{knob: value})

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

    def test_dimension_mismatch_rejected(self):
        dataset, _, _ = easy_problem(d=6)
        _, _, wrong = generate(SynthSpec(d=5, n_y=2, m_true=2, per_speaker=3))
        with pytest.raises(ValueError, match="dimension"):
            run_adaptation(dataset, wrong, Hyperparams(), RunConfig(m_init=2))


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
    ])
    def test_nonpositive_prior_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Hyperparams(**{field: value})

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


class TestTrainSupervised:
    def test_requires_enough_data(self):
        with pytest.raises(ValueError, match="N_d"):
            train_supervised(np.zeros((3, 5)), np.array([0, 1, 2]), n_y=1)

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
