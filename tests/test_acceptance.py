"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Each test covers one externally required property of the package at desk
scale: lower-bound monotonicity and runtime, variant equivalence in the
degenerate limit, stationarity of closed-form maximizers, Monte Carlo
expectation identities, solver residuals, marginal invariance, label
recovery, annealing, hybrid sampling, automatic column pruning, and
round-trip determinism.
"""

import time

import numpy as np
from scipy.optimize import brentq
from scipy.special import digamma

from spldavb import adapt, fileio, vbbayes, vbpoint
from spldavb.adapt import (
    RunConfig,
    run_adaptation,
    sampled_statistics,
    train_supervised,
)
from spldavb.linalg import inv_pd
from spldavb.model import (
    SpldaModel,
    accumulate_stats,
    center_stats,
    marginal_params,
)
from spldavb.oracles import clustering_metrics, mc_expectation_oracle
from spldavb.synth import SynthSpec, generate, random_model, split_dataset
from spldavb.vbbayes import (
    AlphaPosterior,
    WishartPosterior,
    optimize_hyper_alpha,
    update_q_theta_bayes,
    update_q_y_bayes,
)
from spldavb.vbpoint import Hyperparams
from splda_oracles import (
    dense_cov,
    dense_prec,
    e_vt_r_vt,
    e_vt_w_vt,
    fd_gradient,
    rowpost_from_cov,
)


def _verdict(name, ok):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def _monotone_problem(seed=0):
    phi, labels, _ = generate(SynthSpec(
        d=10, n_y=2, m_true=10, per_speaker=20, eigenvoice_scale=3.0,
        noise_scale=1.0, seed=seed))
    dataset, _ = split_dataset(phi, labels, 0.5, seed=seed)
    init = train_supervised(dataset.phi_d, dataset.labels_d, n_y=2,
                            seed=seed).model
    return dataset, init


def _relative_drops(trace):
    t = np.asarray(trace)
    return np.diff(t) / np.maximum(1.0, np.abs(t[:-1]))


class TestAcceptance:
    def test_01_point_elbo_monotone_within_budget(self):
        dataset, init = _monotone_problem()
        start = time.perf_counter()
        report = run_adaptation(
            dataset, init, Hyperparams(),
            RunConfig(m_init=15, init_method="random_y", elbo_tol=0.0,
                      max_iter=200, seed=0))
        elapsed = time.perf_counter() - start
        drops = _relative_drops(report.elbo_trace)
        ok = (len(report.elbo_trace) == 200 and drops.min() > -1e-8
              and elapsed < 10.0)
        _verdict("01 point lower bound monotone, 200 iterations < 10 s", ok)

    def test_02_bayes_elbo_monotone_within_budget(self):
        dataset, init = _monotone_problem()
        start = time.perf_counter()
        report = run_adaptation(
            dataset, init, Hyperparams(),
            RunConfig(m_init=15, variant="bayes", init_method="random_y",
                      elbo_tol=0.0, max_iter=200, seed=0))
        elapsed = time.perf_counter() - start
        drops = _relative_drops(report.elbo_trace)
        ok = (len(report.elbo_trace) == 200 and drops.min() > -1e-8
              and elapsed < 60.0)
        _verdict("02 Bayesian lower bound monotone, 200 iterations < 60 s", ok)

    def test_03_point_mass_bayes_equals_point_updates(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = random_model(d=4, n_y=2, eigenvoice_scale=1.5,
                                 noise_scale=0.8, rng=rng)
            phi = rng.standard_normal((30, 4))
            resp = rng.dirichlet(np.ones(3), size=30)
            stats = center_stats(accumulate_stats(resp, phi), model.mu)
            rowpost = vbbayes.RowPosteriors.point_mass(model.vtilde)
            wpost = WishartPosterior.point_mass(model.w)
            posts_p = vbpoint.update_q_y(stats, model)
            raw = accumulate_stats(resp, phi)
            posts_b = update_q_y_bayes(raw, rowpost.expected(wpost), 1.0)
            worst = max(worst,
                        np.abs(posts_p.ybar - posts_b.ybar).max(),
                        np.abs(dense_prec(posts_p) - dense_prec(posts_b)).max())
            dirichlet = vbpoint.update_q_pi(stats.n, 1.0)
            r_p = vbpoint.update_q_theta(phi, posts_p, model, dirichlet)
            r_b = update_q_theta_bayes(phi, posts_b, rowpost.expected(wpost),
                                       dirichlet, 1.0)
            worst = max(worst, np.abs(r_p.r - r_b.r).max())
        _verdict(f"03 point-mass Bayesian updates match point variant "
                 f"(max |diff| {worst:.2e} <= 1e-12)", worst <= 1e-12)

    def test_04_msteps_are_elbo_stationary_points(self):
        rng = np.random.default_rng(4)
        model0 = random_model(d=4, n_y=2, eigenvoice_scale=2.0,
                              noise_scale=1.0, rng=rng)
        phi = rng.standard_normal((40, 4)) + rng.standard_normal(4)
        resp = rng.dirichlet(np.ones(4), size=40)
        phi_d = rng.standard_normal((20, 4))
        labels_d = np.repeat(np.arange(4), 5)
        eta = 0.5
        stats = center_stats(accumulate_stats(resp, phi), model0.mu)
        stats_d = center_stats(accumulate_stats(np.eye(4)[labels_d], phi_d),
                               model0.mu)
        posts = vbpoint.update_q_y(stats, model0)
        posts_d = vbpoint.update_q_y(stats_d, model0)
        dirichlet = vbpoint.update_q_pi(stats.n, 1.0)
        resp_obj = vbpoint.Responsibilities(r=resp)
        hyper = Hyperparams(eta=eta)
        c, r = vbpoint.accumulators(stats, posts)
        c_d, r_d = vbpoint.accumulators(stats_d, posts_d)
        c_p, r_p = c + eta * c_d, r + eta * r_d
        vtilde = vbpoint.mstep_V(c_p, r_p)
        w = vbpoint.mstep_W(stats.s + eta * stats_d.s, c_p, r_p, vtilde,
                            stats.n_total + eta * stats_d.n_total)
        d = 4
        n_aug = 3
        iu = np.triu_indices(d)

        def unpack_w(vech):
            m = np.zeros((d, d))
            m[iu] = vech
            return m + m.T - np.diag(np.diag(m))

        def objective(params):
            vt = params[:d * n_aug].reshape(d, n_aug)
            cand = SpldaModel(mu=vt[:, -1], v=vt[:, :-1],
                              w=unpack_w(params[d * n_aug:]))
            _, terms = vbpoint.elbo_point((stats, posts, (c, r)), resp_obj,
                                          dirichlet, cand, hyper,
                                          (stats_d, posts_d, (c_d, r_d)))
            return terms["lnP(Phi|Y,theta)"] + terms["eta*lnP(Phi_d|Y_d)"]

        params0 = np.concatenate([vtilde.ravel(), w[iu]])
        g0 = fd_gradient(objective, params0, step=1e-6)
        rng2 = np.random.default_rng(40)
        params1 = params0 + 0.05 * rng2.standard_normal(params0.size)
        g1 = fd_gradient(objective, params1, step=1e-6)
        rel = np.abs(g0).max() / np.abs(g1).max()
        _verdict(f"04 closed-form maximizers are stationary "
                 f"(relative gradient {rel:.2e} < 1e-5)", rel < 1e-5)

    def test_05_expectation_identities_match_monte_carlo(self):
        rng = np.random.default_rng(5)
        d, n_y = 4, 2
        n_draws = 100_000
        prec = np.stack([np.eye(n_y + 1) + 0.3 * np.outer(v, v)
                         for v in rng.standard_normal((d, n_y + 1))])
        rowpost = rowpost_from_cov(rng.standard_normal((d, n_y + 1)),
                                   np.linalg.inv(prec))
        k = np.eye(d) * 0.5 + 0.1
        dof = 12.0
        wpost = WishartPosterior.from_update(k, dof, 1.0)
        failures = []

        def gate(name, analytic, dist, integrand, draws=n_draws):
            mean, se = mc_expectation_oracle(dist, integrand, draws, seed=11)
            gap = np.abs(np.asarray(mean) - analytic)
            if not (gap <= 3.0 * np.maximum(se, 1e-12)).all():
                failures.append(name)

        # At kappa = 1, q(W) has dof N' and scale K^-1.
        w_dist = dict(kind="wishart", dof=dof, scale=inv_pd(k))
        rows_dist = dict(kind="gaussian_rows", means=rowpost.mean,
                         covs=dense_cov(rowpost))

        # E[Vt' W Vt]; the rows of Vt and W are independent under the
        # factorized posterior, so E over W can be applied inside.
        gate("E[Vt'WVt]", e_vt_w_vt(rowpost, wpost), rows_dist,
             lambda vt: vt.T @ wpost.e_w @ vt)

        # E[Vt diag(rho) Vt'] over the row posteriors.
        rho = rng.uniform(0.5, 2.0, size=n_y + 1)
        gate("E[Vt R Vt']", e_vt_r_vt(rowpost, np.diag(rho)), rows_dist,
             lambda vt: vt @ np.diag(rho) @ vt.T)

        # E[ln |W|] under the Wishart posterior.
        gate("E[ln|W|]", wpost.e_ln_w, w_dist,
             lambda wm: np.linalg.slogdet(wm)[1])

        # E[v_q' v_q] per column of V.
        gate("E[vq'vq]", rowpost.e_vq_vq(), rows_dist,
             lambda vt: np.einsum("dq,dq->q", vt[:, :n_y], vt[:, :n_y]))

        # Quadratic form E[y' A y] under a Gaussian speaker posterior.
        a = np.eye(n_y) + 0.2
        ybar = rng.standard_normal(n_y)
        cov_y = np.linalg.inv(np.eye(n_y) * 2.0 + 0.5)
        analytic = ybar @ a @ ybar + np.trace(a @ cov_y)
        gate("E[y'Ay]", analytic, dict(kind="gaussian", mean=ybar, cov=cov_y),
             lambda y: y @ a @ y)

        _verdict("05 expectation identities within 3 Monte Carlo standard "
                 f"errors at 1e5 draws (failed: {failures or 'none'})",
                 not failures)

    def test_06_newton_solvers_hit_roots_and_recover_gamma(self):
        rng = np.random.default_rng(6)
        m = 6
        e_ln_pi = np.log(rng.dirichlet(np.full(m, 3.0))) - 0.05
        tau0 = vbpoint.mstep_tau0(e_ln_pi, tau0_init=1.0, tol=1e-13)
        res_tau = abs(m * digamma(m * tau0) - m * digamma(tau0)
                      + e_ln_pi.sum())
        root = brentq(lambda t: m * digamma(m * t) - m * digamma(t)
                      + e_ln_pi.sum(), 1e-8, 1e6, xtol=1e-13)
        cross_tau = abs(tau0 - root)

        a_true, b_true = 2.0, 3.0
        mom = AlphaPosterior(a_prime=a_true,
                             b_prime=np.full(4, b_true))
        a_hat, b_hat = optimize_hyper_alpha(mom, a_init=0.1)
        gap = np.log(mom.e_alpha.mean()) - mom.e_ln_alpha.mean()
        res_alpha = abs(digamma(a_hat) - np.log(a_hat) + gap)
        recovery = max(abs(a_hat - a_true), abs(b_hat - b_true))
        ok = (res_tau < 1e-10 and cross_tau < 1e-8
              and res_alpha < 1e-10 and recovery < 1e-6)
        _verdict(f"06 Newton solvers: residuals ({res_tau:.1e}, "
                 f"{res_alpha:.1e}) < 1e-10, bisection gap {cross_tau:.1e}, "
                 f"Gamma(2,3) recovered to {recovery:.1e}", ok)

    def test_07_minimum_divergence_preserves_marginal(self):
        rng = np.random.default_rng(7)
        model = random_model(d=5, n_y=3, eigenvoice_scale=1.5,
                             noise_scale=1.0, rng=rng)
        phi = rng.standard_normal((40, 5))
        resp = rng.dirichlet(np.ones(4), size=40)
        stats = center_stats(accumulate_stats(resp, phi), model.mu)
        posts = vbpoint.update_q_y(stats, model)
        phi_d = rng.standard_normal((20, 5))
        stats_d = center_stats(
            accumulate_stats(np.eye(4)[np.repeat(np.arange(4), 5)], phi_d),
            model.mu)
        posts_d = vbpoint.update_q_y(stats_d, model)
        mu2, v2, (mu_y, t) = vbpoint.min_divergence(
            [(posts, 1.0), (posts_d, 0.5)], model.mu, model.v)
        model2 = SpldaModel(mu=mu2, v=v2, w=model.w)
        # The transform absorbs the aggregate posterior N(mu_y, T T') into
        # (mu, V); the standard marginal of the new model must equal the old
        # model's marginal under that absorbed prior.
        mean0 = model.mu + model.v @ mu_y
        cov0 = model.v @ (t @ t.T) @ model.v.T + np.linalg.inv(model.w)
        mean1, cov1 = marginal_params(model2)
        gap = max(np.abs(mean1 - mean0).max(), np.abs(cov1 - cov0).max())
        _verdict(f"07 minimum-divergence marginal invariance "
                 f"(max |diff| {gap:.2e} <= 1e-10)", gap <= 1e-10)

    def test_08_label_recovery_with_pruning_and_oracle_init(self):
        good = 0
        for seed in range(5):
            phi, labels, _ = generate(SynthSpec(
                d=8, n_y=4, m_true=8, per_speaker=12, eigenvoice_scale=5.0,
                noise_scale=1.0, seed=seed))
            dataset, true_unsup = split_dataset(phi, labels, 0.5, seed=seed)
            init = train_supervised(dataset.phi_d, dataset.labels_d, n_y=4,
                                    seed=seed).model
            m_true = len(np.unique(true_unsup))
            report = run_adaptation(
                dataset, init, Hyperparams(),
                RunConfig(m_init=2 * m_true, init_method="ahc",
                          prune_merge=True, prune_every=3, max_iter=200,
                          seed=seed))
            ari = clustering_metrics(report.labels, true_unsup).ari
            good += (report.m_trace[-1] == m_true and ari >= 0.95)
        phi, labels, _ = generate(SynthSpec(
            d=8, n_y=4, m_true=8, per_speaker=12, eigenvoice_scale=5.0,
            noise_scale=1.0, seed=0))
        dataset, true_unsup = split_dataset(phi, labels, 0.5, seed=0)
        init = train_supervised(dataset.phi_d, dataset.labels_d, n_y=4,
                                seed=0).model
        m_true = len(np.unique(true_unsup))
        oracle = run_adaptation(
            dataset, init, Hyperparams(),
            RunConfig(m_init=m_true, init_method="oracle",
                      oracle_labels=true_unsup, max_iter=100, seed=0))
        oracle_ari = clustering_metrics(oracle.labels, true_unsup).ari
        ok = good >= 4 and oracle_ari == 1.0
        _verdict(f"08 label recovery {good}/5 seeds (need >= 4), oracle-init "
                 f"ARI {oracle_ari:.3f} == 1", ok)

    def test_09_annealing_reaches_one_and_helps_on_hard_data(self):
        wins = 0
        for seed in range(5):
            phi, labels, _ = generate(SynthSpec(
                d=10, n_y=2, m_true=8, per_speaker=10, eigenvoice_scale=1.5,
                noise_scale=1.0, seed=seed))
            dataset, true_unsup = split_dataset(phi, labels, 0.5, seed=seed)
            init = train_supervised(dataset.phi_d, dataset.labels_d, n_y=2,
                                    seed=seed).model
            m = len(np.unique(true_unsup))
            final = {}
            for anneal in (False, True):
                report = run_adaptation(
                    dataset, init, Hyperparams(),
                    RunConfig(m_init=m, init_method="ahc", anneal=anneal,
                              max_iter=200, seed=seed))
                if anneal:
                    assert report.kappa_trace[-1] == 1.0
                final[anneal] = report.elbo_trace[-1]
            wins += final[True] >= final[False] - 1e-10
        # Bit-equality of the annealed code path once kappa reaches 1.
        phi, labels, _ = generate(SynthSpec(
            d=6, n_y=2, m_true=4, per_speaker=10, eigenvoice_scale=3.0,
            seed=1))
        dataset, _ = split_dataset(phi, labels, 0.5, seed=1)
        init = train_supervised(dataset.phi_d, dataset.labels_d, n_y=2,
                                seed=1).model
        runs = []
        for anneal in (False, True):
            report = run_adaptation(
                dataset, init, Hyperparams(),
                RunConfig(m_init=3, init_method="random_y", anneal=anneal,
                          **(dict(kappa0=1.0) if anneal else {}),
                          max_iter=40, seed=1))
            runs.append(report.elbo_trace)
        bit_equal = runs[0] == runs[1]
        ok = wins >= 3 and bit_equal
        _verdict(f"09 annealing reaches kappa=1, wins {wins}/5 hard seeds "
                 f"(need >= 3), kappa0=1 path bit-equal: {bit_equal}", ok)

    def test_10_sampled_counts_unbiased_and_best_sample_dominates(self):
        rng = np.random.default_rng(10)
        phi, labels, model = generate(SynthSpec(
            d=5, n_y=2, m_true=4, per_speaker=10, eigenvoice_scale=2.0,
            seed=10))
        resp = vbpoint.Responsibilities(r=rng.dirichlet(np.ones(4), size=40))
        k = 10_000
        counts, fsums = sampled_statistics(resp, phi, k, seed=3)
        se = np.sqrt((resp.r * (1.0 - resp.r)).sum(axis=0) / k)
        gap = np.abs(counts.mean(axis=0) - resp.r.sum(axis=0))
        counts_ok = (gap <= 3.0 * np.maximum(se, 1e-12)).all()
        elbos = np.array([adapt._hard_elbo(smp, model, 1.0) for smp in
                          adapt._sample_accumulators(counts[:200], fsums[:200],
                                                     phi.T @ phi, model)])
        best_ok = elbos.max() >= np.median(elbos)
        ok = counts_ok and best_ok
        _verdict(f"10 sampled counts within 3 SE of expectations "
                 f"(max gap/SE {(gap / np.maximum(se, 1e-12)).max():.2f}), "
                 f"best sample >= median lower bound: {best_ok}", ok)

    def test_11_ard_switches_off_surplus_columns(self):
        phi, labels, _ = generate(SynthSpec(
            d=10, n_y=2, m_true=20, per_speaker=10, eigenvoice_scale=3.0,
            noise_scale=1.0, seed=0))
        dataset, _ = split_dataset(phi, labels, 0.5, seed=0)
        init = train_supervised(dataset.phi_d, dataset.labels_d, n_y=5,
                                seed=0).model
        report = run_adaptation(
            dataset, init, Hyperparams(),
            RunConfig(m_init=10, variant="bayes", init_method="ahc",
                      max_iter=100, seed=0))
        e_alpha = np.sort(report.bayes_state["alphapost"].e_alpha)
        ratio = e_alpha[2] / e_alpha[1]  # smallest surplus vs largest kept
        _verdict(f"11 surplus-column precision ratio {ratio:.1f} >= 10 "
                 "(5 fitted vs 2 generating columns)", ratio >= 10.0)

    def test_12_round_trip_and_run_determinism(self, tmp_path):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6))
        model = SpldaModel(mu=rng.standard_normal(6),
                           v=rng.standard_normal((6, 2)),
                           w=a @ a.T + 6 * np.eye(6))
        fileio.write_model(tmp_path / "m.splda", model)
        loaded, _ = fileio.read_model(tmp_path / "m.splda")
        x = rng.standard_normal((9, 4)) * np.logspace(-100, 100, 4)
        fileio.write_matrix(tmp_path / "x.ivec", x)
        bits_ok = ((loaded.mu == model.mu).all()
                   and (loaded.v == model.v).all()
                   and (loaded.w == model.w).all()
                   and (fileio.read_matrix(tmp_path / "x.ivec") == x).all())
        phi, labels, _ = generate(SynthSpec(
            d=6, n_y=2, m_true=5, per_speaker=10, eigenvoice_scale=3.0,
            seed=12))
        dataset, _ = split_dataset(phi, labels, 0.5, seed=12)
        init = train_supervised(dataset.phi_d, dataset.labels_d, n_y=2,
                                seed=12).model
        reports = [run_adaptation(
            dataset, init, Hyperparams(),
            RunConfig(m_init=4, init_method="random_y", anneal=True,
                      max_iter=60, seed=9)) for _ in range(2)]
        runs_ok = (reports[0].elbo_trace == reports[1].elbo_trace
                   and (reports[0].labels == reports[1].labels).all()
                   and (reports[0].model.v == reports[1].model.v).all())
        ok = bits_ok and runs_ok
        _verdict(f"12 bit-exact round trips: {bits_ok}, identical seeds give "
                 f"identical runs: {runs_ok}", ok)
