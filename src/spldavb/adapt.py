"""Full adaptation runs: initialization, annealing schedules, speaker-count
heuristics (pruning/merging), the VB+sampling hybrid and supervised
maximum-likelihood training of the initial model.
"""

from dataclasses import InitVar, dataclass, field, replace

import numpy as np
import scipy.cluster.hierarchy
import scipy.spatial.distance

from . import vbbayes, vbpoint
from .model import SpldaModel, SuffStats, accumulate_stats
from .synth import pairwise_llr_matrix
from .vbpoint import Hyperparams, Responsibilities, SpeakerPosteriors

__all__ = [
    "RunConfig",
    "RunReport",
    "init_responsibilities",
    "prune_and_merge",
    "run_adaptation",
    "sampled_statistics",
    "sweep_m",
    "train_supervised",
]


_INIT_METHODS = ("ahc", "random_y", "oracle", "uniform_pi")

# Hyperparams fields that only the Bayesian variant reads.
_BAYES_ONLY_HYPER = ("mu0", "beta", "a_alpha", "b_alpha")

# Knobs that are not read under some setting: (knob, setting, value of the
# setting that leaves the knob unread).
_UNREAD_UNDER = (
    ("sampler_k", "variant", "bayes"),
    ("sampler_strategy", "variant", "bayes"),
    ("min_div", "variant", "bayes"),
    ("do_msteps", "variant", "bayes"),
    ("hyper_opt_alpha", "variant", "point"),
    ("hyper_opt_mu", "variant", "point"),
    ("sampler_k", "do_msteps", False),  # the sampler only feeds the M-steps
    ("sampler_strategy", "sampler_k", 0),
    ("kappa0", "anneal", False),
    ("kappa_growth", "anneal", False),
    ("kappa_growth", "kappa0", 1.0),  # kappa starts at 1 and never grows
    ("prune_threshold", "prune_merge", False),
    ("merge_threshold", "prune_merge", False),
    ("prune_every", "prune_merge", False),
)


@dataclass
class RunConfig:
    """Knobs of one adaptation run.  Defaults follow the library's policy
    values; every heuristic constant is configurable."""

    m_init: int = 1
    variant: str = "point"  # "point" | "bayes"
    init_method: str = "ahc"  # one of _INIT_METHODS
    oracle_labels: np.ndarray | None = None
    anneal: bool = False
    kappa0: float = 0.2
    kappa_growth: float = 1.25
    prune_merge: bool = False
    prune_threshold: float = 0.5
    merge_threshold: float = 0.95
    prune_every: int = 5
    elbo_tol: float = 1e-7
    max_iter: int = 200
    do_msteps: bool = True
    min_div: bool = True
    sampler_k: int = 0  # 0 = off
    sampler_strategy: str = "average_accumulators"  # or "best_sample"
    hyper_opt_tau0: bool = False
    hyper_opt_alpha: bool = False
    hyper_opt_mu: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.m_init < 1:
            raise ValueError("m_init must be >= 1")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.prune_every < 1:
            raise ValueError(f"prune_every must be >= 1, got {self.prune_every}")
        if self.sampler_k < 0:
            raise ValueError(f"sampler_k must be >= 0 (0 = off), got {self.sampler_k}")
        if self.init_method not in _INIT_METHODS:
            raise ValueError(f"unknown init_method {self.init_method!r}; "
                             f"expected one of {', '.join(_INIT_METHODS)}")
        if self.init_method == "oracle" and self.oracle_labels is None:
            raise ValueError("init_method='oracle' requires oracle_labels")
        if self.init_method != "oracle" and self.oracle_labels is not None:
            raise ValueError(f"oracle_labels is only read by init_method='oracle', "
                             f"not {self.init_method!r}")
        if not 0 < self.kappa0 <= 1:
            raise ValueError("kappa0 must lie in (0, 1]")
        if self.kappa_growth < 1:
            raise ValueError("kappa growth factor must be >= 1")
        if self.prune_threshold < 0 or self.merge_threshold < 0:
            raise ValueError("thresholds must be >= 0")
        if self.variant not in ("point", "bayes"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.sampler_strategy not in ("best_sample", "average_accumulators"):
            raise ValueError(f"unknown sampler strategy {self.sampler_strategy!r}")
        for knob, setting, off in _UNREAD_UNDER:
            value = getattr(self, knob)
            # A field's class attribute is its default.
            if getattr(self, setting) == off and value != getattr(RunConfig, knob):
                raise ValueError(f"{knob}={value!r} has no effect with "
                                 f"{setting}={off!r}")
        if self.anneal and self.kappa0 < 1 and self.kappa_growth == 1:
            raise ValueError(
                f"kappa_growth=1 keeps kappa at kappa0={self.kappa0!r} < 1, so "
                "prune/merge and the stopping rule never run")


@dataclass
class RunReport:
    elbo_trace: list = field(default_factory=list)
    m_trace: list = field(default_factory=list)
    kappa_trace: list = field(default_factory=list)
    labels: np.ndarray | None = None
    model: SpldaModel | None = None
    elbo_terms: dict | None = None
    diagnostics: list = field(default_factory=list)
    converged: bool = False
    bayes_state: dict | None = None


def _one_hot(labels, m):
    r = np.zeros((labels.shape[0], m))
    r[np.arange(labels.shape[0]), labels] = 1.0
    return r


def init_responsibilities(dataset, model, config, tau0=1.0):
    """Initial q(theta) for the unsupervised set, per the configured method.

    ``tau0`` is the Dirichlet concentration of the ``random_y`` init."""
    phi = dataset.phi
    n, m = phi.shape[0], config.m_init
    rng = np.random.default_rng(config.seed)
    if config.init_method == "uniform_pi":
        return Responsibilities(r=np.full((n, m), 1.0 / m))
    if config.init_method == "oracle":
        labels = np.asarray(config.oracle_labels, dtype=int)
        if labels.shape != (n,):
            raise ValueError(f"oracle_labels has shape {labels.shape}; expected "
                             f"({n},), one label per unlabelled i-vector")
        if (labels < 0).any():
            raise ValueError("oracle_labels must be >= 0")
        return Responsibilities(r=_one_hot(labels, max(m, labels.max() + 1)))
    if config.init_method == "random_y":
        ybar = rng.standard_normal((m, model.n_y))
        posts = SpeakerPosteriors.from_pair(
            np.zeros((model.n_y, model.n_y)), np.zeros(m), ybar)
        dirichlet = vbpoint.update_q_pi(np.full(m, n / m), tau0)
        return vbpoint.update_q_theta(phi, posts, model, dirichlet)
    if config.init_method == "ahc":
        scores = pairwise_llr_matrix(model, phi)
        dist = scores.max() - scores
        np.fill_diagonal(dist, 0.0)
        condensed = scipy.spatial.distance.squareform(dist, checks=False)
        link = scipy.cluster.hierarchy.linkage(condensed, method="average")
        labels = scipy.cluster.hierarchy.fcluster(link, t=m, criterion="maxclust") - 1
        return Responsibilities(r=_one_hot(labels, m))
    raise ValueError(f"unknown init method {config.init_method!r}")


def sampled_statistics(resp, phi, k, seed=0):
    """Draw ``k`` hard assignments from q(theta) and accumulate hard stats.

    Returns ``(counts, fsums)`` with counts (k, M) and fsums (k, M, d).
    Every i-vector belongs to exactly one speaker per sample.
    ``seed`` is anything ``np.random.default_rng`` accepts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    r = resp.r
    n, m = r.shape
    rng = np.random.default_rng(seed)
    cum = np.cumsum(r, axis=1)
    cum[:, -1] = 1.0  # guard against accumulation shortfall
    u = rng.random((k, n))
    assign = (u[:, :, None] > cum[None, :, :]).sum(axis=2)
    counts = np.zeros((k, m))
    fsums = np.zeros((k, m, phi.shape[1]))
    for j in range(k):
        counts[j] = np.bincount(assign[j], minlength=m)
        np.add.at(fsums[j], assign[j], phi)
    return counts, fsums


def _sample_accumulators(counts, fsums, s_global, model):
    """Statistics, q(Y) and accumulators (C, R) of each hard sample;
    ``s_global`` is ``phi.T @ phi``."""
    for n, f in zip(counts, fsums):
        stats = SuffStats(n=n, f=f, s=s_global)
        posts = vbpoint.update_q_y(stats, model)
        yield stats, posts, vbpoint.accumulators(stats, posts)


def _hard_elbo(sample, model, tau0):
    """Point-variant lower bound of one ``_sample_accumulators`` sample."""
    stats, posts, acc = sample
    # A hard assignment has zero q(theta) entropy, which a responsibility
    # matrix without rows gives directly.
    hard = Responsibilities(r=np.zeros((0, stats.n.shape[0])))
    stats_d = SuffStats(n=np.zeros(0), f=np.zeros((0, model.d)),
                        s=np.zeros((model.d, model.d)))
    posts_d = SpeakerPosteriors.from_pair(
        np.zeros((model.n_y, model.n_y)), np.zeros(0), np.zeros((0, model.n_y)))
    elbo, _ = vbpoint.elbo_point(
        stats, stats_d, posts, posts_d, hard, vbpoint.update_q_pi(stats.n, tau0),
        model, Hyperparams(tau0=tau0), acc,
        vbpoint.accumulators(stats_d, posts_d))
    return elbo


def _merge_pairs(r, threshold):
    """Column pairs ``i < j`` with cosine above ``threshold``, in descending
    order of ``(cos, i, j)``."""
    norms = np.linalg.norm(r, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    cos = (r.T @ r) / np.outer(norms, norms)
    i, j = np.triu_indices(r.shape[1], 1)
    cos = cos[i, j]
    keep = cos > threshold
    i, j, cos = i[keep], j[keep], cos[keep]
    order = np.lexsort((j, i, cos))[::-1]
    return list(zip(i[order].tolist(), j[order].tolist()))


def prune_and_merge(resp, config, refresh, current_elbo, extra_pairs=()):
    """Speaker-count heuristics: drop empty clusters, merge duplicates.

    ``refresh(r)`` must run one VB sweep from responsibilities ``r`` and
    return ``(elbo, state)``.  Candidate restructures are gated one at a
    time: each is kept only if its refreshed bound does not drop more than
    ``elbo_tol`` relative to the refreshed bound of the current structure
    (both sweeps run under the same model, so the comparison is fair even
    right after an M-step).

    ``extra_pairs`` adds merge candidates beyond the column-cosine rule
    (column-index pairs, e.g. clusters with near-identical speaker
    posteriors); they pass through the same ELBO gate.

    Returns ``(resp, elbo, state, changed)``.  With a restructure, ``state``
    is the refreshed sweep of the new structure; without one, ``resp`` and
    ``current_elbo`` come back unchanged and ``state`` is the refreshed
    sweep of the current structure, or None if no candidate needed one.
    """
    r = resp.r
    counts = r.sum(axis=0)
    keep = counts >= config.prune_threshold
    if not keep.any():
        raise ValueError("prune threshold removed every cluster; lower it")
    have_prune = bool((~keep).any())
    if not have_prune and not extra_pairs \
            and not _merge_pairs(r, config.merge_threshold):
        return resp, current_elbo, None, False

    cur = r
    cur_elbo, cur_state = refresh(cur)
    changed = False

    if have_prune:
        cand = cur[:, keep]
        cand = cand / cand.sum(axis=1, keepdims=True)
        elbo2, state2 = refresh(cand)
        if elbo2 >= cur_elbo - config.elbo_tol * max(1.0, abs(cur_elbo)):
            cur, cur_elbo, cur_state = cand, elbo2, state2
            changed = True

    # Greedy pairwise merging; column ids survive index shifts so a
    # rejected pair is not retried within this call.  Ids equal the original
    # column indices until a merge mints a fresh id, so ``extra_pairs``
    # stays valid as long as both of its columns are unmerged.
    ids = list(range(r.shape[1]))
    if have_prune and changed:
        ids = [i for i, k in enumerate(keep) if k]
    next_id = r.shape[1]
    tried = set()
    while True:
        id_pairs = {frozenset((ids[i], ids[j])): (i, j)
                    for i, j in _merge_pairs(cur, config.merge_threshold)}
        for a, b in extra_pairs:
            if a in ids and b in ids and a != b:
                id_pairs.setdefault(
                    frozenset((a, b)), (min(ids.index(a), ids.index(b)),
                                        max(ids.index(a), ids.index(b))))
        candidates = [(key, ij) for key, ij in id_pairs.items()
                      if key not in tried]
        if not candidates:
            break
        key, (i, j) = candidates[0]
        cand = np.delete(cur, j, axis=1)
        cand[:, i] = cur[:, i] + cur[:, j]
        elbo2, state2 = refresh(cand)
        if elbo2 >= cur_elbo - config.elbo_tol * max(1.0, abs(cur_elbo)):
            cur, cur_elbo, cur_state = cand, elbo2, state2
            ids = ids[:j] + ids[j + 1:]
            ids[i] = next_id
            next_id += 1
            changed = True
        else:
            tried.add(key)

    if not changed:
        return resp, current_elbo, cur_state, False
    return Responsibilities(r=cur), cur_elbo, cur_state, changed


def _closest_posterior_pairs(ybar, n_pairs=6):
    """Column-index pairs ``i < j`` of the clusters with the closest
    posterior means, in ascending order of ``(distance, i, j)``."""
    i, j = np.triu_indices(ybar.shape[0], 1)
    diff = ybar[i] - ybar[j]
    # One dot product per pair, rounded as np.linalg.norm of a vector is.
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    order = np.lexsort((j, i, dist))[:n_pairs]
    return list(zip(i[order].tolist(), j[order].tolist()))


@dataclass(frozen=True)
class _Reduced:
    """Responsibilities and the raw statistics of the unlabelled set under
    them, reduced once by ``accumulate_stats``.  The statistics are
    computed here, ``r`` is made read-only and neither field can be
    reassigned, so the pair cannot go stale."""

    resp: Responsibilities
    phi: InitVar[np.ndarray]
    s_phi: InitVar[np.ndarray]
    stats: SuffStats = field(init=False)

    def __post_init__(self, phi, s_phi):
        self.resp.r.flags.writeable = False
        object.__setattr__(self, "stats",
                           accumulate_stats(self.resp.r, phi, s=s_phi))


class _Variant:
    """The parameter step of one inference variant.

    ``sweep(params, reduced, dirichlet, kappa)`` runs one coordinate-ascent
    sweep from the ``_Reduced`` responsibilities and returns a state dict
    with at least ``params``, ``reduced`` (the new responsibilities),
    ``dirichlet``, ``posts``, ``elbo`` and ``terms``; ``update(state)``
    returns the params for the next sweep; ``finish(params, report)``
    stores the adapted model in the report.
    """

    def __init__(self, dataset, hyper, config):
        self.phi = dataset.phi
        self.hyper = hyper
        self.config = config
        self.s_phi = self.phi.T @ self.phi
        self.stats_d = accumulate_stats(
            dataset.one_hot_labels(), dataset.phi_d) if dataset.phi_d.size \
            else SuffStats(n=np.zeros(0), f=np.zeros((0, dataset.d)),
                           s=np.zeros((dataset.d, dataset.d)))

    def reduce(self, resp):
        """``resp`` with the raw statistics of the unlabelled set under it."""
        return _Reduced(resp, self.phi, self.s_phi)


class _Point(_Variant):
    """Point estimates: params are the ``SpldaModel``, re-estimated by
    closed-form M-steps and minimum-divergence re-standardization."""

    def __init__(self, dataset, hyper, config):
        super().__init__(dataset, hyper, config)
        # One independent, reproducible sampler stream per iteration.
        self.sampler_seeds = np.random.SeedSequence(config.seed)

    def sweep(self, model, reduced, dirichlet, kappa):
        phi, hyper, stats_d = self.phi, self.hyper, self.stats_d
        posts = vbpoint.update_q_y(reduced.stats, model, kappa)
        posts_d = vbpoint.update_q_y(stats_d, model, kappa)
        reduced = self.reduce(
            vbpoint.update_q_theta(phi, posts, model, dirichlet, kappa))
        stats = reduced.stats
        dirichlet = vbpoint.update_q_pi(stats.n, hyper.tau0, kappa)
        acc = vbpoint.accumulators(stats, posts)
        acc_d = vbpoint.accumulators(stats_d, posts_d)
        elbo, terms = vbpoint.elbo_point(
            stats, stats_d, posts, posts_d, reduced.resp, dirichlet, model,
            hyper, acc, acc_d)
        return dict(params=model, posts=posts, posts_d=posts_d, acc=acc,
                    acc_d=acc_d, reduced=reduced, dirichlet=dirichlet,
                    elbo=elbo, terms=terms)

    def update(self, state):
        model, hyper, config = state["params"], self.hyper, self.config
        if not config.do_msteps:
            return model
        reduced, stats_d = state["reduced"], self.stats_d
        stats = reduced.stats
        (c, r), (c_d, r_d) = state["acc"], state["acc_d"]
        if config.sampler_k > 0:
            c, r = _sampler_accumulators(
                reduced.resp, self.phi, model, hyper, config, stats.s,
                self.sampler_seeds.spawn(1)[0])
        vtilde = vbpoint.mstep_V(c, r, c_d, r_d, hyper.eta)
        c_p = c + hyper.eta * c_d
        r_p = r + hyper.eta * r_d
        w = vbpoint.mstep_W(stats.s, stats_d.s, c_p, r_p, vtilde,
                            stats.n_total, stats_d.n_total, hyper.eta)
        model = SpldaModel(mu=vtilde[:, -1], v=vtilde[:, :-1], w=w)
        if config.min_div:
            model, (mu_y, t) = vbpoint.min_divergence(
                state["posts"], state["posts_d"], model, hyper.eta)
            # Extra merge candidates are the closest standardized means.
            state["posts"] = vbpoint.standardize_posteriors(
                state["posts"], mu_y, t)
        return model

    def finish(self, model, report):
        report.model = model


class _Bayes(_Variant):
    """Fully Bayesian: params are the posteriors ``(rowpost, wpost,
    alphapost)`` over the rows of [V | mu], W and the relevance
    precisions, updated inside every sweep."""

    def sweep(self, params, reduced, dirichlet, kappa):
        rowpost, wpost, alphapost = params
        phi, hyper, stats_d = self.phi, self.hyper, self.stats_d
        expected = rowpost.expected(wpost)
        posts = vbbayes.update_q_y_bayes(reduced.stats, expected, kappa)
        posts_d = vbbayes.update_q_y_bayes(stats_d, expected, kappa)
        reduced = self.reduce(vbbayes.update_q_theta_bayes(
            phi, posts, expected, dirichlet, kappa))
        stats = reduced.stats
        dirichlet = vbpoint.update_q_pi(stats.n, hyper.tau0, kappa)
        c, r = vbpoint.accumulators(stats, posts)
        c_d, r_d = vbpoint.accumulators(stats_d, posts_d)
        c_p, r_p = c + hyper.eta * c_d, r + hyper.eta * r_d
        rowpost = vbbayes.update_q_vtilde_rows(
            c_p, r_p, wpost, alphapost, hyper, rowpost, kappa)
        alphapost = vbbayes.update_q_alpha(rowpost, hyper, kappa)
        wpost = vbbayes.update_q_wishart(
            stats.s, stats_d.s, c_p, r_p, rowpost,
            stats.n_total, stats_d.n_total, hyper.eta, kappa)
        elbo, terms = vbbayes.elbo_bayes(
            stats, stats_d, posts, posts_d, reduced.resp, dirichlet,
            rowpost, alphapost, wpost, hyper, (c, r), (c_d, r_d))
        return dict(params=(rowpost, wpost, alphapost), reduced=reduced,
                    dirichlet=dirichlet, posts=posts, elbo=elbo, terms=terms)

    def update(self, state):
        rowpost, _, alphapost = state["params"]
        hyper = self.hyper
        if self.config.hyper_opt_alpha:
            hyper.a_alpha, hyper.b_alpha = vbbayes.optimize_hyper_alpha(
                alphapost, hyper.a_alpha)
        if self.config.hyper_opt_mu:
            hyper.mu0, hyper.beta = vbbayes.optimize_hyper_mu(
                rowpost, isotropic=np.isscalar(hyper.beta))
        return state["params"]

    def finish(self, params, report):
        rowpost, wpost, alphapost = params
        report.model = SpldaModel(mu=rowpost.mubar, v=rowpost.vbar, w=wpost.e_w)
        report.bayes_state = dict(rowpost=rowpost, wpost=wpost,
                                  alphapost=alphapost, hyper=self.hyper)


def _default_bayes_hyper(hyper, dataset):
    if hyper.mu0 is None:
        hyper.mu0 = dataset.phi_d.mean(axis=0) if dataset.phi_d.size \
            else dataset.phi.mean(axis=0)
    if hyper.beta is None:
        ref = dataset.phi_d if dataset.phi_d.size else dataset.phi
        tr_cov = float(np.trace(np.cov(ref.T))) if ref.shape[0] > 1 else 1.0
        hyper.beta = 1e-2 * ref.shape[1] / max(tr_cov, 1e-12)


def _set_fields(obj, names):
    """``name=value`` of each dataclass field in ``names`` that ``obj`` has
    away from its default (the field's class attribute)."""
    return [f"{name}={getattr(obj, name)!r}" for name in names
            if not np.array_equal(getattr(obj, name), getattr(type(obj), name))]


def run_adaptation(dataset, model_init, hyper, config):
    """Adapt an SPLDA model on a mixed labelled/unlabelled dataset.

    Executes: init -> loop { q updates at the current kappa; optional
    M-steps / hyperparameter optimization; ELBO; kappa growth; periodic
    prune/merge } until the relative ELBO change falls below ``elbo_tol``.
    ``hyper`` is not modified; the Bayesian report carries the final
    hyperparameters in ``bayes_state["hyper"]``.

    Without unlabelled i-vectors the run is ``train_supervised`` from
    ``model_init`` on the labelled set, which reads only ``max_iter`` and
    ``elbo_tol``: any other setting away from its default, including
    ``variant="bayes"``, ``eta`` and ``tau0``, raises a ``ValueError``.
    """
    bayes_only = _set_fields(hyper, _BAYES_ONLY_HYPER)
    if config.variant == "point" and bayes_only:
        raise ValueError(f"Hyperparams.{bayes_only[0]} is only read by the "
                         "bayes variant")
    if dataset.phi.shape[0] == 0:
        others = [name for name in RunConfig.__dataclass_fields__
                  if name not in ("variant", "max_iter", "elbo_tol")]
        unread = _set_fields(config, ("variant",)) \
            + ["Hyperparams." + s for s in _set_fields(hyper, ("eta", "tau0"))] \
            + _set_fields(config, others)
        if unread:
            raise ValueError(f"{unread[0]} has no effect without unlabelled "
                             "i-vectors")
        return train_supervised(
            dataset.phi_d, dataset.labels_d, model_init.n_y, model_init=model_init,
            max_iter=config.max_iter, elbo_tol=config.elbo_tol)
    if dataset.d != model_init.d:
        raise ValueError(
            f"model dimension {model_init.d} does not match data {dataset.d}")
    hyper = replace(hyper)
    if config.variant == "bayes":
        _default_bayes_hyper(hyper, dataset)
        rowpost = vbbayes.RowPosteriors.point_mass(model_init.vtilde)
        params = (rowpost, vbbayes.WishartPosterior.point_mass(model_init.w),
                  vbbayes.update_q_alpha(rowpost, hyper))
        variant = _Bayes(dataset, hyper, config)
    else:
        params, variant = model_init, _Point(dataset, hyper, config)
    return _adapt(dataset, model_init, hyper, config, variant, params)


def sweep_m(dataset, model_init, hyper, config, m_values):
    """Model selection over the initial cluster count.

    Runs ``run_adaptation`` once per value in ``m_values`` and returns
    ``(best_report, reports)`` where ``best_report`` maximizes the final
    lower bound.  Every run uses the same seed and settings apart from
    ``m_init``.
    """
    m_values = [int(m) for m in m_values]
    if not m_values:
        raise ValueError("m_values must be non-empty")
    reports = []
    for m in m_values:
        cfg = replace(config, m_init=m)
        reports.append(run_adaptation(dataset, model_init, hyper, cfg))
    best = max(reports, key=lambda rep: rep.elbo_trace[-1])
    return best, reports


def _adapt(dataset, model_init, hyper, config, variant, params):
    """The coordinate ascent both variants share: sweep, parameter step,
    tau0 step, annealing, ELBO-gated prune/merge and the stopping rule."""
    report = RunReport()
    reduced = variant.reduce(
        init_responsibilities(dataset, model_init, config, tau0=hyper.tau0))
    dirichlet = vbpoint.update_q_pi(reduced.stats.n, hyper.tau0)
    kappa = config.kappa0 if config.anneal else 1.0
    since_restructure = 0
    next_state = None

    for it in range(config.max_iter):
        if next_state is None:
            state = variant.sweep(params, reduced, dirichlet, kappa)
        else:
            state, next_state = next_state, None
        reduced, dirichlet, elbo = \
            state["reduced"], state["dirichlet"], state["elbo"]
        params = variant.update(state)
        if config.hyper_opt_tau0 and dirichlet.tau.shape[0] >= 2:
            hyper.tau0 = vbpoint.mstep_tau0(dirichlet.e_ln_pi, hyper.tau0)

        report.elbo_trace.append(elbo)
        report.m_trace.append(reduced.resp.r.shape[1])
        report.kappa_trace.append(kappa)
        if not np.isfinite(elbo):
            raise FloatingPointError(
                f"non-finite ELBO at iteration {it}: {elbo!r}")

        restructured = False
        if (config.prune_merge and since_restructure >= config.prune_every
                and kappa == 1.0):

            def refresh(r_matrix):
                # The baseline candidate is the current, reduced matrix.
                red = reduced if r_matrix is reduced.resp.r \
                    else variant.reduce(Responsibilities(r=r_matrix))
                st = variant.sweep(
                    params, red, vbpoint.update_q_pi(red.stats.n, hyper.tau0),
                    1.0)
                return st["elbo"], st

            resp2, _, st2, restructured = prune_and_merge(
                reduced.resp, config, refresh, elbo,
                extra_pairs=_closest_posterior_pairs(state["posts"].ybar))
            since_restructure = 0
            if restructured:
                report.diagnostics.append(
                    f"iter {it}: restructured M {reduced.resp.r.shape[1]} -> "
                    f"{resp2.r.shape[1]}")
                reduced, dirichlet, params = \
                    st2["reduced"], st2["dirichlet"], st2["params"]
            elif st2 is not None and np.array_equal(
                    vbpoint.update_q_pi(reduced.stats.n, hyper.tau0).tau,
                    dirichlet.tau):
                # The baseline refresh swept from this resp under these
                # params at kappa = 1 with this q(pi): it is the next sweep.
                next_state = st2
        if kappa == 1.0:
            since_restructure += 1

        if kappa < 1.0:
            kappa = min(kappa * config.kappa_growth, 1.0)
        elif not restructured and len(report.elbo_trace) >= 2:
            prev = report.elbo_trace[-2]
            if abs(elbo - prev) < config.elbo_tol * max(1.0, abs(prev)):
                report.converged = True
                break

    report.labels = np.argmax(reduced.resp.r, axis=1)  # ties: lowest index wins
    report.elbo_terms = state["terms"]
    variant.finish(params, report)
    return report


def _sampler_accumulators(resp, phi, model, hyper, config, s_global, seed):
    """Mean of the per-sample (C, R) accumulators, or those of the sample
    with the highest lower bound for ``best_sample``."""
    counts, fsums = sampled_statistics(resp, phi, config.sampler_k, seed=seed)
    samples = _sample_accumulators(counts, fsums, s_global, model)
    if config.sampler_strategy == "best_sample":
        # max keeps the first of tied samples, as argmax does
        samples = [max(samples, key=lambda smp: _hard_elbo(smp, model, hyper.tau0))]
    accs = [acc for *_, acc in samples]
    return (sum(c for c, _ in accs) / len(accs),
            sum(r for _, r in accs) / len(accs))


def train_supervised(phi_d, labels_d, n_y, model_init=None, max_iter=200,
                     elbo_tol=1e-7, seed=0):
    """Supervised maximum-likelihood SPLDA (EM on hard labels).

    Used to build the initial model before adaptation; requires N_d > d.
    """
    phi_d = np.asarray(phi_d, dtype=float)
    labels_d = np.asarray(labels_d, dtype=int)
    n_d, d = phi_d.shape
    if n_y < 1:
        raise ValueError("n_y must be >= 1")
    if n_d <= d:
        raise ValueError(f"need N_d > d for a valid W (N_d={n_d}, d={d})")
    m_d = labels_d.max() + 1
    resp = _one_hot(labels_d, m_d)
    stats = accumulate_stats(resp, phi_d)
    if model_init is None:
        rng = np.random.default_rng(seed)
        mu = phi_d.mean(axis=0)
        cov = np.cov(phi_d.T) + 1e-8 * np.eye(d)
        scale = np.sqrt(np.trace(cov) / d)
        model = SpldaModel(
            mu=mu, v=scale * rng.standard_normal((d, n_y)) / np.sqrt(n_y),
            w=np.linalg.inv(cov))
    else:
        model = model_init

    report = RunReport()
    empty_posts = SpeakerPosteriors.from_pair(
        np.zeros((n_y, n_y)), np.zeros(0), np.zeros((0, n_y)))
    for it in range(max_iter):
        posts = vbpoint.update_q_y(stats, model)
        c_d, r_d = vbpoint.accumulators(stats, posts)
        elbo = (vbpoint._data_term(stats, (c_d, r_d), model.vtilde, model.w,
                                   model.logdet_w())
                + vbpoint._y_prior_term(posts)
                - vbpoint._y_entropy_term(posts))
        report.elbo_trace.append(float(elbo))
        report.m_trace.append(int(m_d))
        report.kappa_trace.append(1.0)
        vtilde = vbpoint.mstep_V(np.zeros_like(c_d), np.zeros_like(r_d),
                                 c_d, r_d, 1.0)
        w = vbpoint.mstep_W(np.zeros((d, d)), stats.s, c_d, r_d, vtilde,
                            0.0, stats.n_total, 1.0)
        model = SpldaModel(mu=vtilde[:, -1], v=vtilde[:, :-1], w=w)
        model, _ = vbpoint.min_divergence(empty_posts, posts, model, 1.0)
        if len(report.elbo_trace) >= 2:
            prev = report.elbo_trace[-2]
            if abs(elbo - prev) < elbo_tol * max(1.0, abs(prev)):
                report.converged = True
                break
    report.labels = labels_d.copy()
    report.model = model
    return report
