"""Full adaptation runs: initialization, annealing schedules, speaker-count
heuristics (pruning/merging), the VB+sampling hybrid and supervised
maximum-likelihood training of the initial model.
"""

from collections import namedtuple
from dataclasses import InitVar, dataclass, field, fields, replace

import numpy as np
import scipy.cluster.hierarchy
import scipy.spatial.distance

from . import vbbayes, vbpoint
from .linalg import check_array, check_settings, freeze, freeze_fields
from .model import (Dataset, SpldaModel, SuffStats, _hard_stats, _labelled_stats,
                    _one_hot, accumulate_stats)
from .synth import pairwise_llr_matrix
from .vbpoint import LOG2PI, Responsibilities, SpeakerPosteriors


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
    ("min_div", "do_msteps", False),  # it re-standardizes after the M-steps
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


@dataclass(frozen=True)
class RunConfig:
    """Knobs of one adaptation run.  Defaults follow the library's policy
    values; every heuristic constant is configurable, and a bool knob
    takes only a bool.  The knobs are checked when the config is built, and
    a field cannot be assigned after (``oracle_labels`` is read-only);
    ``dataclasses.replace`` checks again.
    ``init_method="uniform_pi"`` starts every cluster identical and no
    update breaks the tie, so with ``m_init > 1`` every i-vector ends in
    one cluster."""

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
        freeze_fields(self, ("oracle_labels",), borrowed=True)
        # Before _UNREAD_UNDER, whose != would not give a bool on an array.
        check_settings(**{f.name: getattr(self, f.name) for f in fields(self)
                          if f.type in (bool, int, float)})
        if self.init_method not in _INIT_METHODS:
            raise ValueError(f"unknown init_method {self.init_method!r}; "
                             f"expected one of {', '.join(_INIT_METHODS)}")
        if self.init_method == "oracle" and self.oracle_labels is None:
            raise ValueError("init_method='oracle' requires oracle_labels")
        if self.init_method != "oracle" and self.oracle_labels is not None:
            raise ValueError(f"oracle_labels is only read by init_method='oracle', "
                             f"not {self.init_method!r}")
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
    """What ``run_adaptation`` returns.

    Entry ``it`` of ``elbo_trace``, ``m_trace`` and ``kappa_trace`` records
    the sweep of iteration ``it``; ``labels`` and ``elbo_terms`` describe
    the last recorded sweep.  A run makes one VB sweep per entry: a kept
    prune/merge restructure runs no sweep of its own, and the next
    iteration's sweep starts from it, so no attempt runs on the last
    iteration.  Each entry, at kappa < 1 too, is the bound of the state the
    run holds after that sweep, whose factors are tempered at its kappa: a
    lower bound on ln p(Phi), up to the improper-prior constant of P(W)
    that the Bayesian bound drops.  The point ``model`` is one parameter
    update past the last recorded bound; for the Bayesian variant, the
    ``"hyper"`` entry of ``bayes_state`` is one hyperparameter step past
    it.
    """

    elbo_trace: list = field(default_factory=list)
    m_trace: list = field(default_factory=list)
    kappa_trace: list = field(default_factory=list)
    labels: np.ndarray | None = None
    model: SpldaModel | None = None
    elbo_terms: dict | None = None
    diagnostics: list = field(default_factory=list)
    converged: bool = False
    bayes_state: dict | None = None


def _converged(trace, tol):
    """The stopping rule: a change below ``tol`` (relative) in ``trace``."""
    return len(trace) >= 2 and \
        abs(trace[-1] - trace[-2]) < tol * max(1.0, abs(trace[-2]))


def init_responsibilities(dataset, model, config, tau0=1.0):
    """Initial q(theta) for the unsupervised set, per the configured method.

    ``tau0`` is the Dirichlet concentration of the ``random_y`` init."""
    phi = dataset.phi
    n, m = phi.shape[0], config.m_init
    rng = np.random.default_rng(config.seed)
    if config.init_method == "uniform_pi":
        return Responsibilities(r=np.full((n, m), 1.0 / m))
    if config.init_method == "oracle":
        labels = config.oracle_labels
        if labels.shape != (n,):
            raise ValueError(f"oracle_labels has shape {labels.shape}; expected "
                             f"({n},), one label per unlabelled i-vector")
        return Responsibilities(r=_one_hot(labels, max(m, labels.max() + 1)))
    if config.init_method == "random_y":
        ybar = rng.standard_normal((m, model.n_y))
        posts = SpeakerPosteriors.from_pair(
            np.zeros((model.n_y, model.n_y)), np.zeros(m), ybar)
        dirichlet = vbpoint.update_q_pi(np.full(m, n / m), tau0)
        return vbpoint.update_q_theta(phi, posts, model, dirichlet)
    # "ahc", the one method left: RunConfig admits no other.
    if n == 1:  # linkage needs two observations; the one forms column 0
        return Responsibilities(r=np.eye(1, m))
    dist = pairwise_llr_matrix(model, phi)
    np.subtract(dist.max(), dist, out=dist)  # the scores become distances
    np.fill_diagonal(dist, 0.0)
    condensed = scipy.spatial.distance.squareform(dist, checks=False)
    link = scipy.cluster.hierarchy.linkage(condensed, method="average")
    labels = scipy.cluster.hierarchy.fcluster(link, t=m, criterion="maxclust") - 1
    return Responsibilities(r=_one_hot(labels, m))


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
    draws = [_hard_stats((u_j[:, None] > cum).sum(axis=1), phi, m)
             for u_j in u]  # one (N, M) comparison at a time
    counts, fsums = map(np.array, zip(*draws))
    return counts, fsums


def _sample_accumulators(counts, fsums, s_global, model):
    """Statistics, q(Y) and accumulators (C, R) of each hard sample, whose
    q(Y) share one ``ExpectedParams``; ``s_global`` is ``phi.T @ phi``."""
    expected = vbpoint.ExpectedParams.from_model(model)
    for n, f in zip(counts, fsums):
        stats = SuffStats(n=n, f=f, s=s_global)
        posts = vbpoint.update_q_y(stats, expected)
        yield stats, posts, vbpoint.accumulators(stats, posts)


def _hard_elbo(sample, model, tau0):
    """Point-variant lower bound of one ``_sample_accumulators`` sample: the
    sample's block and the cluster terms of a hard assignment, whose
    q(theta) entropy is zero."""
    n = sample[0].n
    return vbpoint._bound(
        vbpoint._block_terms(sample, model.vtilde, model.w, model.logdet_w()),
        vbpoint._cluster_terms(n, 0.0, vbpoint.update_q_pi(n, tau0), tau0))[0]


def _merge_pairs(r, threshold):
    """Column pairs ``i < j`` with cosine above ``threshold``, in descending
    order of ``(cos, i, j)``."""
    gram = r.T @ r
    # The squared norms are its diagonal: no N x M temporary.
    norms = np.sqrt(gram.diagonal())
    norms = np.where(norms > 0, norms, 1.0)
    cos = gram / np.outer(norms, norms)
    i, j = np.triu_indices(r.shape[1], 1)
    cos = cos[i, j]
    keep = cos > threshold
    i, j, cos = i[keep], j[keep], cos[keep]
    order = np.lexsort((j, i, cos))[::-1]
    return list(zip(i[order].tolist(), j[order].tolist()))


def prune_and_merge(resp, config, refresh, extra_pairs=(), *, score):
    """Speaker-count heuristics: drop empty clusters, merge duplicates.

    Candidate restructures are gated one at a time by ``score``:
    ``score(r)`` must return the bound at responsibilities ``r`` with the
    parameters held, and ``score(r, (i, j))`` the same for ``r`` with its
    columns ``i < j`` merged into column ``i``.  A candidate is kept if its
    score does not drop more than ``elbo_tol`` relative to the current
    structure's score.  ``extra_pairs`` adds merge candidates beyond the
    column-cosine rule: pairs of column indices of ``r`` (e.g. clusters
    with near-identical speaker posteriors), tried while both columns are
    unmerged.

    ``refresh(r)`` is called once, on the final structure, if a candidate
    was kept, and returns its state; ``run_adaptation`` passes the
    structure's reduction, from which the next iteration's sweep starts.
    That sweep starts from the state the score scores (q(Y) and q(pi)
    refit under the held parameters) and then only ascends, so the bound
    it records is at least the score plus terms that do not depend on
    ``r``: a kept restructure never ends below the current structure's
    score, less ``elbo_tol``.

    Returns ``(resp, score, state, changed)``: the final structure, its
    score and the state ``refresh`` returned for it, or
    ``(resp, score(resp.r), None, False)`` if nothing was kept.
    """
    r = resp.r
    counts = r.sum(axis=0)
    keep = counts >= config.prune_threshold
    keep[np.argmax(counts)] = True  # the heaviest column always stays
    # and so does each row's heaviest, if the kept ones hold none of its mass
    keep[np.argmax(r[r @ keep == 0], axis=1)] = True

    def holds(new, old):
        return new >= old - config.elbo_tol * max(1.0, abs(old))

    cur, cur_score = r, score(r)
    # Each column is named by the set of original columns it holds, so a
    # rejected pair is not retried within this call and ``extra_pairs``
    # names a column for as long as it holds its original column alone.
    names = [frozenset((i,)) for i in range(r.shape[1])]
    if not keep.all():
        cand = cur[:, keep]
        cand /= cand.sum(axis=1, keepdims=True)
        cand_score = score(cand)
        if holds(cand_score, cur_score):
            cur, cur_score = cand, cand_score
            names = [name for name, k in zip(names, keep) if k]

    # Greedy pairwise merging.  The pairs are listed afresh only after a
    # merge, since a rejection leaves ``cur`` as it was.
    tried = set()
    while True:
        pairs = _merge_pairs(cur, config.merge_threshold)
        column = {name: i for i, name in enumerate(names)}
        for a, b in extra_pairs:
            i, j = column.get(frozenset((a,))), column.get(frozenset((b,)))
            if i is not None and j is not None and i != j:
                pairs.append((min(i, j), max(i, j)))
        for i, j in pairs:
            key = frozenset((names[i], names[j]))
            if key in tried:
                continue
            cand_score = score(cur, (i, j))
            if holds(cand_score, cur_score):
                cand = np.delete(cur, j, axis=1)
                cand[:, i] = cur[:, i] + cur[:, j]
                cur, cur_score = cand, cand_score
                names[i] |= names.pop(j)
                break
            tried.add(key)
        else:  # no pair merged
            break

    if cur is r:
        return resp, cur_score, None, False
    return Responsibilities(r=cur), cur_score, refresh(cur), True


# Pairs whose differences _closest_posterior_pairs holds at once.
_PAIR_CHUNK = 1024


def _closest_posterior_pairs(ybar, n_pairs=6):
    """Column-index pairs ``i < j`` of the clusters with the closest
    posterior means, in ascending order of ``(distance, i, j)``.  The
    differences are formed ``_PAIR_CHUNK`` pairs at a time, so the working
    memory is O(M^2) and not O(M^2 n_y).  Only the pairs no farther apart
    than the ``n_pairs``-th closest are sorted; every tie at that cutoff is
    among them, so the order is that of sorting all pairs."""
    i, j = np.triu_indices(ybar.shape[0], 1)
    dist = np.empty(i.size)
    for start in range(0, i.size, _PAIR_CHUNK):
        chunk = slice(start, start + _PAIR_CHUNK)
        diff = ybar[i[chunk]] - ybar[j[chunk]]
        # One dot product per pair, rounded as np.linalg.norm of a vector is.
        dist[chunk] = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    if n_pairs < dist.size:
        keep = dist <= np.partition(dist, n_pairs - 1)[n_pairs - 1]
        i, j, dist = i[keep], j[keep], dist[keep]
    order = np.lexsort((j, i, dist))[:n_pairs]
    return list(zip(i[order].tolist(), j[order].tolist()))


@dataclass(frozen=True)
class _Reduced:
    """Responsibilities and the raw statistics of the unlabelled set under
    them, reduced once by ``accumulate_stats``.  The statistics are
    computed here from the read-only ``r`` and neither field can be
    reassigned, so the pair cannot go stale."""

    resp: Responsibilities
    phi: InitVar[np.ndarray]
    s_phi: InitVar[np.ndarray]
    stats: SuffStats = field(init=False)

    def __post_init__(self, phi, s_phi):
        object.__setattr__(self, "stats",
                           accumulate_stats(self.resp.r, phi, s=s_phi))


class _FixedBound:
    """The prune/merge score: the bound terms of the unlabelled block that
    depend on its responsibilities r, at r, with the parameters held and
    q(Y), q(pi) refit at kappa = 1.

    The terms are the data term, lnP(Y), -lnq(Y), lnP(theta|pi), lnP(pi),
    -lnq(pi) and -lnq(theta).  With A = E[Vt^T W Vt] = Vtbar^T Wbar Vtbar + u
    and the refit q(y_i) (L_i = I + n_i A_yy, ybar_i = L_i^-1 b_i with
    b_i = Vbar^T Wbar (f_i - n_i mubar) - n_i u_ymu, the right-hand side of
    ``vbpoint.update_q_y``), the data term's tr(Vt^T W C) - 1/2 tr(A R) and
    the q(Y) terms of cluster i add up to

        c_i = 1/2 b_i^T L_i^-1 b_i - 1/2 ln|L_i| + f_i^T Wbar mubar
              - 1/2 n_i A_mumu,

    and the three Dirichlet terms at q(pi) = Dir(n + tau0) to
    ln C(tau0 1_M) - ln C(n + tau0).  So

        score(r) = 1/2 N (E[ln|W|] - d ln 2pi) - 1/2 tr(Wbar S)
                   + sum_i c_i + ln C(tau0 1_M) - ln C(n + tau0) + H(r).

    ``score(r)`` evaluates this from the statistics of ``r``;
    ``score(r, (i, j))`` scores ``r`` with columns i < j merged from the
    statistics of ``r`` alone: the merged n and f are column sums, c of the
    merged column is one q(y) row on the shared eigenbasis of A_yy, the
    Dirichlet terms cost O(M) and the merged column's entropy O(N).
    b_i, A_yy = G and the eigenbasis of G are those of the variant's
    ``ExpectedParams`` of the held parameters, ``expected``.

    ``reduce(r)`` reduces each matrix once, whether the score or the
    ``refresh`` of a kept structure asks first; the kept structure's
    reduction is where the next iteration's sweep starts.  Only the first
    matrix's reduction and terms and the latest other one's are kept,
    which is all ``prune_and_merge`` asks for again: it moves on from the
    current structure, or back to the first from a rejected prune.
    """

    def __init__(self, variant, params, reduced):
        self.expected = ex = variant.expected(params)
        self.w_mu = ex.w @ ex.mu
        self.a_mumu = ex.mu @ self.w_mu + (0.0 if ex.u is None else ex.u[-1, -1])
        self.tau0 = variant.hyper.tau0
        n, d = variant.phi.shape
        self.const = 0.5 * n * (ex.ln_w - d * LOG2PI) \
            - 0.5 * np.sum(ex.w * variant.s_phi)
        self.variant = variant
        # id(r) -> [reduction, per-column terms or None], for the first r
        # and the latest other one.  The reduction holds r, so no id is
        # reused while it is stored.
        self._first = id(reduced.resp.r)
        self._entries = {self._first: [reduced, None]}

    def _entry(self, r):
        entry = self._entries.get(id(r))
        if entry is None:
            # Drop the latest other r first: it may be the last reference.
            self._entries = {self._first: self._entries[self._first]}
            entry = self._entries[id(r)] = [
                self.variant.reduce(Responsibilities(r=r)), None]
        return entry

    def reduce(self, r):
        return self._entry(r)[0]

    def _clusters(self, n, f):
        """(M,) the terms c_i of clusters with counts n and sums f."""
        b = self.expected.rhs(n, f)
        posts = SpeakerPosteriors.from_pair(None, n, b, eig=self.expected.eig_g)
        return 0.5 * (b * posts.ybar).sum(axis=1) - 0.5 * posts.logdet_prec() \
            + f @ self.w_mu - 0.5 * self.a_mumu * n

    def _dirichlet(self, n):
        return vbpoint._ln_dirichlet_prior(n.shape[0], float(self.tau0)) \
            - vbpoint._ln_dirichlet_c(n + self.tau0)

    def __call__(self, r, merge=None):
        entry = self._entry(r)
        stats = entry[0].stats
        if entry[1] is None:
            c = self._clusters(stats.n, stats.f)
            h = vbpoint._neg_xlogx(r).sum(axis=0)
            dirichlet = self._dirichlet(stats.n)
            entry[1] = (c, h, dirichlet,
                        self.const + c.sum() + dirichlet + h.sum())
        c, h, dirichlet, total = entry[1]
        if merge is None:
            return total
        i, j = merge
        n = np.delete(stats.n, j)
        n[i] = stats.n[i] + stats.n[j]
        c_ij = self._clusters(n[i:i + 1], (stats.f[i] + stats.f[j])[None])[0]
        h_ij = vbpoint._neg_xlogx(r[:, i] + r[:, j]).sum()
        return total + (c_ij - c[i] - c[j]) + (h_ij - h[i] - h[j]) \
            + (self._dirichlet(n) - dirichlet)


# What one sweep hands the adaptation loop: the params for the next sweep,
# the new responsibilities with their statistics (``_Reduced``), q(pi), the
# bound and its terms, and the (M, n_y) q(Y) means that rank extra merge
# candidates.
_Sweep = namedtuple("_Sweep", "params reduced dirichlet elbo terms means")


class _Variant:
    """The sweep both inference variants share, around the step of each.

    ``sweep(params, stats, dirichlet, kappa)`` makes every update of one
    iteration and returns them as a ``_Sweep``.  It runs the shared E-step
    (both q(Y) blocks, q(theta), q(pi), the accumulators) from ``stats``,
    the unlabelled ``SuffStats`` under the last responsibilities (the sweep
    needs no more of them), on ``expected(params)``, the
    ``vbpoint.ExpectedParams`` of ``params``; then
    ``step(params, block, block_d, resp, dirichlet, kappa)``, which makes
    the variant's updates and evaluates the bound, and returns the params
    for the next sweep, ``(elbo, terms)`` and the means; then the tau0
    step, with ``hyper_opt_tau0`` and M >= 2.  The variant alone holds the
    run's current ``Hyperparams``, ``hyper``: each hyperparameter step
    rebinds it with ``dataclasses.replace``, which checks the learned
    values, starting from the latest one.
    ``finish(params, report)`` stores the adapted model in the report.

    The parameter steps read the labelled block only through the pooled
    statistics S' = Phi^T Phi + eta S_d (``s_p``, fixed over the run) and
    C' = C + eta C_d, R' = R + eta R_d, N' = E[N] + eta N_d (``pooled``).
    """

    def __init__(self, dataset, hyper, config):
        self.phi = dataset.phi
        self.hyper = hyper
        self.config = config
        self.s_phi = self.phi.T @ self.phi
        self.stats_d = _labelled_stats(dataset)
        self.s_p = self.s_phi + hyper.eta * self.stats_d.s
        self.eta_n_d = hyper.eta * self.stats_d.n_total

    def reduce(self, resp):
        """``resp`` with the raw statistics of the unlabelled set under it."""
        return _Reduced(resp, self.phi, self.s_phi)

    def pooled(self, stats, acc, acc_d):
        """``(C', R', N')`` of a sweep's ``stats``, ``acc`` and ``acc_d``."""
        (c, r), (c_d, r_d) = acc, acc_d
        eta = self.hyper.eta
        return c + eta * c_d, r + eta * r_d, stats.n_total + self.eta_n_d

    def sweep(self, params, stats, dirichlet, kappa):
        expected = self.expected(params)
        posts = vbpoint.update_q_y(stats, expected, kappa)
        posts_d = vbpoint.update_q_y(self.stats_d, expected, kappa)
        reduced = self.reduce(vbpoint.update_q_theta(
            self.phi, posts, expected, dirichlet, kappa))
        dirichlet = vbpoint.update_q_pi(reduced.stats.n, self.hyper.tau0, kappa)
        acc = vbpoint.accumulators(reduced.stats, posts)
        acc_d = vbpoint.accumulators(self.stats_d, posts_d)
        params, (elbo, terms), means = self.step(
            params, (reduced.stats, posts, acc), (self.stats_d, posts_d, acc_d),
            reduced.resp, dirichlet, kappa)
        if self.config.hyper_opt_tau0 and dirichlet.tau.shape[0] >= 2:
            self.hyper = replace(self.hyper, tau0=vbpoint.mstep_tau0(
                dirichlet.e_ln_pi, self.hyper.tau0))
        return _Sweep(params, reduced, dirichlet, elbo, terms, means)


class _Point(_Variant):
    """Point estimates: params are the ``SpldaModel``, re-estimated after
    the bound by closed-form M-steps and minimum-divergence
    re-standardization."""

    def __init__(self, dataset, hyper, config):
        super().__init__(dataset, hyper, config)
        # One independent, reproducible sampler stream per iteration.
        self.sampler_seeds = np.random.SeedSequence(config.seed)

    def step(self, model, block, block_d, resp, dirichlet, kappa):
        hyper, config = self.hyper, self.config
        bound = vbpoint.elbo_point(block, resp, dirichlet, model, hyper,
                                   block_d)
        stats, posts, acc = block
        means = posts.ybar
        if config.do_msteps:
            if config.sampler_k > 0:
                acc = self.sampled_accumulators(resp, model)
            mu, v, w = _mstep(self.s_p, *self.pooled(stats, acc, block_d[2]))
            if config.min_div:
                mu, v, (mu_y, t) = vbpoint.min_divergence(
                    [(posts, 1.0), (block_d[1], hyper.eta)], mu, v)
            model = SpldaModel(mu=mu, v=v, w=w)
            if config.min_div:
                # Extra merge candidates are the closest standardized means.
                means = vbpoint.standardize_posteriors(posts, mu_y, t).ybar
        return model, bound, means

    def sampled_accumulators(self, resp, model):
        """Mean of the (C, R) accumulators of ``sampler_k`` hard samples of
        ``resp``, or those of the sample with the highest lower bound for
        ``best_sample``, drawn from the next sampler stream."""
        counts, fsums = sampled_statistics(resp, self.phi, self.config.sampler_k,
                                           seed=self.sampler_seeds.spawn(1)[0])
        samples = _sample_accumulators(counts, fsums, self.s_phi, model)
        if self.config.sampler_strategy == "best_sample":
            # max keeps the first of tied samples, as argmax does
            samples = [max(samples, key=lambda smp: _hard_elbo(
                smp, model, self.hyper.tau0))]
        accs = [acc for *_, acc in samples]
        return (sum(c for c, _ in accs) / len(accs),
                sum(r for _, r in accs) / len(accs))

    expected = staticmethod(vbpoint.ExpectedParams.from_model)

    def finish(self, model, report):
        report.model = model


class _Bayes(_Variant):
    """Fully Bayesian: params are the posteriors ``(rowpost, wpost,
    alphapost)`` over the rows of [V | mu], W and the relevance
    precisions, updated inside every sweep before the bound; the
    hyperparameter steps follow it."""

    def step(self, params, block, block_d, resp, dirichlet, kappa):
        _, wpost, alphapost = params
        hyper, config = self.hyper, self.config
        c_p, r_p, n_p = self.pooled(block[0], block[2], block_d[2])
        rowpost = vbbayes.update_q_vtilde_rows(
            c_p, r_p, wpost, alphapost, hyper, kappa)
        alphapost = vbbayes.update_q_alpha(rowpost, hyper, kappa)
        wpost = vbbayes.update_q_wishart(
            self.s_p, c_p, r_p, rowpost, n_p, kappa)
        bound = vbbayes.elbo_bayes(
            block, resp, dirichlet, rowpost, alphapost, wpost, hyper, block_d)
        if config.hyper_opt_alpha:
            a, b = vbbayes.optimize_hyper_alpha(alphapost, hyper.a_alpha)
            self.hyper = replace(self.hyper, a_alpha=a, b_alpha=b)
        if config.hyper_opt_mu:
            mu0, beta = vbbayes.optimize_hyper_mu(
                rowpost, isotropic=np.size(hyper.beta) == 1)
            self.hyper = replace(self.hyper, mu0=mu0, beta=beta)
        return (rowpost, wpost, alphapost), bound, block[1].ybar

    @staticmethod
    def expected(params):
        rowpost, wpost, _ = params
        return rowpost.expected(wpost)

    def finish(self, params, report):
        rowpost, wpost, alphapost = params
        report.model = SpldaModel(mu=rowpost.mubar, v=rowpost.vbar, w=wpost.e_w)
        report.bayes_state = dict(rowpost=rowpost, wpost=wpost,
                                  alphapost=alphapost, hyper=self.hyper)


def _default_bayes_hyper(hyper, dataset):
    """``hyper`` with an unset ``mu0`` or ``beta`` filled from the data."""
    ref = dataset.phi_d if dataset.phi_d.shape[0] else dataset.phi
    if hyper.mu0 is None:
        hyper = replace(hyper, mu0=freeze(ref.mean(axis=0)))
    if hyper.beta is None:
        tr_cov = float(np.trace(np.atleast_2d(np.cov(ref.T)))) \
            if ref.shape[0] > 1 else 1.0
        hyper = replace(hyper, beta=1e-2 * ref.shape[1] / max(tr_cov, 1e-12))
    return hyper


def _start(dataset, model_init, hyper, config):
    """The start of a run, ``(variant, params, stats, dirichlet)``: the
    variant, its params at ``model_init`` (point masses for the Bayesian
    variant, whose unset ``mu0`` and ``beta`` are filled from the data),
    and the statistics and q(pi) of the initial responsibilities, which
    are not kept: the first sweep reads only their statistics."""
    if config.variant == "bayes":
        hyper = _default_bayes_hyper(hyper, dataset)
        rowpost = vbbayes.RowPosteriors.point_mass(model_init.vtilde)
        params = (rowpost, vbbayes.WishartPosterior.point_mass(model_init.w),
                  vbbayes.update_q_alpha(rowpost, hyper))
        variant = _Bayes(dataset, hyper, config)
    else:
        params, variant = model_init, _Point(dataset, hyper, config)
    stats = variant.reduce(init_responsibilities(
        dataset, model_init, config, tau0=hyper.tau0)).stats
    return variant, params, stats, vbpoint.update_q_pi(stats.n, hyper.tau0)


def _set_fields(obj, names):
    """``name=value`` of each dataclass field in ``names`` that ``obj`` has
    away from its default (the field's class attribute)."""
    return [f"{name}={getattr(obj, name)!r}" for name in names
            if not np.array_equal(getattr(obj, name), getattr(type(obj), name))]


def run_adaptation(dataset, model_init, hyper, config):
    """Adapt an SPLDA model on a mixed labelled/unlabelled dataset.

    Executes: init -> loop { q(Y), q(theta) and q(pi) at the current kappa,
    then for the Bayesian variant q([V | mu]), q(alpha) and q(W); ELBO;
    optional point M-steps or Bayesian hyperparameter steps; optional tau0
    step; periodic prune/merge at kappa = 1; kappa growth } until, at
    kappa = 1, the relative ELBO change falls below ``elbo_tol``.  The
    Bayesian report carries the final hyperparameters as the ``"hyper"``
    entry of ``bayes_state``.

    Without unlabelled i-vectors the run is ``train_supervised`` from
    ``model_init`` on the labelled set, which reads only ``max_iter`` and
    ``elbo_tol``: any other setting away from its default, including
    ``variant="bayes"``, ``eta`` and ``tau0``, raises a ``ValueError``.
    Without labelled i-vectors ``eta`` weights nothing, so an ``eta`` away
    from its default raises one too.
    """
    bayes_only = _set_fields(hyper, _BAYES_ONLY_HYPER)
    if config.variant == "point" and bayes_only:
        raise ValueError(f"Hyperparams.{bayes_only[0]} is only read by the "
                         "bayes variant")
    if dataset.d != model_init.d:
        raise ValueError(
            f"model dimension {model_init.d} does not match data {dataset.d}")
    if hyper.mu0 is not None and np.shape(hyper.mu0) != (dataset.d,):
        raise ValueError(f"Hyperparams.mu0 has shape {np.shape(hyper.mu0)}; "
                         f"expected ({dataset.d},), one entry per dimension")
    if hyper.beta is not None and np.size(hyper.beta) not in (1, dataset.d):
        raise ValueError(f"Hyperparams.beta has shape {np.shape(hyper.beta)}; "
                         f"expected 1 or {dataset.d} entries")
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
    if dataset.phi_d.shape[0] == 0 and hyper.eta != type(hyper).eta:
        raise ValueError(f"Hyperparams.eta={hyper.eta!r} has no effect "
                         "without labelled i-vectors")
    return _adapt(*_start(dataset, model_init, hyper, config))


def sweep_m(dataset, model_init, hyper, config, m_values):
    """Model selection over the initial cluster count.

    Runs ``run_adaptation`` once per value in ``m_values`` and returns
    ``(best_report, reports)`` where ``best_report`` maximizes the final
    lower bound.  Every run uses the same seed and settings apart from
    ``m_init``.
    """
    configs = [replace(config, m_init=m) for m in m_values]  # checks each m
    if not configs:
        raise ValueError("m_values must be non-empty")
    reports = [run_adaptation(dataset, model_init, hyper, cfg)
               for cfg in configs]
    return max(reports, key=lambda rep: rep.elbo_trace[-1]), reports


def _adapt(variant, params, stats, dirichlet):
    """The coordinate ascent both variants share, from the params, initial
    statistics and q(pi) of ``_start``.  Each iteration's sweep makes all
    of its updates; the loop records the sweep's bound, tries a
    score-gated prune/merge, grows kappa and applies the stopping rule."""
    report, config = RunReport(), variant.config
    kappa = config.kappa0 if config.anneal else 1.0
    since_restructure = 0

    for it in range(config.max_iter):
        # The sweep reads only the statistics of the last responsibilities,
        # so nothing holds those through it.
        swept = bound = kept = None
        swept = variant.sweep(params, stats, dirichlet, kappa)
        params, dirichlet, elbo = swept.params, swept.dirichlet, swept.elbo
        stats = swept.reduced.stats

        report.elbo_trace.append(elbo)
        report.m_trace.append(stats.n.shape[0])
        report.kappa_trace.append(kappa)
        if not np.isfinite(elbo):
            raise FloatingPointError(
                f"non-finite ELBO at iteration {it}: {elbo!r}")

        restructured = False
        # An attempt needs a later iteration to sweep the new structure.
        if (config.prune_merge and since_restructure >= config.prune_every
                and kappa == 1.0 and it + 1 < config.max_iter):

            bound = _FixedBound(variant, params, swept.reduced)
            # A kept structure is handed on with its reduction; the next
            # iteration's sweep starts from the state its score scores.
            _, _, kept, restructured = prune_and_merge(
                swept.reduced.resp, config, bound.reduce,
                extra_pairs=_closest_posterior_pairs(swept.means),
                score=bound)
            since_restructure = 0
            if restructured:
                report.diagnostics.append(
                    f"iter {it}: restructured M {stats.n.shape[0]} -> "
                    f"{kept.stats.n.shape[0]}")
                stats = kept.stats
                dirichlet = vbpoint.update_q_pi(stats.n, variant.hyper.tau0)

        if kappa < 1.0:
            kappa = min(kappa * config.kappa_growth, 1.0)
        elif not restructured and _converged(report.elbo_trace,
                                             config.elbo_tol):
            report.converged = True
            break
        else:  # count the iterations at kappa = 1
            since_restructure += 1

    # ties: lowest index wins
    report.labels = np.argmax(swept.reduced.resp.r, axis=1)
    report.elbo_terms = swept.terms
    variant.finish(params, report)
    return report


def _mstep(s_p, c_p, r_p, n_p):
    """The point M-steps from pooled statistics: ``(mu, v, w)``, [V | mu]
    then W."""
    vtilde = freeze(vbpoint.mstep_V(c_p, r_p))  # a model may hold views of it
    return vtilde[:, -1], vtilde[:, :-1], \
        vbpoint.mstep_W(s_p, c_p, r_p, vtilde, n_p)


def train_supervised(phi_d, labels_d, n_y, model_init=None, max_iter=200,
                     elbo_tol=1e-7, seed=0):
    """Supervised maximum-likelihood SPLDA (EM on hard labels).

    Used to build the initial model before adaptation; requires N_d > d.
    ``seed`` draws the random initial model, so it is rejected away from
    its default when ``model_init`` is given.
    """
    phi_d = np.atleast_2d(check_array(phi_d, "phi_d"))
    n_d, d = phi_d.shape
    check_settings(n_y=n_y, max_iter=max_iter, elbo_tol=elbo_tol, seed=seed)
    if model_init is not None and seed != 0:
        raise ValueError(f"seed={seed!r} has no effect with model_init")
    if n_d <= d:
        raise ValueError(f"need N_d > d for a valid W (N_d={n_d}, d={d})")
    data = Dataset(phi=np.zeros((0, d)), phi_d=phi_d, labels_d=labels_d)
    stats = _labelled_stats(data)
    if model_init is None:
        rng = np.random.default_rng(seed)
        mu = phi_d.mean(axis=0)
        cov = np.cov(phi_d.T) + 1e-8 * np.eye(d)
        scale = np.sqrt(np.trace(cov) / d)
        model = SpldaModel(
            mu=freeze(mu), w=np.linalg.inv(cov),
            v=freeze(scale * rng.standard_normal((d, n_y)) / np.sqrt(n_y)))
    elif (model_init.d, model_init.n_y) != (d, n_y):
        raise ValueError(f"model_init has d={model_init.d}, n_y={model_init.n_y}; "
                         f"expected d={d} (the data), n_y={n_y}")
    else:
        model = model_init

    report = RunReport()
    for it in range(max_iter):
        posts = vbpoint.update_q_y(stats, model)
        c_d, r_d = acc = vbpoint.accumulators(stats, posts)
        elbo = sum(vbpoint._block_terms(
            (stats, posts, acc), model.vtilde, model.w, model.logdet_w()))
        report.elbo_trace.append(float(elbo))
        report.m_trace.append(data.m_d)
        report.kappa_trace.append(1.0)
        mu, v, w = _mstep(stats.s, c_d, r_d, stats.n_total)
        mu, v, _ = vbpoint.min_divergence([(posts, 1.0)], mu, v)
        model = SpldaModel(mu=mu, v=v, w=w)
        if _converged(report.elbo_trace, elbo_tol):
            report.converged = True
            break
    report.labels = data.labels_d.copy()
    report.model = model
    return report
