"""Working-memory budgets, in full-size arrays: tracemalloc peaks in units
of the N x M float64 responsibility matrix or the N x N pair scores.

numpy reports its buffers to tracemalloc, so a peak counts every array a
call holds at once.  Each problem is sized so that the full-size arrays
dominate the N x d and M x d ones.
"""

import tracemalloc

import numpy as np
import pytest

from spldavb import adapt
from spldavb.adapt import RunConfig, init_responsibilities, run_adaptation
from spldavb.model import Dataset
from spldavb.synth import SynthSpec, generate
from spldavb.vbpoint import Hyperparams
from splda_oracles import closest_pairs_oracle


def peak_bytes(f, *args):
    """Peak traced allocation of ``f(*args)``, its result included."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unlabelled_problem(d, m_true, per_speaker):
    """An unlabelled set of ``m_true * per_speaker`` i-vectors and the
    model that generated it."""
    phi, _, model = generate(SynthSpec(
        d=d, n_y=2, m_true=m_true, per_speaker=per_speaker,
        eigenvoice_scale=5.0, seed=0))
    return Dataset(phi=phi, phi_d=np.zeros((0, d)),
                   labels_d=np.zeros(0, int)), model


@pytest.mark.parametrize("variant", ["point", "bayes"])
def test_sweeps_hold_two_responsibility_arrays(variant):
    # A sweep holds the new log weights and their softmax; the last
    # responsibilities are dropped before it, as it reads only their
    # statistics.
    dataset, model = unlabelled_problem(d=8, m_true=100, per_speaker=30)
    n, m = dataset.phi.shape[0], 250
    peak = peak_bytes(run_adaptation, dataset, model, Hyperparams(), RunConfig(
        m_init=m, variant=variant, init_method="random_y", elbo_tol=0.0,
        max_iter=3))
    assert peak / (8 * n * m) <= 2.5


@pytest.mark.parametrize("variant", ["point", "bayes"])
def test_prune_and_merge_holds_no_array_per_accepted_candidate(
        monkeypatch, variant):
    # With prune_threshold = 0 no column is pruned, so each column a call
    # removes is one accepted merge.  Beyond the responsibilities it is
    # given, a call holds the current structure and the one before it (in
    # the score's cache), 2.12 arrays at the peak on this problem, whatever
    # the number of merges; ``_merge_pairs`` takes its column norms from
    # the Gram diagonal, not an N x M temporary.  It reduces each accepted
    # structure once: the refresh of the kept one reuses that reduction
    # and runs no sweep.
    dataset, model = unlabelled_problem(d=4, m_true=20, per_speaker=100)
    calls, reductions = [], []
    original, accumulate = adapt.prune_and_merge, adapt.accumulate_stats

    def counted(*args, **kwargs):
        reductions.append(1)
        return accumulate(*args, **kwargs)

    def measured(resp, *args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        reductions.clear()
        out = original(resp, *args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
        calls.append((resp.r.shape[1] - out[0].r.shape[1], len(reductions),
                      peak / resp.r.nbytes))
        return out

    monkeypatch.setattr(adapt, "prune_and_merge", measured)
    monkeypatch.setattr(adapt, "accumulate_stats", counted)
    tracemalloc.start()
    try:
        run_adaptation(dataset, model, Hyperparams(), RunConfig(
            m_init=60, variant=variant, init_method="random_y",
            prune_merge=True, prune_every=1, prune_threshold=0.0,
            elbo_tol=0.0, max_iter=3))
    finally:
        tracemalloc.stop()
    assert calls and calls[0][0] >= 3
    for merged, reduced, peak in calls:
        assert reduced == merged
        assert peak <= 2.5


def test_ahc_init_holds_two_score_arrays():
    # The pair scores, turned into distances in place, and the condensed
    # half that the linkage reads.
    dataset, model = unlabelled_problem(d=8, m_true=50, per_speaker=30)
    n = dataset.phi.shape[0]
    peak = peak_bytes(init_responsibilities, dataset, model,
                      RunConfig(m_init=50, init_method="ahc"))
    assert peak / (8 * n * n) <= 2.3


def test_closest_pairs_memory_is_quadratic_in_m_alone():
    # M = 1000 clusters have 499 500 pairs: their indices, distances and
    # order take about 16 MiB, while all their differences at n_y = 50
    # would take 190 MiB.
    ybar = np.random.default_rng(0).standard_normal((1000, 50))
    assert peak_bytes(adapt._closest_posterior_pairs, ybar) <= 40 * 2**20


def test_closest_pairs_over_several_chunks_match_oracle(monkeypatch):
    monkeypatch.setattr(adapt, "_PAIR_CHUNK", 7)
    rng = np.random.default_rng(14)
    for m in (2, 5, 9, 30):
        for n_y in (1, 4):
            ybar = rng.standard_normal((m, n_y))
            ybar[m // 2:m // 2 + 2] = ybar[0]  # ties at distance zero
            for n_pairs in (1, 6, 500):
                assert adapt._closest_posterior_pairs(ybar, n_pairs) \
                    == closest_pairs_oracle(ybar, n_pairs)
