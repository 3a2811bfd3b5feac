"""Every array that a frozen object of the package holds or caches is
read-only (``linalg.freeze``), and an array a caller hands to a public
constructor stays the caller's: writable and unchanged."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import spldavb
from spldavb import adapt, linalg, synth, vbpoint
from spldavb.adapt import RunConfig, run_adaptation
from spldavb.linalg import logdet_pd
from spldavb.model import Dataset, SpldaModel, accumulate_stats, center_stats
from spldavb.vbpoint import Hyperparams

from test_cluster_control import split_problem

MODULES = [importlib.import_module(f"spldavb.{info.name}")
           for info in pkgutil.iter_modules(spldavb.__path__)]


@pytest.fixture(scope="module")
def state():
    """One instance of every frozen class, from a point and a Bayesian run
    on a split problem, keyed by class name."""
    dataset, trained = split_problem(seed=1)
    point = run_adaptation(dataset, trained, Hyperparams(), RunConfig(
        m_init=4, max_iter=3))
    # A beta per dimension, so the mean-prior step returns an array beta.
    bayes = run_adaptation(dataset, trained, Hyperparams(beta=np.full(5, 0.5)),
                           RunConfig(m_init=4, variant="bayes", max_iter=3,
                                     hyper_opt_mu=True))
    var, params, stats, dirichlet = adapt._start(
        dataset, trained, Hyperparams(), RunConfig(m_init=4))
    swept = var.sweep(params, stats, dirichlet, 1.0)
    rowpost, wpost, alphapost = (bayes.bayes_state[key] for key in (
        "rowpost", "wpost", "alphapost"))
    expected = rowpost.expected(wpost)
    return {
        "SpldaModel": point.model,
        "Dataset": dataset,
        "SuffStats": center_stats(swept.reduced.stats, trained.mu),
        "Hyperparams": bayes.bayes_state["hyper"],
        "RunConfig": RunConfig(init_method="oracle", oracle_labels=[0, 1]),
        "Responsibilities": swept.reduced.resp,
        "GaussianRows": vbpoint.update_q_y(swept.reduced.stats, expected),
        "RowPosteriors": rowpost,
        "DirichletPosterior": swept.dirichlet,
        "AlphaPosterior": alphapost,
        "WishartPosterior": wpost,
        "ExpectedParams": expected,
    }


FIELDS = [
    "SpldaModel.mu", "SpldaModel.v", "SpldaModel.w",
    "Dataset.phi", "Dataset.phi_d", "Dataset.labels_d",
    "SuffStats.n", "SuffStats.f", "SuffStats.s", "SuffStats.fbar",
    "Hyperparams.mu0", "Hyperparams.beta",
    "RunConfig.oracle_labels",
    "Responsibilities.r",
    "GaussianRows.mean", "GaussianRows.basis", "GaussianRows.group",
    "GaussianRows.s", "GaussianRows.logdet_basis",
    "DirichletPosterior.tau",
    "AlphaPosterior.b_prime",
    "WishartPosterior.e_w", "WishartPosterior.omega", "WishartPosterior.q",
    "WishartPosterior.k",
    "ExpectedParams.mu", "ExpectedParams.v", "ExpectedParams.w",
    "ExpectedParams.u",
]
# Arrays derived on first use and kept.
CACHED = [
    "GaussianRows._s_inv", "GaussianRows._onehot", "GaussianRows._own",
    "GaussianRows._flat_basis", "GaussianRows.e_yy_total",
    "RowPosteriors._e_vq_vq", "RowPosteriors._sigma_mu",
    "DirichletPosterior.e_ln_pi",
    "AlphaPosterior.e_alpha", "AlphaPosterior.e_ln_alpha",
    "ExpectedParams.wv", "ExpectedParams.g",
]


def _array(state, name):
    cls, attr = name.split(".")
    value = getattr(state[cls], attr)
    assert isinstance(value, np.ndarray) and value.size, name
    return value


@pytest.mark.parametrize("name", FIELDS + CACHED)
def test_in_place_write_raises(state, name):
    arr = _array(state, name)
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = arr


@pytest.mark.parametrize("index", [0, 1])
def test_shared_eigenbasis_is_read_only(state, index):
    arr = state["ExpectedParams"].eig_g[index]
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = arr


def test_every_array_field_of_every_frozen_class_is_listed():
    declared = {
        f"{cls.__name__}.{f.name}"
        for module in MODULES for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and "__dataclass_fields__" in vars(cls)
        and cls.__dataclass_params__.frozen
        for f in dataclasses.fields(cls) if "ndarray" in str(f.type)}
    assert declared == set(FIELDS)


def _caller_arrays():
    """Writable arrays a caller hands to the public constructors."""
    rng = np.random.default_rng(0)
    mu, v, phi, phi_d, mu0 = (rng.standard_normal(shape) for shape in (
        3, (3, 2), (5, 3), (4, 3), 3))
    return dict(mu=mu, v=v, w=np.eye(3), phi=phi, phi_d=phi_d,
                labels_d=np.array([0, 0, 1, 1]), mu0=mu0, beta=np.ones(3),
                oracle_labels=np.arange(5))


def _built_from(a):
    return [SpldaModel(mu=a["mu"], v=a["v"], w=a["w"]),
            Dataset(phi=a["phi"], phi_d=a["phi_d"], labels_d=a["labels_d"]),
            Hyperparams(mu0=a["mu0"], beta=a["beta"]),
            RunConfig(init_method="oracle", oracle_labels=a["oracle_labels"])]


def test_caller_arrays_stay_writable_and_unchanged():
    given = _caller_arrays()
    before = {name: arr.copy() for name, arr in given.items()}
    _built_from(given)
    for name, arr in given.items():
        assert arr.flags.writeable, name
        np.testing.assert_array_equal(arr, before[name])


def test_objects_hold_read_only_copies_of_caller_arrays():
    given = _caller_arrays()
    held = [getattr(obj, f.name) for obj in _built_from(given)
            for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), np.ndarray)]
    assert len(held) == len(given)
    for arr in held:
        assert not arr.flags.writeable
        assert not any(np.shares_memory(arr, mine) for mine in given.values())


@pytest.mark.parametrize("dtype", [bool, str, object])
@pytest.mark.parametrize("name", ["mu", "v", "w", "phi", "phi_d", "mu0", "beta",
                                  "oracle_labels"])
def test_caller_arrays_must_hold_real_numbers(name, dtype):
    # A float conversion would read True as 1.0 and "0.5" as 0.5.
    given = _caller_arrays()
    given[name] = given[name].astype(dtype)
    with pytest.raises(ValueError, match=f"^{name} must hold real numbers"):
        _built_from(given)


def test_read_only_array_keeps_its_identity():
    mu0 = np.zeros(3)
    mu0.flags.writeable = False
    hyper = Hyperparams(mu0=mu0, beta=1.0)
    assert hyper.mu0 is mu0
    assert dataclasses.replace(hyper, tau0=2.0).mu0 is mu0


def test_read_only_view_of_a_writable_array_is_copied():
    # The caller can still write the view's base, and such a write would
    # reach the checked prior.
    mu0 = np.zeros(3)
    view = mu0[:]
    view.flags.writeable = False
    hyper = Hyperparams(mu0=view, beta=1.0)
    mu0[0] = np.nan
    assert np.isfinite(hyper.mu0).all() and mu0.flags.writeable
    # A read-only view of a read-only array is kept.
    base = np.zeros(3)
    base.flags.writeable = False
    view = base[:]
    assert Hyperparams(mu0=view, beta=1.0).mu0 is view


def test_package_built_view_is_frozen_with_its_base():
    # _mstep's vtilde is a transpose of a writable solve output; freezing
    # it freezes that output too, so a model holds its views uncopied.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    mu, v, w = adapt._mstep(100.0 * np.eye(5), rng.standard_normal((5, 3)),
                            a @ a.T + 3.0 * np.eye(3), 50.0)
    assert mu.base is v.base and not mu.base.flags.writeable
    model = SpldaModel(mu=mu, v=v, w=w)
    assert model.mu is mu and model.v is v


def test_package_built_arrays_are_not_copied(state, monkeypatch):
    # split_dataset hands its fresh subsets on read-only, and Dataset keeps
    # them; so do the statistics.
    frozen = []
    monkeypatch.setattr(synth, "freeze", lambda a: frozen.append(a) or linalg.freeze(a))
    phi, labels, _ = synth.generate(synth.SynthSpec(
        d=3, n_y=1, m_true=4, per_speaker=3, seed=0))
    dataset, _ = synth.split_dataset(phi, labels, 0.5)
    assert any(dataset.phi is a for a in frozen)
    assert any(dataset.phi_d is a for a in frozen)
    stats = accumulate_stats(state["Responsibilities"].r, state["Dataset"].phi)
    assert dataclasses.replace(stats).n is stats.n


def test_doubled_w_is_a_new_model_not_a_stale_log_det():
    # Doubling W in place used to keep the old log|W|, and a run from that
    # model started at another bound than one from a fresh model.
    dataset, trained = split_problem(seed=1)
    with pytest.raises(ValueError, match="read-only"):
        trained.w *= 2.0
    doubled = dataclasses.replace(trained, w=2.0 * trained.w)
    assert doubled.logdet_w() == logdet_pd(doubled.w)
    config = RunConfig(m_init=4, max_iter=2)
    fresh = SpldaModel(mu=trained.mu.copy(), v=trained.v.copy(),
                       w=2.0 * trained.w)
    assert run_adaptation(dataset, doubled, Hyperparams(), config).elbo_trace \
        == run_adaptation(dataset, fresh, Hyperparams(), config).elbo_trace


def test_checked_prior_cannot_be_made_non_finite():
    hyper = Hyperparams(mu0=np.zeros(3), beta=1.0)
    with pytest.raises(ValueError, match="read-only"):
        hyper.mu0[0] = np.nan
    assert np.isfinite(hyper.mu0).all()
