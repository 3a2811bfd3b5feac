"""The benchmark's workloads: how each one is generated from a seed, run as
a batch job and checked.

Every workload draws ``PROBLEMS`` independent synthetic problems from its
seed and makes complete passes over them, so one unlucky draw moves a run's medians
less.  A job is one ``train`` or one ``adapt`` call; ``check`` is the
correctness gate applied to each adaptation.
"""

import contextlib
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spldavb.adapt
import spldavb.cli
from spldavb import fileio
from spldavb.model import Dataset
from spldavb.oracles import clustering_metrics
from spldavb.synth import SynthSpec, generate, split_dataset
from spldavb.vbpoint import Hyperparams

# Largest relative ELBO drop accepted at kappa = 1 between two iterations
# with no restructure, when elbo_tol is smaller (acceptance tests 01/02).
MIN_DROP_TOL = 1e-8
SUP_FRACTION = 0.5
EIGENVOICE_SCALE = 3.0  # speaker/noise scale ratio of acceptance test 01
# The library's supervised fit stops on convergence, so its work varies
# several-fold between problems; the API workloads fix it instead.  `splda
# train` has no such options, so ahc-cli trains to convergence.
API_TRAIN = dict(max_iter=20, elbo_tol=0.0)
PROBLEMS = 12  # independent problems drawn from each seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    d: int
    n_y: int  # true speaker-factor dimension
    n_y_fit: int  # speaker-factor dimension of the trained and adapted model
    speakers: int
    per_speaker: int | tuple  # fixed count or inclusive (low, high) range
    config: dict  # RunConfig keywords except seed
    ari_floor: float = 0.0  # an adaptation below this ARI counts as failed
    via_cli: bool = False  # run `splda train` / `splda adapt` on text files


WORKLOADS = (
    Workload(
        name="ahc-cli",
        why="splda train + splda adapt on text files with AHC init: pairwise "
            "scoring dominates adapt_s; the only workload through fileio/cli; "
            "no prune/merge, no Bayesian updates",
        d=60, n_y=20, n_y_fit=20, speakers=70, per_speaker=10,
        config=dict(variant="point", init_method="ahc", m_init=35),
        ari_floor=0.9, via_cli=True),
    Workload(
        name="point-many",
        why="point variant, random init, 150+150 speakers, fixed 8 sweeps: "
            "per-speaker posterior work dominates; no scoring, no prune/merge",
        d=60, n_y=20, n_y_fit=20, speakers=300, per_speaker=(4, 16),
        config=dict(variant="point", init_method="random_y", m_init=150,
                    elbo_tol=0.0, max_iter=8),
        ari_floor=0.45),
    Workload(
        name="bayes-prune",
        why="Bayesian variant with annealing and prune/merge from 3x too many "
            "clusters: speculative refresh sweeps in prune_and_merge dominate",
        d=40, n_y=6, n_y_fit=12, speakers=40, per_speaker=(5, 25),
        config=dict(variant="bayes", init_method="random_y", anneal=True,
                    prune_merge=True, m_init=60, max_iter=40),
        ari_floor=0.5),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def problem_seeds(seed):
    """Independent seeds of a workload's problems, derived from ``seed``."""
    children = np.random.SeedSequence(seed).spawn(PROBLEMS)
    return [int(c.generate_state(1)[0]) for c in children]


@dataclass
class Problem:
    seed: int
    dataset: Dataset
    truth: np.ndarray  # true speaker of each unlabelled row
    workdir: Path | None  # text inputs and outputs of the CLI jobs

    @property
    def n_vectors(self):
        return self.dataset.phi.shape[0] + self.dataset.phi_d.shape[0]


def setup(workload, seed, workdir):
    """Generate and split one problem; for the CLI also write its inputs."""
    per = workload.per_speaker
    phi, labels, _ = generate(SynthSpec(
        d=workload.d, n_y=workload.n_y, m_true=workload.speakers,
        per_speaker=tuple(per) if isinstance(per, list) else per,
        eigenvoice_scale=EIGENVOICE_SCALE, seed=seed))
    dataset, truth = split_dataset(phi, labels, SUP_FRACTION, seed=seed)
    if not workload.via_cli:
        return Problem(seed, dataset, truth, None)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    fileio.write_matrix(workdir / "unsup.ivec", dataset.phi)
    fileio.write_matrix(workdir / "sup.ivec", dataset.phi_d)
    fileio.write_labels(workdir / "sup.labels", dataset.labels_d)
    with open(workdir / "adapt.cfg", "w") as fh:
        for key, value in {**workload.config, "seed": seed}.items():
            fh.write(f"{key} = {str(value).lower() if isinstance(value, bool) else value}\n")
    return Problem(seed, dataset, truth, workdir)


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = spldavb.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"splda {argv[0]} exited {code}: {out.getvalue()!r}")


def train(workload, problem):
    """Supervised fit; returns the initial model (a file path for the CLI)."""
    ds = problem.dataset
    if not workload.via_cli:
        return spldavb.adapt.train_supervised(
            ds.phi_d, ds.labels_d, workload.n_y_fit, seed=problem.seed,
            **API_TRAIN).model
    wd = problem.workdir
    _cli(["train", "--ivectors", wd / "sup.ivec", "--labels", wd / "sup.labels",
          "--ny", workload.n_y_fit, "--seed", problem.seed,
          "--out-model", wd / "init.model"])
    return wd / "init.model"


def adapt(workload, problem, model):
    """One adaptation; returns the RunReport, or None for the CLI (whose
    results are in the problem's work directory)."""
    if not workload.via_cli:
        config = spldavb.adapt.RunConfig(**workload.config, seed=problem.seed)
        return spldavb.adapt.run_adaptation(
            problem.dataset, model, Hyperparams(), config)
    wd = problem.workdir
    _cli(["adapt", "--model", model, "--sup-ivectors", wd / "sup.ivec",
          "--sup-labels", wd / "sup.labels", "--unsup-ivectors", wd / "unsup.ivec",
          "--config", wd / "adapt.cfg", "--out-model", wd / "adapted.model",
          "--out-labels", wd / "adapted.labels", "--out-report", wd / "adapted.report"])
    return None


@dataclass
class Outcome:
    elbo: list
    kappa: list
    m: list
    restructured: set  # iterations after which the clusters were restructured
    labels: np.ndarray


_RESTRUCTURED = re.compile(r"iter (\d+): restructured")


def outcome(problem, report):
    """What an adaptation produced, from its report or the CLI's files.

    For the CLI this reads the adapted model back, so a model file that
    ``fileio.read_model`` cannot parse makes this raise.
    """
    if report is not None:
        notes = report.diagnostics
        return Outcome(list(report.elbo_trace), list(report.kappa_trace),
                       list(report.m_trace), _restructures(notes), report.labels)
    wd = problem.workdir
    fileio.read_model(wd / "adapted.model")
    rows, notes = [], []
    for line in (wd / "adapted.report").read_text().splitlines():
        if line.startswith("# note "):
            notes.append(line[len("# note "):])
        elif not line.startswith("#"):
            rows.append(line.split())
    return Outcome([float(r[1]) for r in rows], [float(r[3]) for r in rows],
                   [int(r[2]) for r in rows], _restructures(notes),
                   fileio.read_labels(wd / "adapted.labels"))


def _restructures(notes):
    return {int(m.group(1)) for m in map(_RESTRUCTURED.match, notes) if m}


def quality(problem, out):
    """End-to-end quality of one adaptation against the synthetic truth."""
    m_true = np.unique(problem.truth).size
    return dict(
        ari=clustering_metrics(out.labels, problem.truth).ari,
        elbo_final=out.elbo[-1],
        neg_elbo_per_vec=-out.elbo[-1] / problem.n_vectors,
        m_abs_err=abs(out.m[-1] - m_true),
    )


def check(workload, out, ari):
    """Correctness gate of one adaptation: the list of reasons it failed."""
    reasons = []
    elbo = np.asarray(out.elbo, dtype=float)
    if elbo.size == 0 or not np.isfinite(elbo).all():
        return ["non-finite or missing ELBO"]
    tol = max(spldavb.adapt.RunConfig(**workload.config).elbo_tol, MIN_DROP_TOL)
    for it in range(1, elbo.size):
        if out.kappa[it - 1] != 1.0 or out.kappa[it] != 1.0 \
                or (it - 1) in out.restructured:
            continue
        drop = (elbo[it - 1] - elbo[it]) / max(1.0, abs(elbo[it - 1]))
        if drop > tol:
            reasons.append(f"ELBO fell by {drop:.3g} (relative) at iteration {it}")
    if ari < workload.ari_floor:
        reasons.append(f"ARI {ari:.4f} below floor {workload.ari_floor}")
    return reasons
