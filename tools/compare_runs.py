"""Compare the adaptation runs of this checkout with those of another
revision, problem by problem.

Usage: python3 tools/compare_runs.py BASE_REV [--seed N ...] [--workload NAME ...]
                                     [--time K]

Run from the repository root.  BASE_REV's ``src/`` is exported with
``git archive`` into a temporary directory; this checkout's ``src/`` is
used as it stands in the working tree.  One subprocess per tree, with one
BLAS thread, runs the problems that each ``perfbench/workloads.py``
workload draws from ``--seed`` (default 1; given more than once, each
seed in turn) through the library: each
problem is trained as its workload trains it (``train_supervised`` to
convergence, as ``splda train`` does, for a CLI workload) and adapted by
``run_adaptation`` with the workload's ``RunConfig``.

For each workload it prints every ``RunReport`` field that differs between
the two trees, with the number of problems it differs on, the largest
relative difference of the ELBO traces, apart over the entries at
kappa = 1 and over the annealed ones at kappa < 1, and that of each
``elbo_terms`` entry (scaled by max(1, |term|)), and in each tree the
largest tracemalloc peak of one ``run_adaptation``: what the call
allocates at once, in MB.  It then prints, in each tree, each problem's
end-to-end quality as the benchmark gates it (``workloads.quality`` of
``workloads.outcome``): the ARI against the synthetic truth and
``neg_elbo_per_vec``, with their means over the problems, and the final M
and bound.  A CLI workload's
quality is that of its command-line run, which the benchmark measures.

A CLI workload's problems are also run through the command line, as the
benchmark runs them: ``splda train`` and ``splda adapt`` on text files,
each tree in its own temporary directory.  Every input and output file
that differs byte for byte between the two trees is printed.

The exit status is 1 when, on any seed, any field other than
``elbo_trace`` and ``elbo_terms`` differs (labels, the M and kappa traces,
diagnostics, convergence, the trained or adapted model, or a
``bayes_state`` array that both trees have) or when any CLI file differs.
``perfbench/`` is only read.

With ``--time K`` it times the two trees instead of comparing their
outputs.  For each workload one worker subprocess per tree, with one
BLAS thread, sets up and trains the workload's problems as above, trains
and adapts the first one once untimed, and then times the training (as
above: ``API_TRAIN``, or to convergence for a CLI workload) and
``run_adaptation`` of the problem it is sent.  Each of K rounds trains
and adapts every problem once in each tree, the two trees' turns at a
problem back to back and the tree that goes first alternating (ABBA); a
tree's pass is the sum of its times in the round.  It prints, per seed
and per workload, for ``run_adaptation`` and then for
``train_supervised``: each tree's median and quartiles per pass (and for
``run_adaptation`` its median minor page faults per pass, the
``ru_minflt`` the worker gains during those calls), the median over the
rounds of the ratio head / base with its 95 % bootstrap interval
(``ratio_interval``), and in how many rounds head was faster.  Last, per
workload and for each of the two, it claims a gain only when every
seed's interval lies wholly below 1.
"""

import argparse
import contextlib
import dataclasses
import io
import os
import pickle
import resource
import select
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Fields compared with ==; the ELBO trace and terms are compared in size.
EXACT = ("labels", "m_trace", "kappa_trace", "diagnostics", "converged",
         "trained", "model", "bayes_state")
# Seconds a --time worker may take to start (set up and train a workload's
# problems), to answer one pass, or to exit.
TIMING_TIMEOUT = 600
# Bootstrap resamples of the paired rounds, drawn with a fixed seed.
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0
# What --time times, in the order a worker reports it, before the page
# faults of the adaptation.
TIMED = ("run_adaptation", "train_supervised")


def _arrays(obj, prefix, out):
    """Flatten the dataclasses and dicts of ``obj`` into ``out``: name ->
    array (or None)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _arrays(value, f"{prefix}.{key}", out)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _arrays(getattr(obj, f.name), f"{prefix}.{f.name}", out)
    else:
        out[prefix] = None if obj is None else np.asarray(obj)


def _import_workloads(src):
    """Import the library at ``src`` and then ``perfbench/workloads.py``."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import spldavb
    if Path(src).resolve() not in Path(spldavb.__file__).resolve().parents:
        raise SystemExit(f"error: spldavb imported from {spldavb.__file__}")
    import workloads
    return workloads


def _train(workloads, name, problem):
    """Train ``problem`` of the workload ``name`` as its workload trains
    it: ``API_TRAIN`` through the library, or to convergence, as ``splda
    train`` does, for a CLI workload.  Returns the ``RunReport``."""
    from spldavb.adapt import train_supervised

    as_run = workloads.BY_NAME[name]
    ds = problem.dataset
    return train_supervised(
        ds.phi_d, ds.labels_d, as_run.n_y_fit, seed=problem.seed,
        **({} if as_run.via_cli else workloads.API_TRAIN))


def _trained_problems(workloads, name, seed):
    """Yield ``(workload, problem, trained)`` for each problem of the
    workload ``name`` drawn from ``seed``: the workload run through the
    library, and the problem trained as its workload trains it."""
    workload = dataclasses.replace(workloads.BY_NAME[name], via_cli=False)
    for pseed in workloads.problem_seeds(seed):
        problem = workloads.setup(workload, pseed, None)
        yield workload, problem, _train(workloads, name, problem).model


def _run_tree(src, seed, names, out):
    """Run every problem of the workloads ``names`` with the library at
    ``src``: pickle the outcomes, with each workload's largest
    ``run_adaptation`` peak, to ``out/runs.pkl``, and run each CLI
    workload's problems through the command line in ``out/cli``."""
    workloads = _import_workloads(src)
    out.mkdir(parents=True)
    results, peaks = {}, {}
    for name in names:
        as_run = workloads.BY_NAME[name]
        runs = results[name] = []
        peaks[name] = 0
        for workload, problem, trained in _trained_problems(workloads, name, seed):
            pseed = problem.seed
            tracemalloc.start()
            try:
                rep = workloads.adapt(workload, problem, trained)
                peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            flat = {}
            _arrays(rep.bayes_state, "bayes_state", flat)
            runs.append(dict(
                labels=rep.labels, m_trace=rep.m_trace,
                kappa_trace=rep.kappa_trace, diagnostics=rep.diagnostics,
                converged=rep.converged, elbo_trace=np.array(rep.elbo_trace),
                elbo_terms=dict(rep.elbo_terms),
                trained={k: getattr(trained, k) for k in ("mu", "v", "w")},
                model={k: getattr(rep.model, k) for k in ("mu", "v", "w")},
                bayes_state=flat))
            if as_run.via_cli:
                problem = workloads.setup(as_run, pseed, out / "cli" / name / str(pseed))
                workloads.adapt(as_run, problem, workloads.train(as_run, problem))
                rep = None
            outcome = workloads.outcome(problem, rep)
            runs[-1]["quality"] = dict(workloads.quality(problem, outcome),
                                       seed=pseed, m_final=outcome.m[-1])
    with open(out / "runs.pkl", "wb") as fh:
        pickle.dump((results, peaks), fh)


def _time_worker(src, seed, name):
    """Serve timed trainings and adaptations of the problems of the
    workload ``name`` with the library at ``src``.  After setting up and
    training them, and one untimed training and adaptation of the first,
    print "ready"; then, for each problem index read from stdin, train and
    adapt that problem and print the seconds ``run_adaptation`` and the
    training took and the minor page faults the adaptation caused."""
    workloads = _import_workloads(src)
    problems = list(_trained_problems(workloads, name, seed))
    # Both workers time on one CPU: in A/A runs, unpinned workers each kept
    # to their own CPU, and one tree read ~1 % slower in 9 of 10 rounds.
    if hasattr(os, "sched_setaffinity"):  # Linux only
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    _train(workloads, name, problems[0][1])
    workloads.adapt(*problems[0])
    print("ready", flush=True)
    for line in sys.stdin:
        workload, problem, trained = problems[int(line)]
        start = time.perf_counter()
        _train(workloads, name, problem)
        train_seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        workloads.adapt(workload, problem, trained)
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        print(seconds, train_seconds, faults, flush=True)


def ratio_interval(base, head):
    """``(low, high)``, the 95 % percentile-bootstrap interval of the median
    ratio head / base over paired rounds: the rounds, each a pair of
    passes, are resampled with replacement ``BOOTSTRAP_RESAMPLES`` times
    with a fixed seed, so the same passes always give the same interval."""
    ratios = np.asarray(head, dtype=float) / np.asarray(base, dtype=float)
    draws = np.random.default_rng(BOOTSTRAP_SEED).integers(
        ratios.size, size=(BOOTSTRAP_RESAMPLES, ratios.size))
    low, high = np.percentile(np.median(ratios[draws], axis=1), [2.5, 97.5])
    return float(low), float(high)


def _reply(proc, tree):
    """The next line ``proc`` prints, within ``TIMING_TIMEOUT`` seconds."""
    if not select.select([proc.stdout], [], [], TIMING_TIMEOUT)[0]:
        raise SystemExit(f"error: the {tree} timing worker timed out")
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"error: the {tree} timing worker exited")
    return line


def _print_timing(what, passes, n_problems, rounds, seed, faults=None):
    """Print each tree's median and quartiles of the seconds ``what`` took
    per pass (and its median minor page faults per pass, when given), and
    the median ratio head / base with its bootstrap interval; return the
    interval."""
    print(f"  {what} seconds per pass over {n_problems} problems, "
          f"{rounds} rounds, seed {seed}")
    for tree, seconds in passes.items():
        q1, median, q3 = np.percentile(seconds, [25, 50, 75])
        print(f"    {tree}: median {median:.4f}, quartiles {q1:.4f} .. {q3:.4f}"
              + (f"; median minor page faults {np.median(faults[tree]):.0f}"
                 if faults else ""))
    base, head = passes.values()
    low, high = ratio_interval(base, head)
    print(f"    head / base: median ratio {np.median(head / base):.4f}, "
          f"95 % bootstrap interval {low:.4f} .. {high:.4f}; "
          f"head faster in {int((head < base).sum())} of {rounds} rounds")
    return low, high


def _time_rounds(args, seed, names, trees, env, n_problems):
    """Time ``trees`` in ``args.time`` rounds per workload on the problems
    of ``seed``, one worker per tree, print the summary of each workload
    and return the bootstrap intervals of its adaptations and its
    trainings, by ``(name, TIMED entry)``.  A round trains and adapts every
    problem once in each tree, the two trees' turns at a problem back to
    back and the tree that goes first alternating (ABBA), so that both
    trees' passes see the same load on the machine."""
    intervals = {}
    for name in names:
        with contextlib.ExitStack() as stack:
            procs = {tree: stack.enter_context(subprocess.Popen(
                [sys.executable, __file__, args.base_rev, "--seed",
                 str(seed), "--workload", name, "--time", str(args.time),
                 "--child", str(src), "-"],
                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True)) for tree, src in trees.items()}
            for proc in procs.values():  # stop the workers on any error
                stack.callback(proc.kill)
            for tree, proc in procs.items():
                if _reply(proc, tree) != "ready\n":
                    raise SystemExit(f"error: the {tree} timing worker did not start")
            # Each round's sums, by what a worker reports and by tree.
            sums = {key: {tree: np.zeros(args.time) for tree in trees}
                    for key in (*TIMED, "faults")}
            for round_ in range(args.time):
                for problem in range(n_problems):
                    first = (round_ + problem) % 2
                    for tree in list(trees)[::-1 if first else 1]:
                        procs[tree].stdin.write(f"{problem}\n")
                        procs[tree].stdin.flush()
                        for key, value in zip(sums, _reply(procs[tree], tree).split()):
                            sums[key][tree][round_] += float(value)
            for tree, proc in procs.items():
                proc.stdin.close()
                if proc.wait(timeout=TIMING_TIMEOUT):
                    raise SystemExit(f"error: the {tree} timing worker failed")
        print(f"{name}:")
        for what in TIMED:
            intervals[name, what] = _print_timing(
                what, sums[what], n_problems, args.time, seed,
                sums["faults"] if what == "run_adaptation" else None)
    return intervals


def gain_claimed(intervals):
    """Whether the ratio intervals of every seed lie wholly below 1."""
    return all(high < 1.0 for _, high in intervals)


def _same(a, b):
    if isinstance(a, dict) or isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        a, b, equal_nan=a.dtype.kind == "f" and b.dtype.kind == "f")


def _compare(name, base, head):
    """Print the differences of one workload's runs; True if an exact
    field differs."""
    differs, one_sided = {}, set()
    elbo_rel, term_rel = {"kappa = 1": [], "kappa < 1": []}, {}
    for b, h in zip(base, head):
        shared = b["bayes_state"].keys() & h["bayes_state"].keys()
        one_sided |= b["bayes_state"].keys() ^ h["bayes_state"].keys()
        for run in (b, h):
            run["bayes_state"] = {k: run["bayes_state"][k] for k in shared}
        for field in EXACT + ("elbo_trace", "elbo_terms"):
            if not _same(b[field], h[field]):
                differs[field] = differs.get(field, 0) + 1
        n = min(b["elbo_trace"].size, h["elbo_trace"].size)
        eb, eh = b["elbo_trace"][:n], h["elbo_trace"][:n]
        rel = np.abs(eh - eb) / np.maximum(np.abs(eb), np.finfo(float).tiny)
        at_one = np.asarray(b["kappa_trace"][:n]) == 1.0
        elbo_rel["kappa = 1"] += rel[at_one].tolist()
        elbo_rel["kappa < 1"] += rel[~at_one].tolist()
        for term in b["elbo_terms"].keys() & h["elbo_terms"].keys():
            tb, th = b["elbo_terms"][term], h["elbo_terms"][term]
            term_rel[term] = max(term_rel.get(term, 0.0),
                                 abs(th - tb) / max(1.0, abs(tb)))
    print(f"{name}: {len(base)} problems")
    for field, count in differs.items():
        print(f"  differs: {field} on {count} of {len(base)}")
    if not differs:
        print("  every field ==")
    if one_sided:
        print(f"  bayes_state arrays in one tree only: {', '.join(sorted(one_sided))}")
    for where, rel in elbo_rel.items():
        print(f"  max relative ELBO difference at {where}: "
              + (f"{max(rel):.3g}" if rel else "no entries"))
    moved = ", ".join(f"{term} {rel:.3g}" for term, rel in
                      sorted(term_rel.items(), key=lambda kv: -kv[1]) if rel)
    print(f"  max |difference| / max(1, |term|): {moved or 'none'}"
          + ("; every other term ==" if moved else ""))
    return any(field in EXACT for field in differs)


def _print_quality(base, head):
    """Print each problem's quality in both trees, and the means."""
    print("  quality, base -> head:")
    for b, h in zip(base, head):
        b, h = b["quality"], h["quality"]
        print(f"    problem {b['seed']}: ari {b['ari']:.4f} -> {h['ari']:.4f}, "
              f"M {b['m_final']} -> {h['m_final']}, "
              f"bound {b['elbo_final']:.10g} -> {h['elbo_final']:.10g}, "
              f"neg_elbo_per_vec {b['neg_elbo_per_vec']:.6f} -> "
              f"{h['neg_elbo_per_vec']:.6f}")
    for key, fmt in (("ari", ".4f"), ("neg_elbo_per_vec", ".6f")):
        means = [np.mean([run["quality"][key] for run in runs])
                 for runs in (base, head)]
        print(f"    mean {key}: {means[0]:{fmt}} -> {means[1]:{fmt}}")


def _compare_files(name, base, head):
    """Print the CLI files of one workload that differ byte for byte
    between the trees' directories ``base`` and ``head``; True if any
    does."""
    def content(path):
        return path.read_bytes() if path.is_file() else None

    files = sorted({p.relative_to(root) for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    differ = [f for f in files if content(base / f) != content(head / f)]
    print(f"{name} through the CLI: {len(files)} files")
    for f in differ:
        print(f"  differs: {f}")
    if not differ:
        print("  every file ==")
    return bool(differ)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev")
    parser.add_argument("--seed", type=int, action="append",
                        help="a workload seed; each is run in turn (default: 1)")
    parser.add_argument("--workload", action="append",
                        help="a perfbench workload name (default: all)")
    parser.add_argument("--time", type=int, metavar="K",
                        help="time both trees in K rounds per workload "
                             "instead of comparing their outputs")
    parser.add_argument("--child", nargs=2, metavar=("SRC", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.time is not None and args.time < 1:
        parser.error("--time needs K >= 1")
    seeds = args.seed or [1]
    if args.child and args.time:
        _time_worker(Path(args.child[0]), seeds[0], args.workload[0])
        return 0
    if args.child:
        _run_tree(Path(args.child[0]), seeds[0], args.workload, Path(args.child[1]))
        return 0
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    names = args.workload or [w.name for w in workloads.WORKLOADS]
    unknown = set(names) - workloads.BY_NAME.keys()
    if unknown:
        parser.error(f"unknown workload {', '.join(sorted(unknown))}")

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": ""}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.base_rev,
             "src"], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "base", filter="data")
        trees = {"base": tmp / "base" / "src", "head": ROOT / "src"}
        if args.time:
            intervals = [_time_rounds(args, seed, names, trees, env,
                                      workloads.PROBLEMS) for seed in seeds]
            for name in names:
                for what in TIMED:
                    print(f"{name} {what}, seeds {', '.join(map(str, seeds))}: " + (
                        "a gain is claimed: every interval lies wholly below 1"
                        if gain_claimed([by_key[name, what] for by_key in intervals])
                        else "no gain is claimed: some interval reaches 1"))
            return 0
        cli_names = [name for name in names if workloads.BY_NAME[name].via_cli]
        failed = [name for seed in seeds for name in _compare_trees(
            args, seed, names, cli_names, trees, env, tmp)]
    return 1 if failed else 0


def _compare_trees(args, seed, names, cli_names, trees, env, tmp):
    """Run both trees on the problems of ``seed`` and print their
    differences; return the workloads on which an exact field, or a file
    of a CLI workload in ``cli_names``, differs."""
    workload_args = [a for name in names for a in ("--workload", name)]
    out = {tree: tmp / f"{tree}-out-{seed}" for tree in trees}
    procs = {tree: subprocess.Popen(
        [sys.executable, __file__, args.base_rev, "--seed", str(seed),
         *workload_args, "--child", str(src), str(out[tree])],
        env=env) for tree, src in trees.items()}
    if any([proc.wait() for proc in procs.values()]):  # wait for both
        raise SystemExit("error: a run failed")
    results, peaks = {}, {}
    for tree in trees:
        with open(out[tree] / "runs.pkl", "rb") as fh:
            results[tree], peaks[tree] = pickle.load(fh)
    print(f"{args.base_rev} (base) against the working tree (head), seed {seed}")
    failed = []
    for name in names:
        if _compare(name, results["base"][name], results["head"][name]):
            failed.append(name)
        print(f"  largest run_adaptation peak: "
              f"{peaks['base'][name] / 1e6:.2f} MB (base), "
              f"{peaks['head'][name] / 1e6:.2f} MB (head)")
        _print_quality(results["base"][name], results["head"][name])
    return failed + [name for name in cli_names if _compare_files(
        name, out["base"] / "cli" / name, out["head"] / "cli" / name)]


if __name__ == "__main__":
    sys.exit(main())
