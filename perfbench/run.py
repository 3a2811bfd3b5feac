"""spldavb benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload ahc-cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

Run from the repository root; the library is imported from ./src.  The
load is a closed loop in one process: each job (set-up, train, adapt)
starts when the previous one has ended.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation, in complete passes over the
workload's problems; its times are scaled to a reference machine speed
with a calibration kernel timed around each job (see CALIBRATION_REF_S).
``--trace 1`` runs every adaptation untraced and then traced, checks that
both give the same ELBO trace and labels, reports the per-layer metrics of
the traced runs, and times one adaptation in a subprocess with the BLAS
library's default thread count (measured runs use one BLAS thread).  The
last line of stdout is the JSON result; a record with machine facts, every
number and (when traced) the spans is written under ``.bench_out/``.  NOTES.md says
why each workload exists and which layer metric should move which
end-to-end metric.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from hashlib import sha256
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SRC = ROOT / "src"


def _use_source_tree():
    """Import spldavb from ./src of this checkout, never from elsewhere."""
    if not (SRC / "spldavb" / "__init__.py").is_file():
        raise SystemExit(f"error: no spldavb sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import spldavb
    if SRC.resolve() not in Path(spldavb.__file__).resolve().parents:
        raise SystemExit(f"error: spldavb imported from {spldavb.__file__}")


_use_source_tree()
import workloads  # noqa: E402  (needs the source tree on sys.path)
from spantrace import COUNTED, MODULES, SPANNED, Tracer  # noqa: E402

RUN_SECONDS = 20
# Measured runs use one BLAS thread.  On 2 shared Xeon cores with OpenBLAS
# 0.3.31 the default (a thread per core) made bayes-prune's adapt_s 1.7x
# slower and doubled its spread between runs; traced runs report the
# default-thread time as blas.adapt_s_default_threads.
MEASURED_BLAS_THREADS = 1

# (name, unit, better, bound): bound is the share of the parent's median by
# which a later change may worsen the metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("adapt_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("rss_growth_mb", "MB", "lower", 0.15),
    ("ari", "ratio", "higher", 0.15),
    ("neg_elbo_per_vec", "nats", "lower", 0.05),
)
# Shares of the traced adapt_s that the acceptance criteria pin per workload.
SHARES = ("synth.pairwise_llr_matrix", "vbpoint.standardize_posteriors",
          "adapt.prune_and_merge")
PM = "adapt.prune_and_merge"
CHILD_TIMEOUT_S = 120
# The reference machine drifts by 20-35% in speed over minutes, and the
# library's jobs drift with it.  An untraced run therefore times a fixed
# kernel between jobs and divides each job's time by the mean kernel time
# on either side of it; CALIBRATION_REF_S times the median of those ratios
# is the job's time in seconds at the speed where the kernel takes
# CALIBRATION_REF_S.  Over five seeds on each workload while the kernel
# time itself spread by 26-47%, this cut the spread of adapt_s from
# 0.13-0.30 (wall-clock) to 0.06-0.10.
CALIBRATION_REF_S = 0.06
TIMES = ("setup_s", "train_s", "adapt_s")
# Set-up and training runs per problem and pass; both are short next to an
# adaptation, so repeating them buys samples cheaply.
REPEATS = 2


def _per_layer_metrics():
    out = []
    for name in SPANNED:
        out += [(name + ".s", "s", "lower"), (name + ".calls", "count", "lower")]
    out += [("adapt.init_responsibilities.self_s", "s", "lower"),
            ("cli.main.self_s", "s", "lower")]
    out += [(m + ".self_s", "s", "lower") for m in MODULES]
    out += [(name + ".calls", "count", "lower") for name in COUNTED]
    out += [(PM + ".refresh_sweeps", "count", "lower"),
            (PM + ".refresh_s", "s", "lower"),
            (PM + ".restructured", "count", "higher"),
            (PM + ".clusters_removed", "count", "higher"),
            (PM + ".yield", "ratio", "higher"),
            ("fileio.bytes_read", "bytes", "lower"),
            ("fileio.bytes_written", "bytes", "lower"),
            ("adapt.iterations", "count", "lower"),
            ("adapt.sweeps_total", "count", "lower")]
    out += [(name + ".share", "ratio", "lower") for name in SHARES]
    out += [("trace.adapt_s", "s", "lower"),
            ("trace.self_sum_frac", "ratio", "higher"),
            ("trace.overhead_frac", "ratio", "lower"),
            ("blas.threads", "count", "higher"),
            ("blas.default_threads", "count", "higher"),
            ("blas.adapt_s_default_threads", "s", "lower")]
    return tuple(out)


# (name, unit, better) of every metric a traced run reports.
PER_LAYER = _per_layer_metrics()


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS],
        "end_to_end": [dict(name=n, unit=u, better=b, bound=bound)
                       for n, u, b, bound in END_TO_END],
        "per_layer": [dict(name=n, unit=u, better=b)
                      for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------- facts

def _cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _openblas_libraries():
    """ctypes handles of every OpenBLAS loaded in this process (numpy and
    scipy each bring their own)."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    return [ctypes.CDLL(path) for path in paths]


def _openblas_call(lib, verb, *args):
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            symbol = f"{prefix}{verb}_num_threads{suffix}"
            if hasattr(lib, symbol):
                return getattr(lib, symbol)(*args)
    return None


def blas_threads():
    """Thread count of the first loaded OpenBLAS, or None."""
    counts = [_openblas_call(lib, "get") for lib in _openblas_libraries()]
    counts = [c for c in counts if c is not None]
    return int(counts[0]) if counts else None


def pin_blas_threads(n):
    for lib in _openblas_libraries():
        _openblas_call(lib, "set", n)


def _git_commit():
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_facts(workload, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = sha256()
    for path in sorted((SRC / "spldavb").glob("*.py")):
        digest.update(path.read_bytes())
    return dict(
        workload=workload, seed=seed, nproc=os.cpu_count(), cpu_model=_cpu_model(),
        blas_name=blas.get("name"), blas_version=blas.get("version"),
        blas_threads=blas_threads(), python=platform.python_version(),
        numpy=np.__version__, scipy=scipy.__version__,
        git_commit=_git_commit(), source_sha256=digest.hexdigest())


# ---------------------------------------------------------------- jobs

class Ledger:
    """Attempted and failed operations; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def fail(self, label, reason):
        self.failures.append(f"{label}: {reason}")
        print(f"FAILED {label}: {reason}", file=sys.stderr)


def train_op(ledger, w, problem):
    """Returns ``(seconds, model)`` or None if training failed."""
    ledger.attempted += 1
    try:
        start = time.perf_counter()
        model = workloads.train(w, problem)
        return time.perf_counter() - start, model
    except Exception:  # a failed job is counted and the run goes on
        ledger.fail(f"train seed {problem.seed}", traceback.format_exc(limit=3))
        return None


def adapt_op(ledger, w, problem, model, tracer=None):
    """Run and gate one adaptation.

    Returns ``(seconds, outcome, quality)``, or None if it raised.  Only the
    adaptation itself is timed and traced, not the gate.
    """
    ledger.attempted += 1
    label = f"adapt seed {problem.seed}" + (" traced" if tracer else "")
    try:
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            report = workloads.adapt(w, problem, model)
            seconds = time.perf_counter() - start
        out = workloads.outcome(problem, report)
        quality = workloads.quality(problem, out)
        reasons = workloads.check(w, out, quality["ari"])
    except Exception:  # a failed job is counted and the run goes on
        ledger.fail(label, traceback.format_exc(limit=3))
        return None
    if reasons:
        ledger.fail(label, "; ".join(reasons))
    return seconds, out, quality


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    """First and third quartile of ``values``."""
    if len(values) < 2:
        return _median(values), _median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Calibration:
    """A fixed numpy and Python kernel with the library's mix of work: an
    einsum quadratic form, a batched 3-operand einsum, batched solves, a
    loop of small Cholesky factorizations, a matrix product and a Python
    loop.  It runs no spldavb code, so library changes do not move it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((300, 60))
        self.p = np.cov(rng.standard_normal((200, 60)).T) + np.eye(60)
        self.t = np.linalg.cholesky(np.cov(rng.standard_normal((100, 20)).T)
                                    + np.eye(20))
        v = rng.standard_normal((150, 20))
        self.stack = np.eye(20) + 0.1 * np.einsum("mi,mj->mij", v, v)
        self.rhs = rng.standard_normal((150, 20, 1))

    def seconds(self):
        start = time.perf_counter()
        np.einsum("jd,de,je->j", self.x, self.p, self.x)
        np.einsum("ar,mab,bs->mrs", self.t, self.stack, self.t)
        np.linalg.solve(self.stack, self.rhs)
        for m in self.stack[:40]:
            np.linalg.cholesky(m)
        self.x.T @ self.x
        sum(i * i for i in range(5000))
        return time.perf_counter() - start


def run_untraced(w, seeds, seconds, ledger, workdir):
    """Set up, train and adapt the problems in complete passes, and stop at
    the first pass boundary after ``seconds`` have passed.  Every problem
    therefore has the same number of samples, whatever the machine's speed.

    The calibration kernel is timed before the first job and after each, and
    each job's time is divided by the mean of the kernel times on either
    side of it.  Set-up and training are short, so each runs REPEATS times
    per problem."""
    rss_before = _peak_rss_mb()  # mostly Python, numpy and scipy
    wall = {name: [] for name in TIMES}
    paired = {name: [] for name in TIMES}
    kernel = Calibration()
    calibration = [kernel.seconds()]

    def timed(name, seconds):
        calibration.append(kernel.seconds())
        if seconds is not None:
            wall[name].append(seconds)
            paired[name].append(seconds / statistics.fmean(calibration[-2:]))

    quality = {}
    deadline = time.perf_counter() + seconds
    while not wall["setup_s"] or time.perf_counter() < deadline:
        for k, pseed in enumerate(seeds):
            for _ in range(REPEATS):
                start = time.perf_counter()
                problem = workloads.setup(w, pseed, workdir / f"p{k}")
                timed("setup_s", time.perf_counter() - start)
            for _ in range(REPEATS):
                trained = train_op(ledger, w, problem)
                timed("train_s", trained and trained[0])
            if trained is None:
                continue
            adapted = adapt_op(ledger, w, problem, trained[1])
            timed("adapt_s", adapted and adapted[0])
            if adapted is not None:
                quality.setdefault(k, adapted[2])
    metrics = {}
    for name in TIMES:
        metrics[name] = _median(paired[name]) * CALIBRATION_REF_S
        metrics[name + "_wall"] = _median(wall[name])
    metrics["calibration_s"] = _median(calibration)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    metrics["rss_growth_mb"] = metrics["peak_rss_mb"] - rss_before
    for key in ("ari", "neg_elbo_per_vec", "elbo_final", "m_abs_err"):
        values = [q[key] for q in quality.values()]
        metrics[key] = statistics.fmean(values) if values else 0.0
    q1, q3 = _quartiles(wall["adapt_s"])
    extra = dict(adapt_s_wall_q1=q1, adapt_s_wall_q3=q3, kernel_runs=len(calibration),
                 samples={k: len(v) for k, v in wall.items()})
    return metrics, extra


def _same(a, b):
    return (a.elbo, a.kappa, a.m) == (b.elbo, b.kappa, b.m) \
        and np.array_equal(a.labels, b.labels)


def run_traced(w, seeds, ledger, workdir):
    """One untraced and one traced adaptation of each problem."""
    totals, spans = {}, []
    plain, traced, iterations = [], [], []
    for k, pseed in enumerate(seeds):
        problem = workloads.setup(w, pseed, workdir / f"p{k}")
        trained = train_op(ledger, w, problem)
        if trained is None:
            continue
        first = adapt_op(ledger, w, problem, trained[1])
        tracer = Tracer()
        second = adapt_op(ledger, w, problem, trained[1], tracer)
        if first is None or second is None:
            continue
        if not _same(first[1], second[1]):
            ledger.fail(f"traced adapt seed {pseed}",
                        "ELBO trace or labels differ from the untraced run")
        plain.append(first[0])
        traced.append(second[0])
        iterations.append(len(second[1].elbo))
        for key, value in tracer.summary().items():
            totals[key] = totals.get(key, 0.0) + value
        spans.append(dict(problem_seed=pseed, spans=tracer.spans))
    n = max(len(traced), 1)
    metrics = {name: totals.get(name, 0.0) / n for name, _, _ in PER_LAYER}
    sweeps = totals.get(PM + ".refresh.calls", 0.0)
    metrics[PM + ".refresh_sweeps"] = sweeps / n
    metrics[PM + ".refresh_s"] = totals.get(PM + ".refresh.s", 0.0) / n
    metrics[PM + ".yield"] = \
        totals.get(PM + ".clusters_removed", 0.0) / sweeps if sweeps else 0.0
    metrics["adapt.iterations"] = statistics.fmean(iterations) if iterations else 0.0
    metrics["adapt.sweeps_total"] = metrics["adapt.iterations"] + sweeps / n
    traced_total = sum(traced) or 1.0
    for name in SHARES:
        metrics[name + ".share"] = totals.get(name + ".s", 0.0) / traced_total
    metrics["trace.self_sum_frac"] = \
        sum(totals.get(m + ".self_s", 0.0) for m in MODULES) / traced_total
    metrics["trace.adapt_s"] = _median(traced)
    metrics["trace.overhead_frac"] = \
        _median(traced) / _median(plain) - 1.0 if plain else 0.0
    metrics["blas.threads"] = blas_threads() or 0
    seconds, threads = _default_threads_adapt(w, seeds[0], ledger)
    metrics["blas.adapt_s_default_threads"] = seconds
    metrics["blas.default_threads"] = threads
    return metrics, dict(traced_samples=len(traced)), spans


def _default_threads_adapt(w, pseed, ledger):
    """``(seconds, BLAS threads)`` of one adaptation in a subprocess that
    keeps the BLAS library's default thread count."""
    spec = json.dumps(dict(workload=dataclasses.asdict(w), seed=pseed))
    ledger.attempted += 1
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child", spec],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True)
        out = json.loads(proc.stdout.splitlines()[-1])
        return float(out["adapt_s"]), int(out["blas_threads"] or 0)
    except (OSError, subprocess.SubprocessError, ValueError, KeyError,
            IndexError) as exc:
        detail = getattr(exc, "stderr", "") or ""
        ledger.fail("default-threads adapt", f"{exc!r} {detail[-500:]}")
        return 0.0, 0


def child(spec):
    """Entry of the default-threads subprocess: one set-up, train, adapt."""
    spec = json.loads(spec)
    w = workloads.Workload(**spec["workload"])
    workdir = OUT / f"work-{os.getpid()}"
    try:
        problem = workloads.setup(w, spec["seed"], workdir)
        model = workloads.train(w, problem)
        start = time.perf_counter()
        workloads.adapt(w, problem, model)
        seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(dict(adapt_s=seconds, blas_threads=blas_threads())))
    return 0


def run_workload(w, seed, seconds, trace):
    """One benchmark run; returns ``(result, record, spans)``: the final JSON
    object, the full record with machine facts, and the traced spans."""
    seeds = workloads.problem_seeds(seed)
    ledger = Ledger()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if trace:
            metrics, extra, spans = run_traced(w, seeds, ledger, workdir)
            names = [name for name, _, _ in PER_LAYER]
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, extra = run_untraced(w, seeds, seconds, ledger, workdir)
            spans = None
            names = [name for name, *_ in END_TO_END]
            units = {name: unit for name, unit, *_ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(ledger.failures)
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in names},
    }
    record = dict(facts=machine_facts(w.name, seed), trace=trace,
                  problem_seeds=seeds, failed_frac=failed / max(ledger.attempted, 1),
                  failures=ledger.failures, metrics=metrics, extra=extra)
    return result, record, spans


def _print_human(w, record):
    print("facts " + json.dumps(record["facts"]))
    m, extra = record["metrics"], record["extra"]
    print(f"workload {w.name}: problem seeds {record['problem_seeds']}")
    if record["trace"]:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:45s} {m[name]:.6g} {unit}")
    else:
        n = extra["samples"]
        print(f"  calibration_s    {m['calibration_s']:.6g} s (median of "
              f"{extra['kernel_runs']} kernel runs; each time below is the median of "
              f"job / adjacent kernel, times {CALIBRATION_REF_S})")
        for name in TIMES:
            print(f"  {name:16s} {m[name]:.6g} s (median of {n[name]}; "
                  f"wall-clock median {m[name + '_wall']:.6g} s)")
        print(f"  adapt_s wall-clock quartiles {extra['adapt_s_wall_q1']:.6g} .. "
              f"{extra['adapt_s_wall_q3']:.6g} s")
        print(f"  peak_rss_mb      {m['peak_rss_mb']:.6g} MB")
        print(f"  rss_growth_mb    {m['rss_growth_mb']:.6g} MB (above the RSS "
              f"before the first job)")
        print(f"  ari              {m['ari']:.6g} (mean over problems)")
        print(f"  elbo_final       {m['elbo_final']:.10g} nats (mean over problems)")
        print(f"  neg_elbo_per_vec {m['neg_elbo_per_vec']:.10g} nats")
        print(f"  m_abs_err        {m['m_abs_err']:.6g} clusters (mean over problems)")
    print(f"  failed_frac      {record['failed_frac']:.6g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child)
    pin_blas_threads(MEASURED_BLAS_THREADS)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload not in workloads.BY_NAME:
        parser.error(f"--workload must be one of {sorted(workloads.BY_NAME)}")
    w = workloads.BY_NAME[args.workload]
    result, record, spans = run_workload(w, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    _print_human(w, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
