"""Toy-scale smoke test of the benchmark itself; takes seconds.

    python3 perfbench/smoke.py

Runs every workload's code path, untraced and traced, on the
acceptance-test-01 problem (d=10, n_y=2, 10 speakers x 20 i-vectors), then
checks the correctness gate on hand-made traces, the result format and
metric names, that the tracer restores every function it wrapped, that
BENCHMARK.json matches the workload definitions, and that the command fails
in a directory holding only the benchmark.  Exits 1 on the first failure.
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# The toy problems test code paths, not quality, so they have no ARI floor;
# smoke_gate checks the floor rule itself.
TOY = dict(d=10, n_y=2, n_y_fit=2, speakers=10, per_speaker=20, ari_floor=0.0)
TOY_CONFIG = {
    "ahc-cli": dict(m_init=5),
    "point-many": dict(m_init=5, max_iter=8),
    # Surplus columns and enough iterations after annealing for prune/merge.
    "bayes-prune": dict(m_init=10, max_iter=20),
}
# A layer each toy workload must reach, as in the full-size workload.
MUST_TOUCH = {
    "ahc-cli": ("synth.pairwise_llr_matrix.calls", "fileio.bytes_read",
                "fileio.bytes_written", "cli.main.calls"),
    "point-many": ("vbpoint.standardize_posteriors.calls",),
    "bayes-prune": ("adapt.prune_and_merge.refresh_sweeps",
                    "vbbayes.elbo_bayes.calls"),
}


def toy(w):
    fit = 3 if w.n_y_fit > w.n_y else TOY["n_y_fit"]
    return dataclasses.replace(w, **dict(TOY, n_y_fit=fit),
                               config={**w.config, **TOY_CONFIG[w.name]})


def check(ok, what):
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def module_attrs():
    return {(name, key): value for name, mod in list(sys.modules.items())
            if name == "spldavb" or name.startswith("spldavb.")
            for key, value in vars(mod).items()}


def check_result(w, result, trace):
    expected = [n for n, *_ in run.END_TO_END] if not trace else \
        [n for n, _, _ in run.PER_LAYER]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{w.name} trace {trace}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{w.name} trace {trace}: no failed operation "
          f"({result['attempted']} attempted)")
    check(list(result["metrics"]) == expected,
          f"{w.name} trace {trace}: every metric present")
    check(all(NAME.fullmatch(n) and len(n) <= 64 for n in result["metrics"]),
          f"{w.name} trace {trace}: metric names match [A-Za-z0-9_.-]+")
    check(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
          f"{w.name} trace {trace}: finite values")


def smoke_workloads():
    for w in map(toy, workloads.WORKLOADS):
        result, _, _ = run.run_workload(w, seed=0, seconds=0, trace=0)
        check_result(w, result, 0)
        before = module_attrs()
        result, record, spans = run.run_workload(w, seed=0, seconds=0, trace=1)
        check_result(w, result, 1)
        after = module_attrs()
        check(before.keys() == after.keys()
              and all(before[k] is after[k] for k in before),
              f"{w.name}: tracer restored every wrapped function")
        m = record["metrics"]
        check(abs(m["trace.self_sum_frac"] - 1.0) < 0.05,
              f"{w.name}: self times add up to the traced adapt_s "
              f"({m['trace.self_sum_frac']:.4f})")
        check(all(m[key] > 0 for key in MUST_TOUCH[w.name]),
              f"{w.name}: reaches {', '.join(MUST_TOUCH[w.name])}")
        check(spans and all(s[2] >= s[1] for p in spans for s in p["spans"]),
              f"{w.name}: spans recorded")


def smoke_gate():
    w = workloads.BY_NAME["point-many"]

    def out(elbo, kappa=None, restructured=()):
        kappa = kappa or [1.0] * len(elbo)
        return workloads.Outcome(elbo, kappa, [3] * len(elbo), set(restructured),
                                 np.zeros(4, dtype=int))

    check(not workloads.check(w, out([-10.0, -9.0, -9.0]), 1.0),
          "gate passes a non-decreasing ELBO")
    check(workloads.check(w, out([-10.0, -9.0, -9.5]), 1.0),
          "gate flags an ELBO drop at kappa = 1")
    check(not workloads.check(w, out([-10.0, -9.0, -9.5], restructured=[1]), 1.0),
          "gate allows a drop after a restructure")
    check(not workloads.check(w, out([-10.0, -9.0, -9.5], kappa=[0.2, 0.5, 1.0]), 1.0),
          "gate allows a drop while annealing")
    check(workloads.check(w, out([-10.0, float("nan")]), 1.0),
          "gate flags a non-finite ELBO")
    check(workloads.check(w, out([-10.0, -9.0]), w.ari_floor - 0.01),
          "gate flags an ARI below the floor")


def smoke_files():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(committed == run.manifest(),
          "BENCHMARK.json matches the workload and metric definitions")
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "ahc-cli",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "fails without output where only the benchmark's files exist")


def main():
    smoke_gate()
    smoke_workloads()
    smoke_files()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
