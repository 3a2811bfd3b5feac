"""In-memory span tracer that instruments spldavb from the outside.

Each traced function is replaced at every module attribute that refers to
it, because that is where callers look it up: ``adapt`` imports
``accumulate_stats`` by name, so ``spldavb.adapt.accumulate_stats`` is the
attribute that must change, not only ``spldavb.model.accumulate_stats``.
``restore`` puts every original object back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory until the caller writes them.
"""

import functools
import os
import sys
import time
from collections import defaultdict

# Functions that get a span; the part before the first dot is the module.
SPANNED = (
    "cli.main",
    "adapt.run_adaptation",
    "adapt.init_responsibilities",
    "adapt.prune_and_merge",
    "synth.pairwise_llr_matrix",
    "model.accumulate_stats",
    "model.center_stats",
    "vbpoint.update_q_y",
    "vbpoint.update_q_theta",
    "vbpoint.accumulators",
    "vbpoint.elbo_point",
    "vbpoint.mstep_V",
    "vbpoint.mstep_W",
    "vbpoint.min_divergence",
    "vbpoint.standardize_posteriors",
    "vbbayes.update_q_y_bayes",
    "vbbayes.update_q_theta_bayes",
    "vbbayes.update_q_vtilde_rows",
    "vbbayes.update_q_wishart",
    "vbbayes.update_q_alpha",
    "vbbayes.elbo_bayes",
    "fileio.read_matrix",
    "fileio.read_labels",
    "fileio.read_model",
    "fileio.write_model",
    "fileio.write_labels",
    "fileio.write_report",
)
# Functions called too often for a span each; only their calls are counted.
COUNTED = ("linalg.logdet_pd", "linalg.inv_pd")
# Span of each candidate sweep run inside prune_and_merge.
REFRESH = "adapt.prune_and_merge.refresh"
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in SPANNED))


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _file_io(self, name, fn):
        inner = self._spanned(name, fn)
        key = "fileio.bytes_read" if ".read_" in name else "fileio.bytes_written"

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            if key == "fileio.bytes_read":
                self.counts[key] += os.path.getsize(path)
            out = inner(path, *args, **kwargs)
            if key == "fileio.bytes_written":
                self.counts[key] += os.path.getsize(path)
            return out
        return wrapper

    def _prune_and_merge(self, name, fn):
        inner = self._spanned(name, fn)
        refresh_span = functools.partial(self._spanned, REFRESH)

        @functools.wraps(fn)
        def wrapper(resp, config, refresh, *args, **kwargs):
            out = inner(resp, config, refresh_span(refresh), *args, **kwargs)
            if out[3]:
                self.counts[name + ".restructured"] += 1
                self.counts[name + ".clusters_removed"] += \
                    resp.r.shape[1] - out[0].r.shape[1]
            return out
        return wrapper

    def install(self):
        """Wrap every traced function at each spldavb attribute naming it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "spldavb" or n.startswith("spldavb.")]
        for qual in SPANNED + COUNTED:
            module, _, attr = qual.partition(".")
            original = getattr(sys.modules["spldavb." + module], attr)
            if qual in COUNTED:
                wrapper = self._counted(qual, original)
            elif qual == "adapt.prune_and_merge":
                wrapper = self._prune_and_merge(qual, original)
            elif module == "fileio":
                wrapper = self._file_io(qual, original)
            else:
                wrapper = self._spanned(qual, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self):
        """Put back every original; raises if any attribute is still wrapped."""
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        left = [f"{mod.__name__}.{key}" for mod, key, original in self._patches
                if getattr(mod, key) is not original]
        self._patches.clear()
        if left:
            raise RuntimeError(f"tracer left wrapped: {left}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def summary(self):
        """Totals by span name: ``.s``, ``.calls`` and ``.self_s``; self time
        by module as ``<module>.self_s``; the root spans' time as
        ``trace.root_s``; plus every count."""
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float, self.counts)
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - covered[i]
            out[name + ".s"] += end - start
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own
            out[name.split(".")[0] + ".self_s"] += own
            if parent < 0:
                out["trace.root_s"] += end - start
        return out
