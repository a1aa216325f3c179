"""Spans and counts around the calls into each levyspde layer.

The wrappers are installed at the names the callers look up (for example
`levyspde.errors.mittag_leffler_neg`, not the defining module), so every call
made during a study passes through them.  Each call leaves a span
(name, start, end, parent, bookkeeping) in memory; the counts are taken from
the arguments and the return value after the span has closed, and the time
spent taking them is kept apart as bookkeeping so it lands in no layer.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

# (span name, levyspde module of the caller, the name that caller looks up)
WRAPPED = (
    ("mittag_leffler", "errors", "mittag_leffler_neg"),
    ("propagators.discrete_family", "errors", "discrete_family"),
    ("propagators.cq_resolvent", "propagators", "cq_resolvent"),
    ("spectral.spectral_coupling", "errors", "spectral_coupling"),
    ("spectral.assemble_fem", "studies", "assemble_fem"),
    ("errors.error_report", "studies", "error_report"),
    ("errors.mc_weak_error", "studies", "mc_weak_error"),
    ("noise.sample_jump_path", "errors", "sample_jump_path"),
    ("noise.increments_from_path", "errors", "increments_from_path"),
)
ROOTS = ("studies.run_study", "studies.csv_text")
SPAN_NAMES = tuple(w[0] for w in WRAPPED) + ROOTS


class Tracer:
    def __init__(self, levyspde):
        from levyspde.mittag_leffler import SERIES_CUTOFF

        self._series_cutoff = SERIES_CUTOFF
        self._levyspde = levyspde
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        for name, module, attr in WRAPPED:
            mod = getattr(self._levyspde, module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(args, kwargs, out)
            span[4] = time.perf_counter() - span[2]
            return out

        return traced

    # counts, keyed by the span name ------------------------------------------

    def _count_mittag_leffler(self, args, kwargs, out):
        rho = args[0]
        x = np.asarray(args[1], float).ravel()
        series = int(np.count_nonzero(x <= self._series_cutoff))
        asym = int(np.count_nonzero(x > 60.0**rho))
        self.counts["mittag_leffler.evals.series"] += series
        self.counts["mittag_leffler.evals.asymptotic"] += asym
        self.counts["mittag_leffler.evals.bridge"] += x.size - series - asym

    def _count_propagators_discrete_family(self, args, kwargs, out):
        self.counts["propagators.discrete_family.entries"] += int(out.steps.size)

    def _count_propagators_cq_resolvent(self, args, kwargs, out):
        self.counts["propagators.cq_resolvent.entries"] += int(out.size)

    def _count_spectral_spectral_coupling(self, args, kwargs, out):
        self.counts["spectral.spectral_coupling.entries"] += int(out.size)

    def _count_errors_error_report(self, args, kwargs, out):
        self.counts["errors.mode_levels"] += int(args[0].spec.mode_count)

    def _count_noise_sample_jump_path(self, args, kwargs, out):
        self.counts["noise.paths"] += 1
        self.counts["noise.jumps"] += sum(int(t.size) for t in out.times)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: duration minus the time its child spans (with their
    bookkeeping) cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, book in spans:
        if parent >= 0:
            child[parent] += (end - start) + book
    out = {name: 0.0 for name in SPAN_NAMES}
    for i, (name, start, end, parent, book) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out
