"""Span tracing of netmoments from outside the package.

The package is not instrumented, so the tracer replaces each public
function at every module attribute that binds it (the defining module,
every module that imported it by name, and the package namespace) with a
wrapper that records a span.  Methods are wrapped on their class.
Uninstalling restores every original binding.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Children in the same thread are nested, so their
durations add.  A span that opens in another thread with nothing open in
that thread (a thread-pool worker) is a child of the span open in the
installing thread at that moment, and its interval joins the parent's
union of cross-thread child intervals; overlapping workers count once.
Self times are therefore computed per thread and never double count.

Spans are aggregated in memory per thread (calls, total and self
seconds per span name) and merged when the trace is read.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

__all__ = ["Tracer", "SPAN_TARGETS"]

PACKAGE = "netmoments"

# (span name, module that defines the object, attribute path within it).
# A dotted path names a method on a class.
SPAN_TARGETS = (
    ("rng.stream", "netmoments.rng", "stream"),
    ("rng.substream_seed", "netmoments.rng", "substream_seed"),
    ("graphon.sample_graph", "netmoments.graphon", "sample_graph"),
    ("graphon.sample_latent", "netmoments.graphon", "sample_latent"),
    ("graphon.probability_matrix", "netmoments.graphon", "probability_matrix"),
    ("graphon.sample_adjacency", "netmoments.graphon", "sample_adjacency"),
    ("graphon.population_moment", "netmoments.graphon", "population_moment"),
    ("adjacency.validate", "netmoments.adjacency", "AdjacencyMatrix.__init__"),
    ("adjacency.induced", "netmoments.adjacency", "AdjacencyMatrix.induced"),
    ("adjacency.load_edge_list", "netmoments.adjacency", "load_edge_list"),
    ("moments.motif_counts", "netmoments.moments", "motif_counts"),
    ("moments.sample_moment", "netmoments.moments", "sample_moment"),
    ("moments.variance_estimator", "netmoments.moments", "variance_estimator"),
    ("moments.pair_projection", "netmoments.moments", "pair_projection"),
    ("moments.edgeworth_coefficients", "netmoments.moments", "edgeworth_coefficients"),
    ("moments.compute_stats", "netmoments.moments", "compute_stats"),
    ("edgeworth.expansion_cdf", "netmoments.edgeworth", "expansion_cdf"),
    ("edgeworth.cornish_fisher_quantile", "netmoments.edgeworth", "cornish_fisher_quantile"),
    ("inference.confidence_interval", "netmoments.inference", "confidence_interval"),
    ("inference.one_sample_test", "netmoments.inference", "one_sample_test"),
    ("bootstrap.subsample_distribution", "netmoments.bootstrap", "subsample_distribution"),
    ("bootstrap.resample_distribution", "netmoments.bootstrap", "resample_distribution"),
    ("harness.population_mean", "netmoments.harness", "population_mean"),
    ("harness.monte_carlo_true_cdf", "netmoments.harness", "monte_carlo_true_cdf"),
    ("harness.run", "netmoments.harness", "run_accuracy_experiment"),
    ("harness.run", "netmoments.harness", "run_sparsity_sweep"),
    ("harness.run", "netmoments.harness", "run_coverage_experiment"),
    ("cli.main", "netmoments.cli", "main"),
)


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class _Frame:
    __slots__ = ("child", "cross")

    def __init__(self):
        self.child = 0.0
        self.cross = []  # intervals of cross-thread children; list.append is atomic


class Tracer:
    """Installs span wrappers; aggregates calls, total and self seconds per span."""

    def __init__(self):
        self._local = threading.local()
        self._aggregates: list[dict] = []
        self._register = threading.Lock()
        self._root_stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self.root_s = 0.0  # time inside outermost spans of the installing thread

    # -- installation -------------------------------------------------------

    def _bindings(self, module_name: str, path: str):
        """Every (owner, attribute, original) that binds the target object."""
        owner = sys.modules[module_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if cls_path:
            return [(owner, attr, owner.__dict__[attr])]
        original = getattr(owner, attr)
        found = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    found.append((mod, key, original))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._root_stack
        for span, module_name, path in SPAN_TARGETS:
            for owner, attr, original in self._bindings(module_name, path):
                setattr(owner, attr, self._wrap(span, original))
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.agg
        except AttributeError:
            if not hasattr(local, "stack"):
                local.stack = []
            local.agg = {}
            with self._register:
                self._aggregates.append(local.agg)
            return local.stack, local.agg

    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, agg = tracer._thread_state()
            cross_parent = None
            if not stack and tracer._root_stack and stack is not tracer._root_stack:
                cross_parent = tracer._root_stack[-1]
            frame = _Frame()
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                covered = frame.child
                if frame.cross:
                    covered += _union_length(frame.cross)
                rec = agg.get(span)
                if rec is None:
                    rec = agg[span] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += max(0.0, dur - covered)
                if stack:
                    stack[-1].child += dur
                elif stack is tracer._root_stack:
                    tracer.root_s += dur
                elif cross_parent is not None:
                    cross_parent.cross.append((t0, t1))

        return wrapper

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds), all threads merged."""
        merged: dict[str, list] = {}
        with self._register:
            aggregates = list(self._aggregates)
        for agg in aggregates:
            for span, (calls, total, self_s) in agg.items():
                rec = merged.setdefault(span, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
        return {k: tuple(v) for k, v in merged.items()}
