"""Outside-in spans around the program's public layer calls.

The program is never edited: :func:`install` replaces layer entry points
with thin wrappers that record one span per call into an in-memory
:class:`SpanRecorder`.  Methods are wrapped on their class; module-level
functions are rebound in every loaded ``repro`` module that holds them by
name, so callers that did ``from x import f`` see the wrapper too.

A span is ``(id, name, start, end, parent, request, attrs)`` with
``time.perf_counter`` stamps.  Parents are tracked per thread, so the
service's handler and solver threads each build their own trees.  A span's
self time is its duration minus the part of it its children cover.

This module also holds the small statistics the benchmark reports
(percentiles, shares, self-time totals); ``selftest.py`` checks them on
synthetic spans.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager

# (import path, attribute path, span name).  Class methods are wrapped on the
# class; plain functions are rebound wherever a repro module imported them.
METHOD_SPANS = (
    ("repro.core.model", "GprsMarkovModel.solve", "core.model.solve"),
    ("repro.core.template", "GeneratorTemplate.build", "core.template.build"),
    ("repro.core.template", "GeneratorTemplate.generator", "core.template.rewrite"),
    ("repro.network.model", "NetworkModel.solve", "network.model.solve"),
    ("repro.transient.model", "TransientModel.solve", "transient.model.solve"),
    ("repro.transient.propagator", "PropagatorCache.get", "transient.propagator.get"),
    ("repro.transient.propagator", "PropagatorCache.put", "transient.propagator.put"),
    ("repro.runtime.cache", "ResultCache.get", "runtime.cache.get"),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache.put"),
    ("repro.store.artifacts", "ArtifactStore.get", "store.get"),
    ("repro.store.artifacts", "ArtifactStore.put", "store.put"),
    ("repro.runtime.resilience", "ResilientPool.run", "runtime.pool.run"),
    ("repro.runtime.resilience", "ResilientPool.poll", "runtime.pool.poll"),
)

FUNCTION_SPANS = (
    ("repro.core.structured_solver", "solve_structured", "core.structured_solver.solve"),
    ("repro.core.handover", "balance_handover_rates", "core.handover.balance"),
    ("repro.core.measures", "compute_measures", "core.measures.compute"),
    ("repro.experiments.reporting", "format_scenario_result", "experiments.reporting.format"),
    ("repro.experiments.reporting", "format_network_result", "experiments.reporting.format"),
    ("repro.experiments.reporting", "format_transient_result", "experiments.reporting.format"),
    ("repro.service.protocol", "canonical_text", "service.protocol.canonical"),
    # Sweep entry points: the per-request roots inside the server.
    ("repro.runtime.executor", "run_sweep", "runtime.executor.run_sweep"),
    ("repro.network.sweep", "run_network_sweep", "network.sweep.run"),
    ("repro.transient.sweep", "run_transient_sweep", "transient.sweep.run"),
)

# Root spans opened by these names start a new request id on their thread.
REQUEST_ROOTS = frozenset(
    {"bench.job", "runtime.executor.run_sweep", "network.sweep.run", "transient.sweep.run"}
)


class SpanRecorder:
    """Thread-aware in-memory span log."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.request = 0
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and name in REQUEST_ROOTS:
            self._local.request = next(self._requests)
        record = [next(self._ids), name, time.perf_counter(), None,
                  parent[0] if parent else None, self._local.request, attrs]
        stack.append(record)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def export(self) -> list[dict]:
        with self._lock:
            return [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "request": s[5], "attrs": s[6]}
                for s in self.spans
            ]


def _span_wrapper(function, name: str, recorder: SpanRecorder, annotate=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            result = function(*args, **kwargs)
            if annotate is not None:
                annotate(record[6], result)
            return result

    return wrapper


def _annotate_generator(attrs: dict, matrix) -> None:
    """Computed bytes one CSR matvec moves: values, indices, row pointers,
    plus reading x and writing y once (cache effects ignored)."""
    rows = matrix.shape[0]
    attrs["bytes_per_matvec"] = (
        matrix.nnz * (matrix.data.itemsize + matrix.indices.itemsize)
        + (rows + 1) * matrix.indptr.itemsize
        + 2 * rows * matrix.data.itemsize
    )


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point listed above; call once per process."""
    import importlib

    for module_name, path, name in METHOD_SPANS:
        owner_name, attribute = path.split(".")
        owner = getattr(importlib.import_module(module_name), owner_name)
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_span_wrapper(raw.__func__, name, recorder))
        else:
            annotate = _annotate_generator if name == "core.template.rewrite" else None
            wrapped = _span_wrapper(raw, name, recorder, annotate)
        setattr(owner, attribute, wrapped)

    for module_name, attribute, name in FUNCTION_SPANS:
        original = getattr(importlib.import_module(module_name), attribute)
        wrapper = _span_wrapper(original, name, recorder)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attribute, None) is original):
                setattr(module, attribute, wrapper)


# ---------------------------------------------------------------------- #
# Arithmetic on spans and samples
# ---------------------------------------------------------------------- #
def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def totals_by_name(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total duration and total self time."""
    selfs = self_times(spans)
    known = {span["id"] for span in spans}
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                              "root_self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span["end"] - span["start"]
        entry["self_s"] += selfs[span["id"]]
        if span["parent"] is None or span["parent"] not in known:
            entry["root_self_s"] += selfs[span["id"]]
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of a sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0
