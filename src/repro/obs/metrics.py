"""Process-local typed metrics with cross-process merge semantics.

One :class:`MetricsRegistry` per process collects everything the engines
already count ad hoc -- structured-solver sweeps and coarse-space
engagements, generator-template builds vs. rewrites, result- and
propagator-cache hits/misses/bytes, warm vs. cold solves, uniformisation
matvecs, executor chunk sizes and pool width -- under three metric types:

``counter``
    Monotonic event counts.  Merging sums them.
``gauge``
    Last-written point-in-time values (cache byte occupancy, pool width).
    Merging keeps the incoming value per worker-qualified name; unqualified
    merges overwrite.
``histogram``
    Count/sum/min/max summaries of observed values (chunk sizes).  Merging
    combines the summaries exactly.

Worker processes of a sweep each hold their own registry (module state does
not cross the ``ProcessPoolExecutor`` boundary).  A worker task therefore
finishes by calling :func:`export_delta` -- the registry delta accumulated
since the task started, stamped with the worker's PID -- and ships it home
piggybacked on its result.  The parent calls :func:`absorb_export`, which
merges the delta *only when the PID differs from its own*: on the serial
path the very same task function runs in-process, its counts land in the
parent registry directly, and absorbing its export too would double-count.
That PID guard is what lets one code path serve both execution modes while
keeping ``jobs = N`` metric totals identical to serial for all solver-work
counters.

Registries are **thread-safe**: every mutation and every snapshot runs
under one re-entrant lock per registry.  The service tier reads and writes
the global registry from concurrent handler threads, and a ``/stats``
snapshot taken mid-request must never observe a torn histogram or a
half-applied merge.  The lock is uncontended on the single-threaded paths,
so the solver hot loops pay only an uncontended acquire.

Stdlib-only on purpose: imported by the innermost core/runtime modules.
"""

from __future__ import annotations

import os
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "MetricsRegistry",
    "absorb_export",
    "activate_registry",
    "current_registry",
    "export_delta",
    "global_registry",
]


@dataclass
class _Histogram:
    """Exact combinable summary of observed values."""

    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def combine(self, other: dict) -> None:
        if not other.get("count"):
            return
        self.count += other["count"]
        self.total += other["sum"]
        self.min = other["min"] if self.min is None else min(self.min, other["min"])
        self.max = other["max"] if self.max is None else max(self.max, other["max"])

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
        }


@dataclass
class MetricsRegistry:
    """Typed counters, gauges, and histograms for one process."""

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at zero).

        A zero amount records nothing: worker exports drop unchanged
        counters, so in-process work must not leave zero-valued keys that
        the same work done in a worker would not.
        """
        if not amount:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """File ``value`` into the histogram ``name``."""
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = _Histogram()
            histogram.observe(value)

    # -- snapshots and merges ------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-data copy of every metric (JSON-ready, never torn)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in self.histograms.items()
                },
            }

    def delta_since(self, baseline: dict) -> dict:
        """The change from ``baseline`` (an earlier :meth:`snapshot`).

        Counters subtract (zero-change counters are dropped); gauges and
        histograms report their current state whenever it moved.
        """
        with self._lock:
            return self._delta_since_locked(baseline)

    def _delta_since_locked(self, baseline: dict) -> dict:
        base_counters = baseline.get("counters", {})
        counters = {
            name: value - base_counters.get(name, 0)
            for name, value in self.counters.items()
            if value != base_counters.get(name, 0)
        }
        base_gauges = baseline.get("gauges", {})
        gauges = {
            name: value
            for name, value in self.gauges.items()
            if value != base_gauges.get(name)
        }
        base_histograms = baseline.get("histograms", {})
        histograms = {}
        for name, histogram in self.histograms.items():
            current = histogram.as_dict()
            base = base_histograms.get(name)
            if base is None:
                if current["count"]:
                    histograms[name] = current
                continue
            if current["count"] == base["count"]:
                continue
            histograms[name] = {
                "count": current["count"] - base["count"],
                "sum": current["sum"] - base["sum"],
                # Extremes are not subtractable; the delta keeps the current
                # window's bounds, which is the honest combinable summary.
                "min": current["min"],
                "max": current["max"],
                "mean": None,
            }
            if histograms[name]["count"]:
                histograms[name]["mean"] = (
                    histograms[name]["sum"] / histograms[name]["count"]
                )
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot/delta from another registry into this one.

        Atomic: a concurrent :meth:`snapshot` sees either none or all of the
        merged values (the lock is re-entrant, so the nested ``count`` and
        ``gauge`` calls stay on this thread's acquisition).
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.count(name, value)
            for name, value in snapshot.get("gauges", {}).items():
                self.gauge(name, value)
            for name, summary in snapshot.get("histograms", {}).items():
                histogram = self.histograms.get(name)
                if histogram is None:
                    histogram = self.histograms[name] = _Histogram()
                histogram.combine(summary)

    def clear(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


_GLOBAL_REGISTRY: MetricsRegistry | None = None
_GLOBAL_LOCK = threading.Lock()


def global_registry() -> MetricsRegistry:
    """This process's shared registry (created on first use, race-free)."""
    global _GLOBAL_REGISTRY
    if _GLOBAL_REGISTRY is None:
        with _GLOBAL_LOCK:
            if _GLOBAL_REGISTRY is None:
                _GLOBAL_REGISTRY = MetricsRegistry()
    return _GLOBAL_REGISTRY


_ACTIVE_REGISTRY: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_active_registry", default=None
)


def current_registry() -> MetricsRegistry:
    """The ambient registry: the process-global one unless overridden."""
    return _ACTIVE_REGISTRY.get() or global_registry()


class activate_registry:
    """Install ``registry`` as the ambient registry for a ``with`` block."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._token = None

    def __enter__(self) -> MetricsRegistry:
        self._token = _ACTIVE_REGISTRY.set(self._registry)
        return self._registry

    def __exit__(self, *exc_info) -> bool:
        _ACTIVE_REGISTRY.reset(self._token)
        return False


# -- worker export protocol ---------------------------------------------------


def export_delta(baseline: dict, registry: MetricsRegistry | None = None) -> dict:
    """Package a worker's metric delta for shipment back to the parent.

    ``baseline`` is the :meth:`MetricsRegistry.snapshot` taken when the task
    started; the export carries the delta since then plus this process's PID
    so the parent can tell a worker's export from its own in-process run.
    """
    registry = registry if registry is not None else current_registry()
    return {"pid": os.getpid(), "metrics": registry.delta_since(baseline)}


def absorb_export(export: dict | None, registry: MetricsRegistry | None = None) -> bool:
    """Merge a worker export unless it came from this very process.

    Returns ``True`` when the export was merged.  Exports stamped with the
    parent's own PID are ignored: the serial path runs the identical task
    function in-process, so its metrics are already in the registry and
    merging the export again would double-count every event.
    """
    if not export:
        return False
    if export.get("pid") == os.getpid():
        return False
    registry = registry if registry is not None else current_registry()
    registry.merge(export.get("metrics", {}))
    return True
