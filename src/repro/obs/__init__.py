"""Unified observability: hierarchical spans, typed metrics, run ledger.

Three layers, one per module, plus the JSONL file format they share:

- :mod:`repro.obs.trace` -- zero-cost-when-disabled hierarchical spans with
  monotonic wall/CPU timings, aggregated into a span tree plus flat
  per-name totals.
- :mod:`repro.obs.metrics` -- a process-local registry of typed
  counters/gauges/histograms with PID-guarded merge semantics across the
  ``ProcessPoolExecutor`` boundary.
- :mod:`repro.obs.ledger` -- the schema-versioned JSONL run ledger, the
  ``gprs-repro report`` rendering, and the :func:`~repro.obs.ledger.compare`
  helper the benchmarks share.
- :mod:`repro.obs.journal` -- the one JSONL reader/appender and schema
  check behind the ledger, the sweep checkpoint and the request journal.

The standing contract: instrumentation never changes numbers.  Tracing on
vs. off is bitwise identical, and the disabled path costs one contextvar
read per span site.
"""

from repro.obs.ledger import (
    SCHEMA,
    SCHEMA_VERSION,
    append_record,
    compare,
    make_record,
    read_ledger,
    render_compare,
    render_report,
    resilience_block,
    service_block,
    spec_digest,
    store_block,
    validate_record,
)
from repro.obs.metrics import (
    MetricsRegistry,
    absorb_export,
    activate_registry,
    current_registry,
    export_delta,
    global_registry,
)
from repro.obs.trace import (
    NULL_TRACER,
    SpanNode,
    Tracer,
    activate_tracer,
    current_tracer,
)

__all__ = [
    "NULL_TRACER",
    "SCHEMA",
    "SCHEMA_VERSION",
    "MetricsRegistry",
    "SpanNode",
    "Tracer",
    "absorb_export",
    "activate_registry",
    "activate_tracer",
    "append_record",
    "compare",
    "current_registry",
    "current_tracer",
    "export_delta",
    "global_registry",
    "make_record",
    "read_ledger",
    "render_compare",
    "render_report",
    "resilience_block",
    "service_block",
    "store_block",
    "spec_digest",
    "validate_record",
]
