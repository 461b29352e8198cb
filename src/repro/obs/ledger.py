"""The structured run ledger: one schema-versioned JSONL record per run.

Every instrumented entry point -- the CLI commands behind ``--ledger``, the
benchmark helpers, eventually the service mode -- appends one canonical
record per run to a JSONL file.  A record carries everything needed to
answer, months later, "what ran, on which code, and where did the time
go": the command and its arguments, a digest of the resolved spec, the
package's content-addressed code version, the tracer's flat span totals,
the metric delta of the run, and the interpreter/library environment.

The schema is versioned (:data:`SCHEMA`, :data:`SCHEMA_VERSION`); readers
:func:`validate_record` before trusting a line, and refuse records from a
future schema rather than misreading them.  :func:`compare` diffs two
records (or the latest records of two ledger files) into per-span and
per-counter deltas -- the benchmarks' A/B reports and regression checks are
built on it, so production telemetry and benchmark telemetry share one
format.

Heavyweight imports (``repro``, numpy/scipy versions) happen lazily inside
functions: this module sits above the core engines and must stay importable
without dragging the whole package in.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any

from repro.obs.journal import append_jsonl, check_schema, read_jsonl

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "append_record",
    "compare",
    "environment_fingerprint",
    "make_record",
    "read_ledger",
    "render_compare",
    "render_report",
    "resilience_block",
    "service_block",
    "spec_digest",
    "store_block",
    "validate_record",
]

#: Identifies ledger records among arbitrary JSONL lines.
SCHEMA = "gprs-repro/run-ledger"

#: Bump on any backwards-incompatible record change.
SCHEMA_VERSION = 1

#: Fields every valid record must carry.
REQUIRED_FIELDS = (
    "schema",
    "schema_version",
    "command",
    "code_version",
    "wall_s",
    "spans",
    "metrics",
    "environment",
)


def spec_digest(payload: Any) -> str:
    """Content digest of a resolved run spec (any JSON-renderable value)."""
    from repro.store.content import content_key

    return content_key(payload, default=repr)[:16]


def environment_fingerprint() -> dict:
    """The interpreter and numeric-library versions a record ran under."""
    env = {
        "python": platform.python_version(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }
    for library in ("numpy", "scipy"):
        module = sys.modules.get(library)
        if module is None:
            try:
                module = __import__(library)
            except ImportError:  # pragma: no cover - both ship with the repo
                continue
        env[library] = getattr(module, "__version__", "unknown")
    return env


#: Counter-to-field mapping behind a record's ``resilience`` block.
_RESILIENCE_COUNTERS = (
    ("attempts", "resilience.attempts"),
    ("retries", "resilience.retries"),
    ("timeouts", "resilience.timeouts"),
    ("pool_respawns", "resilience.pool_respawns"),
    ("degraded", "resilience.degraded"),
    ("pool_started", "resilience.pool_started"),
    ("pool_declined", "resilience.pool_declined"),
    ("pool_start_s", "resilience.pool_start_s"),
    ("failures", "resilience.task_failures"),
    ("resumed_points", "resilience.resumed_points"),
    ("checkpointed_points", "resilience.checkpointed_points"),
    ("checkpoint_mismatches", "resilience.checkpoint_mismatches"),
    ("faults_injected", "faults.injected"),
)


def resilience_block(metrics: dict | None) -> dict:
    """Derive a record's ``resilience`` block from its metric counters."""
    counters = (metrics or {}).get("counters", {})
    return {
        field: counters.get(counter, 0) for field, counter in _RESILIENCE_COUNTERS
    }


#: Counter-to-field mapping behind a record's ``store`` block (the
#: cross-process artifact store of :mod:`repro.store`).
_STORE_COUNTERS = (
    ("hits", "store.hits"),
    ("memory_hits", "store.memory_hits"),
    ("misses", "store.misses"),
    ("writes", "store.writes"),
    ("evictions", "store.evictions"),
    ("corrupt", "store.corrupt"),
    ("bytes_read", "store.bytes_read"),
    ("bytes_written", "store.bytes_written"),
)


def store_block(metrics: dict | None) -> dict:
    """Derive a record's ``store`` block from its metric counters."""
    counters = (metrics or {}).get("counters", {})
    return {field: counters.get(counter, 0) for field, counter in _STORE_COUNTERS}


#: Counter-to-field mapping behind a record's ``service`` block (the
#: admission-controlled scenario service of :mod:`repro.service`).
_SERVICE_COUNTERS = (
    ("requests", "service.requests"),
    ("accepted", "service.accepted"),
    ("coalesced", "service.coalesced"),
    ("rejected", "service.rejected"),
    ("timed_out", "service.timed_out"),
    ("cancelled", "service.cancelled"),
    ("completed", "service.completed"),
    ("errors", "service.errors"),
    ("drained", "service.drained"),
    ("abandoned", "service.abandoned"),
    ("replayed", "service.replayed"),
    ("journal_corrupt", "service.journal_corrupt"),
)


def service_block(metrics: dict | None) -> dict:
    """Derive a record's ``service`` block from its metric counters."""
    counters = (metrics or {}).get("counters", {})
    return {field: counters.get(counter, 0) for field, counter in _SERVICE_COUNTERS}


def make_record(
    *,
    command: str,
    target: str | None = None,
    preset: str | None = None,
    args: dict | None = None,
    spec: Any = None,
    wall_s: float,
    cpu_s: float | None = None,
    span_totals: dict | None = None,
    metrics: dict | None = None,
    created_utc: str | None = None,
    resilience: dict | None = None,
    store: dict | None = None,
    service: dict | None = None,
) -> dict:
    """Assemble one schema-v1 ledger record (pure data, JSON-ready).

    The ``resilience`` block (retries, timeouts, degradation, resumed
    points), the ``store`` block (artifact-store hits, writes, evictions,
    quarantines) and the ``service`` block (admission, coalescing,
    backpressure, drain and journal counters) are derived from the run's
    metric counters when not given explicitly -- additive fields, so the
    schema version stays 1.
    """
    from repro.runtime.cache import CODE_VERSION

    if created_utc is None:
        import datetime

        created_utc = (
            datetime.datetime.now(datetime.timezone.utc)
            .replace(microsecond=0)
            .isoformat()
        )
    record = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "created_utc": created_utc,
        "command": command,
        "target": target,
        "preset": preset,
        "args": dict(args or {}),
        "spec_digest": spec_digest(spec) if spec is not None else None,
        "code_version": CODE_VERSION,
        "pid": os.getpid(),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "spans": dict(span_totals or {}),
        "metrics": metrics
        or {"counters": {}, "gauges": {}, "histograms": {}},
        "resilience": (
            dict(resilience) if resilience is not None else resilience_block(metrics)
        ),
        "store": dict(store) if store is not None else store_block(metrics),
        "service": (
            dict(service) if service is not None else service_block(metrics)
        ),
        "environment": environment_fingerprint(),
    }
    return record


def validate_record(record: Any) -> dict:
    """Check one parsed line against the schema; return it or raise.

    Raises ``ValueError`` on anything that is not a this-version ledger
    record -- wrong schema marker, a *future* schema version (refusing to
    half-read unknown formats), or missing required fields.
    """
    check_schema(record, SCHEMA, SCHEMA_VERSION)
    missing = [name for name in REQUIRED_FIELDS if name not in record]
    if missing:
        raise ValueError(f"ledger record missing fields: {', '.join(missing)}")
    return record


def append_record(path: str, record: dict) -> dict:
    """Validate ``record`` and append it as one line of ``path``."""
    append_jsonl(path, [validate_record(record)])
    return record


def read_ledger(path: str) -> list[dict]:
    """Every validated record of a ledger file, in file order."""
    records = []
    for line_number, record in read_jsonl(path):
        try:
            records.append(validate_record(record))
        except ValueError as error:
            raise ValueError(f"{path}:{line_number}: {error}") from None
    return records


def _resolve_record(source: "str | dict") -> dict:
    """A record from either a parsed dict or the last record of a file."""
    if isinstance(source, dict):
        return validate_record(source)
    records = read_ledger(source)
    if not records:
        raise ValueError(f"{source}: ledger holds no records")
    return records[-1]


def compare(ledger_a: "str | dict", ledger_b: "str | dict") -> dict:
    """Diff two runs: wall time, per-span, and per-counter deltas.

    Arguments are ledger file paths (the *latest* record of each is used)
    or already-parsed records.  The result reports ``b`` relative to ``a``:
    positive deltas mean ``b`` spent/counted more.
    """
    record_a = _resolve_record(ledger_a)
    record_b = _resolve_record(ledger_b)

    spans: dict[str, dict] = {}
    names = set(record_a["spans"]) | set(record_b["spans"])
    for name in sorted(names):
        span_a = record_a["spans"].get(name, {})
        span_b = record_b["spans"].get(name, {})
        spans[name] = {
            "wall_a": span_a.get("wall_s", 0.0),
            "wall_b": span_b.get("wall_s", 0.0),
            "wall_delta": span_b.get("wall_s", 0.0) - span_a.get("wall_s", 0.0),
            "count_a": span_a.get("count", 0),
            "count_b": span_b.get("count", 0),
        }

    counters: dict[str, dict] = {}
    counters_a = record_a["metrics"].get("counters", {})
    counters_b = record_b["metrics"].get("counters", {})
    for name in sorted(set(counters_a) | set(counters_b)):
        value_a = counters_a.get(name, 0)
        value_b = counters_b.get(name, 0)
        counters[name] = {"a": value_a, "b": value_b, "delta": value_b - value_a}

    wall_a = record_a.get("wall_s") or 0.0
    wall_b = record_b.get("wall_s") or 0.0
    return {
        "a": {
            "command": record_a.get("command"),
            "target": record_a.get("target"),
            "created_utc": record_a.get("created_utc"),
            "code_version": record_a.get("code_version"),
            "wall_s": wall_a,
        },
        "b": {
            "command": record_b.get("command"),
            "target": record_b.get("target"),
            "created_utc": record_b.get("created_utc"),
            "code_version": record_b.get("code_version"),
            "wall_s": wall_b,
        },
        "wall_delta_s": wall_b - wall_a,
        "wall_ratio": (wall_b / wall_a) if wall_a else None,
        "spans": spans,
        "counters": counters,
    }


def render_report(record: dict, *, top: int = 10) -> str:
    """Human rendering of one record: header, top-k spans, counters."""
    validate_record(record)
    lines = []
    target = f" {record['target']}" if record.get("target") else ""
    preset = f" [{record['preset']}]" if record.get("preset") else ""
    lines.append(f"run: {record['command']}{target}{preset}")
    lines.append(f"when: {record.get('created_utc', '?')}   code: {record['code_version']}")
    cpu = record.get("cpu_s")
    cpu_text = f"   cpu {cpu:.3f} s" if isinstance(cpu, (int, float)) else ""
    lines.append(f"wall {record['wall_s']:.3f} s{cpu_text}")

    spans = sorted(
        record["spans"].items(),
        key=lambda item: item[1].get("wall_s", 0.0),
        reverse=True,
    )
    if spans:
        lines.append("")
        lines.append(f"top spans (of {len(spans)}):")
        name_width = max(len(name) for name, _ in spans[:top])
        for name, totals in spans[:top]:
            share = (
                100.0 * totals.get("wall_s", 0.0) / record["wall_s"]
                if record["wall_s"]
                else 0.0
            )
            lines.append(
                f"  {name:<{name_width}}  "
                f"{totals.get('wall_s', 0.0):>9.3f} s  "
                f"{share:>5.1f}%  "
                f"x{totals.get('count', 0)}"
            )

    resilience = record.get("resilience") or {}
    if any(resilience.values()):
        lines.append("")
        lines.append("resilience:")
        name_width = max(len(name) for name in resilience)
        for name in sorted(resilience):
            value = resilience[name]
            if value:
                text = f"{value:.3f}" if isinstance(value, float) else value
                lines.append(f"  {name:<{name_width}}  {text}")

    store = record.get("store") or {}
    if any(store.values()):
        lines.append("")
        lines.append("store:")
        name_width = max(len(name) for name in store)
        for name in sorted(store):
            if store[name]:
                lines.append(f"  {name:<{name_width}}  {store[name]}")

    service = record.get("service") or {}
    if any(service.values()):
        lines.append("")
        lines.append("service:")
        name_width = max(len(name) for name in service)
        for name in sorted(service):
            if service[name]:
                lines.append(f"  {name:<{name_width}}  {service[name]}")

    counters = record["metrics"].get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        name_width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{name_width}}  {counters[name]}")

    gauges = record["metrics"].get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges:")
        name_width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{name_width}}  {gauges[name]}")
    return "\n".join(lines)


def render_compare(diff: dict, *, top: int = 10) -> str:
    """Human rendering of a :func:`compare` result."""
    lines = []
    side_a, side_b = diff["a"], diff["b"]
    lines.append(
        f"a: {side_a['command']} {side_a.get('target') or ''} "
        f"({side_a.get('created_utc', '?')})  wall {side_a['wall_s']:.3f} s"
    )
    lines.append(
        f"b: {side_b['command']} {side_b.get('target') or ''} "
        f"({side_b.get('created_utc', '?')})  wall {side_b['wall_s']:.3f} s"
    )
    ratio = diff.get("wall_ratio")
    ratio_text = f"  ({ratio:.2f}x)" if isinstance(ratio, (int, float)) else ""
    lines.append(f"wall delta: {diff['wall_delta_s']:+.3f} s{ratio_text}")

    moved = [
        (name, entry)
        for name, entry in diff["spans"].items()
        if abs(entry["wall_delta"]) > 0.0
    ]
    moved.sort(key=lambda item: abs(item[1]["wall_delta"]), reverse=True)
    if moved:
        lines.append("")
        lines.append("span deltas:")
        name_width = max(len(name) for name, _ in moved[:top])
        for name, entry in moved[:top]:
            lines.append(
                f"  {name:<{name_width}}  "
                f"{entry['wall_a']:>9.3f} -> {entry['wall_b']:<9.3f}  "
                f"{entry['wall_delta']:+.3f} s"
            )

    changed = {
        name: entry for name, entry in diff["counters"].items() if entry["delta"]
    }
    if changed:
        lines.append("")
        lines.append("counter deltas:")
        name_width = max(len(name) for name in changed)
        for name in sorted(changed):
            entry = changed[name]
            lines.append(
                f"  {name:<{name_width}}  {entry['a']} -> {entry['b']}  "
                f"({entry['delta']:+d})"
            )
    return "\n".join(lines)
