"""One batch pass in a fresh interpreter.

    python3 perfbench/child.py SPEC.json OUT.json

``SPEC.json`` names the jobs and whether to trace, force ``jobs=1`` or run
the pool probe first.  The pass imports ``repro.cli`` at module level, as a
CLI process does; ``run.py`` times set-up from spawn until :func:`main`
starts.  Pool workers start from a forkserver that re-imports this file as
``__mp_main__``, so everything below the imports runs only under the
``__main__`` guard.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

_IMPORT_STARTED = time.perf_counter()
import repro.cli  # noqa: E402,F401 -- the import every CLI invocation pays

IMPORT_S = time.perf_counter() - _IMPORT_STARTED

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_job(job):
    """Solve one job through the public sweep entry points and render it
    the way the CLI prints it.  Module attributes are looked up at call
    time so that traced runs go through the installed wrappers."""
    import repro.network.sweep as network_sweep
    import repro.runtime as runtime
    import repro.transient.sweep as transient_sweep
    from repro.experiments import reporting

    kind, name, scale_name, jobs, rates = job
    spec = runtime.scenario(name)
    scale = workloads.scale_named(scale_name)
    if kind == "sweep":
        result = runtime.run_sweep(spec, scale, jobs=jobs, cache=None)
        text = reporting.format_scenario_result(result)
    elif kind == "network":
        result = network_sweep.run_network_sweep(spec, scale, jobs=jobs, cache=None)
        text = reporting.format_network_result(result)
    else:
        result = transient_sweep.run_transient_sweep(
            spec, scale, jobs=jobs, cache=None, rates=rates
        )
        text = reporting.format_transient_result(result)
    return result, text


def probe_pool(jobs: int = 2, trips: int = 20) -> dict:
    """Cold start and per-task round trip of a ResilientPool, through its
    public API only (a builtin is the task, so nothing but IPC is timed)."""
    from repro.runtime.resilience import ResilientPool

    started = time.perf_counter()
    pool = ResilientPool(jobs)
    try:
        pool.run(abs, [-1] * jobs, site="probe")
        start_s = time.perf_counter() - started
        samples = []
        for trip in range(trips):
            tick = time.perf_counter()
            pool.run(abs, [-trip], site="probe")
            samples.append(time.perf_counter() - tick)
    finally:
        pool.shutdown()
    return {"start_s": start_s, "task_roundtrip_s": statistics.median(samples)}


def main(spec_path: str, out_path: str) -> int:
    ready = time.monotonic()
    from repro.obs.metrics import global_registry
    from repro.service.protocol import canonical_payload
    from repro.store import store_context

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    probe = probe_pool() if spec.get("probe") else None
    recorder = None
    if spec.get("trace"):
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)

    registry = global_registry()
    baseline = registry.snapshot()
    records, results = [], []
    start = time.monotonic()
    with store_context(None):
        for job in spec["jobs"]:
            kind, name, scale, jobs, rates = job
            if spec.get("serial"):
                jobs = 1
            tick = time.perf_counter()
            try:
                if recorder is None:
                    result, _ = run_job((kind, name, scale, jobs, rates))
                else:
                    with recorder.span("bench.job", job=workloads.job_id(job)):
                        result, _ = run_job((kind, name, scale, jobs, rates))
                error = None
            except Exception as exc:  # noqa: BLE001 -- a raised job is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append({"id": workloads.job_id(job),
                            "latency_s": time.perf_counter() - tick,
                            "error": error})
            results.append(result)
    end = time.monotonic()
    metrics = registry.delta_since(baseline)

    references = workloads.load_references()
    for record, result in zip(records, results):
        if result is None:
            continue
        if result.failures:
            record["error"] = f"{len(result.failures)} sweep failure(s)"
            continue
        canonical = canonical_payload(result.as_dict())
        text = json.dumps(canonical, indent=2, sort_keys=True)
        record["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        record["error"] = workloads.check_answer(references, record["id"], canonical)

    out = {"ready": ready, "start": start, "end": end, "import_s": IMPORT_S, "jobs": records,
           "metrics": metrics, "probe": probe,
           "spans": None if recorder is None else recorder.export()}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
