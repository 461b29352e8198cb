"""Regenerate ``references.json``: the answer to every input in the pool.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_references.py

Each answer is a cold solve (no result cache, no artifact store, one
process), so it is the baseline every served and batch path must match.
Only rerun this when the program's answers are meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads


def solve(kind: str, scenario_name: str, scale, jobs: int, rates):
    from repro.network.sweep import run_network_sweep
    from repro.runtime import run_sweep, scenario
    from repro.service.protocol import canonical_payload
    from repro.store import store_context
    from repro.transient.sweep import run_transient_sweep

    spec = scenario(scenario_name)
    with store_context(None):
        if kind == "sweep":
            result = run_sweep(spec, scale, jobs=jobs, cache=None)
        elif kind == "network":
            result = run_network_sweep(spec, scale, jobs=jobs, cache=None)
        else:
            result = run_transient_sweep(spec, scale, jobs=jobs, cache=None, rates=rates)
    if result.failures:
        raise SystemExit(f"{scenario_name}: solve failed: {result.failures}")
    return canonical_payload(result.as_dict())


def main() -> int:
    layouts: dict[str, list[str]] = {}
    answers: dict[str, dict] = {}

    def record(key: str, canonical: dict) -> None:
        floats = workloads.answer_floats(canonical)
        paths = list(floats)
        layout = hashlib.sha256("\n".join(paths).encode()).hexdigest()[:12]
        layouts.setdefault(layout, paths)
        answers[key] = {
            "layout": layout,
            "values": [float(f"{floats[path]:.9g}") for path in paths],
        }
        print(f"{key}: {len(paths)} values", file=sys.stderr)

    for jobs in workloads.BATCH_JOBS.values():
        for job in jobs:
            kind, name, scale, _, rates = job
            record(workloads.job_id(job),
                   solve(kind, name, workloads.scale_named(scale), 1, rates))

    requests = list(workloads.WARM_REQUESTS) + [
        workloads.novel_request(name, rate)
        for name in workloads.NOVEL_SCENARIOS
        for rate in workloads.NOVEL_RATES
    ]
    for request in requests:
        rate = request.get("rate")
        record(workloads.request_id(request),
               solve(request["command"], request["scenario"],
                     workloads.scale_named(request["preset"]), 1,
                     None if rate is None else (rate,)))

    with open(workloads.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump({"rtol": workloads.RTOL, "atol": workloads.ATOL,
                   "layouts": layouts, "answers": answers},
                  handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
