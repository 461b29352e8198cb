"""Workload definitions, the fixed input pool and the output check.

Every numeric input the benchmark sends comes from the pools below; the
seed only picks job order, the served request order and which pool rates
a served run asks for.  ``references.json`` holds the answer to every pool
entry, computed by ``make_references.py`` from cold, cache-free solves.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# |got - want| <= ATOL + RTOL * |want| for every float of an answer.  The
# same sweeps solved cold instead of warm -- the same 1e-9 stopping tolerance
# reached by another path -- move answers by up to 5e-4 relative and, on
# small packet-loss probabilities, by up to 3.1e-5 absolute.  A chain whose
# arrival rate is off by 1% moves 55-90% of every job's answer floats
# outside this tolerance.
RTOL = 1e-3
ATOL = 1e-4

# One batch job: (kind, scenario, scale name, jobs, rates or None).
STEADY_STATE_JOBS = (
    ("sweep", "figure12", "default", 1, None),
    ("sweep", "figure7", "default", 1, None),
    ("sweep", "heavy-gprs", "default", 1, None),
    ("sweep", "large-buffer", "default", 1, None),
    ("sweep", "figure12", "deep", 1, None),
    ("network", "homogeneous-7", "default", 2, None),
    ("network", "hotspot-cluster", "default", 2, None),
)

TRANSIENT_JOBS = (
    ("transient", "busy-hour-ramp", "smoke", 2, None),
    ("transient", "flash-crowd", "smoke", 1, (0.5,)),
    ("transient", "outage-recovery", "smoke", 1, (0.5,)),
    ("transient", "diurnal-24h", "smoke", 1, (0.5,)),
)

BATCH_JOBS = {"steady-state": STEADY_STATE_JOBS, "transient": TRANSIENT_JOBS}

# Served keys answered once in the untimed warm-up pass.
WARM_REQUESTS = (
    {"command": "sweep", "scenario": "figure12", "preset": "smoke"},
    {"command": "sweep", "scenario": "heavy-gprs", "preset": "smoke"},
    {"command": "sweep", "scenario": "figure7", "preset": "smoke"},
    {"command": "network", "scenario": "homogeneous-7", "preset": "smoke"},
    {"command": "network", "scenario": "hotspot-cluster", "preset": "smoke"},
    {"command": "transient", "scenario": "flash-crowd", "preset": "smoke", "rate": 0.5},
    {"command": "transient", "scenario": "outage-recovery", "preset": "smoke", "rate": 0.5},
)

# Rates never used by the warm-up: each one asked for in a run is a cold solve.
NOVEL_SCENARIOS = ("flash-crowd", "outage-recovery")
NOVEL_RATES = tuple(round(0.31 + 0.02 * index, 2) for index in range(16))

# One round of the timed mix (indices into WARM_REQUESTS): 94 cache hits,
# 24 cache:false re-solves and 2 novel cold transient solves.  The 4 slowest
# kinds (novel solves, network re-solves) stay under 5% of a round, so p95
# falls inside the store-warm sweep and transient re-solves, not on a class
# boundary where it would jump between runs.
ROUND_HITS = tuple(range(7)) * 13 + (0, 1, 2)
ROUND_RESOLVES = (0, 1, 2) * 4 + (5, 6) * 5 + (3, 4)
ROUND_SIZE = len(ROUND_HITS) + len(ROUND_RESOLVES) + len(NOVEL_SCENARIOS)


def scale_named(name: str):
    """The ExperimentScale behind a job's scale name."""
    from repro.experiments.scale import ExperimentScale

    if name == "deep":
        # Paper buffer depth (K=100) at the default session cap: the
        # structured solver's coarse correction engages here.
        return ExperimentScale.default().replace(buffer_size=100, arrival_rates=(0.5, 0.8))
    return ExperimentScale.from_name(name)


def job_id(job) -> str:
    kind, name, scale, jobs, rates = job
    suffix = "" if rates is None else "@" + ",".join(f"{rate:g}" for rate in rates)
    return f"{kind}:{name}:{scale}:j{jobs}{suffix}"


def request_id(request: dict) -> str:
    rate = request.get("rate")
    suffix = "" if rate is None else f"@{rate:g}"
    return f"{request['command']}:{request['scenario']}:{request['preset']}{suffix}"


def ordered_jobs(workload: str, seed: int) -> list:
    jobs = list(BATCH_JOBS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs


def novel_request(scenario: str, rate: float) -> dict:
    return {"command": "transient", "scenario": scenario, "preset": "smoke", "rate": rate}


def served_rounds(seed: int, rounds: int) -> list[list[dict]]:
    """``rounds`` shuffled rounds of the fixed mix; novel rates drawn
    without replacement from the pool."""
    rng = random.Random(seed)
    novel = {name: rng.sample(NOVEL_RATES, min(rounds, len(NOVEL_RATES)))
             for name in NOVEL_SCENARIOS}
    out = []
    for number in range(rounds):
        mix = [dict(WARM_REQUESTS[index]) for index in ROUND_HITS]
        mix += [dict(WARM_REQUESTS[index], cache=False) for index in ROUND_RESOLVES]
        mix += [novel_request(name, novel[name][number]) for name in NOVEL_SCENARIOS]
        rng.shuffle(mix)
        out.append(mix)
    return out


# ---------------------------------------------------------------------- #
# Answers
# ---------------------------------------------------------------------- #
def answer_floats(canonical: dict) -> dict[str, float]:
    """Every float under ``points`` of a canonical payload, by path."""
    out: dict[str, float] = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}/{key}")
        elif isinstance(value, list):
            for index, item in enumerate(value):
                walk(item, f"{path}/{index}")
        elif isinstance(value, float):
            out[path] = value

    walk(canonical.get("points", []), "points")
    return out


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def check_answer(references: dict, key: str, canonical: dict) -> str | None:
    """``None`` when ``canonical`` matches the stored answer for ``key``,
    else a one-line reason."""
    entry = references["answers"].get(key)
    if entry is None:
        return f"{key}: no reference answer"
    paths = references["layouts"][entry["layout"]]
    got = answer_floats(canonical)
    rtol, atol = references["rtol"], references["atol"]
    for path, want in zip(paths, entry["values"]):
        value = got.get(path)
        if value is None:
            return f"{key}: {path} missing"
        if not abs(value - want) <= atol + rtol * abs(want):
            return f"{key}: {path} = {value!r}, reference {want!r}"
    return None
