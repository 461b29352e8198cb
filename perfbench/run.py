"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload steady-state --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md).  The last line of
standard output is one JSON object; the exit code is 0 only when every
operation succeeded and every answer matched ``references.json``.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
LAUNCHER = HERE / "serve_launcher.py"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p95_s", "s"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.import_s", "s"),
    ("core.template.build_s", "s"),
    ("core.template.rewrite_s", "s"),
    ("core.template.builds", "count"),
    ("core.template.rewrites", "count"),
    ("core.handover.balance_s", "s"),
    ("core.handover.calls", "count"),
    ("core.structured_solver.solve_s", "s"),
    ("core.structured_solver.solves", "count"),
    ("core.structured_solver.sweeps", "count"),
    ("core.structured_solver.sweeps_per_solve", "ratio"),
    ("core.structured_solver.s_per_sweep", "s"),
    ("core.structured_solver.coarse_corrections", "count"),
    ("core.measures.compute_s", "s"),
    ("core.measures.calls", "count"),
    ("core.model.solve_s", "s"),
    ("core.model.warm_share", "ratio"),
    ("network.model.self_s", "s"),
    ("network.model.outer_iterations", "count"),
    ("network.model.cell_solves", "count"),
    ("network.model.frozen_share", "ratio"),
    ("network.model.cold_share", "ratio"),
    ("transient.model.self_s", "s"),
    ("transient.model.matvecs", "count"),
    ("transient.model.matvec_rate", "1/s"),
    ("transient.model.computed_bytes_per_matvec", "B"),
    ("transient.model.segments", "count"),
    ("transient.model.early_stop_share", "ratio"),
    ("transient.propagator.get_s", "s"),
    ("transient.propagator.put_s", "s"),
    ("transient.propagator.hit_ratio", "ratio"),
    ("transient.propagator.replay_share", "ratio"),
    ("runtime.executor.chunks", "count"),
    ("runtime.executor.chunk_points_mean", "count"),
    ("runtime.pool.start_s", "s"),
    ("runtime.pool.task_roundtrip_s", "s"),
    ("runtime.pool.busy_s", "s"),
    ("runtime.pool.attempts", "count"),
    ("runtime.pool.retries", "count"),
    ("runtime.cache.get_s", "s"),
    ("runtime.cache.put_s", "s"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("store.bytes_read", "B"),
    ("store.bytes_written", "B"),
    ("service.overhead_s", "s"),
    ("service.solve_s", "s"),
    ("service.coalesced_share", "ratio"),
    ("service.rejected_share", "ratio"),
    ("service.timeouts", "count"),
    ("service.protocol.canonical_s", "s"),
    ("experiments.reporting.format_s", "s"),
    ("trace.root_self_s", "s"),
    ("trace.overhead_s", "s"),
)

MIN_PASSES = 2
MAX_PASSES = 8
SERVED_SETUPS = 3
TRACE_ROUNDS = 3
CHILD_TIMEOUT_S = 150.0


class ProgramFailure(RuntimeError):
    """The program under test crashed or hung (not a benchmark bug)."""


# ---------------------------------------------------------------------- #
# Processes: isolation, reaping, memory
# ---------------------------------------------------------------------- #
class Context:
    """Paths and environment shared by every process one run starts."""

    def __init__(self, root: Path, seed: int, seconds: float) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.tmp = root / ".perfbench_tmp" / f"run-{os.getpid()}"
        shutil.rmtree(self.tmp, ignore_errors=True)  # left by a killed run
        self._count = 0
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("REPRO_", "GPRS_REPRO_"))}
        env["PYTHONPATH"] = str(root / "src")
        env["HOME"] = str(self.fresh_dir("home"))
        env["TMPDIR"] = str(self.fresh_dir("tmp"))
        self.env = env

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def fresh_dir(self, label: str) -> Path:
        self._count += 1
        path = self.tmp / f"{self._count:03d}-{label}"
        path.mkdir(parents=True)
        return path


def become_subreaper() -> None:
    """Adopt orphaned descendants (forkservers, pool workers) so that they
    can be waited for and their peak RSS is counted."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_orphans(timeout_s: float) -> bool:
    """Wait for every remaining child; ``False`` if some outlived the timeout.
    Call only when no ``subprocess.Popen`` child is still running."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.02)


def reap_all() -> None:
    """Wait for every remaining child, killing any that outlive 30 s."""
    if reap_orphans(30.0):
        return
    for task in Path("/proc/self/task").glob("*/children"):
        for pid in task.read_text().split():
            try:
                os.kill(int(pid), 9)
            except ProcessLookupError:
                pass
    reap_orphans(10.0)


def peak_rss_mb() -> float:
    """Largest peak RSS of any process this run has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def stop(proc: subprocess.Popen, timeout_s: float) -> None:
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def import_seconds(ctx: Context, repeats: int = 3) -> float:
    """Median time of ``import repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.root,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


# ---------------------------------------------------------------------- #
# Batch workloads
# ---------------------------------------------------------------------- #
def run_pass(ctx: Context, jobs, *, trace=False, serial=False, probe=False) -> dict:
    """One job-list pass in a fresh interpreter."""
    work = ctx.fresh_dir("pass")
    spec_path, out_path = work / "spec.json", work / "out.json"
    spec_path.write_text(json.dumps({"jobs": jobs, "trace": trace,
                                     "serial": serial, "probe": probe}))
    with open(work / "stderr.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path), str(out_path)],
                                env=ctx.env, cwd=ctx.root, stdout=subprocess.DEVNULL,
                                stderr=log)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    reap_orphans(10.0)
    if code != 0 or not out_path.exists():
        tail = (work / "stderr.log").read_text()[-2000:]
        raise ProgramFailure(f"batch pass exited with {code}:\n{tail}")
    out = json.loads(out_path.read_text())
    out["spawned"] = spawned
    return out


def batch_end_to_end(ctx: Context, workload: str) -> dict:
    jobs = workloads.ordered_jobs(workload, ctx.seed)
    passes = []
    began = time.monotonic()
    while len(passes) < MAX_PASSES:
        if len(passes) >= MIN_PASSES:
            estimate = statistics.median(p["end"] - p["spawned"] for p in passes)
            if time.monotonic() - began + estimate > ctx.seconds:
                break
        passes.append(run_pass(ctx, jobs))
    records = [record for p in passes for record in p["jobs"]]
    # A batch user waits from process start until the last job is rendered.
    latencies = [p["end"] - p["spawned"] for p in passes]
    busy = sum(p["end"] - p["start"] for p in passes)
    return {
        "metrics": {
            "setup_s": statistics.median(p["ready"] - p["spawned"] for p in passes),
            "wall_s": statistics.median(p["end"] - p["start"] for p in passes),
            "latency_p50_s": tracing.percentile(latencies, 50),
            "latency_p95_s": tracing.percentile(latencies, 95),
            "throughput_rps": len(records) / busy,
        },
        "records": records,
        "notes": [f"{len(passes)} passes of {len(jobs)} jobs; latency from spawn to the "
                  f"last rendered job, over {len(latencies)} passes"],
    }


# Pool metrics of a batch trace come from the pass at the workload's jobs:
# at jobs=1 no task leaves the process.
POOL_AT_JOBS = ("runtime.pool.busy_s", "runtime.pool.attempts", "runtime.pool.retries")


def batch_trace(ctx: Context, workload: str) -> dict:
    """Untraced and traced passes at the workload's settings (overhead and
    pool times), then a traced pass at jobs=1 (layer times)."""
    jobs = workloads.ordered_jobs(workload, ctx.seed)
    plain = run_pass(ctx, jobs)
    traced = run_pass(ctx, jobs, trace=True)
    serial = run_pass(ctx, jobs, trace=True, serial=True, probe=True)
    mismatched = [a["id"] for a, b in zip(plain["jobs"], traced["jobs"])
                  if a.get("digest") != b.get("digest")]
    layers = layer_metrics(serial["spans"], serial["metrics"])
    at_jobs = layer_metrics(traced["spans"], traced["metrics"])
    layers.update({name: at_jobs[name] for name in POOL_AT_JOBS})
    layers.update({
        "cli.import_s": statistics.median(p["import_s"] for p in (plain, traced, serial)),
        "runtime.pool.start_s": serial["probe"]["start_s"],
        "runtime.pool.task_roundtrip_s": serial["probe"]["task_roundtrip_s"],
        "trace.overhead_s": (traced["end"] - traced["start"]) - (plain["end"] - plain["start"]),
    })
    return {
        "metrics": layers,
        "records": plain["jobs"] + traced["jobs"] + serial["jobs"],
        "mismatched": mismatched,
        "notes": ["layer times and counts: traced pass at jobs=1; runtime.pool.busy_s, "
                  "attempts, retries: traced pass at the workload's jobs; "
                  "trace.overhead_s: traced minus untraced wall at the workload's jobs"],
    }


# ---------------------------------------------------------------------- #
# Served workload
# ---------------------------------------------------------------------- #
class Server:
    def __init__(self, ctx: Context, traced: bool) -> None:
        from repro.service import ServiceClient

        work = ctx.fresh_dir("serve")
        self.spans_path = work / "spans.json"
        flags = ["--port", "0", "--jobs", "1", "--service-workers", "2",
                 "--cache-dir", str(work / "cache"), "--store-dir", str(work / "store")]
        if traced:
            command = [sys.executable, str(LAUNCHER), str(self.spans_path), *flags]
        else:
            command = [sys.executable, "-m", "repro", "serve", *flags]
        self.log_path = work / "stderr.log"
        self._log = open(self.log_path, "w")
        self.client = None
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(command, env=ctx.env, cwd=ctx.root,
                                     stdout=subprocess.DEVNULL, stderr=self._log)
        try:
            self.client = ServiceClient(self._wait_url(), timeout=CHILD_TIMEOUT_S)
            if not self.client.wait_ready(attempts=600, delay_s=0.05):
                raise ProgramFailure("server never answered /healthz")
        except BaseException:
            self.close()
            raise
        self.ready = time.monotonic()

    def _wait_url(self) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = re.search(r"listening on (http://\S+)", self.log_path.read_text())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise ProgramFailure("server did not start:\n" + self.log_path.read_text()[-2000:])

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
            except Exception:  # noqa: BLE001 -- no client yet, or a dead server
                self.proc.terminate()
        stop(self.proc, 60.0)
        self._log.close()


def closed_loop(client, requests: list[dict], *, clients: int = 2,
                deadline=None, round_size: int | None = None) -> tuple[list, float]:
    """Send ``requests`` from ``clients`` threads, each waiting for its reply
    before taking the next one.  With ``deadline`` (a monotonic time), no
    new round of ``round_size`` requests starts after it.  Returns
    ``(samples, wall_s)``; a sample is ``(request, latency_s, response)``."""
    lock = threading.Lock()
    cursor = [0]
    samples: list = []
    errors: list = []

    def take():
        with lock:
            index = cursor[0]
            if index >= len(requests):
                return None
            if (deadline is not None and index % round_size == 0
                    and time.monotonic() >= deadline):
                return None
            cursor[0] += 1
            return requests[index]

    def worker():
        try:
            while (request := take()) is not None:
                tick = time.perf_counter()
                try:
                    response = client.run(request)
                except Exception as exc:  # noqa: BLE001 -- a failed request is a sample
                    response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                latency = time.perf_counter() - tick
                with lock:
                    samples.append((request, latency, response))
        except BaseException as exc:  # noqa: BLE001 -- surfaced after join
            errors.append(exc)

    started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return samples, time.perf_counter() - started


def served_records(samples, references) -> list[dict]:
    records = []
    for request, latency, response in samples:
        error = None if response.get("ok") else str(response.get("error", "not ok"))
        if error is None:
            error = workloads.check_answer(references, workloads.request_id(request),
                                           json.loads(response["canonical"]))
        records.append({"id": workloads.request_id(request), "latency_s": latency,
                        "error": error})
    return records


def setup_server(ctx: Context, traced: bool = False) -> tuple[Server, float, list]:
    server = Server(ctx, traced)
    try:
        warm, warm_wall = closed_loop(server.client, [dict(r) for r in workloads.WARM_REQUESTS])
    except BaseException:
        server.close()
        raise
    return server, (server.ready - server.spawned) + warm_wall, warm


def served_end_to_end(ctx: Context) -> dict:
    """Set-up: spawn until /healthz (median of several spawns) plus one
    warm-up pass.  Then the seeded mix, round by round, for ``seconds``."""
    references = workloads.load_references()
    spawns = []
    for _ in range(SERVED_SETUPS - 1):
        server = Server(ctx, traced=False)
        server.close()
        spawns.append(server.ready - server.spawned)
    server = Server(ctx, traced=False)
    spawns.append(server.ready - server.spawned)
    try:
        warm, warm_wall = closed_loop(server.client, [dict(r) for r in workloads.WARM_REQUESTS])
        rounds = workloads.served_rounds(ctx.seed, len(workloads.NOVEL_RATES))
        stream = [request for mix in rounds for request in mix]
        samples, wall = closed_loop(server.client, stream,
                                    deadline=time.monotonic() + ctx.seconds,
                                    round_size=workloads.ROUND_SIZE)
    finally:
        server.close()
    latencies = [latency for _, latency, _ in samples]
    completed_rounds = len(samples) / workloads.ROUND_SIZE
    return {
        "metrics": {
            "setup_s": statistics.median(spawns) + warm_wall,
            "wall_s": wall / completed_rounds,
            "latency_p50_s": tracing.percentile(latencies, 50),
            "latency_p95_s": tracing.percentile(latencies, 95),
            "throughput_rps": len(samples) / wall,
        },
        "records": served_records(warm + samples, references),
        "notes": [f"{SERVED_SETUPS} spawns, 1 warm-up; timed phase {len(samples)} requests "
                  f"({completed_rounds:g} rounds of {workloads.ROUND_SIZE}) from 2 "
                  f"closed-loop clients; latency over {len(latencies)} samples, "
                  f"{sum(1 for x in latencies if x > tracing.percentile(latencies, 95))}"
                  " beyond p95"],
    }


def served_trace(ctx: Context) -> dict:
    """The same fixed request stream against an untraced and a traced server."""
    references = workloads.load_references()
    stream = [r for mix in workloads.served_rounds(ctx.seed, TRACE_ROUNDS) for r in mix]
    runs = {}
    for traced in (False, True):
        server, _, warm = setup_server(ctx, traced)
        try:
            before = server.client.stats()
            samples, wall = closed_loop(server.client, stream)
            after = server.client.stats()
        finally:
            server.close()
        runs[traced] = {"warm": warm, "samples": samples, "wall": wall,
                        "before": before, "after": after,
                        "spans": json.loads(server.spans_path.read_text()) if traced else None}
    plain, traced = runs[False], runs[True]

    untraced_answers = {workloads.request_id(request): response["canonical"]
                        for request, _, response in plain["warm"] + plain["samples"]
                        if response.get("ok")}
    mismatched = [workloads.request_id(request)
                  for request, _, response in traced["warm"] + traced["samples"]
                  if response.get("ok") and response["canonical"]
                  != untraced_answers.get(workloads.request_id(request), response["canonical"])]

    before, after = traced["before"], traced["after"]
    histograms = {name: _delta(before["metrics"]["histograms"].get(name, {}), summary)
                  for name, summary in after["metrics"]["histograms"].items()}
    layers = layer_metrics(traced["spans"], {
        "counters": _delta(before["metrics"]["counters"], after["metrics"]["counters"]),
        "histograms": histograms,
    })
    admission = _delta(before["admission"], after["admission"])
    requests = admission["accepted"] + admission["coalesced"] + admission["rejected"]
    served = [(latency, response) for _, latency, response in traced["samples"]
              if response.get("ok")]
    layers.update({
        "service.overhead_s": statistics.median(lat - r["elapsed_s"] for lat, r in served),
        "service.solve_s": statistics.median(r["elapsed_s"] for _, r in served),
        "service.coalesced_share": tracing.share(admission["coalesced"], requests),
        "service.rejected_share": tracing.share(admission["rejected"], requests),
        "service.timeouts": admission["timed_out"],
        "cli.import_s": import_seconds(ctx),
        "trace.overhead_s": traced["wall"] - plain["wall"],
    })
    records = served_records(
        plain["warm"] + plain["samples"] + traced["warm"] + traced["samples"], references)
    return {
        "metrics": layers,
        "records": records,
        "mismatched": mismatched,
        "notes": [f"{len(stream)} timed requests per server (untraced, then traced); "
                  "counts from the traced server's /stats delta over the timed phase; "
                  "runtime.pool.start_s and task_roundtrip_s: no pool (serve --jobs 1)"],
    }


# ---------------------------------------------------------------------- #
# Per-layer arithmetic
# ---------------------------------------------------------------------- #
def _self(totals: dict, name: str) -> float:
    return totals.get(name, {}).get("self_s", 0.0)


def _delta(before: dict, after: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


def layer_metrics(spans: list[dict], metrics: dict) -> dict:
    """Layer times from span self times, counts from the registry delta."""
    totals = tracing.totals_by_name(spans)
    c = metrics.get("counters", {})
    chunk_points = metrics.get("histograms", {}).get("executor.chunk_points") or {}
    by_id = {span["id"]: span for span in spans}

    def under(span, name):
        while span["parent"] is not None and span["parent"] in by_id:
            span = by_id[span["parent"]]
            if span["name"] == name:
                return True
        return False

    matvec_bytes = [span["attrs"]["bytes_per_matvec"] for span in spans
                    if span["name"] == "core.template.rewrite"
                    and under(span, "transient.model.solve")]
    solve_s = _self(totals, "core.structured_solver.solve")
    sweeps = c.get("solver.structured.sweeps", 0)
    solves = c.get("solver.structured.solves", 0)
    transient_s = _self(totals, "transient.model.solve")
    cell_solves = c.get("network.cell_solves", 0)
    segments = c.get("transient.segments", 0)
    propagator = c.get("cache.propagator.hits", 0) + c.get("cache.propagator.misses", 0)
    results = c.get("cache.result.hits", 0) + c.get("cache.result.misses", 0)
    store = c.get("store.hits", 0) + c.get("store.misses", 0)
    return {
        "core.template.build_s": _self(totals, "core.template.build"),
        "core.template.rewrite_s": _self(totals, "core.template.rewrite"),
        "core.template.builds": c.get("template.builds", 0),
        "core.template.rewrites": c.get("template.rewrites", 0),
        "core.handover.balance_s": _self(totals, "core.handover.balance"),
        "core.handover.calls": totals.get("core.handover.balance", {}).get("calls", 0),
        "core.structured_solver.solve_s": solve_s,
        "core.structured_solver.solves": solves,
        "core.structured_solver.sweeps": sweeps,
        "core.structured_solver.sweeps_per_solve": tracing.share(sweeps, solves),
        "core.structured_solver.s_per_sweep": tracing.share(solve_s, sweeps),
        "core.structured_solver.coarse_corrections":
            c.get("solver.structured.coarse_corrections", 0),
        "core.measures.compute_s": _self(totals, "core.measures.compute"),
        "core.measures.calls": totals.get("core.measures.compute", {}).get("calls", 0),
        "core.model.solve_s": _self(totals, "core.model.solve"),
        "core.model.warm_share": tracing.share(c.get("model.warm_solves", 0),
                                               c.get("model.solves", 0)),
        "network.model.self_s": _self(totals, "network.model.solve"),
        "network.model.outer_iterations": c.get("network.outer_iterations", 0),
        "network.model.cell_solves": cell_solves,
        "network.model.frozen_share": tracing.share(c.get("network.frozen_solves", 0),
                                                    cell_solves),
        "network.model.cold_share": tracing.share(c.get("network.cold_solves", 0),
                                                  cell_solves),
        "transient.model.self_s": transient_s,
        "transient.model.matvecs": c.get("transient.matvecs", 0),
        "transient.model.matvec_rate": tracing.share(c.get("transient.matvecs", 0),
                                                     transient_s),
        "transient.model.computed_bytes_per_matvec":
            statistics.mean(matvec_bytes) if matvec_bytes else 0,
        "transient.model.segments": segments,
        "transient.model.early_stop_share":
            tracing.share(c.get("transient.early_stopped_segments", 0), segments),
        "transient.propagator.get_s": _self(totals, "transient.propagator.get"),
        "transient.propagator.put_s": _self(totals, "transient.propagator.put"),
        "transient.propagator.hit_ratio":
            tracing.share(c.get("cache.propagator.hits", 0), propagator),
        "transient.propagator.replay_share":
            tracing.share(c.get("transient.replayed_segments", 0), segments),
        "runtime.pool.start_s": 0.0,
        "runtime.pool.task_roundtrip_s": 0.0,
        "runtime.pool.busy_s": _self(totals, "runtime.pool.run")
        + _self(totals, "runtime.pool.poll"),
        "runtime.pool.attempts": c.get("resilience.attempts", 0),
        "runtime.pool.retries": c.get("resilience.retries", 0),
        "runtime.executor.chunks": c.get("executor.chunks", 0),
        "runtime.executor.chunk_points_mean":
            tracing.share(chunk_points.get("sum", 0), chunk_points.get("count", 0)),
        "runtime.cache.get_s": _self(totals, "runtime.cache.get"),
        "runtime.cache.put_s": _self(totals, "runtime.cache.put"),
        "runtime.cache.hit_ratio": tracing.share(c.get("cache.result.hits", 0), results),
        "store.get_s": _self(totals, "store.get"),
        "store.put_s": _self(totals, "store.put"),
        "store.hit_ratio": tracing.share(c.get("store.hits", 0), store),
        "store.bytes_read": c.get("store.bytes_read", 0),
        "store.bytes_written": c.get("store.bytes_written", 0),
        "service.overhead_s": 0.0,
        "service.solve_s": 0.0,
        "service.coalesced_share": 0.0,
        "service.rejected_share": 0.0,
        "service.timeouts": 0,
        "service.protocol.canonical_s": _self(totals, "service.protocol.canonical"),
        "experiments.reporting.format_s": _self(totals, "experiments.reporting.format"),
        "trace.root_self_s": sum(entry["root_self_s"] for entry in totals.values()),
    }


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
WORKLOADS = ("steady-state", "transient", "served-warm")


def run_workload(ctx: Context, workload: str, trace: bool) -> dict:
    if workload == "served-warm":
        outcome = served_trace(ctx) if trace else served_end_to_end(ctx)
    elif trace:
        outcome = batch_trace(ctx, workload)
    else:
        outcome = batch_end_to_end(ctx, workload)
    spec = PER_LAYER if trace else END_TO_END
    reap_all()
    outcome["metrics"]["peak_rss_mb"] = peak_rss_mb()
    records = outcome["records"]
    failed = [record for record in records if record["error"]]
    for record in failed[:5]:
        print(f"failed: {record['id']}: {record['error']}", file=sys.stderr)
    for job in outcome.get("mismatched", ()):
        print(f"traced output differs from untraced: {job}", file=sys.stderr)
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in spec}
    for note in outcome["notes"]:
        print(f"{workload}: {note}")
    for name, entry in metrics.items():
        print(f"{workload}: {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{workload}: failed_share = {len(failed)}/{len(records)}")
    return {
        "correct": not failed and not outcome.get("mismatched"),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(root / "src"))
    become_subreaper()
    ctx = Context(root, args.seed, args.seconds)
    try:
        result = run_workload(ctx, args.workload, bool(args.trace))
    except ProgramFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 -- report, then fail without a result line
        traceback.print_exc()
        return 1
    finally:
        reap_all()
        ctx.cleanup()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own benchmark process (peak RSS is per process
    tree), then one combined result line."""
    results = {}
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} produced no result", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    result = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
