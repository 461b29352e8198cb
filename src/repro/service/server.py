"""Long-lived scenario service: warm templates, store tier and worker pool.

``gprs-repro serve`` keeps a single :class:`ScenarioService` process alive
so that everything a cold CLI invocation rebuilds per run stays hot across
requests:

- the **artifact store memory tier** (propagator replay checkpoints,
  generator templates) -- a repeated request replays instead of
  resolving;
- the **result cache**, answering repeat requests without touching a
  solver at all;
- per solver thread, a persistent
  :class:`~repro.runtime.resilience.ResilientPool` whose worker processes
  (and their per-process scaffold caches) survive across network-sweep
  requests once the pool's start rule has started them.

The HTTP layer is stdlib only (:class:`http.server.ThreadingHTTPServer`),
speaks JSON, and exposes::

    GET  /healthz    liveness probe
    GET  /stats      request counters, admission state, store/cache, metrics
    POST /run        one scenario request  -> one response
    POST /batch      {"requests": [...]}   -> {"responses": [...]}
    POST /shutdown   acknowledge, drain in-flight work, then stop

Requests flow through an :class:`~repro.service.admission.AdmissionQueue`:
a bounded queue with ``workers`` solver threads, request coalescing on the
canonical request key, backpressure (HTTP 429 + ``Retry-After``),
per-request deadlines (HTTP 504), graceful drain (HTTP 503 for late
arrivals) and an optional crash-consistent request journal that replays
admitted-but-unanswered work on restart.  Each solve runs against its own
fresh metrics registry which is folded into the process-global one
afterwards, so per-request metric deltas stay exact under concurrency and
coalesced followers report an *empty* delta -- summing per-response metrics
never double-counts a shared solve.  Served answers remain bitwise
identical to the cold CLI path after provenance stripping -- see
:mod:`repro.service.protocol`.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.admission import (
    AdmissionQueue,
    Draining,
    Overloaded,
    RequestJournal,
    RequestTimeout,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    canonical_text,
    normalise_request,
)

__all__ = ["ScenarioService", "create_server", "serve"]


class ScenarioService:
    """Dispatches scenario requests against long-lived warm state.

    Parameters mirror the CLI runtime flags: ``jobs`` sizes the persistent
    worker pool of each solver thread (1 = serial, no pool), ``cache`` is a
    :class:`~repro.runtime.cache.ResultCache` or ``None``, ``store`` an
    :class:`~repro.store.ArtifactStore` or ``None`` (the serve CLI defaults
    the store ON -- it is the whole point of the warm service).

    The admission knobs: ``workers`` solver threads consume a queue of at
    most ``max_queue`` waiting entries (``max_inflight`` caps queued plus
    running; default ``workers + max_queue``); ``request_timeout`` bounds
    each waiter (and is wired through the executor's ``task_timeout`` seam
    so pool tasks cannot outlive the request that wants them);
    ``drain_timeout`` bounds the graceful-shutdown wait; ``journal_path``
    enables the crash-consistent request journal.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache=None,
        store=None,
        workers: int = 1,
        max_queue: int = 32,
        max_inflight: int | None = None,
        request_timeout: float | None = None,
        drain_timeout: float = 30.0,
        journal_path=None,
    ) -> None:
        self._jobs = max(1, int(jobs))
        self._cache = cache
        self._store = store
        self._request_timeout = (
            None if request_timeout is None else float(request_timeout)
        )
        self._drain_timeout = float(drain_timeout)
        self._started = time.monotonic()
        self._errors_lock = threading.Lock()
        self._bad_requests = 0
        self._local = threading.local()
        self._pools: list = []
        self._pools_lock = threading.Lock()
        journal = None if journal_path is None else RequestJournal(journal_path)
        self._admission = AdmissionQueue(
            self._solve_request,
            workers=workers,
            max_queue=max_queue,
            max_inflight=max_inflight,
            journal=journal,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the admission workers and replay the journal (idempotent)."""
        self._admission.start()

    def drain(self, timeout: float | None = None) -> dict:
        """Stop admission and finish in-flight work, bounded by ``timeout``."""
        return self._admission.drain(
            self._drain_timeout if timeout is None else timeout
        )

    def close(self) -> None:
        """Stop the admission workers and worker pools (idempotent)."""
        self._admission.close()
        with self._pools_lock:
            pools, self._pools = self._pools, []
        for pool in pools:
            pool.shutdown()

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def admit(self, body: dict) -> tuple[int, dict]:
        """Answer one ``/run`` body; returns ``(http_status, response)``.

        Maps admission outcomes onto HTTP semantics: 400 for malformed
        requests (checked *before* spending an admission slot), 429 with a
        ``retry_after_s`` hint when over budget, 503 while draining, 504
        when the per-request deadline expires, and the solve's own verdict
        otherwise.
        """
        from repro.runtime import scenario

        self.start()
        try:
            request = normalise_request(body)
            scenario(request["scenario"])
        except (KeyError, ValueError) as error:
            with self._errors_lock:
                self._bad_requests += 1
            return 400, {
                "ok": False,
                "protocol": PROTOCOL_VERSION,
                "error": str(error),
            }
        try:
            entry, coalesced = self._admission.submit(request)
        except Draining as error:
            return 503, {
                "ok": False,
                "protocol": PROTOCOL_VERSION,
                "error": str(error),
                "status": 503,
            }
        except Overloaded as error:
            return 429, {
                "ok": False,
                "protocol": PROTOCOL_VERSION,
                "error": str(error),
                "retry_after_s": error.retry_after_s,
                "status": 429,
            }
        try:
            response = self._admission.wait(entry, self._request_timeout)
        except RequestTimeout as error:
            return 504, {
                "ok": False,
                "protocol": PROTOCOL_VERSION,
                "error": str(error),
                "timed_out": True,
                "elapsed_s": error.elapsed_s,
                "status": 504,
            }
        if coalesced:
            # Followers share the leader's bytes but report an empty metrics
            # delta: the solve's work must be attributed exactly once.
            response = dict(response, metrics={}, coalesced=True)
        status = 200 if response.get("ok") else int(response.get("status", 400))
        return status, response

    def handle(self, request: dict) -> dict:
        """Answer one ``/run`` request; raises ``ValueError`` on bad input."""
        status, response = self.admit(request)
        if status == 400 and not response.get("ok"):
            raise ValueError(response.get("error", "bad request"))
        return response

    def safe_handle(self, request: dict) -> dict:
        """:meth:`admit` that renders every outcome as a response dict."""
        return self.admit(request)[1]

    # ------------------------------------------------------------------ #
    # Solving (runs on admission worker threads)
    # ------------------------------------------------------------------ #
    def _solve_request(self, request: dict) -> dict:
        """Solve one admitted request under its own metrics registry.

        Raises :class:`~repro.runtime.resilience.TaskCancelledError` through
        (the admission queue abandons the entry for journal replay); every
        other failure renders as an error response.
        """
        from repro.obs.metrics import MetricsRegistry, activate_registry, global_registry
        from repro.runtime import TaskCancelledError, scenario
        from repro.store import store_context

        registry = MetricsRegistry()
        start = time.perf_counter()
        try:
            with activate_registry(registry):
                spec = scenario(request["scenario"])
                with store_context(self._store):
                    result, output = self._dispatch(spec, request)
        except TaskCancelledError:
            raise
        except ValueError as error:
            return {"ok": False, "protocol": PROTOCOL_VERSION, "error": str(error)}
        except Exception as error:  # noqa: BLE001 -- a request must not kill a worker
            return {
                "ok": False,
                "protocol": PROTOCOL_VERSION,
                "error": f"{type(error).__name__}: {error}",
            }
        finally:
            # Per-request metrics fold into the process totals exactly once,
            # so N concurrent requests account like N serial ones.
            global_registry().merge(registry.snapshot())
        elapsed = time.perf_counter() - start

        payload = result.as_dict()
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "command": request["command"],
            "scenario": request["scenario"],
            "preset": request["preset"],
            "cache": dict(payload.get("cache", {})),
            "failures": len(result.failures),
            "elapsed_s": elapsed,
            "metrics": registry.delta_since({}),
            "payload": payload,
            "canonical": canonical_text(payload),
            "output": output,
        }

    def _thread_pool(self):
        """This solver thread's persistent pool (``jobs > 1`` only)."""
        if self._jobs <= 1:
            return None
        pool = getattr(self._local, "pool", None)
        if pool is None:
            from repro.runtime.resilience import ResilientPool

            pool = ResilientPool(self._jobs)
            self._local.pool = pool
            with self._pools_lock:
                self._pools.append(pool)
        return pool

    def _dispatch(self, spec, request: dict):
        """Run one request; returns ``(result, formatted_text)``."""
        from repro.experiments.reporting import (
            format_network_result,
            format_scenario_result,
            format_transient_result,
        )
        from repro.experiments.scale import ExperimentScale
        from repro.network.sweep import run_network_sweep
        from repro.runtime import run_sweep
        from repro.transient.sweep import run_transient_sweep

        command = request["command"]
        scale = ExperimentScale.from_name(request["preset"])
        cache = self._cache if request["cache"] else None
        timeout = self._request_timeout
        if command == "network":
            if spec.network is None:
                raise ValueError(f"scenario {spec.name!r} is not a network scenario")
            result = run_network_sweep(
                spec,
                scale,
                jobs=self._jobs,
                cache=cache,
                warm=True,
                pool=self._thread_pool(),
                task_timeout=timeout,
            )
            return result, format_network_result(result)
        if command == "transient":
            if spec.transient is None:
                raise ValueError(f"scenario {spec.name!r} is not transient")
            rate = request["rate"]
            result = run_transient_sweep(
                spec,
                scale,
                jobs=self._jobs,
                cache=cache,
                warm=True,
                rates=None if rate is None else (rate,),
                task_timeout=timeout,
            )
            return result, format_transient_result(result)
        result = run_sweep(
            spec,
            scale,
            jobs=self._jobs,
            cache=cache,
            warm=True,
            task_timeout=timeout,
        )
        return result, format_scenario_result(result)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Service state for ``GET /stats`` (admission, tiers, metrics).

        ``store`` (artifact store) and ``cache`` (result cache) report the
        same fields, or ``None`` when off: ``dir``, ``entries``,
        ``disk_bytes`` and the :class:`~repro.store.StoreStats` counters.
        ``resilience`` is the run ledger's block of the same name: retries,
        respawns and the worker-pool start decisions (pools started and
        declined, measured start seconds).
        """
        from repro.obs.ledger import resilience_block
        from repro.obs.metrics import current_registry

        def tier(store) -> dict | None:
            if store is None:
                return None
            return {
                "dir": str(store.root),
                "entries": len(store),
                "disk_bytes": store.disk_bytes,
                **store.stats.as_dict(),
            }

        admission = self._admission.stats()
        requests = (
            admission["accepted"] + admission["coalesced"] + admission["rejected"]
        )
        metrics = current_registry().snapshot()
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "requests": requests,
            "errors": self._bad_requests + admission["errors"],
            "jobs": self._jobs,
            "uptime_s": time.monotonic() - self._started,
            "admission": admission,
            "store": tier(self._store),
            "cache": tier(self._cache),
            "resilience": resilience_block(metrics),
            "metrics": metrics,
        }


class _Handler(BaseHTTPRequestHandler):
    """JSON-over-HTTP front of one :class:`ScenarioService`."""

    service: ScenarioService  # bound by create_server()
    server_version = "gprs-repro-serve"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 -- stdlib signature
        pass  # request logging is the metrics registry's job

    def _send(self, code: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            return {}
        parsed = json.loads(raw.decode("utf-8"))
        if not isinstance(parsed, dict):
            raise ValueError("request body must be a JSON object")
        return parsed

    def _send_admitted(self, status: int, response: dict) -> None:
        headers = None
        if status == 429:
            headers = {
                "Retry-After": str(
                    int(math.ceil(response.get("retry_after_s", 1.0)))
                )
            }
        self._send(status, response, headers)

    def do_GET(self) -> None:  # noqa: N802 -- stdlib naming
        if self.path in ("/healthz", "/health"):
            self._send(
                200, {"ok": True, "status": "ready", "protocol": PROTOCOL_VERSION}
            )
        elif self.path == "/stats":
            self._send(200, self.service.stats())
        else:
            self._send(404, {"ok": False, "error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 -- stdlib naming
        try:
            body = self._read_json()
        except (ValueError, json.JSONDecodeError):
            self._send(400, {"ok": False, "error": "invalid JSON request body"})
            return
        if self.path == "/run":
            status, response = self.service.admit(body)
            self._send_admitted(status, response)
        elif self.path == "/batch":
            requests = body.get("requests")
            if not isinstance(requests, list):
                self._send(
                    400, {"ok": False, "error": "batch body needs a 'requests' list"}
                )
                return
            responses = [self.service.safe_handle(item) for item in requests]
            self._send(
                200,
                {
                    "ok": all(item["ok"] for item in responses),
                    "protocol": PROTOCOL_VERSION,
                    "responses": responses,
                },
            )
        elif self.path == "/shutdown":
            admission = self.service.stats()["admission"]
            self._send(
                200,
                {
                    "ok": True,
                    "stopping": True,
                    "draining": admission["queued"] + admission["running"],
                },
            )
            # Respond first, then drain, then stop: shutdown() blocks until
            # the serve loop exits, so both must run off this handler thread
            # -- and the drain must finish in-flight solves *before* the
            # server (and its pools) are torn down under them.
            threading.Thread(
                target=_drain_then_shutdown,
                args=(self.service, self.server),
                daemon=True,
            ).start()
        else:
            self._send(404, {"ok": False, "error": f"unknown path {self.path!r}"})


def _drain_then_shutdown(service: ScenarioService, server) -> None:
    """Graceful-stop sequence shared by ``POST /shutdown`` and SIGTERM."""
    try:
        service.drain()
    finally:
        server.shutdown()


def create_server(
    service: ScenarioService, host: str = "127.0.0.1", port: int = 8754
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for ``service`` (port 0 = ephemeral)."""
    service.start()
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(
    service: ScenarioService, host: str = "127.0.0.1", port: int = 8754
) -> int:
    """Run the service until ``POST /shutdown``, SIGTERM or SIGINT.

    SIGTERM triggers the same graceful drain as ``POST /shutdown``: stop
    admitting, finish in-flight solves bounded by the service's drain
    timeout, journal whatever could not finish, then exit 0.
    """
    server = create_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"gprs-repro serve: listening on http://{bound_host}:{bound_port} "
        f"(jobs={service._jobs}, store="
        f"{'on' if service._store is not None else 'off'}, cache="
        f"{'on' if service._cache is not None else 'off'})",
        file=sys.stderr,
        flush=True,
    )
    _install_sigterm_handler(service, server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        service.drain()
    finally:
        server.server_close()
        service.close()
    return 0


def _install_sigterm_handler(service: ScenarioService, server) -> None:
    """Route SIGTERM into the graceful drain (main thread only; no-op else)."""
    import signal

    if threading.current_thread() is not threading.main_thread():
        return

    def _on_sigterm(signum, frame):  # noqa: ARG001 -- stdlib signature
        # Signal handlers must not block: drain on a helper thread.
        threading.Thread(
            target=_drain_then_shutdown, args=(service, server), daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _on_sigterm)
