"""Admission-controlled solve queue: coalescing, backpressure, drain, journal.

PR 8's service serialised every solve behind one lock -- correct, but
single-tenant.  This module supplies the concurrent admission layer the
server hands requests to:

* **Bounded queue + worker threads.**  ``workers`` solver threads consume a
  queue of at most ``max_queue`` waiting entries; at most ``max_inflight``
  requests (queued + running) are admitted at once.  Over-budget work is
  rejected *immediately* with :class:`Overloaded` (HTTP 429 +
  ``Retry-After``) instead of queueing unboundedly -- under overload the
  service stays responsive and honest rather than slow and doomed.
* **Request coalescing.**  Entries are keyed on
  :func:`repro.service.protocol.request_key`, the canonical rendering of
  the normalised request.  An arrival identical to an in-flight entry
  attaches to it as a *follower*: one solve runs, every waiter receives the
  result, and the followers' responses carry an empty metrics delta so
  per-request metrics never double-count a shared solve.
* **Per-request deadlines.**  A waiter gives up after its deadline with
  :class:`RequestTimeout` (HTTP 504).  A deadline-expired entry that is
  still *queued* with no remaining waiters is cancelled outright; one that
  is already *running* is allowed to finish into the result cache -- the
  work is not wasted, the next identical request is a cache hit.
* **Graceful drain.**  :meth:`AdmissionQueue.drain` stops admission
  (:class:`Draining` -> HTTP 503), waits for in-flight entries bounded by a
  timeout, then trips a :class:`~repro.runtime.resilience.CancelToken` so
  pool-backed solves abort instead of running arbitrarily long.  Entries
  that could not finish stay *accepted* in the journal and are re-solved on
  the next start.
* **Crash-consistent request journal.**  A digest-verified JSONL file in
  the :mod:`repro.obs.journal` format of
  :class:`~repro.runtime.resilience.SweepCheckpoint`: an ``accept`` line is
  flushed and fsynced *before* a solve may start, a ``finish`` line records
  the outcome.  On startup, accepted-but-unfinished requests are replayed
  into the cache, so a crashed or killed service loses no admitted work.

Everything lands in ``service.*`` counters of the ambient metrics registry,
mirrored by the queue's own stats block for torn-free ``/stats`` reads.
"""

from __future__ import annotations

import collections
import hashlib
import threading
import time
from pathlib import Path

from repro.obs.journal import append_jsonl, check_schema, read_jsonl
from repro.obs.metrics import current_registry
from repro.runtime.resilience import CancelToken, TaskCancelledError, cancel_scope
from repro.service.protocol import request_key

__all__ = [
    "JOURNAL_SCHEMA",
    "JOURNAL_SCHEMA_VERSION",
    "AdmissionQueue",
    "Draining",
    "Overloaded",
    "RequestJournal",
    "RequestTimeout",
]


# ---------------------------------------------------------------------- #
# Admission outcomes
# ---------------------------------------------------------------------- #
class Overloaded(RuntimeError):
    """The queue is at capacity; retry after ``retry_after_s`` seconds."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = max(1.0, float(retry_after_s))


class Draining(RuntimeError):
    """The service is draining: no new work is admitted."""


class RequestTimeout(RuntimeError):
    """A waiter's deadline expired before its solve finished."""

    def __init__(self, message: str, elapsed_s: float) -> None:
        super().__init__(message)
        self.elapsed_s = elapsed_s


# ---------------------------------------------------------------------- #
# The request journal
# ---------------------------------------------------------------------- #
#: Identifies journal files among arbitrary JSONL (the ledger header pattern).
JOURNAL_SCHEMA = "gprs-repro/request-journal"

#: Bump on any backwards-incompatible entry change.
JOURNAL_SCHEMA_VERSION = 1


def _request_digest(rendering: str) -> str:
    """Integrity digest of one journalled request rendering."""
    return hashlib.sha256(rendering.encode("utf-8")).hexdigest()[:16]


class RequestJournal:
    """Append-only JSONL journal of accepted and finished service requests.

    Lines after the schema header are either::

        {"event": "accept", "id": N, "key": ..., "request": {...}, "digest": ...}
        {"event": "finish", "id": N, "status": "done"|"error"|"cancelled"}

    ``digest`` covers the canonical request rendering, so a flipped bit in a
    journalled request is detected on load and the line is dropped (counted
    under ``service.journal_corrupt``) instead of replaying garbage.  A torn
    tail is skipped (see :mod:`repro.obs.journal`); a future schema version
    is refused outright.  ``accept`` lines are flushed *and* fsynced before
    :meth:`accept` returns -- the crash-consistency contract is that any
    request the server acknowledged as admitted is durable.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._next_id = 1
        self._pending: "collections.OrderedDict[int, dict]" = (
            collections.OrderedDict()
        )
        self._load()

    # -- loading ----------------------------------------------------------

    def _load(self) -> None:
        records = read_jsonl(self.path) if self.path.exists() else []
        if records:
            check_schema(
                records[0][1], JOURNAL_SCHEMA, JOURNAL_SCHEMA_VERSION, source=self.path
            )
        registry = current_registry()
        accepted: "collections.OrderedDict[int, dict]" = collections.OrderedDict()
        finished: set[int] = set()
        max_id = 0
        for _, record in records[1:]:
            event = record.get("event")
            entry_id = record.get("id")
            if not isinstance(entry_id, int):
                continue
            max_id = max(max_id, entry_id)
            if event == "accept":
                request = record.get("request")
                digest = record.get("digest")
                if not isinstance(request, dict) or not isinstance(digest, str):
                    continue
                if _request_digest(request_key(request)) != digest:
                    registry.count("service.journal_corrupt")
                    continue
                accepted[entry_id] = request
            elif event == "finish":
                finished.add(entry_id)
        for entry_id, request in accepted.items():
            if entry_id not in finished:
                self._pending[entry_id] = request
        self._next_id = max_id + 1

    def pending(self) -> list[tuple[int, dict]]:
        """Accepted-but-unfinished ``(id, request)`` pairs, in accept order."""
        with self._lock:
            return list(self._pending.items())

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- appending --------------------------------------------------------

    def _append(self, record: dict, *, fsync: bool) -> None:
        header = {"schema": JOURNAL_SCHEMA, "schema_version": JOURNAL_SCHEMA_VERSION}
        append_jsonl(self.path, [record], header=header, fsync=fsync)

    def accept(self, request: dict) -> int:
        """Durably journal one admitted request; returns its journal id."""
        rendering = request_key(request)
        with self._lock:
            entry_id = self._next_id
            self._next_id += 1
            self._append(
                {
                    "event": "accept",
                    "id": entry_id,
                    "key": rendering,
                    "request": request,
                    "digest": _request_digest(rendering),
                },
                fsync=True,
            )
            self._pending[entry_id] = request
        return entry_id

    def finish(self, entry_id: int, status: str = "done") -> None:
        """Journal the outcome of one accepted request."""
        with self._lock:
            self._append(
                {"event": "finish", "id": entry_id, "status": status}, fsync=False
            )
            self._pending.pop(entry_id, None)


# ---------------------------------------------------------------------- #
# The admission queue
# ---------------------------------------------------------------------- #
_QUEUED = "queued"
_RUNNING = "running"
_DONE = "done"
_CANCELLED = "cancelled"
_ABANDONED = "abandoned"


class _Entry:
    """One distinct admitted request and every waiter attached to it."""

    __slots__ = (
        "key",
        "request",
        "state",
        "response",
        "event",
        "waiters",
        "journal_ids",
        "enqueued_at",
        "started_at",
    )

    def __init__(self, key: str, request: dict) -> None:
        self.key = key
        self.request = request
        self.state = _QUEUED
        self.response: dict | None = None
        self.event = threading.Event()
        self.waiters = 0
        self.journal_ids: list[int] = []
        self.enqueued_at = time.monotonic()
        self.started_at: float | None = None


class AdmissionQueue:
    """Bounded, coalescing work queue in front of ``solve``.

    ``solve`` is called from the queue's worker threads with one normalised
    request and must return a JSON-ready response dict (it is expected to
    render its own failures as error responses); it may raise
    :class:`~repro.runtime.resilience.TaskCancelledError` when the drain
    token trips, which abandons the entry without journalling a finish so a
    restarted service replays it.
    """

    def __init__(
        self,
        solve,
        *,
        workers: int = 1,
        max_queue: int = 32,
        max_inflight: int | None = None,
        journal: RequestJournal | None = None,
    ) -> None:
        self._solve = solve
        self._worker_count = max(1, int(workers))
        self._max_queue = max(1, int(max_queue))
        self._max_inflight = (
            int(max_inflight)
            if max_inflight is not None
            else self._worker_count + self._max_queue
        )
        self._journal = journal
        self.drain_token = CancelToken()
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._queue: "collections.deque[_Entry]" = collections.deque()
        self._by_key: dict[str, _Entry] = {}
        self._running = 0
        self._draining = False
        self._stopping = False
        self._started = False
        self._threads: list[threading.Thread] = []
        self._solve_ewma_s = 1.0
        self.counters = {
            "accepted": 0,
            "coalesced": 0,
            "rejected": 0,
            "timed_out": 0,
            "cancelled": 0,
            "completed": 0,
            "errors": 0,
            "drained": 0,
            "abandoned": 0,
            "replayed": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spin up the worker threads and replay any journalled backlog."""
        with self._lock:
            if self._started:
                return
            self._started = True
            for number in range(self._worker_count):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"admission-worker-{number}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        self._replay_journal()

    def _replay_journal(self) -> None:
        if self._journal is None:
            return
        registry = current_registry()
        for entry_id, request in self._journal.pending():
            with self._cv:
                entry = self._by_key.get(request_key(request))
                if entry is not None and entry.state in (_QUEUED, _RUNNING):
                    entry.journal_ids.append(entry_id)
                else:
                    # Replays bypass backpressure: the work was admitted (and
                    # acknowledged) by a previous incarnation of the service.
                    entry = _Entry(request_key(request), request)
                    entry.journal_ids.append(entry_id)
                    self._by_key[entry.key] = entry
                    self._queue.append(entry)
                    self._cv.notify()
                self.counters["replayed"] += 1
            registry.count("service.replayed")

    def close(self, *, join_timeout_s: float = 5.0) -> None:
        """Stop the worker threads (idempotent; queued work is left as-is)."""
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=join_timeout_s)
        self._threads.clear()

    # -- admission ---------------------------------------------------------

    def submit(self, request: dict) -> tuple[_Entry, bool]:
        """Admit one normalised request; returns ``(entry, coalesced)``.

        Raises :class:`Draining` once drain has begun and :class:`Overloaded`
        when the queue or the in-flight budget is full.  A coalesced arrival
        journals its own ``accept`` (it *was* admitted) but attaches to the
        in-flight entry instead of queueing a second solve.
        """
        registry = current_registry()
        key = request_key(request)
        with self._cv:
            if self._draining or self._stopping:
                registry.count("service.rejected")
                self.counters["rejected"] += 1
                raise Draining("service is draining; no new work is admitted")
            entry = self._by_key.get(key)
            if entry is not None and entry.state in (_QUEUED, _RUNNING):
                entry.waiters += 1
                if self._journal is not None:
                    entry.journal_ids.append(self._journal.accept(request))
                self.counters["coalesced"] += 1
                registry.count("service.coalesced")
                registry.count("service.requests")
                return entry, True
            queued = len(self._queue)
            inflight = queued + self._running
            if queued >= self._max_queue or inflight >= self._max_inflight:
                retry_after = self._retry_after_locked(inflight)
                self.counters["rejected"] += 1
                registry.count("service.rejected")
                registry.count("service.requests")
                raise Overloaded(
                    f"service over budget: {queued} queued of {self._max_queue}, "
                    f"{inflight} in flight of {self._max_inflight}",
                    retry_after,
                )
            entry = _Entry(key, request)
            entry.waiters = 1
            if self._journal is not None:
                entry.journal_ids.append(self._journal.accept(request))
            self._by_key[key] = entry
            self._queue.append(entry)
            self.counters["accepted"] += 1
            registry.count("service.accepted")
            registry.count("service.requests")
            self._cv.notify()
            return entry, False

    def _retry_after_locked(self, inflight: int) -> float:
        """Honest backoff hint: expected seconds until a slot frees up."""
        backlog = max(1, inflight - self._worker_count + 1)
        estimate = self._solve_ewma_s * backlog / self._worker_count
        return min(120.0, max(1.0, estimate))

    def wait(self, entry: _Entry, timeout: float | None = None) -> dict:
        """Block until ``entry`` resolves; returns the response dict.

        Raises :class:`RequestTimeout` when ``timeout`` expires first.  The
        expired waiter detaches; if it was the last waiter on an entry that
        has not started yet, the entry is cancelled (journal status
        ``cancelled``) -- a running solve is left to finish into the cache.
        """
        started = time.monotonic()
        if not entry.event.wait(timeout):
            registry = current_registry()
            elapsed = time.monotonic() - started
            with self._cv:
                entry.waiters = max(0, entry.waiters - 1)
                self.counters["timed_out"] += 1
                registry.count("service.timed_out")
                if entry.state == _QUEUED and entry.waiters == 0:
                    entry.state = _CANCELLED
                    self._by_key.pop(entry.key, None)
                    self._finish_journal(entry, "cancelled")
                    self.counters["cancelled"] += 1
                    registry.count("service.cancelled")
            raise RequestTimeout(
                f"request exceeded its {timeout:g}s deadline", elapsed
            )
        return entry.response

    # -- draining ----------------------------------------------------------

    def drain(self, timeout: float | None = 30.0) -> dict:
        """Stop admission, wait (bounded) for in-flight work, cancel the rest.

        Returns a summary dict.  Entries that finish while draining count as
        ``drained``; entries that cannot finish inside the timeout are
        *abandoned*: queued ones are answered with a 503-style error response
        immediately, running ones abort as soon as the tripped
        :class:`~repro.runtime.resilience.CancelToken` reaches their pool
        (serial in-process solves finish on their own time).  Abandoned
        entries keep their ``accept`` journal lines, so the next service
        start replays them.
        """
        registry = current_registry()
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        with self._cv:
            self._draining = True
            while self._inflight_locked() > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._cv.wait(0.1 if remaining is None else min(0.1, remaining))
            leftover = self._inflight_locked()
        if leftover:
            # Out of patience: abort pool-backed solves and fail the queue.
            self.drain_token.cancel("service draining")
            with self._cv:
                while self._queue:
                    entry = self._queue.popleft()
                    if entry.state != _QUEUED:
                        continue
                    self._abandon_locked(entry, registry)
                grace = time.monotonic() + 2.0
                while self._running > 0 and time.monotonic() < grace:
                    self._cv.wait(0.1)
        with self._cv:
            summary = {
                "drained": self.counters["drained"],
                "abandoned": self.counters["abandoned"],
                "still_running": self._running,
            }
        return summary

    def _abandon_locked(self, entry: _Entry, registry) -> None:
        entry.state = _ABANDONED
        entry.response = {
            "ok": False,
            "error": "service draining; request journalled for replay",
            "status": 503,
        }
        self._by_key.pop(entry.key, None)
        self.counters["abandoned"] += 1
        registry.count("service.abandoned")
        entry.event.set()

    # -- worker loop -------------------------------------------------------

    def _worker_loop(self) -> None:
        registry = current_registry()
        while True:
            with self._cv:
                while not self._queue and not self._stopping:
                    self._cv.wait(0.2)
                if self._stopping and not self._queue:
                    return
                if not self._queue:
                    continue
                entry = self._queue.popleft()
                if entry.state != _QUEUED:
                    continue  # cancelled while waiting
                entry.state = _RUNNING
                entry.started_at = time.monotonic()
                self._running += 1
            try:
                response = self._run_entry(entry)
            except TaskCancelledError:
                with self._cv:
                    self._running -= 1
                    self._abandon_locked(entry, registry)
                    self._cv.notify_all()
                continue
            except BaseException as error:  # noqa: BLE001 -- a worker must survive
                response = {
                    "ok": False,
                    "error": f"{type(error).__name__}: {error}",
                }
            with self._cv:
                self._running -= 1
                entry.state = _DONE
                entry.response = response
                self._by_key.pop(entry.key, None)
                elapsed = time.monotonic() - entry.started_at
                self._solve_ewma_s += 0.3 * (elapsed - self._solve_ewma_s)
                ok = bool(response.get("ok"))
                self._finish_journal(entry, "done" if ok else "error")
                self.counters["completed"] += 1
                registry.count("service.completed")
                if not ok:
                    self.counters["errors"] += 1
                    registry.count("service.errors")
                if self._draining:
                    self.counters["drained"] += 1
                    registry.count("service.drained")
                entry.event.set()
                self._cv.notify_all()

    def _run_entry(self, entry: _Entry) -> dict:
        with cancel_scope(self.drain_token):
            return self._solve(entry.request)

    def _finish_journal(self, entry: _Entry, status: str) -> None:
        if self._journal is None:
            return
        for entry_id in entry.journal_ids:
            self._journal.finish(entry_id, status)

    # -- introspection -----------------------------------------------------

    def _inflight_locked(self) -> int:
        return len(self._queue) + self._running

    def stats(self) -> dict:
        """A consistent snapshot of queue state and counters (never torn)."""
        with self._cv:
            return {
                "workers": self._worker_count,
                "max_queue": self._max_queue,
                "max_inflight": self._max_inflight,
                "queued": len(self._queue),
                "running": self._running,
                "draining": self._draining,
                "journal": (
                    None
                    if self._journal is None
                    else {
                        "path": str(self._journal.path),
                        "pending": len(self._journal),
                    }
                ),
                **dict(self.counters),
            }

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining
