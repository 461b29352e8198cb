"""Fault-tolerant task execution: retries, deadlines, respawn, checkpoints.

The execution seams (:func:`repro.runtime.executor.sweep_measure_dicts`,
the network and transient sweeps) all reduce to the same shape: a list of *pure* task payloads whose
results are reassembled in order.  Purity is what makes resilience cheap --
a retried task re-runs the identical payload and produces the identical
bytes, so recovering from a crashed worker can never change numbers, only
wall time.  This module supplies that recovery:

* :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  deterministic seeded jitter; classifies worker death
  (``BrokenProcessPool``), deadline timeouts and ``OSError`` as retryable,
  everything else (a ``ValueError``, a solver bug) as fatal, because a
  deterministic payload that failed "honestly" will fail identically again.
* :class:`ResilientPool` -- a retrying, deadline-enforcing wrapper around one
  ``ProcessPoolExecutor``.  A broken pool is respawned (every in-flight task
  counts one attempt -- the culprit is indistinguishable from its victims);
  after ``max_pool_respawns`` respawns the pool **degrades to in-process
  serial execution** and the sweep still finishes.  A task past its deadline
  (``ExecutionOptions.task_timeout``) cannot be cancelled mid-run, so the
  pool is recycled and the survivors resubmitted.
* **The start rule** -- ``jobs > 1`` does not by itself start worker
  processes.  Until a pool has started, queued tasks run in-process, one at
  a time, and are timed.  Before each one the pool decides whether starting
  its workers would repay their cost:

  - *saving* = remaining tasks x most recent in-process task time x
    (1 - 1/width), with width = min(jobs, remaining tasks).  The most recent
    time, not the mean: the first task also builds this process's solver
    scaffolds, which would inflate a mean.
  - *cost* = the predicted pool start cost plus the first task's excess over
    the most recent one (the scaffold build every fresh worker repeats).
    The start cost is the latest start measured in this process; before any
    pool has started it is twice the time this interpreter spent importing
    :mod:`repro` (the forkserver repeats that import once, its workers once
    more), so the prior is measured on the host it predicts.

  The pool starts when saving > cost and then stays (its cost is paid).  A
  pool with a ``task_timeout`` or under an active fault plan always starts:
  deadlines and worker kills need process isolation.  Tasks are pure, so
  where a task runs never changes its bytes -- ``jobs=1`` stays bitwise
  equal to ``jobs=N`` whichever way the rule decides.  The decisions are
  counted as ``resilience.pool_declined`` (tasks kept in-process) and
  ``resilience.pool_started``, and measured start seconds accumulate in
  ``resilience.pool_start_s``.
* :class:`SweepFailure` -- the structured record a task that exhausted its
  attempts leaves behind instead of aborting the sweep; ``strict`` restores
  fail-fast by raising :class:`SweepFailureError` at the first one.
  :func:`collect_failures` scopes an ambient sink the sweep entry points use
  to attach failures to their results.
* :class:`SweepCheckpoint` -- a JSONL journal of completed sweep points
  (cache key + payload digest, schema-versioned like the run ledger) so an
  interrupted invocation resumes by serving checkpointed points from the
  result cache and solving only the remainder; a digest mismatch (a corrupt
  cache entry) demotes the point back to a miss.

Injected faults (:mod:`repro.runtime.faults`) are resolved parent-side at
submission and shipped inside the submitted call, so every path above is
provable in tests; with no plan active, submission cost is one contextvar
read.

Worker processes are started through a **forkserver** context rather than
bare ``fork``.  The service tier submits from a multithreaded parent,
and forking a multithreaded CPython process is unsound: the child can
deadlock inside ``threading._after_fork`` before it ever reaches the
executor's work loop -- an alive-but-wedged worker that
never raises ``BrokenProcessPool``, so its future pends forever.  The
forkserver is a single-threaded fork parent, which removes the race
entirely; preloading the solver modules into it keeps per-worker startup
as cheap as fork after the one-time server spawn.  Two fork behaviours do
not carry over: workers no longer inherit the parent's *current*
environment (each pool ships its repro env knobs through an initializer
instead) or its warm in-process caches (cross-process warmth flows
through the artifact store, which is the seam built for it).  Set
``REPRO_POOL_START_METHOD`` to override (e.g. ``fork`` to compare, or
``spawn`` where forkserver is unavailable).
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.journal import append_jsonl, check_schema, read_jsonl
from repro.obs.metrics import current_registry
from repro.runtime.faults import current_fault_plan, run_with_faults

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_SCHEMA_VERSION",
    "DEFAULT_RETRY_POLICY",
    "CancelToken",
    "ResilientPool",
    "RetryPolicy",
    "SweepCheckpoint",
    "SweepFailure",
    "SweepFailureError",
    "TaskCancelledError",
    "cancel_scope",
    "checkpointed_get",
    "collect_failures",
    "current_cancel_token",
    "payload_digest",
    "report_failure",
]


# ---------------------------------------------------------------------- #
# Fork-safe worker start method
# ---------------------------------------------------------------------- #
# Modules imported into the forkserver before it starts forking workers:
# every function a ResilientPool ever submits lives in one of these, so a
# forked worker starts with the whole solver stack (numpy, scipy, the
# generator/propagator machinery) already imported -- fork-cheap startup
# without fork's multithreaded-parent deadlock.
_PRELOAD_MODULES = (
    "repro.runtime.faults",
    "repro.runtime.executor",
    "repro.transient.sweep",
    "repro.network.model",
)

_mp_context = None
_mp_context_lock = threading.Lock()

# Workers fork from the forkserver's environment *snapshot*, taken when the
# server first starts -- not from the submitting process.  Anything exported
# for workers to inherit after that point (``--store-dir`` sets
# ``$REPRO_STORE_DIR`` exactly so pool workers resolve the same store) would
# silently read the snapshot value.  Each pool therefore ships the parent's
# current repro knobs through an initializer, restoring fork semantics.
_WORKER_ENV_PREFIXES = ("REPRO_", "GPRS_REPRO_")


def _worker_env_snapshot() -> dict:
    """The parent's current repro env knobs, captured at pool creation."""
    return {
        key: value
        for key, value in os.environ.items()
        if key.startswith(_WORKER_ENV_PREFIXES)
    }


def _init_worker_env(snapshot: dict) -> None:
    """Worker initializer: mirror the parent's repro env knobs exactly."""
    for key in list(os.environ):
        if key.startswith(_WORKER_ENV_PREFIXES) and key not in snapshot:
            del os.environ[key]
    os.environ.update(snapshot)


def _noop() -> None:
    """Target of the forkserver warm-up probe (must be module-level)."""


#: Seconds the most recent worker pool of this process took from creation
#: until every worker answered (``None`` until one has started).
_last_start_s: float | None = None


def _pool_start_cost_s() -> float:
    """Predicted seconds to start a worker pool in this process.

    The latest measured start once a pool has started; before that, twice
    this interpreter's :mod:`repro` import time -- the forkserver pays that
    import once and its workers (re-importing the entry script, in
    parallel) pay it once more.
    """
    if _last_start_s is not None:
        return _last_start_s
    import repro

    return 2.0 * repro._IMPORT_S


def _pool_mp_context():
    """The shared multiprocessing context worker pools start from.

    ``forkserver`` (the default here) forks workers from a dedicated
    single-threaded server process, so pool creation -- including respawns
    after a worker kill -- is safe no matter how many service/solver
    threads the submitting process runs.  Bare ``fork`` from a
    multithreaded parent can wedge the child in ``threading._after_fork``
    before it reaches the work loop: the worker stays alive but never
    executes, the future pends forever, and ``BrokenProcessPool`` never
    fires.  ``REPRO_POOL_START_METHOD`` overrides the method; an
    unsupported choice falls back to the platform default.
    """
    global _mp_context
    if _mp_context is None:
        with _mp_context_lock:
            if _mp_context is None:
                method = os.environ.get("REPRO_POOL_START_METHOD", "forkserver")
                try:
                    context = multiprocessing.get_context(method)
                except ValueError:
                    context = multiprocessing.get_context()
                if getattr(context, "_name", None) == "forkserver":
                    # Replaces the default ['__main__'] preload: entry
                    # scripts are not re-run inside the server, and worker
                    # forks inherit the whole solver stack instead.
                    preload = list(_PRELOAD_MODULES)
                    if "pytest" in sys.modules:
                        # Workers unpickle test-module functions, and test
                        # modules import pytest -- preload it so that cost
                        # is paid once in the server, not against the
                        # first task's deadline in every fresh worker.
                        preload.append("pytest")
                    context.set_forkserver_preload(preload)
                    # Warm the server (spawn + preload imports) *now*, so
                    # task deadlines armed at submission never race the
                    # one-time startup cost.
                    probe = context.Process(target=_noop, daemon=True)
                    probe.start()
                    probe.join()
                _mp_context = context
    return _mp_context


# ---------------------------------------------------------------------- #
# Pool-aware cancellation
# ---------------------------------------------------------------------- #
class CancelToken:
    """A one-shot, thread-safe cancellation flag shared across threads.

    The token is *pool-aware* through :class:`ResilientPool`: a pool that
    runs under :func:`cancel_scope` checks the ambient token before every
    submission and around every wait, and a set token makes it drop all
    pending work, recycle the worker pool (killing in-flight subprocess
    tasks) and raise :class:`TaskCancelledError`.  In-process (serial)
    execution cannot preempt a running solve, so serial tasks check the
    token only *between* tasks -- the documented best the GIL allows.
    """

    def __init__(self, reason: str = "") -> None:
        self._event = threading.Event()
        self._reason = reason

    def cancel(self, reason: str | None = None) -> None:
        """Trip the token (idempotent); later ``reason`` updates are kept."""
        if reason is not None:
            self._reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        return self._reason


class TaskCancelledError(RuntimeError):
    """Raised by :class:`ResilientPool` when the ambient token trips."""

    def __init__(self, token: CancelToken) -> None:
        reason = token.reason or "cancelled"
        super().__init__(f"task execution cancelled: {reason}")
        self.token = token


_CANCEL: contextvars.ContextVar[CancelToken | None] = contextvars.ContextVar(
    "repro_runtime_cancel_token", default=None
)


def current_cancel_token() -> CancelToken | None:
    """The innermost ambient cancellation token, or ``None``."""
    return _CANCEL.get()


@contextlib.contextmanager
def cancel_scope(token: CancelToken):
    """Make ``token`` the ambient cancellation token for a ``with`` block."""
    previous = _CANCEL.set(token)
    try:
        yield token
    finally:
        _CANCEL.reset(previous)


# ---------------------------------------------------------------------- #
# Retry policy and failure records
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """How often, how patiently, and for which errors a task is retried."""

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter_fraction: float = 0.25
    seed: int = 0
    max_pool_respawns: int = 2

    def is_retryable(self, error: BaseException) -> bool:
        """Worker death, deadline timeouts and OS-level errors are transient;
        everything else fails identically on a pure payload."""
        if isinstance(error, (KeyboardInterrupt, SystemExit)):
            return False
        return isinstance(error, (BrokenProcessPool, TimeoutError, OSError))

    def backoff_s(self, site: str, index: int, attempt: int) -> float:
        """Delay before ``attempt`` (1-based), with deterministic jitter.

        The jitter is a pure function of ``(seed, site, index, attempt)`` so
        two runs of the same failing sweep back off identically -- reproducing
        a flaky-looking run reproduces its timing too.
        """
        if attempt <= 0:
            return 0.0
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        token = f"{self.seed}:{site}:{index}:{attempt}".encode("utf-8")
        unit = int.from_bytes(hashlib.sha256(token).digest()[:8], "big") / 2.0**64
        return base * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class SweepFailure:
    """One task that exhausted its retry budget (or failed fatally).

    ``points`` names the sweep-point indices the failed task covered (a chunk
    task covers several); the seam that knows the mapping fills it in before
    reporting.
    """

    site: str
    index: int
    error_type: str
    message: str
    attempts: int
    timed_out: bool = False
    points: tuple = ()

    def as_dict(self) -> dict:
        return {
            "site": self.site,
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
            "points": list(self.points),
        }


class SweepFailureError(RuntimeError):
    """Raised instead of recording a :class:`SweepFailure` under ``strict``."""

    def __init__(self, failure: SweepFailure) -> None:
        super().__init__(
            f"{failure.site} task {failure.index} failed after "
            f"{failure.attempts} attempt(s): {failure.error_type}: {failure.message}"
        )
        self.failure = failure


_FAILURES: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "repro_runtime_sweep_failures", default=None
)


@contextlib.contextmanager
def collect_failures():
    """Scope an ambient failure sink; yields the list failures append to."""
    sink: list[SweepFailure] = []
    token = _FAILURES.set(sink)
    try:
        yield sink
    finally:
        _FAILURES.reset(token)


def report_failure(failure: SweepFailure) -> None:
    """Count a failure and deliver it to the innermost ambient sink (if any)."""
    current_registry().count("resilience.task_failures")
    sink = _FAILURES.get()
    if sink is not None:
        sink.append(failure)


# ---------------------------------------------------------------------- #
# The resilient pool
# ---------------------------------------------------------------------- #
@dataclass
class _Task:
    """Parent-side state of one submitted payload."""

    tag: object
    worker: object
    job: object
    site: str
    index: int
    attempt: int = 0
    deadline: float | None = None


class ResilientPool:
    """Retrying, deadline-enforcing executor over pure task payloads.

    ``submit``/``poll`` expose the streaming interface the chunk and
    trajectory seams use to keep the pool full; :meth:`run` is the ordered
    batch helper built on them (one network outer iteration is one call).  Outcomes are either the worker's return value or
    a :class:`SweepFailure`; under ``strict`` the first failure raises
    :class:`SweepFailureError` instead.

    ``jobs <= 1`` executes in-process (no pool is ever created), through the
    very same retry loop.  ``jobs > 1`` queues submissions and starts its
    workers only when the start rule (module docstring) says the queued work
    repays them; until then :meth:`poll` runs queued tasks in-process, one
    per call.  Deadlines are enforceable only under a pool --
    in-process execution cannot interrupt itself -- so ``task_timeout`` is
    ignored serially.  Parallel tasks that survive a pool recycle are
    resubmitted at their current attempt: payloads are pure, so re-running
    them is free of side effects and keeps ``jobs=N`` bitwise equal to
    serial.
    """

    def __init__(
        self,
        jobs: int,
        *,
        policy: RetryPolicy | None = None,
        task_timeout: float | None = None,
        strict: bool = False,
    ) -> None:
        self._jobs = max(1, int(jobs))
        self._policy = policy if policy is not None else DEFAULT_RETRY_POLICY
        self._timeout = task_timeout
        self._strict = strict
        self._pool: ProcessPoolExecutor | None = None
        self._respawns = 0
        self._degraded = False
        self._pending: dict[Future, _Task] = {}
        self._ready: list[tuple[object, object]] = []
        # Start-rule state: tasks waiting for the start decision, whether
        # this pool has started its workers, and in-process task timings.
        self._queued: list[_Task] = []
        self._started = False
        self._first_task_s: float | None = None
        self._recent_task_s: float | None = None

    @property
    def degraded(self) -> bool:
        """True once repeated pool failures forced in-process execution."""
        return self._degraded

    @property
    def serial(self) -> bool:
        return self._jobs <= 1 or self._degraded

    # -- submission ----------------------------------------------------------

    def _check_cancelled(self) -> None:
        """Abort everything if the ambient cancellation token tripped.

        Pending outcomes are dropped and the worker pool is torn down with
        its in-flight futures cancelled -- a cancelled sweep must stop
        consuming CPU, not merely stop being waited for.  Does not count as
        a respawn: cancellation is a caller decision, not a pool failure.
        """
        token = current_cancel_token()
        if token is None or not token.cancelled:
            return
        self._pending.clear()
        self._ready.clear()
        self._queued.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        current_registry().count("resilience.cancelled")
        raise TaskCancelledError(token)

    def submit(self, worker, job, *, site: str, index: int, tag=None) -> None:
        """Queue one payload; its outcome arrives through :meth:`poll`."""
        self._check_cancelled()
        task = _Task(
            tag=tag if tag is not None else (site, index),
            worker=worker,
            job=job,
            site=site,
            index=index,
        )
        if self.serial:
            self._ready.append((task.tag, self._run_in_process(task)))
        elif (
            self._started
            # Deadlines and injected faults need real worker processes.
            or self._timeout is not None
            or current_fault_plan() is not None
        ):
            self._start()
            self._submit_task(task)
        else:
            self._queued.append(task)

    # -- the start rule ------------------------------------------------------

    def _pool_pays(self) -> bool:
        """Would starting the workers now repay their cost (module docs)?"""
        remaining = len(self._queued)
        width = min(self._jobs, remaining)
        recent = self._recent_task_s or 0.0
        saving = remaining * recent * (1.0 - 1.0 / width)
        excess = max(0.0, (self._first_task_s or 0.0) - recent)
        return saving > _pool_start_cost_s() + excess

    def _start(self) -> None:
        if not self._started:
            self._started = True
            current_registry().count("resilience.pool_started")

    def _dispatch_queued(self) -> None:
        """Start the pool for every queued task, or run the next in-process."""
        if self._pool_pays():
            self._start()
            queued, self._queued = self._queued, []
            for task in queued:
                if self._degraded:
                    self._ready.append((task.tag, self._run_in_process(task)))
                else:
                    self._submit_task(task)
            return
        current_registry().count("resilience.pool_declined")
        task = self._queued.pop(0)
        self._ready.append((task.tag, self._run_in_process(task)))

    def _submit_task(self, task: _Task) -> None:
        registry = current_registry()
        plan = current_fault_plan()
        actions = (
            plan.actions_for(task.site, task.index, task.attempt)
            if plan is not None
            else ()
        )
        registry.count("resilience.attempts")
        if actions:
            registry.count("faults.injected", len(actions))
        while True:
            pool = self._ensure_pool()
            try:
                if actions:
                    future = pool.submit(
                        run_with_faults, actions, task.worker, task.job, True
                    )
                else:
                    future = pool.submit(task.worker, task.job)
            except BrokenProcessPool:
                # Broken before this task even entered it: recycle and retry
                # the submission (degradation falls back to in-process).
                self._recycle_pool()
                if self._degraded:
                    self._ready.append((task.tag, self._run_in_process(task)))
                    return
                continue
            if self._timeout is not None:
                task.deadline = time.monotonic() + self._timeout
            self._pending[future] = task
            return

    def _ensure_pool(self) -> ProcessPoolExecutor:
        global _last_start_s
        if self._pool is None:
            started = time.perf_counter()
            self._pool = ProcessPoolExecutor(
                max_workers=self._jobs,
                mp_context=_pool_mp_context(),
                initializer=_init_worker_env,
                initargs=(_worker_env_snapshot(),),
            )
            # Prime every worker before any deadline-bearing submission:
            # a deadline measures queue + run time, and must not be eaten
            # by worker startup (which can reach hundreds of ms right
            # after pool churn).  A pool too broken to run no-ops is left
            # for the real submission path, which recycles it.
            try:
                wait(
                    [self._pool.submit(_noop) for _ in range(self._jobs)],
                    timeout=60.0,
                )
            except BrokenProcessPool:
                pass
            _last_start_s = time.perf_counter() - started
            current_registry().count("resilience.pool_start_s", _last_start_s)
        return self._pool

    # -- in-process execution (serial mode and degraded mode) ----------------

    def _run_in_process(self, task: _Task):
        registry = current_registry()
        while True:
            self._check_cancelled()
            plan = current_fault_plan()
            actions = (
                plan.actions_for(task.site, task.index, task.attempt)
                if plan is not None
                else ()
            )
            registry.count("resilience.attempts")
            if actions:
                registry.count("faults.injected", len(actions))
            started = time.perf_counter()
            try:
                if actions:
                    outcome = run_with_faults(actions, task.worker, task.job, False)
                else:
                    outcome = task.worker(task.job)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as error:  # noqa: BLE001 - classified below
                failure = self._fail_or_retry(task, error)
                if failure is not None:
                    return failure
            else:
                self._recent_task_s = time.perf_counter() - started
                if self._first_task_s is None:
                    self._first_task_s = self._recent_task_s
                return outcome

    # -- shared retry bookkeeping --------------------------------------------

    def _fail_or_retry(
        self, task: _Task, error: BaseException
    ) -> SweepFailure | None:
        """Either schedule another attempt (returns ``None``, after backing
        off) or mint the task's terminal :class:`SweepFailure`."""
        retryable = self._policy.is_retryable(error)
        if retryable and task.attempt + 1 < self._policy.max_attempts:
            task.attempt += 1
            task.deadline = None
            current_registry().count("resilience.retries")
            delay = self._policy.backoff_s(task.site, task.index, task.attempt)
            if delay > 0.0:
                time.sleep(delay)
            return None
        failure = SweepFailure(
            site=task.site,
            index=task.index,
            error_type=type(error).__name__,
            message=str(error),
            attempts=task.attempt + 1,
            timed_out=isinstance(error, TimeoutError),
        )
        if self._strict:
            raise SweepFailureError(failure) from error
        return failure

    # -- completion ----------------------------------------------------------

    def poll(self) -> list[tuple[object, object]]:
        """Drain ready ``(tag, outcome)`` pairs, blocking until at least one
        is available (or nothing is pending)."""
        self._check_cancelled()
        while not self._ready and (self._pending or self._queued):
            if self._queued:
                self._dispatch_queued()
            else:
                self._wait_once()
        drained, self._ready = self._ready, []
        return drained

    def _wait_once(self) -> None:
        self._check_cancelled()
        timeout = None
        if self._timeout is not None:
            deadlines = [
                task.deadline
                for task in self._pending.values()
                if task.deadline is not None
            ]
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
        if current_cancel_token() is not None:
            # A token can trip from another thread mid-wait; bound the block
            # so cancellation is noticed promptly instead of after the next
            # task completes.
            timeout = min(timeout, 0.05) if timeout is not None else 0.05
        done, _ = wait(set(self._pending), timeout=timeout, return_when=FIRST_COMPLETED)

        broken = False
        orphans: list[_Task] = []
        for future in done:
            task = self._pending.pop(future)
            try:
                outcome = future.result()
            except BrokenProcessPool:
                broken = True
                orphans.append(task)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as error:  # noqa: BLE001 - classified below
                failure = self._fail_or_retry(task, error)
                if failure is not None:
                    self._ready.append((task.tag, failure))
                elif broken or self._pool is None:
                    orphans.append(task)
                else:
                    self._submit_task(task)
            else:
                self._ready.append((task.tag, outcome))

        if broken:
            # The culprit is indistinguishable from its victims: every task
            # that was in flight counts one attempt against a BrokenProcessPool
            # (safe -- payloads are pure), then rides into the respawned pool.
            orphans.extend(self._pending.values())
            self._pending.clear()
            self._recycle_pool()
            for task in orphans:
                failure = self._fail_or_retry(task, BrokenProcessPool("worker died"))
                if failure is not None:
                    self._ready.append((task.tag, failure))
                elif self._degraded:
                    self._ready.append((task.tag, self._run_in_process(task)))
                else:
                    self._submit_task(task)
            return

        if self._timeout is not None and self._pending:
            now = time.monotonic()
            overdue = [
                task
                for task in self._pending.values()
                if task.deadline is not None and task.deadline <= now
            ]
            if overdue:
                # A running future cannot be cancelled, so enforcement means
                # recycling the whole pool; the punctual survivors resubmit at
                # their current attempt (they did nothing wrong).
                current_registry().count("resilience.timeouts", len(overdue))
                overdue_set = {id(task) for task in overdue}
                survivors = [
                    task
                    for task in self._pending.values()
                    if id(task) not in overdue_set
                ]
                self._pending.clear()
                self._recycle_pool()
                for task in overdue:
                    failure = self._fail_or_retry(
                        task,
                        TimeoutError(
                            f"{task.site} task {task.index} exceeded its "
                            f"{self._timeout:g}s deadline"
                        ),
                    )
                    if failure is not None:
                        self._ready.append((task.tag, failure))
                    elif self._degraded:
                        self._ready.append((task.tag, self._run_in_process(task)))
                    else:
                        self._submit_task(task)
                for task in survivors:
                    if self._degraded:
                        self._ready.append((task.tag, self._run_in_process(task)))
                    else:
                        self._submit_task(task)

    def _recycle_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._respawns += 1
        registry = current_registry()
        registry.count("resilience.pool_respawns")
        if self._respawns > self._policy.max_pool_respawns and not self._degraded:
            self._degraded = True
            registry.count("resilience.degraded")

    # -- batch helper --------------------------------------------------------

    def run(self, worker, jobs_list, *, site: str, indices=None) -> list:
        """Run every payload and return outcomes in submission order."""
        jobs_list = list(jobs_list)
        indices = list(indices) if indices is not None else list(range(len(jobs_list)))
        if len(indices) != len(jobs_list):
            raise ValueError("indices must align with jobs_list")
        for position, (index, job) in enumerate(zip(indices, jobs_list)):
            self.submit(worker, job, site=site, index=index, tag=position)
        outcomes: dict[int, object] = {}
        while len(outcomes) < len(jobs_list):
            for tag, outcome in self.poll():
                outcomes[tag] = outcome
        return [outcomes[position] for position in range(len(jobs_list))]

    def shutdown(self, wait_: bool = True) -> None:
        self._queued.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=wait_)
            self._pool = None

    def __enter__(self) -> "ResilientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ---------------------------------------------------------------------- #
# Sweep checkpoints
# ---------------------------------------------------------------------- #
#: Identifies checkpoint files among arbitrary JSONL (ledger-style header).
CHECKPOINT_SCHEMA = "gprs-repro/sweep-checkpoint"

#: Bump on any backwards-incompatible entry change.
CHECKPOINT_SCHEMA_VERSION = 1


def payload_digest(payload: dict) -> str:
    """Content digest of one cached sweep-point payload (canonical JSON)."""
    rendering = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendering.encode("utf-8")).hexdigest()[:16]


class SweepCheckpoint:
    """JSONL journal of completed sweep points: ``{key, digest, site, index}``.

    The first line is a schema-versioned header; every later line records
    one completed point's cache key and payload digest.  :meth:`load`
    tolerates a missing file and a torn tail (see :mod:`repro.obs.journal`),
    but refuses a future schema version outright -- silently misreading a
    checkpoint would "resume" the wrong work.
    """

    def __init__(self, path, entries: dict | None = None) -> None:
        self.path = Path(path)
        self._entries: dict[str, str] = dict(entries or {})

    @classmethod
    def load(cls, path) -> "SweepCheckpoint":
        path = Path(path)
        records = read_jsonl(path) if path.exists() else []
        if records:
            check_schema(
                records[0][1], CHECKPOINT_SCHEMA, CHECKPOINT_SCHEMA_VERSION, source=path
            )
        entries: dict[str, str] = {}
        for _, record in records[1:]:
            key = record.get("key")
            digest = record.get("digest")
            if isinstance(key, str) and isinstance(digest, str):
                entries[key] = digest
        return cls(path, entries)

    def __len__(self) -> int:
        return len(self._entries)

    def has(self, key: str) -> bool:
        return key in self._entries

    def matches(self, key: str, digest: str) -> bool:
        return self._entries.get(key) == digest

    def record(self, *, site: str, index: int, key: str, digest: str) -> None:
        """Journal one completed point (appended and flushed immediately)."""
        from repro.runtime.cache import CODE_VERSION

        header = {
            "schema": CHECKPOINT_SCHEMA,
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "code_version": CODE_VERSION,
        }
        entry = {"key": key, "digest": digest, "site": site, "index": index}
        append_jsonl(self.path, [entry], header=header)
        self._entries[key] = digest
        current_registry().count("resilience.checkpointed_points")


def checkpointed_get(cache, key, checkpoint: SweepCheckpoint | None):
    """Cache lookup verified against the checkpoint journal.

    A hit whose payload digest matches its checkpointed digest counts as a
    *resumed* point; a mismatch (someone corrupted or replaced the cached
    bytes since the checkpoint was written) demotes the hit to a miss so the
    point is re-solved rather than silently served wrong.
    """
    if cache is None or key is None:
        return None
    payload = cache.get(key)
    if payload is None:
        return None
    if checkpoint is not None and checkpoint.has(key):
        if checkpoint.matches(key, payload_digest(payload)):
            current_registry().count("resilience.resumed_points")
        else:
            current_registry().count("resilience.checkpoint_mismatches")
            return None
    return payload
