"""Deterministic fault injection for the execution runtime.

Every recovery path of :mod:`repro.runtime.resilience` -- retry on a crashed
worker, pool respawn after ``BrokenProcessPool``, deadline timeouts,
quarantine of corrupt cache entries -- is exercised by *injected* faults
rather than trusted: a :class:`FaultPlan` names exactly which task fails,
how, and how many times, and the chaos tests assert that the run still
produces the fault-free numbers.

Determinism is the whole point, so faults are resolved **in the parent
process at submission time**: the plan maps ``(site, task index, attempt)``
to the actions that fire on that attempt, and the resolved actions travel
inside the submitted call (:func:`run_with_faults`).  Worker processes never
consult the plan, so a fault can never re-fire "by accident" in a respawned
worker, and a retried attempt beyond a rule's ``times`` budget runs the
identical pure payload.

The spec grammar (the ``REPRO_FAULTS`` environment variable and the CLI's
``--inject-faults``) is a comma-separated list of rules::

    site@index=action[:arg][*times]

    chunk@1=kill                 kill the worker solving chunk 1 (SIGKILL)
    cell@2=timeout:5             cell task 2 sleeps 5 s (past any deadline)
    trajectory@0=raise*2         trajectory 0 raises on its first 2 attempts
    cache@0=corrupt              truncate the first content-store entry written

Sites are the three execution seams (``chunk`` / ``cell`` / ``trajectory``,
indexed by task dispatch order) plus ``cache``, indexed by the order of puts
to the content store (:mod:`repro.store.content`) across both codecs --
result-cache and artifact-store puts share one ordinal sequence.  A rule
fires while ``attempt < times`` (default 1), so a retried task eventually
escapes it.

Activation mirrors :mod:`repro.obs.trace`: a contextvar scoped by
:func:`inject_faults`, falling back to a lazily parsed ``REPRO_FAULTS``
environment plan.  When neither is set, :func:`current_fault_plan` is a
single contextvar read returning ``None`` -- the disabled path costs nothing
measurable (bounded alongside the tracer's <1% figure in ROADMAP.md).
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import signal
import time
from dataclasses import dataclass

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "WorkerKilled",
    "current_fault_plan",
    "inject_faults",
    "parse_fault_spec",
    "run_with_faults",
]

#: Environment variable holding a fault spec for the whole process tree.
FAULTS_ENV = "REPRO_FAULTS"

#: The execution seams a rule may target.
SITES = ("chunk", "cell", "trajectory", "cache")

#: The failure modes a rule may inject.
ACTIONS = ("raise", "timeout", "kill", "corrupt")


class InjectedFault(OSError):
    """A deliberately injected failure (classified retryable, like any OSError)."""


class WorkerKilled(InjectedFault):
    """Serial stand-in for SIGKILL: in-process execution cannot kill a worker."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule: fire ``action`` at ``(site, index)`` for ``times`` attempts."""

    site: str
    index: int
    action: str
    arg: float | None = None
    times: int = 1


def parse_fault_spec(spec: str) -> tuple[FaultRule, ...]:
    """Parse a comma-separated ``site@index=action[:arg][*times]`` spec."""
    rules = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        try:
            target, _, effect = part.partition("=")
            site, _, index_text = target.partition("@")
            effect, _, times_text = effect.partition("*")
            action, _, arg_text = effect.partition(":")
            site = site.strip()
            action = action.strip()
            if site not in SITES:
                raise ValueError(f"unknown site {site!r} (one of {', '.join(SITES)})")
            if action not in ACTIONS:
                raise ValueError(
                    f"unknown action {action!r} (one of {', '.join(ACTIONS)})"
                )
            rules.append(
                FaultRule(
                    site=site,
                    index=int(index_text),
                    action=action,
                    arg=float(arg_text) if arg_text else None,
                    times=int(times_text) if times_text else 1,
                )
            )
        except ValueError as error:
            raise ValueError(f"invalid fault rule {part!r}: {error}") from None
    return tuple(rules)


class FaultPlan:
    """An active set of fault rules, consulted by the parent at dispatch time."""

    def __init__(self, rules: tuple[FaultRule, ...]) -> None:
        self.rules = tuple(rules)
        # Ordinal of content-store puts (result cache and artifact store
        # alike) seen under this plan; the ``cache`` site indexes by it.  Mutable parent-side state only -- task-site
        # rules are resolved purely from (site, index, attempt).
        self._cache_puts = 0

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        return cls(parse_fault_spec(spec))

    def actions_for(self, site: str, index: int, attempt: int) -> tuple:
        """The ``(action, arg)`` pairs firing at this task attempt."""
        return tuple(
            (rule.action, rule.arg)
            for rule in self.rules
            if rule.site == site
            and rule.index == index
            and attempt < rule.times
            and rule.action != "corrupt"
        )

    def take_cache_corruption(self) -> bool:
        """Consume one cache-put ordinal; True when a ``cache`` rule fires on it."""
        ordinal = self._cache_puts
        self._cache_puts += 1
        return any(
            rule.site == "cache" and rule.index == ordinal and rule.action == "corrupt"
            for rule in self.rules
        )


_ACTIVE_PLAN: contextvars.ContextVar[FaultPlan | None] = contextvars.ContextVar(
    "repro_runtime_fault_plan", default=None
)

# The REPRO_FAULTS fallback, parsed at most once per process.
_ENV_PLAN: FaultPlan | None = None
_ENV_CHECKED = False


def current_fault_plan() -> FaultPlan | None:
    """The active fault plan, or ``None`` (the common, zero-cost case)."""
    plan = _ACTIVE_PLAN.get()
    if plan is not None:
        return plan
    global _ENV_PLAN, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        spec = os.environ.get(FAULTS_ENV)
        if spec:
            _ENV_PLAN = FaultPlan.parse(spec)
    return _ENV_PLAN


@contextlib.contextmanager
def inject_faults(spec: "str | FaultPlan"):
    """Scope a fault plan (CLI ``--inject-faults`` and the chaos tests)."""
    plan = spec if isinstance(spec, FaultPlan) else FaultPlan.parse(spec)
    token = _ACTIVE_PLAN.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE_PLAN.reset(token)


def run_with_faults(actions: tuple, worker, job, in_worker: bool):
    """Apply pre-resolved fault actions, then run ``worker(job)``.

    Top level so a process pool can pickle it; the serial path calls the very
    same function with ``in_worker=False``.  ``kill`` delivers SIGKILL to the
    current (worker) process -- the parent observes ``BrokenProcessPool`` --
    or raises :class:`WorkerKilled` in-process, where suicide would kill the
    whole run.  ``timeout`` sleeps past the deadline and then *continues*:
    under a pool the parent has long since timed the task out; serially there
    is no deadline to miss, so the sleep is the whole fault.
    """
    for action, arg in actions:
        if action == "raise":
            raise InjectedFault("injected fault: raise")
        if action == "kill":
            if in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            raise WorkerKilled("injected fault: worker killed (serial stand-in)")
        if action == "timeout":
            time.sleep(arg if arg is not None else 60.0)
    return worker(job)
