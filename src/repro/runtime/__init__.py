"""Scenario runtime: declarative workloads, parallel sweeps, result caching.

This package is the execution layer above the analytical model and below the
CLI/benchmark harnesses.  It separates three concerns that the figure
functions used to interleave:

* **What to run** -- :class:`~repro.runtime.spec.ScenarioSpec`, a frozen,
  dict-serialisable description of one workload (traffic mix, radio and cell
  configuration, solver, sweep axis, metrics; optionally a multi-cell
  topology or a time-varying workload profile).  The registry in
  :mod:`repro.runtime.registry` ships the 11 paper figures plus extension
  workloads the paper never measured -- including multi-cell network
  scenarios and non-stationary transient scenarios; ``gprs-repro list``
  prints them.
* **How big to run it** -- an
  :class:`~repro.experiments.scale.ExperimentScale` preset (``smoke`` /
  ``default`` / ``paper``).  A scenario stores *paper-scale* sizes; the scale
  preset caps them at materialisation time, so the same spec serves smoke
  tests, CI benchmarks and full-fidelity reproduction, and each combination
  caches separately.
* **How to execute it** -- :func:`~repro.runtime.executor.run_sweep` groups
  the sweep points into chunks of adjacent arrival rates, shards the chunks
  across worker processes (``jobs=N``) with deterministic per-point seeds and
  reassembles results in sweep order, consulting a content-addressed
  :class:`~repro.runtime.cache.ResultCache` first.  Within a chunk each point
  reuses the chunk's generator template and warm-starts from its
  predecessors' solutions (disable with ``warm=False``); chunk boundaries
  never depend on ``jobs``, so parallel runs stay bitwise identical to
  serial ones.  Cache keys hash the *effective* parameters of each point
  plus a code-version tag (package version and a digest of the package
  sources), so warm reruns -- and any other scenario resolving to the same
  physics -- skip the solver entirely, while code edits invalidate
  everything at once.

Quickstart::

    from repro.runtime import ResultCache, default_cache_dir, run_sweep, scenario

    cache = ResultCache(default_cache_dir())
    result = run_sweep(scenario("heavy-gprs"), jobs=4, cache=cache)
    print(result.series("packet_loss_probability"))
"""

from repro.runtime.cache import (
    CODE_VERSION,
    ResultCache,
    default_cache_dir,
    result_key,
)
from repro.runtime.executor import (
    DEFAULT_CHUNK_SIZE,
    ExecutionOptions,
    ScenarioRunResult,
    SweepPoint,
    current_options,
    execution_options,
    run_sweep,
    sweep_measure_dicts,
)
from repro.runtime.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    current_fault_plan,
    inject_faults,
    parse_fault_spec,
)
from repro.runtime.registry import SCENARIOS, list_scenarios, register, scenario
from repro.runtime.resilience import (
    DEFAULT_RETRY_POLICY,
    CancelToken,
    ResilientPool,
    RetryPolicy,
    SweepCheckpoint,
    SweepFailure,
    SweepFailureError,
    TaskCancelledError,
    cancel_scope,
    collect_failures,
    current_cancel_token,
    payload_digest,
)
from repro.runtime.spec import (
    DEFAULT_METRICS,
    ScenarioSpec,
    parameters_from_dict,
    parameters_to_dict,
)

__all__ = [
    "CODE_VERSION",
    "CancelToken",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_METRICS",
    "DEFAULT_RETRY_POLICY",
    "ExecutionOptions",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "ResilientPool",
    "ResultCache",
    "RetryPolicy",
    "SCENARIOS",
    "ScenarioRunResult",
    "ScenarioSpec",
    "SweepCheckpoint",
    "SweepFailure",
    "SweepFailureError",
    "SweepPoint",
    "TaskCancelledError",
    "cancel_scope",
    "collect_failures",
    "current_cancel_token",
    "current_fault_plan",
    "current_options",
    "default_cache_dir",
    "execution_options",
    "inject_faults",
    "list_scenarios",
    "parameters_from_dict",
    "parameters_to_dict",
    "parse_fault_spec",
    "payload_digest",
    "register",
    "result_key",
    "run_sweep",
    "scenario",
    "sweep_measure_dicts",
]
