"""Parallel sweep execution with cache-aware scheduling and warm-started chunks.

The executor turns a :class:`~repro.runtime.spec.ScenarioSpec` (or a bare
parameter set, for the figure functions) into solved sweep points:

1. every point's cache key is computed from its *effective* parameters;
2. cached points are served immediately (and never touch a solver);
3. the remaining misses are grouped into **chunks of adjacent arrival rates**
   and solved -- in-process when ``jobs <= 1``, otherwise one chunk per task
   on a :class:`concurrent.futures.ProcessPoolExecutor`;
4. results are reassembled **in sweep order** regardless of completion order
   and written back to the cache.

Within one chunk the points are solved in sweep order through a shared
:class:`~repro.core.template.GeneratorTemplate` /
:class:`~repro.core.structured_solver.StructuredSolveContext`, and every
point is warm-started from the previous points' stationary vectors and
balanced handover rates (see :class:`~repro.core.model.GprsMarkovModel`) --
this is what makes a sweep dramatically cheaper than independent solves.
Chunk boundaries depend only on the sweep itself (never on ``jobs``), and the
serial path executes the very same chunks in order, so a ``jobs=4`` run is
bit-for-bit identical to ``jobs=1``.  ``warm=False`` restores the fully
independent per-point behaviour (fresh enumeration, paper-seeded handover
fixed point, cold solver start) -- the ``--cold`` CLI flag exposes it for A/B
timing.  Per-point seeds come from :meth:`ScenarioSpec.point_seed` and are
deterministic in the point index.

Cache semantics: keys hash the effective parameters and solver settings,
*not* the warm/chunk provenance.  Every value stored under a key is accurate
to the key's ``solver_tol`` regardless of which chunk-mates seeded it, so
warm, cold and partially-cached runs may differ from each other -- but only
within solver tolerance (asserted down to 1e-8 at converged tolerances in
``benchmarks/test_bench_sweep_warmstart.py``).  Bitwise reproducibility is
therefore guaranteed *given the same cache state* (in particular
``jobs=N`` vs. serial, which always read the same hits); for bitwise A/B
comparisons between warm and cold runs, disable the cache.

:func:`execution_options` provides an ambient (contextvar-based) way to switch
existing call chains -- ``run_experiment`` down through ``sweep_arrival_rates``
-- to parallel/cached execution without threading arguments through every
figure function.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.measures import GprsPerformanceMeasures
from repro.core.model import GprsMarkovModel
from repro.core.parameters import GprsModelParameters
from repro.obs.metrics import absorb_export, current_registry, export_delta
from repro.obs.trace import current_tracer
from repro.runtime.cache import ResultCache, result_key
from repro.runtime.resilience import (
    ResilientPool,
    RetryPolicy,
    SweepCheckpoint,
    SweepFailure,
    checkpointed_get,
    collect_failures,
    payload_digest,
    report_failure,
)
from repro.runtime.spec import ScenarioSpec, parameters_from_dict, parameters_to_dict

if TYPE_CHECKING:  # imported lazily at runtime to keep runtime below experiments
    from repro.experiments.scale import ExperimentScale

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ExecutionOptions",
    "ScenarioRunResult",
    "SweepPoint",
    "current_options",
    "execution_options",
    "run_sweep",
    "sweep_measure_dicts",
]

#: Sweep points per warm-started chunk.  A chunk is the unit of parallel
#: scheduling *and* of warm-start continuation, so the value trades parallel
#: width against the fraction of points that benefit from a warm start; it is
#: deliberately independent of ``jobs`` so that parallel runs stay bitwise
#: identical to serial ones.
DEFAULT_CHUNK_SIZE = 8

#: How many previous stationary vectors each point's solver may extrapolate
#: from (see ``initial_distribution`` of GprsMarkovModel).
_WARM_HISTORY = 4


# ---------------------------------------------------------------------- #
# Ambient execution options
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExecutionOptions:
    """Ambient defaults for sweep execution.

    Attributes
    ----------
    jobs:
        Worker processes (1 = serial, in-process).
    cache:
        Content-addressed result cache, or ``None`` for uncached runs.
    warm:
        Enable sweep-aware incremental solving (generator templates plus
        warm-started handover balancing and steady-state solves) within each
        chunk of adjacent arrival rates.
    chunk_size:
        Points per warm-started chunk (also the parallel scheduling unit).
    retry:
        The :class:`~repro.runtime.resilience.RetryPolicy` applied to every
        chunk/cell/trajectory task (``None`` = the default policy).
    task_timeout:
        Per-task deadline in seconds, enforced through future timeouts on
        the parallel paths (``None`` disables; serial execution cannot
        interrupt itself, so the knob is ignored in-process).
    strict:
        Fail fast on the first exhausted task
        (:class:`~repro.runtime.resilience.SweepFailureError`) instead of
        recording a structured :class:`~repro.runtime.resilience.SweepFailure`
        per affected point and finishing the sweep.
    checkpoint:
        A :class:`~repro.runtime.resilience.SweepCheckpoint` journal of
        completed points; requires a cache (resuming serves checkpointed
        points from it).
    """

    jobs: int = 1
    cache: ResultCache | None = None
    warm: bool = True
    chunk_size: int = DEFAULT_CHUNK_SIZE
    retry: RetryPolicy | None = None
    task_timeout: float | None = None
    strict: bool = False
    checkpoint: SweepCheckpoint | None = None
    #: Start each chunk's first point from the persisted warm-seed stack of
    #: the previous run over this configuration (artifact store required).
    #: Off by default: a seeded start converges to the same measures only
    #: within solver tolerance, not bitwise, so it is strictly opt-in --
    #: unlike every other store seam, which is bitwise-faithful.
    seed_from_store: bool = False


_OPTIONS: contextvars.ContextVar[ExecutionOptions] = contextvars.ContextVar(
    "repro_runtime_execution_options", default=ExecutionOptions()
)


def current_options() -> ExecutionOptions:
    """Return the execution options active in this context."""
    return _OPTIONS.get()


@contextlib.contextmanager
def execution_options(
    jobs: int = 1,
    cache: ResultCache | None = None,
    warm: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    retry: RetryPolicy | None = None,
    task_timeout: float | None = None,
    strict: bool = False,
    checkpoint: SweepCheckpoint | None = None,
    seed_from_store: bool = False,
):
    """Scope ambient execution options (used by ``run_experiment`` and the CLI)."""
    token = _OPTIONS.set(
        ExecutionOptions(
            jobs=jobs,
            cache=cache,
            warm=warm,
            chunk_size=chunk_size,
            retry=retry,
            task_timeout=task_timeout,
            strict=strict,
            checkpoint=checkpoint,
            seed_from_store=seed_from_store,
        )
    )
    try:
        yield
    finally:
        _OPTIONS.reset(token)


# ---------------------------------------------------------------------- #
# Chunk solving (the worker entry point must stay top-level: it is pickled)
# ---------------------------------------------------------------------- #
def _seed_store_key(params, solver: str, solver_tol: float) -> str:
    """Artifact key of one configuration's warm-seed distribution stack."""
    from repro.core.template import _fixed_fingerprint
    from repro.store.artifacts import artifact_key

    return artifact_key(
        "warm-seed",
        {
            "fingerprint": [repr(part) for part in _fixed_fingerprint(params)],
            "solver": solver,
            "solver_tol": solver_tol,
        },
    )


def _solve_chunk_points(
    point_dicts: list[dict],
    solver: str,
    solver_tol: float,
    warm: bool,
    shared: tuple | None = None,
    seed_from_store: bool = False,
) -> tuple[list[dict], tuple | None]:
    """Solve adjacent sweep points in order, warm-starting each from the last.

    Returns the measure dictionaries plus the reusable ``(space, template,
    context)`` triple so the serial path can share them across chunks (the
    warm-start *state* -- previous distributions and handover rates -- is
    deliberately not shared: it resets at every chunk boundary, which is what
    keeps chunked parallel runs bitwise identical to serial ones).

    When an ambient artifact store is active, the chunk's final warm-start
    stack is persisted as a ``warm-seed`` artifact for the configuration --
    a later run over the same configuration (a denser sweep, a re-run after
    a cache invalidation) can start its cold first point from it, but only
    behind the explicit ``seed_from_store`` opt-in: a seeded start converges
    to the same answer within solver tolerance, not bitwise (the solver's
    acceptance gates discard a seed that does not actually help).
    """
    if not warm:
        results = []
        for point in point_dicts:
            params = parameters_from_dict(point)
            model = GprsMarkovModel(params, solver_method=solver, solver_tol=solver_tol)
            results.append(model.solve().measures.as_dict())
        return results, None

    from repro.core.model import build_solver_scaffold
    from repro.store.artifacts import current_store

    store = current_store()
    space = template = context = None
    if shared is not None:
        space, template, context = shared

    seed_stack = None
    seed_key = None
    if store is not None and point_dicts:
        first_params = parameters_from_dict(point_dicts[0])
        seed_key = _seed_store_key(first_params, solver, solver_tol)
        if seed_from_store:
            loaded = store.get(seed_key)
            if loaded is not None:
                stack = loaded[0].get("stack")
                if stack is not None and stack.ndim == 2:
                    seed_stack = np.asarray(stack, dtype=float)

    results = []
    history: list[np.ndarray] = []
    previous_handover = None
    for point in point_dicts:
        params = parameters_from_dict(point)
        if space is None:
            space, template, context = build_solver_scaffold(params, solver)
        initial = np.stack(history, axis=0) if history else None
        if initial is None and seed_stack is not None:
            if seed_stack.shape[1] == space.size:
                initial = seed_stack
                current_registry().count("executor.store_seeded")
            seed_stack = None  # only ever seeds the chunk's first solve
        model = GprsMarkovModel(
            params,
            solver_method=solver,
            solver_tol=solver_tol,
            initial_distribution=initial,
            initial_handover_rates=previous_handover,
            generator_template=template,
            state_space=space,
            structured_context=context,
        )
        solution = model.solve()
        previous_handover = solution.handover
        history.append(solution.steady_state.distribution)
        if len(history) > _WARM_HISTORY:
            history.pop(0)
        results.append(solution.measures.as_dict())
    if store is not None and seed_key is not None and history:
        rates = [
            parameters_from_dict(point).total_call_arrival_rate
            for point in point_dicts
        ]
        try:
            store.put(
                seed_key,
                {"stack": np.stack(history, axis=0)},
                {"rates": rates[-len(history):]},
            )
        except OSError:
            pass  # an unwritable store never blocks a solve
    return results, (space, template, context)


def _solve_chunk_task(job: tuple) -> tuple[list[dict], dict]:
    """Worker entry point: solve one chunk in a fresh process.

    ``job`` is the ``(point_dicts, solver, solver_tol, warm,
    seed_from_store)`` payload -- one picklable tuple, the
    :class:`~repro.runtime.resilience.ResilientPool` task shape.  Returns
    ``(measure_dicts, metrics_export)``: the export piggybacks the worker
    registry's delta (stamped with the worker PID) back to the parent, which
    merges it only when it really crossed a process boundary.
    """
    point_dicts, solver, solver_tol, warm, seed_from_store = job
    baseline = current_registry().snapshot()
    results = _solve_chunk_points(
        point_dicts, solver, solver_tol, warm, None, seed_from_store
    )[0]
    return results, export_delta(baseline)


def _chunked(indices: list[int], count: int, chunk_size: int) -> list[list[int]]:
    """Group ``indices`` by the fixed chunk grid over ``range(count)``.

    The grid depends only on the sweep length and the chunk size -- never on
    ``jobs`` or on which points were cache hits -- so for a given cache state
    the scheduling (worker count, completion order) can never change
    numerical results.  Cache hits do leave gaps inside a chunk, which
    shortens the warm-start history of the remaining misses; that shifts
    results only within solver tolerance (see the module docstring).
    """
    size = max(1, int(chunk_size))
    members: dict[int, list[int]] = {}
    for index in indices:
        members.setdefault(index // size, []).append(index)
    return [members[block] for block in sorted(members)]


def sweep_measure_dicts(
    base_parameters: GprsModelParameters,
    arrival_rates: tuple[float, ...],
    *,
    solver: str = "auto",
    solver_tol: float = 1e-9,
    jobs: int = 1,
    cache: ResultCache | None = None,
    warm: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    retry: RetryPolicy | None = None,
    task_timeout: float | None = None,
    strict: bool = False,
    checkpoint: SweepCheckpoint | None = None,
    seed_from_store: bool = False,
) -> list[tuple[dict | None, bool]]:
    """Solve every sweep point, cache-aware and optionally in parallel.

    Returns one ``(measures_dict, from_cache)`` pair per arrival rate, in
    sweep order.  This is the single execution path shared by the scenario
    runtime and the figure sweeps, so both enjoy the same cache, the same
    parallelism and the same warm-started chunking (``warm``/``chunk_size``,
    see the module docstring).

    Chunk tasks execute under ``retry``/``task_timeout`` through a
    :class:`~repro.runtime.resilience.ResilientPool` (chunks are indexed by
    their ordinal for deterministic fault injection).  A chunk that exhausts
    its attempts leaves ``None`` in place of its points' measure dicts and
    reports one :class:`~repro.runtime.resilience.SweepFailure` naming them
    (``strict`` raises instead).  ``checkpoint`` journals every completed
    point's cache key and payload digest; on a later run, checkpointed
    points are served from the cache (digest-verified) without a solve.
    """
    point_dicts = [
        parameters_to_dict(base_parameters.with_arrival_rate(rate))
        for rate in arrival_rates
    ]
    keys = (
        [result_key(point, solver=solver, solver_tol=solver_tol) for point in point_dicts]
        if cache is not None
        else None
    )

    results: dict[int, dict] = {}
    from_cache: dict[int, bool] = {}
    misses: list[int] = []
    for index in range(len(point_dicts)):
        payload = (
            checkpointed_get(cache, keys[index], checkpoint)
            if cache is not None
            else None
        )
        if payload is not None:
            results[index] = payload
            from_cache[index] = True
        else:
            misses.append(index)
            from_cache[index] = False

    workers = max(1, int(jobs))
    writable = True

    def persist(chunk: list[int]) -> None:
        """Store and journal one completed chunk's points *immediately*.

        Persistence is per chunk, as outcomes arrive, so a later abort (a
        strict failure, a kill) loses at most the in-flight work -- a
        ``--checkpoint`` resume re-solves only the unfinished chunks.
        """
        nonlocal writable
        if cache is None or not writable:
            return
        for index in chunk:
            if index not in results:
                continue  # the point's chunk failed; nothing to persist
            try:
                cache.put(keys[index], results[index])
            except OSError:
                # An unwritable cache degrades to a cold one: the solved
                # results are still returned, nothing is persisted.
                writable = False
                return
            if checkpoint is not None:
                checkpoint.record(
                    site="chunk",
                    index=index,
                    key=keys[index],
                    digest=payload_digest(results[index]),
                )

    if misses:
        registry = current_registry()
        chunks = _chunked(misses, len(point_dicts), chunk_size if warm else 1)
        registry.count("executor.chunks", len(chunks))
        for chunk in chunks:
            registry.observe("executor.chunk_points", len(chunk))
        if workers > 1 and len(chunks) > 1:
            pool_width = min(workers, len(chunks))
            registry.gauge("executor.pool_width", pool_width)
            with current_tracer().span(
                "executor.parallel_chunks", chunks=len(chunks), jobs=pool_width
            ), ResilientPool(
                pool_width, policy=retry, task_timeout=task_timeout, strict=strict
            ) as pool:
                for ordinal, chunk in enumerate(chunks):
                    pool.submit(
                        _solve_chunk_task,
                        (
                            [point_dicts[index] for index in chunk],
                            solver,
                            solver_tol,
                            warm,
                            seed_from_store,
                        ),
                        site="chunk",
                        index=ordinal,
                        tag=ordinal,
                    )
                pending = len(chunks)
                while pending:
                    for tag, outcome in pool.poll():
                        pending -= 1
                        chunk = chunks[tag]
                        if isinstance(outcome, SweepFailure):
                            report_failure(replace(outcome, points=tuple(chunk)))
                            continue
                        solved, export = outcome
                        absorb_export(export, registry)
                        for index, values in zip(chunk, solved):
                            results[index] = values
                        persist(chunk)
        else:
            shared = None
            runner = ResilientPool(1, policy=retry, strict=strict)
            for ordinal, chunk in enumerate(chunks):
                with current_tracer().span(
                    "executor.chunk", points=len(chunk)
                ):
                    job = (
                        [point_dicts[index] for index in chunk],
                        solver,
                        solver_tol,
                        warm,
                        shared,
                        seed_from_store,
                    )
                    outcome = runner.run(
                        lambda args: _solve_chunk_points(*args),
                        [job],
                        site="chunk",
                        indices=[ordinal],
                    )[0]
                if isinstance(outcome, SweepFailure):
                    report_failure(replace(outcome, points=tuple(chunk)))
                    continue
                solved, shared = outcome
                for index, values in zip(chunk, solved):
                    results[index] = values
                persist(chunk)

    return [
        (results.get(index), from_cache[index]) for index in range(len(arrival_rates))
    ]


# ---------------------------------------------------------------------- #
# Scenario-level API
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepPoint:
    """One solved point of a scenario sweep."""

    index: int
    arrival_rate: float
    seed: int
    values: dict[str, float]
    from_cache: bool = False
    failed: bool = False

    def metric(self, name: str) -> float:
        return self.values[name]


@dataclass(frozen=True)
class ScenarioRunResult:
    """All points of one scenario run, in sweep order, plus cache accounting.

    ``failures`` holds the structured
    :class:`~repro.runtime.resilience.SweepFailure` records of any points
    that could not be solved (their :class:`SweepPoint` is marked ``failed``
    with empty values); metric accessors refuse a partial result rather than
    silently returning a shorter series.
    """

    spec: ScenarioSpec
    scale: ExperimentScale
    points: tuple[SweepPoint, ...]
    cache_hits: int = 0
    cache_misses: int = 0
    failures: tuple[SweepFailure, ...] = ()

    @property
    def arrival_rates(self) -> tuple[float, ...]:
        return tuple(point.arrival_rate for point in self.points)

    def _check_complete(self) -> None:
        bad = [point.index for point in self.points if point.failed]
        if bad:
            raise RuntimeError(
                f"sweep point(s) {bad} failed; see result.failures for details"
            )

    def series(self, metric: str) -> tuple[float, ...]:
        """Return one metric across the sweep, aligned with ``arrival_rates``."""
        self._check_complete()
        return tuple(point.values[metric] for point in self.points)

    def measures(self) -> tuple[GprsPerformanceMeasures, ...]:
        """Return the full measure objects (one per point)."""
        self._check_complete()
        return tuple(GprsPerformanceMeasures(**point.values) for point in self.points)

    def as_dict(self) -> dict:
        """JSON-serialisable rendering (spec, per-point values, cache stats)."""
        return {
            "scenario": self.spec.to_dict(),
            "scale": self.scale.to_dict(),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "failures": [failure.as_dict() for failure in self.failures],
            "points": [
                {
                    "index": point.index,
                    "arrival_rate": point.arrival_rate,
                    "seed": point.seed,
                    "from_cache": point.from_cache,
                    "failed": point.failed,
                    "values": dict(point.values),
                }
                for point in self.points
            ],
        }


def run_sweep(
    spec: ScenarioSpec,
    scale: ExperimentScale | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None | str = "ambient",
    warm: bool | None = None,
    chunk_size: int | None = None,
    retry: RetryPolicy | None = None,
    task_timeout: float | None = None,
    strict: bool | None = None,
    checkpoint: SweepCheckpoint | None = None,
    seed_from_store: bool | None = None,
) -> ScenarioRunResult:
    """Run one scenario sweep and return its ordered points.

    Parameters
    ----------
    spec:
        The scenario to run (typically from :data:`repro.runtime.SCENARIOS`).
    scale:
        Experiment scale preset; defaults to
        :meth:`~repro.experiments.scale.ExperimentScale.default`.
    jobs:
        Worker processes; ``None`` takes the ambient
        :func:`execution_options` value (default 1 = serial, in-process).
    cache:
        A :class:`~repro.runtime.cache.ResultCache`, ``None`` to disable
        caching, or the sentinel ``"ambient"`` (default) to take the cache
        from :func:`execution_options`.
    warm, chunk_size:
        Sweep-aware incremental solving knobs (see :class:`ExecutionOptions`);
        ``None`` takes the ambient values.
    retry, task_timeout, strict, checkpoint:
        Fault-tolerance knobs (see :class:`ExecutionOptions`); ``None``
        takes the ambient values.  Failed points come back marked
        ``failed`` with their
        :class:`~repro.runtime.resilience.SweepFailure` records attached to
        the result; ``strict`` raises
        :class:`~repro.runtime.resilience.SweepFailureError` at the first
        exhausted task instead.
    seed_from_store:
        Opt-in warm-seed start from the artifact store (single-cell sweeps
        only; see :class:`ExecutionOptions`); ``None`` takes the ambient
        value.

    Network scenarios (a topology attached to the spec) run through
    :func:`repro.network.sweep.network_sweep_payloads` instead: each point is
    a joint multi-cell solve, ``jobs`` parallelises the cells within a point,
    and the returned values are the network-mean measures (use
    :func:`repro.network.sweep.run_network_sweep` for per-cell detail).

    Transient scenarios (a workload profile attached to the spec) run through
    :func:`repro.transient.sweep.transient_sweep_payloads`: each point is a
    full time-dependent trajectory at that base arrival rate, ``jobs``
    parallelises the independent trajectories, and the returned values are
    the trajectory's *time-averaged* measures (use
    :func:`repro.transient.sweep.run_transient_sweep` for the full
    trajectories).
    """
    from repro.experiments.scale import ExperimentScale

    scale = scale or ExperimentScale.default()
    options = current_options()
    effective_jobs = options.jobs if jobs is None else jobs
    effective_cache = options.cache if cache == "ambient" else cache
    effective_warm = options.warm if warm is None else warm
    effective_chunk = options.chunk_size if chunk_size is None else chunk_size
    effective_retry = options.retry if retry is None else retry
    effective_timeout = options.task_timeout if task_timeout is None else task_timeout
    effective_strict = options.strict if strict is None else strict
    effective_checkpoint = options.checkpoint if checkpoint is None else checkpoint
    effective_seed = (
        options.seed_from_store if seed_from_store is None else seed_from_store
    )

    rates = spec.sweep_rates(scale)
    with collect_failures() as failures:
        if spec.network is not None:
            from repro.network.sweep import network_sweep_payloads

            if chunk_size is not None:
                # Network sweeps have no point-chunking (cells parallelise
                # within a point); rejecting the knob beats silently
                # ignoring it.
                raise ValueError(
                    "chunk_size applies only to single-cell scenarios; network "
                    "sweeps parallelise across cells within each point"
                )
            payloads = network_sweep_payloads(
                spec,
                scale,
                jobs=effective_jobs,
                cache=effective_cache,
                warm=effective_warm,
                retry=effective_retry,
                task_timeout=effective_timeout,
                strict=effective_strict,
                checkpoint=effective_checkpoint,
            )
            solved = [
                (payload["aggregates"] if payload is not None else None, hit)
                for payload, hit in payloads
            ]
        elif spec.transient is not None:
            from repro.transient.sweep import transient_sweep_payloads

            if chunk_size is not None:
                # Transient sweeps have no point-chunking (whole trajectories
                # parallelise); rejecting the knob beats silently ignoring it.
                raise ValueError(
                    "chunk_size applies only to single-cell scenarios; "
                    "transient sweeps parallelise across independent "
                    "trajectories"
                )
            payloads = transient_sweep_payloads(
                spec,
                scale,
                jobs=effective_jobs,
                cache=effective_cache,
                warm=effective_warm,
                retry=effective_retry,
                task_timeout=effective_timeout,
                strict=effective_strict,
                checkpoint=effective_checkpoint,
            )
            solved = [
                (payload["time_averages"] if payload is not None else None, hit)
                for payload, hit in payloads
            ]
        else:
            params = spec.parameters(scale)
            solved = sweep_measure_dicts(
                params,
                rates,
                solver=spec.solver,
                jobs=effective_jobs,
                cache=effective_cache,
                warm=effective_warm,
                chunk_size=effective_chunk,
                retry=effective_retry,
                task_timeout=effective_timeout,
                strict=effective_strict,
                checkpoint=effective_checkpoint,
                seed_from_store=effective_seed,
            )
    points = tuple(
        SweepPoint(
            index=index,
            arrival_rate=rate,
            seed=spec.point_seed(index),
            values=values if values is not None else {},
            from_cache=hit,
            failed=values is None,
        )
        for index, (rate, (values, hit)) in enumerate(zip(rates, solved))
    )
    hits = sum(1 for point in points if point.from_cache)
    return ScenarioRunResult(
        spec=spec,
        scale=scale,
        points=points,
        cache_hits=hits,
        cache_misses=len(points) - hits,
        failures=tuple(failures),
    )
