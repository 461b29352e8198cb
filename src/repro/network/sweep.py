"""Arrival-rate sweeps over a whole topology, cached and warm-continued.

A network sweep point is one :class:`~repro.network.model.NetworkModel` solve
at one base arrival rate: the swept rate applies to every cell (hot cells
scale it through their ``arrival_rate_multiplier`` override), so a sweep
answers "how does the whole network degrade as load grows".  Points are
solved in ascending rate order; with ``warm=True`` each point seeds the next
one's Erlang pre-pass with its converged rates and warm-starts even the first
CTMC outer iteration with the previous point's stationary vectors, while the
cells *within* a point are solved in parallel (``jobs``).

Each solved point is stored in the content-addressed result cache under a key
that hashes the effective base-cell parameters *plus the topology digest*
(routing matrix and per-cell overrides), with the computation kind set to
``"network"`` -- two topologies never share entries, and a network point can
never collide with a single-cell sweep point of the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.network.model import NetworkModel

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.runtime reaches into this package for
    # its scenario registry, so module-level imports here would make the
    # dependency bidirectional (repro.network stays importable standalone).
    from repro.experiments.scale import ExperimentScale
    from repro.runtime.cache import ResultCache
    from repro.runtime.spec import ScenarioSpec

__all__ = [
    "NetworkSweepPoint",
    "NetworkSweepResult",
    "network_sweep_payloads",
    "run_network_sweep",
]


@dataclass(frozen=True)
class NetworkSweepPoint:
    """One solved (or cache-served) network sweep point.

    ``payload`` is ``None`` for a point whose solve failed terminally in a
    non-strict run (see :class:`~repro.runtime.resilience.SweepFailure`).
    """

    index: int
    arrival_rate: float
    payload: dict | None
    from_cache: bool = False

    @property
    def failed(self) -> bool:
        return self.payload is None

    @property
    def aggregates(self) -> dict[str, float]:
        self._require_payload()
        return self.payload["aggregates"]

    @property
    def cells(self) -> list[dict]:
        self._require_payload()
        return self.payload["cells"]

    def aggregate(self, metric: str) -> float:
        self._require_payload()
        return self.payload["aggregates"][metric]

    def cell_series(self, metric: str) -> tuple[float, ...]:
        """One measure across cells at this point, in cell order."""
        self._require_payload()
        return tuple(cell["values"][metric] for cell in self.payload["cells"])

    def _require_payload(self) -> None:
        if self.payload is None:
            raise RuntimeError(
                f"network sweep point {self.index} (rate {self.arrival_rate:g}) "
                "failed; no measures are available"
            )


@dataclass(frozen=True)
class NetworkSweepResult:
    """All points of one network scenario sweep, in sweep order."""

    spec: "ScenarioSpec"
    scale: "ExperimentScale"
    points: tuple[NetworkSweepPoint, ...]
    cache_hits: int = 0
    cache_misses: int = 0
    failures: tuple = ()

    @property
    def arrival_rates(self) -> tuple[float, ...]:
        return tuple(point.arrival_rate for point in self.points)

    def series(self, metric: str) -> tuple[float, ...]:
        """The network-mean of ``metric`` across the sweep."""
        return tuple(point.aggregate(metric) for point in self.points)

    def as_dict(self) -> dict:
        return {
            "scenario": self.spec.to_dict(),
            "scale": self.scale.to_dict(),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "failures": [failure.as_dict() for failure in self.failures],
            "points": [
                {
                    "index": point.index,
                    "arrival_rate": point.arrival_rate,
                    "from_cache": point.from_cache,
                    "failed": point.failed,
                    **(point.payload or {}),
                }
                for point in self.points
            ],
        }


def network_sweep_payloads(
    spec: "ScenarioSpec",
    scale: "ExperimentScale",
    *,
    solver_tol: float = 1e-9,
    jobs: int = 1,
    cache: "ResultCache | None" = None,
    warm: bool = True,
    retry=None,
    task_timeout: float | None = None,
    strict: bool = False,
    checkpoint=None,
    pool=None,
) -> list[tuple[dict | None, bool]]:
    """Solve every point of a network scenario sweep, cache-aware.

    ``pool`` injects an externally owned
    :class:`~repro.runtime.resilience.ResilientPool` -- the long-lived
    service uses it so its workers (and their per-process scaffold caches)
    survive across requests.  An injected pool is never shut down here;
    without one, the sweep creates and owns its own pool.

    Returns one ``(payload, from_cache)`` pair per arrival rate, in sweep
    order; payloads are :meth:`~repro.network.model.NetworkResult.as_dict`
    renderings.  ``warm=False`` disables both the point-to-point continuation
    and the within-point warm starts across outer iterations (the ``--cold``
    A/B knob); values shift only within solver tolerance.

    Cell solves run under ``retry`` / ``task_timeout``
    (:mod:`repro.runtime.resilience`); a point whose solve fails terminally
    is reported through :func:`~repro.runtime.resilience.report_failure` and
    returned as ``(None, False)`` unless ``strict`` re-raises.  ``checkpoint``
    journals each completed point's cache key so an interrupted sweep resumes
    from cache.
    """
    from dataclasses import replace as dc_replace

    from repro.runtime.cache import result_key
    from repro.runtime.resilience import (
        ResilientPool,
        SweepFailureError,
        checkpointed_get,
        payload_digest,
        report_failure,
    )
    from repro.runtime.spec import parameters_to_dict

    if spec.network is None:
        raise ValueError(f"scenario {spec.name!r} has no network topology")
    topology = spec.network
    base = spec.parameters(scale)
    rates = spec.sweep_rates(scale)
    topology_dict = topology.to_dict()

    def key_for(params) -> str | None:
        if cache is None:
            return None
        return result_key(
            parameters_to_dict(params),
            solver=spec.solver,
            solver_tol=solver_tol,
            kind="network",
            network=topology_dict,
        )

    # One pool serves every point of the sweep: the workers stay alive, so
    # their per-process scaffold caches (templates, structured contexts)
    # survive from point to point exactly like the serial path's do.
    owned = pool is None
    if pool is None:
        pool = (
            ResilientPool(
                min(jobs, topology.number_of_cells),
                policy=retry,
                task_timeout=task_timeout,
                strict=strict,
            )
            if jobs > 1 and topology.number_of_cells > 1
            else None
        )
    results: list[tuple[dict | None, bool]] = []
    seed_rates = None
    seed_distributions = None
    writable = True
    try:
        for index, rate in enumerate(rates):
            params = base.with_arrival_rate(rate)
            key = key_for(params)
            payload = checkpointed_get(cache, key, checkpoint)
            if payload is not None:
                # A cache hit carries no stationary vectors, so the warm
                # continuation restarts at the next solved point.
                seed_rates = None
                seed_distributions = None
                results.append((payload, True))
                continue

            try:
                result = NetworkModel(
                    topology,
                    params,
                    solver_method=spec.solver,
                    solver_tol=solver_tol,
                    jobs=jobs,
                    warm=warm,
                    pool=pool,
                    initial_rates=seed_rates if warm else None,
                    initial_distributions=seed_distributions if warm else None,
                ).solve()
            except SweepFailureError as error:
                if strict:
                    raise
                report_failure(dc_replace(error.failure, points=(index,)))
                # The failed point leaves no continuation state behind.
                seed_rates = None
                seed_distributions = None
                results.append((None, False))
                continue
            payload = result.as_dict()
            if writable and key is not None:
                try:
                    cache.put(key, payload)
                except OSError:
                    # An unwritable cache stops persisting but keeps serving
                    # reads -- same degradation as the single-cell executor.
                    writable = False
                else:
                    if checkpoint is not None:
                        checkpoint.record(
                            site="network",
                            index=index,
                            key=key,
                            digest=payload_digest(payload),
                        )
            if warm:
                seed_rates = result.incoming_rates()
                seed_distributions = result.distributions
            results.append((payload, False))
    finally:
        if pool is not None and owned:
            pool.shutdown()
    return results


def run_network_sweep(
    spec: "ScenarioSpec",
    scale: "ExperimentScale | None" = None,
    *,
    jobs: int | None = None,
    cache: "ResultCache | None | str" = "ambient",
    warm: bool | None = None,
    retry=None,
    task_timeout: float | None = None,
    strict: bool | None = None,
    checkpoint=None,
    pool=None,
) -> NetworkSweepResult:
    """Run one network scenario sweep and return its per-cell points.

    The ``jobs`` / ``cache`` / ``warm`` arguments -- and the
    resilience knobs ``retry`` / ``task_timeout`` / ``strict`` /
    ``checkpoint`` -- resolve against the ambient
    :func:`~repro.runtime.executor.execution_options` exactly like
    :func:`~repro.runtime.executor.run_sweep`; ``jobs`` parallelises the
    cells within each point.  Terminal per-point failures land in
    :attr:`NetworkSweepResult.failures` (their points carry
    ``payload=None``) unless ``strict``.
    """
    from repro.experiments.scale import ExperimentScale
    from repro.runtime.executor import current_options
    from repro.runtime.resilience import collect_failures

    scale = scale or ExperimentScale.default()
    options = current_options()
    effective_jobs = options.jobs if jobs is None else jobs
    effective_cache = options.cache if cache == "ambient" else cache
    effective_warm = options.warm if warm is None else warm
    effective_retry = options.retry if retry is None else retry
    effective_timeout = options.task_timeout if task_timeout is None else task_timeout
    effective_strict = options.strict if strict is None else strict
    effective_checkpoint = options.checkpoint if checkpoint is None else checkpoint

    with collect_failures() as failures:
        solved = network_sweep_payloads(
            spec,
            scale,
            jobs=effective_jobs,
            cache=effective_cache,
            warm=effective_warm,
            retry=effective_retry,
            task_timeout=effective_timeout,
            strict=effective_strict,
            checkpoint=effective_checkpoint,
            pool=pool,
        )
    rates = spec.sweep_rates(scale)
    points = tuple(
        NetworkSweepPoint(
            index=index, arrival_rate=rate, payload=payload, from_cache=hit
        )
        for index, (rate, (payload, hit)) in enumerate(zip(rates, solved))
    )
    hits = sum(1 for point in points if point.from_cache)
    return NetworkSweepResult(
        spec=spec,
        scale=scale,
        points=points,
        cache_hits=hits,
        cache_misses=len(points) - hits,
        failures=tuple(failures),
    )
