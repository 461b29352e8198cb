"""Joint solution of heterogeneous cells coupled by handover flows.

The paper closes the handover loop of a *single* cell with the homogeneity
assumption: the incoming handover rate equals the cell's own outgoing rate
(Eqs. (4)-(5)).  :class:`NetworkModel` replaces that assumption with the
actual network coupling -- the Marsan-style fixed point over a whole
topology: each cell's incoming GSM/GPRS handover rates are the
routing-weighted sum of its neighbours' outgoing rates,

    ``in_j = sum_i routing[i][j] * out_i``,

which lets the analytic model answer heterogeneous questions (hotspot cells,
uneven radio quality, mixed channel splits) that previously only the
discrete-event simulator could approach.

The solve runs in two stages:

1. **Erlang pre-pass.**  The network-wide fixed point is first iterated with
   the closed-form Erlang-loss outgoing rates
   (:func:`~repro.core.handover.cell_outgoing_rates`) -- the exact per-cell
   map of the paper's Eqs. (4)-(5), evaluated per cell and routed.  This
   costs microseconds per iteration and lands within the Erlang tolerance of
   the true rates.  In a homogeneous network with doubly stochastic routing
   the symmetric iterates collapse onto the single-cell iteration, so the
   pre-pass converges to the paper's own fixed point.
2. **CTMC outer iterations.**  Every cell's full CTMC is then solved with its
   incoming rates *pinned* (:meth:`HandoverBalance.pinned`), the outgoing
   rates are re-measured from the stationary distribution
   (``mu_h,GSM E[n]`` and ``mu_h,GPRS E[m]``) and routed, and the loop
   repeats until the incoming rates stop drifting.  Because the chain's GSM
   and session marginals are exact Erlang-loss birth-death processes, stage 2
   confirms stage 1 up to solver tolerance within an iteration or two -- but
   it is what makes the coupling honest (the rates the measures are computed
   from are the rates the chain itself emits) and it is the natural consumer
   of the warm-start machinery: per cell shape one
   :class:`~repro.core.template.GeneratorTemplate` /
   :class:`~repro.core.structured_solver.StructuredSolveContext` pair is
   shared across cells and outer iterations, and from the second iteration on
   every solve is warm-started from that cell's previous stationary vector.

Cells are independent within an iteration, so they are solved in parallel
(``jobs > 1``) through a process pool kept alive across the outer loop;
results are reassembled in cell order and workers run the identical per-cell
code path, which keeps parallel runs bitwise identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.handover import HandoverBalance, cell_outgoing_rates
from repro.core.measures import GprsPerformanceMeasures
from repro.core.model import GprsMarkovModel, build_solver_scaffold
from repro.core.parameters import GprsModelParameters
from repro.core.template import GeneratorTemplate
from repro.network.topology import CellTopology
from repro.obs.metrics import absorb_export, current_registry, export_delta
from repro.obs.trace import current_tracer
from repro.queueing.fixed_point import fixed_point_iteration

if TYPE_CHECKING:
    from repro.runtime.resilience import ResilientPool

__all__ = [
    "CellSolution",
    "NetworkModel",
    "NetworkResult",
    "network_erlang_rates",
]


# ---------------------------------------------------------------------- #
# Per-process scaffolding cache (shared across cells and outer iterations)
# ---------------------------------------------------------------------- #
#: Scaffolding (state space, generator template, structured context) keyed by
#: the fixed-parameter fingerprint and solver.  Lives at module level so that
#: pool workers -- which stay alive across the outer iterations of one solve
#: -- reuse it exactly like the serial path does.  Reuse is numerically
#: neutral (templates are bitwise-faithful), so it cannot break the
#: parallel == serial guarantee.
_SCAFFOLDS: dict[tuple, tuple] = {}
_SCAFFOLD_LIMIT = 8


def _scaffold_for(params: GprsModelParameters, solver: str) -> tuple:
    key = (GeneratorTemplate.fingerprint_of(params), solver)
    cached = _SCAFFOLDS.pop(key, None)
    if cached is None:
        if len(_SCAFFOLDS) >= _SCAFFOLD_LIMIT:
            # Evict the least recently used entry (hits re-insert below), so
            # even a cyclic access pattern over many shapes keeps its most
            # recent shapes cached instead of thrashing.
            _SCAFFOLDS.pop(next(iter(_SCAFFOLDS)))
        cached = build_solver_scaffold(params, solver)
    _SCAFFOLDS[key] = cached
    return cached


@dataclass(frozen=True)
class _CellSolve:
    """Raw outcome of one cell solve (worker return value, picklable)."""

    measures: GprsPerformanceMeasures
    gsm_outgoing_rate: float
    gprs_outgoing_rate: float
    distribution: np.ndarray
    warm: bool
    iterations: int


def _solve_cell_task(job: tuple) -> tuple[_CellSolve, dict]:
    """Solve one cell's CTMC with pinned incoming handover rates.

    Top-level so the process pool can pickle it; the serial path calls the
    very same function, which is what keeps ``jobs = N`` bitwise identical to
    serial execution.  Returns ``(solve, metrics_export)``: the export ships
    a worker registry's delta home, and :meth:`NetworkModel.solve` merges it
    only when it actually crossed a process boundary (the PID guard), so the
    serial path -- whose counts already landed in the parent registry -- is
    never double-counted.
    """
    baseline = current_registry().snapshot()
    params, solver, solver_tol, gsm_incoming, gprs_incoming, initial = job
    space, template, context = _scaffold_for(params, solver)
    model = GprsMarkovModel(
        params,
        solver_method=solver,
        solver_tol=solver_tol,
        initial_distribution=initial,
        generator_template=template,
        state_space=space,
        structured_context=context,
        fixed_handover_balance=HandoverBalance.pinned(gsm_incoming, gprs_incoming),
    )
    solution = model.solve()
    distribution = solution.steady_state.distribution
    states = space.all_states()
    gsm_outgoing = params.gsm_handover_departure_rate * float(
        np.dot(distribution, states.gsm_calls)
    )
    gprs_outgoing = params.gprs_handover_departure_rate * float(
        np.dot(distribution, states.gprs_sessions)
    )
    solve = _CellSolve(
        measures=solution.measures,
        gsm_outgoing_rate=gsm_outgoing,
        gprs_outgoing_rate=gprs_outgoing,
        distribution=distribution,
        # warm_start_used (not `initial is not None`): a degraded seed that
        # triggered the model's automatic cold retry must count as cold.
        warm=model.warm_start_used,
        iterations=solution.steady_state.iterations,
    )
    return solve, export_delta(baseline)


# ---------------------------------------------------------------------- #
# Stage 1: the closed-form network fixed point
# ---------------------------------------------------------------------- #
def network_erlang_rates(
    topology: CellTopology,
    cell_parameters: list[GprsModelParameters],
    *,
    tol: float = 1e-12,
    max_iterations: int = 500,
    initial: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Balance the network-wide handover flows with Erlang-loss closed forms.

    Returns ``(gsm_incoming, gprs_incoming, iterations, converged)`` where the
    rate arrays have one entry per cell.  ``initial`` seeds the iteration
    (e.g. with the previous sweep point's converged rates); the default is
    the paper's ``lambda_h = lambda`` seed applied per cell.
    """
    cells = topology.number_of_cells
    routing_t = topology.routing_matrix().T

    def network_map(stacked: np.ndarray) -> np.ndarray:
        gsm_in = stacked[:cells]
        gprs_in = stacked[cells:]
        gsm_out = np.empty(cells)
        gprs_out = np.empty(cells)
        for index, params in enumerate(cell_parameters):
            gsm_out[index], gprs_out[index] = cell_outgoing_rates(
                params, gsm_in[index], gprs_in[index]
            )
        return np.concatenate([routing_t @ gsm_out, routing_t @ gprs_out])

    if initial is not None:
        seed = np.concatenate(
            [np.asarray(initial[0], dtype=float), np.asarray(initial[1], dtype=float)]
        )
        if seed.shape[0] != 2 * cells:
            raise ValueError("initial rates must provide one pair per cell")
        seed = np.maximum(0.0, seed)
    else:
        seed = np.array(
            [params.gsm_arrival_rate for params in cell_parameters]
            + [params.gprs_arrival_rate for params in cell_parameters]
        )

    result = fixed_point_iteration(
        network_map,
        initial=seed,
        tol=tol,
        max_iterations=max_iterations,
        accelerate=True,
    )
    balanced = np.maximum(0.0, result.value)
    return balanced[:cells], balanced[cells:], result.iterations, result.converged


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CellSolution:
    """One cell's share of a network solution."""

    index: int
    parameters: GprsModelParameters
    measures: GprsPerformanceMeasures
    gsm_incoming_rate: float
    gprs_incoming_rate: float
    gsm_outgoing_rate: float
    gprs_outgoing_rate: float

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "values": self.measures.as_dict(),
            "gsm_incoming_rate": self.gsm_incoming_rate,
            "gprs_incoming_rate": self.gprs_incoming_rate,
            "gsm_outgoing_rate": self.gsm_outgoing_rate,
            "gprs_outgoing_rate": self.gprs_outgoing_rate,
        }


@dataclass(frozen=True)
class NetworkResult:
    """Joint solution of all cells plus convergence and warm-start accounting.

    Attributes
    ----------
    cells:
        One :class:`CellSolution` per cell, in cell order.
    aggregates:
        Unweighted mean of every performance measure across cells (the same
        keys as :meth:`~repro.core.measures.GprsPerformanceMeasures.as_dict`);
        network *totals* are available via :meth:`total`.
    outer_iterations / convergence_trace / converged:
        CTMC outer fixed-point diagnostics; the trace holds the relative
        incoming-rate drift after each outer iteration.
    erlang_iterations:
        Iterations spent in the closed-form pre-pass.
    solver_calls / cold_solves:
        Total CTMC solves and how many of them started without a warm seed
        (the first outer iteration, unless the model was seeded with previous
        distributions -- e.g. by the sweep continuation).
    solver_iterations:
        Inner solver iterations summed over every cell solve (the quantity
        the warm starts reduce; direct solves count as one iteration each).
    frozen_solves:
        Cell solves skipped by the outer-loop freezing (``freeze_tol``):
        iterations in which a cell's incoming rates had not moved since its
        last actual solve.  Always 0 when freezing is disabled.
    """

    topology: CellTopology
    base_parameters: GprsModelParameters
    cells: tuple[CellSolution, ...]
    aggregates: dict[str, float]
    outer_iterations: int
    converged: bool
    convergence_trace: tuple[float, ...]
    erlang_iterations: int
    solver_calls: int
    cold_solves: int
    solver_iterations: int
    distributions: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    frozen_solves: int = 0

    @property
    def number_of_cells(self) -> int:
        return len(self.cells)

    @property
    def warm_solves(self) -> int:
        return self.solver_calls - self.cold_solves

    def cell(self, index: int) -> CellSolution:
        return self.cells[index]

    def series(self, metric: str) -> tuple[float, ...]:
        """One measure across cells, in cell order."""
        return tuple(cell.measures.as_dict()[metric] for cell in self.cells)

    def aggregate(self, metric: str) -> float:
        """Unweighted mean of ``metric`` across cells."""
        return self.aggregates[metric]

    def total(self, metric: str) -> float:
        """Sum of ``metric`` across cells (e.g. network carried traffic)."""
        return float(sum(self.series(metric)))

    def incoming_rates(self) -> tuple[np.ndarray, np.ndarray]:
        """The balanced ``(gsm, gprs)`` incoming rates, one entry per cell.

        These are always the rates the final cell solves were computed with
        (converged to ``outer_tol`` when ``converged`` is true).
        """
        return (
            np.array([cell.gsm_incoming_rate for cell in self.cells]),
            np.array([cell.gprs_incoming_rate for cell in self.cells]),
        )

    def as_dict(self) -> dict:
        """JSON-serialisable rendering (used by the cache and ``--json``).

        The topology is identified by name/size/digest rather than embedded
        in full: sweep records would otherwise repeat the routing matrix once
        per point (the spec already carries the complete rendering once).
        """
        return {
            "topology": {
                "name": self.topology.name,
                "cells": self.topology.number_of_cells,
                "digest": self.topology.digest(),
            },
            "aggregates": dict(self.aggregates),
            "cells": [cell.as_dict() for cell in self.cells],
            "outer_iterations": self.outer_iterations,
            "converged": self.converged,
            "convergence_trace": list(self.convergence_trace),
            "erlang_iterations": self.erlang_iterations,
            "solver_calls": self.solver_calls,
            "cold_solves": self.cold_solves,
            "solver_iterations": self.solver_iterations,
            "frozen_solves": self.frozen_solves,
        }


# ---------------------------------------------------------------------- #
# The network model
# ---------------------------------------------------------------------- #
class NetworkModel:
    """Analytic model of a multi-cell network coupled by handover flows.

    Parameters
    ----------
    topology:
        The neighbour graph, routing probabilities and per-cell overrides.
    base_parameters:
        Parameters shared by every cell before overrides are applied; the
        arrival rate of this object is the sweep axis of network sweeps.
    solver_method / solver_tol:
        Per-cell steady-state solver settings
        (see :class:`~repro.core.model.GprsMarkovModel`).
    outer_tol:
        Relative drift of the incoming handover rates below which the CTMC
        outer fixed point is considered converged.
    min_outer_iterations:
        Lower bound on CTMC outer iterations (default 2): the second
        iteration is what *verifies* the routed rates against chains solved
        with them, and it runs entirely warm.
    max_outer_iterations:
        Outer iteration budget; exceeding it returns ``converged=False``.
    erlang_tol:
        Tolerance of the closed-form pre-pass.
    jobs:
        Worker processes for the per-iteration cell solves (1 = serial,
        in-process).  Results are bitwise independent of ``jobs``.
    pool:
        Optional externally managed pool reused for the cell solves (the
        sweep loop passes one pool across all points so workers keep their
        scaffold caches warm); the caller owns its lifetime.  A
        :class:`~repro.runtime.resilience.ResilientPool`, so retries,
        deadlines and degradation apply.
    warm:
        When ``False`` every cell solve of every outer iteration starts cold
        (no stationary-vector continuation) -- the A/B knob of the network
        benchmarks; results change only within solver tolerance.
    freeze_tol:
        Outer-loop freezing threshold (``None`` = disabled).  When set, an
        outer iteration skips re-solving any cell whose incoming handover
        rates have moved by at most this relative amount since that cell's
        last actual solve, reusing its previous stationary distribution and
        outgoing rates.  In heterogeneous networks the cells converge
        unevenly, so the final iterations typically freeze all but the
        slowest cell (the saved solves are counted in
        :attr:`NetworkResult.frozen_solves`).  A frozen cell's reported
        measures correspond to rates at most ``freeze_tol`` away from the
        final ones, so choose it of the order of ``outer_tol``; freezing is
        deterministic, which preserves the parallel == serial guarantee.
    initial_rates / initial_distributions:
        Optional continuation state from an adjacent sweep point: seed rates
        for the pre-pass and per-cell stationary vectors that warm-start even
        the first outer iteration.
    """

    def __init__(
        self,
        topology: CellTopology,
        base_parameters: GprsModelParameters,
        *,
        solver_method: str = "auto",
        solver_tol: float = 1e-10,
        outer_tol: float = 1e-9,
        min_outer_iterations: int = 2,
        max_outer_iterations: int = 50,
        erlang_tol: float = 1e-12,
        jobs: int = 1,
        warm: bool = True,
        freeze_tol: float | None = None,
        pool: "ResilientPool | None" = None,
        initial_rates: tuple[np.ndarray, np.ndarray] | None = None,
        initial_distributions: tuple[np.ndarray, ...] | None = None,
    ) -> None:
        if min_outer_iterations < 1:
            raise ValueError("min_outer_iterations must be at least 1")
        if max_outer_iterations < min_outer_iterations:
            raise ValueError("max_outer_iterations must cover the minimum")
        self._topology = topology
        self._base = base_parameters
        self._solver = solver_method
        self._solver_tol = solver_tol
        self._outer_tol = outer_tol
        self._min_outer = min_outer_iterations
        self._max_outer = max_outer_iterations
        self._erlang_tol = erlang_tol
        if freeze_tol is not None and freeze_tol < 0:
            raise ValueError("freeze_tol must be non-negative (or None to disable)")
        self._jobs = max(1, int(jobs))
        self._warm = warm
        self._freeze_tol = freeze_tol
        self._external_pool = pool
        self._initial_rates = initial_rates
        if initial_distributions is not None and len(initial_distributions) != (
            topology.number_of_cells
        ):
            raise ValueError("initial_distributions must provide one vector per cell")
        self._initial_distributions = initial_distributions

    @property
    def topology(self) -> CellTopology:
        return self._topology

    def cell_parameters(self) -> list[GprsModelParameters]:
        """The effective per-cell parameters (base plus overrides)."""
        return [
            self._topology.cell_parameters(index, self._base)
            for index in range(self._topology.number_of_cells)
        ]

    def solve(self) -> NetworkResult:
        """Run both fixed-point stages and return the joint solution.

        Parallel cell solves go through a
        :class:`~repro.runtime.resilience.ResilientPool` (configured from the
        ambient :class:`~repro.runtime.executor.ExecutionOptions`), so a
        crashed or timed-out worker is retried rather than aborting the
        solve.  A cell that exhausts its retry budget raises
        :class:`~repro.runtime.resilience.SweepFailureError` regardless of
        ``strict`` -- the fixed point needs every cell, so a network solve
        cannot partially complete; sweep callers catch it and record the
        whole point as failed.  Cell-task fault indices are dispatch ordinals
        within this solve.
        """
        from repro.runtime.executor import current_options
        from repro.runtime.resilience import (
            ResilientPool,
            SweepFailure,
            SweepFailureError,
        )

        cells = self._topology.number_of_cells
        cell_params = self.cell_parameters()
        routing_t = self._topology.routing_matrix().T
        gsm_in, gprs_in, erlang_iterations, _ = network_erlang_rates(
            self._topology,
            cell_params,
            tol=self._erlang_tol,
            initial=self._initial_rates,
        )
        distributions: list[np.ndarray | None] = (
            list(self._initial_distributions)
            if self._initial_distributions is not None
            else [None] * cells
        )
        solves: list[_CellSolve | None] = [None] * cells
        # Incoming rates each cell's latest actual solve used; the freezing
        # test compares against these, not the previous iteration's rates, so
        # slow cumulative drift can never hide behind small per-step moves.
        solved_gsm = np.full(cells, np.nan)
        solved_gprs = np.full(cells, np.nan)
        trace: list[float] = []
        solver_calls = cold_solves = solver_iterations = frozen_solves = 0
        converged = False
        outer = 0

        own_pool: ResilientPool | None = None
        pool = self._external_pool
        if pool is None and self._jobs > 1 and cells > 1:
            options = current_options()
            own_pool = ResilientPool(
                min(self._jobs, cells),
                policy=options.retry,
                task_timeout=options.task_timeout,
                strict=options.strict,
            )
            pool = own_pool
        registry = current_registry()
        tracer = current_tracer()
        dispatched = 0
        try:
            while True:
                outer += 1
                if self._freeze_tol is None:
                    active = list(range(cells))
                else:
                    freeze_scale = max(
                        1.0,
                        float(np.max(np.abs(gsm_in))),
                        float(np.max(np.abs(gprs_in))),
                    )
                    active = [
                        index
                        for index in range(cells)
                        if solves[index] is None
                        or max(
                            abs(float(gsm_in[index]) - solved_gsm[index]),
                            abs(float(gprs_in[index]) - solved_gprs[index]),
                        )
                        > self._freeze_tol * freeze_scale
                    ]
                jobs = [
                    (
                        cell_params[index],
                        self._solver,
                        self._solver_tol,
                        float(gsm_in[index]),
                        float(gprs_in[index]),
                        distributions[index] if self._warm else None,
                    )
                    for index in active
                ]
                with tracer.span("network.outer_iteration", cells=len(jobs)):
                    if pool is not None and jobs:
                        outcomes = pool.run(
                            _solve_cell_task,
                            jobs,
                            site="cell",
                            indices=range(dispatched, dispatched + len(jobs)),
                        )
                        for outcome in outcomes:
                            if isinstance(outcome, SweepFailure):
                                raise SweepFailureError(outcome)
                    else:
                        outcomes = [_solve_cell_task(job) for job in jobs]
                    dispatched += len(jobs)

                    # Worker metric exports are merged here, with same-PID
                    # exports skipped: the serial path already counted
                    # in-process.
                    new_solves = []
                    for solve, export in outcomes:
                        absorb_export(export, registry)
                        new_solves.append(solve)
                    for index, solve in zip(active, new_solves):
                        solves[index] = solve
                        solved_gsm[index] = float(gsm_in[index])
                        solved_gprs[index] = float(gprs_in[index])
                    new_cold = sum(1 for solve in new_solves if not solve.warm)
                    solver_calls += len(active)
                    frozen_solves += cells - len(active)
                    cold_solves += new_cold
                    solver_iterations += sum(solve.iterations for solve in new_solves)
                    distributions = [solve.distribution for solve in solves]
                    registry.count("network.outer_iterations")
                    registry.count("network.cell_solves", len(active))
                    registry.count("network.frozen_solves", cells - len(active))
                    registry.count("network.cold_solves", new_cold)

                    gsm_out = np.array([solve.gsm_outgoing_rate for solve in solves])
                    gprs_out = np.array([solve.gprs_outgoing_rate for solve in solves])
                    new_gsm = routing_t @ gsm_out
                    new_gprs = routing_t @ gprs_out
                    scale = max(
                        1.0,
                        float(np.max(np.abs(gsm_in))),
                        float(np.max(np.abs(gprs_in))),
                    )
                    drift = float(
                        max(
                            np.max(np.abs(new_gsm - gsm_in)),
                            np.max(np.abs(new_gprs - gprs_in)),
                        )
                        / scale
                    )
                    trace.append(drift)
                    # On exit the rates stay at the values the final solves
                    # used, so the reported incoming rates and measures are
                    # mutually consistent even when unconverged.
                    if drift <= self._outer_tol and outer >= self._min_outer:
                        converged = True
                        break
                    if outer >= self._max_outer:
                        break
                    gsm_in, gprs_in = new_gsm, new_gprs
        finally:
            if own_pool is not None:
                own_pool.shutdown()

        solutions = tuple(
            CellSolution(
                index=index,
                parameters=cell_params[index],
                measures=solve.measures,
                gsm_incoming_rate=float(gsm_in[index]),
                gprs_incoming_rate=float(gprs_in[index]),
                gsm_outgoing_rate=solve.gsm_outgoing_rate,
                gprs_outgoing_rate=solve.gprs_outgoing_rate,
            )
            for index, solve in enumerate(solves)
        )
        measure_dicts = [solution.measures.as_dict() for solution in solutions]
        aggregates = {
            key: float(np.mean([values[key] for values in measure_dicts]))
            for key in measure_dicts[0]
        }
        return NetworkResult(
            topology=self._topology,
            base_parameters=self._base,
            cells=solutions,
            aggregates=aggregates,
            outer_iterations=outer,
            converged=converged,
            convergence_trace=tuple(trace),
            erlang_iterations=erlang_iterations,
            solver_calls=solver_calls,
            cold_solves=cold_solves,
            solver_iterations=solver_iterations,
            distributions=tuple(distributions),
            frozen_solves=frozen_solves,
        )
