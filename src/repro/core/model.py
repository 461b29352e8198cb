"""Facade tying the GPRS Markov model together.

:class:`GprsMarkovModel` drives the complete analysis chain of the paper for
one parameter configuration:

1. balance the incoming handover flows with the Erlang-loss fixed point
   (Eqs. (4)-(5)),
2. assemble the sparse generator matrix from the transition rules of Table 1,
3. solve ``pi Q = 0`` numerically,
4. evaluate the performance measures of Eqs. (6)-(11).

The intermediate artefacts (state space, generator, stationary distribution,
handover rates) remain accessible for inspection, testing and the ablation
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.generator import build_generator
from repro.core.handover import HandoverBalance, balance_handover_rates
from repro.core.measures import GprsPerformanceMeasures, compute_measures
from repro.core.parameters import GprsModelParameters
from repro.core.state_space import GprsStateSpace
from repro.core.template import GeneratorTemplate
from repro.markov.solvers import SolverError, SteadyStateResult, solve_steady_state
from repro.obs.metrics import current_registry
from repro.obs.trace import current_tracer

__all__ = ["GprsMarkovModel", "GprsModelSolution", "build_solver_scaffold"]


@dataclass(frozen=True)
class GprsModelSolution:
    """Complete solution of the model for one parameter configuration.

    Attributes
    ----------
    parameters:
        The configuration that was solved.
    measures:
        All performance measures of Eqs. (6)-(11).
    handover:
        The balanced handover rates.
    steady_state:
        Metadata of the numerical solution (method, iterations, residual); the
        stationary vector itself is ``steady_state.distribution``.
    """

    parameters: GprsModelParameters
    measures: GprsPerformanceMeasures
    handover: HandoverBalance
    steady_state: SteadyStateResult


def build_solver_scaffold(
    params: GprsModelParameters,
    solver: str = "auto",
    space: GprsStateSpace | None = None,
) -> tuple[GprsStateSpace, GeneratorTemplate, object | None]:
    """Build the reusable ``(space, template, context)`` triple of one shape.

    This is the scaffolding that warm sweeps share across points (and the
    network layer across cells and outer iterations): the enumerated state
    space, the frozen generator template, and -- only when ``solver`` will
    actually resolve to the structured solver -- the
    :class:`~repro.core.structured_solver.StructuredSolveContext` (generic and
    direct solves would ignore it).  Centralised here so the auto-threshold
    rule can never diverge between consumers.
    """
    if space is None:
        space = GprsStateSpace(
            gsm_channels=params.gsm_channels,
            buffer_size=params.buffer_size,
            max_sessions=params.max_gprs_sessions,
        )
    template = GeneratorTemplate.build(params, space)
    context = None
    if solver == "structured" or (
        solver == "auto" and space.size > GprsMarkovModel._STRUCTURED_THRESHOLD
    ):
        from repro.core.structured_solver import StructuredSolveContext

        context = StructuredSolveContext.build(params, space)
    return space, template, context


class GprsMarkovModel:
    """The continuous-time Markov chain model of one GPRS cell.

    Parameters
    ----------
    parameters:
        Full model configuration (see :class:`~repro.core.parameters.GprsModelParameters`).
    solver_method:
        Steady-state solver.  ``"structured"`` uses the fibre/phase iteration
        of :mod:`repro.core.structured_solver` which exploits the GPRS chain
        structure and scales to the full paper-size state spaces;
        ``"gth"``, ``"direct"``, ``"power"`` and ``"gauss-seidel"`` use the
        generic solvers of :mod:`repro.markov.solvers`.  ``"auto"`` picks the
        generic direct solver for small chains and the structured solver for
        large ones (falling back to the generic path if the structured
        iteration fails to converge).
    solver_tol:
        Convergence tolerance of iterative solvers.
    initial_distribution:
        Optional warm-start guess for the stationary vector (flat state
        ordering), typically the solution of an adjacent point of an
        arrival-rate sweep, or a ``(j, n)`` stack of several previous
        solutions (most recent last) from which the structured solver builds
        a residual-minimising extrapolated seed.  Iterative solvers start
        from it instead of the cold seed; if the warm solve fails to
        converge the model automatically retries cold, so a stale guess can
        cost time but never correctness.  Direct solvers ignore it.
    initial_handover_rates:
        Optional ``(gsm, gprs)`` seed for the handover-balance fixed point
        (or a :class:`~repro.core.handover.HandoverBalance` to copy the rates
        from); the balanced result is identical up to the fixed-point
        tolerance but reached in fewer iterations.
    generator_template:
        Optional prebuilt :class:`~repro.core.template.GeneratorTemplate`
        sharing this configuration's fixed part; the generator is then
        produced by rewriting the template's ``data`` array instead of
        re-enumerating and re-sorting all transitions.
    state_space:
        Optional pre-enumerated state space matching the configuration
        (shared across the points of a sweep).
    structured_context:
        Optional
        :class:`~repro.core.structured_solver.StructuredSolveContext` shared
        across the points of a sweep; caches the arrival-rate-independent
        scaffolding (rate grids, fibre couplings, phase-chain pattern) of the
        structured solver.
    fixed_handover_balance:
        Optional externally imposed handover rates (typically
        :meth:`HandoverBalance.pinned`).  When given, the Erlang-loss
        balancing of Eqs. (4)-(5) is skipped entirely and the supplied
        incoming rates feed the generator and the measures directly -- this
        is the seam through which :class:`~repro.network.NetworkModel`
        couples cells by their actual neighbour flows instead of the
        homogeneity assumption.  Mutually exclusive with
        ``initial_handover_rates``.

    Example
    -------
    >>> from repro import GprsMarkovModel, GprsModelParameters, traffic_model
    >>> params = GprsModelParameters.from_traffic_model(
    ...     traffic_model(3), total_call_arrival_rate=0.5, buffer_size=20)
    >>> solution = GprsMarkovModel(params).solve()
    >>> 0.0 <= solution.measures.packet_loss_probability <= 1.0
    True
    """

    def __init__(
        self,
        parameters: GprsModelParameters,
        *,
        solver_method: str = "auto",
        solver_tol: float = 1e-10,
        initial_distribution: np.ndarray | None = None,
        initial_handover_rates: HandoverBalance | tuple[float, float] | None = None,
        generator_template: GeneratorTemplate | None = None,
        state_space: GprsStateSpace | None = None,
        structured_context=None,
        fixed_handover_balance: HandoverBalance | None = None,
    ) -> None:
        self._parameters = parameters
        self._solver_method = solver_method
        self._solver_tol = solver_tol
        if fixed_handover_balance is not None and initial_handover_rates is not None:
            raise ValueError(
                "fixed_handover_balance pins the rates; a balance seed "
                "(initial_handover_rates) cannot apply at the same time"
            )
        self._handover: HandoverBalance | None = fixed_handover_balance
        self._generator: sp.csr_matrix | None = None
        self._steady_state: SteadyStateResult | None = None
        self._warm_start_used = False

        self._initial_distribution = (
            None
            if initial_distribution is None
            else np.asarray(initial_distribution, dtype=float)
        )
        if isinstance(initial_handover_rates, HandoverBalance):
            initial_handover_rates = (
                initial_handover_rates.gsm_handover_arrival_rate,
                initial_handover_rates.gprs_handover_arrival_rate,
            )
        self._initial_handover_rates = initial_handover_rates

        if state_space is not None and (
            state_space.gsm_channels != parameters.gsm_channels
            or state_space.buffer_size != parameters.buffer_size
            or state_space.max_sessions != parameters.max_gprs_sessions
        ):
            raise ValueError("state_space does not match the parameters")
        self._space = state_space
        if generator_template is not None and not generator_template.matches(parameters):
            raise ValueError("generator_template does not match the parameters")
        self._template = generator_template
        if self._space is None and generator_template is not None:
            self._space = generator_template.space
        self._structured_context = structured_context

    # ------------------------------------------------------------------ #
    # Accessors for intermediate artefacts
    # ------------------------------------------------------------------ #
    @property
    def parameters(self) -> GprsModelParameters:
        return self._parameters

    @property
    def state_space(self) -> GprsStateSpace:
        """The enumerated state space (built on first access)."""
        if self._space is None:
            self._space = GprsStateSpace(
                gsm_channels=self._parameters.gsm_channels,
                buffer_size=self._parameters.buffer_size,
                max_sessions=self._parameters.max_gprs_sessions,
            )
        return self._space

    @property
    def handover_balance(self) -> HandoverBalance:
        """The balanced handover rates (computed on first access)."""
        if self._handover is None:
            if self._initial_handover_rates is not None:
                gsm_seed, gprs_seed = self._initial_handover_rates
            else:
                gsm_seed = gprs_seed = None
            self._handover = balance_handover_rates(
                self._parameters,
                initial_gsm_handover_rate=gsm_seed,
                initial_gprs_handover_rate=gprs_seed,
            )
        return self._handover

    @property
    def generator(self) -> sp.csr_matrix:
        """The sparse generator matrix ``Q`` (assembled on first access).

        With a :class:`~repro.core.template.GeneratorTemplate` attached the
        matrix is produced by rewriting the template's frozen CSR layout;
        otherwise the transitions are enumerated and assembled from scratch.
        """
        if self._generator is None:
            handover = self.handover_balance
            if self._template is not None:
                self._generator = self._template.generator(
                    self._parameters,
                    gsm_handover_arrival_rate=handover.gsm_handover_arrival_rate,
                    gprs_handover_arrival_rate=handover.gprs_handover_arrival_rate,
                )
            else:
                self._generator, self._space = build_generator(
                    self._parameters,
                    self.state_space,
                    gsm_handover_arrival_rate=handover.gsm_handover_arrival_rate,
                    gprs_handover_arrival_rate=handover.gprs_handover_arrival_rate,
                )
        return self._generator

    @property
    def number_of_states(self) -> int:
        return self.state_space.size

    def stationary_distribution(self) -> np.ndarray:
        """Return the stationary probability vector of the chain."""
        return self._solve_steady_state().distribution

    #: State-space size above which ``"auto"`` switches to the structured solver.
    _STRUCTURED_THRESHOLD = 4000

    def _solve_steady_state(self) -> SteadyStateResult:
        if self._steady_state is not None:
            return self._steady_state
        with current_tracer().span(
            "model.steady_state", states=self.state_space.size
        ):
            result = self._solve_steady_state_uncached()
        registry = current_registry()
        registry.count("model.solves")
        registry.count(
            "model.warm_solves" if self._warm_start_used else "model.cold_solves"
        )
        registry.count("solver.iterations", result.iterations)
        return result

    def _solve_steady_state_uncached(self) -> SteadyStateResult:
        method = self._solver_method
        if method == "auto":
            method = (
                "structured"
                if self.state_space.size > self._STRUCTURED_THRESHOLD
                else "generic-auto"
            )

        initial = self._initial_distribution
        if method == "structured":
            try:
                self._steady_state = self._solve_structured(initial)
                self._warm_start_used = initial is not None
            except SolverError:
                # A degraded warm start must never cost correctness: retry the
                # same solver cold before considering the generic fallback.
                if initial is not None:
                    try:
                        self._steady_state = self._solve_structured(None)
                        return self._steady_state
                    except SolverError:
                        pass
                if self._solver_method != "auto":
                    raise
                self._steady_state = solve_steady_state(
                    self.generator, method="auto", tol=self._solver_tol
                )
        else:
            resolved = "auto" if method == "generic-auto" else method
            if initial is not None and initial.ndim == 2:
                # Generic solvers take a single seed; use the newest solution.
                initial = initial[-1]
            try:
                self._steady_state = solve_steady_state(
                    self.generator,
                    method=resolved,
                    tol=self._solver_tol,
                    initial=initial,
                )
                # GTH/direct elimination ignores seeds entirely -- such a
                # solve is cold no matter what it was handed.
                self._warm_start_used = (
                    initial is not None
                    and self._steady_state.method not in ("gth", "direct")
                )
            except SolverError:
                if initial is None:
                    raise
                self._steady_state = solve_steady_state(
                    self.generator, method=resolved, tol=self._solver_tol
                )
        return self._steady_state

    @property
    def warm_start_used(self) -> bool:
        """Whether the result actually came from a warm-seeded solve.

        ``False`` until :meth:`solve` runs, when a degraded warm start failed
        and the automatic cold retry produced the result, and when the
        resolved solver is a direct method (GTH / sparse LU) that ignores
        seeds -- so warm-start accounting (e.g. the network layer's
        ``cold_solves``) never counts a silently-cold solve as warm.
        """
        return self._warm_start_used

    def _solve_structured(self, initial: np.ndarray | None) -> SteadyStateResult:
        from repro.core.structured_solver import solve_structured

        handover = self.handover_balance
        return solve_structured(
            self._parameters,
            self.state_space,
            self.generator,
            gsm_handover_arrival_rate=handover.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=handover.gprs_handover_arrival_rate,
            tol=max(self._solver_tol, 1e-14),
            initial=initial,
            context=self._structured_context,
        )

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def solve(self) -> GprsModelSolution:
        """Run the full analysis chain and return measures plus diagnostics."""
        steady_state = self._solve_steady_state()
        measures = compute_measures(
            self._parameters, self.state_space, steady_state.distribution, self.handover_balance
        )
        return GprsModelSolution(
            parameters=self._parameters,
            measures=measures,
            handover=self.handover_balance,
            steady_state=steady_state,
        )

    def measures(self) -> GprsPerformanceMeasures:
        """Convenience wrapper returning only the performance measures."""
        return self.solve().measures
