"""Continuous-time Markov chain library.

This subpackage provides the numerical machinery used by the GPRS model in
:mod:`repro.core`:

* :class:`~repro.markov.ctmc.ContinuousTimeMarkovChain` -- a CTMC defined by a
  (sparse or dense) infinitesimal generator matrix, with steady-state and
  transient solution methods.
* :mod:`~repro.markov.solvers` -- numerical steady-state solvers: GTH
  elimination, direct sparse linear solve, uniformised power iteration, Jacobi,
  Gauss--Seidel and SOR sweeps.
* :mod:`~repro.markov.mmpp` -- Markov-modulated Poisson processes, the
  interrupted Poisson process (IPP) used by the 3GPP traffic model, and the
  aggregation of ``m`` identical two-state sources into an ``(m + 1)``-state
  birth--death modulating chain (the key state-space reduction of the paper).
* :mod:`~repro.markov.transient` -- transient analysis via uniformisation.
"""

from repro.markov.ctmc import ContinuousTimeMarkovChain
from repro.markov.mmpp import (
    InterruptedPoissonProcess,
    MarkovModulatedPoissonProcess,
    aggregate_identical_ipps,
    superpose_mmpps,
)
from repro.markov.solvers import (
    SolverError,
    SteadyStateResult,
    solve_steady_state,
    steady_state_direct,
    steady_state_gauss_seidel,
    steady_state_gth,
    steady_state_power,
)
from repro.markov.transient import transient_distribution, uniformize

__all__ = [
    "ContinuousTimeMarkovChain",
    "InterruptedPoissonProcess",
    "MarkovModulatedPoissonProcess",
    "SolverError",
    "SteadyStateResult",
    "aggregate_identical_ipps",
    "solve_steady_state",
    "steady_state_direct",
    "steady_state_gauss_seidel",
    "steady_state_gth",
    "steady_state_power",
    "superpose_mmpps",
    "transient_distribution",
    "uniformize",
]
