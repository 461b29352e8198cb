"""Benchmarks of sweep-aware incremental solving (warm vs. cold sweeps).

Three demonstrations, all on the figure 12 scenario:

* ``test_warm_sweep_speedup`` -- a paper-scale arrival-rate sweep (default
  preset sizes, 32-point figure grid) runs at least 2x faster warm than cold
  at the pipeline's default solver settings.  ``cold`` is exactly what
  ``--cold`` gives: independent per-point solves with fresh enumeration,
  paper-seeded handover balancing and a cold solver start.
* ``test_warm_matches_cold_when_converged`` -- with both paths converged to
  the solver's floor, warm-started measures agree with cold ones to 1e-8.
* ``test_warm_smoke_fewer_iterations`` -- the CI smoke check: on a small
  sweep the warm path spends strictly fewer solver iterations than the cold
  path (and agrees with it).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.model import GprsMarkovModel
from repro.experiments.scale import ExperimentScale
from repro.experiments.sweep import sweep_arrival_rates
from repro.runtime import run_sweep, scenario

#: Dense figure grid: the x axis of the paper's figures sampled finely enough
#: to draw the curves, at the default-preset state-space sizes.
SWEEP_RATES = tuple(np.round(np.linspace(0.1, 1.0, 32), 6))


def test_warm_sweep_speedup():
    """Warm-started sweep must beat the cold sweep by at least 2x.

    Both pipelines are timed four times, interleaved, and compared on their
    best runs, so a slow phase of a shared host lasting a few seconds
    cannot fail the assertion by hitting only one side.
    """
    scale = ExperimentScale.default()
    spec = scenario("figure12").replace(arrival_rates=SWEEP_RATES)

    cold_seconds, warm_seconds = [], []
    cold = warm = None
    for _ in range(4):
        start = time.perf_counter()
        cold = run_sweep(spec, scale, cache=None, warm=False)
        cold_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        warm = run_sweep(
            spec, scale, cache=None, warm=True, chunk_size=len(SWEEP_RATES)
        )
        warm_seconds.append(time.perf_counter() - start)

    speedup = min(cold_seconds) / min(warm_seconds)
    print()
    print(
        f"figure12 sweep, {len(SWEEP_RATES)} points, default preset: "
        f"cold {min(cold_seconds):.2f}s, warm {min(warm_seconds):.2f}s, "
        f"speedup {speedup:.2f}x"
    )
    assert len(warm.points) == len(cold.points) == len(SWEEP_RATES)
    # Warm results track cold ones at the default solver tolerance.
    for cold_point, warm_point in zip(cold.points, warm.points):
        assert warm_point.values["packet_loss_probability"] == pytest.approx(
            cold_point.values["packet_loss_probability"], abs=1e-3
        )
    assert speedup >= 2.0


def test_warm_matches_cold_when_converged(benchmark):
    """Converged to the solver floor, warm and cold agree within 1e-8."""
    scale = ExperimentScale.default()
    spec = scenario("figure12")
    params = spec.parameters(scale)
    rates = tuple(np.round(np.linspace(0.1, 1.0, 8), 6))

    cold = sweep_arrival_rates(params, rates, solver_tol=1e-14, warm=False)
    warm = benchmark.pedantic(
        sweep_arrival_rates,
        args=(params, rates),
        kwargs={"solver_tol": 1e-14, "warm": True, "chunk_size": len(rates)},
        rounds=1,
        iterations=1,
    )
    worst = max(
        abs(cold_m.as_dict()[key] - warm_m.as_dict()[key])
        for cold_m, warm_m in zip(cold.measures, warm.measures)
        for key in cold_m.as_dict()
    )
    print()
    print(f"figure12 converged sweep, {len(rates)} points: worst |warm - cold| = {worst:.2e}")
    assert worst < 1e-8


def test_warm_smoke_fewer_iterations():
    """CI smoke: a warm-started solve does strictly fewer solver iterations."""
    params = scenario("figure12").parameters(ExperimentScale.smoke())
    previous = GprsMarkovModel(
        params.with_arrival_rate(0.5), solver_method="structured"
    ).solve()
    cold = GprsMarkovModel(
        params.with_arrival_rate(0.6), solver_method="structured"
    ).solve()
    warm = GprsMarkovModel(
        params.with_arrival_rate(0.6),
        solver_method="structured",
        initial_distribution=previous.steady_state.distribution,
        initial_handover_rates=previous.handover,
    ).solve()
    print()
    print(
        f"smoke sweep step: cold {cold.steady_state.iterations} sweeps, "
        f"warm {warm.steady_state.iterations} sweeps"
    )
    assert warm.steady_state.iterations < cold.steady_state.iterations
    assert warm.measures.packet_loss_probability == pytest.approx(
        cold.measures.packet_loss_probability, abs=1e-6
    )
