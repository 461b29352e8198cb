"""Benchmarks of the repetition-reuse pass: coarse correction and propagator
memoisation.

Two independent hot paths waste work repeated across nearly-identical
solves; each gets an A/B benchmark here, and each records its numbers in the
``BENCH_repetition.jsonl`` run ledger (see ``_helpers.persist_timings``):

* ``test_coarse_correction_wall_time_k200`` -- on a deep buffer under heavy
  load (K=200, M=10, rate 0.8) the two-level coarse-space correction must make
  a cold structured solve >= 1.5x faster in wall time, and at the paper's
  buffer depth (K=100) fully converged measures must agree to 1e-8 precision
  with the correction on and off.  (At K=100 and working tolerance the
  correction saves sweeps but not wall time: its LU setup costs more than
  the sweeps it saves.)
* ``test_propagator_replay_diurnal`` -- re-solving the ``diurnal-24h``
  trajectory must be >= 2x faster once the propagator cache holds its
  segments (measured: the replay skips the entire matvec chain), with
  bitwise-identical sampled series.

``test_coarse_correction_smoke`` runs the correction at the smallest deep
size for the CI ``perf-smoke`` job.
"""

from __future__ import annotations

import time

import numpy as np

from _helpers import persist_timings
from repro.core.handover import balance_handover_rates
from repro.core.measures import compute_measures
from repro.core.parameters import GprsModelParameters
from repro.core.state_space import GprsStateSpace
from repro.core.structured_solver import StructuredSolveContext, solve_structured
from repro.core.template import GeneratorTemplate
from repro.experiments.scale import ExperimentScale
from repro.runtime import scenario
from repro.traffic.presets import TRAFFIC_MODEL_3
from repro.transient import PropagatorCache, TransientModel


# ---------------------------------------------------------------------- #
# (a) Coarse-space sweep correction
# ---------------------------------------------------------------------- #
def _structured_pair(buffer_size: int, sessions: int, rate: float, tol: float):
    """Solve one configuration cold with the correction off and on (timed)."""
    params = GprsModelParameters.from_traffic_model(
        TRAFFIC_MODEL_3, rate, buffer_size=buffer_size, max_gprs_sessions=sessions
    )
    space = GprsStateSpace(
        gsm_channels=params.gsm_channels,
        buffer_size=buffer_size,
        max_sessions=sessions,
    )
    balance = balance_handover_rates(params)
    template = GeneratorTemplate.build(params, space)
    generator = template.generator(
        params,
        gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
        gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
    )
    context = StructuredSolveContext.build(params, space)
    outcomes = {}
    for coarse in (False, True):
        start = time.perf_counter()
        result = solve_structured(
            params,
            space,
            generator,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
            tol=tol,
            context=context,
            coarse_correction=coarse,
        )
        outcomes[coarse] = (result, time.perf_counter() - start)
    return params, space, balance, outcomes


def test_coarse_correction_wall_time_k200():
    """K=200 heavy-load solve >= 1.5x faster; K=100 measures agree to 1e-8."""
    _, space, _, at_tol = _structured_pair(200, 10, 0.8, 1e-9)
    plain, plain_seconds = at_tol[False]
    corrected, corrected_seconds = at_tol[True]
    speedup = plain_seconds / corrected_seconds
    print()
    print(
        f"K=200 ({space.size} states), rate 0.8: plain {plain.iterations} sweeps "
        f"({plain_seconds:.2f}s), corrected {corrected.iterations} sweeps "
        f"({corrected.coarse_corrections} correction(s), {corrected_seconds:.2f}s) "
        f"-> {speedup:.2f}x faster"
    )
    assert corrected.coarse_corrections >= 1
    assert speedup >= 1.5

    # Agreement at the tolerance floor, 1e-8 precision per measure (relative
    # for the large-magnitude ones -- mean queue length at K=100 amplifies
    # distribution rounding by ~K x states).
    params, deep_space, balance, deep = _structured_pair(100, 10, 0.5, 1e-14)
    plain_measures = compute_measures(
        params, deep_space, deep[False][0].distribution, balance
    ).as_dict()
    corrected_measures = compute_measures(
        params, deep_space, deep[True][0].distribution, balance
    ).as_dict()
    for key, value in plain_measures.items():
        scale = max(1.0, abs(value))
        assert abs(corrected_measures[key] - value) <= 1e-8 * scale

    persist_timings(
        "coarse-correction-k200",
        {
            "states": space.size,
            "plain_sweeps": plain.iterations,
            "corrected_sweeps": corrected.iterations,
            "corrections": corrected.coarse_corrections,
            "plain_seconds": round(plain_seconds, 4),
            "corrected_seconds": round(corrected_seconds, 4),
            "speedup": round(speedup, 3),
            "k100_converged_plain_seconds": round(deep[False][1], 4),
            "k100_converged_corrected_seconds": round(deep[True][1], 4),
        },
        wall_s=round(plain_seconds + corrected_seconds, 4),
    )


def test_coarse_correction_smoke():
    """CI smoke: a deep-buffer smoke-sized chain engages the correction and
    agrees with plain sweeps to 1e-8 once both are converged."""
    _, space, _, outcomes = _structured_pair(60, 4, 0.5, 1e-13)
    plain, _ = outcomes[False]
    corrected, _ = outcomes[True]
    print()
    print(
        f"smoke K=60 ({space.size} states): plain {plain.iterations} sweeps, "
        f"corrected {corrected.iterations} sweeps "
        f"({corrected.coarse_corrections} correction(s))"
    )
    assert corrected.coarse_corrections >= 1
    assert float(
        np.max(np.abs(plain.distribution - corrected.distribution))
    ) <= 1e-8


# ---------------------------------------------------------------------- #
# (b) Memoised segment propagators
# ---------------------------------------------------------------------- #
def test_propagator_replay_diurnal():
    """Re-solving diurnal-24h >= 2x faster via replay, bitwise-same series."""
    spec = scenario("diurnal-24h")
    params = spec.parameters(ExperimentScale.smoke()).with_arrival_rate(0.5)
    profile = spec.transient
    cache = PropagatorCache()

    start = time.perf_counter()
    cold = TransientModel(profile, params, propagator_cache=cache).solve()
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = TransientModel(profile, params, propagator_cache=cache).solve()
    warm_seconds = time.perf_counter() - start

    speedup = cold_seconds / warm_seconds
    print()
    print(
        f"diurnal-24h (smoke preset): cold {cold_seconds:.2f}s "
        f"({cold.matvecs} matvecs), memoised {warm_seconds:.3f}s "
        f"({warm.propagator_hits} replay(s), {warm.matvecs} matvecs) "
        f"-> {speedup:.1f}x faster"
    )
    assert warm.propagator_hits == profile.schedule.number_of_segments
    assert warm.matvecs == 0
    for metric in cold.points[0].values:
        assert warm.series(metric) == cold.series(metric)
    assert np.array_equal(warm.final_distribution, cold.final_distribution)
    assert speedup >= 2.0

    persist_timings(
        "propagator-replay-diurnal",
        {
            "segments": profile.schedule.number_of_segments,
            "cold_seconds": round(cold_seconds, 4),
            "replay_seconds": round(warm_seconds, 4),
            "cold_matvecs": cold.matvecs,
            "speedup": round(speedup, 2),
        },
        wall_s=round(cold_seconds + warm_seconds, 4),
    )
