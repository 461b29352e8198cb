"""Tests of sweep-aware incremental solving: warm starts and chunked execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.handover import balance_handover_rates
from repro.core.measures import compute_measures
from repro.core.model import GprsMarkovModel
from repro.core.parameters import GprsModelParameters
from repro.core.state_space import GprsStateSpace
from repro.core.structured_solver import StructuredSolveContext, solve_structured
from repro.core.template import GeneratorTemplate
from repro.experiments.scale import ExperimentScale
from repro.experiments.sweep import sweep_arrival_rates
from repro.runtime.executor import _chunked, execution_options, current_options
from repro.traffic.presets import TRAFFIC_MODEL_3

RATES = (0.2, 0.4, 0.6, 0.8)


def _params(rate: float = 0.3) -> GprsModelParameters:
    return GprsModelParameters.from_traffic_model(
        TRAFFIC_MODEL_3, rate, buffer_size=6, max_gprs_sessions=3
    )


class TestWarmAgainstCold:
    def test_cold_sweep_equals_independent_solves_bitwise(self):
        """warm=False is exactly the legacy per-point pipeline."""
        base = _params()
        swept = sweep_arrival_rates(base, RATES, warm=False)
        for rate, measures in zip(RATES, swept.measures):
            single = GprsMarkovModel(
                base.with_arrival_rate(rate), solver_tol=1e-9
            ).solve()
            assert measures == single.measures

    def test_warm_matches_cold_within_solver_tolerance(self):
        """Fully converged warm and cold sweeps agree to ~1e-8 on every measure."""
        base = _params()
        cold = sweep_arrival_rates(
            base, RATES, solver="structured", solver_tol=1e-14, warm=False
        )
        warm = sweep_arrival_rates(
            base, RATES, solver="structured", solver_tol=1e-14, warm=True
        )
        for cold_measures, warm_measures in zip(cold.measures, warm.measures):
            for key, value in cold_measures.as_dict().items():
                assert warm_measures.as_dict()[key] == pytest.approx(value, abs=1e-8)

    def test_first_point_of_a_chunk_is_bitwise_cold(self):
        """Templates are bitwise-faithful, so an unseeded point matches exactly."""
        base = _params()
        cold = sweep_arrival_rates(base, (0.5,), warm=False)
        warm = sweep_arrival_rates(base, (0.5,), warm=True)
        assert cold.measures[0] == warm.measures[0]


class TestWarmStartedModel:
    def test_warm_start_reduces_solver_iterations(self):
        base = _params()
        previous = GprsMarkovModel(
            base.with_arrival_rate(0.5), solver_method="structured"
        ).solve()
        cold = GprsMarkovModel(
            base.with_arrival_rate(0.55), solver_method="structured"
        ).solve()
        warm = GprsMarkovModel(
            base.with_arrival_rate(0.55),
            solver_method="structured",
            initial_distribution=previous.steady_state.distribution,
            initial_handover_rates=previous.handover,
        ).solve()
        assert warm.steady_state.iterations < cold.steady_state.iterations
        for key, value in cold.measures.as_dict().items():
            assert warm.measures.as_dict()[key] == pytest.approx(value, abs=1e-6)

    def test_bad_warm_start_falls_back_to_cold_seed(self):
        """A non-normalisable guess must not corrupt the solution."""
        base = _params(0.5)
        cold = GprsMarkovModel(base, solver_method="structured").solve()
        size = base.state_space_size
        for guess in (np.zeros(size), np.full(size, np.nan)):
            warm = GprsMarkovModel(
                base, solver_method="structured", initial_distribution=guess
            ).solve()
            assert warm.measures.packet_loss_probability == pytest.approx(
                cold.measures.packet_loss_probability, abs=1e-7
            )

    def test_wrong_length_warm_start_raises(self):
        with pytest.raises(ValueError):
            GprsMarkovModel(
                _params(0.5),
                solver_method="structured",
                initial_distribution=np.ones(7),
            ).solve()

    def test_handover_seed_does_not_change_fixed_point(self):
        base = _params(0.7)
        reference = balance_handover_rates(base)
        seeded = balance_handover_rates(
            base,
            initial_gsm_handover_rate=reference.gsm_handover_arrival_rate,
            initial_gprs_handover_rate=reference.gprs_handover_arrival_rate,
        )
        assert seeded.converged
        assert seeded.gsm_handover_arrival_rate == pytest.approx(
            reference.gsm_handover_arrival_rate, abs=1e-9
        )
        assert seeded.gprs_handover_arrival_rate == pytest.approx(
            reference.gprs_handover_arrival_rate, abs=1e-9
        )
        assert seeded.gsm_iterations <= reference.gsm_iterations


class TestChunkedExecution:
    def test_chunk_grid_is_independent_of_hits(self):
        assert _chunked([0, 1, 2, 3, 4], 5, 2) == [[0, 1], [2, 3], [4]]
        # Cached points leave gaps but never shift chunk boundaries.
        assert _chunked([0, 3, 4], 5, 2) == [[0], [3], [4]]
        assert _chunked([2], 5, 8) == [[2]]

    def test_parallel_chunks_bitwise_identical_to_serial(self):
        """Warm-started chunks must not break the jobs=N == serial guarantee.

        The structured solver is forced so that the warm starts actually
        change the iteration (the direct solver would ignore them).
        """
        base = _params()
        serial = sweep_arrival_rates(
            base, RATES, solver="structured", warm=True, chunk_size=2
        )
        parallel = sweep_arrival_rates(
            base, RATES, solver="structured", warm=True, chunk_size=2, jobs=2
        )
        assert serial.measures == parallel.measures

    def test_chunk_boundary_resets_continuation(self):
        """chunk_size=1 warm degenerates to per-point cold solves."""
        base = _params()
        cold = sweep_arrival_rates(base, RATES, warm=False)
        chunked = sweep_arrival_rates(base, RATES, warm=True, chunk_size=1)
        assert cold.measures == chunked.measures

    def test_ambient_warm_and_chunk_options(self):
        with execution_options(warm=False, chunk_size=3):
            options = current_options()
            assert options.warm is False
            assert options.chunk_size == 3
        assert current_options().warm is True


def _structured_setup(preset_buffer: int | None, sessions: int, rate: float):
    """Build (params, space, balance, generator, context) for one solve."""
    overrides = {"max_gprs_sessions": sessions}
    if preset_buffer is not None:
        overrides["buffer_size"] = preset_buffer
    params = GprsModelParameters.from_traffic_model(TRAFFIC_MODEL_3, rate, **overrides)
    space = GprsStateSpace(
        gsm_channels=params.gsm_channels,
        buffer_size=params.buffer_size,
        max_sessions=params.max_gprs_sessions,
    )
    balance = balance_handover_rates(params)
    template = GeneratorTemplate.build(params, space)
    generator = template.generator(
        params,
        gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
        gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
    )
    context = StructuredSolveContext.build(params, space)
    return params, space, balance, generator, context


def _solve_pair(preset_buffer, sessions, rate, *, tol):
    """Solve one configuration with the correction off and on."""
    params, space, balance, generator, context = _structured_setup(
        preset_buffer, sessions, rate
    )
    results = {}
    for coarse in (False, True):
        results[coarse] = solve_structured(
            params,
            space,
            generator,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
            tol=tol,
            context=context,
            coarse_correction=coarse,
        )
    return params, space, balance, results[False], results[True]


class TestCoarseCorrection:
    """The two-level repetition-reuse pass of the structured solver."""

    @pytest.mark.parametrize("preset", ["smoke", "default"])
    def test_shallow_presets_are_bitwise_identical_on_and_off(self, preset):
        """Below the engagement depth the correction never perturbs a solve."""
        scale = ExperimentScale.from_name(preset)
        buffer_size = scale.effective_buffer_size(100)
        sessions = scale.effective_max_sessions(10)
        plain, corrected = _solve_pair(buffer_size, sessions, 0.5, tol=1e-9)[3:]
        assert corrected.coarse_corrections == 0
        assert np.array_equal(plain.distribution, corrected.distribution)
        assert plain.iterations == corrected.iterations

    def test_paper_buffer_depth_cuts_sweeps_and_agrees_to_1e8(self):
        """At the paper's K=100 the corrected solver needs far fewer sweeps.

        The session cap is held at the default preset's 10 so the test stays
        a couple of seconds; the buffer depth is the axis the correction
        targets (EXPERIMENTS.md convention: paper buffer, capped sessions).
        """
        params, space, balance, plain, corrected = _solve_pair(
            100, 10, 0.5, tol=1e-9
        )
        assert corrected.coarse_corrections >= 1
        assert corrected.iterations * 3 <= plain.iterations * 2  # >= 1.5x fewer
        # Measure agreement is asserted on fully converged solves (both paths
        # at the tolerance floor), the same convention as the warm-vs-cold
        # benchmarks: at working tolerance the two stopping points differ
        # within solver tolerance, not below 1e-8.  The bound is 1e-8
        # precision per measure -- relative for the large-magnitude ones
        # (mean queue length at K=100 amplifies distribution rounding by
        # ~K x states, so an absolute 1e-8 would demand sub-ulp vectors).
        params, space, balance, deep_plain, deep_corrected = _solve_pair(
            100, 10, 0.5, tol=1e-14
        )
        plain_measures = compute_measures(
            params, space, deep_plain.distribution, balance
        ).as_dict()
        corrected_measures = compute_measures(
            params, space, deep_corrected.distribution, balance
        ).as_dict()
        for key, value in plain_measures.items():
            assert corrected_measures[key] == pytest.approx(
                value, rel=1e-8, abs=1e-8
            )

    def test_deep_tolerance_agreement_across_presets(self):
        """Converged on/off solves agree below 1e-8 at every tested depth."""
        for buffer_size, sessions in ((8, 4), (20, 10), (100, 8)):
            plain, corrected = _solve_pair(buffer_size, sessions, 0.4, tol=1e-12)[3:]
            assert float(
                np.max(np.abs(plain.distribution - corrected.distribution))
            ) <= 1e-8
