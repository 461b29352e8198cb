"""Tests of the structure-exploiting steady-state solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.generator import build_generator
from repro.core.handover import balance_handover_rates
from repro.core.parameters import GprsModelParameters
from repro.core.state_space import GprsStateSpace
from repro.core.structured_solver import (
    StructuredSolveContext,
    _phase_marginal,
    build_phase_generator,
    solve_structured,
)
from repro.markov.solvers import solve_steady_state, steady_state_direct
from repro.queueing.erlang import ErlangLossSystem
from repro.traffic.presets import TRAFFIC_MODEL_1, TRAFFIC_MODEL_3


def _setup(params):
    balance = balance_handover_rates(params)
    space = GprsStateSpace(params.gsm_channels, params.buffer_size, params.max_gprs_sessions)
    generator, _ = build_generator(
        params,
        space,
        gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
        gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
    )
    return balance, space, generator


class TestPhaseGenerator:
    def test_phase_generator_rows_sum_to_zero(self, small_parameters):
        balance, space, _ = _setup(small_parameters)
        phase_generator = build_phase_generator(
            small_parameters,
            space,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
        )
        pair_count = (space.max_sessions + 1) * (space.max_sessions + 2) // 2
        assert phase_generator.shape[0] == (space.gsm_channels + 1) * pair_count
        rows = np.asarray(phase_generator.sum(axis=1)).ravel()
        assert np.max(np.abs(rows)) < 1e-10

    def test_phase_marginal_n_is_erlang_loss(self, small_parameters):
        """Marginalising the phase chain over (m, r) gives the GSM Erlang-loss solution."""
        balance, space, _ = _setup(small_parameters)
        phase_generator = build_phase_generator(
            small_parameters,
            space,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
        )
        pi = solve_steady_state(phase_generator).distribution
        pair_count = (space.max_sessions + 1) * (space.max_sessions + 2) // 2
        marginal_n = pi.reshape(space.gsm_channels + 1, pair_count).sum(axis=1)
        system = ErlangLossSystem(
            arrival_rate=small_parameters.gsm_arrival_rate
            + balance.gsm_handover_arrival_rate,
            service_rate=small_parameters.gsm_completion_rate
            + small_parameters.gsm_handover_departure_rate,
            servers=small_parameters.gsm_channels,
        )
        assert marginal_n == pytest.approx(system.state_distribution(), abs=1e-9)


class TestPhaseStencilConsistency:
    """The phase transition stencil exists in two forms (the sparse phase
    generator and the context's frozen pattern, whose diagonal blocks are
    the Kronecker factor chains); these tests pin them to each other so an
    edit to one copy cannot silently desynchronise the solver."""

    def test_context_coupling_matches_phase_generator(self, small_parameters):
        balance, space, _ = _setup(small_parameters)
        reference = build_phase_generator(
            small_parameters,
            space,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
        )
        context = StructuredSolveContext.build(small_parameters, space)
        gsm_arrival = (
            small_parameters.gsm_arrival_rate + balance.gsm_handover_arrival_rate
        )
        gprs_arrival = (
            small_parameters.gprs_arrival_rate + balance.gprs_handover_arrival_rate
        )
        phase_off, phase_exit = context.phase_coupling(gsm_arrival, gprs_arrival)
        off_reference = reference.copy()
        off_reference.setdiag(0.0)
        off_reference.eliminate_zeros()
        difference = abs(phase_off - off_reference)
        assert difference.max() < 1e-12 if difference.nnz else True
        assert phase_exit == pytest.approx(-reference.diagonal(), abs=1e-12)

    def test_kronecker_marginal_matches_full_phase_chain(self, small_parameters):
        balance, space, _ = _setup(small_parameters)
        reference = build_phase_generator(
            small_parameters,
            space,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
        )
        solved = solve_steady_state(reference, method="auto").distribution
        gsm_arrival = (
            small_parameters.gsm_arrival_rate + balance.gsm_handover_arrival_rate
        )
        gprs_arrival = (
            small_parameters.gprs_arrival_rate + balance.gprs_handover_arrival_rate
        )
        context = StructuredSolveContext.build(small_parameters, space)
        phase_off, _ = context.phase_coupling(gsm_arrival, gprs_arrival)
        kronecker = _phase_marginal(phase_off, context.pair_count)
        assert kronecker == pytest.approx(solved, abs=1e-12)


class TestStructuredSolution:
    def test_matches_generic_solver_small(self, small_parameters):
        balance, space, generator = _setup(small_parameters)
        structured = solve_structured(
            small_parameters,
            space,
            generator,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
        )
        reference = solve_steady_state(generator, method="gth")
        assert structured.distribution == pytest.approx(reference.distribution, abs=1e-6)
        assert structured.method == "structured"

    def test_matches_generic_solver_medium(self, medium_parameters):
        balance, space, generator = _setup(medium_parameters)
        structured = solve_structured(
            medium_parameters,
            space,
            generator,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
        )
        reference = solve_steady_state(generator, method="direct")
        assert structured.distribution == pytest.approx(reference.distribution, abs=1e-6)

    def test_distribution_is_valid(self, light_traffic_parameters):
        balance, space, generator = _setup(light_traffic_parameters)
        result = solve_structured(
            light_traffic_parameters,
            space,
            generator,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
        )
        assert result.distribution.sum() == pytest.approx(1.0)
        assert np.all(result.distribution >= 0)
        assert result.iterations > 0

    def test_residual_is_small(self, medium_parameters):
        balance, space, generator = _setup(medium_parameters)
        result = solve_structured(
            medium_parameters,
            space,
            generator,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
        )
        scale = np.max(np.abs(generator.diagonal()))
        assert result.residual / scale < 1e-6

    def test_works_without_flow_control(self):
        """eta = 1 (no TCP throttling) exercises the uncapped arrival branch."""
        params = GprsModelParameters.from_traffic_model(
            TRAFFIC_MODEL_3, 0.8, buffer_size=5, max_gprs_sessions=3, tcp_threshold=1.0
        )
        balance, space, generator = _setup(params)
        structured = solve_structured(
            params,
            space,
            generator,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
        )
        reference = solve_steady_state(generator, method="direct")
        assert structured.distribution == pytest.approx(reference.distribution, abs=1e-6)

    def test_works_for_light_long_sessions(self):
        """Traffic model 1 (very long sessions, tiny packet rate) is the stiffest case."""
        params = GprsModelParameters.from_traffic_model(
            TRAFFIC_MODEL_1, 0.6, buffer_size=4, max_gprs_sessions=3
        )
        balance, space, generator = _setup(params)
        structured = solve_structured(
            params,
            space,
            generator,
            gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
            gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
        )
        reference = solve_steady_state(generator, method="direct")
        assert structured.distribution == pytest.approx(reference.distribution, abs=1e-6)


class TestCoarseCorrectionOracle:
    """The coarse path against an exact sparse LU solve of the whole chain.

    Small chains deep enough to engage the correction (``K + 1 >= 48``
    levels), solved to the tolerance floor with the correction on and off,
    cold and warm-seeded from the exact solution at an adjacent rate.
    """

    @settings(max_examples=15, deadline=None)
    @given(
        channels=st.integers(3, 6),
        reserved=st.integers(1, 2),
        buffer_size=st.integers(48, 80),
        sessions=st.integers(1, 3),
        rate=st.floats(0.1, 1.2),
    )
    def test_matches_direct_lu(self, channels, reserved, buffer_size, sessions, rate):
        params = GprsModelParameters.from_traffic_model(
            TRAFFIC_MODEL_3,
            rate,
            buffer_size=buffer_size,
            max_gprs_sessions=sessions,
            number_of_channels=channels,
            reserved_pdch=reserved,
        )
        balance, space, generator = _setup(params)
        exact = steady_state_direct(generator).distribution
        adjacent = _setup(params.with_arrival_rate(1.1 * rate))[2]
        seed = steady_state_direct(adjacent).distribution
        for coarse in (False, True):
            for initial in (None, seed):
                result = solve_structured(
                    params,
                    space,
                    generator,
                    gsm_handover_arrival_rate=balance.gsm_handover_arrival_rate,
                    gprs_handover_arrival_rate=balance.gprs_handover_arrival_rate,
                    tol=1e-14,
                    initial=initial,
                    coarse_correction=coarse,
                )
                error = float(np.max(np.abs(result.distribution - exact)))
                assert error <= 1e-10, (coarse, initial is not None, error)
                if coarse and initial is None:
                    assert result.coarse_corrections >= 1
