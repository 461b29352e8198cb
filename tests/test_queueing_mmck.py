"""Tests of the M/M/c/K queue closed forms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov.solvers import steady_state_gth
from repro.queueing.erlang import ErlangLossSystem
from repro.queueing.mmck import MMcKQueue


class TestValidation:
    def test_capacity_below_servers_rejected(self):
        with pytest.raises(ValueError):
            MMcKQueue(1.0, 1.0, servers=3, capacity=2)

    def test_non_positive_service_rate_rejected(self):
        with pytest.raises(ValueError):
            MMcKQueue(1.0, 0.0, servers=1, capacity=2)

    def test_negative_arrival_rate_rejected(self):
        with pytest.raises(ValueError):
            MMcKQueue(-1.0, 1.0, servers=1, capacity=2)

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            MMcKQueue(1.0, 1.0, servers=0, capacity=2)


class TestClosedForms:
    def test_reduces_to_erlang_loss_when_no_waiting_room(self):
        queue = MMcKQueue(3.0, 1.0, servers=5, capacity=5)
        loss = ErlangLossSystem(3.0, 1.0, 5)
        assert queue.state_distribution() == pytest.approx(loss.state_distribution())
        assert queue.blocking_probability() == pytest.approx(loss.blocking_probability())

    def test_matches_birth_death_chain(self):
        """The closed form equals the GTH solution of the M/M/c/K generator."""
        arrival, service, servers, capacity = 2.0, 0.7, 3, 8
        generator = np.zeros((capacity + 1, capacity + 1))
        for n in range(capacity):
            generator[n, n + 1] = arrival
            generator[n + 1, n] = min(n + 1, servers) * service
        generator -= np.diag(generator.sum(axis=1))
        queue = MMcKQueue(arrival, service, servers=servers, capacity=capacity)
        assert queue.state_distribution() == pytest.approx(
            steady_state_gth(generator).distribution, abs=1e-12
        )

    def test_mm1k_known_solution(self):
        rho = 0.5
        queue = MMcKQueue(rho, 1.0, servers=1, capacity=4)
        expected = np.array([rho**k for k in range(5)])
        expected /= expected.sum()
        assert queue.state_distribution() == pytest.approx(expected)

    def test_throughput_flow_balance(self):
        """Accepted arrivals equal served customers: X = lambda (1 - P_loss) = mu * E[busy]."""
        queue = MMcKQueue(4.0, 1.0, servers=3, capacity=10)
        assert queue.throughput() == pytest.approx(
            queue.service_rate * queue.mean_busy_servers(), rel=1e-10
        )

    def test_littles_law_consistency(self):
        queue = MMcKQueue(2.5, 1.0, servers=2, capacity=12)
        # L = X * W for the waiting room and for the whole system.
        assert queue.mean_queue_length() == pytest.approx(
            queue.throughput() * queue.mean_waiting_time(), rel=1e-10
        )
        assert queue.mean_number_in_system() == pytest.approx(
            queue.throughput() * queue.mean_sojourn_time(), rel=1e-10
        )

    def test_zero_arrival_rate_queue_is_empty(self):
        queue = MMcKQueue(0.0, 1.0, servers=2, capacity=5)
        assert queue.mean_number_in_system() == pytest.approx(0.0)
        assert queue.mean_waiting_time() == pytest.approx(0.0)
        assert queue.blocking_probability() == pytest.approx(0.0)


class TestMonotonicity:
    @given(
        arrival=st.floats(min_value=0.1, max_value=20.0),
        service=st.floats(min_value=0.1, max_value=5.0),
        servers=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocking_decreases_with_capacity(self, arrival, service, servers, extra):
        small = MMcKQueue(arrival, service, servers, servers + extra)
        large = MMcKQueue(arrival, service, servers, servers + extra + 3)
        assert large.blocking_probability() <= small.blocking_probability() + 1e-12

    @given(
        arrival=st.floats(min_value=0.1, max_value=20.0),
        capacity=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_distribution_is_valid(self, arrival, capacity):
        queue = MMcKQueue(arrival, 1.0, servers=1, capacity=capacity)
        pi = queue.state_distribution()
        assert np.all(pi >= 0)
        assert pi.sum() == pytest.approx(1.0)
