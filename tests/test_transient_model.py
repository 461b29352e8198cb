"""Tests of the transient model: anchors, continuity, early stop, templates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from repro import GprsMarkovModel, GprsModelParameters, traffic_model
from repro.core.handover import balance_handover_rates
from repro.experiments.scale import ExperimentScale
from repro.runtime import scenario
from repro.transient import (
    RateSchedule,
    ScheduleSegment,
    TransientModel,
    WorkloadProfile,
    busy_hour_ramp,
    constant_workload,
    flash_crowd,
    outage_recovery,
)
from repro.transient.model import _SegmentPropagator
from repro.validation.transient import check_transient_steady_state


def mini_parameters(rate: float = 0.5) -> GprsModelParameters:
    """A small, fast-mixing configuration (the GSM call duration dominates
    the relaxation time, so it is shortened to make 1e-8 convergence cheap)."""
    return GprsModelParameters.from_traffic_model(
        traffic_model(3),
        total_call_arrival_rate=rate,
        number_of_channels=6,
        reserved_pdch=2,
        buffer_size=4,
        max_gprs_sessions=2,
        mean_gsm_call_duration_s=5.0,
        mean_gsm_dwell_time_s=3.0,
        mean_gprs_dwell_time_s=4.0,
    )


def short_profile(samples: int = 6) -> WorkloadProfile:
    """A quick three-segment spike used by several tests."""
    return flash_crowd(
        spike_multiplier=2.5,
        lead_duration_s=6.0,
        spike_duration_s=8.0,
        recovery_duration_s=16.0,
        samples=samples,
    )


class TestValidationAnchor:
    def test_constant_schedule_stays_on_steady_state_default_preset(self):
        """Acceptance anchor: at the default preset (26k states) a constant
        schedule started on the fixed point must agree with the steady-state
        solver to 1e-8 at every sample -- and the early stop must make the
        whole trajectory cost a handful of matrix-vector products."""
        params = scenario("figure12").parameters(
            ExperimentScale.default()
        ).with_arrival_rate(0.5)
        check = check_transient_steady_state(params, horizon_s=3600.0, samples=5)
        assert check.passed, check.summary()
        assert check.worst_measure_error <= 1e-8
        assert check.early_stopped
        assert check.matvecs <= 10

    def test_empty_start_converges_to_steady_state(self):
        """Genuine relaxation: from the empty cell a constant schedule must
        land on the steady-state measures within 1e-8 by a long horizon."""
        check = check_transient_steady_state(
            mini_parameters(), horizon_s=200.0, samples=4, initial="empty"
        )
        assert check.passed, check.summary()
        assert check.final_measure_error <= 1e-8
        assert not check.early_stopped  # convergence proved without the shortcut
        # The early samples legitimately deviate (they are the transient).
        assert check.worst_measure_error > check.final_measure_error

    def test_summary_mentions_pass_and_tolerance(self):
        check = check_transient_steady_state(mini_parameters(), horizon_s=50.0)
        assert "transient anchor" in check.summary()
        assert "PASS" in check.summary()


class TestSegmentContinuity:
    def test_split_segment_matches_single_segment(self):
        """A segment split in two at a breakpoint is the same workload: the
        distribution must carry across the breakpoint and produce the same
        trajectory."""
        params = mini_parameters()
        whole = TransientModel(
            WorkloadProfile(
                schedule=RateSchedule(
                    name="whole",
                    segments=(
                        ScheduleSegment(duration_s=30.0, arrival_rate_multiplier=2.0),
                    ),
                ),
                times=(15.0, 30.0),
                initial="empty",
            ),
            params,
        ).solve()
        split = TransientModel(
            WorkloadProfile(
                schedule=RateSchedule(
                    name="split",
                    segments=(
                        ScheduleSegment(duration_s=15.0, arrival_rate_multiplier=2.0),
                        ScheduleSegment(duration_s=15.0, arrival_rate_multiplier=2.0),
                    ),
                ),
                times=(15.0, 30.0),
                initial="empty",
            ),
            params,
        ).solve()
        assert np.allclose(
            whole.final_distribution, split.final_distribution, atol=1e-12
        )
        for metric in ("packet_loss_probability", "carried_data_traffic"):
            assert whole.series(metric) == pytest.approx(
                split.series(metric), abs=1e-10
            )

    def test_shape_change_conserves_mass_and_remaps(self):
        params = mini_parameters()
        result = TransientModel(
            outage_recovery(
                outage_channels=4,
                lead_duration_s=5.0,
                outage_duration_s=10.0,
                recovery_duration_s=10.0,
                samples=5,
            ),
            params,
        ).solve()
        assert [trace.remapped for trace in result.segments] == [False, True, True]
        sizes = [trace.states for trace in result.segments]
        assert sizes[0] == sizes[2] and sizes[1] < sizes[0]
        assert result.final_distribution.sum() == pytest.approx(1.0, abs=1e-12)
        assert all(
            point.values["packet_loss_probability"] >= 0.0 for point in result.points
        )

    def test_sample_at_breakpoint_uses_the_new_segment(self):
        params = mini_parameters()
        result = TransientModel(
            WorkloadProfile(
                schedule=RateSchedule(
                    name="step",
                    segments=(
                        ScheduleSegment(duration_s=10.0),
                        ScheduleSegment(duration_s=10.0, arrival_rate_multiplier=3.0),
                    ),
                ),
                times=(0.0, 10.0, 20.0),
            ),
            params,
        ).solve()
        assert result.points[0].arrival_rate == pytest.approx(0.5)
        assert result.points[1].segment == 1
        assert result.points[1].arrival_rate == pytest.approx(1.5)


class TestEarlyStop:
    def test_early_stop_matches_disabled_early_stop(self):
        params = mini_parameters()
        profile = short_profile()
        adaptive = TransientModel(profile, params).solve()
        exhaustive = TransientModel(profile, params, steady_state_tol=0.0).solve()
        for metric in ("packet_loss_probability", "mean_queue_length"):
            assert adaptive.series(metric) == pytest.approx(
                exhaustive.series(metric), abs=1e-9
            )
        assert exhaustive.early_stopped_segments == 0
        assert adaptive.matvecs <= exhaustive.matvecs

    def test_stationary_start_on_constant_schedule_is_free(self):
        params = mini_parameters()
        result = TransientModel(constant_workload(500.0, samples=5), params).solve()
        assert result.early_stopped_segments == 1
        assert result.matvecs <= 2
        assert result.segments[0].stationary_from_s == 0.0


def random_generator(seed: int, states: int) -> np.ndarray:
    """A random CTMC generator with some transitions switched off."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 5.0, (states, states))
    rates[rng.random((states, states)) < 0.3] = 0.0
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return rates


class TestSingleSeriesAdvance:
    """Each advance is one windowed Poisson series, whatever its mean."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        states=st.integers(2, 6),
        mean=st.floats(0.01, 5000.0),
        first_step=st.booleans(),
    )
    @example(seed=7, states=5, mean=4321.0, first_step=True)
    def test_advance_matches_the_matrix_exponential(
        self, seed, states, mean, first_step
    ):
        generator = random_generator(seed, states)
        propagator = _SegmentPropagator(generator, truncation_tol=1e-12)
        pi = np.random.default_rng(seed + 1).dirichlet(np.ones(states))
        dt = mean / propagator.lam
        stepped = propagator.step(pi) if first_step else None
        advanced = propagator.advance(pi, dt, first_step=stepped)
        np.testing.assert_allclose(advanced, pi @ expm(generator * dt), atol=1e-10)

    @pytest.mark.parametrize("mean", [0.5, 5.0, 50.0, 700.0, 4000.0, 2e4])
    def test_one_advance_costs_one_series(self, mean):
        """A split into bounded-mean sub-steps would pay one right tail of
        ~7 sqrt(step mean) products per sub-step and break this bound."""
        generator = random_generator(3, 4)
        propagator = _SegmentPropagator(generator, truncation_tol=1e-12)
        pi = np.full(4, 0.25)
        propagator.advance(pi, mean / propagator.lam)
        assert propagator.matvecs <= mean + 8.0 * np.sqrt(mean) + 30.0


class TestQuasiStationaryHandover:
    def test_segment_rates_solve_the_segment_balance(self):
        params = mini_parameters()
        result = TransientModel(short_profile(), params).solve()
        for trace, segment in zip(
            result.segments, short_profile().schedule.segments
        ):
            fresh = balance_handover_rates(segment.parameters(params))
            assert trace.gsm_handover_rate == pytest.approx(
                fresh.gsm_handover_arrival_rate, abs=1e-8
            )
            assert trace.gprs_handover_rate == pytest.approx(
                fresh.gprs_handover_arrival_rate, abs=1e-8
            )


class TestTemplateReuse:
    def test_rate_only_schedule_enumerates_once(self):
        params = mini_parameters()
        result = TransientModel(
            busy_hour_ramp(step_duration_s=4.0, hold_duration_s=8.0, samples=6),
            params,
        ).solve()
        assert result.templates_built == 1
        assert sum(1 for trace in result.segments if trace.template_reused) == (
            len(result.segments) - 1
        )

    def test_shape_changes_build_one_template_per_configuration(self):
        params = mini_parameters()
        result = TransientModel(
            outage_recovery(
                outage_channels=4,
                lead_duration_s=4.0,
                outage_duration_s=4.0,
                recovery_duration_s=4.0,
                samples=3,
            ),
            params,
        ).solve()
        # lead and recovery share a configuration; the outage differs.
        assert result.templates_built == 2

    def test_shared_templates_are_bitwise_equal_to_cold_rebuilds(self):
        params = mini_parameters()
        profile = short_profile()
        shared = TransientModel(profile, params).solve()
        cold = TransientModel(profile, params, share_templates=False).solve()
        assert cold.templates_built == len(profile.schedule.segments)
        for metric in shared.points[0].values:
            assert shared.series(metric) == cold.series(metric)
        assert np.array_equal(shared.final_distribution, cold.final_distribution)


class TestResultShape:
    def test_time_averages_and_peaks(self):
        params = mini_parameters()
        result = TransientModel(short_profile(), params).solve()
        averages = result.time_averages()
        peaks = result.peaks()
        series = result.series("packet_loss_probability")
        assert min(series) <= averages["packet_loss_probability"] <= max(series)
        assert peaks["packet_loss_probability"] == max(series)
        # The spike must actually show up in the trajectory.
        assert peaks["packet_loss_probability"] > series[0]

    def test_as_dict_is_json_serialisable(self):
        import json

        params = mini_parameters()
        result = TransientModel(short_profile(samples=3), params).solve()
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["profile"]["name"] == "flash-crowd"
        assert len(payload["points"]) == 4
        assert payload["templates_built"] == 1
        assert set(payload["time_averages"]) == set(payload["points"][0]["values"])

    def test_validation_of_constructor_arguments(self):
        params = mini_parameters()
        with pytest.raises(ValueError, match="WorkloadProfile"):
            TransientModel({"not": "a profile"}, params)
        with pytest.raises(ValueError, match="truncation_tol"):
            TransientModel(short_profile(), params, truncation_tol=0.0)
        with pytest.raises(ValueError, match="steady_state_tol"):
            TransientModel(short_profile(), params, steady_state_tol=-1.0)
