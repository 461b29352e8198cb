"""Tests of the GPRS model parameters (Table 2 defaults and derived rates)."""

from __future__ import annotations

import pytest

from repro.core.parameters import GprsModelParameters
from repro.traffic.presets import TRAFFIC_MODEL_1, TRAFFIC_MODEL_3


class TestDefaultsMatchTable2:
    def test_base_values(self):
        params = GprsModelParameters(total_call_arrival_rate=0.5)
        assert params.number_of_channels == 20
        assert params.reserved_pdch == 1
        assert params.buffer_size == 100
        assert params.coding_scheme == "CS-2"
        assert params.mean_gsm_call_duration_s == 120.0
        assert params.mean_gsm_dwell_time_s == 60.0
        assert params.mean_gprs_dwell_time_s == 120.0
        assert params.gprs_fraction == 0.05
        assert params.tcp_threshold == 0.7

    def test_pdch_rate_is_cs2(self):
        params = GprsModelParameters(total_call_arrival_rate=0.5)
        assert params.pdch_rate_kbit_s == pytest.approx(13.4)
        assert params.pdch_service_rate == pytest.approx(13400 / 3840)

    def test_describe_reports_percentages(self):
        description = GprsModelParameters(total_call_arrival_rate=0.5).describe()
        assert description["percentage of GSM users"] == pytest.approx(95.0)
        assert description["percentage of GPRS users"] == pytest.approx(5.0)


class TestDerivedRates:
    def test_arrival_rate_split(self):
        params = GprsModelParameters(total_call_arrival_rate=1.0, gprs_fraction=0.1)
        assert params.gsm_arrival_rate == pytest.approx(0.9)
        assert params.gprs_arrival_rate == pytest.approx(0.1)
        assert params.gsm_arrival_rate + params.gprs_arrival_rate == pytest.approx(1.0)

    def test_departure_rates(self):
        params = GprsModelParameters(total_call_arrival_rate=0.5)
        assert params.gsm_completion_rate == pytest.approx(1 / 120)
        assert params.gsm_handover_departure_rate == pytest.approx(1 / 60)
        assert params.gprs_handover_departure_rate == pytest.approx(1 / 120)

    def test_gprs_completion_rate_follows_traffic_model(self):
        params = GprsModelParameters.from_traffic_model(TRAFFIC_MODEL_3, 0.5)
        assert params.gprs_completion_rate == pytest.approx(1 / 312.5)

    def test_gsm_channels(self):
        params = GprsModelParameters(total_call_arrival_rate=0.5, reserved_pdch=4)
        assert params.gsm_channels == 16

    def test_session_start_phase_probability(self):
        params = GprsModelParameters.from_traffic_model(TRAFFIC_MODEL_3, 0.5)
        a = params.on_to_off_rate
        b = params.off_to_on_rate
        assert params.probability_session_starts_on == pytest.approx(b / (a + b))

    def test_tcp_threshold_packets(self):
        params = GprsModelParameters(total_call_arrival_rate=0.5, buffer_size=100,
                                     tcp_threshold=0.7)
        assert params.tcp_threshold_packets == 70

    def test_state_space_size_formula(self):
        params = GprsModelParameters(
            total_call_arrival_rate=0.5, buffer_size=100, max_gprs_sessions=20,
            reserved_pdch=1, number_of_channels=20,
        )
        # (M+1)(M+2)/2 * (N_GSM+1) * (K+1) = 231 * 20 * 101
        assert params.state_space_size == 231 * 20 * 101


class TestConstructionHelpers:
    def test_from_traffic_model_sets_session_cap(self):
        params = GprsModelParameters.from_traffic_model(TRAFFIC_MODEL_1, 0.3)
        assert params.max_gprs_sessions == 50
        assert params.traffic is TRAFFIC_MODEL_1.session

    def test_from_traffic_model_overrides(self):
        params = GprsModelParameters.from_traffic_model(
            TRAFFIC_MODEL_1, 0.3, max_gprs_sessions=7, reserved_pdch=2
        )
        assert params.max_gprs_sessions == 7
        assert params.reserved_pdch == 2

    def test_with_arrival_rate_only_changes_rate(self):
        base = GprsModelParameters.from_traffic_model(TRAFFIC_MODEL_3, 0.3)
        changed = base.with_arrival_rate(0.9)
        assert changed.total_call_arrival_rate == pytest.approx(0.9)
        assert changed.traffic is base.traffic
        assert changed.buffer_size == base.buffer_size

    def test_replace(self):
        base = GprsModelParameters(total_call_arrival_rate=0.5)
        changed = base.replace(reserved_pdch=3, gprs_fraction=0.1)
        assert changed.reserved_pdch == 3
        assert changed.gprs_fraction == pytest.approx(0.1)
        assert base.reserved_pdch == 1  # original unchanged (frozen dataclass)


class TestValidation:
    def test_negative_arrival_rate_rejected(self):
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=-0.1)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_arrival_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="finite"):
            GprsModelParameters(total_call_arrival_rate=rate)

    def test_gprs_fraction_bounds(self):
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, gprs_fraction=1.5)
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, gprs_fraction=-0.1)

    def test_reserved_pdch_must_leave_gsm_channels(self):
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, reserved_pdch=20)
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, reserved_pdch=-1)

    def test_buffer_and_session_bounds(self):
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, buffer_size=0)
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, max_gprs_sessions=0)

    def test_unknown_coding_scheme_rejected(self):
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, coding_scheme="CS-7")

    def test_eta_bounds(self):
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, tcp_threshold=0.0)
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, tcp_threshold=1.2)

    def test_durations_must_be_positive(self):
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, mean_gsm_call_duration_s=0.0)
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, mean_gsm_dwell_time_s=-1.0)
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.5, mean_gprs_dwell_time_s=0.0)


class TestBlockErrorRateExtension:
    """The ARQ goodput extension (future work of the paper, see repro.radio)."""

    def test_default_is_an_error_free_link(self):
        params = GprsModelParameters(total_call_arrival_rate=0.1)
        assert params.block_error_rate == 0.0
        assert params.expected_block_transmissions == 1.0

    def test_service_rate_degrades_with_bler(self):
        clean = GprsModelParameters(total_call_arrival_rate=0.1)
        lossy = clean.replace(block_error_rate=0.25)
        assert lossy.pdch_service_rate == pytest.approx(0.75 * clean.pdch_service_rate)
        assert lossy.expected_block_transmissions == pytest.approx(1.0 / 0.75)

    def test_nominal_rate_is_unchanged_by_bler(self):
        lossy = GprsModelParameters(total_call_arrival_rate=0.1, block_error_rate=0.3)
        assert lossy.pdch_rate_kbit_s == pytest.approx(13.4)

    def test_invalid_bler_rejected(self):
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.1, block_error_rate=1.0)
        with pytest.raises(ValueError):
            GprsModelParameters(total_call_arrival_rate=0.1, block_error_rate=-0.1)
