"""Tests of the RLC selective-repeat ARQ analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.radio.arq import (
    analyze_arq,
    effective_pdch_rate_kbit_s,
    effective_service_rate,
    expected_packet_transfer_time,
    expected_transmissions_per_block,
    mean_transmissions_with_bursts,
    residual_block_loss_probability,
    transfer_time_percentile,
)
from repro.radio.blocks import transmission_time
from repro.traffic.units import CODING_SCHEME_RATES_KBIT_S, pdch_service_rate


class TestExpectedTransmissions:
    def test_error_free_link_needs_one_transmission(self):
        assert expected_transmissions_per_block(0.0) == pytest.approx(1.0)

    def test_unbounded_arq_geometric_mean(self):
        assert expected_transmissions_per_block(0.5) == pytest.approx(2.0)
        assert expected_transmissions_per_block(0.9) == pytest.approx(10.0)

    def test_bounded_arq_never_exceeds_the_limit(self):
        for bler in (0.1, 0.5, 0.9):
            for limit in (1, 2, 5):
                assert expected_transmissions_per_block(bler, limit) <= limit

    def test_bounded_arq_approaches_unbounded_for_large_limits(self):
        unbounded = expected_transmissions_per_block(0.3)
        bounded = expected_transmissions_per_block(0.3, max_transmissions=100)
        assert bounded == pytest.approx(unbounded, rel=1e-9)

    def test_single_transmission_limit(self):
        assert expected_transmissions_per_block(0.4, max_transmissions=1) == pytest.approx(1.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            expected_transmissions_per_block(1.0)
        with pytest.raises(ValueError):
            expected_transmissions_per_block(-0.1)
        with pytest.raises(ValueError):
            expected_transmissions_per_block(0.1, max_transmissions=0)


class TestResidualLoss:
    def test_residual_loss_is_bler_to_the_power_of_the_limit(self):
        assert residual_block_loss_probability(0.1, 3) == pytest.approx(1e-3)

    def test_error_free_link_has_no_residual_loss(self):
        assert residual_block_loss_probability(0.0, 1) == 0.0

    def test_more_retransmissions_reduce_residual_loss(self):
        losses = [residual_block_loss_probability(0.2, limit) for limit in range(1, 8)]
        assert losses == sorted(losses, reverse=True)

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            residual_block_loss_probability(0.2, 0)


class TestEffectiveRates:
    def test_error_free_goodput_equals_nominal_rate(self):
        for scheme, nominal in CODING_SCHEME_RATES_KBIT_S.items():
            assert effective_pdch_rate_kbit_s(scheme, 0.0) == pytest.approx(nominal)

    def test_goodput_scales_with_one_minus_bler(self):
        assert effective_pdch_rate_kbit_s("CS-2", 0.25) == pytest.approx(13.4 * 0.75)

    def test_effective_service_rate_matches_error_free_helper(self):
        assert effective_service_rate("CS-2", 0.0) == pytest.approx(pdch_service_rate("CS-2"))

    def test_effective_service_rate_decreases_with_bler(self):
        rates = [effective_service_rate("CS-2", bler) for bler in (0.0, 0.1, 0.3, 0.6)]
        assert rates == sorted(rates, reverse=True)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            effective_pdch_rate_kbit_s("CS-7", 0.1)


class TestPacketTransferTime:
    def test_error_free_time_matches_radio_arithmetic(self):
        assert expected_packet_transfer_time(480, 4, "CS-2", 0.0) == pytest.approx(
            transmission_time(480, 4, "CS-2")
        )

    def test_bler_stretches_the_transfer(self):
        clean = expected_packet_transfer_time(480, 2, "CS-2", 0.0)
        lossy = expected_packet_transfer_time(480, 2, "CS-2", 0.5)
        assert lossy == pytest.approx(2.0 * clean)

    def test_percentile_at_least_the_error_free_time(self):
        base = transmission_time(480, 1, "CS-2")
        assert transfer_time_percentile(0.95, 480, 1, "CS-2", 0.0) == pytest.approx(base)
        assert transfer_time_percentile(0.95, 480, 1, "CS-2", 0.2) >= base

    def test_percentile_grows_with_the_target(self):
        p50 = transfer_time_percentile(0.5, 480, 1, "CS-2", 0.3)
        p99 = transfer_time_percentile(0.99, 480, 1, "CS-2", 0.3)
        assert p99 >= p50

    def test_invalid_percentile_rejected(self):
        with pytest.raises(ValueError):
            transfer_time_percentile(0.0)
        with pytest.raises(ValueError):
            transfer_time_percentile(1.0)


class TestAnalyzeArq:
    def test_requires_exactly_one_link_quality_input(self):
        with pytest.raises(ValueError):
            analyze_arq("CS-2")
        with pytest.raises(ValueError):
            analyze_arq("CS-2", ci_db=9.0, bler=0.1)

    def test_summary_is_consistent(self):
        report = analyze_arq("CS-2", bler=0.2)
        assert report.expected_transmissions == pytest.approx(1.25)
        assert report.effective_rate_kbit_s == pytest.approx(13.4 * 0.8)
        assert report.residual_loss_probability == 0.0
        assert report.blocks_per_packet == 15
        assert report.expected_packet_time_one_pdch_s > 0

    def test_ci_is_mapped_through_the_bler_curve(self):
        good_link = analyze_arq("CS-2", ci_db=25.0)
        poor_link = analyze_arq("CS-2", ci_db=3.0)
        assert good_link.block_error_rate < poor_link.block_error_rate
        assert good_link.effective_rate_kbit_s > poor_link.effective_rate_kbit_s

    def test_bounded_arq_reports_residual_loss(self):
        report = analyze_arq("CS-2", bler=0.3, max_transmissions=4)
        assert report.residual_loss_probability == pytest.approx(0.3**4)


class TestBurstAwareMean:
    def test_matches_stationary_mixture(self):
        value = mean_transmissions_with_bursts(0.02, 0.5, probability_bad=0.2)
        stationary = 0.8 * 0.02 + 0.2 * 0.5
        assert value == pytest.approx(1.0 / (1.0 - stationary))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            mean_transmissions_with_bursts(0.02, 0.5, probability_bad=1.5)
        with pytest.raises(ValueError):
            mean_transmissions_with_bursts(0.02, 1.0, probability_bad=1.0)


class TestArqProperties:
    @given(bler=st.floats(min_value=0.0, max_value=0.95))
    def test_goodput_never_exceeds_nominal_rate(self, bler):
        assert effective_pdch_rate_kbit_s("CS-3", bler) <= CODING_SCHEME_RATES_KBIT_S["CS-3"] + 1e-12

    @given(
        bler=st.floats(min_value=0.0, max_value=0.95),
        limit=st.integers(min_value=1, max_value=20),
    )
    def test_bounded_mean_is_below_unbounded_mean(self, bler, limit):
        assert (
            expected_transmissions_per_block(bler, limit)
            <= expected_transmissions_per_block(bler) + 1e-12
        )

    @given(bler=st.floats(min_value=0.01, max_value=0.9))
    def test_expected_transmissions_at_least_one(self, bler):
        assert expected_transmissions_per_block(bler) >= 1.0
