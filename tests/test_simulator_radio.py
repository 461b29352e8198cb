"""Tests of the radio-interface arithmetic (TDMA/RLC segmentation, multislot)."""

from __future__ import annotations

import math

import pytest

from repro.radio.blocks import (
    RADIO_BLOCK_PERIOD_S,
    RLC_BLOCK_PAYLOAD_BITS,
    effective_rate_kbit_s,
    rlc_blocks_per_packet,
    transmission_time,
)
from repro.traffic.units import CODING_SCHEME_RATES_KBIT_S, pdch_service_rate


class TestBlockPayloads:
    def test_block_rates_reproduce_table2(self):
        """Payload bits per 20 ms block reproduce the per-PDCH kbit/s of each coding scheme."""
        for scheme, payload in RLC_BLOCK_PAYLOAD_BITS.items():
            rate = payload / RADIO_BLOCK_PERIOD_S / 1000.0
            assert rate == pytest.approx(CODING_SCHEME_RATES_KBIT_S[scheme], rel=1e-9)

    def test_cs2_blocks_per_480_byte_packet(self):
        assert rlc_blocks_per_packet(480, "CS-2") == math.ceil(3840 / 268) == 15

    def test_cs4_needs_fewer_blocks(self):
        assert rlc_blocks_per_packet(480, "CS-4") < rlc_blocks_per_packet(480, "CS-1")

    def test_invalid_packet_size(self):
        with pytest.raises(ValueError):
            rlc_blocks_per_packet(0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            rlc_blocks_per_packet(480, "CS-0")


class TestTransmissionTime:
    def test_single_channel_rate_matches_service_rate(self):
        """One packet over one CS-2 PDCH takes about 1 / mu_service seconds."""
        time = transmission_time(480, channels=1, coding_scheme="CS-2")
        assert time == pytest.approx(1.0 / pdch_service_rate("CS-2"), rel=0.05)

    def test_more_channels_are_faster(self):
        single = transmission_time(480, channels=1)
        quad = transmission_time(480, channels=4)
        assert quad < single
        assert quad == pytest.approx(math.ceil(15 / 4) * RADIO_BLOCK_PERIOD_S)

    def test_channels_clipped_at_multislot_limit(self):
        assert transmission_time(480, channels=8) == transmission_time(480, channels=20)

    def test_at_least_one_channel_required(self):
        with pytest.raises(ValueError):
            transmission_time(480, channels=0)

    def test_small_packet_single_block(self):
        assert transmission_time(30, channels=1) == pytest.approx(RADIO_BLOCK_PERIOD_S)


class TestEffectiveRate:
    def test_aggregate_rate_scales_with_channels(self):
        assert effective_rate_kbit_s(4, "CS-2") == pytest.approx(4 * 13.4)

    def test_zero_channels(self):
        assert effective_rate_kbit_s(0) == 0.0

    def test_negative_channels_rejected(self):
        with pytest.raises(ValueError):
            effective_rate_kbit_s(-1)
