"""RLC selective-repeat ARQ analysis: retransmissions, goodput, residual loss.

GPRS runs an automatic repeat request (ARQ) protocol in the RLC layer: every
radio block that fails its block check is retransmitted until it arrives (or
until the retransmission limit is exhausted).  The paper assumes an error-free
link ("almost all packet losses can be recovered by the FEC mechanism") and
names the throughput cost of retransmissions as future work; this module
provides that analysis.

With independent block errors of probability ``p`` and an unbounded
selective-repeat ARQ the number of transmissions of one block is geometric
with mean ``1 / (1 - p)``, so the *goodput* of a PDCH shrinks from the nominal
coding-scheme rate ``R`` to ``R * (1 - p)``.  With a bounded number of
transmissions ``L`` a block is lost for good with probability ``p ** L``
(the residual loss that the LLC or TCP layer has to handle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.radio.bler import block_error_rate
from repro.radio.blocks import rlc_blocks_per_packet, transmission_time
from repro.traffic.units import (
    CODING_SCHEME_RATES_KBIT_S,
    DATA_PACKET_SIZE_BYTES,
    kbit_per_s_to_packets_per_s,
)

__all__ = [
    "ArqPerformance",
    "analyze_arq",
    "effective_pdch_rate_kbit_s",
    "effective_service_rate",
    "expected_packet_transfer_time",
    "expected_transmissions_per_block",
    "residual_block_loss_probability",
]


def _validate_bler(bler: float) -> float:
    if not 0.0 <= bler < 1.0:
        raise ValueError("block error rate must be in [0, 1)")
    return float(bler)


def expected_transmissions_per_block(
    bler: float, max_transmissions: int | None = None
) -> float:
    """Return the expected number of transmissions of one RLC block.

    Parameters
    ----------
    bler:
        Block error probability (independent across transmissions).
    max_transmissions:
        Optional limit ``L`` on the number of transmissions; ``None`` means
        the block is retransmitted until it succeeds.
    """
    p = _validate_bler(bler)
    if max_transmissions is None:
        return 1.0 / (1.0 - p)
    if max_transmissions < 1:
        raise ValueError("max_transmissions must be at least 1")
    # Truncated geometric: sum_{i=1}^{L} i p^{i-1} (1-p)  +  L p^L.
    return (1.0 - p**max_transmissions) / (1.0 - p)


def residual_block_loss_probability(bler: float, max_transmissions: int) -> float:
    """Return the probability that a block is still lost after ``L`` transmissions."""
    p = _validate_bler(bler)
    if max_transmissions < 1:
        raise ValueError("max_transmissions must be at least 1")
    return p**max_transmissions


def effective_pdch_rate_kbit_s(
    coding_scheme: str = "CS-2",
    bler: float = 0.0,
    *,
    max_transmissions: int | None = None,
) -> float:
    """Return the ARQ goodput of one PDCH in kbit/s.

    The goodput is the nominal coding-scheme rate divided by the expected
    number of transmissions per block.
    """
    try:
        nominal = CODING_SCHEME_RATES_KBIT_S[coding_scheme]
    except KeyError as exc:
        raise ValueError(
            f"unknown coding scheme {coding_scheme!r}; expected one of "
            f"{sorted(CODING_SCHEME_RATES_KBIT_S)}"
        ) from exc
    return nominal / expected_transmissions_per_block(bler, max_transmissions)


def effective_service_rate(
    coding_scheme: str = "CS-2",
    bler: float = 0.0,
    packet_size_bytes: int = DATA_PACKET_SIZE_BYTES,
    *,
    max_transmissions: int | None = None,
) -> float:
    """Return the packet service rate (packets/s) of one PDCH under ARQ.

    This is the quantity the analytical GPRS model uses as ``mu_service`` when
    a non-zero block error rate is configured.
    """
    return kbit_per_s_to_packets_per_s(
        effective_pdch_rate_kbit_s(coding_scheme, bler, max_transmissions=max_transmissions),
        packet_size_bytes,
    )


def expected_packet_transfer_time(
    packet_size_bytes: int = DATA_PACKET_SIZE_BYTES,
    channels: int = 1,
    coding_scheme: str = "CS-2",
    bler: float = 0.0,
) -> float:
    """Return the expected downlink transfer time of one packet including ARQ.

    The error-free transfer time of :func:`repro.radio.blocks.transmission_time`
    is stretched by the expected number of transmissions per block; this is the
    same expected-value treatment the network simulator applies, so analytical
    and simulated transfer times stay consistent.
    """
    base = transmission_time(packet_size_bytes, channels, coding_scheme)
    return base * expected_transmissions_per_block(bler)


@dataclass(frozen=True)
class ArqPerformance:
    """Summary of the RLC ARQ behaviour for one link configuration.

    Attributes
    ----------
    coding_scheme:
        The coding scheme analysed.
    block_error_rate:
        Block error probability used for the analysis.
    expected_transmissions:
        Mean transmissions per RLC block.
    effective_rate_kbit_s:
        Goodput of one PDCH in kbit/s.
    effective_packet_rate:
        Goodput of one PDCH in network-layer packets per second.
    residual_loss_probability:
        Probability that a block exhausts the retransmission limit
        (zero for unbounded ARQ).
    blocks_per_packet:
        RLC blocks per network-layer packet.
    expected_packet_time_one_pdch_s:
        Expected transfer time of one packet over a single PDCH.
    """

    coding_scheme: str
    block_error_rate: float
    expected_transmissions: float
    effective_rate_kbit_s: float
    effective_packet_rate: float
    residual_loss_probability: float
    blocks_per_packet: int
    expected_packet_time_one_pdch_s: float


def analyze_arq(
    coding_scheme: str = "CS-2",
    *,
    ci_db: float | None = None,
    bler: float | None = None,
    max_transmissions: int | None = None,
    packet_size_bytes: int = DATA_PACKET_SIZE_BYTES,
) -> ArqPerformance:
    """Analyse the RLC ARQ for one coding scheme and link quality.

    Exactly one of ``ci_db`` (carrier-to-interference ratio, mapped through the
    coding scheme's BLER curve) or ``bler`` (explicit block error rate) must be
    supplied.
    """
    if (ci_db is None) == (bler is None):
        raise ValueError("specify exactly one of ci_db or bler")
    if bler is None:
        bler = block_error_rate(coding_scheme, ci_db)
    p = _validate_bler(bler)
    transmissions = expected_transmissions_per_block(p, max_transmissions)
    residual = (
        0.0 if max_transmissions is None else residual_block_loss_probability(p, max_transmissions)
    )
    rate = effective_pdch_rate_kbit_s(coding_scheme, p, max_transmissions=max_transmissions)
    return ArqPerformance(
        coding_scheme=coding_scheme,
        block_error_rate=p,
        expected_transmissions=transmissions,
        effective_rate_kbit_s=rate,
        effective_packet_rate=kbit_per_s_to_packets_per_s(rate, packet_size_bytes),
        residual_loss_probability=residual,
        blocks_per_packet=rlc_blocks_per_packet(packet_size_bytes, coding_scheme),
        expected_packet_time_one_pdch_s=expected_packet_transfer_time(
            packet_size_bytes, 1, coding_scheme, p
        ),
    )


def mean_transmissions_with_bursts(
    good_bler: float,
    bad_bler: float,
    probability_bad: float,
) -> float:
    """Expected transmissions per block when errors come from a two-state channel.

    The first transmission of a block sees the stationary mixture of good and
    bad states; retransmissions are spaced at least one ARQ round trip apart,
    which for GPRS (tens of milliseconds) is comparable to the fading dip
    duration, so they are treated as resampling the stationary mixture.  The
    result is the unbounded-ARQ mean with the *stationary* block error rate --
    burstiness changes the variance of the transfer time, not its mean.
    """
    if not 0.0 <= probability_bad <= 1.0:
        raise ValueError("probability_bad must be in [0, 1]")
    stationary = (1.0 - probability_bad) * _validate_bler(good_bler) + (
        probability_bad * _validate_bler(bad_bler)
    )
    if stationary >= 1.0:
        raise ValueError("the stationary block error rate must be below 1")
    return 1.0 / (1.0 - stationary)


def transfer_time_percentile(
    percentile: float,
    packet_size_bytes: int = DATA_PACKET_SIZE_BYTES,
    channels: int = 1,
    coding_scheme: str = "CS-2",
    bler: float = 0.0,
) -> float:
    """Return an upper percentile of the packet transfer time under ARQ.

    Each of the packet's blocks needs a geometric number of transmissions; the
    packet is complete when its slowest block has arrived.  The percentile of
    the maximum of ``B`` independent geometrics is computed exactly from the
    geometric distribution function and converted to time through the
    radio-block period implied by the error-free transfer time.
    """
    if not 0.0 < percentile < 1.0:
        raise ValueError("percentile must be strictly between 0 and 1")
    p = _validate_bler(bler)
    blocks = rlc_blocks_per_packet(packet_size_bytes, coding_scheme)
    base = transmission_time(packet_size_bytes, channels, coding_scheme)
    if p == 0.0:
        return base
    # Smallest k with P(all blocks done within k rounds) >= percentile.
    per_round = base
    k = 1
    while True:
        probability_all_done = (1.0 - p**k) ** blocks
        if probability_all_done >= percentile:
            return k * per_round
        k += 1
        if k > 10_000:  # pragma: no cover - defensive guard for absurd BLER
            raise RuntimeError("transfer time percentile did not converge")


def _geometric_quantile(p_success: float, percentile: float) -> int:
    """Return the smallest k with ``P(Geometric <= k) >= percentile``."""
    if not 0.0 < p_success <= 1.0:
        raise ValueError("p_success must be in (0, 1]")
    if p_success == 1.0:
        return 1
    return max(1, math.ceil(math.log(1.0 - percentile) / math.log(1.0 - p_success)))
