"""Parameters of the GPRS Markov model (Tables 2 and 3 of the paper).

:class:`GprsModelParameters` collects every tunable of the model:

* the cell configuration -- total channels ``N``, reserved PDCHs ``N_GPRS``,
  BSC buffer size ``K``, admission cap ``M``, channel coding scheme;
* the user behaviour -- total call arrival rate, fraction of GPRS users, GSM
  call duration and dwell times, GPRS session dwell time;
* the GPRS traffic model -- a :class:`~repro.traffic.session.PacketSessionModel`
  (traffic models 1-3 of Table 3 are available as presets);
* the TCP flow-control threshold ``eta``.

The class exposes every derived rate the transition table needs so that the
generator construction never re-derives arithmetic from raw parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.traffic.presets import TRAFFIC_MODEL_3, TrafficModelPreset
from repro.traffic.session import PacketSessionModel
from repro.traffic.units import CODING_SCHEME_RATES_KBIT_S, pdch_service_rate

__all__ = ["GprsModelParameters"]


@dataclass(frozen=True)
class GprsModelParameters:
    """Full parameter set of the GPRS cell model.

    Parameters
    ----------
    total_call_arrival_rate:
        Combined arrival rate of new GSM calls and GPRS session requests in
        calls per second (the x-axis of every figure in the paper).
    gprs_fraction:
        Fraction of arriving calls that are GPRS session requests (0.05 for the
        base setting of 5% GPRS users).
    number_of_channels:
        Total physical channels ``N`` in the cell (20 in Table 2).
    reserved_pdch:
        Channels permanently reserved as PDCHs, ``N_GPRS``.
    buffer_size:
        BSC buffer capacity ``K`` in data packets.
    max_gprs_sessions:
        Admission-control limit ``M`` on concurrently active GPRS sessions.
    traffic:
        The 3GPP packet-session model describing one GPRS user.
    coding_scheme:
        GPRS channel coding scheme, ``"CS-1"`` .. ``"CS-4"``; determines the
        per-PDCH transfer rate (CS-2, 13.4 kbit/s, in the paper).
    mean_gsm_call_duration_s:
        ``1 / mu_GSM`` (120 s).
    mean_gsm_dwell_time_s:
        ``1 / mu_h,GSM`` (60 s).
    mean_gprs_dwell_time_s:
        ``1 / mu_h,GPRS`` (120 s).
    tcp_threshold:
        TCP flow-control threshold ``eta`` in (0, 1]: when the buffer holds
        more than ``eta * K`` packets the packet arrival rate is capped by the
        service rate; ``eta = 1`` disables flow control.
    block_error_rate:
        RLC block error probability of the radio link.  The paper assumes an
        error-free link (``0.0``, the default); a positive value degrades the
        per-PDCH service rate to the selective-repeat ARQ goodput
        ``rate * (1 - BLER)``, implementing the retransmission cost the paper
        defers to future work (see :mod:`repro.radio`).
    """

    total_call_arrival_rate: float
    gprs_fraction: float = 0.05
    number_of_channels: int = 20
    reserved_pdch: int = 1
    buffer_size: int = 100
    max_gprs_sessions: int = 20
    traffic: PacketSessionModel = TRAFFIC_MODEL_3.session
    coding_scheme: str = "CS-2"
    mean_gsm_call_duration_s: float = 120.0
    mean_gsm_dwell_time_s: float = 60.0
    mean_gprs_dwell_time_s: float = 120.0
    tcp_threshold: float = 0.7
    block_error_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.total_call_arrival_rate < math.inf:
            raise ValueError("total call arrival rate must be finite and non-negative")
        if not 0.0 <= self.gprs_fraction <= 1.0:
            raise ValueError("gprs_fraction must be between 0 and 1")
        if self.number_of_channels < 1:
            raise ValueError("the cell must have at least one physical channel")
        if not 0 <= self.reserved_pdch < self.number_of_channels:
            raise ValueError(
                "reserved_pdch must be non-negative and leave at least one GSM channel"
            )
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be at least 1")
        if self.max_gprs_sessions < 1:
            raise ValueError("max_gprs_sessions must be at least 1")
        if self.coding_scheme not in CODING_SCHEME_RATES_KBIT_S:
            raise ValueError(
                f"unknown coding scheme {self.coding_scheme!r}; expected one of "
                f"{sorted(CODING_SCHEME_RATES_KBIT_S)}"
            )
        if self.mean_gsm_call_duration_s <= 0:
            raise ValueError("mean GSM call duration must be positive")
        if self.mean_gsm_dwell_time_s <= 0:
            raise ValueError("mean GSM dwell time must be positive")
        if self.mean_gprs_dwell_time_s <= 0:
            raise ValueError("mean GPRS dwell time must be positive")
        if not 0.0 < self.tcp_threshold <= 1.0:
            raise ValueError("tcp_threshold (eta) must be in (0, 1]")
        if not 0.0 <= self.block_error_rate < 1.0:
            raise ValueError("block_error_rate must be in [0, 1)")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_traffic_model(
        cls,
        preset: TrafficModelPreset,
        total_call_arrival_rate: float,
        **overrides,
    ) -> "GprsModelParameters":
        """Build parameters from a Table 3 traffic model preset.

        The preset supplies both the session parameters and the admission cap
        ``M``; anything else follows the Table 2 base setting unless overridden
        via keyword arguments.
        """
        values = {
            "total_call_arrival_rate": total_call_arrival_rate,
            "traffic": preset.session,
            "max_gprs_sessions": preset.max_active_sessions,
        }
        values.update(overrides)
        return cls(**values)

    def with_arrival_rate(self, total_call_arrival_rate: float) -> "GprsModelParameters":
        """Return a copy of these parameters at a different call arrival rate."""
        return replace(self, total_call_arrival_rate=total_call_arrival_rate)

    def replace(self, **overrides) -> "GprsModelParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------ #
    # Channel configuration
    # ------------------------------------------------------------------ #
    @property
    def gsm_channels(self) -> int:
        """Number of channels usable by GSM voice calls, ``N_GSM = N - N_GPRS``."""
        return self.number_of_channels - self.reserved_pdch

    @property
    def pdch_service_rate(self) -> float:
        """Packet service rate of one PDCH in packets per second (``mu_service``).

        With a non-zero ``block_error_rate`` the rate is the selective-repeat
        ARQ goodput: the error-free rate scaled by ``1 - BLER``.
        """
        error_free = pdch_service_rate(self.coding_scheme, self.traffic.packet_size_bytes)
        return error_free * (1.0 - self.block_error_rate)

    @property
    def pdch_rate_kbit_s(self) -> float:
        """Per-PDCH transfer rate of the configured coding scheme in kbit/s.

        This is the nominal (error-free) rate of the coding scheme; see
        :attr:`pdch_service_rate` for the ARQ goodput.
        """
        return CODING_SCHEME_RATES_KBIT_S[self.coding_scheme]

    @property
    def expected_block_transmissions(self) -> float:
        """Expected RLC transmissions per radio block, ``1 / (1 - BLER)``."""
        return 1.0 / (1.0 - self.block_error_rate)

    # ------------------------------------------------------------------ #
    # Arrival rates of users
    # ------------------------------------------------------------------ #
    @property
    def gsm_arrival_rate(self) -> float:
        """Arrival rate of new GSM voice calls, ``lambda_GSM``."""
        return self.total_call_arrival_rate * (1.0 - self.gprs_fraction)

    @property
    def gprs_arrival_rate(self) -> float:
        """Arrival rate of new GPRS session requests, ``lambda_GPRS``."""
        return self.total_call_arrival_rate * self.gprs_fraction

    # ------------------------------------------------------------------ #
    # Departure rates of users
    # ------------------------------------------------------------------ #
    @property
    def gsm_completion_rate(self) -> float:
        """GSM call completion rate ``mu_GSM = 1 / 120 s`` by default."""
        return 1.0 / self.mean_gsm_call_duration_s

    @property
    def gsm_handover_departure_rate(self) -> float:
        """GSM handover-out rate ``mu_h,GSM = 1 / dwell time``."""
        return 1.0 / self.mean_gsm_dwell_time_s

    @property
    def gprs_completion_rate(self) -> float:
        """GPRS session completion rate ``mu_GPRS`` derived from the traffic model."""
        return self.traffic.session_departure_rate

    @property
    def gprs_handover_departure_rate(self) -> float:
        """GPRS handover-out rate ``mu_h,GPRS = 1 / dwell time``."""
        return 1.0 / self.mean_gprs_dwell_time_s

    # ------------------------------------------------------------------ #
    # Traffic process of one GPRS session (IPP)
    # ------------------------------------------------------------------ #
    @property
    def packet_rate(self) -> float:
        """Packet generation rate of a session while in a packet call, ``lambda_packet``."""
        return self.traffic.packet_rate

    @property
    def on_to_off_rate(self) -> float:
        """IPP on -> off rate ``a``."""
        return self.traffic.on_to_off_rate

    @property
    def off_to_on_rate(self) -> float:
        """IPP off -> on rate ``b``."""
        return self.traffic.off_to_on_rate

    @property
    def probability_session_starts_on(self) -> float:
        """Probability ``b / (a + b)`` that a freshly admitted session is in a packet call."""
        return self.off_to_on_rate / (self.on_to_off_rate + self.off_to_on_rate)

    @property
    def tcp_threshold_packets(self) -> int:
        """Buffer level ``floor(eta * K)`` above which the arrival rate is capped."""
        return int(self.tcp_threshold * self.buffer_size)

    # ------------------------------------------------------------------ #
    # State-space bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def state_space_size(self) -> int:
        """Number of states ``(M+1)(M+2)(N_GSM+1)(K+1) / 2`` of the aggregated chain."""
        m = self.max_gprs_sessions
        return (
            (m + 1) * (m + 2) // 2 * (self.gsm_channels + 1) * (self.buffer_size + 1)
        )

    def describe(self) -> dict[str, float | str]:
        """Return the Table 2 style summary of this configuration."""
        return {
            "number of physical channels N": self.number_of_channels,
            "number of fixed PDCHs N_GPRS": self.reserved_pdch,
            "BSC buffer size K [packets]": self.buffer_size,
            "transfer rate for one PDCH [kbit/s]": self.pdch_rate_kbit_s,
            "coding scheme": self.coding_scheme,
            "average GSM voice call duration 1/mu_GSM [s]": self.mean_gsm_call_duration_s,
            "average GSM voice call dwell time 1/mu_h,GSM [s]": self.mean_gsm_dwell_time_s,
            "average GPRS session dwell time 1/mu_h,GPRS [s]": self.mean_gprs_dwell_time_s,
            "percentage of GSM users": 100.0 * (1.0 - self.gprs_fraction),
            "percentage of GPRS users": 100.0 * self.gprs_fraction,
            "maximum number of active GPRS sessions M": self.max_gprs_sessions,
            "TCP flow control threshold eta": self.tcp_threshold,
        }
