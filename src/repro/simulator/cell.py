"""One cell of the simulated GSM/GPRS network.

A :class:`Cell` owns the scarce resources of the radio interface:

* the pool of ``N`` physical channels, of which at most ``N_GSM = N - N_GPRS``
  may be taken by circuit-switched GSM calls (GSM has priority on those
  on-demand channels; the ``N_GPRS`` reserved PDCHs are never given to voice),
* the BSC FIFO buffer of at most ``K`` data packets,
* the admission counter of active GPRS sessions (capacity ``M``).

It also owns the downlink *radio scheduler*: a simulation process that starts
packet transfers whenever packets are buffered and PDCHs are free, allocating
up to eight channels per packet (multislot operation).  All measurements of
the paper are collected per cell in a :class:`CellStatistics` object.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.parameters import GprsModelParameters
from repro.des.engine import SimulationEngine
from repro.des.process import Process, Timeout
from repro.des.statistics import Counter, Tally, TimeWeightedStatistic
from repro.radio.blocks import transmission_time
from repro.traffic.units import MAX_TIME_SLOTS_PER_STATION

__all__ = ["Packet", "Cell", "CellStatistics"]


@dataclass
class Packet:
    """One network-layer data packet travelling through the downlink.

    Attributes
    ----------
    session:
        The GPRS session (or TCP connection) the packet belongs to; the radio
        scheduler notifies it when the packet has been transmitted.
    sequence_number:
        TCP sequence number within the owning connection.
    size_bytes:
        Packet size (480 byte unless overridden).
    created_at:
        Simulation time at which the packet entered the BSC buffer.
    """

    session: object
    sequence_number: int
    size_bytes: int
    created_at: float = 0.0


@dataclass
class CellStatistics:
    """Raw measurement collectors of one cell (reset at every batch boundary)."""

    pdch_in_use: TimeWeightedStatistic = field(
        default_factory=lambda: TimeWeightedStatistic(name="pdch in use")
    )
    buffer_occupancy: TimeWeightedStatistic = field(
        default_factory=lambda: TimeWeightedStatistic(name="buffer occupancy")
    )
    gsm_calls_active: TimeWeightedStatistic = field(
        default_factory=lambda: TimeWeightedStatistic(name="gsm calls active")
    )
    gprs_sessions_active: TimeWeightedStatistic = field(
        default_factory=lambda: TimeWeightedStatistic(name="gprs sessions active")
    )
    packet_delay: Tally = field(default_factory=lambda: Tally(name="packet delay"))
    packets_offered: Counter = field(default_factory=lambda: Counter(name="packets offered"))
    packets_lost: Counter = field(default_factory=lambda: Counter(name="packets lost"))
    packets_served: Counter = field(default_factory=lambda: Counter(name="packets served"))
    gsm_calls_offered: Counter = field(default_factory=lambda: Counter(name="gsm offered"))
    gsm_calls_blocked: Counter = field(default_factory=lambda: Counter(name="gsm blocked"))
    gprs_sessions_offered: Counter = field(
        default_factory=lambda: Counter(name="gprs offered")
    )
    gprs_sessions_blocked: Counter = field(
        default_factory=lambda: Counter(name="gprs blocked")
    )

    def reset(self, time: float) -> None:
        """Restart all collectors at ``time`` (start of a new measurement batch)."""
        self.pdch_in_use.reset(time)
        self.buffer_occupancy.reset(time)
        self.gsm_calls_active.reset(time)
        self.gprs_sessions_active.reset(time)
        self.packet_delay.reset()
        self.packets_offered.reset()
        self.packets_lost.reset()
        self.packets_served.reset()
        self.gsm_calls_offered.reset()
        self.gsm_calls_blocked.reset()
        self.gprs_sessions_offered.reset()
        self.gprs_sessions_blocked.reset()


class Cell:
    """Radio resources, BSC buffer and downlink scheduler of one cell.

    Parameters
    ----------
    engine:
        The simulation engine.
    index:
        Cell index within the cluster (0 is the measured mid cell).
    params:
        The cell configuration shared with the analytical model.
    """

    def __init__(self, engine: SimulationEngine, index: int, params: GprsModelParameters):
        self._engine = engine
        self.index = index
        self.params = params
        self._gsm_in_use = 0
        self._gprs_sessions = 0
        self._data_channels_in_use = 0
        self._packets_in_transfer = 0
        self._buffer: deque[Packet] = deque()
        self.statistics = CellStatistics()
        self._scheduler_wakeup = engine.event(name=f"cell{index}.wakeup")
        self._scheduler_process: Process | None = None

    # ------------------------------------------------------------------ #
    # Channel accounting
    # ------------------------------------------------------------------ #
    @property
    def gsm_calls_in_progress(self) -> int:
        return self._gsm_in_use

    @property
    def active_gprs_sessions(self) -> int:
        return self._gprs_sessions

    @property
    def buffer_level(self) -> int:
        """Packets in the BSC buffer, including packets currently being transmitted.

        This matches the state component ``k`` of the Markov model, where a
        packet occupies a buffer place until its transmission has finished.
        """
        return len(self._buffer) + self._packets_in_transfer

    @property
    def waiting_packets(self) -> int:
        """Packets waiting in the BSC buffer (not yet being transmitted)."""
        return len(self._buffer)

    @property
    def data_channels_in_use(self) -> int:
        return self._data_channels_in_use

    @property
    def free_data_channels(self) -> int:
        """Channels currently available for packet transfer.

        All channels not occupied by voice calls may carry data (the reserved
        PDCHs plus every idle on-demand channel); channels already allocated to
        ongoing packet transfers are subtracted.  The value can momentarily be
        negative right after a voice call seized a channel that a packet
        transfer is still using; it is floored at zero because no *new*
        transfer may start in that situation.
        """
        return max(
            0,
            self.params.number_of_channels - self._gsm_in_use - self._data_channels_in_use,
        )

    # ------------------------------------------------------------------ #
    # GSM voice calls
    # ------------------------------------------------------------------ #
    def try_admit_gsm_call(self) -> bool:
        """Admit a voice call if a non-reserved channel is free; record the attempt."""
        self.statistics.gsm_calls_offered.increment()
        if self._gsm_in_use >= self.params.gsm_channels:
            self.statistics.gsm_calls_blocked.increment()
            return False
        self._gsm_in_use += 1
        self.statistics.gsm_calls_active.update(self._gsm_in_use, self._engine.now)
        return True

    def release_gsm_call(self) -> None:
        """Release the channel of a finished (or handed-over) voice call."""
        if self._gsm_in_use <= 0:
            raise RuntimeError(f"cell {self.index}: GSM channel released without a call")
        self._gsm_in_use -= 1
        self.statistics.gsm_calls_active.update(self._gsm_in_use, self._engine.now)
        self._wake_scheduler()

    # ------------------------------------------------------------------ #
    # GPRS session admission
    # ------------------------------------------------------------------ #
    def try_admit_gprs_session(self) -> bool:
        """Admit a GPRS session if fewer than ``M`` are active; record the attempt."""
        self.statistics.gprs_sessions_offered.increment()
        if self._gprs_sessions >= self.params.max_gprs_sessions:
            self.statistics.gprs_sessions_blocked.increment()
            return False
        self._gprs_sessions += 1
        self.statistics.gprs_sessions_active.update(self._gprs_sessions, self._engine.now)
        return True

    def remove_gprs_session(self) -> None:
        """Remove a session that completed or handed over to a neighbour."""
        if self._gprs_sessions <= 0:
            raise RuntimeError(f"cell {self.index}: GPRS session removed but none active")
        self._gprs_sessions -= 1
        self.statistics.gprs_sessions_active.update(self._gprs_sessions, self._engine.now)

    # ------------------------------------------------------------------ #
    # BSC buffer
    # ------------------------------------------------------------------ #
    def enqueue_packet(self, packet: Packet) -> bool:
        """Offer a packet to the BSC buffer; return ``False`` when it is lost."""
        self.statistics.packets_offered.increment()
        if self.buffer_level >= self.params.buffer_size:
            self.statistics.packets_lost.increment()
            return False
        packet.created_at = self._engine.now
        self._buffer.append(packet)
        self.statistics.buffer_occupancy.update(self.buffer_level, self._engine.now)
        self._wake_scheduler()
        return True

    # ------------------------------------------------------------------ #
    # Downlink radio scheduler
    # ------------------------------------------------------------------ #
    def start_scheduler(self) -> Process:
        """Start the downlink scheduler process (idempotent)."""
        if self._scheduler_process is None:
            self._scheduler_process = Process(
                self._engine, self._scheduler(), name=f"cell{self.index}.scheduler"
            )
        return self._scheduler_process

    def _wake_scheduler(self) -> None:
        if not self._scheduler_wakeup.triggered:
            self._scheduler_wakeup.succeed()

    def _scheduler(self):
        """Start packet transfers whenever packets and channels are available."""
        while True:
            started = True
            while started:
                started = False
                if self._buffer and self.free_data_channels > 0:
                    packet = self._buffer.popleft()
                    self._packets_in_transfer += 1
                    channels = min(MAX_TIME_SLOTS_PER_STATION, self.free_data_channels)
                    self._data_channels_in_use += channels
                    self.statistics.pdch_in_use.update(
                        self._data_channels_in_use, self._engine.now
                    )
                    Process(
                        self._engine,
                        self._transmit(packet, channels),
                        name=f"cell{self.index}.transfer",
                    )
                    started = True
            # Re-arm the wake-up event and wait for the next state change.
            self._scheduler_wakeup = self._engine.event(name=f"cell{self.index}.wakeup")
            yield self._scheduler_wakeup

    def _transmit(self, packet: Packet, channels: int):
        """Transmit one packet over ``channels`` PDCHs, then notify its session.

        A non-zero block error rate stretches the transfer by the expected
        number of RLC transmissions per block (selective-repeat ARQ goodput),
        matching the service-rate degradation of the analytical model.
        """
        duration = transmission_time(
            packet.size_bytes, channels, self.params.coding_scheme
        ) * self.params.expected_block_transmissions
        yield Timeout(duration)
        self._data_channels_in_use -= channels
        self._packets_in_transfer -= 1
        self.statistics.pdch_in_use.update(self._data_channels_in_use, self._engine.now)
        self.statistics.buffer_occupancy.update(self.buffer_level, self._engine.now)
        self.statistics.packets_served.increment()
        self.statistics.packet_delay.record(self._engine.now - packet.created_at)
        if packet.session is not None:
            packet.session.on_packet_delivered(packet)
        self._wake_scheduler()
