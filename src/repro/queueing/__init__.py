"""Analytic queueing-theory building blocks.

The GPRS Markov model of the paper embeds two Erlang-loss (M/M/c/c) systems:
one for the number of active GSM voice calls and one for the number of active
GPRS sessions (Section 4.2, Eqs. (1)-(7)).  Their closed-form solutions are
used both to balance the handover flows entering and leaving the cell
(Eqs. (4)-(5)) and to compute carried voice traffic, blocking probabilities and
the average number of GPRS sessions.

This subpackage provides those closed forms plus the generic fixed-point
iteration framework used for the handover balance, and two companion
models that extend the paper's admission and sharing assumptions:

* :class:`~repro.queueing.guard_channel.GuardChannelSystem` -- cutoff-priority
  admission that reserves guard channels for handover calls;
* :class:`~repro.queueing.priority.PreemptivePrioritySharing` -- the
  voice-over-data priority rule analysed by time-scale decomposition.
"""

from repro.queueing.erlang import (
    ErlangLossSystem,
    erlang_b,
    erlang_b_recursive,
    erlang_c,
    offered_load,
)
from repro.queueing.fixed_point import FixedPointResult, fixed_point_iteration
from repro.queueing.guard_channel import GuardChannelSystem
from repro.queueing.littles_law import (
    mean_queue_length_from_delay,
    mean_waiting_time,
    utilization,
)
from repro.queueing.mmck import MMcKQueue
from repro.queueing.priority import PreemptivePrioritySharing

__all__ = [
    "ErlangLossSystem",
    "FixedPointResult",
    "GuardChannelSystem",
    "MMcKQueue",
    "PreemptivePrioritySharing",
    "erlang_b",
    "erlang_b_recursive",
    "erlang_c",
    "fixed_point_iteration",
    "mean_queue_length_from_delay",
    "mean_waiting_time",
    "offered_load",
    "utilization",
]
