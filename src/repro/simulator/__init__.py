"""Detailed network-level simulator of an integrated GSM/GPRS cell cluster.

This is the reproduction of the validation simulator of the paper (originally
written with the CSIM library): a cluster of seven hexagonal cells, each with
its own channel pool and BSC buffer, explicit user mobility with handovers
between neighbouring cells, the 3GPP packet-session traffic model, per-packet
downlink transmission with TDMA-frame/RLC-block granularity and multislot
channel allocation, and TCP flow control with slow start, congestion
avoidance, duplicate-ACK fast retransmit and timeout recovery.

Measurements are collected for the mid cell only (as in the paper) and are
reported with 95% batch-means confidence intervals.

Public entry point: :class:`~repro.simulator.simulation.GprsNetworkSimulator`.
"""

from repro.simulator.cell import Cell
from repro.simulator.cluster import HexagonalCluster
from repro.simulator.config import SimulationConfig
from repro.radio.blocks import rlc_blocks_per_packet, transmission_time
from repro.simulator.results import CellMeasurements, SimulationResults
from repro.simulator.simulation import GprsNetworkSimulator
from repro.simulator.tcp import TcpConnection

__all__ = [
    "Cell",
    "CellMeasurements",
    "GprsNetworkSimulator",
    "HexagonalCluster",
    "SimulationConfig",
    "SimulationResults",
    "TcpConnection",
    "rlc_blocks_per_packet",
    "transmission_time",
]
