"""Reproduction of "Performance Analysis of the General Packet Radio Service".

This package reproduces the analytical model, the validation simulator and the
complete evaluation of Lindemann & Thümmler's GPRS performance study.  The
high-level entry points are:

* :class:`~repro.core.model.GprsMarkovModel` -- the paper's CTMC model of a
  single GSM/GPRS cell; solve it for one configuration and read the
  performance measures (carried data traffic, packet loss probability,
  queueing delay, throughput per user, voice blocking, ...).
* :class:`~repro.core.parameters.GprsModelParameters` -- the full parameter
  set (Table 2) with the Table 3 traffic-model presets from
  :func:`~repro.traffic.presets.traffic_model`.
* :class:`~repro.simulator.simulation.GprsNetworkSimulator` -- the detailed
  discrete-event simulator of a seven-cell cluster with explicit handovers,
  TDMA-frame transmission and TCP flow control, used to validate the CTMC.
* :mod:`~repro.experiments` -- parameter sweeps and the ``figure5`` ...
  ``figure15`` / ``table2`` / ``table3`` regeneration functions.

Quickstart::

    from repro import GprsMarkovModel, GprsModelParameters, traffic_model

    params = GprsModelParameters.from_traffic_model(
        traffic_model(3), total_call_arrival_rate=0.5)
    solution = GprsMarkovModel(params).solve()
    print(solution.measures.carried_data_traffic)
"""

import time as _time

_import_started = _time.perf_counter()

from repro.core.handover import HandoverBalance, balance_handover_rates  # noqa: E402
from repro.core.measures import GprsPerformanceMeasures, compute_measures  # noqa: E402
from repro.core.model import GprsMarkovModel, GprsModelSolution  # noqa: E402
from repro.core.parameters import GprsModelParameters  # noqa: E402
from repro.core.state_space import GprsStateSpace  # noqa: E402
from repro.traffic.presets import (  # noqa: E402
    TRAFFIC_MODEL_1,
    TRAFFIC_MODEL_2,
    TRAFFIC_MODEL_3,
    traffic_model,
)
from repro.traffic.session import PacketSessionModel  # noqa: E402

#: Seconds this interpreter spent importing the package and the numeric
#: stack beneath it.  Every forkserver and pool worker repeats this import,
#: so :mod:`repro.runtime.resilience` predicts a worker pool's start cost
#: from it before any pool has started in the process.
_IMPORT_S = _time.perf_counter() - _import_started
del _import_started, _time

__version__ = "1.0.0"

__all__ = [
    "GprsMarkovModel",
    "GprsModelParameters",
    "GprsModelSolution",
    "GprsPerformanceMeasures",
    "GprsStateSpace",
    "HandoverBalance",
    "PacketSessionModel",
    "TRAFFIC_MODEL_1",
    "TRAFFIC_MODEL_2",
    "TRAFFIC_MODEL_3",
    "__version__",
    "balance_handover_rates",
    "compute_measures",
    "traffic_model",
]
