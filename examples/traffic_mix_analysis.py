#!/usr/bin/env python
"""Synthetic packet traces and fitting the 3GPP session model back to them.

The paper parameterises its traffic with the 3GPP packet-session model.  This
example generates a synthetic packet trace from the 3GPP sampler, measures its
burstiness (interarrival variability, index of dispersion) and fits the
session model back from the raw timestamps -- the round trip a practitioner
would perform with measured traces.

Run it with::

    python examples/traffic_mix_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import traffic_model
from repro.traffic.sampling import SessionSampler
from repro.traffic.statistics import compute_trace_statistics, fit_session_model


def main() -> None:
    print("Synthetic trace, burstiness statistics and model fitting")
    print("-" * 78)
    model = traffic_model(3).session
    sampler = SessionSampler(model, np.random.default_rng(42))
    times = []
    offset = 0.0
    for _ in range(150):
        trace = sampler.sample_session(start_time=offset)
        times.extend(trace.all_packet_times())
        offset = trace.duration + sampler.sample_reading_time()
    times = np.array(times)
    stats = compute_trace_statistics(times, window_s=5.0)
    print(f"  trace: {stats.number_of_packets} packets over {stats.duration_s:,.0f} s "
          f"({stats.mean_rate:.2f} packets/s)")
    print(f"  interarrival SCV        {stats.interarrival_scv:6.2f}  (Poisson = 1)")
    print(f"  index of dispersion     {stats.index_of_dispersion:6.2f}  (Poisson = 1)")
    print(f"  peak-to-mean ratio      {stats.peak_to_mean_ratio:6.2f}")
    fitted = fit_session_model(times, idle_threshold_s=1.0,
                               packet_calls_per_session=model.packet_calls_per_session)
    print("  fitted 3GPP parameters vs. the generating traffic model 3:")
    print(f"    packet interarrival D_d   {fitted.packet_interarrival_s:7.3f} s "
          f"(true {model.packet_interarrival_s})")
    print(f"    packets per call N_d      {fitted.packets_per_packet_call:7.2f}   "
          f"(true {model.packets_per_packet_call})")
    print(f"    reading time D_pc         {fitted.reading_time_s:7.2f} s "
          f"(true {model.reading_time_s})")


if __name__ == "__main__":
    main()
