"""Ablation bench for an admission-control extension: guard channels.

A beyond-the-paper experiment: handover prioritisation through guard
channels that only handover calls may take.
"""

from __future__ import annotations

from repro.core.parameters import GprsModelParameters
from repro.experiments.extensions import guard_channel_tradeoff
from repro.traffic.presets import TRAFFIC_MODEL_3


def test_ablation_guard_channels(benchmark, bench_scale):
    """Guard channels trade new-call blocking for handover protection."""
    parameters = GprsModelParameters.from_traffic_model(
        TRAFFIC_MODEL_3,
        total_call_arrival_rate=0.5,
        buffer_size=bench_scale.effective_buffer_size(100),
        max_gprs_sessions=bench_scale.effective_max_sessions(20),
    )

    def run():
        return guard_channel_tradeoff(parameters, (0, 1, 2, 3, 4))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nguard channels: (new-call blocking, handover failure)")
    for row in rows:
        print(f"  g={row.guard_channels}: blocking {row.new_call_blocking:.5f}, "
              f"handover failure {row.handover_failure:.6f}")
    failures = [row.handover_failure for row in rows]
    blockings = [row.new_call_blocking for row in rows]
    assert failures == sorted(failures, reverse=True)
    assert blockings == sorted(blockings)
    # Four guard channels cut the handover failure probability substantially.
    assert failures[-1] < 0.5 * failures[0]

