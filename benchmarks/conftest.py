"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at the *scaled*
experiment preset (see :class:`repro.experiments.scale.ExperimentScale`), checks
the qualitative shape the paper reports, and prints the regenerated series so
the run output doubles as the reproduction record (see EXPERIMENTS.md).

Timing records go to a per-session temp ledger unless
``GPRS_REPRO_BENCH_FILE`` names one, so a test run never rewrites the
tracked ``benchmarks/BENCH_repetition.jsonl``; the CI perf-smoke job points
the variable at that file to extend it on purpose.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.experiments.scale import ExperimentScale

# Make the sibling _helpers module importable regardless of how pytest was invoked.
sys.path.insert(0, os.path.dirname(__file__))

from _helpers import BENCH_FILE_ENV  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _session_bench_ledger(tmp_path_factory):
    """Point the timing ledger at a session temp file unless one is set."""
    if os.environ.get(BENCH_FILE_ENV):
        yield
        return
    os.environ[BENCH_FILE_ENV] = str(
        tmp_path_factory.mktemp("bench-ledger") / "BENCH_repetition.jsonl"
    )
    try:
        yield
    finally:
        del os.environ[BENCH_FILE_ENV]


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """Scaled-down configuration used by all analytical-figure benchmarks."""
    return ExperimentScale.default()


@pytest.fixture(scope="session")
def validation_scale() -> ExperimentScale:
    """Smaller configuration for the two figures that also run the simulator."""
    return ExperimentScale.default().replace(
        arrival_rates=(0.2, 0.6, 1.0),
        simulation_time_s=1500.0,
        simulation_warmup_s=150.0,
        simulation_batches=4,
        simulation_cells=5,
    )
