"""Chaos tests: injected faults must never change the numbers.

Each test runs one execution seam (chunked sweep, network sweep,
transient trajectories) twice -- fault-free and under an injected fault plan
-- and asserts the recovered run is equal to the clean one.  Worker-kill
faults are bitwise-equal by construction (the retried payload is pure);
timeout faults only stretch wall time.  The abort-and-resume tests assert
the checkpoint journal makes a restarted sweep re-solve *only* the
unfinished points, counted in actual solver calls.
"""

from __future__ import annotations

import pytest

from repro.core.model import GprsMarkovModel
from repro.experiments.scale import ExperimentScale
from repro.network.sweep import run_network_sweep
from repro.runtime import (
    ResultCache,
    RetryPolicy,
    SweepCheckpoint,
    SweepFailureError,
    inject_faults,
    run_sweep,
    scenario,
)
from repro.transient.sweep import run_transient_sweep

SMOKE = ExperimentScale.smoke()

#: Retry without backoff sleeps: chaos tests exercise recovery, not patience.
FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.0)


def _sweep_spec():
    return scenario("heavy-gprs").replace(arrival_rates=(0.2, 0.4, 0.6, 0.8))


class TestSweepChaos:
    def test_worker_kill_recovers_bitwise_equal(self):
        spec = _sweep_spec()
        clean = run_sweep(spec, SMOKE, jobs=2, cache=None, chunk_size=1, retry=FAST)
        with inject_faults("chunk@1=kill"):
            chaos = run_sweep(
                spec, SMOKE, jobs=2, cache=None, chunk_size=1, retry=FAST
            )
        assert chaos.failures == ()
        for clean_point, chaos_point in zip(clean.points, chaos.points):
            assert clean_point.values == chaos_point.values

    def test_serial_raise_recovers_bitwise_equal(self):
        spec = _sweep_spec()
        clean = run_sweep(spec, SMOKE, jobs=1, cache=None, chunk_size=1)
        with inject_faults("chunk@2=raise*2"):
            chaos = run_sweep(spec, SMOKE, jobs=1, cache=None, chunk_size=1, retry=FAST)
        assert chaos.failures == ()
        for clean_point, chaos_point in zip(clean.points, chaos.points):
            assert clean_point.values == chaos_point.values

    def test_exhausted_chunk_fails_only_its_points(self):
        spec = _sweep_spec()
        with inject_faults("chunk@1=raise*9"):
            chaos = run_sweep(spec, SMOKE, jobs=1, cache=None, chunk_size=1, retry=FAST)
        assert len(chaos.failures) == 1
        assert chaos.failures[0].points == (1,)
        assert [point.failed for point in chaos.points] == [
            False, True, False, False,
        ]

    def test_corrupt_cache_entry_is_requarried_to_equal_results(self, tmp_path):
        spec = _sweep_spec()
        cache = ResultCache(tmp_path)
        with inject_faults("cache@0=corrupt"):
            first = run_sweep(spec, SMOKE, jobs=1, cache=cache, chunk_size=1)
        # The corrupted entry quarantines on read; its point re-solves.
        second = run_sweep(spec, SMOKE, jobs=1, cache=cache, chunk_size=1)
        assert cache.stats.corrupt == 1
        assert second.failures == ()
        for first_point, second_point in zip(first.points, second.points):
            assert first_point.values == second_point.values


class TestSweepCheckpointResume:
    def test_aborted_sweep_resumes_solving_only_the_remainder(
        self, tmp_path, monkeypatch
    ):
        spec = _sweep_spec()
        cache = ResultCache(tmp_path / "cache")
        ckpt_path = tmp_path / "ckpt.jsonl"

        ckpt = SweepCheckpoint.load(ckpt_path)
        with inject_faults("chunk@2=raise*9"):
            with pytest.raises(SweepFailureError):
                run_sweep(
                    spec, SMOKE, jobs=1, cache=cache, chunk_size=1,
                    checkpoint=ckpt, strict=True, retry=FAST,
                )
        # Chunks 0 and 1 completed before the abort and were journaled.
        assert len(ckpt) == 2

        solves = []
        original = GprsMarkovModel.solve

        def _counting(self):
            solves.append(1)
            return original(self)

        monkeypatch.setattr(GprsMarkovModel, "solve", _counting)
        resumed = run_sweep(
            spec, SMOKE, jobs=1, cache=cache, chunk_size=1,
            checkpoint=SweepCheckpoint.load(ckpt_path), strict=True,
        )
        assert len(solves) == 2  # only the 2 unfinished points re-solve
        assert resumed.failures == ()
        assert [point.from_cache for point in resumed.points] == [
            True, True, False, False,
        ]

    def test_fully_checkpointed_sweep_is_pure_resume(self, tmp_path, monkeypatch):
        spec = _sweep_spec()
        cache = ResultCache(tmp_path / "cache")
        ckpt_path = tmp_path / "ckpt.jsonl"
        run_sweep(
            spec, SMOKE, jobs=1, cache=cache, chunk_size=1,
            checkpoint=SweepCheckpoint.load(ckpt_path),
        )

        def _forbidden(self):  # pragma: no cover - must never run
            raise AssertionError("solver called despite full checkpoint")

        monkeypatch.setattr(GprsMarkovModel, "solve", _forbidden)
        resumed = run_sweep(
            spec, SMOKE, jobs=1, cache=cache, chunk_size=1,
            checkpoint=SweepCheckpoint.load(ckpt_path),
        )
        assert all(point.from_cache for point in resumed.points)


class TestNetworkChaos:
    def test_cell_timeout_recovers_equal(self):
        spec = scenario("heterogeneous-radio")
        clean = run_network_sweep(spec, scale=SMOKE, jobs=2, cache=None)
        with inject_faults("cell@2=timeout:3"):
            chaos = run_network_sweep(
                spec, scale=SMOKE, jobs=2, cache=None,
                task_timeout=1.0, retry=FAST,
            )
        assert chaos.failures == ()
        for clean_point, chaos_point in zip(clean.points, chaos.points):
            assert clean_point.payload == chaos_point.payload

    def test_cell_kill_recovers_equal(self):
        spec = scenario("heterogeneous-radio")
        clean = run_network_sweep(spec, scale=SMOKE, jobs=2, cache=None)
        with inject_faults("cell@1=kill"):
            chaos = run_network_sweep(
                spec, scale=SMOKE, jobs=2, cache=None, retry=FAST,
            )
        assert chaos.failures == ()
        for clean_point, chaos_point in zip(clean.points, chaos.points):
            assert clean_point.payload == chaos_point.payload


class TestTransientChaos:
    def test_trajectory_kill_recovers_bitwise_equal(self):
        spec = scenario("busy-hour-ramp")
        clean = run_transient_sweep(spec, scale=SMOKE, jobs=2, cache=None)
        with inject_faults("trajectory@0=kill"):
            chaos = run_transient_sweep(
                spec, scale=SMOKE, jobs=2, cache=None, retry=FAST
            )
        assert chaos.failures == ()
        for clean_point, chaos_point in zip(clean.points, chaos.points):
            assert clean_point.payload == chaos_point.payload

    def test_aborted_transient_sweep_checkpoints_finished_trajectories(
        self, tmp_path
    ):
        spec = scenario("busy-hour-ramp")
        cache = ResultCache(tmp_path / "cache")
        ckpt = SweepCheckpoint.load(tmp_path / "ckpt.jsonl")
        with inject_faults("trajectory@1=raise*9"):
            with pytest.raises(SweepFailureError):
                run_transient_sweep(
                    spec, scale=SMOKE, jobs=1, cache=cache,
                    checkpoint=ckpt, strict=True, retry=FAST,
                )
        assert len(ckpt) == 1  # trajectory 0 persisted before the abort
        resumed = run_transient_sweep(
            spec, scale=SMOKE, jobs=1, cache=cache,
            checkpoint=SweepCheckpoint.load(tmp_path / "ckpt.jsonl"), strict=True,
        )
        assert [point.from_cache for point in resumed.points] == [True, False]
