"""Tests of the retry/deadline/checkpoint layer (`repro.runtime.resilience`).

Fault paths are driven by the deterministic injection plan of
:mod:`repro.runtime.faults` rather than monkeypatched internals wherever a
seam exists, so these tests exercise the same machinery production does.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs.metrics import current_registry
from repro.runtime import resilience
from repro.runtime.faults import inject_faults
from repro.runtime.resilience import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_SCHEMA_VERSION,
    ResilientPool,
    RetryPolicy,
    SweepCheckpoint,
    SweepFailure,
    SweepFailureError,
    checkpointed_get,
    collect_failures,
    payload_digest,
    report_failure,
)

#: No-backoff policy so retry tests never sleep.
FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.0)


def _double(job):
    """Top-level worker (parallel tests pickle it)."""
    return job * 2


def _nap(job):
    """Worker that sleeps ``job`` seconds then returns (deadline tests)."""
    time.sleep(job)
    return job


def _read_env(key):
    """Worker that reports its PID and one environment variable."""
    return os.getpid(), os.environ.get(key)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "error", [BrokenProcessPool("died"), TimeoutError("late"), OSError("io")]
    )
    def test_transient_errors_are_retryable(self, error):
        assert RetryPolicy().is_retryable(error)

    @pytest.mark.parametrize(
        "error", [ValueError("bad"), KeyboardInterrupt(), SystemExit()]
    )
    def test_fatal_errors_are_not(self, error):
        assert not RetryPolicy().is_retryable(error)

    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff_s("chunk", 3, 2) == policy.backoff_s("chunk", 3, 2)
        assert policy.backoff_s("chunk", 3, 2) != policy.backoff_s("chunk", 4, 2)
        assert RetryPolicy(seed=8).backoff_s("chunk", 3, 2) != policy.backoff_s(
            "chunk", 3, 2
        )

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=60.0
        )
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.4)):
            delay = policy.backoff_s("cell", 0, attempt)
            assert base * 0.75 <= delay <= base * 1.25

    def test_backoff_is_capped(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_max_s=1.5)
        assert policy.backoff_s("cell", 0, 50) <= 1.5 * 1.25

    def test_attempt_zero_never_waits(self):
        assert RetryPolicy().backoff_s("cell", 0, 0) == 0.0


class TestSerialRetries:
    def test_retry_escapes_a_transient_fault(self):
        with inject_faults("cell@0=raise*1"):
            with ResilientPool(1, policy=FAST) as pool:
                outcomes = pool.run(_double, [21], site="cell")
        assert outcomes == [42]

    def test_exhausted_attempts_yield_a_sweep_failure(self):
        with inject_faults("cell@0=raise*9"):
            with ResilientPool(1, policy=FAST) as pool:
                outcomes = pool.run(_double, [21], site="cell")
        (failure,) = outcomes
        assert isinstance(failure, SweepFailure)
        assert failure.site == "cell"
        assert failure.index == 0
        assert failure.attempts == FAST.max_attempts
        assert failure.error_type == "InjectedFault"

    def test_strict_raises_at_the_first_terminal_failure(self):
        with inject_faults("cell@0=raise*9"):
            with ResilientPool(1, policy=FAST, strict=True) as pool:
                with pytest.raises(SweepFailureError) as excinfo:
                    pool.run(_double, [21], site="cell")
        assert excinfo.value.failure.site == "cell"

    def test_fatal_errors_are_not_retried(self):
        def _bad(job):
            raise ValueError("deterministic bug")

        with ResilientPool(1, policy=FAST) as pool:
            (failure,) = pool.run(_bad, [1], site="cell")
        assert isinstance(failure, SweepFailure)
        assert failure.attempts == 1  # no retry for a fatal error
        assert failure.error_type == "ValueError"

    def test_indices_steer_fault_targeting(self):
        """Explicit indices let a plan target a specific logical task."""
        with inject_faults("cell@7=raise*9"):
            with ResilientPool(1, policy=FAST) as pool:
                outcomes = pool.run(_double, [1, 2], site="cell", indices=[6, 7])
        assert outcomes[0] == 2
        assert isinstance(outcomes[1], SweepFailure)
        assert outcomes[1].index == 7


class TestParallelRecovery:
    def test_killed_worker_is_retried_to_success(self):
        with inject_faults("cell@1=kill"):
            with ResilientPool(2, policy=FAST) as pool:
                outcomes = pool.run(_double, [1, 2, 3], site="cell")
        assert outcomes == [2, 4, 6]
        assert pool._respawns >= 1

    def test_repeated_pool_death_degrades_to_in_process(self):
        policy = RetryPolicy(max_attempts=6, backoff_base_s=0.0, max_pool_respawns=1)
        with inject_faults("cell@0=kill*4"):
            with ResilientPool(2, policy=policy) as pool:
                outcomes = pool.run(_double, [5, 6], site="cell")
        assert pool.degraded
        assert outcomes == [10, 12]  # degraded runs still finish, same numbers

    def test_deadline_timeout_is_terminal_after_retries(self):
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        registry = current_registry()
        before = registry.snapshot()["counters"].get("resilience.timeouts", 0)
        with ResilientPool(2, policy=policy, task_timeout=0.2) as pool:
            outcomes = pool.run(_nap, [1.0, 0.0], site="cell")
        assert outcomes[1] == 0.0  # the punctual task survives the recycles
        failure = outcomes[0]
        assert isinstance(failure, SweepFailure)
        assert failure.timed_out
        assert failure.attempts == 2
        after = registry.snapshot()["counters"].get("resilience.timeouts", 0)
        assert after - before == 2  # one timeout per attempt


class TestWorkerEnvParity:
    """Workers must see the parent's *current* repro env knobs.

    The forkserver snapshots the environment when it first starts, so a
    variable exported afterwards (``--store-dir`` sets ``$REPRO_STORE_DIR``
    precisely so pool workers resolve the same store) would silently read
    the stale snapshot without the per-pool initializer.
    """

    PROBE = "REPRO_TEST_ENV_PARITY_PROBE"

    @pytest.fixture(autouse=True)
    def _workers(self, monkeypatch):
        """Start real workers: the start rule would run a probe in-process."""
        monkeypatch.setattr(resilience, "_pool_start_cost_s", lambda: float("-inf"))

    def _worker_env(self):
        with ResilientPool(2) as pool:
            ((pid, value),) = pool.run(_read_env, [self.PROBE], site="cell")
        assert pid != os.getpid()
        return value

    def test_env_set_after_forkserver_start_reaches_new_pools(self, monkeypatch):
        self._worker_env()  # the forkserver is running after this
        monkeypatch.setenv(self.PROBE, "set-after-start")
        assert self._worker_env() == "set-after-start"

    def test_env_deleted_in_parent_is_deleted_in_workers(self, monkeypatch):
        monkeypatch.setenv(self.PROBE, "doomed")
        assert self._worker_env() == "doomed"
        monkeypatch.delenv(self.PROBE)
        assert self._worker_env() is None


class TestFailureSink:
    def test_collect_failures_scopes_a_sink(self):
        failure = SweepFailure(
            site="cell", index=0, error_type="X", message="", attempts=1
        )
        with collect_failures() as outer:
            with collect_failures() as inner:
                report_failure(failure)
            report_failure(failure)
        assert inner == [failure]
        assert outer == [failure]  # reported after the inner scope closed

    def test_report_without_sink_only_counts(self):
        registry = current_registry()
        before = registry.snapshot()["counters"].get("resilience.task_failures", 0)
        report_failure(
            SweepFailure(site="cell", index=0, error_type="X", message="", attempts=1)
        )
        after = registry.snapshot()["counters"].get("resilience.task_failures", 0)
        assert after == before + 1


class TestSweepCheckpoint:
    def test_missing_file_loads_empty(self, tmp_path):
        ckpt = SweepCheckpoint.load(tmp_path / "absent.jsonl")
        assert len(ckpt) == 0

    def test_record_and_reload_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint.load(path)
        ckpt.record(site="chunk", index=0, key="k0", digest="d0")
        ckpt.record(site="chunk", index=1, key="k1", digest="d1")
        assert ckpt.has("k0") and ckpt.matches("k1", "d1")
        reloaded = SweepCheckpoint.load(path)
        assert len(reloaded) == 2
        assert reloaded.matches("k0", "d0")
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert header["schema_version"] == CHECKPOINT_SCHEMA_VERSION

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint.load(path)
        ckpt.record(site="chunk", index=0, key="k0", digest="d0")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k1", "dig')  # interrupted append
        reloaded = SweepCheckpoint.load(path)
        assert len(reloaded) == 1
        assert reloaded.has("k0")

    def test_torn_middle_line_is_an_error(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint.load(path)
        ckpt.record(site="chunk", index=0, key="k0", digest="d0")
        text = path.read_text(encoding="utf-8") + "{garbage\n"
        ckpt.record(site="chunk", index=1, key="k1", digest="d1")
        path.write_text(text + path.read_text(encoding="utf-8").splitlines()[-1] + "\n")
        with pytest.raises(ValueError, match="not JSON"):
            SweepCheckpoint.load(path)

    def test_future_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        header = {
            "schema": CHECKPOINT_SCHEMA,
            "schema_version": CHECKPOINT_SCHEMA_VERSION + 1,
        }
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="newer than supported"):
            SweepCheckpoint.load(path)

    def test_foreign_jsonl_is_refused(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"schema": "something-else"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="not a"):
            SweepCheckpoint.load(path)


class TestCheckpointedGet:
    class _FakeCache:
        def __init__(self, payloads):
            self._payloads = payloads

        def get(self, key):
            return self._payloads.get(key)

    def test_digest_match_counts_a_resumed_point(self):
        payload = {"value": 1.5}
        cache = self._FakeCache({"k": payload})
        ckpt = SweepCheckpoint("unused", {"k": payload_digest(payload)})
        registry = current_registry()
        before = registry.snapshot()["counters"].get("resilience.resumed_points", 0)
        assert checkpointed_get(cache, "k", ckpt) == payload
        after = registry.snapshot()["counters"].get("resilience.resumed_points", 0)
        assert after == before + 1

    def test_digest_mismatch_demotes_to_miss(self):
        cache = self._FakeCache({"k": {"value": 2.5}})
        ckpt = SweepCheckpoint("unused", {"k": "stale-digest"})
        registry = current_registry()
        before = registry.snapshot()["counters"].get(
            "resilience.checkpoint_mismatches", 0
        )
        assert checkpointed_get(cache, "k", ckpt) is None
        after = registry.snapshot()["counters"].get(
            "resilience.checkpoint_mismatches", 0
        )
        assert after == before + 1

    def test_unknown_key_is_a_plain_hit(self):
        """Keys the checkpoint never saw pass through unverified."""
        cache = self._FakeCache({"k": {"value": 3.5}})
        ckpt = SweepCheckpoint("unused", {})
        assert checkpointed_get(cache, "k", ckpt) == {"value": 3.5}

    def test_no_cache_or_checkpoint(self):
        assert checkpointed_get(None, "k", None) is None
        cache = self._FakeCache({"k": {"value": 1.0}})
        assert checkpointed_get(cache, "k", None) == {"value": 1.0}


class TestPayloadDigest:
    def test_digest_is_order_insensitive_and_content_sensitive(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})
        assert len(payload_digest({})) == 16


class TestCancelToken:
    def test_scope_installs_and_restores_the_ambient_token(self):
        from repro.runtime.resilience import (
            CancelToken,
            cancel_scope,
            current_cancel_token,
        )

        assert current_cancel_token() is None
        token = CancelToken("test")
        with cancel_scope(token):
            assert current_cancel_token() is token
        assert current_cancel_token() is None

    def test_cancel_is_sticky_and_carries_a_reason(self):
        from repro.runtime.resilience import CancelToken

        token = CancelToken()
        assert not token.cancelled
        token.cancel("drain deadline")
        assert token.cancelled
        assert token.reason == "drain deadline"

    def test_tripped_token_aborts_serial_submission(self):
        from repro.runtime.resilience import (
            CancelToken,
            TaskCancelledError,
            cancel_scope,
        )

        token = CancelToken()
        token.cancel("stop")
        pool = ResilientPool(1, policy=FAST)
        with cancel_scope(token), pytest.raises(TaskCancelledError):
            pool.submit(_double, 2, site="t", index=0)

    def test_tripped_token_aborts_pool_poll_and_counts_cancelled(self, monkeypatch):
        from repro.runtime.resilience import (
            CancelToken,
            TaskCancelledError,
            cancel_scope,
        )

        # Start real workers so the abort tears down an in-flight task.
        monkeypatch.setattr(resilience, "_pool_start_cost_s", lambda: float("-inf"))
        registry = current_registry()
        before = registry.snapshot()["counters"].get("resilience.cancelled", 0)
        token = CancelToken()
        pool = ResilientPool(2, policy=FAST)
        try:
            with cancel_scope(token):
                pool.submit(_nap, 5, site="t", index=0)
                token.cancel("mid-flight")
                with pytest.raises(TaskCancelledError):
                    pool.poll()  # any further interaction must abort
        finally:
            pool.shutdown()
        after = registry.snapshot()["counters"].get("resilience.cancelled", 0)
        assert after == before + 1

    def test_untripped_token_is_free(self):
        from repro.runtime.resilience import CancelToken, cancel_scope

        token = CancelToken()
        pool = ResilientPool(1, policy=FAST)
        with cancel_scope(token):
            pool.submit(_double, 21, site="t", index=0)
            outcomes = list(pool.poll())
        assert outcomes == [(("t", 0), 42)]
