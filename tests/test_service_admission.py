"""Unit tests of the service admission layer (repro.service.admission).

Everything here drives :class:`AdmissionQueue` and :class:`RequestJournal`
directly with event-gated stub solves, so coalescing, backpressure,
deadlines, drain and journal replay are each exercised deterministically --
no HTTP, no real solver.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.service import request_key
from repro.service.admission import (
    JOURNAL_SCHEMA,
    JOURNAL_SCHEMA_VERSION,
    AdmissionQueue,
    Draining,
    Overloaded,
    RequestJournal,
    RequestTimeout,
)


def _request(name: str = "alpha", **extra) -> dict:
    base = {
        "command": "transient",
        "scenario": name,
        "preset": "smoke",
        "rate": None,
        "cache": True,
    }
    base.update(extra)
    return base


class _GatedSolve:
    """A stub solve that blocks until released, recording every call."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.calls: list[dict] = []
        self._lock = threading.Lock()

    def __call__(self, request: dict) -> dict:
        with self._lock:
            self.calls.append(request)
        self.gate.wait(timeout=30)
        return {"ok": True, "scenario": request["scenario"]}


def _make_queue(solve, **kwargs) -> AdmissionQueue:
    queue = AdmissionQueue(solve, **kwargs)
    queue.start()
    return queue


class TestRequestJournal:
    def test_round_trip_and_pending(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal.jsonl")
        first = journal.accept(_request("alpha"))
        second = journal.accept(_request("beta"))
        journal.finish(first, "done")
        assert [entry_id for entry_id, _ in journal.pending()] == [second]

        # A fresh load sees exactly the unfinished entry and continues ids.
        reloaded = RequestJournal(tmp_path / "journal.jsonl")
        pending = reloaded.pending()
        assert len(pending) == 1
        assert pending[0][0] == second
        assert pending[0][1]["scenario"] == "beta"
        assert reloaded.accept(_request("gamma")) == second + 1

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RequestJournal(path)
        kept = journal.accept(_request("alpha"))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "accept", "id": 2, "req')  # torn append
        reloaded = RequestJournal(path)
        assert [entry_id for entry_id, _ in reloaded.pending()] == [kept]

    def test_corrupt_line_elsewhere_is_an_error(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RequestJournal(path)
        journal.accept(_request("alpha"))
        journal.accept(_request("beta"))
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:10]  # corrupt a NON-final line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not JSON"):
            RequestJournal(path)

    def test_bitflipped_request_is_dropped_not_replayed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RequestJournal(path)
        journal.accept(_request("alpha"))
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["request"]["scenario"] = "tampered"
        lines[1] = json.dumps(record, sort_keys=True)
        lines.append("")  # keep a final newline shape
        path.write_text("\n".join(lines), encoding="utf-8")
        assert RequestJournal(path).pending() == []

    def test_future_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        header = {
            "schema": JOURNAL_SCHEMA,
            "schema_version": JOURNAL_SCHEMA_VERSION + 1,
        }
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="newer than supported"):
            RequestJournal(path)

    def test_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"schema": "something-else"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="not a"):
            RequestJournal(path)


class TestCoalescing:
    def test_identical_inflight_requests_share_one_solve(self):
        solve = _GatedSolve()
        queue = _make_queue(solve, workers=2, max_queue=8)
        try:
            leader, coalesced = queue.submit(_request("alpha"))
            assert coalesced is False
            # Wait until the solve is actually running, then pile on.
            for _ in range(100):
                if solve.calls:
                    break
                time.sleep(0.01)
            followers = [queue.submit(_request("alpha")) for _ in range(3)]
            assert all(entry is leader for entry, _ in followers)
            assert all(was_coalesced for _, was_coalesced in followers)
            solve.gate.set()
            responses = [queue.wait(entry, 10) for entry, _ in followers]
            responses.append(queue.wait(leader, 10))
            assert all(response["ok"] for response in responses)
            assert len(solve.calls) == 1  # exactly one solve ran
            assert queue.counters["coalesced"] == 3
            assert queue.counters["accepted"] == 1
            assert queue.counters["completed"] == 1
        finally:
            solve.gate.set()
            queue.close()

    def test_distinct_keys_do_not_coalesce(self):
        solve = _GatedSolve()
        solve.gate.set()  # run through immediately
        queue = _make_queue(solve, workers=2, max_queue=8)
        try:
            entries = [
                queue.submit(_request("alpha"))[0],
                queue.submit(_request("alpha", cache=False))[0],
                queue.submit(_request("alpha", rate=0.5))[0],
            ]
            for entry in entries:
                queue.wait(entry, 10)
            assert len({request_key(call) for call in solve.calls}) == 3
            assert queue.counters["coalesced"] == 0
        finally:
            queue.close()


class TestBackpressure:
    def test_over_budget_raises_overloaded_with_retry_after(self):
        solve = _GatedSolve()
        queue = _make_queue(solve, workers=1, max_queue=1)
        try:
            running, _ = queue.submit(_request("alpha"))
            for _ in range(100):
                if solve.calls:
                    break
                time.sleep(0.01)
            queued, _ = queue.submit(_request("beta"))  # fills the queue
            with pytest.raises(Overloaded) as overloaded:
                queue.submit(_request("gamma"))
            assert overloaded.value.retry_after_s >= 1.0
            assert queue.counters["rejected"] == 1
            solve.gate.set()
            assert queue.wait(running, 10)["ok"]
            assert queue.wait(queued, 10)["ok"]
            # Capacity freed: the rejected request is admissible now.
            entry, _ = queue.submit(_request("gamma"))
            assert queue.wait(entry, 10)["ok"]
        finally:
            solve.gate.set()
            queue.close()


class TestDeadlines:
    def test_expired_waiter_gets_request_timeout(self):
        solve = _GatedSolve()
        queue = _make_queue(solve, workers=1, max_queue=4)
        try:
            entry, _ = queue.submit(_request("alpha"))
            with pytest.raises(RequestTimeout):
                queue.wait(entry, 0.1)
            assert queue.counters["timed_out"] == 1
            # The solve was already running, so it finishes into the cache:
            # the entry resolves even though its waiter gave up.
            solve.gate.set()
            assert entry.event.wait(10)
            assert entry.response["ok"]
            assert queue.counters["completed"] == 1
        finally:
            solve.gate.set()
            queue.close()

    def test_queued_entry_with_no_waiters_is_cancelled(self, tmp_path):
        solve = _GatedSolve()
        journal = RequestJournal(tmp_path / "journal.jsonl")
        queue = _make_queue(solve, workers=1, max_queue=4, journal=journal)
        try:
            blocker, _ = queue.submit(_request("alpha"))
            for _ in range(100):
                if solve.calls:
                    break
                time.sleep(0.01)
            queued, _ = queue.submit(_request("beta"))  # never starts
            with pytest.raises(RequestTimeout):
                queue.wait(queued, 0.1)
            assert queue.counters["cancelled"] == 1
            solve.gate.set()
            assert queue.wait(blocker, 10)["ok"]
            # The cancelled entry is finished in the journal (status
            # "cancelled"), so a restart does NOT replay it.
            assert [r["scenario"] for _, r in journal.pending()] == []
            assert len(solve.calls) == 1
        finally:
            solve.gate.set()
            queue.close()


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new(self):
        solve = _GatedSolve()
        queue = _make_queue(solve, workers=1, max_queue=4)
        try:
            entry, _ = queue.submit(_request("alpha"))
            for _ in range(100):
                if solve.calls:
                    break
                time.sleep(0.01)
            done = threading.Event()
            summary = {}

            def _drain():
                summary.update(queue.drain(10))
                done.set()

            threading.Thread(target=_drain, daemon=True).start()
            time.sleep(0.05)
            with pytest.raises(Draining):
                queue.submit(_request("beta"))
            solve.gate.set()
            assert done.wait(10)
            assert summary["still_running"] == 0
            assert queue.wait(entry, 10)["ok"]
            assert queue.counters["drained"] == 1
        finally:
            solve.gate.set()
            queue.close()

    def test_drain_timeout_abandons_queued_entries_for_replay(self, tmp_path):
        solve = _GatedSolve()
        journal = RequestJournal(tmp_path / "journal.jsonl")
        queue = _make_queue(solve, workers=1, max_queue=4, journal=journal)
        try:
            running, _ = queue.submit(_request("alpha"))
            for _ in range(100):
                if solve.calls:
                    break
                time.sleep(0.01)
            queued, _ = queue.submit(_request("beta"))
            summary = queue.drain(0.2)  # far shorter than the stuck solve
            # The queued entry was answered with a journalled-for-replay
            # error; its accept line survives.
            response = queue.wait(queued, 1)
            assert response["ok"] is False and response["status"] == 503
            assert queue.counters["abandoned"] >= 1
            assert summary["abandoned"] >= 1
            # The running solve may still be stuck; release and let it
            # finish into the cache like any drained entry.
            solve.gate.set()
            assert running.event.wait(10)
        finally:
            solve.gate.set()
            queue.close()
        pending = [r["scenario"] for _, r in journal.pending()]
        assert pending == ["beta"]

        # A fresh queue over the same journal replays exactly the backlog.
        replay_solve = _GatedSolve()
        replay_solve.gate.set()
        replay_queue = AdmissionQueue(
            replay_solve,
            workers=1,
            max_queue=4,
            journal=RequestJournal(tmp_path / "journal.jsonl"),
        )
        replay_queue.start()
        try:
            for _ in range(200):
                if replay_queue.counters["completed"] >= 1:
                    break
                time.sleep(0.01)
            assert [c["scenario"] for c in replay_solve.calls] == ["beta"]
            assert replay_queue.counters["replayed"] == 1
            assert (
                RequestJournal(tmp_path / "journal.jsonl").pending() == []
            )
        finally:
            replay_queue.close()

    def test_entry_with_a_retired_key_still_replays_and_answers(self, tmp_path):
        """Journal entries are replayed as stored, not re-normalised, so an
        entry written while requests still carried a ``pipelined`` field
        must solve on the real service and finish ``done``."""
        from repro.runtime import ResultCache
        from repro.service import ScenarioService

        path = tmp_path / "journal.jsonl"
        legacy = {
            "command": "network",
            "scenario": "homogeneous-7",
            "preset": "smoke",
            "rate": None,
            "pipelined": False,
            "cache": True,
        }
        entry_id = RequestJournal(path).accept(legacy)
        service = ScenarioService(
            cache=ResultCache(tmp_path / "cache"), journal_path=path
        )
        service.start()
        try:
            for _ in range(1000):
                if service.stats()["admission"]["completed"] >= 1:
                    break
                time.sleep(0.02)
            admission = service.stats()["admission"]
            assert admission["replayed"] == 1
            assert admission["completed"] == 1 and admission["errors"] == 0
            records = [
                json.loads(line) for line in path.read_text().splitlines()[1:]
            ]
            assert {"event": "finish", "id": entry_id, "status": "done"} in records
            # The replayed solve landed in the cache: the same request,
            # normalised today, is answered without solving again.
            legacy.pop("pipelined")
            response = service.handle(legacy)
            assert response["ok"] and response["cache"]["hits"] > 0
        finally:
            service.close()


class TestStats:
    def test_stats_snapshot_is_consistent(self):
        solve = _GatedSolve()
        solve.gate.set()
        queue = _make_queue(solve, workers=2, max_queue=8)
        try:
            entries = [queue.submit(_request(f"s{i}"))[0] for i in range(4)]
            for entry in entries:
                queue.wait(entry, 10)
            stats = queue.stats()
            assert stats["accepted"] == 4
            assert stats["completed"] == 4
            assert stats["queued"] == 0
            assert stats["running"] == 0
            assert stats["workers"] == 2
            assert stats["draining"] is False
        finally:
            queue.close()
