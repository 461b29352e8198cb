"""Tests of the content-addressed result cache and its correctness guarantees.

The load-bearing properties asserted here:

* cache keys are identical across processes (pure function of content);
* any mutation of the effective configuration changes the key (miss);
* a parallel sweep returns bitwise-identical results to the serial path;
* a second run against a warm cache performs **zero** solver calls;
* a poisoned entry (not an object, or an altered number) is quarantined and
  re-solved to the cold answer, never served.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.model import GprsMarkovModel
from repro.experiments.scale import ExperimentScale
from repro.obs.metrics import current_registry
from repro.runtime import (
    ResultCache,
    parameters_from_dict,
    parameters_to_dict,
    result_key,
    run_sweep,
    scenario,
)

SMOKE = ExperimentScale.smoke()


def _spec_params_dict(name: str, rate: float = 0.4) -> dict:
    spec = scenario(name)
    return parameters_to_dict(spec.parameters(SMOKE).with_arrival_rate(rate))


class TestKeys:
    def test_key_is_stable_within_a_process(self):
        params = _spec_params_dict("figure12")
        key1 = result_key(params, solver="auto", solver_tol=1e-9)
        key2 = result_key(params, solver="auto", solver_tol=1e-9)
        assert key1 == key2
        assert len(key1) == 64  # sha256 hex

    def test_key_is_identical_across_processes(self):
        """The same spec must hash identically in a fresh worker process.

        The worker is spawned, not forked: a fresh interpreter shares no
        state with this one, and a fork of a test process with live threads
        can wedge the child before it runs anything.
        """
        params = _spec_params_dict("figure12")
        parent_key = result_key(params, solver="auto", solver_tol=1e-9)
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            child_key = pool.submit(
                result_key, params, solver="auto", solver_tol=1e-9
            ).result(timeout=120)
        assert parent_key == child_key

    def test_mutated_spec_misses(self):
        base = _spec_params_dict("figure12")
        base_key = result_key(base, solver="auto", solver_tol=1e-9)
        for mutation in (
            {"gprs_fraction": 0.051},
            {"reserved_pdch": 3},
            {"buffer_size": base["buffer_size"] + 1},
            {"tcp_threshold": 0.71},
            {"total_call_arrival_rate": 0.41},
        ):
            mutated = {**base, **mutation}
            assert result_key(mutated, solver="auto", solver_tol=1e-9) != base_key
        assert result_key(base, solver="direct", solver_tol=1e-9) != base_key
        assert result_key(base, solver="auto", solver_tol=1e-8) != base_key
        assert (
            result_key(base, solver="auto", solver_tol=1e-9, code_version="other")
            != base_key
        )

    def test_key_refuses_a_non_json_parameter(self):
        """A value JSON cannot render is an error, never its ``repr``: a
        repr that holds an address would miss silently in every process."""
        params = {**_spec_params_dict("figure12"), "gprs_fraction": object()}
        with pytest.raises(TypeError):
            result_key(params, solver="auto", solver_tol=1e-9)

    def test_parameters_round_trip(self):
        params = scenario("bursty-sessions").parameters(SMOKE)
        assert parameters_from_dict(parameters_to_dict(params)) == params


class TestResultCache:
    def test_get_put_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"value": 1.25})
        assert cache.get("ab" * 32) == {"value": 1.25}
        entry_bytes = cache.path_for("ab" * 32).stat().st_size
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "writes": 1, "corrupt": 0,
            "memory_hits": 0, "evictions": 0,
            "bytes_read": entry_bytes, "bytes_written": entry_bytes,
        }
        assert len(cache) == 1

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"value": 2.0})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_quarantined(self, tmp_path, caplog):
        """A damaged entry is renamed aside, counted, and logged once."""
        import logging

        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"value": 3.0})
        path = cache.path_for(key)
        path.write_text("{torn", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.runtime.cache"):
            assert cache.get(key) is None
            assert cache.get(key) is None  # second read: plain miss
        assert cache.stats.corrupt == 1
        assert not path.exists()
        quarantined = path.with_name(f"{key}.corrupt")
        assert quarantined.read_text(encoding="utf-8") == "{torn"
        logged = [r for r in caplog.records if "quarantined" in r.message]
        assert len(logged) == 1  # once per key, however often it is re-read

    def test_quarantined_key_is_rewritable(self, tmp_path):
        """After quarantine the key accepts a fresh put and serves it."""
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, {"value": 1.0})
        cache.path_for(key).write_text("junk", encoding="utf-8")
        assert cache.get(key) is None
        cache.put(key, {"value": 4.0})
        assert cache.get(key) == {"value": 4.0}

    def test_concurrent_readers_lose_no_stats(self, tmp_path):
        """Threads sharing one cache (the service's solver threads) count every call."""
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"value": 1.0})
        threads, calls = 8, 250
        barrier = threading.Barrier(threads)

        def hammer(index):
            barrier.wait(timeout=60)
            for call in range(calls):
                cache.get("ab" * 32 if (index + call) % 2 else "cd" * 32)

        workers = [
            threading.Thread(target=hammer, args=(index,)) for index in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert cache.stats.hits + cache.stats.misses == threads * calls
        assert cache.stats.hits == cache.stats.misses == threads * calls // 2

    def test_keyboard_interrupt_in_put_propagates_and_cleans_up(
        self, tmp_path, monkeypatch
    ):
        """An interrupt mid-write re-raises and leaves no torn entry behind."""
        import os as os_module

        cache = ResultCache(tmp_path)
        key = "12" * 32

        def _interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os_module, "replace", _interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.put(key, {"value": 5.0})
        monkeypatch.undo()
        assert cache.get(key) is None  # nothing stored
        shard = cache.path_for(key).parent
        leftovers = [p for p in shard.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []  # temp file removed on the way out
        assert os_module.path.isdir(shard)

    def test_unwritable_cache_degrades_gracefully(self, tmp_path, monkeypatch):
        """A cache that cannot persist must not fail the sweep."""
        cache = ResultCache(tmp_path)

        def _unwritable(key, payload):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(cache, "put", _unwritable)
        result = run_sweep(scenario("figure5"), SMOKE, cache=cache)
        assert result.cache_misses == len(result.points)
        assert len(cache) == 0

    def test_entries_shared_between_instances(self, tmp_path):
        """Content addressing: a second cache object over the same dir hits."""
        first = ResultCache(tmp_path)
        run_sweep(scenario("figure12"), SMOKE, cache=first)
        second = ResultCache(tmp_path)
        result = run_sweep(scenario("figure12"), SMOKE, cache=second)
        assert result.cache_misses == 0
        assert result.cache_hits == len(result.points)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_is_bitwise_identical_to_serial(self, jobs):
        spec = scenario("figure12").replace(arrival_rates=(0.2, 0.5, 0.8))
        serial = run_sweep(spec, SMOKE, jobs=1, cache=None)
        parallel = run_sweep(spec, SMOKE, jobs=jobs, cache=None)
        assert serial.arrival_rates == parallel.arrival_rates
        for point_s, point_p in zip(serial.points, parallel.points):
            assert point_s.values == point_p.values  # exact float equality

    def test_parallel_run_with_cache_matches_serial_without(self, tmp_path):
        spec = scenario("heavy-gprs")
        cached = run_sweep(spec, SMOKE, jobs=2, cache=ResultCache(tmp_path))
        plain = run_sweep(spec, SMOKE, jobs=1, cache=None)
        for point_c, point_p in zip(cached.points, plain.points):
            assert point_c.values == point_p.values


class TestWarmCacheSkipsSolver:
    def test_second_run_performs_zero_solver_calls(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = scenario("figure12")
        cold = run_sweep(spec, SMOKE, cache=cache)
        assert cold.cache_misses == len(cold.points)

        def _forbidden(self):  # pragma: no cover - must never run
            raise AssertionError("solver called despite warm cache")

        monkeypatch.setattr(GprsMarkovModel, "solve", _forbidden)
        warm = run_sweep(spec, SMOKE, cache=cache)
        assert warm.cache_misses == 0
        assert warm.cache_hits == len(warm.points)
        assert all(point.from_cache for point in warm.points)
        for point_cold, point_warm in zip(cold.points, warm.points):
            assert point_cold.values == point_warm.values  # JSON round-trip exact

    def test_warm_cache_also_covers_figure_runs(self, tmp_path, monkeypatch):
        """run_experiment shares the cache with the scenario runtime."""
        from repro.experiments.runner import run_experiment

        cache = ResultCache(tmp_path)
        cold = run_experiment("figure14", SMOKE, cache=cache)

        def _forbidden(self):  # pragma: no cover - must never run
            raise AssertionError("solver called despite warm cache")

        monkeypatch.setattr(GprsMarkovModel, "solve", _forbidden)
        warm = run_experiment("figure14", SMOKE, cache=cache)
        assert warm == cold

    def test_different_preset_never_serves_wrong_size(self, tmp_path):
        """Keys hash effective parameters, so presets cache independently."""
        cache = ResultCache(tmp_path)
        run_sweep(scenario("figure12"), SMOKE, cache=cache)
        default_run = run_sweep(
            scenario("figure12"),
            ExperimentScale.default().replace(arrival_rates=SMOKE.arrival_rates),
            cache=cache,
        )
        assert default_run.cache_hits == 0


class TestWarmCacheViaCli:
    def test_cli_sweep_reuses_cache_across_invocations(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "sweep", "figure15", "--preset", "smoke",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 hit(s)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 solved" in second
        # Identical numbers modulo the cache-accounting header line.
        assert first.splitlines()[2:] == second.splitlines()[2:]


#: Damage an entry can suffer that still parses as JSON: the wrong kind of
#: document in place of the entry, or one number altered under its digest.
POISONS = ("list", "string", "number")


def _alter_one_number(match: re.Match) -> str:
    return match.group(1) + str((int(match.group(2)) + 1) % 10)


def _poison_entries(root, poison: str) -> int:
    """Poison every result entry under ``root``; return how many."""
    paths = sorted(root.glob("*/*.json"))
    for path in paths:
        if poison == "list":
            path.write_text("[]", encoding="utf-8")
        elif poison == "string":
            path.write_text('"x"', encoding="utf-8")
        else:
            digest, _, body = path.read_bytes().partition(b"\n")
            altered = re.sub(r"(\d\.\d*)(\d)", _alter_one_number, body.decode(), count=1)
            assert altered != body.decode()
            json.loads(altered)  # still a valid JSON object, only a number moved
            path.write_bytes(digest + b"\n" + altered.encode())
    return len(paths)


class TestPoisonedEntriesRecompute:
    @pytest.mark.parametrize("poison", POISONS)
    def test_run_sweep_quarantines_and_resolves(self, tmp_path, poison):
        cache = ResultCache(tmp_path)
        spec = scenario("figure12")
        cold = run_sweep(spec, SMOKE, cache=cache)
        poisoned = _poison_entries(tmp_path, poison)
        assert poisoned == len(cold.points)
        baseline = current_registry().snapshot()
        rerun = run_sweep(spec, SMOKE, cache=cache)
        delta = current_registry().delta_since(baseline)["counters"]
        assert cache.stats.corrupt == poisoned
        assert delta["cache.corrupt"] == poisoned
        assert rerun.cache_hits == 0
        assert [point.values for point in rerun.points] == [
            point.values for point in cold.points
        ]
        assert len(list(tmp_path.glob("*/*.corrupt"))) == poisoned

    @pytest.mark.parametrize("poison", POISONS)
    def test_cli_sweep_exits_0_with_the_cold_table(self, tmp_path, capsys, poison):
        from repro.cli import main

        argv = [
            "sweep", "figure12", "--preset", "smoke",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        _poison_entries(tmp_path, poison)
        assert main(argv) == 0
        assert capsys.readouterr().out == cold  # 0 hit(s), every point re-solved

    @pytest.mark.parametrize("poison", POISONS)
    def test_served_run_answers_the_cold_canonical_bytes(self, tmp_path, poison):
        from repro.service import ScenarioService, ServiceClient, create_server

        service = ScenarioService(jobs=1, cache=ResultCache(tmp_path))
        server = create_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        request = {"command": "sweep", "scenario": "figure12", "preset": "smoke"}
        try:
            cold = client.run(request)
            assert cold["ok"], cold
            poisoned = _poison_entries(tmp_path, poison)
            served = client.run(request)
            assert served["ok"], served
            assert served["canonical"] == cold["canonical"]
            assert served["metrics"]["counters"]["cache.corrupt"] == poisoned
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=10)
        assert not thread.is_alive()
