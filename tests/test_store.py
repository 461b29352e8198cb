"""Tests of the content store (repro.store): both codecs and the artifact store."""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.runtime.cache import CODE_VERSION, ResultCache, default_cache_dir
from repro.runtime.faults import FaultPlan, inject_faults
from repro.store import (
    STORE_DIR_ENV,
    ArtifactStore,
    artifact_key,
    current_store,
    default_store_dir,
    store_context,
)
from repro.store.content import ByteLRU


def _arrays(seed: int = 7, size: int = 256) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "values": rng.standard_normal(size),
        "indices": np.arange(size, dtype=np.int32),
        "matrix": rng.standard_normal((8, 8)),
    }


class TestKeys:
    def test_key_is_stable_and_order_insensitive(self):
        a = artifact_key("propagator", {"x": 1, "y": [2.0, 3.0]})
        b = artifact_key("propagator", {"y": [2.0, 3.0], "x": 1})
        assert a == b
        assert len(a) == 64  # full sha256 hex

    def test_key_separates_kinds_and_identities(self):
        base = artifact_key("template", {"x": 1})
        assert artifact_key("propagator", {"x": 1}) != base
        assert artifact_key("template", {"x": 2}) != base

    def test_code_version_is_mixed_in(self):
        """A code edit must invalidate every stored artifact at once."""
        current = artifact_key("template", {"x": 1})
        assert current == artifact_key("template", {"x": 1}, code_version=CODE_VERSION)
        assert current != artifact_key("template", {"x": 1}, code_version="other")


class TestRoundTrip:
    def test_round_trip_is_bitwise_with_meta(self, tmp_path):
        store = ArtifactStore(tmp_path)
        arrays = _arrays()
        store.put("a" * 64, arrays, {"alias": [0, 1], "tol": 1e-9})
        loaded = store.get("a" * 64)
        assert loaded is not None
        got, meta = loaded
        assert meta == {"alias": [0, 1], "tol": 1e-9}
        assert set(got) == set(arrays)
        for name in arrays:
            assert got[name].dtype == arrays[name].dtype
            assert np.array_equal(got[name], arrays[name])
        assert store.stats.writes == 1 and store.stats.hits == 1

    def test_returned_arrays_are_read_only(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("b" * 64, _arrays())
        got, _ = store.get("b" * 64)
        with pytest.raises(ValueError):
            got["values"][0] = 1.0

    def test_absent_key_is_a_clean_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("c" * 64) is None
        assert store.stats.misses == 1

    def test_reserved_array_names_are_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="reserved"):
            store.put("d" * 64, {"__meta__": np.zeros(2)})

    def test_memory_tier_serves_repeat_reads(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("e" * 64, _arrays())
        path = store.path_for("e" * 64)
        assert store.get("e" * 64) is not None  # put already remembered it
        assert store.stats.memory_hits == 1
        path.unlink()  # prove the next read never touches the disk
        assert store.get("e" * 64) is not None
        assert store.stats.memory_hits == 2
        store.clear_memory()
        assert store.get("e" * 64) is None  # now it really is gone

    def test_fresh_instance_reads_what_another_wrote(self, tmp_path):
        """The cross-process contract, single-process edition."""
        writer = ArtifactStore(tmp_path)
        arrays = _arrays()
        writer.put("f" * 64, arrays, {"origin": "writer"})
        reader = ArtifactStore(tmp_path)
        loaded = reader.get("f" * 64)
        assert loaded is not None
        got, meta = loaded
        assert meta["origin"] == "writer"
        assert np.array_equal(got["values"], arrays["values"])
        assert reader.stats.memory_hits == 0  # came from disk, not memory


class _Codec:
    """Common part of the test adapters: build a store, budget optional."""

    cls: type

    def store(self, root, max_bytes=None):
        store = self.cls(root)
        if max_bytes is not None:
            store.max_bytes = max_bytes  # a class constant on the JSON codec
        return store


class _NpzCodec(_Codec):
    """Test adapter of the npz codec (:class:`ArtifactStore`)."""

    name = "npz"
    cls = ArtifactStore

    def payload(self, seed: int = 7, size: int = 256):
        return _arrays(seed, size), {"seed": seed}

    def put(self, store, key, payload) -> None:
        store.put(key, *payload)

    def read(self, store, key):
        """``(seed, values)`` of the stored entry, or ``None`` on a miss."""
        loaded = store.get(key)
        return None if loaded is None else (loaded[1]["seed"], loaded[0]["values"])

    def drop_memory(self, store) -> None:
        store.clear_memory()


class _JsonCodec(_Codec):
    """Test adapter of the JSON codec (:class:`ResultCache`)."""

    name = "json"
    cls = ResultCache

    def payload(self, seed: int = 7, size: int = 256):
        return {"seed": seed, "values": _arrays(seed, size)["values"].tolist()}

    def put(self, store, key, payload) -> None:
        store.put(key, payload)

    def read(self, store, key):
        loaded = store.get(key)
        return None if loaded is None else (loaded["seed"], np.asarray(loaded["values"]))

    def drop_memory(self, store) -> None:
        pass  # no memory tier


CODECS = {codec.name: codec for codec in (_NpzCodec(), _JsonCodec())}

# The protocol tests below run once per codec: each class reads its codec
# from the ``codec`` attribute, and a ``...Json`` subclass reruns every test
# on the JSON codec (the npz runs keep their original test ids).


class TestCorruption:
    codec = CODECS["npz"]

    def test_truncated_archive_is_quarantined(self, tmp_path):
        store = self.codec.store(tmp_path)
        key = "1" * 64
        self.codec.put(store, key, self.codec.payload())
        self.codec.drop_memory(store)
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:40])
        assert self.codec.read(store, key) is None
        assert store.stats.corrupt == 1
        assert not path.exists()
        assert path.with_name(f"{key}.corrupt").exists()
        assert self.codec.read(store, key) is None  # quarantined: a clean miss
        assert store.stats.corrupt == 1

    def test_bitflip_fails_the_digest_check(self, tmp_path):
        store = self.codec.store(tmp_path)
        key = "2" * 64
        self.codec.put(store, key, self.codec.payload())
        self.codec.drop_memory(store)
        path = store.path_for(key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one payload byte, the container still parses
        path.write_bytes(bytes(blob))
        assert self.codec.read(store, key) is None
        assert store.stats.corrupt == 1
        assert path.with_name(f"{key}.corrupt").exists()

    def test_injected_cache_corruption_exercises_quarantine(self, tmp_path):
        """`--inject-faults cache@0=corrupt` hits every codec's put site."""
        store = self.codec.store(tmp_path)
        key = "3" * 64
        with inject_faults(FaultPlan.parse("cache@0=corrupt")):
            self.codec.put(store, key, self.codec.payload())
        assert self.codec.read(store, key) is None  # truncated entry -> quarantine
        assert store.stats.corrupt == 1
        assert store.path_for(key).with_name(f"{key}.corrupt").exists()
        # The next write of the same key heals the entry.
        payload = self.codec.payload()
        self.codec.put(store, key, payload)
        seed, values = self.codec.read(store, key)
        assert seed == 7
        assert np.array_equal(values, _arrays()["values"])


class TestCorruptionJson(TestCorruption):
    codec = CODECS["json"]


class TestEviction:
    codec = CODECS["npz"]

    def test_tiny_budget_evicts_everything(self, tmp_path):
        store = self.codec.store(tmp_path, max_bytes=1)  # everything over budget
        for index in range(3):
            self.codec.put(store, f"{index}" * 64, self.codec.payload(index, 64))
        assert store.stats.evictions == 3  # each put evicts its own entry
        assert len(store) == 0
        assert store.disk_bytes == 0

    def test_budget_keeps_newest_entries(self, tmp_path):
        probe = self.codec.store(tmp_path / "probe")
        self.codec.put(probe, "a" * 64, self.codec.payload(0, 64))
        entry_size = probe.path_for("a" * 64).stat().st_size
        store = self.codec.store(tmp_path / "real", max_bytes=2 * entry_size)
        now = 1_700_000_000.0
        for index in range(4):
            key = f"{index}" * 64
            self.codec.put(store, key, self.codec.payload(0, 64))
            os.utime(store.path_for(key), (now + index, now + index))
            store._evict_over_budget()
        assert not store.path_for("0" * 64).exists()
        assert store.path_for("3" * 64).exists()
        assert store.disk_bytes <= 2 * entry_size

    def test_read_refreshes_recency(self, tmp_path):
        """A hit bumps the entry's mtime, so the oldest *unread* entry goes first."""
        probe = self.codec.store(tmp_path / "probe")
        self.codec.put(probe, "a" * 64, self.codec.payload(0, 64))
        entry_size = probe.path_for("a" * 64).stat().st_size
        # Two entries fit under the low-water mark, three exceed the budget.
        store = self.codec.store(tmp_path / "real", max_bytes=5 * entry_size // 2)
        old = 1_700_000_000.0
        for index in range(2):
            key = f"{index}" * 64
            self.codec.put(store, key, self.codec.payload(0, 64))
            os.utime(store.path_for(key), (old + index, old + index))
        self.codec.drop_memory(store)
        assert self.codec.read(store, "0" * 64) is not None  # refresh the oldest
        self.codec.put(store, "2" * 64, self.codec.payload(0, 64))
        assert store.path_for("0" * 64).exists()
        assert not store.path_for("1" * 64).exists()

    def test_eviction_stops_at_the_low_water_mark(self, tmp_path):
        """One over-budget put evicts to 90% of the budget, so the next ones
        fit without another directory scan."""
        probe = self.codec.store(tmp_path / "probe")
        self.codec.put(probe, "a" * 64, self.codec.payload(0, 64))
        entry_size = probe.path_for("a" * 64).stat().st_size
        store = self.codec.store(tmp_path / "real", max_bytes=10 * entry_size)
        for index in range(11):
            self.codec.put(store, f"{index:064x}", self.codec.payload(0, 64))
        assert store.stats.evictions == 2  # 11 entries -> 9, under 0.9 * budget
        assert len(store) == 9
        self.codec.put(store, f"{11:064x}", self.codec.payload(0, 64))
        assert store.stats.evictions == 2
        assert store.disk_bytes == 10 * entry_size


class TestEvictionJson(TestEviction):
    codec = CODECS["json"]


def _concurrent_writer(codec: str, root: str, key: str, seed: int, rounds: int) -> None:
    adapter = CODECS[codec]
    store = adapter.store(root)
    for _ in range(rounds):
        adapter.put(store, key, adapter.payload(seed, 512))


class TestConcurrency:
    codec = CODECS["npz"]

    def test_two_processes_same_key_last_writer_wins_no_torn_reads(self, tmp_path):
        """Writers race on one key; every read is a valid entry or a miss."""
        key = "9" * 64
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(
                target=_concurrent_writer,
                args=(self.codec.name, str(tmp_path), key, seed, 20),
            )
            for seed in (1, 2)
        ]
        for worker in workers:
            worker.start()
        reader = self.codec.store(tmp_path)
        expected = {seed: _arrays(seed, 512)["values"] for seed in (1, 2)}
        observed = 0
        try:
            while any(worker.is_alive() for worker in workers):
                self.codec.drop_memory(reader)
                loaded = self.codec.read(reader, key)
                if loaded is not None:
                    # A torn file would fail the digest check (-> corrupt);
                    # a valid read must be one writer's complete payload.
                    seed, values = loaded
                    assert np.array_equal(values, expected[seed])
                    observed += 1
        finally:
            for worker in workers:
                worker.join(timeout=60)
        assert reader.stats.corrupt == 0
        for worker in workers:
            assert not worker.is_alive()
            assert worker.exitcode == 0
        self.codec.drop_memory(reader)
        assert self.codec.read(reader, key) is not None  # last complete write won
        assert observed >= 1


class TestConcurrencyJson(TestConcurrency):
    codec = CODECS["json"]


class TestAmbientResolution:
    def test_store_off_by_default(self, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        assert current_store() is None

    def test_env_var_enables_a_process_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env-store"))
        store = current_store()
        assert store is not None
        assert store.root == tmp_path / "env-store"
        assert current_store() is store  # process-wide singleton per value

    def test_store_context_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env-store"))
        explicit = ArtifactStore(tmp_path / "explicit")
        with store_context(explicit):
            assert current_store() is explicit
        with store_context(None):  # --no-store: disables even the env store
            assert current_store() is None
        assert current_store() is not None

    def test_default_store_dir_honours_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_store_dir() == tmp_path / "elsewhere"
        monkeypatch.delenv(STORE_DIR_ENV)
        assert default_store_dir() == default_cache_dir() / "store"

    def test_cache_dir_fallback_env(self, tmp_path, monkeypatch):
        """$REPRO_CACHE_DIR is honoured when the historical name is unset."""
        monkeypatch.delenv("GPRS_REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt-cache"))
        assert default_cache_dir() == tmp_path / "alt-cache"
        monkeypatch.setenv("GPRS_REPRO_CACHE_DIR", str(tmp_path / "old-cache"))
        assert default_cache_dir() == tmp_path / "old-cache"  # historical wins
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        monkeypatch.delenv("GPRS_REPRO_CACHE_DIR")
        assert default_store_dir() == tmp_path / "alt-cache" / "store"


class TestMetrics:
    def test_traffic_lands_in_the_registry(self, tmp_path):
        from repro.obs.metrics import current_registry

        registry = current_registry()
        baseline = registry.snapshot()
        store = ArtifactStore(tmp_path)
        store.put("a" * 64, _arrays())
        store.clear_memory()
        assert store.get("a" * 64) is not None
        assert store.get("b" * 64) is None
        delta = registry.delta_since(baseline)["counters"]
        assert delta["store.writes"] == 1
        assert delta["store.hits"] == 1
        assert delta["store.misses"] == 1
        assert delta["store.bytes_written"] > 0
        assert delta["store.bytes_read"] > 0
        gauges = registry.snapshot()["gauges"]
        assert gauges["store.bytes"] == float(store.disk_bytes)


class TestByteLRU:
    def test_concurrent_puts_keep_the_byte_accounting_exact(self):
        """Threads sharing one LRU (the service's memory tier) lose no bytes."""
        lru = ByteLRU(64, gauge="test.lru.bytes")
        threads, calls = 8, 400
        barrier = threading.Barrier(threads)

        def hammer(index):
            barrier.wait(timeout=60)
            for call in range(calls):
                key = f"k{(index * calls + call) % 37}"
                if call % 5 == 0:
                    lru.discard(key)
                else:
                    lru.put(key, call, 1 + call % 7)
                    lru.get(key)

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
        assert lru.nbytes == sum(nbytes for _, nbytes in lru._entries.values())
        assert 0 < lru.nbytes <= lru.max_bytes
