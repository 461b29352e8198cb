"""The one content-addressed on-disk protocol under both disk caches.

A :class:`ContentStore` keeps one file per key in two-character shard
directories (``root/ab/<key><suffix>``).  Its subclasses are codecs:
:class:`repro.runtime.cache.ResultCache` (JSON objects, ``.json``) and
:class:`repro.store.artifacts.ArtifactStore` (NumPy arrays, ``.npz``).  The
rest is this protocol, the same for both:

* keys are :func:`content_key` hashes of an identity that includes
  :data:`CODE_VERSION`, so any local code edit invalidates every entry;
* writes are atomic (temp file, then ``os.replace``): the last complete
  entry wins and no reader opens a torn one;
* every disk read is verified against the digest each codec embeds; a
  damaged entry is quarantined to ``<key>.corrupt`` (counted, logged once
  per key) and read as a clean miss, so the worst it can do is recompute;
* an mtime-LRU disk budget (``max_bytes``, 2 GiB) evicts down to a
  low-water mark after a write exceeds it; every hit refreshes the mtime;
* the ``cache`` fault site of :mod:`repro.runtime.faults` counts puts
  across both codecs;
* one lock per instance guards only the :class:`StoreStats` counters and the
  disk accounting; file I/O runs outside it.

:class:`ByteLRU` is the one byte-bounded in-memory LRU: the artifact store's
memory tier and the transient propagator cache both use it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, ClassVar

import repro
from repro.obs.metrics import current_registry

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_DIR_FALLBACK_ENV",
    "CODE_VERSION",
    "DEFAULT_MEMORY_BYTES",
    "DEFAULT_STORE_BYTES",
    "STORE_DIR_ENV",
    "ByteLRU",
    "ContentStore",
    "StoreStats",
    "content_key",
    "default_cache_dir",
    "default_store_dir",
]

_SOURCE_DIGEST: str | None = None


def _source_digest() -> str:
    """Digest of every ``.py`` file of the installed ``repro`` package.

    Memoised, so each process hashes the package source at most once (the
    run ledger reuses it via :data:`CODE_VERSION`).  It makes the stores
    self-invalidating under local code edits.
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is not None:
        return _SOURCE_DIGEST
    digest = hashlib.sha256()
    try:
        root = Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
    except OSError:
        _SOURCE_DIGEST = "unhashable"
        return _SOURCE_DIGEST
    _SOURCE_DIGEST = digest.hexdigest()[:12]
    return _SOURCE_DIGEST


#: Tag mixed into every key: package version plus a source digest, so both
#: release bumps and local code edits invalidate existing entries.
CODE_VERSION: str = f"repro-{repro.__version__}-{_source_digest()}"

#: Environment variable overriding the default result-cache directory.
CACHE_DIR_ENV = "GPRS_REPRO_CACHE_DIR"

#: Shorter alias honoured when :data:`CACHE_DIR_ENV` is unset, mirroring
#: :data:`STORE_DIR_ENV` -- service deployments and CI pin both warm tiers
#: with one naming scheme, no flag threading required.
CACHE_DIR_FALLBACK_ENV = "REPRO_CACHE_DIR"

#: Environment variable overriding the default artifact-store directory (and
#: enabling the ambient store when no explicit ``store_context`` is active).
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Disk budget of each store: generous, because artifacts are the
#: expensive-to-recompute kind (a diurnal replay is ~tens of MB) -- but
#: bounded, so an unattended service cannot fill the disk.
DEFAULT_STORE_BYTES = 2 * 1024**3

#: Fraction of ``max_bytes`` an over-budget store evicts down to.
_LOW_WATER = 0.9

#: Budget of each in-memory :class:`ByteLRU` (memory tier, propagator cache).
DEFAULT_MEMORY_BYTES = 256 * 1024**2


def default_cache_dir() -> Path:
    """Return the result-cache directory (env overrides or ``~/.cache/gprs-repro``)."""
    override = os.environ.get(CACHE_DIR_ENV) or os.environ.get(CACHE_DIR_FALLBACK_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "gprs-repro"


def default_store_dir() -> Path:
    """Return the artifact-store directory.

    ``$REPRO_STORE_DIR`` wins when set; otherwise the store nests under the
    result cache's directory (which itself honours its own env overrides).
    """
    override = os.environ.get(STORE_DIR_ENV)
    if override:
        return Path(override)
    return default_cache_dir() / "store"


def content_key(identity: Any, *, default: Callable[[Any], Any] | None = None) -> str:
    """SHA-256 hex of the canonical JSON rendering of ``identity``.

    Sorted keys and no whitespace make it stable across processes and
    machines.  A value JSON cannot render raises ``TypeError`` unless
    ``default`` renders it (as in :func:`json.dumps`).
    """
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"), default=default)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """Traffic counters of one :class:`ContentStore` instance.

    ``bytes_read`` and ``bytes_written`` count entry file bytes on disk;
    ``memory_hits`` stays 0 for a store without a memory tier.
    """

    hits: int = 0
    memory_hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corrupt: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class ContentStore:
    """Sharded, verified, budgeted entry files under ``root``.

    A codec subclasses it, sets the class attributes below, and defines
    ``get``/``put`` on :meth:`_read` and :meth:`_write`.  ``max_bytes`` is
    the disk budget; a codec may make it a constructor field.
    """

    #: File suffix of an entry.
    suffix: ClassVar[str] = ""
    #: Prefix of the ``hits``/``misses``/``writes``/``evictions``/``bytes_*``
    #: counters and of the ``bytes`` gauge.
    metric_prefix: ClassVar[str] = ""
    #: Counter ticked once per quarantined entry.
    corrupt_metric: ClassVar[str] = ""

    root: Path
    stats: StoreStats = field(default_factory=StoreStats, kw_only=True)
    max_bytes: ClassVar[int] = DEFAULT_STORE_BYTES
    _disk_bytes: int | None = field(default=None, init=False, repr=False)
    _quarantine_logged: set = field(default_factory=set, init=False, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, key: str) -> Path:
        """Return the entry path of ``key`` (two-character shard directories)."""
        return self.root / key[:2] / f"{key}{self.suffix}"

    def _scan(self) -> list[tuple[float, int, str]]:
        """``(mtime, size, path)`` of every entry (``os.scandir``: twice as
        fast as ``Path.glob``)."""
        found = []
        shards = [str(shard) for shard in self.root.glob("*/")]
        for shard in shards:
            try:
                with os.scandir(shard) as files:
                    for entry in files:
                        if not entry.name.endswith(self.suffix):
                            continue
                        try:
                            stat = entry.stat()
                        except OSError:  # evicted by another process mid-scan
                            continue
                        found.append((stat.st_mtime, stat.st_size, entry.path))
            except OSError:  # the shard itself vanished
                continue
        return found

    def __len__(self) -> int:
        """Number of entries currently stored (walks the shard directories)."""
        return len(self._scan())

    @property
    def disk_bytes(self) -> int:
        """Bytes of the entries on disk (scanned once, then tracked)."""
        if self._disk_bytes is None:
            total = sum(size for _, size, _ in self._scan())
            with self._lock:
                if self._disk_bytes is None:
                    self._disk_bytes = total
        return self._disk_bytes

    def _tally(self, **counts: int) -> None:
        """Add ``counts`` to :attr:`stats` and to the metrics registry."""
        with self._lock:
            for name, amount in counts.items():
                setattr(self.stats, name, getattr(self.stats, name) + amount)
        registry = current_registry()
        for name, amount in counts.items():
            metric = self.corrupt_metric if name == "corrupt" else f"{self.metric_prefix}.{name}"
            registry.count(metric, amount)

    def _read(self, key: str, decode: Callable[[BinaryIO], Any]) -> Any | None:
        """Return ``decode(entry file)`` for ``key``, or ``None`` on a miss.

        ``decode`` verifies the entry's digest and raises on any damage; a
        raising entry is quarantined.  A hit refreshes the entry's mtime.
        """
        path = self.path_for(key)
        try:
            handle = path.open("rb")
        except OSError:  # absent or unreadable: a plain miss
            self._tally(misses=1)
            return None
        try:
            with handle:
                size = os.fstat(handle.fileno()).st_size
                value = decode(handle)
        except Exception as error:  # noqa: BLE001 -- any damage is a quarantined miss
            self._quarantine(key, path, error)
            self._tally(misses=1)
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        self._tally(hits=1, bytes_read=size)
        return value

    def _quarantine(self, key: str, path: Path, error: Exception) -> None:
        """Move a damaged entry aside so the key reads as a clean miss."""
        self._tally(corrupt=1)
        with self._lock:
            first_report = key not in self._quarantine_logged
            self._quarantine_logged.add(key)
        try:
            size = path.stat().st_size
            os.replace(path, path.with_name(f"{key}.corrupt"))
        except OSError:
            pass  # unmovable (e.g. read-only store): the miss still recomputes
        else:
            with self._lock:
                if self._disk_bytes is not None:
                    self._disk_bytes = max(0, self._disk_bytes - size)
        if first_report:
            logging.getLogger(type(self).__module__).warning(
                "quarantined corrupt entry %s -> %s.corrupt (%s: %s)",
                path, key, type(error).__name__, error,
            )

    def _write(self, key: str, encode: Callable[[BinaryIO], Any]) -> bool:
        """Atomically replace the entry of ``key`` with what ``encode`` writes.

        Any failure (including ``KeyboardInterrupt``, which is re-raised,
        never swallowed) removes the temp file, and the entry is only ever
        replaced whole.  Returns ``False`` when the ``cache`` fault site
        corrupted the new entry, ``True`` otherwise.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            previous = path.stat().st_size
        except OSError:
            previous = 0
        handle = tempfile.NamedTemporaryFile(
            "wb", dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp", delete=False
        )
        try:
            with handle:
                encode(handle)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        try:
            written = path.stat().st_size
        except OSError:
            written = 0
        with self._lock:
            if self._disk_bytes is not None:
                self._disk_bytes += written - previous
        self._tally(writes=1, bytes_written=written)
        self._evict_over_budget()
        registry = current_registry()
        registry.gauge(f"{self.metric_prefix}.bytes", float(self.disk_bytes))

        # Lazy import: repro.runtime imports this module.
        from repro.runtime.faults import current_fault_plan

        plan = current_fault_plan()
        if plan is None or not plan.take_cache_corruption():
            return True
        # Injected corruption: truncate the new entry so the next read
        # exercises quarantine.
        try:
            os.truncate(path, max(1, written // 2))
        except OSError:
            pass
        registry.count("faults.injected")
        return False

    def _evict_over_budget(self) -> None:
        """Delete least-recently-used entries down to the low-water mark.

        Runs only once the disk budget is exceeded; evicting below it
        leaves room for many puts before the next directory scan.
        """
        if self.disk_bytes <= self.max_bytes:
            return
        target = int(_LOW_WATER * self.max_bytes)
        entries = sorted(self._scan())
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= target:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        with self._lock:
            self._disk_bytes = total
        self._tally(evictions=evicted)


class ByteLRU:
    """Thread-safe least-recently-used map bounded by a byte budget.

    Every value is stored with the byte count it accounts for; one larger
    than the whole budget is not stored.  ``gauge`` names the metrics gauge
    that tracks the bytes held, ``evictions`` (optional) the counter of
    entries dropped to make room.
    """

    def __init__(self, max_bytes: int, *, gauge: str, evictions: str | None = None) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._gauge = gauge
        self._evictions = evictions
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Any | None:
        """Return the value of ``key`` (refreshing its recency) or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: str, value: Any, nbytes: int) -> None:
        """Store ``value`` as ``nbytes``, evicting the oldest entries over budget."""
        if nbytes > self.max_bytes:
            return
        evicted = 0
        with self._lock:
            self._drop(key)
            self._entries[key] = (value, nbytes)
            self.nbytes += nbytes
            while self.nbytes > self.max_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.nbytes -= dropped
                evicted += 1
            held = self.nbytes
        registry = current_registry()
        if self._evictions is not None:
            registry.count(self._evictions, evicted)
        registry.gauge(self._gauge, float(held))

    def discard(self, key: str) -> None:
        """Drop ``key`` if present."""
        with self._lock:
            self._drop(key)
            held = self.nbytes
        current_registry().gauge(self._gauge, float(held))

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self.nbytes = 0
        current_registry().gauge(self._gauge, 0.0)

    def _drop(self, key: str) -> None:
        stale = self._entries.pop(key, None)
        if stale is not None:
            self.nbytes -= stale[1]
