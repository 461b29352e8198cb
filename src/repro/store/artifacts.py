"""Content-addressed, disk-backed artifact store for binary intermediates.

:class:`ArtifactStore` is the npz codec over the content-store protocol of
:mod:`repro.store.content` (sharded entries, atomic writes, verified reads,
quarantine, disk budget, fault site, stats), plus a read-through memory tier:

* one ``.npz`` archive per artifact (``root/ab/<key>.npz``), written
  uncompressed so round-trips are fast and bitwise exact;
* each archive embeds its own metadata (``__meta__``, canonical JSON as
  bytes) and an integrity digest (``__digest__``, SHA-256 over every array's
  name, dtype, shape and raw bytes plus the metadata), so a read either
  returns exactly what was written or a clean miss (a damaged archive is
  quarantined and counted under ``store.corrupt``);
* a per-process memory tier (a :class:`~repro.store.content.ByteLRU`
  bounded by ``memory_bytes``) serves repeat reads without touching the
  filesystem.

Keys come from :func:`artifact_key`, which digests the artifact's identity
together with the code-version tag, so any local code edit invalidates every
stored artifact at once -- binary warm state can never serve stale numbers.

Ambient resolution: engine seams (propagator cache, template build, warm
seeds) call :func:`current_store`, which prefers an explicitly activated
:func:`store_context` and otherwise falls back to a process-wide store rooted
at ``$REPRO_STORE_DIR`` when that variable is set.  With neither, the store
is off and every seam behaves exactly as before -- cold paths stay cold.
The environment fallback is what carries the store across the worker-pool
boundary: the CLI exports the flag value into ``os.environ`` before spawning
workers, and each worker resolves its own store lazily on first use.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, ClassVar

import numpy as np

from repro.store.content import (
    CODE_VERSION,
    DEFAULT_MEMORY_BYTES,
    DEFAULT_STORE_BYTES,
    STORE_DIR_ENV,
    ByteLRU,
    ContentStore,
    StoreStats,
    content_key,
    default_store_dir,
)

__all__ = [
    "DEFAULT_MEMORY_BYTES",
    "DEFAULT_STORE_BYTES",
    "STORE_DIR_ENV",
    "ArtifactStore",
    "StoreStats",
    "artifact_key",
    "current_store",
    "default_store",
    "default_store_dir",
    "store_context",
]

#: Reserved array names inside an archive (not available to callers).
_RESERVED = ("__meta__", "__digest__")


def artifact_key(kind: str, identity: dict, *, code_version: str = CODE_VERSION) -> str:
    """Return the content hash of one artifact.

    ``kind`` namespaces the artifact family (``"propagator"``,
    ``"template"``, ``"warm-seed"``); ``identity``
    is a JSON-renderable dictionary of everything that determines the
    artifact's bytes.  The code-version tag is mixed in by default, so code
    edits invalidate all artifacts exactly like JSON results.
    """
    payload = {"kind": kind, "code_version": code_version, "identity": identity}
    return content_key(payload, default=repr)


def _payload_digest(arrays: dict[str, np.ndarray], meta_bytes: bytes) -> str:
    """Integrity digest over the full payload (names, dtypes, shapes, bytes)."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = arrays[name]
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(b"\0")
        digest.update(repr(value.shape).encode("utf-8"))
        digest.update(b"\0")
        digest.update(np.ascontiguousarray(value))  # hashed in place, no copy
    digest.update(meta_bytes)
    return digest.hexdigest()


def _nbytes(arrays: dict[str, np.ndarray]) -> int:
    return sum(int(value.nbytes) for value in arrays.values())


def _decode(handle: BinaryIO) -> tuple[dict[str, np.ndarray], dict]:
    """Read and verify one archive; raise on any damage."""
    with np.load(handle, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta_bytes = arrays.pop("__meta__").tobytes()
    recorded = arrays.pop("__digest__").tobytes().decode("ascii")
    if _payload_digest(arrays, meta_bytes) != recorded:
        raise ValueError("archive digest mismatch")
    meta = json.loads(meta_bytes.decode("utf-8"))
    for value in arrays.values():
        value.setflags(write=False)
    return arrays, meta


@dataclass
class ArtifactStore(ContentStore):
    """Disk-backed artifact store with a read-through memory tier.

    ``get``/``put`` speak ``(arrays, meta)`` pairs: a dict of named NumPy
    arrays plus a JSON-renderable metadata dict.  Returned arrays are
    read-only views of the stored bytes; callers that need to mutate must
    copy.  A miss (absent, unreadable, corrupt, or digest-mismatched entry)
    returns ``None`` -- the worst a broken store can do is recompute.

    Thread-safe: the protocol's lock guards the stats and disk accounting,
    the memory tier has its own, and file I/O holds neither, so the service
    tier's concurrent handler threads share a single store.
    """

    suffix: ClassVar[str] = ".npz"
    metric_prefix: ClassVar[str] = "store"
    corrupt_metric: ClassVar[str] = "store.corrupt"

    max_bytes: int = DEFAULT_STORE_BYTES
    memory_bytes: int = DEFAULT_MEMORY_BYTES

    def __post_init__(self) -> None:
        super().__post_init__()
        self._memory = ByteLRU(self.memory_bytes, gauge="store.memory_bytes")

    def clear_memory(self) -> None:
        """Drop the memory tier (disk entries stay)."""
        self._memory.clear()

    def get(self, key: str) -> tuple[dict[str, np.ndarray], dict] | None:
        """Return ``(arrays, meta)`` for ``key`` or ``None`` on a miss."""
        entry = self._memory.get(key)
        if entry is not None:
            self._tally(hits=1, memory_hits=1)
        else:
            entry = self._read(key, _decode)
            if entry is None:
                return None
            self._memory.put(key, entry, _nbytes(entry[0]))
        arrays, meta = entry
        return dict(arrays), dict(meta)

    def put(self, key: str, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
        """Atomically store ``arrays`` (+ ``meta``) under ``key``.

        A concurrent reader sees either the previous complete artifact or
        the new one, never a mixture; concurrent writers of the same key are
        last-writer-wins.
        """
        for name in arrays:
            if name in _RESERVED:
                raise ValueError(f"array name {name!r} is reserved")
        frozen = {name: np.ascontiguousarray(value) for name, value in arrays.items()}
        meta = dict(meta or {})
        meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
        digest = _payload_digest(frozen, meta_bytes)
        payload = dict(frozen)
        payload["__meta__"] = np.frombuffer(meta_bytes, dtype=np.uint8)
        payload["__digest__"] = np.frombuffer(digest.encode("ascii"), dtype=np.uint8)
        if not self._write(key, lambda handle: np.savez(handle, **payload)):
            return  # injected corruption: keep it visible to this process too
        for value in frozen.values():
            value.setflags(write=False)
        self._memory.put(key, (frozen, meta), _nbytes(frozen))


def default_store() -> ArtifactStore:
    """Return a store rooted at :func:`default_store_dir`."""
    return ArtifactStore(default_store_dir())


# ---------------------------------------------------------------------- #
# Ambient store resolution
# ---------------------------------------------------------------------- #
_DISABLED = object()
_ACTIVE: ContextVar = ContextVar("repro_active_store", default=None)
_ENV_STORE: tuple[str, ArtifactStore] | None = None


def current_store() -> ArtifactStore | None:
    """Return the ambient store, or ``None`` when storing is off.

    Resolution order: an explicit :func:`store_context` (including the
    disabled sentinel from ``store_context(None)``), then a process-wide
    store rooted at ``$REPRO_STORE_DIR`` when set, then ``None``.
    """
    active = _ACTIVE.get()
    if active is _DISABLED:
        return None
    if active is not None:
        return active
    override = os.environ.get(STORE_DIR_ENV)
    if not override:
        return None
    global _ENV_STORE
    if _ENV_STORE is None or _ENV_STORE[0] != override:
        _ENV_STORE = (override, ArtifactStore(Path(override)))
    return _ENV_STORE[1]


@contextmanager
def store_context(store: ArtifactStore | None):
    """Activate ``store`` as the ambient artifact store for this context.

    ``store_context(None)`` explicitly *disables* the store, overriding any
    ``$REPRO_STORE_DIR`` fallback -- that is what ``--no-store`` uses.
    """
    token = _ACTIVE.set(store if store is not None else _DISABLED)
    try:
        yield store
    finally:
        _ACTIVE.reset(token)
