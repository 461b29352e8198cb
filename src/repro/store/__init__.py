"""Content-addressed stores: one on-disk protocol, two codecs.

:mod:`repro.store.content` holds the protocol every disk cache uses --
sharded entries keyed by canonical-JSON content hashes and the code-version
tag, atomic writes, a digest verified on every read with quarantine on
corruption, an mtime-LRU disk budget, the ``cache`` fault site and one stats
type -- plus :class:`~repro.store.content.ByteLRU`, the one byte-bounded
in-memory LRU.  Two codecs sit on it: the JSON result cache
(:class:`repro.runtime.cache.ResultCache`) for finished answers, and
:class:`~repro.store.artifacts.ArtifactStore` for the *binary* warm state
that dominates a solve's wall time: segment-propagator replay checkpoints,
generator-template index arrays and warm-start distribution stacks, fronted by a per-process read-through memory
tier so hot artifacts cost one dict lookup.

See :mod:`repro.service` for the long-lived server that keeps one store's
memory tier warm across many requests.
"""

from repro.store.artifacts import (
    DEFAULT_MEMORY_BYTES,
    DEFAULT_STORE_BYTES,
    STORE_DIR_ENV,
    ArtifactStore,
    StoreStats,
    artifact_key,
    current_store,
    default_store,
    default_store_dir,
    store_context,
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
