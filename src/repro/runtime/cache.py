"""Content-addressed result cache for sweep points.

Every solved sweep point is stored as one small JSON file whose name is the
SHA-256 hash of a canonical JSON rendering of *what produced it*: the
effective model parameters (including the swept arrival rate), the solver
settings, the kind of computation, and a code-version tag.  Consequences:

* the cache is **content-addressed** -- two scenarios (or a scenario and a
  figure run) that resolve to the same effective configuration share entries;
* the key is **stable across processes and machines** -- it only hashes plain
  dictionaries via ``json.dumps(sort_keys=True)``, never ``repr`` or ``hash()``;
* the code-version tag in every key combines ``repro.__version__`` with a
  digest of the package's own source files, so *any* local code edit -- not
  just a release bump -- invalidates all entries at once and numerical fixes
  never serve stale results.

Writes are atomic (temp file + ``os.replace``) so concurrent workers and
interrupted runs can never leave a torn JSON file behind.  An entry that is
damaged anyway (an external writer, a dying disk, an injected fault) is
**quarantined** on first read: the file is renamed to ``<key>.corrupt`` --
preserving the evidence while guaranteeing the next read of that key is a
clean miss -- a ``cache.corrupt`` counter ticks, and the quarantine is
logged once per key.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.obs.metrics import current_registry
from repro.runtime.faults import current_fault_plan

_logger = logging.getLogger(__name__)

__all__ = ["CODE_VERSION", "CacheStats", "ResultCache", "default_cache_dir", "result_key"]

_SOURCE_DIGEST: str | None = None


def _source_digest() -> str:
    """Digest of every ``.py`` file of the installed ``repro`` package.

    Memoised behind a module-level cache so each process hashes the package
    source at most once, no matter how many callers ask -- the run ledger
    reuses it (via :data:`CODE_VERSION`) for its code-version field, and
    worker processes recompute it only on their own first use.  It makes the
    cache self-invalidating under local code edits, which matters in a
    repository whose product is the numbers.
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


#: Tag mixed into every cache key: package version plus a source digest, so
#: both release bumps and local code edits invalidate existing entries.
CODE_VERSION: str = f"repro-{repro.__version__}-{_source_digest()}"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "GPRS_REPRO_CACHE_DIR"

#: Shorter alias honoured when :data:`CACHE_DIR_ENV` is unset, mirroring the
#: artifact store's ``REPRO_STORE_DIR`` -- service deployments and CI pin
#: both warm tiers with one naming scheme, no flag threading required.
CACHE_DIR_FALLBACK_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Return the default cache directory (env overrides or ``~/.cache/gprs-repro``)."""
    override = os.environ.get(CACHE_DIR_ENV) or os.environ.get(CACHE_DIR_FALLBACK_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "gprs-repro"


def result_key(
    params_dict: dict,
    *,
    solver: str,
    solver_tol: float,
    kind: str = "analytical",
    seed: int | None = None,
    network: dict | None = None,
    transient: dict | str | None = None,
    code_version: str = CODE_VERSION,
) -> str:
    """Return the content hash of one sweep point.

    Parameters
    ----------
    params_dict:
        Effective model parameters (from
        :func:`repro.runtime.spec.parameters_to_dict`) *including* the swept
        arrival rate.  For network points these are the *base-cell*
        parameters; per-cell deviations enter through ``network``.  For
        transient points they are the unperturbed base parameters; per-segment
        deviations enter through ``transient``.
    solver, solver_tol:
        Steady-state solver settings.
    kind:
        Computation kind, ``"analytical"`` for single-cell CTMC solves,
        ``"network"`` for joint multi-cell solves and ``"transient"`` for
        time-dependent trajectories; simulation-backed runs use a different
        kind so no two ever collide.
    seed:
        Per-point seed for stochastic kinds (``None`` for analytical solves).
    network:
        Topology digest for network points: the full
        :meth:`~repro.network.topology.CellTopology.to_dict` rendering
        (routing matrix and per-cell overrides), so networks that differ in
        any edge weight or override cache separately -- and never share
        entries with single-cell runs (``None``).
    transient:
        Workload-profile identity for transient points: the profile's cached
        content :meth:`~repro.transient.schedule.WorkloadProfile.digest`
        (preferred -- computed once per profile, so per-point keys stop
        re-rendering the whole schedule), or the full
        :meth:`~repro.transient.schedule.WorkloadProfile.to_dict` rendering.
        Either way profiles that differ in any segment or sample cache
        separately -- and never share entries with steady-state runs
        (``None``).
    code_version:
        Version tag; defaults to :data:`CODE_VERSION`.
    """
    payload = {
        "kind": kind,
        "code_version": code_version,
        "solver": solver,
        "solver_tol": solver_tol,
        "seed": seed,
        "network": network,
        "transient": transient,
        "parameters": params_dict,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/write/corrupt counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }


@dataclass
class ResultCache:
    """JSON-file result cache under ``root`` (sharded by key prefix).

    ``get``/``put`` speak plain dictionaries; callers decide what a payload
    means.  An unreadable entry counts as a miss; a *corrupt* entry (present
    but not valid JSON) is additionally quarantined -- renamed to
    ``<key>.corrupt`` so it can never be re-read, counted under
    ``cache.corrupt``, and logged once per key.  The worst a broken cache
    can do is recompute.

    Instances are **thread-safe**: one lock serialises the stats counters
    and the quarantine log set, so the service's solver threads can share a
    single cache.  Disk reads and writes stay outside it; the atomic-rename
    write protocol already makes them safe to race.
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)
    _quarantine_logged: set = field(default_factory=set, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, key: str) -> Path:
        """Return the file path of ``key`` (two-character shard directories)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Return the cached payload for ``key`` or ``None`` on a miss."""
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            self._count_miss()
            return None
        except ValueError:
            self._quarantine(key, path)
            self._count_miss()
            return None
        with self._lock:
            self.stats.hits += 1
        current_registry().count("cache.result.hits")
        return payload

    def _count_miss(self) -> None:
        with self._lock:
            self.stats.misses += 1
        current_registry().count("cache.result.misses")

    def _quarantine(self, key: str, path: Path) -> None:
        """Move a corrupt entry aside so the key reads as a clean miss."""
        with self._lock:
            self.stats.corrupt += 1
            first_report = key not in self._quarantine_logged
            self._quarantine_logged.add(key)
        current_registry().count("cache.corrupt")
        try:
            os.replace(path, path.with_name(f"{key}.corrupt"))
        except OSError:
            pass  # unmovable (e.g. read-only cache): the miss still recomputes
        if first_report:
            _logger.warning(
                "quarantined corrupt cache entry %s -> %s.corrupt", key, key
            )

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` under ``key``.

        Interruptions never leave a torn entry: any failure (including
        ``KeyboardInterrupt``, which is re-raised, never swallowed) removes
        the temp file and the target is only ever replaced whole.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w",
            encoding="utf-8",
            dir=path.parent,
            prefix=f".{key[:8]}-",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                json.dump(payload, handle)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        with self._lock:
            self.stats.writes += 1
        current_registry().count("cache.result.writes")
        plan = current_fault_plan()
        if plan is not None and plan.take_cache_corruption():
            # Injected corruption (the ``cache`` fault site): truncate the
            # just-written entry so the next read exercises quarantine.
            path.write_text('{"corrupt', encoding="utf-8")
            current_registry().count("faults.injected")

    def __len__(self) -> int:
        """Number of entries currently stored (walks the shard directories)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
