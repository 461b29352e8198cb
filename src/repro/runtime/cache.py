"""Content-addressed result cache for sweep points.

Every solved sweep point is stored as one small JSON entry keyed by the
:func:`~repro.store.content.content_key` of *what produced it*: the
effective model parameters (including the swept arrival rate), the solver
settings, the kind of computation, and the code-version tag.  Consequences:

* the cache is **content-addressed** -- two scenarios (or a scenario and a
  figure run) that resolve to the same effective configuration share entries;
* the key is **stable across processes and machines** -- it only hashes plain
  dictionaries rendered as canonical JSON, never ``hash()``;
* the code-version tag in every key combines ``repro.__version__`` with a
  digest of the package's own source files, so *any* local code edit -- not
  just a release bump -- invalidates all entries at once and numerical fixes
  never serve stale results.

:class:`ResultCache` is the JSON codec over the content-store protocol of
:mod:`repro.store.content`, the same one the binary artifact store uses: an
entry is a SHA-256 digest line followed by the JSON object, written
atomically, verified on every read, bounded by the disk budget, and
**quarantined** when damaged -- renamed to ``<key>.corrupt``, counted under
``cache.corrupt``, logged once per key.  An entry that parses but fails the
digest (a changed number) or is not a JSON object is damaged too, so the
worst a broken cache can do is recompute.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import BinaryIO, ClassVar

from repro.store.content import (
    CODE_VERSION,
    ContentStore,
    content_key,
    default_cache_dir,
)

__all__ = ["CODE_VERSION", "ResultCache", "default_cache_dir", "result_key"]


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
    return content_key(payload)


def _decode(handle: BinaryIO) -> dict:
    """Read and verify one entry (digest line, then the JSON object)."""
    digest, _, body = handle.read().partition(b"\n")
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        raise ValueError("entry digest mismatch")
    payload = json.loads(body)
    if not isinstance(payload, dict):
        raise ValueError(f"entry is a JSON {type(payload).__name__}, not an object")
    return payload


@dataclass
class ResultCache(ContentStore):
    """JSON result cache under ``root`` (sharded by key prefix).

    ``get``/``put`` speak plain dictionaries; callers decide what a payload
    means.  An absent or unreadable entry is a miss; a damaged one is
    quarantined first (see the module docstring).

    Thread-safe: the service's solver threads share a single cache.
    """

    suffix: ClassVar[str] = ".json"
    metric_prefix: ClassVar[str] = "cache.result"
    corrupt_metric: ClassVar[str] = "cache.corrupt"

    def get(self, key: str) -> dict | None:
        """Return the cached payload for ``key`` or ``None`` on a miss."""
        return self._read(key, _decode)

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` under ``key``."""
        body = json.dumps(payload).encode("utf-8")
        entry = hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body
        self._write(key, lambda handle: handle.write(entry))
