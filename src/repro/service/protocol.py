"""Request/response protocol of the warm scenario service.

The service answers scenario requests with the very same payloads the CLI
prints under ``--json`` -- but a served answer may come from the result
cache or recompute through the warm artifact store, while the comparison
baseline is a cold CLI run.  Provenance fields (cache hit flags, replay
counters, scheduling counters) legitimately differ between those paths even
though every *numeric* field is bitwise identical.

:func:`canonical_payload` strips exactly that provenance, so two runs of
the same scenario through any execution path -- cold CLI, warm CLI,
served, store-warm across processes -- render to byte-identical
:func:`canonical_text`.  The stripping is structure-aware, not recursive
key-matching: a transient payload's ``segments`` *trace list* is
provenance (replay flags, per-segment matvec counts) and is dropped, while
the scalar ``segments`` count inside the ``profile`` sub-dict is part of
the workload description and survives.
"""

from __future__ import annotations

import json
import math

__all__ = [
    "PROTOCOL_VERSION",
    "canonical_payload",
    "canonical_text",
    "normalise_request",
    "request_key",
]

#: Bumped whenever request or response shapes change incompatibly.
PROTOCOL_VERSION = 1

#: Commands a service request may dispatch (mirrors the CLI subcommands).
COMMANDS = ("sweep", "network", "transient")

#: Every key a request may carry; any other key is rejected, not ignored.
REQUEST_KEYS = ("command", "scenario", "preset", "rate", "cache")

# Result-level provenance: cache bookkeeping of the run itself.
_RESULT_STRIP = ("cache",)
# Point-level provenance: whether this point was served from the cache.
_POINT_STRIP = ("from_cache",)
# Transient-trajectory provenance: replay/build counters that depend on
# which caches were warm, not on the trajectory itself.
_TRANSIENT_STRIP = (
    "matvecs",
    "templates_built",
    "early_stopped_segments",
    "propagator_hits",
)
# Network-solve provenance: how the per-cell solves were scheduled and
# warm-started.  The answers (aggregates, cells, iteration traces) stay.
_NETWORK_STRIP = (
    "solver_calls",
    "cold_solves",
    "frozen_solves",
)


def _strip_payload(payload: dict) -> dict:
    """Drop provenance keys from one result payload (point or whole run)."""
    drop = set(_TRANSIENT_STRIP) | set(_NETWORK_STRIP)
    out = {key: value for key, value in payload.items() if key not in drop}
    # The transient trace list -- NOT the profile's scalar segment count,
    # which lives one level down inside the "profile" sub-dict.
    if isinstance(out.get("segments"), list):
        del out["segments"]
    return out


def canonical_payload(payload: dict) -> dict:
    """The provenance-free rendering of one ``as_dict()`` result payload.

    Accepts sweep, network-sweep, transient-sweep and single-trajectory
    payloads; unknown keys pass through untouched, so the function is safe
    to apply to future result shapes.
    """
    out = {
        key: value for key, value in payload.items() if key not in _RESULT_STRIP
    }
    out = _strip_payload(out)
    points = out.get("points")
    if isinstance(points, list):
        out["points"] = [
            _strip_payload(
                {k: v for k, v in point.items() if k not in _POINT_STRIP}
            )
            if isinstance(point, dict)
            else point
            for point in points
        ]
    return out


def canonical_text(payload: dict) -> str:
    """Deterministic JSON text of :func:`canonical_payload` (no trailing \\n).

    This is the byte string the acceptance checks compare: CLI
    ``--canonical`` output and served responses both print exactly this.
    """
    return json.dumps(canonical_payload(payload), indent=2, sort_keys=True)


def normalise_request(request: dict) -> dict:
    """Validate one ``/run`` request and fill in its defaults.

    Raises ``ValueError`` with a message suitable for a 400 response.
    """
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    unknown = sorted(key for key in request if key not in REQUEST_KEYS)
    if unknown:
        raise ValueError(
            f"unknown request key(s) {', '.join(map(repr, unknown))}; "
            f"expected only {', '.join(REQUEST_KEYS)}"
        )
    command = request.get("command")
    if command not in COMMANDS:
        raise ValueError(
            f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
        )
    scenario = request.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        raise ValueError("request needs a non-empty 'scenario' name")
    preset = request.get("preset", "default")
    if preset not in ("smoke", "default", "paper"):
        raise ValueError(f"unknown preset {preset!r}")
    rate = request.get("rate")
    if rate is not None:
        try:
            rate = float(rate)
        except (TypeError, ValueError):
            raise ValueError(f"'rate' must be a number, not {rate!r}") from None
        if not 0 <= rate < math.inf:
            raise ValueError(f"'rate' must be finite and non-negative, not {rate!r}")
        if command != "transient":
            raise ValueError("'rate' applies only to transient requests")
    cache = request.get("cache", True)
    if not isinstance(cache, bool):
        # bool("false") is True: only a JSON boolean may switch the cache.
        raise ValueError(f"'cache' must be true or false, not {cache!r}")
    return {
        "command": command,
        "scenario": scenario,
        "preset": preset,
        "rate": rate,
        "cache": cache,
    }


def request_key(request: dict) -> str:
    """The canonical identity of one *normalised* request.

    Two requests with the same key ask for byte-identical work: the key is
    the deterministic JSON rendering of every field of
    :func:`normalise_request`'s output, so it distinguishes ``cache: false``
    re-solve requests from cacheable ones and a rate-pinned transient
    request from the full sweep.  The admission queue coalesces in-flight
    requests on this key, and the request journal uses it to pair accepted
    entries with their completions across a crash.
    """
    return json.dumps(request, sort_keys=True, separators=(",", ":"))
