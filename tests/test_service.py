"""Tests of the warm scenario service (repro.service)."""

from __future__ import annotations

import io
import json
import threading
import urllib.error
import urllib.request
from contextlib import redirect_stdout

import pytest

from repro import cli
from repro.runtime import ResultCache
from repro.service import (
    ScenarioService,
    ServiceClient,
    ServiceError,
    canonical_payload,
    canonical_text,
    create_server,
    normalise_request,
)
from repro.store import ArtifactStore


class TestProtocol:
    def test_canonical_strips_run_provenance(self):
        payload = {
            "scenario": {"name": "x"},
            "cache": {"hits": 3, "misses": 1},
            "points": [
                {
                    "index": 0,
                    "arrival_rate": 0.3,
                    "from_cache": True,
                    "failed": False,
                    "values": {"loss": 0.1},
                    "matvecs": 42,
                    "propagator_hits": 7,
                    "solver_calls": 9,
                }
            ],
        }
        canonical = canonical_payload(payload)
        assert "cache" not in canonical
        point = canonical["points"][0]
        for stripped in (
            "from_cache", "matvecs", "propagator_hits", "solver_calls",
        ):
            assert stripped not in point
        assert point["failed"] is False  # real outcomes survive
        assert point["values"] == {"loss": 0.1}

    def test_canonical_keeps_the_profile_segment_count(self):
        """Only the trace *list* is provenance; the profile's scalar
        segment count describes the workload and must survive."""
        payload = {
            "profile": {"name": "diurnal", "segments": 24},
            "segments": [{"index": 0, "replayed": True, "matvecs": 0}],
            "times": [0.0, 1.0],
            "matvecs": 100,
        }
        canonical = canonical_payload(payload)
        assert "segments" not in canonical
        assert "matvecs" not in canonical
        assert canonical["profile"]["segments"] == 24
        assert canonical["times"] == [0.0, 1.0]

    def test_canonical_text_is_deterministic(self):
        a = canonical_text({"b": 1, "a": {"z": 2, "y": [3]}})
        b = canonical_text({"a": {"y": [3], "z": 2}, "b": 1})
        assert a == b

    def test_normalise_request_defaults_and_errors(self):
        request = normalise_request(
            {"command": "transient", "scenario": "diurnal-24h"}
        )
        assert request == {
            "command": "transient",
            "scenario": "diurnal-24h",
            "preset": "default",
            "rate": None,
            "cache": True,
        }
        with pytest.raises(ValueError, match="unknown command"):
            normalise_request({"command": "solve", "scenario": "x"})
        with pytest.raises(ValueError, match="scenario"):
            normalise_request({"command": "sweep"})
        with pytest.raises(ValueError, match="preset"):
            normalise_request(
                {"command": "sweep", "scenario": "x", "preset": "huge"}
            )
        with pytest.raises(ValueError, match="rate"):
            normalise_request({"command": "sweep", "scenario": "x", "rate": 0.5})
        for bad_rate in ("nan", "inf", float("nan"), -1, [0.5]):
            with pytest.raises(ValueError, match="rate"):
                normalise_request(
                    {"command": "transient", "scenario": "x", "rate": bad_rate}
                )
        with pytest.raises(ValueError, match="unknown request key.*'pipelined'"):
            normalise_request(
                {"command": "network", "scenario": "x", "pipelined": True}
            )
        for bad_cache in ("false", 0, 1, None):
            with pytest.raises(ValueError, match="'cache' must be true or false"):
                normalise_request(
                    {"command": "network", "scenario": "x", "cache": bad_cache}
                )
        assert normalise_request(
            {"command": "network", "scenario": "x", "cache": False}
        )["cache"] is False


@pytest.fixture()
def service_client(tmp_path):
    """A live in-thread server plus a client bound to its ephemeral port."""
    service = ScenarioService(
        jobs=1,
        cache=ResultCache(tmp_path / "cache"),
        store=ArtifactStore(tmp_path / "store"),
    )
    server = create_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield service, client
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


_REQUEST = {"command": "transient", "scenario": "diurnal-24h", "preset": "smoke"}
_NETWORK_REQUEST = {
    "command": "network", "scenario": "homogeneous-7", "preset": "smoke",
}


def _post_expecting_400(client, body: dict) -> dict:
    """POST ``body`` to ``/run`` raw, assert a 400 and return its reply."""
    request = urllib.request.Request(
        client.url + "/run",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request, timeout=30)
    assert caught.value.code == 400
    reply = json.loads(caught.value.read().decode("utf-8"))
    assert reply["ok"] is False
    return reply


class TestService:
    def test_health_and_stats(self, service_client):
        _, client = service_client
        assert client.wait_ready()
        health = client.health()
        assert health["ok"] and health["status"] == "ready"
        stats = client.stats()
        assert stats["ok"]
        assert stats["requests"] == 0
        assert stats["store"]["entries"] == 0
        assert stats["cache"] is not None
        # The ledger's resilience block, pool start decisions included.
        assert {"pool_started", "pool_declined", "pool_start_s"} <= set(
            stats["resilience"]
        )

    def test_repeat_request_is_served_from_cache(self, service_client):
        _, client = service_client
        first = client.run(_REQUEST)
        assert first["ok"], first
        second = client.run(_REQUEST)
        assert second["ok"]
        assert second["cache"]["hits"] > 0  # result cache answered
        counters = second["metrics"]["counters"]
        assert counters.get("transient.solves", 0) == 0  # no solver touched
        assert second["canonical"] == first["canonical"]
        # The raw payloads differ exactly in provenance: cache bookkeeping
        # and per-point from_cache flags -- what canonical stripping removes.
        assert canonical_payload(second["payload"]) == canonical_payload(
            first["payload"]
        )

    def test_store_warm_resolve_is_bitwise(self, service_client):
        """`cache: false` forces a re-solve that must flow through the warm
        store -- zero matvecs -- and land on identical canonical bytes."""
        _, client = service_client
        first = client.run(_REQUEST)
        assert first["ok"]
        resolved = client.run(dict(_REQUEST, cache=False))
        assert resolved["ok"]
        counters = resolved["metrics"]["counters"]
        assert counters.get("transient.solves", 0) > 0  # it really re-solved
        assert counters.get("transient.matvecs", 0) == 0  # ... via replay
        # Within one server process the in-memory tier may answer before
        # the disk tier; either way every segment replayed warm.
        assert counters.get("cache.propagator.hits", 0) > 0
        assert resolved["canonical"] == first["canonical"]

    def test_batch_answers_in_order(self, service_client):
        _, client = service_client
        reply = client.batch(
            [
                _REQUEST,
                {"command": "network", "scenario": "homogeneous-7", "preset": "smoke"},
            ]
        )
        assert reply["ok"]
        assert len(reply["responses"]) == 2
        assert reply["responses"][0]["command"] == "transient"
        assert reply["responses"][1]["command"] == "network"
        assert all(item["ok"] for item in reply["responses"])

    def test_unknown_scenario_is_a_clean_error(self, service_client):
        _, client = service_client
        response = client.run({"command": "transient", "scenario": "no-such"})
        assert response["ok"] is False
        assert "no-such" in response["error"]
        # A failed request must not poison the server.
        assert client.health()["ok"]

    @pytest.mark.parametrize("rate", ["nan", "inf", -1, True, "0.5"])
    def test_non_finite_or_negative_rate_is_a_400(self, service_client, rate):
        _, client = service_client
        reply = _post_expecting_400(client, dict(_REQUEST, rate=rate))
        assert "rate" in reply["error"]
        # The rejection must leave the server answering valid requests.
        assert client.run(dict(_REQUEST, rate=0.4))["ok"]

    @pytest.mark.parametrize(
        "override, word",
        [({"cache": "false"}, "cache"), ({"cache": 0}, "cache"),
         ({"pipelined": True}, "pipelined")],
        ids=["cache-string", "cache-int", "unknown-key"],
    )
    def test_malformed_field_is_a_400(self, service_client, override, word):
        """A string ``cache`` must not be read as truthy, and an unknown key
        must not be silently dropped: both are rejected before admission."""
        _, client = service_client
        reply = _post_expecting_400(client, dict(_NETWORK_REQUEST, **override))
        assert word in reply["error"]
        assert client.stats()["admission"]["accepted"] == 0  # never admitted
        # The rejection must leave the server answering valid requests.
        assert client.run(_NETWORK_REQUEST)["ok"]

    def test_malformed_batch_items_answer_not_ok(self, service_client):
        _, client = service_client
        reply = client.batch(
            [
                dict(_NETWORK_REQUEST, cache="false"),
                dict(_NETWORK_REQUEST, pipelined=True),
                _NETWORK_REQUEST,
            ]
        )
        first, second, valid = reply["responses"]
        assert first["ok"] is False and "cache" in first["error"]
        assert second["ok"] is False and "pipelined" in second["error"]
        assert valid["ok"]

    def test_unknown_path_and_bad_body(self, service_client):
        _, client = service_client
        response = client._request("/nope")
        assert response["ok"] is False
        batch = client._request("/batch", {"not_requests": 1})
        assert batch["ok"] is False

    def test_connection_error_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError):
            client.health()

    def test_served_answer_matches_the_cold_cli_bytes(self, service_client):
        _, client = service_client
        served = client.run(_REQUEST)
        assert served["ok"]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(
                [
                    "transient", "diurnal-24h", "--preset", "smoke",
                    "--no-cache", "--no-store", "--canonical",
                ]
            )
        assert code == 0
        assert buffer.getvalue() == served["canonical"] + "\n"

    def test_shutdown_endpoint_stops_the_server(self, tmp_path):
        service = ScenarioService(jobs=1)
        server = create_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        assert client.wait_ready()
        ack = client.shutdown()
        assert ack["ok"] and ack["stopping"]
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()
        service.close()

    def test_shutdown_drains_a_slow_inflight_request(self):
        """Regression: /shutdown used to tear the server down while in-flight
        requests were still solving.  A slow request admitted before the
        shutdown must complete -- drained, not dropped."""
        import time

        started = threading.Event()

        class _SlowService(ScenarioService):
            def _solve_request(self, request):
                started.set()
                time.sleep(0.8)
                return {"ok": True, "slow": True}

        service = _SlowService(jobs=1, drain_timeout=30.0)
        server = create_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        assert client.wait_ready()
        responses = []
        runner = threading.Thread(
            target=lambda: responses.append(client.run(_REQUEST)), daemon=True
        )
        runner.start()
        assert started.wait(10)  # the solve is genuinely in flight
        ack = client.shutdown()
        assert ack["ok"] and ack["stopping"]
        runner.join(timeout=30)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert responses and responses[0]["ok"] and responses[0]["slow"]
        assert service.stats()["admission"]["drained"] == 1
        server.server_close()
        service.close()
