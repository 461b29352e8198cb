"""Tests of the worker-pool start rule (`repro.runtime.resilience`).

``jobs > 1`` starts worker processes only when the queued work repays the
measured start cost; until then tasks run in-process.  These tests pin the
rule's decisions, the isolation guarantees that bypass it (deadlines and
fault plans always get real workers), its telemetry, and the bitwise
``jobs=1 == jobs=2`` contract both when the pool is declined and when it is
forced.  Forcing patches the private start-cost prediction to ``-inf``, so
the rule starts the workers before the first task.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.scale import ExperimentScale
from repro.network import hexagonal_cluster
from repro.network.sweep import network_sweep_payloads
from repro.obs import read_ledger
from repro.obs.metrics import MetricsRegistry, activate_registry
from repro.runtime import resilience, run_sweep, scenario
from repro.runtime.faults import inject_faults
from repro.runtime.resilience import ResilientPool
from repro.transient import default_propagator_cache, flash_crowd
from repro.transient.sweep import transient_sweep_payloads

SMOKE = ExperimentScale.smoke()
SRC = Path(__file__).resolve().parents[1] / "src"


def _pid(_job):
    """Worker that reports which process ran it."""
    return os.getpid()


def _nap_pid(seconds):
    """Worker that sleeps, then reports which process ran it."""
    time.sleep(seconds)
    return os.getpid()


@pytest.fixture
def forced_pool(monkeypatch):
    """Make every start decision come out in favour of the pool."""
    monkeypatch.setattr(resilience, "_pool_start_cost_s", lambda: float("-inf"))


def _counters(registry: MetricsRegistry) -> dict:
    return registry.snapshot()["counters"]


class TestStartRule:
    def test_cheap_tasks_stay_in_process(self, monkeypatch):
        # Builtin-sized tasks against a (deliberately low) 10 ms start cost.
        monkeypatch.setattr(resilience, "_pool_start_cost_s", lambda: 0.01)
        with activate_registry(MetricsRegistry()) as registry:
            with ResilientPool(2) as pool:
                pids = pool.run(_pid, [None] * 4, site="cell")
        assert pids == [os.getpid()] * 4
        counters = _counters(registry)
        assert counters["resilience.pool_declined"] == 4
        assert counters["resilience.attempts"] == 4
        assert "resilience.pool_started" not in counters

    def test_streaming_submit_poll_declines_too(self, monkeypatch):
        monkeypatch.setattr(resilience, "_pool_start_cost_s", lambda: 0.01)
        with ResilientPool(2) as pool:
            for index in range(3):
                pool.submit(_pid, None, site="cell", index=index, tag=index)
            outcomes = {}
            while len(outcomes) < 3:
                outcomes.update(pool.poll())
        assert outcomes == {0: os.getpid(), 1: os.getpid(), 2: os.getpid()}

    def test_forced_pool_runs_every_task_in_a_worker(self, forced_pool):
        with activate_registry(MetricsRegistry()) as registry:
            with ResilientPool(2) as pool:
                pids = pool.run(_pid, [None] * 3, site="cell")
        assert os.getpid() not in pids
        counters = _counters(registry)
        assert counters["resilience.pool_started"] == 1
        assert counters["resilience.pool_start_s"] > 0.0
        assert "resilience.pool_declined" not in counters

    def test_work_that_repays_the_start_cost_starts_the_pool(self, monkeypatch):
        # The first task has no timing yet and runs in-process; its 0.3 s
        # then predicts a saving of 3 x 0.3 x (1 - 1/2) = 0.45 s, above the
        # 0.05 s start cost, so the remaining tasks go to workers.
        monkeypatch.setattr(resilience, "_pool_start_cost_s", lambda: 0.05)
        with ResilientPool(2) as pool:
            pids = pool.run(_nap_pid, [0.3] * 4, site="cell")
        assert pids[0] == os.getpid()
        assert os.getpid() not in pids[1:]

    def test_a_started_pool_is_kept(self, monkeypatch):
        monkeypatch.setattr(resilience, "_pool_start_cost_s", lambda: float("-inf"))
        with ResilientPool(2) as pool:
            assert os.getpid() not in pool.run(_pid, [None] * 2, site="cell")
            monkeypatch.setattr(resilience, "_pool_start_cost_s", lambda: 1e9)
            assert os.getpid() not in pool.run(_pid, [None] * 2, site="cell")

    def test_a_lone_task_never_repays_a_pool(self):
        with ResilientPool(4) as pool:
            assert pool.run(_nap_pid, [0.05], site="cell") == [os.getpid()]

    def test_prior_is_measured_by_this_interpreter(self, monkeypatch):
        import repro

        monkeypatch.setattr(resilience, "_last_start_s", None)
        assert resilience._pool_start_cost_s() == 2.0 * repro._IMPORT_S
        monkeypatch.setattr(resilience, "_last_start_s", 0.7)
        assert resilience._pool_start_cost_s() == 0.7


class TestIsolationBypassesTheRule:
    """Deadlines and worker kills need process isolation, whatever the cost."""

    def test_a_deadline_gets_a_real_worker(self):
        with ResilientPool(2, task_timeout=60.0) as pool:
            (pid,) = pool.run(_pid, [None], site="cell")
        assert pid != os.getpid()

    def test_a_fault_plan_gets_a_real_worker(self):
        with inject_faults("cell@99=raise"):  # armed, but aimed elsewhere
            with ResilientPool(2) as pool:
                (pid,) = pool.run(_pid, [None], site="cell")
        assert pid != os.getpid()


def _transient_spec():
    """flash-crowd shrunk to a seconds-long schedule over two rates."""
    return scenario("flash-crowd").replace(
        transient=flash_crowd(
            spike_multiplier=2.5,
            lead_duration_s=4.0,
            spike_duration_s=6.0,
            recovery_duration_s=10.0,
            samples=4,
        ),
        arrival_rates=(0.3, 0.6),
    )


def _network_spec():
    return scenario("homogeneous-7").replace(network=hexagonal_cluster(3))


@pytest.fixture(params=["declined", "forced"])
def placement(request, monkeypatch):
    """Run the parity tests once with the pool declined, once forced.

    Both arms pin the start-cost prediction: a measured cost depends on the
    pools earlier tests started in this process.
    """
    cost = float("-inf") if request.param == "forced" else float("inf")
    monkeypatch.setattr(resilience, "_pool_start_cost_s", lambda: cost)
    registry = MetricsRegistry()
    with activate_registry(registry):
        yield request.param
    counters = _counters(registry)
    if request.param == "forced":
        assert counters.get("resilience.pool_started", 0) >= 1
    else:
        assert counters.get("resilience.pool_declined", 0) >= 1
        assert "resilience.pool_started" not in counters


class TestJobsParity:
    """jobs=1 == jobs=2 bitwise, wherever the rule places the tasks."""

    def test_sweep(self, placement):
        spec = scenario("figure12").replace(arrival_rates=(0.2, 0.4, 0.6, 0.8))
        serial = run_sweep(spec, SMOKE, jobs=1, cache=None, chunk_size=1)
        parallel = run_sweep(spec, SMOKE, jobs=2, cache=None, chunk_size=1)
        assert json.dumps(serial.as_dict()["points"]) == json.dumps(
            parallel.as_dict()["points"]
        )

    @pytest.mark.parametrize("warm", [False, True])
    def test_network(self, placement, warm):
        spec = _network_spec()
        serial = network_sweep_payloads(spec, SMOKE, warm=warm, jobs=1)
        parallel = network_sweep_payloads(spec, SMOKE, warm=warm, jobs=2)
        assert json.dumps(serial) == json.dumps(parallel)

    def test_transient(self, placement):
        spec = _transient_spec()
        # Workers start with cold propagator caches; level the parent's so
        # replay provenance matches wherever the trajectories run.
        default_propagator_cache().clear()
        serial = transient_sweep_payloads(spec, SMOKE, jobs=1)
        default_propagator_cache().clear()
        parallel = transient_sweep_payloads(spec, SMOKE, jobs=2)
        assert json.dumps(serial) == json.dumps(parallel)


class TestTelemetry:
    def test_smoke_network_run_records_a_declined_pool(self, tmp_path):
        # A fresh interpreter: the decision then rests on the prior this
        # run measures itself, not on pools earlier tests started here.
        ledger = tmp_path / "ledger.jsonl"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [
                sys.executable, "-m", "repro", "network", "homogeneous-7",
                "--preset", "smoke", "--no-cache", "--jobs", "2",
                "--ledger", str(ledger),
            ],
            check=True,
            capture_output=True,
            env=env,
            timeout=300,
        )
        (record,) = read_ledger(ledger)
        block = record["resilience"]
        assert block["pool_declined"] >= 1
        assert block["pool_started"] == 0
        assert block["pool_start_s"] == 0
