"""Tests of the observability layer: spans, metrics merge, run ledger.

The standing contract under test is that instrumentation never changes
numbers: every result here is produced twice -- once with the null tracer
and once under an active :class:`~repro.obs.Tracer` plus a fresh metrics
registry -- and compared bitwise through a canonical JSON rendering.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.experiments.scale import ExperimentScale
from repro.network import hexagonal_cluster
from repro.network.sweep import network_sweep_payloads
from repro.runtime import resilience, run_sweep, scenario
from repro.transient.sweep import transient_sweep_payloads

SMOKE = ExperimentScale.smoke()


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _traced(function, *args, **kwargs):
    """Run ``function`` under an active tracer + fresh registry."""
    tracer = obs.Tracer()
    with obs.activate_tracer(tracer), obs.activate_registry(obs.MetricsRegistry()):
        result = function(*args, **kwargs)
    return result, tracer


class TestBitwiseUnderTracing:
    def test_figure_sweep_identical_on_and_off(self):
        spec = scenario("figure12").replace(arrival_rates=(0.3, 0.7))
        plain = run_sweep(spec, SMOKE, cache=None).as_dict()
        traced, tracer = _traced(run_sweep, spec, SMOKE, cache=None)
        assert _canonical(traced.as_dict()) == _canonical(plain)
        # The tracer actually saw the work it claims not to have perturbed.
        assert "model.steady_state" in tracer.span_totals()

    def test_network_scenario_identical_on_and_off(self):
        spec = scenario("homogeneous-7").replace(
            network=hexagonal_cluster(3), arrival_rates=(0.4,)
        )
        plain = network_sweep_payloads(spec, SMOKE, jobs=1)
        traced, tracer = _traced(network_sweep_payloads, spec, SMOKE, jobs=1)
        assert _canonical(traced) == _canonical(plain)
        assert "network.outer_iteration" in tracer.span_totals()

    def test_transient_scenario_identical_on_and_off(self):
        spec = scenario("busy-hour-ramp")
        # Prime the process-wide propagator cache first: a cold and a warm
        # run legitimately differ in bookkeeping (matvecs vs. replays), so
        # the on/off pair must start from the same cache state.
        transient_sweep_payloads(spec, SMOKE, rates=(0.5,))
        plain = transient_sweep_payloads(spec, SMOKE, rates=(0.5,))
        traced, tracer = _traced(
            transient_sweep_payloads, spec, SMOKE, rates=(0.5,)
        )
        assert _canonical(traced) == _canonical(plain)
        assert "transient.solve" in tracer.span_totals()


class TestSpans:
    def test_nesting_attributes_and_totals(self):
        tracer = obs.Tracer()
        with tracer.span("outer", kind="test"):
            for _ in range(2):
                with tracer.span("inner"):
                    pass
        (root,) = tracer.tree()
        assert root.name == "outer"
        assert root.attributes == {"kind": "test"}
        assert [child.name for child in root.children] == ["inner", "inner"]
        totals = tracer.span_totals()
        assert totals["outer"]["count"] == 1
        assert totals["inner"]["count"] == 2
        assert totals["outer"]["wall_s"] >= totals["inner"]["wall_s"] >= 0.0

    def test_span_survives_exceptions(self):
        tracer = obs.Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.span_totals()["doomed"]["count"] == 1

    def test_null_tracer_is_ambient_default_and_free_of_state(self):
        tracer = obs.current_tracer()
        assert tracer is obs.NULL_TRACER
        with tracer.span("anything", cell=3):
            pass
        assert tracer.span_totals() == {}
        assert tracer.tree() == []


class TestMetricsMerge:
    #: Counters that measure solver *work*, which the bitwise contract pins
    #: across job counts.  Construction counters (template builds, scaffold
    #: counts) legitimately differ: every worker process builds its own.
    WORK_PREFIXES = ("model.", "solver.")

    @staticmethod
    def _work_counters(registry: obs.MetricsRegistry) -> dict:
        return {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith(TestMetricsMerge.WORK_PREFIXES)
        }

    def test_parallel_counters_merge_to_serial_totals(self, monkeypatch):
        # Start real workers (one chunk per point, so there are chunks to
        # spread) so that their exports cross the process boundary.
        monkeypatch.setattr(resilience, "_pool_start_cost_s", lambda: float("-inf"))
        spec = scenario("figure12").replace(arrival_rates=(0.2, 0.4, 0.6, 0.8))
        registries = {}
        for jobs in (1, 4):
            registries[jobs] = obs.MetricsRegistry()
            with obs.activate_registry(registries[jobs]):
                run_sweep(spec, SMOKE, jobs=jobs, cache=None, chunk_size=1)
        serial = self._work_counters(registries[1])
        parallel = self._work_counters(registries[4])
        assert serial["model.solves"] == 4
        assert serial == parallel
        assert registries[4].snapshot()["counters"]["resilience.pool_started"] == 1

    def test_zero_count_records_nothing(self):
        registry = obs.MetricsRegistry()
        registry.count("solver.iterations", 0)
        assert registry.snapshot()["counters"] == {}

    def test_absorb_export_is_pid_guarded(self):
        registry = obs.MetricsRegistry()
        baseline = registry.snapshot()
        registry.count("work.units", 3)
        export = obs.export_delta(baseline, registry)
        # Same process: the delta is already in the registry, must not double.
        assert obs.absorb_export(export, registry) is False
        assert registry.snapshot()["counters"]["work.units"] == 3
        # Simulate a worker's export crossing the process boundary.
        foreign = dict(export, pid=export["pid"] + 1)
        assert obs.absorb_export(foreign, registry) is True
        assert registry.snapshot()["counters"]["work.units"] == 6

    def test_histograms_combine_across_merge(self):
        worker = obs.MetricsRegistry()
        baseline = worker.snapshot()
        for value in (1.0, 3.0):
            worker.observe("chunk.points", value)
        parent = obs.MetricsRegistry()
        parent.observe("chunk.points", 8.0)
        export = dict(obs.export_delta(baseline, worker), pid=-1)
        assert obs.absorb_export(export, parent) is True
        histogram = parent.snapshot()["histograms"]["chunk.points"]
        assert histogram["count"] == 3
        assert histogram["sum"] == 12.0
        assert histogram["min"] == 1.0 and histogram["max"] == 8.0


class TestLedger:
    def _record(self, **overrides):
        record = obs.make_record(
            command="solve",
            target="unit-test",
            preset="smoke",
            args={"jobs": 2},
            spec={"scenario": "figure12"},
            wall_s=1.25,
            cpu_s=1.1,
            span_totals={"cli.solve": {"count": 1, "wall_s": 1.25, "cpu_s": 1.1}},
            metrics={"counters": {"model.solves": 1}, "gauges": {}, "histograms": {}},
        )
        record.update(overrides)
        return record

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "ledger" / "runs.jsonl"
        first = self._record()
        second = self._record(wall_s=2.5)
        obs.append_record(str(path), first)
        obs.append_record(str(path), second)
        assert obs.read_ledger(str(path)) == [first, second]
        # Every line is valid standalone JSON (the JSONL contract).
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [first, second]

    def test_future_schema_version_is_refused(self, tmp_path):
        record = self._record(schema_version=obs.SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="schema_version"):
            obs.validate_record(record)
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError):
            obs.read_ledger(str(path))

    def test_wrong_schema_and_missing_fields_are_refused(self):
        with pytest.raises(ValueError, match="schema"):
            obs.validate_record(self._record(schema="something-else"))
        broken = self._record()
        del broken["spans"]
        with pytest.raises(ValueError, match="spans"):
            obs.validate_record(broken)

    def test_resilience_block_derives_from_counters(self):
        metrics = {
            "counters": {
                "resilience.attempts": 5,
                "resilience.retries": 2,
                "resilience.pool_respawns": 1,
                "resilience.pool_start_s": 1.23456,
                "faults.injected": 1,
            }
        }
        block = obs.resilience_block(metrics)
        assert block["pool_start_s"] == 1.23456
        assert block["attempts"] == 5
        assert block["retries"] == 2
        assert block["pool_respawns"] == 1
        assert block["faults_injected"] == 1
        assert block["degraded"] == 0  # absent counters read as zero
        record = self._record()  # default metrics carry no resilience counters
        assert set(record["resilience"]) == set(block)
        assert not any(record["resilience"].values())
        eventful = obs.make_record(
            command="sweep",
            target="unit-test",
            wall_s=1.0,
            metrics=metrics,
        )
        assert eventful["resilience"] == block
        obs.validate_record(eventful)
        report = obs.render_report(eventful)
        assert "resilience" in report and "retries" in report
        assert "pool_start_s" in report and "1.235" in report

    def test_store_block_derives_from_counters(self):
        metrics = {
            "counters": {
                "store.hits": 7,
                "store.memory_hits": 4,
                "store.writes": 3,
                "store.bytes_written": 4096,
            }
        }
        block = obs.store_block(metrics)
        assert block["hits"] == 7
        assert block["memory_hits"] == 4
        assert block["writes"] == 3
        assert block["bytes_written"] == 4096
        assert block["evictions"] == 0  # absent counters read as zero
        record = self._record()  # default metrics carry no store counters
        assert set(record["store"]) == set(block)
        assert not any(record["store"].values())
        eventful = obs.make_record(
            command="transient",
            target="unit-test",
            wall_s=1.0,
            metrics=metrics,
        )
        assert eventful["store"] == block
        obs.validate_record(eventful)
        report = obs.render_report(eventful)
        assert "store" in report and "memory_hits" in report

    def test_compare_and_renderings(self, tmp_path):
        fast = self._record()
        slow = self._record(wall_s=2.5)
        slow["metrics"]["counters"]["model.solves"] = 3
        diff = obs.compare(fast, slow)
        assert diff["wall_delta_s"] == pytest.approx(1.25)
        assert diff["counters"]["model.solves"]["delta"] == 2
        # File sources resolve to their last record.
        path = tmp_path / "runs.jsonl"
        obs.append_record(str(path), fast)
        obs.append_record(str(path), slow)
        assert obs.compare(fast, str(path)) == diff
        assert "model.solves" in obs.render_report(slow)
        assert "wall" in obs.render_compare(diff)


class TestDisabledOverhead:
    def test_null_span_path_is_negligible_next_to_a_solve(self):
        """100k disabled span sites cost <2% of one default-preset solve.

        A real solve passes a handful of span sites, so comparing 100k null
        spans against one solve bounds the true disabled overhead several
        orders of magnitude below the 2% budget without a flaky A/B timing.
        """
        from repro.core.model import GprsMarkovModel
        from repro.core.parameters import GprsModelParameters
        from repro.traffic.presets import TRAFFIC_MODEL_3

        params = GprsModelParameters.from_traffic_model(TRAFFIC_MODEL_3, 0.5)
        start = time.perf_counter()
        GprsMarkovModel(params).measures()
        solve_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(100_000):
            with obs.current_tracer().span("hot.path"):
                pass
        null_seconds = time.perf_counter() - start
        assert null_seconds < 0.02 * solve_seconds
