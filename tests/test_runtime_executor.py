"""Tests of the sweep executor: ordering, options plumbing, result objects."""

from __future__ import annotations

import json

import pytest

from repro.core.measures import GprsPerformanceMeasures
from repro.experiments.scale import ExperimentScale
from repro.experiments.sweep import sweep_arrival_rates
from repro.runtime import (
    ResultCache,
    current_options,
    execution_options,
    run_sweep,
    scenario,
)

SMOKE = ExperimentScale.smoke()


class TestOrdering:
    def test_points_come_back_in_sweep_order(self):
        spec = scenario("figure12").replace(arrival_rates=(0.9, 0.1, 0.5))
        result = run_sweep(spec, SMOKE, jobs=3, cache=None)
        assert result.arrival_rates == (0.9, 0.1, 0.5)
        assert tuple(point.index for point in result.points) == (0, 1, 2)

    def test_partial_cache_preserves_order(self, tmp_path):
        """A half-warm cache must not reorder hits before misses."""
        cache = ResultCache(tmp_path)
        warm = scenario("figure12").replace(arrival_rates=(0.5,))
        run_sweep(warm, SMOKE, cache=cache)
        mixed = scenario("figure12").replace(arrival_rates=(0.2, 0.5, 0.8))
        result = run_sweep(mixed, SMOKE, jobs=2, cache=cache)
        assert result.arrival_rates == (0.2, 0.5, 0.8)
        assert [point.from_cache for point in result.points] == [False, True, False]
        assert result.cache_hits == 1 and result.cache_misses == 2


class TestResultObjects:
    def test_series_and_measures(self):
        result = run_sweep(scenario("figure15"), SMOKE, cache=None)
        series = result.series("average_gprs_sessions")
        assert len(series) == len(SMOKE.arrival_rates)
        measures = result.measures()
        assert all(isinstance(m, GprsPerformanceMeasures) for m in measures)
        assert measures[0].average_gprs_sessions == series[0]

    def test_as_dict_is_json_serialisable_and_self_describing(self):
        result = run_sweep(scenario("figure5"), SMOKE, cache=None)
        data = json.loads(json.dumps(result.as_dict()))
        assert data["scenario"]["name"] == "figure5"
        assert len(data["points"]) == len(SMOKE.arrival_rates)
        assert data["cache"] == {"hits": 0, "misses": len(SMOKE.arrival_rates)}
        # The record must say which scale produced it, not just which scenario.
        from repro.experiments.scale import ExperimentScale

        assert ExperimentScale.from_dict(data["scale"]) == SMOKE

    def test_point_seeds_recorded(self):
        result = run_sweep(scenario("figure5"), SMOKE, cache=None)
        spec = result.spec
        assert [point.seed for point in result.points] == [
            spec.point_seed(i) for i in range(len(result.points))
        ]


class TestAmbientOptions:
    def test_default_options_are_serial_and_uncached(self):
        options = current_options()
        assert options.jobs == 1 and options.cache is None

    def test_execution_options_scope(self, tmp_path):
        cache = ResultCache(tmp_path)
        with execution_options(jobs=2, cache=cache):
            inner = current_options()
            assert inner.jobs == 2 and inner.cache is cache
        after = current_options()
        assert after.jobs == 1 and after.cache is None

    def test_sweep_arrival_rates_uses_ambient_cache(self, tmp_path):
        params = scenario("figure12").parameters(SMOKE)
        cache = ResultCache(tmp_path)
        with execution_options(cache=cache):
            first = sweep_arrival_rates(params, (0.3, 0.6))
            second = sweep_arrival_rates(params, (0.3, 0.6))
        assert cache.stats.writes == 2
        assert cache.stats.hits == 2
        assert first.measures == second.measures

    def test_explicit_arguments_override_ambient(self, tmp_path):
        params = scenario("figure12").parameters(SMOKE)
        ambient = ResultCache(tmp_path / "ambient")
        explicit = ResultCache(tmp_path / "explicit")
        with execution_options(cache=ambient):
            sweep_arrival_rates(params, (0.4,), cache=explicit)
        assert ambient.stats.writes == 0
        assert explicit.stats.writes == 1

    def test_cache_none_forces_uncached_sweep(self, tmp_path):
        """``cache=None`` must opt out of the ambient cache, not inherit it."""
        params = scenario("figure12").parameters(SMOKE)
        ambient = ResultCache(tmp_path)
        with execution_options(cache=ambient):
            sweep_arrival_rates(params, (0.4,), cache=None)
        assert ambient.stats.writes == 0
        assert ambient.stats.hits == 0

    def test_cached_sweep_matches_plain_sweep(self, tmp_path):
        params = scenario("figure12").parameters(SMOKE)
        plain = sweep_arrival_rates(params, (0.3, 0.6))
        cached = sweep_arrival_rates(
            params, (0.3, 0.6), jobs=2, cache=ResultCache(tmp_path)
        )
        assert plain.measures == cached.measures
        assert plain.arrival_rates == cached.arrival_rates


class TestRunSweepValidation:
    def test_jobs_below_one_degrades_to_serial(self):
        spec = scenario("figure5").replace(arrival_rates=(0.3,))
        result = run_sweep(spec, SMOKE, jobs=0, cache=None)
        assert len(result.points) == 1

    def test_unknown_metric_raises_at_access_time(self):
        result = run_sweep(
            scenario("figure5").replace(arrival_rates=(0.3,)), SMOKE, cache=None
        )
        with pytest.raises(KeyError):
            result.series("not_a_metric")
