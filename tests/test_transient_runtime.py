"""Tests of the transient layer's runtime integration: registry, cache, sweeps."""

from __future__ import annotations

import json

import pytest

from repro.experiments.scale import ExperimentScale
from repro.network import hexagonal_cluster
from repro.runtime import (
    ResultCache,
    ScenarioSpec,
    list_scenarios,
    result_key,
    run_sweep,
    scenario,
)
from repro.runtime.spec import parameters_to_dict
from repro.transient import default_propagator_cache, flash_crowd
from repro.transient.sweep import run_transient_sweep, transient_sweep_payloads


TRANSIENT_SCENARIOS = ("busy-hour-ramp", "flash-crowd", "outage-recovery", "diurnal-24h")


class TestRegistry:
    def test_transient_scenarios_are_registered(self):
        for name in TRANSIENT_SCENARIOS:
            spec = scenario(name)
            assert spec.transient is not None
            assert "transient" in spec.tags

    def test_kind_filter_partitions_the_registry(self):
        transient = list_scenarios(kind="transient")
        network = list_scenarios(kind="network")
        cell = list_scenarios(kind="cell")
        assert {spec.name for spec in transient} == set(TRANSIENT_SCENARIOS)
        assert all(spec.transient is None for spec in cell + network)
        assert len(transient) + len(network) + len(cell) == len(list_scenarios())

    def test_transient_specs_round_trip_through_dicts(self):
        for name in TRANSIENT_SCENARIOS:
            spec = scenario(name)
            rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert rebuilt == spec

    def test_transient_field_requires_a_profile(self):
        with pytest.raises(ValueError, match="WorkloadProfile"):
            ScenarioSpec(name="x", description="y", transient={"not": "a profile"})

    def test_transient_and_network_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="cannot be both"):
            ScenarioSpec(
                name="x",
                description="y",
                network=hexagonal_cluster(3),
                transient=flash_crowd(),
            )


class TestCacheKeys:
    def test_transient_points_never_collide_with_other_kinds(self):
        spec = scenario("flash-crowd")
        params = parameters_to_dict(spec.parameters(ExperimentScale.smoke()))
        single = result_key(params, solver="auto", solver_tol=1e-9)
        network = result_key(
            params,
            solver="auto",
            solver_tol=1e-9,
            kind="network",
            network=hexagonal_cluster(7).to_dict(),
        )
        transient = result_key(
            params,
            solver="auto",
            solver_tol=1e-9,
            kind="transient",
            transient=spec.transient.to_dict(),
        )
        assert len({single, network, transient}) == 3

    def test_profile_rendering_separates_workloads(self):
        params = parameters_to_dict(
            scenario("flash-crowd").parameters(ExperimentScale.smoke())
        )
        keys = {
            result_key(
                params,
                solver="auto",
                solver_tol=1e-9,
                kind="transient",
                transient=profile.to_dict(),
            )
            for profile in (
                flash_crowd(),
                flash_crowd(spike_multiplier=2.0),
                flash_crowd(samples=10),
            )
        }
        assert len(keys) == 3


def _fast_spec() -> ScenarioSpec:
    """The registered flash-crowd scenario shrunk to a seconds-long schedule."""
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


class TestTransientSweep:
    def test_payloads_cover_every_rate_in_order(self):
        scale = ExperimentScale.smoke()
        spec = _fast_spec()
        payloads = transient_sweep_payloads(spec, scale)
        assert len(payloads) == len(spec.arrival_rates)
        for (payload, from_cache), rate in zip(payloads, spec.arrival_rates):
            assert not from_cache
            assert payload["base_arrival_rate"] == pytest.approx(rate)
            assert len(payload["points"]) == 5

    def test_stationary_spec_rejected(self):
        with pytest.raises(ValueError, match="no transient workload"):
            transient_sweep_payloads(scenario("figure12"), ExperimentScale.smoke())

    def test_parallel_trajectories_match_serial_bitwise(self):
        scale = ExperimentScale.smoke()
        spec = _fast_spec()
        # Earlier tests warm the process-wide propagator cache with this
        # very spec.  Pool workers always start cold (they no longer fork
        # from the warm parent), while trajectories the pool's start rule
        # keeps in-process see the parent's cache, so replay provenance
        # would differ; level the field so both sides compute cold.
        default_propagator_cache().clear()
        serial = transient_sweep_payloads(spec, scale, jobs=1)
        default_propagator_cache().clear()
        parallel = transient_sweep_payloads(spec, scale, jobs=2)
        assert serial == parallel

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        scale = ExperimentScale.smoke()
        spec = _fast_spec()
        first = transient_sweep_payloads(spec, scale, cache=cache)
        assert all(not hit for _, hit in first)
        second = transient_sweep_payloads(spec, scale, cache=cache)
        assert all(hit for _, hit in second)
        assert [payload for payload, _ in second] == [payload for payload, _ in first]

    def test_run_transient_sweep_result_shape(self, tmp_path):
        result = run_transient_sweep(
            _fast_spec(), ExperimentScale.smoke(), cache=ResultCache(tmp_path)
        )
        assert result.cache_misses == len(result.points)
        assert len(result.series("packet_loss_probability")) == len(result.points)
        point = result.points[0]
        assert len(point.trajectory("packet_loss_probability")) == len(point.times)
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["scenario"]["name"] == "flash-crowd"

    def test_rates_override_restricts_the_axis(self):
        result = run_transient_sweep(
            _fast_spec(), ExperimentScale.smoke(), cache=None, rates=(0.4,)
        )
        assert result.arrival_rates == (0.4,)


class TestRunSweepDispatch:
    def test_run_sweep_serves_time_averages(self, tmp_path):
        cache = ResultCache(tmp_path)
        scale = ExperimentScale.smoke()
        spec = _fast_spec()
        result = run_sweep(spec, scale, cache=cache)
        assert len(result.points) == len(spec.arrival_rates)
        assert "packet_loss_probability" in result.points[0].values
        rerun = run_sweep(spec, scale, cache=cache)
        assert rerun.cache_hits == len(rerun.points)
        assert [point.values for point in rerun.points] == [
            point.values for point in result.points
        ]

    def test_run_sweep_values_are_the_time_averages(self):
        scale = ExperimentScale.smoke()
        spec = _fast_spec().replace(arrival_rates=(0.4,))
        swept = run_sweep(spec, scale, cache=None)
        payloads = transient_sweep_payloads(spec, scale)
        assert swept.points[0].values == payloads[0][0]["time_averages"]

    def test_explicit_chunk_size_rejected_for_transient_scenarios(self):
        with pytest.raises(ValueError, match="single-cell"):
            run_sweep(_fast_spec(), ExperimentScale.smoke(), cache=None, chunk_size=4)

    def test_transient_and_single_cell_sweeps_share_no_cache_entries(self, tmp_path):
        """Same effective base parameters, disjoint key spaces."""
        cache = ResultCache(tmp_path)
        scale = ExperimentScale.smoke()
        spec = _fast_spec()
        run_sweep(spec, scale, cache=cache)
        entries_after_transient = len(cache)
        single = spec.replace(transient=None)
        result = run_sweep(single, scale, cache=cache)
        assert result.cache_hits == 0
        assert len(cache) == entries_after_transient + len(result.points)
