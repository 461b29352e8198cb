"""Tests of the network layer's runtime integration: registry, cache, sweeps."""

from __future__ import annotations

import json

import pytest

from repro.experiments.scale import ExperimentScale
from repro.network import hexagonal_cluster, ring
from repro.network.sweep import network_sweep_payloads, run_network_sweep
from repro.runtime import (
    ResultCache,
    ScenarioSpec,
    list_scenarios,
    result_key,
    run_sweep,
    scenario,
)
from repro.runtime.spec import parameters_to_dict


NETWORK_SCENARIOS = ("homogeneous-7", "hotspot-cluster", "heterogeneous-radio", "ring-16")


class TestRegistry:
    def test_network_scenarios_are_registered(self):
        for name in NETWORK_SCENARIOS:
            spec = scenario(name)
            assert spec.network is not None
            assert "network" in spec.tags

    def test_kind_filter_partitions_the_registry(self):
        network = list_scenarios(kind="network")
        cell = list_scenarios(kind="cell")
        transient = list_scenarios(kind="transient")
        assert {spec.name for spec in network} == set(NETWORK_SCENARIOS)
        assert all(spec.network is None for spec in cell + transient)
        assert len(network) + len(cell) + len(transient) == len(list_scenarios())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            list_scenarios(kind="bogus")

    def test_network_specs_round_trip_through_dicts(self):
        for name in NETWORK_SCENARIOS:
            spec = scenario(name)
            rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert rebuilt == spec

    def test_network_field_requires_a_topology(self):
        with pytest.raises(ValueError, match="CellTopology"):
            ScenarioSpec(name="x", description="y", network={"not": "a topology"})


class TestCacheKeys:
    def test_network_points_never_collide_with_single_cell_points(self):
        spec = scenario("homogeneous-7")
        params = parameters_to_dict(spec.parameters(ExperimentScale.smoke()))
        single = result_key(params, solver="auto", solver_tol=1e-9)
        network = result_key(
            params,
            solver="auto",
            solver_tol=1e-9,
            kind="network",
            network=spec.network.to_dict(),
        )
        assert single != network

    def test_topology_digest_separates_networks(self):
        spec = scenario("homogeneous-7")
        params = parameters_to_dict(spec.parameters(ExperimentScale.smoke()))
        keys = {
            result_key(
                params,
                solver="auto",
                solver_tol=1e-9,
                kind="network",
                network=topology.to_dict(),
            )
            for topology in (
                hexagonal_cluster(7),
                ring(7),
                hexagonal_cluster(7, overrides={0: {"reserved_pdch": 3}}),
            )
        }
        assert len(keys) == 3


def _smoke_spec(name: str = "homogeneous-7") -> ScenarioSpec:
    """A registered network scenario shrunk to a 3-cell smoke topology."""
    return scenario(name).replace(network=hexagonal_cluster(3))


class TestNetworkSweep:
    def test_payloads_cover_every_rate_in_order(self):
        scale = ExperimentScale.smoke()
        spec = _smoke_spec()
        payloads = network_sweep_payloads(spec, scale)
        assert len(payloads) == len(scale.arrival_rates)
        for (payload, from_cache), rate in zip(payloads, scale.arrival_rates):
            assert not from_cache
            assert len(payload["cells"]) == 3
            assert payload["aggregates"]["total_call_arrival_rate"] == pytest.approx(rate)

    def test_single_cell_spec_rejected(self):
        with pytest.raises(ValueError, match="no network topology"):
            network_sweep_payloads(scenario("figure12"), ExperimentScale.smoke())

    def test_warm_continuation_skips_cold_solves_after_the_first_point(self):
        # Structured solver forced: the counters only count solves whose
        # solver consumed the seed, and 'auto' picks direct at smoke scale.
        spec = _smoke_spec().replace(solver="structured")
        payloads = network_sweep_payloads(spec, ExperimentScale.smoke())
        first, later = payloads[0][0], payloads[1][0]
        assert first["cold_solves"] == 3
        assert later["cold_solves"] == 0

    def test_cold_sweep_matches_warm_within_solver_tolerance(self):
        scale = ExperimentScale.smoke()
        spec = _smoke_spec()
        warm = network_sweep_payloads(spec, scale, warm=True)
        cold = network_sweep_payloads(spec, scale, warm=False)
        for (warm_payload, _), (cold_payload, _) in zip(warm, cold):
            for key, value in cold_payload["aggregates"].items():
                assert warm_payload["aggregates"][key] == pytest.approx(
                    value, abs=1e-8
                )

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        scale = ExperimentScale.smoke()
        spec = _smoke_spec()
        first = network_sweep_payloads(spec, scale, cache=cache)
        assert all(not hit for _, hit in first)
        second = network_sweep_payloads(spec, scale, cache=cache)
        assert all(hit for _, hit in second)
        assert [payload for payload, _ in second] == [payload for payload, _ in first]

    def test_run_network_sweep_result_shape(self, tmp_path):
        result = run_network_sweep(
            scenario("hotspot-cluster"),
            ExperimentScale.smoke(),
            cache=ResultCache(tmp_path),
        )
        assert result.cache_misses == len(result.points)
        assert len(result.series("voice_blocking_probability")) == len(result.points)
        point = result.points[0]
        assert len(point.cell_series("voice_blocking_probability")) == 7
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["scenario"]["name"] == "hotspot-cluster"


class TestRunSweepDispatch:
    def test_run_sweep_serves_network_aggregates(self, tmp_path):
        cache = ResultCache(tmp_path)
        scale = ExperimentScale.smoke()
        spec = _smoke_spec()
        result = run_sweep(spec, scale, cache=cache)
        assert len(result.points) == len(scale.arrival_rates)
        assert "voice_blocking_probability" in result.points[0].values
        rerun = run_sweep(spec, scale, cache=cache)
        assert rerun.cache_hits == len(rerun.points)
        assert [point.values for point in rerun.points] == [
            point.values for point in result.points
        ]

    def test_explicit_chunk_size_rejected_for_network_scenarios(self):
        with pytest.raises(ValueError, match="single-cell"):
            run_sweep(_smoke_spec(), ExperimentScale.smoke(), cache=None, chunk_size=4)

    def test_network_and_single_cell_sweeps_share_no_cache_entries(self, tmp_path):
        """Same effective base parameters, disjoint key spaces."""
        cache = ResultCache(tmp_path)
        scale = ExperimentScale.smoke()
        run_sweep(_smoke_spec(), scale, cache=cache)
        entries_after_network = len(cache)
        single = scenario("figure12").replace(
            gprs_fraction=scenario("homogeneous-7").gprs_fraction,
            reserved_pdch=scenario("homogeneous-7").reserved_pdch,
        )
        result = run_sweep(single, scale, cache=cache)
        assert result.cache_hits == 0
        assert len(cache) == entries_after_network + len(result.points)
