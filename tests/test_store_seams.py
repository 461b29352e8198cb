"""Warm-across-process behaviour of the artifact-store seams.

Each seam (propagator replay checkpoints, generator templates, warm-seed
stacks) is exercised the way a second *process* would see it: fresh
in-memory caches, a shared on-disk store.  The acceptance-level CLI tests
at the bottom really do cross a process boundary (``python -m repro``
subprocesses sharing one ``--store-dir``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import GprsMarkovModel
from repro.core.parameters import GprsModelParameters
from repro.core.template import GeneratorTemplate
from repro.experiments.scale import ExperimentScale
from repro.obs.metrics import current_registry
from repro.runtime import run_sweep, scenario
from repro.store import ArtifactStore, store_context
from repro.traffic.presets import TRAFFIC_MODEL_3
from repro.transient import PropagatorCache, TransientModel
from repro.transient.propagator import ENTRY_OVERHEAD_BYTES


def _params(rate: float = 0.4) -> GprsModelParameters:
    return GprsModelParameters.from_traffic_model(
        TRAFFIC_MODEL_3, rate, buffer_size=6, max_gprs_sessions=3
    )


def _transient_spec():
    spec = scenario("diurnal-24h")
    return spec.parameters(ExperimentScale.smoke()).with_arrival_rate(0.3), spec.transient


class TestPropagatorSeam:
    def test_fresh_cache_replays_from_store_bitwise(self, tmp_path):
        """Second 'process': new PropagatorCache, same store, zero matvecs."""
        store = ArtifactStore(tmp_path)
        params, profile = _transient_spec()
        with store_context(store):
            cold = TransientModel(
                profile, params, propagator_cache=PropagatorCache()
            ).solve()
            warm = TransientModel(
                profile, params, propagator_cache=PropagatorCache()
            ).solve()
        assert cold.propagator_hits == 0
        assert warm.matvecs == 0
        assert warm.propagator_hits == profile.schedule.number_of_segments
        assert all(trace.replayed for trace in warm.segments)
        for metric in cold.points[0].values:
            assert warm.series(metric) == cold.series(metric)
        assert np.array_equal(warm.final_distribution, cold.final_distribution)
        assert store.stats.writes > 0 and store.stats.hits > 0

    def test_store_hits_are_counted_separately(self, tmp_path):
        store = ArtifactStore(tmp_path)
        params, profile = _transient_spec()
        registry = current_registry()
        with store_context(store):
            TransientModel(profile, params, propagator_cache=PropagatorCache()).solve()
            baseline = registry.snapshot()
            cache = PropagatorCache()
            TransientModel(profile, params, propagator_cache=cache).solve()
        delta = registry.delta_since(baseline)["counters"]
        assert cache.store_hits == profile.schedule.number_of_segments
        assert delta["cache.propagator.store_hits"] == cache.store_hits
        assert delta.get("transient.matvecs", 0) == 0

    def test_no_store_means_cold_as_before(self):
        params, profile = _transient_spec()
        with store_context(None):
            first = TransientModel(
                profile, params, propagator_cache=PropagatorCache()
            ).solve()
            second = TransientModel(
                profile, params, propagator_cache=PropagatorCache()
            ).solve()
        assert first.propagator_hits == 0
        assert second.propagator_hits == 0
        assert second.matvecs > 0

    def test_aliased_checkpoints_survive_the_store(self, tmp_path):
        """Repeated identical segments share checkpoint arrays; the store
        round-trip must preserve the replay bytes exactly even so."""
        store = ArtifactStore(tmp_path)
        params, profile = _transient_spec()
        with store_context(store):
            cold = TransientModel(
                profile, params, propagator_cache=PropagatorCache()
            ).solve()
            warm = TransientModel(
                profile, params, propagator_cache=PropagatorCache()
            ).solve()
        for cold_trace, warm_trace in zip(cold.segments, warm.segments):
            assert warm_trace.stationary_from_s == cold_trace.stationary_from_s
            assert warm_trace.stationarity_residual == cold_trace.stationarity_residual


class TestTemplateSeam:
    def test_fresh_process_builds_zero_templates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        params = _params()
        registry = current_registry()
        with store_context(store):
            cold = GeneratorTemplate.build(params)
            baseline = registry.snapshot()
            warm = GeneratorTemplate.build(params)
        delta = registry.delta_since(baseline)["counters"]
        assert delta.get("template.builds", 0) == 0
        assert delta["template.store_hits"] == 1
        rates = {
            "gsm_handover_arrival_rate": 0.1,
            "gprs_handover_arrival_rate": 0.02,
        }
        matrix_cold = cold.generator(params, **rates).toarray()
        matrix_warm = warm.generator(params, **rates).toarray()
        assert np.array_equal(matrix_cold, matrix_warm)

    def test_solutions_through_store_templates_are_bitwise(self, tmp_path):
        store = ArtifactStore(tmp_path)
        params = _params()
        with store_context(store):
            cold = GprsMarkovModel(params).solve()
        with store_context(store):
            warm = GprsMarkovModel(params).solve()
        with store_context(None):
            plain = GprsMarkovModel(params).solve()
        assert np.array_equal(
            warm.steady_state.distribution, cold.steady_state.distribution
        )
        assert np.array_equal(
            warm.steady_state.distribution, plain.steady_state.distribution
        )
        assert warm.measures.as_dict() == plain.measures.as_dict()


class TestWarmSeedSeam:
    def test_seeding_is_opt_in_and_tolerance_level(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = scenario("figure12")
        scale = ExperimentScale.smoke()
        registry = current_registry()
        with store_context(store):
            cold = run_sweep(spec, scale, cache=None)  # persists the seed stack
            baseline = registry.snapshot()
            default = run_sweep(spec, scale, cache=None)  # seeding OFF by default
            unseeded_delta = registry.delta_since(baseline)["counters"]
            baseline = registry.snapshot()
            seeded = run_sweep(spec, scale, cache=None, seed_from_store=True)
            seeded_delta = registry.delta_since(baseline)["counters"]
        assert unseeded_delta.get("executor.store_seeded", 0) == 0
        assert seeded_delta.get("executor.store_seeded", 0) >= 1
        for cold_point, default_point, seeded_point in zip(
            cold.points, default.points, seeded.points
        ):
            for name, value in cold_point.values.items():
                assert default_point.values[name] == value  # default stays bitwise
                assert seeded_point.values[name] == pytest.approx(
                    value, rel=1e-6, abs=1e-9
                )


def _cli(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env.pop("REPRO_STORE_DIR", None)
    env.pop("REPRO_FAULTS", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=600,
    )


class TestCrossProcessAcceptance:
    """The ISSUE's acceptance bar: a *second process* sharing the store
    re-solves with zero propagator matvecs / zero cold template builds and
    byte-identical canonical output."""

    def test_transient_second_process_is_warm_and_bitwise(self, tmp_path):
        store_dir = tmp_path / "store"
        args = (
            "transient", "diurnal-24h", "--preset", "smoke", "--no-cache",
            "--store-dir", str(store_dir), "--canonical",
        )
        first = _cli(tmp_path, *args, "--ledger", str(tmp_path / "first.jsonl"))
        assert first.returncode == 0, first.stderr
        second = _cli(tmp_path, *args, "--ledger", str(tmp_path / "second.jsonl"))
        assert second.returncode == 0, second.stderr
        assert second.stdout == first.stdout  # byte-identical canonical JSON

        first_rec = json.loads((tmp_path / "first.jsonl").read_text().splitlines()[-1])
        second_rec = json.loads((tmp_path / "second.jsonl").read_text().splitlines()[-1])
        assert first_rec["metrics"]["counters"].get("transient.matvecs", 0) > 0
        assert second_rec["metrics"]["counters"].get("transient.matvecs", 0) == 0
        assert second_rec["store"]["hits"] > 0
        assert first_rec["store"]["writes"] > 0

    def test_network_second_process_builds_no_templates(self, tmp_path):
        store_dir = tmp_path / "store"
        args = (
            "network", "homogeneous-7", "--preset", "smoke", "--no-cache",
            "--store-dir", str(store_dir), "--canonical",
        )
        first = _cli(tmp_path, *args, "--ledger", str(tmp_path / "first.jsonl"))
        assert first.returncode == 0, first.stderr
        second = _cli(tmp_path, *args, "--ledger", str(tmp_path / "second.jsonl"))
        assert second.returncode == 0, second.stderr
        assert second.stdout == first.stdout

        first_rec = json.loads((tmp_path / "first.jsonl").read_text().splitlines()[-1])
        second_rec = json.loads((tmp_path / "second.jsonl").read_text().splitlines()[-1])
        assert first_rec["metrics"]["counters"].get("template.builds", 0) > 0
        assert second_rec["metrics"]["counters"].get("template.builds", 0) == 0
        assert (
            second_rec["metrics"]["counters"].get("template.store_hits", 0) > 0
        )

    def test_no_store_runs_match_store_runs_canonically(self, tmp_path):
        warm = _cli(
            tmp_path,
            "transient", "diurnal-24h", "--preset", "smoke", "--no-cache",
            "--store-dir", str(tmp_path / "store"), "--canonical",
        )
        assert warm.returncode == 0, warm.stderr
        cold = _cli(
            tmp_path,
            "transient", "diurnal-24h", "--preset", "smoke", "--no-cache",
            "--no-store", "--canonical",
        )
        assert cold.returncode == 0, cold.stderr
        assert warm.stdout == cold.stdout
