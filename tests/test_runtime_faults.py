"""Tests of the deterministic fault-injection plan and spec grammar."""

from __future__ import annotations

import pytest

import repro.runtime.faults as faults
from repro.runtime.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    WorkerKilled,
    current_fault_plan,
    inject_faults,
    parse_fault_spec,
    run_with_faults,
)


class TestSpecGrammar:
    def test_single_rule(self):
        rules = parse_fault_spec("chunk@1=kill")
        assert rules == (FaultRule(site="chunk", index=1, action="kill"),)

    def test_full_grammar(self):
        rules = parse_fault_spec("cell@2=timeout:5*3")
        assert rules == (
            FaultRule(site="cell", index=2, action="timeout", arg=5.0, times=3),
        )

    def test_comma_separated_list_and_whitespace(self):
        rules = parse_fault_spec(" chunk@0=raise , cache@1=corrupt ,")
        assert [rule.site for rule in rules] == ["chunk", "cache"]
        assert [rule.action for rule in rules] == ["raise", "corrupt"]

    @pytest.mark.parametrize(
        "spec",
        [
            "disk@0=raise",       # unknown site
            "chunk@0=explode",    # unknown action
            "chunk@x=raise",      # non-integer index
            "chunk@0=raise*many", # non-integer times
            "chunk@0=timeout:soon",  # non-numeric arg
        ],
    )
    def test_invalid_specs_raise_value_error(self, spec):
        with pytest.raises(ValueError, match="invalid fault rule"):
            parse_fault_spec(spec)


class TestPlanResolution:
    def test_actions_fire_only_at_their_site_and_index(self):
        plan = FaultPlan.parse("chunk@1=raise")
        assert plan.actions_for("chunk", 1, 0) == (("raise", None),)
        assert plan.actions_for("chunk", 0, 0) == ()
        assert plan.actions_for("cell", 1, 0) == ()

    def test_times_budget_lets_a_retry_escape(self):
        plan = FaultPlan.parse("trajectory@0=raise*2")
        assert plan.actions_for("trajectory", 0, 0) != ()
        assert plan.actions_for("trajectory", 0, 1) != ()
        assert plan.actions_for("trajectory", 0, 2) == ()  # attempt 3 runs clean

    def test_corrupt_rules_never_reach_task_sites(self):
        plan = FaultPlan.parse("cache@0=corrupt")
        assert plan.actions_for("cache", 0, 0) == ()

    def test_take_cache_corruption_consumes_put_ordinals(self):
        plan = FaultPlan.parse("cache@1=corrupt")
        assert plan.take_cache_corruption() is False  # put 0
        assert plan.take_cache_corruption() is True   # put 1
        assert plan.take_cache_corruption() is False  # put 2

    def test_cache_ordinals_are_shared_by_both_codecs(self, tmp_path):
        """``cache@N`` counts puts to the content store across both codecs:
        after one artifact put, ``cache@1`` corrupts the next result put."""
        import numpy as np

        from repro.runtime.cache import ResultCache
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        cache = ResultCache(tmp_path / "cache")
        with inject_faults("cache@1=corrupt"):
            store.put("a" * 64, {"x": np.arange(4.0)})  # put 0
            cache.put("b" * 64, {"value": 1.0})  # put 1
        store.clear_memory()
        assert store.get("a" * 64) is not None
        assert store.stats.corrupt == 0
        assert cache.get("b" * 64) is None
        assert cache.stats.corrupt == 1
        assert cache.path_for("b" * 64).with_name(f"{'b' * 64}.corrupt").exists()


class TestActivation:
    def test_no_plan_by_default(self):
        assert current_fault_plan() is None

    def test_inject_faults_scopes_a_plan(self):
        with inject_faults("chunk@0=raise") as plan:
            assert current_fault_plan() is plan
        assert current_fault_plan() is None

    def test_env_fallback_parsed_lazily(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "cell@3=kill")
        monkeypatch.setattr(faults, "_ENV_PLAN", None)
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        plan = current_fault_plan()
        assert plan is not None
        assert plan.rules[0] == FaultRule(site="cell", index=3, action="kill")
        # Parsed at most once: the same object is served again.
        assert current_fault_plan() is plan

    def test_contextvar_wins_over_env(self, monkeypatch):
        monkeypatch.setattr(
            faults, "_ENV_PLAN", FaultPlan.parse("chunk@9=raise")
        )
        monkeypatch.setattr(faults, "_ENV_CHECKED", True)
        with inject_faults("cell@0=raise") as scoped:
            assert current_fault_plan() is scoped


class TestRunWithFaults:
    def test_raise_action(self):
        with pytest.raises(InjectedFault):
            run_with_faults((("raise", None),), lambda job: job, 1, False)

    def test_kill_action_serial_stand_in(self):
        """In-process 'kill' raises WorkerKilled instead of real SIGKILL."""
        with pytest.raises(WorkerKilled):
            run_with_faults((("kill", None),), lambda job: job, 1, False)

    def test_timeout_action_sleeps_then_continues(self, monkeypatch):
        naps = []
        monkeypatch.setattr(faults.time, "sleep", naps.append)
        outcome = run_with_faults(
            (("timeout", 0.25),), lambda job: job * 2, 21, False
        )
        assert outcome == 42  # the worker still ran after the sleep
        assert naps == [0.25]

    def test_no_actions_is_a_plain_call(self):
        assert run_with_faults((), lambda job: job + 1, 1, True) == 2
