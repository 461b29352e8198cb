"""Public-API tests of the extension subpackages (radio, adaptive, validation).

Mirrors ``test_public_api.py`` for the subsystems added on top of the paper's
core reproduction: every name advertised in ``__all__`` must be importable and
the central objects must be constructible with documented defaults.
"""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.radio",
        "repro.adaptive",
        "repro.validation",
        "repro.network",
        "repro.transient",
        "repro.traffic.statistics",
        "repro.queueing.guard_channel",
        "repro.queueing.priority",
        "repro.experiments.sensitivity",
        "repro.experiments.extensions",
    ],
)
def test_every_advertised_name_is_importable(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__") and module.__all__, module_name
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} is advertised but missing"


def test_top_level_markov_exports_include_the_extensions():
    import repro.markov as markov

    for name in ("MarkovModulatedPoissonProcess", "InterruptedPoissonProcess",
                 "aggregate_identical_ipps", "transient_distribution", "uniformize"):
        assert name in markov.__all__
        assert hasattr(markov, name)


def test_top_level_queueing_exports_include_the_extensions():
    import repro.queueing as queueing

    for name in ("GuardChannelSystem", "PreemptivePrioritySharing"):
        assert name in queueing.__all__
        assert hasattr(queueing, name)


def test_radio_package_round_trip():
    """The documented one-liner: C/I -> BLER -> ARQ goodput -> model parameters."""
    from repro import GprsModelParameters
    from repro.radio import block_error_rate, effective_service_rate

    bler = block_error_rate("CS-2", ci_db=9.0)
    assert 0.0 < bler < 1.0
    params = GprsModelParameters(total_call_arrival_rate=0.1, block_error_rate=bler)
    assert params.pdch_service_rate == pytest.approx(
        effective_service_rate("CS-2", bler), rel=1e-9
    )


def test_adaptive_package_round_trip():
    from repro.adaptive import (
        AdaptiveAllocationController,
        LoadSupervisor,
        StaticAllocationPolicy,
    )

    controller = AdaptiveAllocationController(
        LoadSupervisor(window_s=60.0, minimum_samples=1),
        StaticAllocationPolicy(2),
        initial_reserved=1,
        decision_interval_s=10.0,
    )
    decision = controller.on_call_arrival(1.0)
    assert decision is not None and decision.reserved_pdch == 2


def test_validation_package_round_trip():
    from repro.validation import compare_series, is_monotone

    curve = compare_series("m", [0.1, 0.2], [1.0, 2.0], [1.1, 2.1], [0.2, 0.2])
    assert curve.coverage == 1.0
    assert is_monotone([1.0, 2.0, 3.0])
