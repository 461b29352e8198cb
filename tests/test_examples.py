"""Smoke tests that the example scripts run end to end.

The examples are part of the public deliverable, so they must keep working.
They are executed in-process (importing their ``main`` via runpy would re-run
argument parsing; instead the scripts are executed with a patched ``sys.argv``
through ``runpy.run_path``) with small arguments where they accept any.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, script: str, argv: list[str] | None = None) -> str:
    monkeypatch.setattr(sys, "argv", [script] + (argv or []))
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    return capsys.readouterr().out


def test_examples_directory_contains_required_scripts():
    names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert "quickstart.py" in names
    assert len(names) >= 3


def test_quickstart_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "quickstart.py", ["0.3"])
    assert "carried data traffic" in output
    assert "packet loss probability" in output
    assert "state space" in output


@pytest.mark.slow
def test_pdch_dimensioning_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "pdch_dimensioning.py")
    assert "QoS profile" in output
    assert "GPRS users" in output


def test_tcp_threshold_calibration_example_exists():
    # The calibration example runs a multi-minute simulation sweep; only check
    # that it imports cleanly (compilation catches API drift).
    source = (EXAMPLES_DIR / "tcp_threshold_calibration.py").read_text()
    compile(source, "tcp_threshold_calibration.py", "exec")


def test_model_vs_simulation_example_exists():
    source = (EXAMPLES_DIR / "model_vs_simulation.py").read_text()
    compile(source, "model_vs_simulation.py", "exec")


def test_adaptive_allocation_example_exists():
    # The adaptive-controller example sweeps many configurations; only check
    # that it imports/compiles cleanly so API drift is caught.
    source = (EXAMPLES_DIR / "adaptive_allocation.py").read_text()
    compile(source, "adaptive_allocation.py", "exec")


def test_network_hotspot_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "network_hotspot.py", ["0.4", "2.0"])
    assert "homogeneity anchor" in output
    assert "PASS" in output
    assert "hotspot cluster" in output
    assert "overflow absorbed" in output


def test_busy_hour_ramp_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "busy_hour_ramp.py", ["0.4", "1.8"])
    assert "transient anchor" in output
    assert "PASS" in output
    assert "busy-hour ramp" in output
    assert "transient vs. stationary" in output


def test_link_quality_and_arq_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "link_quality_and_arq.py", ["0.4"])
    assert "Link level" in output
    assert "switching thresholds" in output or "switch CS-1 -> CS-2" in output
    assert "block error rate" in output


def test_traffic_mix_analysis_example(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "traffic_mix_analysis.py")
    assert "fitted 3GPP parameters" in output
    assert "index of dispersion" in output


def test_guard_channels_and_adaptive_pdch_example_exists():
    # The adaptive comparison solves many model configurations; compile only.
    source = (EXAMPLES_DIR / "guard_channels_and_adaptive_pdch.py").read_text()
    compile(source, "guard_channels_and_adaptive_pdch.py", "exec")
