"""Tests of the gprs-repro command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestLeanImport:
    def test_cli_import_leaves_the_des_stack_unloaded(self):
        """``import repro.cli`` -- paid by every command and by every pool
        worker re-importing the entry script -- must not pull in the
        simulator, the DES engine or ``scipy.stats``."""
        heavy = ("scipy.stats", "repro.des", "repro.simulator")
        code = (
            "import sys, repro.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.stdout.strip() == "[]"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_command_arguments(self):
        args = build_parser().parse_args(["run", "figure12", "--preset", "smoke"])
        assert args.command == "run"
        assert args.experiment == "figure12"
        assert args.preset == "smoke"

    def test_solve_command_requires_arrival_rate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve"])

    def test_solve_rejects_unknown_solver_before_building_the_model(self, capsys):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(
                ["solve", "--arrival-rate", "0.4", "--solver", "bogus"]
            )
        assert raised.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_solve_accepts_every_listed_solver(self):
        for solver in ("auto", "structured", "gth", "direct", "power", "gauss-seidel"):
            args = build_parser().parse_args(
                ["solve", "--arrival-rate", "0.4", "--solver", solver]
            )
            assert args.solver == solver

    def test_sweep_command_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "heavy-gprs", "--preset", "smoke", "--jobs", "4", "--no-cache"]
        )
        assert args.command == "sweep"
        assert args.scenario == "heavy-gprs"
        assert args.jobs == 4
        assert args.no_cache is True

    def test_run_command_accepts_runtime_flags(self):
        args = build_parser().parse_args(["run", "figure12", "--jobs", "2", "--no-cache"])
        assert args.jobs == 2
        assert args.no_cache is True

    def test_list_command_kind_filter(self):
        args = build_parser().parse_args(["list", "--kind", "network"])
        assert args.kind == "network"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "--kind", "bogus"])

    def test_network_command_arguments(self):
        args = build_parser().parse_args(
            ["network", "hotspot-cluster", "--preset", "smoke", "--jobs", "3", "--json"]
        )
        assert args.command == "network"
        assert args.scenario == "hotspot-cluster"
        assert args.jobs == 3
        assert args.json is True

    def test_transient_command_arguments(self):
        args = build_parser().parse_args(
            ["transient", "busy-hour-ramp", "--preset", "smoke",
             "--rate", "0.4", "--jobs", "2", "--no-cache", "--cold", "--json"]
        )
        assert args.command == "transient"
        assert args.scenario == "busy-hour-ramp"
        assert args.rate == 0.4
        assert args.jobs == 2
        assert args.no_cache is True
        assert args.cold is True
        assert args.json is True

    def test_list_accepts_transient_kind(self):
        args = build_parser().parse_args(["list", "--kind", "transient"])
        assert args.kind == "transient"


class TestCommands:
    def test_list_prints_all_experiments_and_scenarios(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table2" in output
        assert "figure15" in output
        assert "heavy-gprs" in output
        assert "degraded-radio" in output

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        output = capsys.readouterr().out
        assert "Table 2" in output
        assert "physical channels" in output

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_figure_with_smoke_preset(self, capsys):
        assert main(["run", "figure14", "--preset", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "voice_blocking_probability" in output

    def test_sweep_scenario(self, capsys):
        assert main(["sweep", "figure5", "--preset", "smoke", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "figure5" in output
        assert "packet_loss_probability" in output

    def test_sweep_parallel_json_output(self, capsys, tmp_path):
        import json

        exit_code = main([
            "sweep", "voice-first", "--preset", "smoke", "--jobs", "2",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"]["name"] == "voice-first"
        assert len(data["points"]) == 2
        assert all("voice_blocking_probability" in p["values"] for p in data["points"])

    def test_sweep_unknown_scenario_fails(self, capsys):
        assert main(["sweep", "no-such-scenario", "--no-cache"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_list_kind_network_prints_only_network_scenarios(self, capsys):
        assert main(["list", "--kind", "network"]) == 0
        output = capsys.readouterr().out
        assert "hotspot-cluster" in output
        assert "ring-16" in output
        assert "table2" not in output
        assert "heavy-gprs" not in output

    def test_network_command_per_cell_report(self, capsys):
        assert main(["network", "homogeneous-7", "--preset", "smoke", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "homogeneous-7" in output
        assert "cells=7" in output
        assert "outer iterations" in output
        assert "mean" in output

    def test_network_command_json_output(self, capsys, tmp_path):
        exit_code = main([
            "network", "hotspot-cluster", "--preset", "smoke", "--jobs", "2",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"]["name"] == "hotspot-cluster"
        assert len(data["points"][0]["cells"]) == 7
        assert data["points"][0]["converged"] is True

    def test_network_command_rejects_single_cell_scenarios(self, capsys):
        assert main(["network", "figure12", "--no-cache"]) == 2
        assert "single-cell" in capsys.readouterr().err

    def test_sweep_rejects_chunk_size_for_network_scenarios(self, capsys):
        exit_code = main([
            "sweep", "homogeneous-7", "--preset", "smoke", "--no-cache",
            "--chunk-size", "4",
        ])
        assert exit_code == 2
        assert "single-cell" in capsys.readouterr().err

    def test_sweep_accepts_network_scenarios(self, capsys):
        assert main(["sweep", "homogeneous-7", "--preset", "smoke", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "homogeneous-7" in output
        assert "voice_blocking_probability" in output

    def test_list_kind_transient_prints_only_transient_scenarios(self, capsys):
        assert main(["list", "--kind", "transient"]) == 0
        output = capsys.readouterr().out
        assert "busy-hour-ramp" in output
        assert "flash-crowd" in output
        assert "segments" in output
        assert "table2" not in output
        assert "hotspot-cluster" not in output

    def test_transient_busy_hour_ramp_end_to_end_with_cache(self, capsys, tmp_path):
        """Acceptance: the registered busy-hour-ramp scenario runs through
        CLI + cache and reports a QoS trajectory; the rerun is served from
        the cache with identical output."""
        argv = [
            "transient", "busy-hour-ramp", "--preset", "smoke",
            "--rate", "0.3", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "busy-hour-ramp" in first
        assert "time [s]" in first
        assert "time avg" in first
        assert "0 hit(s), 1 solved" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "1 hit(s), 0 solved" in second
        # Identical trajectory table (header lines differ: cache accounting).
        assert second.splitlines()[4:] == first.splitlines()[4:]

    def test_transient_command_json_output(self, capsys, tmp_path):
        exit_code = main([
            "transient", "flash-crowd", "--preset", "smoke", "--rate", "0.4",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"]["name"] == "flash-crowd"
        assert len(data["points"]) == 1
        trajectory = data["points"][0]
        assert len(trajectory["points"]) == len(trajectory["times"])
        assert "time_averages" in trajectory

    def test_transient_command_rejects_stationary_scenarios(self, capsys):
        assert main(["transient", "figure12", "--no-cache"]) == 2
        assert "stationary" in capsys.readouterr().err

    def test_sweep_rejects_chunk_size_for_transient_scenarios(self, capsys):
        exit_code = main([
            "sweep", "flash-crowd", "--preset", "smoke", "--no-cache",
            "--chunk-size", "4",
        ])
        assert exit_code == 2
        assert "single-cell" in capsys.readouterr().err

    def test_sweep_cold_flag_matches_warm_default(self, capsys):
        """--cold (A/B knob) must produce the same report shape and values
        within solver tolerance; at smoke scale the direct solver makes the
        two runs identical."""
        argv = ["sweep", "figure5", "--preset", "smoke", "--no-cache"]
        assert main(argv + ["--cold"]) == 0
        cold = capsys.readouterr().out
        assert main(argv + ["--chunk-size", "2"]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_run_with_cache_dir_and_jobs(self, capsys, tmp_path):
        argv = [
            "run", "figure14", "--preset", "smoke", "--jobs", "2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # warm-cache rerun
        assert capsys.readouterr().out == first

    def test_solve_small_configuration(self, capsys):
        exit_code = main([
            "solve", "--arrival-rate", "0.4", "--buffer-size", "5",
            "--max-sessions", "3", "--reserved-pdch", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "carried_data_traffic" in output
        assert "packet_loss_probability" in output

    def test_simulate_small_configuration(self, capsys):
        exit_code = main([
            "simulate", "--arrival-rate", "0.4", "--buffer-size", "8",
            "--max-sessions", "3", "--time", "300", "--warmup", "30",
            "--cells", "3", "--batches", "2", "--no-tcp",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Simulation results" in output
        assert "carried_data_traffic" in output

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--arrival-rate", "nan"],
            ["--arrival-rate", "-1"],
            ["--arrival-rate", "0.4", "--reserved-pdch", "20"],
        ],
        ids=["nan-rate", "negative-rate", "no-gsm-channel"],
    )
    def test_bad_model_parameters_exit_2_with_an_error_line(
        self, capsys, command, flags
    ):
        argv = [command, *flags, "--buffer-size", "5", "--max-sessions", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_bad_model_parameters_exit_2_when_instrumented(self, capsys):
        argv = ["solve", "--arrival-rate", "nan", "--buffer-size", "5", "--trace"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
