"""Plain-text rendering of experiment results.

The paper presents its results as figures; this repository regenerates them as
data and prints them as aligned text tables (one row per arrival rate, one
column per curve) plus optional CSV export, which is what the CLI and the
benchmark harness display.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.experiments.figures import FigureResult

if TYPE_CHECKING:
    from repro.network.sweep import NetworkSweepResult
    from repro.runtime.executor import ScenarioRunResult
    from repro.transient.sweep import TransientSweepResult

__all__ = [
    "format_table",
    "format_figure_result",
    "format_network_result",
    "format_scenario_result",
    "format_transient_result",
    "figure_result_to_csv",
]


def format_table(title: str, rows: Mapping[str, float | str], *, width: int = 58) -> str:
    """Render a ``{label: value}`` mapping as an aligned two-column text table."""
    lines = [title, "-" * max(len(title), 20)]
    for label, value in rows.items():
        if isinstance(value, float):
            rendered = f"{value:.6g}"
        else:
            rendered = str(value)
        lines.append(f"{label:<{width}} {rendered}")
    return "\n".join(lines)


def format_figure_result(result: FigureResult, *, precision: int = 5) -> str:
    """Render a :class:`~repro.experiments.figures.FigureResult` as text tables.

    One table is produced per metric; rows are arrival rates, columns are the
    labelled curves of the figure.  Simulation series additionally show their
    95% confidence half-width as ``value +/- half_width``.
    """
    blocks = [f"{result.figure}: {result.description}"]
    for metric in result.metrics:
        header = ["arrival rate"] + [series.label for series in result.series]
        rates = result.series[0].arrival_rates
        rows = []
        for index, rate in enumerate(rates):
            row = [f"{rate:.3g}"]
            for series in result.series:
                value = series.values[metric][index]
                if metric in series.half_widths:
                    half = series.half_widths[metric][index]
                    row.append(f"{value:.{precision}g} +/- {half:.2g}")
                else:
                    row.append(f"{value:.{precision}g}")
            rows.append(row)
        lines = [f"\n[{metric}]"]
        lines.extend(_format_aligned(header, rows))
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


def format_scenario_result(result: "ScenarioRunResult", *, precision: int = 5) -> str:
    """Render a scenario sweep as one aligned table (rows: rates, columns: metrics).

    The header records the scenario, how it was executed and how many points
    came from the result cache, so a pasted report is self-describing.
    """
    spec = result.spec
    lines = [
        f"{spec.name}: {spec.description}",
        f"solver={spec.solver}  points={len(result.points)}  "
        f"cache: {result.cache_hits} hit(s), {result.cache_misses} solved",
    ]
    failed = sum(1 for point in result.points if getattr(point, "failed", False))
    if failed:
        lines.append(f"WARNING: {failed} point(s) failed; rows marked FAILED")
    header = ["arrival rate", *spec.metrics]
    rows = []
    for point in result.points:
        if getattr(point, "failed", False):
            rows.append([f"{point.arrival_rate:.3g}"] + ["FAILED"] * len(spec.metrics))
            continue
        rows.append(
            [f"{point.arrival_rate:.3g}"]
            + [f"{point.values[metric]:.{precision}g}" for metric in spec.metrics]
        )
    lines.extend(_format_aligned(header, rows))
    return "\n".join(lines)


def _format_aligned(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[col]), *(len(row[col]) for row in rows))
        for col in range(len(header))
    ]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(header, widths))]
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return lines


def format_network_result(result: "NetworkSweepResult", *, precision: int = 5) -> str:
    """Render a network sweep: one per-cell table per arrival rate.

    Every block shows the scenario's metrics plus the balanced incoming
    handover rates for each cell, a ``mean`` row (the network aggregates) and
    the convergence/warm-start accounting of the joint solve.
    """
    spec = result.spec
    topology = spec.network
    lines = [
        f"{spec.name}: {spec.description}",
        f"topology={topology.name}  cells={topology.number_of_cells}  "
        f"solver={spec.solver}  points={len(result.points)}  "
        f"cache: {result.cache_hits} hit(s), {result.cache_misses} solved",
    ]
    header = ["cell", *spec.metrics, "gsm handover in", "gprs handover in"]
    for point in result.points:
        payload = point.payload
        if payload is None:
            lines.append("")
            lines.append(f"[arrival rate {point.arrival_rate:.3g}]  FAILED")
            continue
        status = "converged" if payload["converged"] else "NOT converged"
        frozen = payload.get("frozen_solves", 0)
        origin = "cache" if point.from_cache else (
            f"{payload['solver_calls']} solver call(s), "
            f"{payload['cold_solves']} cold / "
            f"{payload['solver_calls'] - payload['cold_solves']} warm"
            + (f", {frozen} frozen" if frozen else "")
        )
        lines.append("")
        lines.append(
            f"[arrival rate {point.arrival_rate:.3g}]  "
            f"outer iterations: {payload['outer_iterations']} ({status}), {origin}"
        )
        rows = []
        for cell in payload["cells"]:
            rows.append(
                [str(cell["index"])]
                + [f"{cell['values'][metric]:.{precision}g}" for metric in spec.metrics]
                + [
                    f"{cell['gsm_incoming_rate']:.{precision}g}",
                    f"{cell['gprs_incoming_rate']:.{precision}g}",
                ]
            )
        aggregates = payload["aggregates"]
        rows.append(
            ["mean"]
            + [f"{aggregates[metric]:.{precision}g}" for metric in spec.metrics]
            + [
                f"{aggregates['gsm_handover_arrival_rate']:.{precision}g}",
                f"{aggregates['gprs_handover_arrival_rate']:.{precision}g}",
            ]
        )
        lines.extend(_format_aligned(header, rows))
    return "\n".join(lines)


def format_transient_result(result: "TransientSweepResult", *, precision: int = 5) -> str:
    """Render a transient sweep: one trajectory table per base arrival rate.

    Every block shows the scenario's metrics over time (one row per sample,
    with the active schedule segment and effective load), a closing
    ``time avg`` row, and the solve accounting (matrix-vector products,
    template reuse, early-stopped segments).
    """
    spec = result.spec
    profile = spec.transient
    lines = [
        f"{spec.name}: {spec.description}",
        f"profile={profile.name}  duration={profile.total_duration_s:g}s  "
        f"segments={profile.schedule.number_of_segments}  "
        f"initial={profile.initial}  solver={spec.solver}  "
        f"cache: {result.cache_hits} hit(s), {result.cache_misses} solved",
    ]
    header = ["time [s]", "seg", "load", *spec.metrics]
    for point in result.points:
        payload = point.payload
        if payload is None:
            lines.append("")
            lines.append(f"[base arrival rate {point.arrival_rate:.3g}]  FAILED")
            continue
        replays = payload.get("propagator_hits", 0)
        origin = "cache" if point.from_cache else (
            f"{payload['matvecs']} matvec(s), "
            f"{payload['templates_built']} template(s) built, "
            f"{payload['early_stopped_segments']} early stop(s)"
            + (f", {replays} propagator replay(s)" if replays else "")
        )
        lines.append("")
        lines.append(f"[base arrival rate {point.arrival_rate:.3g}]  {origin}")
        rows = []
        for sample in payload["points"]:
            rows.append(
                [
                    f"{sample['time_s']:.4g}",
                    str(sample["segment"]),
                    f"{sample['arrival_rate']:.3g}",
                ]
                + [
                    f"{sample['values'][metric]:.{precision}g}"
                    for metric in spec.metrics
                ]
            )
        averages = payload["time_averages"]
        rows.append(
            ["time avg", "", ""]
            + [f"{averages[metric]:.{precision}g}" for metric in spec.metrics]
        )
        lines.extend(_format_aligned(header, rows))
    return "\n".join(lines)


def figure_result_to_csv(result: FigureResult) -> str:
    """Return the figure data as CSV (long format: figure, metric, label, rate, value)."""
    output = io.StringIO()
    writer = csv.writer(output)
    writer.writerow(["figure", "metric", "series", "arrival_rate", "value", "half_width"])
    for metric in result.metrics:
        for series in result.series:
            half_widths = series.half_widths.get(metric)
            for index, rate in enumerate(series.arrival_rates):
                writer.writerow(
                    [
                        result.figure,
                        metric,
                        series.label,
                        rate,
                        series.values[metric][index],
                        half_widths[index] if half_widths else "",
                    ]
                )
    return output.getvalue()
