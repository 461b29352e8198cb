"""Regeneration of every figure of the paper's evaluation section (Figs. 5-15).

Each ``figureN`` function reproduces the corresponding figure as data: it
sweeps the GSM/GPRS call arrival rate for every curve shown in the paper and
returns a :class:`FigureResult` whose series carry the same labels as the
original legend.  Figures 5 and 6 (the validation experiments) can in addition
run the network-level simulator and attach simulation means and confidence
half-widths to the result.

The functions accept an :class:`~repro.experiments.scale.ExperimentScale` so
that the same code serves three purposes: quick smoke tests, the CI benchmark
harness (scaled sizes), and full-fidelity paper reproduction.

The analytical sweeps run through the scenario runtime
(:mod:`repro.runtime`): wrapping a figure call in
:func:`repro.runtime.executor.execution_options` (as ``run_experiment`` and
the CLI ``--jobs``/``--no-cache`` flags do) shards every curve's sweep across
worker processes and serves previously solved points from the
content-addressed result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.parameters import GprsModelParameters
from repro.experiments.scale import ExperimentScale
from repro.experiments.sweep import sweep_arrival_rates
from repro.traffic.presets import TRAFFIC_MODEL_1, TRAFFIC_MODEL_2, TRAFFIC_MODEL_3

__all__ = [
    "FigureSeries",
    "FigureResult",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
]


@dataclass(frozen=True)
class FigureSeries:
    """One labelled curve of a figure.

    Attributes
    ----------
    label:
        Legend label, matching the paper (e.g. ``"2 reserved PDCHs"``).
    arrival_rates:
        The x axis: GSM/GPRS call arrival rates in calls per second.
    values:
        Mapping from metric name to the y values of this curve.
    half_widths:
        Optional mapping from metric name to 95% confidence half-widths
        (only present for simulation series).
    """

    label: str
    arrival_rates: tuple[float, ...]
    values: dict[str, tuple[float, ...]]
    half_widths: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def metric(self, name: str) -> tuple[float, ...]:
        """Return the series of one metric."""
        return self.values[name]


@dataclass(frozen=True)
class FigureResult:
    """All curves of one reproduced figure."""

    figure: str
    description: str
    metrics: tuple[str, ...]
    series: tuple[FigureSeries, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(series.label for series in self.series)

    def get(self, label: str) -> FigureSeries:
        """Return the series with the given label."""
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"figure {self.figure} has no series labelled {label!r}")


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _base_parameters(
    preset,
    scale: ExperimentScale,
    *,
    gprs_fraction: float = 0.05,
    reserved_pdch: int = 1,
    max_sessions: int | None = None,
    tcp_threshold: float = 0.7,
) -> GprsModelParameters:
    """Build model parameters for one curve from a traffic preset and the scale."""
    sessions = max_sessions if max_sessions is not None else (
        scale.effective_max_sessions(preset.max_active_sessions)
    )
    return GprsModelParameters.from_traffic_model(
        preset,
        total_call_arrival_rate=scale.arrival_rates[0],
        gprs_fraction=gprs_fraction,
        reserved_pdch=reserved_pdch,
        buffer_size=scale.effective_buffer_size(100),
        max_gprs_sessions=sessions,
        tcp_threshold=tcp_threshold,
    )


def _analytical_series(
    label: str,
    params: GprsModelParameters,
    scale: ExperimentScale,
    metrics: tuple[str, ...],
) -> FigureSeries:
    """Sweep the analytical model and package the requested metrics.

    The sweep inherits the ambient execution options (worker processes and
    result cache) installed via
    :func:`repro.runtime.executor.execution_options`.
    """
    sweep = sweep_arrival_rates(params, scale.arrival_rates, solver=scale.solver)
    return FigureSeries(
        label=label,
        arrival_rates=sweep.arrival_rates,
        values={metric: sweep.series(metric) for metric in metrics},
    )


_SIMULATION_METRIC_NAMES = {
    "carried_data_traffic": "carried_data_traffic",
    "packet_loss_probability": "packet_loss_probability",
    "queueing_delay": "queueing_delay",
    "throughput_per_user": "throughput_per_user",
    "throughput_per_user_kbit_s": "throughput_per_user_kbit_s",
    "carried_voice_traffic": "carried_voice_traffic",
    "voice_blocking_probability": "voice_blocking_probability",
    "average_gprs_sessions": "average_gprs_sessions",
    "gprs_blocking_probability": "gprs_blocking_probability",
    "mean_queue_length": "mean_queue_length",
}


def _simulation_series(
    label: str,
    params: GprsModelParameters,
    scale: ExperimentScale,
    metrics: tuple[str, ...],
    *,
    tcp_enabled: bool = True,
    seed: int = 20020527,
) -> FigureSeries:
    """Run the network simulator at every arrival rate and package the metrics."""
    # Imported here so the analytic figures never load the DES stack.
    from repro.simulator.config import SimulationConfig, TcpConfig
    from repro.simulator.simulation import GprsNetworkSimulator

    values: dict[str, list[float]] = {metric: [] for metric in metrics}
    half_widths: dict[str, list[float]] = {metric: [] for metric in metrics}
    for rate in scale.arrival_rates:
        config = SimulationConfig(
            cell_parameters=params.with_arrival_rate(rate),
            number_of_cells=scale.simulation_cells,
            simulation_time_s=scale.simulation_time_s,
            warmup_time_s=scale.simulation_warmup_s,
            batches=scale.simulation_batches,
            seed=seed,
            tcp=TcpConfig(enabled=tcp_enabled),
        )
        results = GprsNetworkSimulator(config).run()
        for metric in metrics:
            interval = results.interval(_SIMULATION_METRIC_NAMES[metric])
            values[metric].append(interval.mean)
            half_widths[metric].append(interval.half_width)
    return FigureSeries(
        label=label,
        arrival_rates=scale.arrival_rates,
        values={metric: tuple(series) for metric, series in values.items()},
        half_widths={metric: tuple(series) for metric, series in half_widths.items()},
    )


# --------------------------------------------------------------------------- #
# Figure 5: calibration of the TCP threshold eta
# --------------------------------------------------------------------------- #
def figure5(
    scale: ExperimentScale | None = None,
    *,
    thresholds: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 1.0),
    include_simulation: bool = False,
) -> FigureResult:
    """Packet loss probability for different TCP thresholds ``eta`` (traffic model 3).

    The paper uses this experiment to calibrate the threshold approximation of
    TCP flow control against the detailed simulator: ``eta = 1`` (no flow
    control) drives the loss probability towards one, small ``eta`` throttles
    too early, and ``eta ~ 0.7`` tracks the simulation best.
    """
    scale = scale or ExperimentScale.default()
    metrics = ("packet_loss_probability",)
    series = []
    for eta in thresholds:
        params = _base_parameters(TRAFFIC_MODEL_3, scale, tcp_threshold=eta)
        series.append(
            _analytical_series(f"Markov model, eta = {eta:g}", params, scale, metrics)
        )
    if include_simulation:
        params = _base_parameters(TRAFFIC_MODEL_3, scale)
        series.append(
            _simulation_series("simulation (TCP)", params, scale, metrics)
        )
    return FigureResult(
        figure="figure5",
        description="Calibrating the threshold eta to represent TCP flow control",
        metrics=metrics,
        series=tuple(series),
    )


# --------------------------------------------------------------------------- #
# Figure 6: validation of CDT and ATU against the simulator
# --------------------------------------------------------------------------- #
def figure6(
    scale: ExperimentScale | None = None,
    *,
    gprs_fractions: tuple[float, ...] = (0.02, 0.05, 0.10),
    include_simulation: bool = False,
) -> FigureResult:
    """Carried data traffic and throughput per user, Markov model vs. simulator.

    Traffic model 3 with one reserved PDCH; one pair of curves per GPRS user
    percentage (2%, 5%, 10%).
    """
    scale = scale or ExperimentScale.default()
    metrics = ("carried_data_traffic", "throughput_per_user_kbit_s")
    series = []
    for fraction in gprs_fractions:
        params = _base_parameters(TRAFFIC_MODEL_3, scale, gprs_fraction=fraction)
        series.append(
            _analytical_series(
                f"Markov model, {fraction:.0%} GPRS users", params, scale, metrics
            )
        )
        if include_simulation:
            series.append(
                _simulation_series(
                    f"simulation, {fraction:.0%} GPRS users", params, scale, metrics
                )
            )
    return FigureResult(
        figure="figure6",
        description="Validation of numerical results with the detailed simulator "
        "(1 reserved PDCH, traffic model 3)",
        metrics=metrics,
        series=tuple(series),
    )


# --------------------------------------------------------------------------- #
# Figures 7-9: traffic models 1 and 2 with 1 / 2 / 4 reserved PDCHs
# --------------------------------------------------------------------------- #
def _reserved_pdch_comparison(
    figure: str,
    description: str,
    metrics: tuple[str, ...],
    scale: ExperimentScale,
    reserved: tuple[int, ...] = (1, 2, 4),
) -> FigureResult:
    series = []
    for preset in (TRAFFIC_MODEL_1, TRAFFIC_MODEL_2):
        for pdch in reserved:
            params = _base_parameters(preset, scale, reserved_pdch=pdch)
            series.append(
                _analytical_series(
                    f"traffic model {preset.number}, {pdch} reserved PDCH",
                    params,
                    scale,
                    metrics,
                )
            )
    return FigureResult(figure=figure, description=description, metrics=metrics,
                        series=tuple(series))


def figure7(scale: ExperimentScale | None = None) -> FigureResult:
    """Carried data traffic for traffic models 1 and 2 with 1, 2 and 4 reserved PDCHs."""
    return _reserved_pdch_comparison(
        "figure7",
        "Carried data traffic (CDT) for traffic model 1 (left) and 2 (right)",
        ("carried_data_traffic",),
        scale or ExperimentScale.default(),
    )


def figure8(scale: ExperimentScale | None = None) -> FigureResult:
    """Packet loss probability for traffic models 1 and 2 with 1, 2 and 4 reserved PDCHs."""
    return _reserved_pdch_comparison(
        "figure8",
        "Packet loss probability (PLP) for traffic model 1 (left) and 2 (right)",
        ("packet_loss_probability",),
        scale or ExperimentScale.default(),
    )


def figure9(scale: ExperimentScale | None = None) -> FigureResult:
    """Queueing delay for traffic models 1 and 2 with 1, 2 and 4 reserved PDCHs."""
    return _reserved_pdch_comparison(
        "figure9",
        "Queueing delay (QD) for traffic model 1 (left) and 2 (right)",
        ("queueing_delay",),
        scale or ExperimentScale.default(),
    )


# --------------------------------------------------------------------------- #
# Figure 10: impact of the session limit M
# --------------------------------------------------------------------------- #
def figure10(
    scale: ExperimentScale | None = None,
    *,
    session_limits: tuple[int, ...] = (50, 100, 150),
    reserved_pdch: int = 2,
) -> FigureResult:
    """Carried data traffic and GPRS session blocking for M = 50, 100, 150.

    Traffic model 1 with two reserved PDCHs.  With the scaled preset the three
    session limits are scaled proportionally (e.g. 10 / 20 / 30) so the
    qualitative effect -- raising M removes blocking while CDT stays below two
    PDCHs -- is preserved.
    """
    scale = scale or ExperimentScale.default()
    metrics = ("carried_data_traffic", "gprs_blocking_probability")
    series = []
    for limit in session_limits:
        scaled_limit = scale.scaled_session_limit(limit, paper_reference=50)
        params = _base_parameters(
            TRAFFIC_MODEL_1,
            scale,
            reserved_pdch=reserved_pdch,
            max_sessions=scaled_limit,
        )
        series.append(
            _analytical_series(
                f"M = {scaled_limit} (paper: {limit})", params, scale, metrics
            )
        )
    return FigureResult(
        figure="figure10",
        description="CDT and GPRS session blocking probability for different "
        "session limits M (traffic model 1, 2 reserved PDCHs)",
        metrics=metrics,
        series=tuple(series),
    )


# --------------------------------------------------------------------------- #
# Figures 11-13: CDT and throughput per user for 2% / 5% / 10% GPRS users
# --------------------------------------------------------------------------- #
def _gprs_share_figure(
    figure: str,
    gprs_fraction: float,
    scale: ExperimentScale,
    reserved: tuple[int, ...] = (0, 1, 2, 4),
) -> FigureResult:
    metrics = ("carried_data_traffic", "throughput_per_user_kbit_s")
    series = []
    for pdch in reserved:
        params = _base_parameters(
            TRAFFIC_MODEL_3, scale, gprs_fraction=gprs_fraction, reserved_pdch=pdch
        )
        series.append(
            _analytical_series(f"{pdch} reserved PDCH", params, scale, metrics)
        )
    return FigureResult(
        figure=figure,
        description=(
            f"CDT and throughput per user for {gprs_fraction:.0%} GPRS users "
            "(traffic model 3, 0/1/2/4 reserved PDCHs)"
        ),
        metrics=metrics,
        series=tuple(series),
    )


def figure11(scale: ExperimentScale | None = None) -> FigureResult:
    """CDT and throughput per user for 2% GPRS users (traffic model 3)."""
    return _gprs_share_figure("figure11", 0.02, scale or ExperimentScale.default())


def figure12(scale: ExperimentScale | None = None) -> FigureResult:
    """CDT and throughput per user for 5% GPRS users (traffic model 3)."""
    return _gprs_share_figure("figure12", 0.05, scale or ExperimentScale.default())


def figure13(scale: ExperimentScale | None = None) -> FigureResult:
    """CDT and throughput per user for 10% GPRS users (traffic model 3)."""
    return _gprs_share_figure("figure13", 0.10, scale or ExperimentScale.default())


# --------------------------------------------------------------------------- #
# Figure 14: influence of GPRS on the GSM voice service
# --------------------------------------------------------------------------- #
def figure14(
    scale: ExperimentScale | None = None,
    *,
    reserved: tuple[int, ...] = (0, 1, 2, 4),
) -> FigureResult:
    """Carried voice traffic and voice blocking probability for 0/1/2/4 reserved PDCHs.

    95% GSM users (base setting); shows that reserving PDCHs costs the voice
    service only a marginal increase in blocking probability.
    """
    scale = scale or ExperimentScale.default()
    metrics = ("carried_voice_traffic", "voice_blocking_probability")
    series = []
    for pdch in reserved:
        params = _base_parameters(TRAFFIC_MODEL_3, scale, reserved_pdch=pdch)
        series.append(
            _analytical_series(f"{pdch} reserved PDCH", params, scale, metrics)
        )
    return FigureResult(
        figure="figure14",
        description="Influence of GPRS on the GSM voice service (95% GSM calls)",
        metrics=metrics,
        series=tuple(series),
    )


# --------------------------------------------------------------------------- #
# Figure 15: average number of GPRS users and GPRS blocking probability
# --------------------------------------------------------------------------- #
def figure15(
    scale: ExperimentScale | None = None,
    *,
    gprs_fractions: tuple[float, ...] = (0.02, 0.05, 0.10),
) -> FigureResult:
    """Average number of GPRS users in the cell and GPRS session blocking probability.

    Traffic model 3 with one reserved PDCH; one curve per GPRS user percentage.
    """
    scale = scale or ExperimentScale.default()
    metrics = ("average_gprs_sessions", "gprs_blocking_probability")
    series = []
    for fraction in gprs_fractions:
        params = _base_parameters(TRAFFIC_MODEL_3, scale, gprs_fraction=fraction)
        series.append(
            _analytical_series(f"{fraction:.0%} GPRS users", params, scale, metrics)
        )
    return FigureResult(
        figure="figure15",
        description="Average number of GPRS users in the cell and GPRS user "
        "blocking probability (traffic model 3)",
        metrics=metrics,
        series=tuple(series),
    )
